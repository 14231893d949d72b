"""The library sketch and config examples in README.md run against the
package in src/."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

from womplab.cli import build_parser, main
from womplab.discretization import DEFAULT_SUBSET_CAP
from womplab.experiments import SCOPE_ENTRIES

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(tmp_path):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks, "README.md has no python block"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for code in blocks:
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr


def test_readme_ini_blocks_run(tmp_path):
    # each block runs as the config of the subcommand its non-common
    # section names
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", text, re.S | re.M)
    assert blocks, "README.md has no ini block"
    for i, block in enumerate(blocks):
        command, = [name for name in re.findall(r"^\[(.+)\]$", block, re.M)
                    if name != "common"]
        path = tmp_path / f"{i}.ini"
        path.write_text(block)
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / f"out{i}")]) == 0


def test_readme_cli_synopsis_lists_the_shared_options():
    # the synopsis block names exactly the options every subcommand takes,
    # so a removed option cannot linger in it
    text = (ROOT / "README.md").read_text()
    synopsis, = re.findall(r"^```\n(womplab <subcommand> .*?)^```", text,
                           re.S | re.M)
    documented = set(re.findall(r"\[(--[\w-]+)", synopsis))
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    per_command = [{opt for action in parser._actions
                    for opt in action.option_strings if opt.startswith("--")}
                   - {"--help"} for parser in sub.choices.values()]
    assert documented == set.intersection(*per_command)


def test_readme_quotes_the_scope_limits_of_the_constants():
    # README writes the limits by hand; a change to either constant fails
    # here until README follows it
    text = (ROOT / "README.md").read_text()
    for value in (DEFAULT_SUBSET_CAP, SCOPE_ENTRIES):
        assert f"{value:,}" in text

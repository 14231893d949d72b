"""The library sketch and config examples in README.md run against the
package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

from womplab.cli import main

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

"""The library sketch and config examples in README.md run against the
package in src/."""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from womplab.cli import build_parser, main
from womplab.discretization import DEFAULT_SUBSET_CAP
from womplab.experiments import SCOPE_ENTRIES

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "behaviour_ledger.json"


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


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # README's reproducibility claim: a default sweep (two seeds), the
    # default fooling grid, a fooling grid with empty point sets and
    # criteria 2, 3 and 7 write the same bytes at 1 and 2 BLAS threads
    (tmp_path / "sweep.ini").write_text("[rate-sweep]\nseeds = 2\n")
    (tmp_path / "edge.ini").write_text(
        "[fooling]\nbox_list = 8,16\nm_list = 0,4\nseeds = 2\n")
    code = "import sys; from womplab.cli import main; sys.exit(main(sys.argv[1:]))"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / threads
        for name, args in (("rate-sweep", ["rate-sweep", "--config", "sweep.ini"]),
                           ("fooling", ["fooling"]),
                           ("fooling-edge", ["fooling", "--config", "edge.ini"]),
                           ("verify", ["verify", "--criteria", "2,3,7"])):
            proc = subprocess.run([sys.executable, "-c", code, *args, "--out",
                                   str(out / name)], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "verify" / "verify.json").read_text())
        for criterion in report["criteria"]:
            del criterion["seconds"]
        (out / "verify" / "verify.json").write_text(json.dumps(report))
        outputs.append({str(f.relative_to(out)): f.read_bytes()
                        for f in sorted(out.rglob("*")) if f.is_file()})
    assert len(outputs[0]) == 12 and outputs[0] == outputs[1]

    # the behaviour ledger: the same files' hashes at 1 BLAS thread, valid
    # only where numpy, its BLAS and the CPU kernels they pick are the same
    ledger = json.loads(LEDGER.read_text())
    recorded = ledger["provenance"]
    moved = [f"{field} is {value!r} here, {recorded.get(field)!r} in the ledger"
             for field, value in provenance().items()
             if recorded.get(field) != value]
    if moved:
        pytest.skip("ledger not compared: " + "; ".join(moved))
    hashes = {name: hashlib.sha256(data).hexdigest()
              for name, data in outputs[0].items()}
    assert hashes == ledger["sha256"], (
        "outputs moved; if on purpose, write these hashes to "
        f"{LEDGER.name} and list the moves in CHANGES.md: "
        + json.dumps(hashes, indent=1, sort_keys=True))


def provenance():
    """What the ledger's bytes depend on besides the code: Python, numpy,
    the BLAS numpy was built against, the BLAS thread count and the SIMD
    features that numpy's loops and a DYNAMIC_ARCH BLAS dispatch on."""
    from numpy._core._multiarray_umath import __cpu_features__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas["name"], "blas_version": blas["version"],
            "blas_threads": 1,
            "cpu_features": " ".join(sorted(k for k, on in __cpu_features__.items()
                                            if on))}

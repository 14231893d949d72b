"""The benchmark's workloads run against the library in src/.

perfbench/ calls the library with its own argument lists, wraps it with
its tracer and compares seed-0 outputs with a recorded reference.  One
traced pass of each workload, checked the way perfbench/run.py checks it,
shows a broken signature or a moved seed-0 result here, in the test suite.
The same pass counts womp's routes: every run stays in Gram space, and none
falls back to the least-squares route.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PASS_CODE = """
import json
import checks, tracer, workloads
from womplab import greedy

calls = {"_womp_gram": 0, "_womp_lstsq": 0}


def counted(name, func):
    def wrapper(*args):
        calls[name] += 1
        return func(*args)
    return wrapper


for name in calls:
    setattr(greedy, name, counted(name, getattr(greedy, name)))
reference = checks.load_reference()
problems = {}
for name, cls in workloads.WORKLOADS.items():
    workload = cls()
    inputs = workload.make_inputs(workloads.DEFAULT_SEED)
    with tracer.instrument(tracer.Recorder()):
        outcome = workload.run_pass(inputs)
    items = checks.check_pass(name, workload.summarize(outcome), reference.get(name))
    problems[name] = {"items": len(items), "problems": [p for item in items for p in item]}
print(json.dumps({"problems": problems, "calls": calls}))
"""


def test_one_traced_pass_of_each_workload_meets_the_checks():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PASS_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    result = out["problems"]
    assert sorted(result) == ["adversary", "certified", "sweep"]
    for name, row in result.items():
        assert row["items"] > 0, name
        assert row["problems"] == [], name
    assert out["calls"]["_womp_gram"] > 0
    assert out["calls"]["_womp_lstsq"] == 0

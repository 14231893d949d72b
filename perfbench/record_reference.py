"""Record the default-seed outputs that checks.py compares against.

    python3 perfbench/record_reference.py

Run once from the repository root at the commit whose outputs define the
reference; the file it writes is committed with the benchmark.  The
adversary workload has no stored reference: its checks are certificates
that every seed must satisfy.
"""

import json
import sys

import run


def main():
    run.import_library()
    import checks
    import workloads

    reference = {}
    for name in ("certified", "sweep"):
        workload = workloads.WORKLOADS[name]()
        inputs = workload.make_inputs(workloads.DEFAULT_SEED)
        summary = workload.summarize(workload.run_pass(inputs))
        problems = [p for p in checks.check_pass(name, summary, None) if p]
        if problems:
            sys.exit(f"{name}: outputs fail their invariants: {problems[:3]}")
        reference[name] = summary
    reference["provenance"] = run.provenance()
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

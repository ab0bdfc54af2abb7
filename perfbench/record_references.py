"""Record the sha256 of the output of every input a seed can produce into
perfbench/references.json, after checking each output against its oracle.

    python3 perfbench/record_references.py

Run it only where the outputs are known to be right: every benchmark run
compares its outputs with these digests, and a changed output byte counts
as a failed operation.
"""

import json
import sys
import time

import run
import workloads


def main():
    run.OUT.mkdir(exist_ok=True)
    stdout = run.OUT / "output"
    references = {}
    for name, op in workloads.all_operations():
        key = " ".join(op.args)
        child = run.Child(run.GROWTH + op.args, stdout,
                          time.perf_counter() + 600)
        if child.code != 0:
            return f"{name}: growth {key} exited with {child.code}"
        output = stdout.read_bytes()
        reason = op.check(output)
        if reason:
            return f"{name}: growth {key}: {reason}"
        references.setdefault(name, {})[key] = workloads.digest(name, output)
        print(f"{name}: growth {key}: {child.wall:.2f} s")
    run.REFERENCES.write_text(
        json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

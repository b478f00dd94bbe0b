"""Compare saved benchmark outputs of two commits, per metric.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the standard output of one or more ``run.py`` runs of one
workload (concatenated).  For each metric the medians of both sides and
their ratio are printed.  Runs made under different kernel backends,
Python versions or workloads are flagged, because such a comparison does
not isolate the code change (the compiled kernels measured 0.73-1.28x of
the Python ones).
"""

from __future__ import annotations

import json
import statistics
import sys

ENV_KEYS = ("backend", "QWEYL_BACKEND", "python", "workload")


def load(path: str) -> tuple[list[dict], list[dict]]:
    envs, results = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("env: "):
                envs.append(json.loads(line[len("env: ") :]))
            elif line.startswith("{"):
                results.append(json.loads(line))
    if not results:
        raise SystemExit("%s holds no benchmark result" % path)
    return envs, results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (env_a, res_a), (env_b, res_b) = load(argv[0]), load(argv[1])
    mismatched = False
    for key in ENV_KEYS:
        seen = {str(e.get(key)) for e in env_a + env_b}
        if len(seen) > 1:
            mismatched = True
            print("WARNING: runs differ in %s: %s" % (key, ", ".join(sorted(seen))))
    for name in res_a[0]["metrics"]:
        a = statistics.median(r["metrics"][name]["value"] for r in res_a)
        b = statistics.median(r["metrics"][name]["value"] for r in res_b)
        unit = res_a[0]["metrics"][name]["unit"]
        ratio = "%.3f" % (b / a) if a else "n/a"
        print("%-36s %14.6g %14.6g %-6s after/before %s (n=%d, %d)" % (name, a, b, unit, ratio, len(res_a), len(res_b)))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

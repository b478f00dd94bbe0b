"""qweyl benchmark: three seeded closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload heavy-symbolic --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): ``heavy-symbolic``, ``cli-stream``,
``rep-crosscheck``.  Each run first measures set-up (fresh interpreters that
import qweyl and build ``hq()``), then starts one fresh single-threaded
worker that runs whole passes over the seeded item list for ``--seconds``.
Outputs are checked against references outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds one traced
pass after the untraced ones and prints the per-layer metrics, the tracing
overhead (traced minus untraced ``pass_s``) and the spans file.  Human
readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-digests`` rewrites digests.json from the current code; it is
meant to be run only on the commit that fixes the reference outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_SPAWNS = 9
WORKER_GRACE_S = 150

SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qweyl\n"
    "t1 = time.perf_counter()\n"
    "qweyl.hq()\n"
    "print(t0, t1, time.perf_counter())\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("item_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, layer whose absence makes the row missing)
PER_LAYER = (
    ("kernels.mpoly_mul.calls", "count", "kernels.mpoly_mul"),
    ("kernels.mpoly_mul.term_products", "count", "kernels.mpoly_mul"),
    ("kernels.mpoly_mul.self_s", "s", "kernels.mpoly_mul"),
    ("kernels.mpoly_mul.max_terms", "count", "kernels.mpoly_mul"),
    ("kernels.mpoly_mul.max_coeff_bits", "bits", "kernels.mpoly_mul"),
    ("kernels.axpy_shift.calls", "count", "kernels.axpy_shift"),
    ("kernels.axpy_shift.terms", "count", "kernels.axpy_shift"),
    ("kernels.axpy_shift.self_s", "s", "kernels.axpy_shift"),
    ("kernels.addsub.calls", "count", "kernels.addsub"),
    ("kernels.addsub.self_s", "s", "kernels.addsub"),
    ("scalar.divexact.calls", "count", "scalar.divexact"),
    ("scalar.divexact.self_s", "s", "scalar.divexact"),
    ("scalar.gcd.calls", "count", "scalar.gcd"),
    ("scalar.gcd.self_s", "s", "scalar.gcd"),
    ("scalar.normalize.calls", "count", "scalar.normalize"),
    ("scalar.normalize.self_s", "s", "scalar.normalize"),
    ("scalar.constructions", "count", "scalar.constructions"),
    ("scalar.arith.calls", "count", "scalar.arith"),
    ("scalar.arith.self_s", "s", "scalar.arith"),
    ("scalar.poly1_mul.calls", "count", "scalar.poly1_mul"),
    ("scalar.poly1_mul.self_s", "s", "scalar.poly1_mul"),
    ("weyl.R.calls", "count", "weyl.R"),
    ("weyl.R.misses", "count", "weyl.R"),
    ("weyl.mid_product.calls", "count", "weyl.mid_product"),
    ("weyl.mid_product.misses", "count", "weyl.mid_product"),
    ("weyl.memo_hit_ratio", "ratio", "weyl.R"),
    ("weyl.memo_entries", "count", "weyl.R"),
    ("weyl.nf_mul.calls", "count", "weyl.nf_mul"),
    ("weyl.nf_mul.self_s", "s", "weyl.nf_mul"),
    ("weyl.render.calls", "count", "weyl.render"),
    ("weyl.render.self_s", "s", "weyl.render"),
    ("weyl.render.bytes", "bytes", "weyl.render"),
    ("identities.report_format.self_s", "s", "identities.report_format"),
    ("cli.main.calls", "count", "cli.main"),
    ("cli.main.self_s", "s", "cli.main"),
    ("cli.output_bytes", "bytes", "cli.main"),
    ("parser.parse.calls", "count", "parser.parse"),
    ("parser.parse.self_s", "s", "parser.parse"),
    ("parser.evaluate.self_s", "s", "parser.evaluate"),
    ("parser.errors", "count", "parser.parse"),
    ("identities.verify.calls", "count", "identities.verify"),
    ("identities.verify.self_s", "s", "identities.verify"),
    ("identities.build.self_s", "s", "identities.build"),
    ("identities.expand.self_s", "s", "identities.expand"),
    ("reps.morphism_check.calls", "count", "reps.morphism_check"),
    ("reps.morphism_check.self_s", "s", "reps.morphism_check"),
    ("reps.rep_case.calls", "count", "reps.rep_case"),
    ("reps.rep_case.self_s", "s", "reps.rep_case"),
    ("reps.fock.self_s", "s", "reps.fock"),
    ("setup.import_s", "s", "setup"),
    ("trace.overhead_s", "s", "trace"),
)


def fail(message: str, code: int) -> int:
    print("perfbench: " + message, file=sys.stderr)
    return code


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def measure_setup(spawns: int) -> tuple[list[float], list[float]]:
    """(setup seconds, import seconds) of fresh interpreters, spawn to hq() built."""
    setup, imports = [], []
    for _ in range(spawns):
        t_spawn = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise RuntimeError("set-up interpreter failed: " + done.stderr.strip())
        t0, t1, t2 = (float(x) for x in done.stdout.split())
        setup.append(t2 - t_spawn)
        imports.append(t1 - t0)
    return setup, imports


def run_worker(workload: str, seed: int, seconds: float, trace: int, spans: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", "1", "--spans", str(spans)]
    done = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=seconds + WORKER_GRACE_S)
    if done.returncode != 0:
        raise RuntimeError("worker failed:\n" + done.stderr[-4000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def check_outputs(items: list[dict], passes: list[dict], naive, digests: dict) -> tuple[int, int, int]:
    """(attempted, failed, wrong) over every pass.

    The first pass (full outputs) is checked against the references; every
    later pass must reproduce it byte for byte (compared by digest, or in full
    for the traced pass).
    """
    first = passes[0]["outputs"]
    verdicts = [reference.check(item, out, naive, digests) for item, out in zip(items, first)]
    attempted = failed = wrong = 0
    for k, p in enumerate(passes):
        errors = set(p["errors"])
        for i, out in enumerate(p["outputs"]):
            attempted += 1
            item_failed, item_wrong = verdicts[i]
            if k:
                item_failed = item_failed or i in errors
                item_wrong = item_wrong or out not in (first[i], reference.sha256(first[i]))
            failed += item_failed
            wrong += item_wrong and not item_failed
    return attempted, failed, wrong


def layer_metrics(traced: dict, import_s: float) -> tuple[dict, list[str]]:
    calls, self_s, counts, peaks = traced["calls"], traced["self_s"], traced["counts"], traced["peaks"]
    hits_base = calls.get("weyl.R", 0) + calls.get("weyl.mid_product", 0)
    misses = counts.get("weyl.R.misses", 0) + counts.get("weyl.mid_product.misses", 0)
    values = {
        "scalar.constructions": counts.get("scalar.constructions", 0),
        "weyl.memo_hit_ratio": (hits_base - misses) / hits_base if hits_base else 0.0,
        "weyl.memo_entries": traced["memo_entries"],
        "cli.output_bytes": traced["cli_output_bytes"],
        "parser.errors": counts.get("parser.errors", 0),
        "setup.import_s": import_s,
        "trace.overhead_s": traced["overhead_s"],
    }
    for name, _unit, layer in PER_LAYER:
        if name in values:
            continue
        field = name[len(layer) + 1 :]
        if field == "calls":
            values[name] = calls.get(layer, 0)
        elif field == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif name in peaks:
            values[name] = peaks[name]
        else:
            values[name] = counts.get(name, 0)
    missing_layers = {layer for _path, layer in traced["missing"]}
    missing = [name for name, _unit, layer in PER_LAYER if any(layer == m or layer.startswith(m + ".") for m in missing_layers)]
    return values, missing


def record_digests() -> int:
    digests = {}
    for workload in workloads.WORKLOADS:
        items = workloads.build(workload, 0)
        result = run_worker(workload, 0, 0, 0, HERE / "out" / "unused")
        for item, out in zip(items, result["passes"][0]["outputs"]):
            if item["digest"]:
                digests[workloads.item_key(item)] = reference.sha256(out)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print("wrote %d digests to %s" % (len(digests), DIGESTS))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qweyl benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "qweyl" / "__init__.py").is_file():
        return fail("no qweyl sources at %s; run from the root of a qweyl checkout" % SRC, 2)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        return fail("--workload is required", 2)
    if not DIGESTS.is_file():
        return fail("missing %s" % DIGESTS, 2)
    digests = json.loads(DIGESTS.read_text())

    items = workloads.build(args.workload, args.seed)
    spans_path = HERE / "out" / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    try:
        setup, imports = measure_setup(SETUP_SPAWNS)
        result = run_worker(args.workload, args.seed, args.seconds, args.trace, spans_path)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc), 1)

    passes = result["passes"]
    checked = passes + ([result["traced"]] if args.trace else [])
    naive = reference.naive_point(args.seed)
    attempted, failed, wrong = check_outputs(items, checked, naive, digests)

    env = dict(result["env"], nproc=os.cpu_count(), commit=git_commit(), seed=args.seed, workload=args.workload)
    print("env: " + json.dumps(env, sort_keys=True))
    print("workload: %s (%s)" % (args.workload, workloads.WHY[args.workload]))
    print("closed loop, 1 client, %d items per pass, %d passes" % (len(items), len(passes)))

    pass_s = [p["pass_s"] for p in passes]
    item_ms = [s * 1000 for p in passes for s in p["item_s"]]
    q1, med, q3 = stats.quartiles(pass_s)
    print("setup_s: %.4f s (median of %d spawns)" % (statistics.median(setup), len(setup)))
    print("pass_s: %.4f s (q1 %.4f, q3 %.4f, n=%d)" % (med, q1, q3, len(pass_s)))
    print("item_ms_p50: %.3f ms (n=%d)" % (statistics.median(item_ms), len(item_ms)))
    print(stats.percentile_line("item_ms_p90", item_ms, 90, "ms"))
    print("peak_rss_mb: %.2f MB" % (result["rss_kb"] / 1024))
    print("wrong_outputs: %d (of %d outputs)" % (wrong, attempted))
    print("failed_frac: %.4f (%d of %d attempted)" % (failed / attempted, failed, attempted))

    if args.trace:
        traced = result["traced"]
        values, missing = layer_metrics(traced, statistics.median(imports))
        print("traced pass_s: %.4f s, untraced median %.4f s, overhead %.4f s" % (traced["pass_s"], med, traced["overhead_s"]))
        print("spans: %d written to %s" % (traced["spans"], os.path.relpath(traced["spans_file"], ROOT)))
        for name in missing:
            print("missing: %s" % name)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _layer in PER_LAYER}
    else:
        figures = {
            "setup_s": statistics.median(setup),
            "pass_s": med,
            "item_ms_p50": statistics.median(item_ms),
            "peak_rss_mb": result["rss_kb"] / 1024,
        }
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

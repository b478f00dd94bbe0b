"""One fresh, single-threaded benchmark worker: runs passes over a seeded item list.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object
on its last stdout line.  Untraced mode runs whole passes until
``--seconds`` have elapsed (at least ``MIN_PASSES``).  Traced mode runs the
same untraced passes, then exactly one traced pass, so its counts do not
depend on how fast the machine is.

Each item's output is reduced to a string after the pass's clock stopped
(rendering a residual is not part of the timed call), and the first pass
sends its outputs in full so ``run.py`` can check them against references.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import reference
import workloads

MIN_PASSES = 3


class Runner:
    """Maps items to calls into qweyl; resolves entry points at call time."""

    def __init__(self):
        import qweyl.cli
        import qweyl.identities
        import qweyl.reps
        import qweyl.weyl

        self.cli = qweyl.cli
        self.identities = qweyl.identities
        self.reps = qweyl.reps
        self.weyl = qweyl.weyl
        self.poly_reps = None

    def start_pass(self) -> None:
        self.poly_reps = self.reps.ALL_POLY_REPS()

    def call(self, item: dict):
        kind = item["kind"]
        if kind == "verify":
            spec = dict(item["case"])
            cid = spec.pop("id")
            for key in ("ns", "ms"):
                if key in spec:
                    spec[key] = tuple(spec[key])
            return self.identities.verify(self.identities.IdentityCase(cid, self.weyl.hq(), **spec))
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(item["argv"]))
            return rc, out.getvalue(), err.getvalue()
        if kind == "morph":
            return self.reps.morphism_check(item["word"], self.poly_reps[item["rep"]], item["K"])
        if kind == "fock":
            return self.reps.fock_vs_abstract_spotcheck(seed=item["seed"], L=item["L"], words=item["words"])
        raise ValueError("unknown item kind %r" % kind)


def canonical(item: dict, raw) -> str:
    """The output of one item as a string; equal strings mean equal outputs."""
    kind = item["kind"]
    if kind == "cli":
        rc, out, err = raw
        return json.dumps({"rc": rc, "stdout": out, "stderr": err}, sort_keys=True)
    if kind == "verify":
        residual = raw.residual_text()
        return json.dumps(
            {"status": raw.status, "detail": raw.detail, "residual_sha256": reference.sha256(residual)},
            sort_keys=True,
        )
    return json.dumps({"status": raw.status, "residual": raw.residual_text()}, sort_keys=True)


def run_pass(runner: Runner, items: list[dict], tracer=None) -> dict:
    """Execute every item once, timing each call and the whole pass."""
    raws, item_s, errors = [], [], {}
    clock = time.perf_counter
    if tracer is not None:
        tracer.active = True
    t_pass = clock()
    runner.start_pass()
    for item in items:
        if tracer is not None:
            tracer.item = item["item"]
        t0 = clock()
        try:
            raw = runner.call(item)
        except Exception as exc:  # a failed item is counted, the pass goes on
            raw = None
            errors[item["item"]] = "%s: %s" % (type(exc).__name__, exc)
        item_s.append(clock() - t0)
        raws.append(raw)
    pass_s = clock() - t_pass
    if tracer is not None:
        tracer.active = False
        tracer.item = None
    outputs = [
        "error: " + errors[item["item"]] if raw is None else canonical(item, raw)
        for item, raw in zip(items, raws)
    ]
    return {"pass_s": pass_s, "item_s": item_s, "outputs": outputs, "errors": sorted(errors)}


def measure(runner: Runner, items: list[dict], seconds: float) -> list[dict]:
    """Untraced passes for about ``seconds``; the first keeps full outputs.

    A pass starts only if a pass of median length still fits, so a run
    lasts about ``seconds`` whatever the pass length.
    """
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 + statistics.median(p["pass_s"] for p in passes) <= seconds:
        p = run_pass(runner, items)
        if passes:
            p["outputs"] = [reference.sha256(o) for o in p["outputs"]]
        passes.append(p)
    return passes


def traced_pass(runner: Runner, items: list[dict], spans_path: Path) -> dict:
    import tracer as tr

    tracer = tr.Tracer()
    ins = tr.install(tracer)
    try:
        p = run_pass(runner, items, tracer)
    finally:
        ins.undo()
    p["cli_output_bytes"] = sum(
        len(json.loads(o)["stdout"].encode()) for item, o in zip(items, p["outputs"]) if item["kind"] == "cli" and not o.startswith("error: ")
    )
    p["memo_entries"] = tr.memo_entries(ins)
    ins.relations.clear()
    p["calls"] = dict(tracer.calls)
    p["self_s"] = dict(tracer.self_s)
    p["counts"] = dict(tracer.counts)
    p["peaks"] = dict(tracer.peaks)
    p["missing"] = ins.missing
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    p["spans"] = tr.write_spans(tracer, spans_path)
    p["spans_file"] = str(spans_path)
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    items = workloads.build(args.workload, args.seed)
    runner = Runner()
    import qweyl

    env = {
        "python": sys.version.split()[0],
        "backend": getattr(qweyl, "BACKEND", "unknown"),
        "qweyl_file": qweyl.__file__,
    }
    if os.environ.get("QWEYL_BACKEND"):
        env["QWEYL_BACKEND"] = os.environ["QWEYL_BACKEND"]
    passes = measure(runner, items, args.seconds)
    result = {"env": env, "passes": passes, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if args.trace:
        traced = traced_pass(runner, items, Path(args.spans))
        traced["overhead_s"] = traced["pass_s"] - statistics.median(p["pass_s"] for p in passes)
        result["traced"] = traced
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

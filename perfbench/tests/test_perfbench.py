"""Tests of the benchmark itself: span arithmetic, percentile rule, checks, determinism.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # cli.main [0, 10] > parser.parse [1, 3]; cli.main > reps.fock [4, 8] > scalar.arith [5, 6]
    t = tr.Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    t.item = 7
    root = t.enter("cli.main")
    child = t.enter("parser.parse")
    t.exit(child)
    second = t.enter("reps.fock")
    grand = t.enter("scalar.arith")
    t.exit(grand)
    t.exit(second)
    t.exit(root)
    assert t.self_s == {"cli.main": 10 - 2 - 4, "parser.parse": 2, "reps.fock": 4 - 1, "scalar.arith": 1}
    assert sum(t.self_s.values()) == 10  # self times partition the root span
    assert dict(t.calls) == {"cli.main": 1, "parser.parse": 1, "reps.fock": 1, "scalar.arith": 1}
    # kept spans: name, start, end, parent index, item; scalar.arith is aggregated only
    assert t.spans == [("cli.main", 0, 10, -1, 7), ("parser.parse", 1, 3, 0, 7), ("reps.fock", 4, 8, 0, 7)]


def test_kept_span_parent_skips_aggregated_frames():
    t = tr.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5]))
    outer = t.enter("identities.verify")
    hot = t.enter("kernels.mpoly_mul")
    inner = t.enter("reps.fock")
    t.exit(inner)
    t.exit(hot)
    t.exit(outer)
    assert t.spans[1][3] == 0
    assert t.self_s["kernels.mpoly_mul"] == 2


def test_recursive_span_self_time():
    t = tr.Tracer(clock=FakeClock([0, 2, 5, 9]))
    a = t.enter("parser.evaluate")
    b = t.enter("parser.evaluate")
    t.exit(b)
    t.exit(a)
    assert t.calls["parser.evaluate"] == 2
    assert t.self_s["parser.evaluate"] == 9  # 3 (inner) + 9 - 3 (outer)


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.min_samples(90) == 100
    assert stats.tail_percentile([1.0] * 99, 90) is None
    assert stats.tail_percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)
    assert stats.percentile_line("item_ms_p90", [1.0] * 24, 90, "ms") == "item_ms_p90: not reported (n=24 < 100)"
    assert stats.percentile_line("item_ms_p90", [2.0] * 100, 90, "ms") == "item_ms_p90: 2.000 ms (n=100)"
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_generator_is_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
    for name in ("cli-stream", "rep-crosscheck"):
        assert workloads.build(name, 5) != workloads.build(name, 6)
    heavy = [json.dumps(i["case"]) for i in workloads.build("heavy-symbolic", 5)]
    assert sorted(heavy) == sorted(json.dumps(i["case"]) for i in workloads.build("heavy-symbolic", 6))


def test_naive_reducer_orders_words():
    n = reference.Naive(2, 3)
    # a*b = q*b*a + p
    assert n.evaluate("a*b") == {"ba": 3, "": 2}
    assert n.evaluate("comm(a, b)") == n.evaluate("(q - 1)*b*a + p")
    assert n.evaluate("a*a*b") == n.evaluate("q^2*b*a^2 + (p*q + p)*a")
    assert n.evaluate("(p*q - p)/(q - 1)") == {"": 2}


def _small_items():
    """A few fast items of every cli kind plus one digest-checked suite."""
    items = workloads.build("cli-stream", 3)
    picked, seen = [], {}
    for item in items:
        if item["check"] == "digest":
            if "errata" in item["argv"]:
                picked.append(item)
        elif seen.get(item["check"], 0) < 3:
            seen[item["check"]] = seen.get(item["check"], 0) + 1
            picked.append(item)
    return picked


@pytest.fixture(scope="module")
def small_run():
    items = _small_items()
    runner = worker.Runner()
    first = worker.run_pass(runner, items)
    second = worker.run_pass(runner, items)
    second["outputs"] = [reference.sha256(o) for o in second["outputs"]]
    return items, [first, second]


def test_correct_outputs_pass_all_checks(small_run):
    items, passes = small_run
    digests = json.loads(run.DIGESTS.read_text())
    assert run.check_outputs(items, passes, reference.naive_point(3), digests) == (2 * len(items), 0, 0)


def test_corrupted_outputs_are_counted(small_run):
    items, passes = small_run
    digests = json.loads(run.DIGESTS.read_text())
    naive = reference.naive_point(3)
    first = dict(passes[0], outputs=list(passes[0]["outputs"]))
    for i, item in enumerate(items):
        if item["check"] == "normalize":
            out = json.loads(first["outputs"][i])
            out["stdout"] = out["stdout"].replace("a", "b", 1) if "a" in out["stdout"] else "a\n"
            first["outputs"][i] = json.dumps(out, sort_keys=True)
            break
    assert run.check_outputs(items, [first, passes[1]], naive, digests)[2] == 2  # checked once, differs in pass 2

    later = dict(passes[1], outputs=list(passes[1]["outputs"]))
    later["outputs"][0] = reference.sha256("something else")
    assert run.check_outputs(items, [passes[0], later], naive, digests)[2] == 1

    suite = next(i for i, item in enumerate(items) if item["digest"])
    assert run.check_outputs(items, [passes[0]], naive, {})[2] == 1  # unknown digest
    out = json.loads(passes[0]["outputs"][suite])
    out["rc"] = 1
    wrong_rc = dict(passes[0], outputs=list(passes[0]["outputs"]))
    wrong_rc["outputs"][suite] = json.dumps(out, sort_keys=True)
    assert run.check_outputs(items, [wrong_rc], naive, digests)[1] == 1  # unexpected exit code fails


def test_missing_names_become_missing_rows():
    ins = tr._Installer()
    ins.patch("qweyl._no_such_module:kernels", lambda fn: fn, "kernels")
    ins.patch("qweyl.scalar:Scalar.__no_such_method__", lambda fn: fn, "scalar.arith")
    assert ins.missing == [("qweyl._no_such_module:kernels", "kernels"), ("qweyl.scalar:Scalar.__no_such_method__", "scalar.arith")]
    traced = {"calls": {}, "self_s": {}, "counts": {}, "peaks": {}, "memo_entries": 0, "cli_output_bytes": 0,
              "overhead_s": 0.0, "missing": ins.missing}
    _values, missing = run.layer_metrics(traced, 0.1)
    assert "kernels.mpoly_mul.calls" in missing and "scalar.arith.self_s" in missing
    assert "scalar.constructions" not in missing


_COUNTS_SCRIPT = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import worker, workloads
items = workloads.build("rep-crosscheck", 11)[:40] + [i for i in workloads.build("cli-stream", 11) if i["check"] != "digest"][:40]
runner = worker.Runner()
plain = worker.run_pass(runner, items)
traced = worker.traced_pass(runner, items, __import__("pathlib").Path({spans!r}))
assert traced["outputs"] == plain["outputs"], "tracing changed an output"
print(json.dumps({{"calls": traced["calls"], "counts": traced["counts"], "peaks": traced["peaks"],
                  "memo_entries": traced["memo_entries"], "missing": traced["missing"]}}, sort_keys=True))
"""


def test_traced_counts_repeat_across_processes(tmp_path):
    script = _COUNTS_SCRIPT.format(here=str(HERE), src=str(ROOT / "src"), spans=str(tmp_path / "spans.jsonl"))
    runs = []
    for hash_seed in ("1", "2"):  # different string hashing, as in two separate runs
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(done.stdout.strip().splitlines()[-1])
    assert runs[0] == runs[1]
    counts = json.loads(runs[0])
    assert counts["missing"] == []
    assert counts["calls"]["reps.morphism_check"] == 39 and counts["counts"]["kernels.mpoly_mul.term_products"] > 0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [row[:2] for row in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

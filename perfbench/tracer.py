"""Spans and counters around qweyl's layers, installed from outside the package.

``Tracer`` keeps a stack of open spans.  A span's self time is its duration
minus the durations of its direct children; calls are synchronous and
single-threaded, so children never overlap and that difference is exactly
the part of the interval no child covers.  Spans of the coarse layers are
kept in memory (name, start, end, parent, item) and written out by
``write_spans``; the hot per-call layers (kernels, Scalar arithmetic, memo
lookups) run millions of times per pass, so they are aggregated into
calls and self time without keeping each span.

``install`` resolves every wrapped name when the run starts.  A name that no
longer exists (a module or function removed by a refactor) is reported as a
missing row instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# Layers whose individual spans are kept; everything else is aggregated.
RECORDED = (
    "cli.main",
    "identities.verify",
    "identities.build",
    "identities.expand",
    "identities.report_format",
    "parser.parse",
    "reps.morphism_check",
    "reps.rep_case",
    "reps.fock",
)

# The loaded kernel module: the backend selector while it exists, else the
# module the coefficient field calls through.
KERNEL_MODULES = ("qweyl._backend:kernels", "qweyl.scalar:_k")


class Tracer:
    """Span stack, per-layer aggregates and counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.item = None
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.open: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def enter(self, name: str) -> list:
        # frame: name, start, child time, own span index, nearest kept ancestor
        if self._stack:
            top = self._stack[-1]
            parent = top[3] if top[3] >= 0 else top[4]
        else:
            parent = -1
        index = -1
        if name in RECORDED:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, self.clock(), 0.0, index, parent]
        self._stack.append(frame)
        self.open[name] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        if self._stack.pop() is not frame:
            raise RuntimeError("span %s closed out of order" % frame[0])
        name, start, child, index, parent = frame
        duration = end - start
        self.open[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, parent, self.item)

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value


def span_wrapper(tracer: Tracer, name: str, fn, before=None, after=None):
    """Wrap ``fn`` in a span; ``before(args)`` returns state for ``after``."""

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        state = before(args) if before else None
        frame = tracer.enter(name)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            tracer.exit(frame)
            if after:
                after(args, result if ok else None, ok, state)

    return wrapper


def count_wrapper(tracer: Tracer, name: str, fn):
    """Count calls of ``fn`` without opening a span."""

    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _coeff_bits(poly: dict) -> int:
    bits = 0
    for v in poly.values():
        n = getattr(v, "numerator", v)
        d = getattr(v, "denominator", 1)
        bits = max(bits, abs(n).bit_length(), d.bit_length())
    return bits


def _memo_size(rel, tables) -> int:
    return sum(len(getattr(rel, t, ())) for t in tables)


class _Installer:
    def __init__(self):
        self.missing: list[tuple[str, str]] = []
        self._undo: list[tuple] = []
        self.relations: dict[int, object] = {}

    def resolve(self, path: str):
        module, _, attr = path.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split(".") if attr else ():
            obj = getattr(obj, part)
        return obj

    def patch(self, path: str, make, layer: str) -> None:
        """Replace ``module:Owner.attr`` with ``make(original)``; ``layer`` names the row."""
        module, _, attr = path.partition(":")
        owner_path, _, leaf = attr.rpartition(".")
        try:
            owner = self.resolve(module + (":" + owner_path if owner_path else ""))
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            self.missing.append((path, layer))
            return
        setattr(owner, leaf, make(original))
        self._undo.append((owner, leaf, original))

    def undo(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()


def install(tracer: Tracer) -> _Installer:
    """Wrap every layer boundary; returns the installer (``undo``, ``missing``)."""
    t = tracer
    ins = _Installer()

    def span(path, name, before=None, after=None):
        ins.patch(path, lambda fn: span_wrapper(t, name, fn, before, after), name)

    # kernels --------------------------------------------------------------
    kernels = None
    for candidate in KERNEL_MODULES:
        try:
            kernels = ins.resolve(candidate)
            break
        except (ImportError, AttributeError):
            continue
    if kernels is None:
        ins.missing.append((" or ".join(KERNEL_MODULES), "kernels"))
    else:
        kmod = kernels.__name__ + ":"

        def mul_before(args):
            a, b = args[0], args[1]
            t.count("kernels.mpoly_mul.term_products", len(a) * len(b))
            t.peak("kernels.mpoly_mul.max_terms", max(len(a), len(b)))
            t.peak("kernels.mpoly_mul.max_coeff_bits", max(_coeff_bits(a), _coeff_bits(b)))

        def axpy_before(args):
            t.count("kernels.axpy_shift.terms", len(args[1]))

        span(kmod + "mpoly_mul", "kernels.mpoly_mul", mul_before)
        span(kmod + "axpy_shift", "kernels.axpy_shift", axpy_before)
        span(kmod + "mpoly_add", "kernels.addsub")
        span(kmod + "mpoly_sub", "kernels.addsub")

    # scalar ---------------------------------------------------------------
    span("qweyl.scalar:_mp_divexact", "scalar.divexact")
    span("qweyl.scalar:_mp_gcd", "scalar.gcd")
    span("qweyl.scalar:_normalize", "scalar.normalize")
    ins.patch("qweyl.scalar:Scalar.__init__", lambda fn: count_wrapper(t, "scalar.constructions", fn), "scalar.constructions")
    for op in ("add", "radd", "sub", "rsub", "neg", "mul", "rmul", "truediv", "rtruediv", "pow"):
        span("qweyl.scalar:Scalar.__%s__" % op, "scalar.arith")
    span("qweyl.scalar:Poly1.__mul__", "scalar.poly1_mul")
    span("qweyl.scalar:Poly1.__rmul__", "scalar.poly1_mul")

    # weyl: memo misses are the growth of the memo tables over the outermost call
    def memo_hooks(name, tables):
        def before(args):
            rel = args[0]
            ins.relations.setdefault(id(rel), rel)
            return _memo_size(rel, tables) if t.open[name] == 0 else None

        def after(args, _result, _ok, size0):
            if size0 is not None:
                t.count(name + ".misses", _memo_size(args[0], tables) - size0)

        return before, after

    span("qweyl.weyl:Relation._R", "weyl.R", *memo_hooks("weyl.R", ("_r", "_r1")))
    span("qweyl.weyl:Relation._mid_product", "weyl.mid_product", *memo_hooks("weyl.mid_product", ("_mid",)))
    span("qweyl.weyl:NormalForm.__mul__", "weyl.nf_mul")

    def render_after(_args, result, ok, _state):
        if ok:
            t.count("weyl.render.bytes", len(result.encode()))

    span("qweyl.weyl:NormalForm.render", "weyl.render", after=render_after)

    # identities -------------------------------------------------------------
    span("qweyl.identities:verify", "identities.verify")
    span("qweyl.identities:build", "identities.build")
    span("qweyl.identities:expand_in_ab_powers", "identities.expand")
    for fmt in ("to_json", "to_tsv", "to_text"):
        span("qweyl.identities:Report." + fmt, "identities.report_format")

    # parser -------------------------------------------------------------------
    def parse_after(_args, _result, ok, _state):
        if not ok and t.open["parser.parse"] == 0:  # parse_statement calls parse
            t.count("parser.errors")

    span("qweyl.parser:parse", "parser.parse", after=parse_after)
    span("qweyl.parser:parse_statement", "parser.parse", after=parse_after)
    span("qweyl.parser:evaluate", "parser.evaluate")

    # cli ------------------------------------------------------------------------
    span("qweyl.cli:main", "cli.main")

    # reps -----------------------------------------------------------------------
    span("qweyl.reps:morphism_check", "reps.morphism_check")
    for fock in ("fock_matrix", "fock_word_matrix", "fock_theorem3_spotcheck", "fock_affine_spotcheck", "fock_vs_abstract_spotcheck"):
        span("qweyl.reps:" + fock, "reps.fock")

    def wrap_cases(fn):
        def standard_rep_cases(*args, **kwargs):
            cases = fn(*args, **kwargs)
            return [case[:-1] + (span_wrapper(t, "reps.rep_case", case[-1]),) for case in cases]

        return standard_rep_cases

    ins.patch("qweyl.reps:standard_rep_cases", wrap_cases, "reps.rep_case")
    return ins


def memo_entries(ins: _Installer) -> int:
    """Entries in every memo table of every relation the engine touched."""
    tables = ("_r1", "_r", "_mid", "_shift_pow", "_f_shift", "_tau_num")
    return sum(_memo_size(rel, tables) for rel in ins.relations.values())


def write_spans(tracer: Tracer, path) -> int:
    """Write the kept spans as JSON lines, times relative to the first span."""
    spans = [s for s in tracer.spans if s is not None]
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        for i, (name, start, end, parent, item) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start - t0, "end": end - t0, "parent": parent, "item": item}) + "\n")
    return len(spans)

"""Seeded item lists for the three benchmark workloads.

Every workload is a closed loop with one client: the next item starts only
after the previous one returned.  An item is a plain dict (JSON-safe, no
qweyl objects), so the generator never imports the package under test and
the same seed always yields the same list.  ``worker.py`` turns items into
calls; ``reference.py`` checks their outputs.

Item kinds:

``verify``  ``identities.verify`` on one catalog case with a fresh ``hq()``
``cli``     ``qweyl.cli.main(argv)`` in-process with stdout/stderr captured
``morph``   ``reps.morphism_check(word, rep, K)``
``fock``    ``reps.fock_vs_abstract_spotcheck(seed, L, words)``
"""

from __future__ import annotations

import random

WORKLOADS = ("heavy-symbolic", "cli-stream", "rep-crosscheck")

# Why each workload exists (the metric each layer should move is in README.md).
WHY = {
    "heavy-symbolic": "largest fully symbolic catalog cases; bound by mpoly_mul and Scalar exact division",
    "cli-stream": "generated CLI requests plus three suites; parser, rendering, JSON and memo hits, tiny kernels",
    "rep-crosscheck": "rep-check, morphism checks and a Fock spot check; many small constant Scalar operations",
}

# Heaviest fully symbolic catalog cases, with the statuses and details the
# catalog documents for them (THM4/THM5 fail as stated by a (p - 1) factor).
HEAVY_CASES = (
    ({"id": "COR2b", "ns": [3, 3], "ms": [3, 3], "k": 2}, "pass", ""),
    ({"id": "COR2a", "n": 4, "m": 4, "k": 2}, "pass", ""),
    ({"id": "THM1a", "n": 16}, "pass", ""),
    ({"id": "THM5", "n": 12}, "fail", "common factor: (p - 1)"),
    ({"id": "THM5", "n": 12, "variant": "p_scaled"}, "pass", ""),
    ({"id": "THM4a", "n": 8}, "fail", "common factor: (p - 1)"),
)

SUITES = (
    ["suite", "--max-n", "6", "--format", "json"],
    ["suite", "--max-n", "6", "--params", "p=3,q=7", "--format", "json"],
    ["suite", "--catalog", "errata", "--max-n", "6", "--format", "json"],
)

REP_CHECK = ["rep-check", "--format", "json"]

# Names of reps.ALL_POLY_REPS(), sorted; kept here so generation needs no import.
POLY_REPS = ("delta", "diff_ab", "diff_ba", "jackson")

CLI_MIX = (("normalize", 84), ("verify-assoc", 28), ("verify-comm", 28), ("verify-swap", 28), ("expand", 48), ("malformed", 24))
MORPH_WORDS_PER_LENGTH = 8
MORPH_DEGREE = 8
FOCK_WORDS = 100

_ATOMS = ("a", "b", "a", "b", "p", "q", "qnum(1)", "qnum(2)", "qnum(3)")
_NONZERO = ("a", "b", "p", "q", "qnum(2)", "qnum(3)")
_GRADE0 = ("a*b", "b*a", "comm(a, b)", "p", "q", "qnum(2)")


def build(workload: str, seed: int) -> list[dict]:
    """The fixed item list of one pass; identical for identical seeds."""
    if workload == "heavy-symbolic":
        return _heavy(seed)
    if workload == "cli-stream":
        return _cli_stream(seed)
    if workload == "rep-crosscheck":
        return _rep_crosscheck(seed)
    raise ValueError("unknown workload %r" % workload)


def _heavy(seed: int) -> list[dict]:
    items = [
        {"kind": "verify", "case": dict(case), "expect": status, "detail": detail, "digest": True}
        for case, status, detail in HEAVY_CASES
    ]
    random.Random(seed).shuffle(items)
    return _number(items)


def _expr(rng: random.Random, depth: int) -> str:
    """A random expression over a, b, p, q, qnum(k) with + - * ^ comm."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(_ATOMS)
    shape = rng.randrange(5)
    if shape == 0:
        return "(%s + %s)" % (_expr(rng, depth - 1), _expr(rng, depth - 1))
    if shape == 1:
        return "(%s - %s)" % (_expr(rng, depth - 1), _expr(rng, depth - 1))
    if shape == 2:
        return "%s * %s" % (_expr(rng, depth - 1), _expr(rng, depth - 1))
    if shape == 3:
        # powers stay on shallow bases so one request stays in the millisecond range
        return "(%s)^%d" % (_expr(rng, min(depth - 1, 1)), rng.randrange(4))
    return "comm(%s, %s)" % (_expr(rng, depth - 1), _expr(rng, depth - 1))


def _grade0(rng: random.Random, depth: int) -> str:
    """A random grade-0 expression, so it has an expansion in powers of ab."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_GRADE0)
    shape = rng.randrange(4)
    if shape == 0:
        return "(%s + %s)" % (_grade0(rng, depth - 1), _grade0(rng, depth - 1))
    if shape == 1:
        return "(%s - %s)" % (_grade0(rng, depth - 1), _grade0(rng, depth - 1))
    if shape == 2:
        return "%s * %s" % (_grade0(rng, depth - 1), _grade0(rng, depth - 1))
    return "(%s)^%d" % (_grade0(rng, 0), rng.randrange(1, 3))


def _monomial(rng: random.Random) -> str:
    return " * ".join(rng.choice(_NONZERO) for _ in range(rng.randint(1, 3)))


def _corrupt(rng: random.Random, text: str) -> str:
    """Make a syntax error the parser must reject (exit code 2)."""
    how = rng.randrange(4)
    if how == 0 and ")" in text:
        cut = text.rindex(")")
        return text[:cut] + text[cut + 1 :]
    if how == 1:
        return text + " +"
    if how == 2:
        return text + " ^^2"
    return text + " * $"


def _request(rng: random.Random, kind: str) -> dict:
    if kind == "normalize":
        fmt = rng.choice(("json", "text"))
        expr = _expr(rng, rng.randint(3, 4))
        return {"kind": "cli", "argv": ["normalize", expr, "--format", fmt], "rc": 0, "check": "normalize", "expr": expr}
    if kind.startswith("verify"):
        u, v = _expr(rng, rng.randint(2, 3)), _expr(rng, rng.randint(2, 3))
        if kind == "verify-assoc":
            w = _expr(rng, 2)
            stmt, truth = "(%s) * (%s) * (%s) == (%s) * ((%s) * (%s))" % (u, v, w, u, v, w), 0
        elif kind == "verify-comm":
            stmt, truth = "comm(%s, %s) == (%s) * (%s) - (%s) * (%s)" % (u, v, u, v, v, u), 0
        else:
            # a*b - b*a = (q - 1)*b*a + p is nonzero and the algebra has no zero divisors
            w1, w2 = _monomial(rng), _monomial(rng)
            stmt, truth = "%s * a * b * %s == %s * b * a * %s" % (w1, w2, w1, w2), 1
        return {"kind": "cli", "argv": ["verify", stmt, "--format", "json"], "rc": truth, "check": "verify"}
    if kind == "expand":
        expr = _grade0(rng, rng.randint(2, 3))
        return {"kind": "cli", "argv": ["expand", expr, "--format", "json"], "rc": 0, "check": "expand", "expr": expr}
    bad = _corrupt(rng, _expr(rng, 2))
    return {"kind": "cli", "argv": ["normalize", bad], "rc": 2, "check": "malformed"}


def _cli_stream(seed: int) -> list[dict]:
    # fixed counts per request kind, so the seed changes the requests, not the mix
    rng = random.Random(seed)
    kinds = [kind for kind, count in CLI_MIX for _ in range(count)]
    rng.shuffle(kinds)
    items = [_request(rng, kind) for kind in kinds]
    # interleave the three suite runs at fixed positions in the stream
    for k, argv in reversed(list(enumerate(SUITES))):
        at = (k + 1) * len(kinds) // (len(SUITES) + 1)
        items.insert(at, {"kind": "cli", "argv": list(argv), "rc": 0, "check": "digest", "digest": True})
    return _number(items)


def _rep_crosscheck(seed: int) -> list[dict]:
    # the same number of words per (representation, length): word cost depends
    # mostly on both, so the seed changes the words, not the amount of work
    rng = random.Random(seed)
    morphs = [
        {"kind": "morph", "word": "".join(rng.choice("ab") for _ in range(length)), "rep": rep, "K": MORPH_DEGREE}
        for rep in POLY_REPS
        for length in range(1, 7)
        for _ in range(MORPH_WORDS_PER_LENGTH)
    ]
    rng.shuffle(morphs)
    items = [{"kind": "cli", "argv": list(REP_CHECK), "rc": 0, "check": "digest", "digest": True}]
    items += morphs
    items.append({"kind": "fock", "seed": rng.randrange(1 << 30), "L": 12, "words": FOCK_WORDS})
    return _number(items)


def _number(items: list[dict]) -> list[dict]:
    for i, item in enumerate(items):
        item["item"] = i
        item.setdefault("digest", False)
    return items


def item_key(item: dict) -> str:
    """Seed-independent name of a digest-checked item, for digests.json."""
    if item["kind"] == "verify":
        return "verify " + " ".join("%s=%s" % kv for kv in sorted(item["case"].items()))
    return "cli " + " ".join(item["argv"])

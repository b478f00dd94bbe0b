"""Identity catalog, exact verifier, power-of-(ab) expansions, factor solvers.

Catalog tags (the built-in identity families; n, m, k are case arguments,
sigma/rho/tau/F come from the relation, {t} is the sigma- or tau-number):

    THM1a  (a b a)^n            == a^n b^n a^n
    THM1b  (b a b)^n            == b^n a^n b^n            (sigma invertible)
    COR1   (aba...a, 2k+1 letters)^n == block word of a^n/b^n
    COR2a  [T(n,k), T(m,k)]     == 0,  T(n,k) the 2k+1-block word
    COR2b  [prod T(ni,k), prod T(mj,k)] == 0
    THM2a  [a^n b^n, a^m b^m]   == 0
    THM2b  [a^n b^n, b^m a^m]   == 0
    THM2c  [b^n a^n, b^m a^m]   == 0
    COR3   [prod t(ni), prod t(mj)] == 0, each t(n) either a^n b^n or b^n a^n
    LEM1a  a b^n - sigma^n b^n a == rho {n} b^(n-1)
    LEM1b  a^n b - sigma^n b a^n == rho {n} a^(n-1)
    THM4a  (b^2 a - c_n b)^(n+1) == sigma^(n(n+1)) b^(2n+2) a^(n+1)
    THM4b  (b a^2 - c_n a)^(n+1) == sigma^(n(n+1)) b^(n+1) a^(2n+2)
    THM5   ba (ba - c_1) ... (ba - c_n) == sigma^(n(n+1)/2) b^(n+1) a^(n+1)
    THM6   same ladder with c_j = sum_(t<=j) sigma^(t-1) F((N - {t})/tau^t),
           right side sigma^(n(n+1)/2) b^(n+1) a^(n+1)   (extended relation)
    LEM3   the three sl2q-style relations for j+ = b^2 a - c_alpha b,
           j0 = ba - c_alpha {alpha+1}/{2 alpha+2}, j- = a, up to factors
    EQ14   b * p(ab) == p(ba) * b for a polynomial p

The constants c_t are {t} as stated and rho*{t} in the p_scaled variant;
both variants are first-class and the suite records which passes where.
Failure verdicts carry the exact residual normal form, and when every
residual coefficient is divisible by (rho - 1) the report highlights that
common factor (found by an exact division probe, not by factorization).

THM1a/b, COR1, COR2a/b, THM2a/b/c and COR3 are word identities w1 == w2 (a
commutator [U, V] == 0 reads U V == V U); ``word_pair`` gives the two words
from the catalog entry.  ``verify`` first asks ``reps.fock_words_equal``,
which decides them in the faithful Fock representation under a central
relation with rho != 0, equal letter counts and sigma either a non-constant
single term or a rational constant with [1]_sigma .. [#a]_sigma nonzero.  A
word identity it finds equal passes without normal ordering; one it finds
unequal or does not decide (extended relation, rho = 0, multi-term sigma,
sigma = -1) is normal-ordered by the engine, so every failure still carries
the engine's exact residual.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .reps import fock_matrix, fock_words_equal, hq_fock
from .scalar import A, Poly1, Scalar, ScalarError, one, zero
from .verdict import Verdict
from .weyl import NormalForm, Relation, commutator, extended, hq

__all__ = [
    "UnsupportedCaseError",
    "NotExpressibleError",
    "IdentityCase",
    "CATALOG_IDS",
    "build",
    "word_pair",
    "verify",
    "solve_scalar_factor",
    "expand_in_ab_powers",
    "AbPowerExpansion",
    "Sl2qTriple",
    "sl2q_triple",
    "sl2q_solve",
    "Sl2qResult",
    "annihilation_check",
    "thm6_letter_swap_matches_thm5",
    "SuiteConfig",
    "CaseResult",
    "Report",
    "suite",
    "run_cases",
    "catalog_cases",
    "VARIANTS",
]


class UnsupportedCaseError(Exception):
    """The (id, relation) combination is not defined."""


class NotExpressibleError(Exception):
    """The element is not a combination of powers of ab (hypothesis violated)."""


@dataclass
class IdentityCase:
    id: str
    relation: Relation
    n: int = 1
    m: int = 1
    k: int = 1
    ns: tuple = ()
    ms: tuple = ()
    orders: tuple = ()
    variant: str = "as_stated"
    poly: Poly1 | None = None
    params: dict = field(default_factory=dict)

    def args(self) -> dict:
        """The case arguments its catalog entry reports, in report key order."""
        values = ((name, _ARG_VALUES[name](self)) for name in _entry(self.id).args)
        return {name: value for name, value in values if value is not None}


# how each reported argument reads off a case; None leaves the key out
_ARG_VALUES = {
    "n": lambda c: c.n,
    "m": lambda c: c.m,
    "k": lambda c: c.k,
    "ns": lambda c: list(c.ns),
    "ms": lambda c: list(c.ms),
    "orders": lambda c: list(c.orders) or None,
    "alpha": lambda c: "symbolic" if c.n < 0 else c.n,
    "poly": lambda c: None if c.poly is None else c.poly.text(),
}


def _constant(rel: Relation, t: int, variant: str) -> Scalar:
    c = rel.tau_number(t)
    if variant == "p_scaled":
        c = rel.rho * c
    return c


def _t_word(n: int, k: int) -> str:
    return "a" * n + ("b" * n + "a" * n) * k


def _block(order: str, t: int) -> str:
    """a^t b^t for order "ab", b^t a^t for "ba"."""
    return order[0] * t + order[1] * t


def _need_invertible(sigma: Scalar) -> None:
    if sigma.is_zero():
        raise UnsupportedCaseError("this identity needs an invertible sigma")


# --- builders: (case, relation) -> (lhs, rhs) ------------------------------------------


def _commuting(words):
    """Builder and word pair for [product of left words, product of right words] == 0.

    ``words(case)`` returns the left and the right list of words; as a word
    identity the commutator reads U V == V U.
    """

    def build_case(case, rel):
        left, right = (_product(rel, side) for side in words(case))
        return commutator(left, right), rel.scalar_nf(0)

    def word_pair(case, rel):
        u, v = ("".join(side) for side in words(case))
        return u + v, v + u

    return build_case, word_pair


def _collapse(sides):
    """Builder and word pair for base^n == word.

    ``sides(case, rel)`` returns the base word and the right-hand word.
    """

    def build_case(case, rel):
        base, rhs = sides(case, rel)
        return rel.word(base) ** case.n, rel.word(rhs)

    def word_pair(case, rel):
        base, rhs = sides(case, rel)
        return base * case.n, rhs

    return build_case, word_pair


def _product(rel: Relation, words) -> NormalForm:
    out = rel.unit()
    for w in words:
        out = out * rel.word(w)
    return out


def _cor3_words(case):
    orders = case.orders or ("ab",) * (len(case.ns) + len(case.ms))
    words = [_block(order, t) for t, order in zip(tuple(case.ns) + tuple(case.ms), orders)]
    return words[: len(case.ns)], words[len(case.ns) :]


def _thm1(case, rel):
    # THM1a: (aba)^n == a^n b^n a^n; THM1b: (bab)^n == b^n a^n b^n
    n, (x, y) = case.n, ("ab" if case.id == "THM1a" else "ba")
    if x == "b":
        _need_invertible(rel.sigma)
    return x + y + x, x * n + y * n + x * n


def _lem1(case, rel):
    n = case.n
    if case.id == "LEM1a":  # a b^n - sigma^n b^n a
        ab, ba, rest = "a" + "b" * n, "b" * n + "a", "b" * (n - 1)
    else:  # a^n b - sigma^n b a^n
        ab, ba, rest = "a" * n + "b", "b" + "a" * n, "a" * (n - 1)
    return rel.word(ab) - rel.sigma**n * rel.word(ba), (rel.rho * rel.tau_number(n)) * rel.word(rest)


def _thm4(case, rel):
    # THM4a: (b^2 a - c_n b)^(n+1) == sigma^(n(n+1)) b^(2n+2) a^(n+1); THM4b mirrors the letters
    n, x = case.n, ("b" if case.id == "THM4a" else "a")
    if x == "a":
        _need_invertible(rel.sigma)
    lhs = (rel.word("b" + x + "a") - _constant(rel, n, case.variant) * rel.gen(x)) ** (n + 1)
    bs, as_ = (2 * n + 2, n + 1) if x == "b" else (n + 1, 2 * n + 2)
    return lhs, rel.sigma ** (n * (n + 1)) * rel.word("b" * bs + "a" * as_)


def _ladder(case, rel):
    """THM5: ba (ba - c_1) ... (ba - c_n); THM6: the c_j are shifted partial sums of F."""
    n = case.n
    ba = rel.word("ba")
    lhs = ba
    running = Poly1([], "N")
    for j in range(1, n + 1):
        if case.id == "THM5":
            c = rel.scalar_nf(_constant(rel, j, case.variant))
        else:
            tinv = rel.tau**-j
            running = running + rel.sigma ** (j - 1) * rel.F.compose_affine(tinv, -(rel.tau_number(j) * tinv))
            c = rel.npoly_nf(running)
        lhs = lhs * (ba - c)
    return lhs, rel.sigma ** (n * (n + 1) // 2) * rel.word(_block("ba", n + 1))


def _eq14(case, rel):
    if case.poly is None:
        raise UnsupportedCaseError("EQ14 needs a polynomial argument")
    lhs = rel.gen("b") * case.poly.evaluate(rel.word("ab"))
    return lhs, case.poly.evaluate(rel.word("ba")) * rel.gen("b")


class _Entry(NamedTuple):
    args: tuple  # argument names IdentityCase.args() reports, in report key order
    relation: str  # the relation it needs: "central", "extended" or "any"
    build: object  # (case, relation) -> (lhs, rhs); None where verify solves for factors
    words: object = None  # (case, relation) -> (w1, w2) for a word identity w1 == w2, else None


_CATALOG = {
    "THM1a": _Entry(("n",), "any", *_collapse(_thm1)),
    "THM1b": _Entry(("n",), "any", *_collapse(_thm1)),
    "COR1": _Entry(("n", "k"), "any", *_collapse(lambda c, rel: ("ab" * c.k + "a", _t_word(c.n, c.k)))),
    "COR2a": _Entry(("n", "m", "k"), "any", *_commuting(lambda c: ([_t_word(c.n, c.k)], [_t_word(c.m, c.k)]))),
    "COR2b": _Entry(("ns", "ms", "k"), "any", *_commuting(lambda c: [[_t_word(t, c.k) for t in ts] for ts in (c.ns, c.ms)])),
    "THM2a": _Entry(("n", "m"), "any", *_commuting(lambda c: ([_block("ab", c.n)], [_block("ab", c.m)]))),
    "THM2b": _Entry(("n", "m"), "any", *_commuting(lambda c: ([_block("ab", c.n)], [_block("ba", c.m)]))),
    "THM2c": _Entry(("n", "m"), "any", *_commuting(lambda c: ([_block("ba", c.n)], [_block("ba", c.m)]))),
    "COR3": _Entry(("ns", "ms", "orders"), "any", *_commuting(_cor3_words)),
    "LEM1a": _Entry(("n",), "central", _lem1),
    "LEM1b": _Entry(("n",), "central", _lem1),
    "THM4a": _Entry(("n",), "central", _thm4),
    "THM4b": _Entry(("n",), "central", _thm4),
    "THM5": _Entry(("n",), "central", _ladder),
    "THM6": _Entry(("n",), "extended", _ladder),
    "LEM3": _Entry(("alpha",), "central", None),
    "EQ14": _Entry(("poly",), "central", _eq14),
}
CATALOG_IDS = tuple(_CATALOG)


def _entry(cid: str) -> _Entry:
    if cid not in _CATALOG:
        raise UnsupportedCaseError("unknown catalog id %r" % cid)
    return _CATALOG[cid]


def _checked_entry(case: IdentityCase) -> _Entry:
    """The case's catalog entry, once the case's relation suits it."""
    entry, rel = _entry(case.id), case.relation
    if entry.relation == "central" and rel.has_N:
        raise UnsupportedCaseError("%s is defined for the central-remainder relation" % case.id)
    if entry.relation == "extended" and not rel.has_N:
        raise UnsupportedCaseError("%s needs the extended relation" % case.id)
    if entry.build is None:
        raise UnsupportedCaseError("%s is checked by solving for factors, not as LHS == RHS" % case.id)
    return entry


def build(case: IdentityCase):
    """Both sides of the identity as normal forms."""
    return _checked_entry(case).build(case, case.relation)


def word_pair(case: IdentityCase):
    """The words (w1, w2) of a word identity w1 == w2; None for the other ids.

    Raises the same UnsupportedCaseError as ``build``.
    """
    words = _checked_entry(case).words
    return None if words is None else words(case, case.relation)


def _residual_detail(rel: Relation, residual: NormalForm) -> str:
    """Highlight a common (rho - 1) factor via an exact division probe."""
    if rel.has_N or residual.is_zero():
        return ""
    probe = rel.rho - one
    if probe.is_zero():
        return ""
    try:
        if all(c.numerator_divisible_by(probe) for _mono, c in residual.items()):
            return "common factor: %s" % probe.compact()
    except ScalarError:
        return ""
    return ""


def verify(case: IdentityCase) -> Verdict:
    """Exact check; the residual (LHS - RHS) is reported on failure.

    A word identity the Fock representation decides as equal passes without
    normal ordering; every other case, and every failure, goes through the
    engine, which computes the residual.
    """
    if case.id == "LEM3":
        res = sl2q_solve(sl2q_triple(case.relation, alpha=None if case.n < 0 else case.n, variant=case.variant))
        return Verdict("pass" if res.ok else "fail", None if res.ok else res.residual, detail=res.detail)
    words = word_pair(case)
    if words is not None and fock_words_equal(case.relation, *words):
        return Verdict("pass")
    lhs, rhs = build(case)
    residual = lhs - rhs
    if residual.is_zero():
        return Verdict("pass")
    return Verdict("fail", residual, detail=_residual_detail(case.relation, residual))


# --- scalar factor discovery -------------------------------------------------------


def solve_scalar_factor(x: NormalForm, y: NormalForm):
    """The Scalar c with x = c*y, or None when no such constant exists.

    Zero y only matches zero x (then c = 1 by convention).
    """
    if y.is_zero():
        return one if x.is_zero() else None
    if x.is_zero():
        return zero
    if set(x.terms) != set(y.terms):
        return None
    c = None
    for key, cy in y.terms.items():
        ratio = x.terms[key] / cy
        if c is None:
            c = ratio
        elif c != ratio:
            return None
    return c


# --- expansions in powers of ab (the two triangular-solve lemmas) --------------------


@dataclass
class AbPowerExpansion:
    """Coefficients c_0..c_d with x = sum c_k (ab)^k.

    For the central-remainder relation the c_k are Scalars; for the extended
    relation they are polynomials in N (Poly1), multiplying from the left.
    """

    coeffs: list
    relation: Relation

    def __len__(self):
        return len(self.coeffs)

    def reconstruct(self) -> NormalForm:
        """Sum c_k (ab)^k, each coefficient multiplying from the left."""
        rel = self.relation
        ab = rel.word("ab")
        out = rel.scalar_nf(0)
        for k, c in enumerate(self.coeffs):
            lifted = rel.npoly_nf(c) if isinstance(c, Poly1) else rel.scalar_nf(c)
            out = out + lifted * ab**k
        return out


def _bands(x: NormalForm) -> dict[int, Poly1]:
    out: dict[int, Poly1] = {}
    for (i, m, j), c in x.items():
        band = out.setdefault(j, Poly1([], "N"))
        out[j] = band + Poly1([zero] * m + [c], "N")
    return out


def expand_in_ab_powers(x: NormalForm) -> AbPowerExpansion:
    """Write a grade-0 element as sum c_k (ab)^k by triangular elimination.

    Coefficients multiply from the left; for the extended relation crossing
    b^t composes them with the affine N-shift, which the solver applies
    band by band.  The pivot of (ab)^k at b^k a^k is the constant
    sigma^(k(k+1)/2), so each step divides by a Scalar and the coefficients
    stay polynomials in N; a pivot band that is not constant leaves a
    nonzero band behind and is reported as not expressible.
    """
    rel = x.rel
    if x.grade() not in (0, None) or (x.grade() is None and not x.is_zero()):
        raise NotExpressibleError("element is not grade-0")
    ab = rel.word("ab")
    d = max((j for (_i, _m, j), _c in x.items()), default=0)
    powers = [rel.unit()]
    for _ in range(d):
        powers.append(powers[-1] * ab)
    basis_bands = [_bands(p) for p in powers]
    remainder = _bands(x)
    coeffs = [Poly1([], "N")] * (d + 1)
    for k in range(d, -1, -1):
        r_k = remainder.get(k)
        top = basis_bands[k].get(k)
        if r_k is None or r_k.is_zero():
            continue
        if top is None or top[0].is_zero():
            raise NotExpressibleError("pivot band of (ab)^%d vanishes" % k)
        c_k = r_k * (one / top[0])
        if rel.has_N and k:
            # the solve above found c_k(tau^k N + {k}); undo the crossing shift
            tinv = rel.tau**-k
            c_k = c_k.compose_affine(tinv, -(rel.tau_number(k) * tinv))
        coeffs[k] = c_k
        for t, band in basis_bands[k].items():
            shifted = c_k.compose_affine(rel.tau**t, rel.tau_number(t)) if rel.has_N else c_k
            remainder[t] = remainder.get(t, Poly1([], "N")) - shifted * band
    leftover = {t: r for t, r in remainder.items() if not r.is_zero()}
    if leftover:
        raise NotExpressibleError("nonzero residual after elimination: bands %s" % sorted(leftover))
    if not rel.has_N:
        return AbPowerExpansion([c[0] for c in coeffs], rel)
    return AbPowerExpansion(coeffs, rel)


# --- sl2q factor solving ---------------------------------------------------------------


@dataclass
class Sl2qTriple:
    jplus: NormalForm
    jzero: NormalForm
    jminus: NormalForm
    relation: Relation
    alpha: int | None
    variant: str


def sl2q_triple(relation: Relation | None = None, alpha: int | None = None, variant: str = "as_stated") -> Sl2qTriple:
    """j+ = b^2 a - c {alpha} b, j0 = ba - c {alpha}{alpha+1}/{2alpha+2}, j- = a.

    alpha=None keeps alpha symbolic through A; an integer alpha instantiates
    the q-numbers.  The p_scaled variant multiplies both constants by rho.
    """
    rel = relation if relation is not None else hq()
    if rel.has_N:
        raise UnsupportedCaseError("the sl2q triple lives in the central-remainder relation")
    sig = rel.sigma
    if alpha is None:
        al = (one - A) / (one - sig)
        al1 = (one - sig * A) / (one - sig)
        dbl = (one - sig**2 * A**2) / (one - sig)
    else:
        al = rel.tau_number(alpha)
        al1 = rel.tau_number(alpha + 1)
        dbl = rel.tau_number(2 * alpha + 2)
    kappa = al * al1 / dbl
    scale = rel.rho if variant == "p_scaled" else one
    jplus = rel.word("bba") - (scale * al) * rel.gen("b")
    jzero = rel.word("ba") - rel.scalar_nf(scale * kappa)
    jminus = rel.gen("a")
    return Sl2qTriple(jplus, jzero, jminus, rel, alpha, variant)


@dataclass
class Sl2qResult:
    ok: bool
    c_plus: Scalar | None
    c_zero: Scalar | None
    c_minus: Scalar | None
    failing_relation: int | None
    residual: object = None
    detail: str = ""


def sl2q_solve(triple: Sl2qTriple) -> Sl2qResult:
    """Find factors making the three deformed commutation relations hold.

    Normalization: c_minus = 1.  On failure the offending relation index
    (1, 2 or 3) and the exact proportionality residual are reported.
    """
    rel = triple.relation
    sig = rel.sigma
    jp, j0, jm = triple.jplus, triple.jzero, triple.jminus

    x1 = sig * (j0 * jm) - jm * j0
    lam1 = solve_scalar_factor(x1, jm)
    if lam1 is None or lam1.is_zero():
        return Sl2qResult(False, None, None, None, 1, residual=x1, detail="relation 1 not proportional to j-")
    c_zero = -(one / lam1)

    x2 = sig**2 * (jp * jm) - jm * jp
    mu = solve_scalar_factor(x2, j0)
    if mu is None or mu.is_zero():
        residual = _proportionality_residual(x2, j0)
        return Sl2qResult(
            False,
            None,
            c_zero,
            one,
            2,
            residual=residual,
            detail="relation 2 not proportional to j0",
        )
    c_plus = -(sig + one) * c_zero / mu

    x3 = j0 * jp - sig * (jp * j0)
    lam3 = solve_scalar_factor(x3, jp)
    if lam3 is None or (c_zero * lam3) != one:
        return Sl2qResult(False, c_plus, c_zero, one, 3, residual=x3, detail="relation 3 inconsistent")

    # defensive re-check of all three relations with the scaled generators
    sp, s0, sm = c_plus * jp, c_zero * j0, jm
    checks = [
        sig * (s0 * sm) - sm * s0 + sm,
        sig**2 * (sp * sm) - sm * sp + (sig + one) * s0,
        s0 * sp - sig * (sp * s0) - sp,
    ]
    for idx, c in enumerate(checks, start=1):
        if not c.is_zero():
            return Sl2qResult(False, c_plus, c_zero, one, idx, residual=c, detail="re-check failed")
    return Sl2qResult(
        True,
        c_plus,
        c_zero,
        one,
        None,
        detail="factors: c+=%s c0=%s c-=1" % (c_plus.compact(), c_zero.compact()),
    )


def _proportionality_residual(x: NormalForm, y: NormalForm):
    """x - c*y with c matched on y's leading monomial; a Scalar when possible."""
    if y.is_zero():
        return x
    key = max(y.terms)
    cx = x.terms.get(key)
    if cx is None:
        return x
    diff = x - (cx / y.terms[key]) * y
    mono = list(diff.items())
    if len(mono) == 1 and mono[0][0] == (0, 0, 0):
        return mono[0][1]
    return diff


def annihilation_check(n: int, variant: str = "as_stated", relation: Relation | None = None) -> Verdict:
    """(j+)^(n+1) kills the span of 1, b, ..., b^n in the vacuum module."""
    rel = relation if relation is not None else hq()
    triple = sl2q_triple(rel, alpha=n, variant=variant)
    op = triple.jplus ** (n + 1)
    L = 3 * (n + 1) + n + 2
    mat = fock_matrix(op, hq_fock(rel.rho, rel.sigma, L))
    bad = []
    for col in range(n + 1):
        column = mat.column(col)
        if column:
            bad.append((col, {r: v.compact() for r, v in column.items()}))
    return Verdict("pass" if not bad else "fail", bad or None)


# --- structural comparison of the two ladder theorems -----------------------------------


def thm6_letter_swap_matches_thm5(n: int) -> bool:
    """THM6 at F = 1, sigma = p has THM5's term structure with q renamed to p.

    THM5 is instantiated at rho = 1 so both remainders are the unit.
    """
    rel5 = hq(p=1)
    lhs5, rhs5 = build(IdentityCase("THM5", rel5, n=n))
    rel6 = extended()  # sigma = p, F = 1, tau = q
    lhs6, rhs6 = build(IdentityCase("THM6", rel6, n=n))

    def swap(x: NormalForm) -> dict:
        return {mono: c.rename_variable("q", "p") for mono, c in x.items()}

    def plain(x: NormalForm) -> dict:
        return dict(x.items())

    return swap(lhs5) == plain(lhs6) and swap(rhs5) == plain(rhs6)


# --- suite runner ----------------------------------------------------------------------------


VARIANTS = ("as_stated", "p_scaled")


@dataclass
class SuiteConfig:
    """Which catalog cases ``suite`` runs; it runs them one by one, in catalog order."""

    catalog: str = "all"
    max_n: int = 4
    ids: tuple = ()  # optional filter on catalog tags
    variants: tuple = ()  # optional filter on variants
    params: dict = field(default_factory=dict)
    seed: int = 0


@dataclass
class CaseResult:
    id: str
    args: dict
    variant: str
    params: dict
    status: str
    expected: str
    residual: str
    millis: int
    detail: str = ""

    def cells(self) -> list:
        """The leading columns of the tsv and text formats."""
        args, params = (json.dumps(x, separators=(",", ":")) for x in (self.args, self.params))
        return [self.id, args, self.variant, params, self.status]

    def row(self) -> dict:
        return {
            "id": self.id,
            "args": self.args,
            "variant": self.variant,
            "params": self.params,
            "status": self.status,
            "residual": self.residual,
            "millis": self.millis,
        }


@dataclass
class Report:
    cases: list
    notes: list = field(default_factory=list)

    def ok(self) -> bool:
        """True when no case differs from its expected status."""
        return not self.surprises()

    def surprises(self) -> list:
        return [c for c in self.cases if c.status != c.expected]

    def to_json(self) -> str:
        # millis is zeroed so identical runs are byte-identical
        payload = {"version": 1, "cases": [dict(c.row(), millis=0) for c in self.cases]}
        if self.notes:
            payload["notes"] = list(self.notes)
        return json.dumps(payload, separators=(", ", ": "))

    def to_tsv(self) -> str:
        return "".join("\t".join(c.cells() + [c.residual, "0"]) + "\n" for c in self.cases)

    def to_text(self) -> str:
        headers = ["id", "args", "variant", "params", "status", "ms", "note"]
        rows = []
        for c in self.cases:
            note = c.detail
            if c.status != c.expected:
                note = ("UNEXPECTED (wanted %s) " % c.expected) + note
            residual = c.residual
            if len(residual) > 96:
                residual = residual[:93] + "..."
            note += " | " + residual if c.status == "fail" and residual else ""
            rows.append(c.cells() + [str(c.millis), note.strip()])
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
        out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
        for r in rows:
            out.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))))
        ok = self.ok()
        out.append("%d cases, %d unexpected, suite %s" % (len(self.cases), len(self.surprises()), "OK" if ok else "FAIL"))
        for n in self.notes:
            out.append("note: " + n)
        return "\n".join(out) + "\n"


def _core_cases(max_n: int, params: dict, seed: int):
    rel = hq().bind(params) if params else hq()
    cases = []
    for n in range(1, max_n + 1):
        cases.append((IdentityCase("THM1a", rel, n=n, params=params), "pass"))
        cases.append((IdentityCase("THM1b", rel, n=n, params=params), "pass"))
    for n in range(1, max_n + 1):
        cases.append((IdentityCase("LEM1a", rel, n=n, params=params), "pass"))
        cases.append((IdentityCase("LEM1b", rel, n=n, params=params), "pass"))
    for n in range(1, max_n + 1):
        for m in range(n, max_n + 1):
            cases.append((IdentityCase("THM2a", rel, n=n, m=m, params=params), "pass"))
            cases.append((IdentityCase("THM2c", rel, n=n, m=m, params=params), "pass"))
    for n in range(1, max_n + 1):
        for m in range(1, max_n + 1):
            cases.append((IdentityCase("THM2b", rel, n=n, m=m, params=params), "pass"))
    for k in (1, 2):
        for n in range(1, min(max_n, 3) + 1):
            cases.append((IdentityCase("COR1", rel, n=n, k=k, params=params), "pass"))
    for k in (1, 2):
        for n in range(1, min(max_n, 3) + 1):
            for m in range(n + 1, min(max_n, 3) + 1):
                cases.append((IdentityCase("COR2a", rel, n=n, m=m, k=k, params=params), "pass"))
    cases.append((IdentityCase("COR2b", rel, ns=(1, 2), ms=(2,), k=1, params=params), "pass"))
    cases.append((IdentityCase("COR2b", rel, ns=(2, 1), ms=(1, 2), k=1, params=params), "pass"))
    cases.append((IdentityCase("COR2b", rel, ns=(1, 2), ms=(2, 1), k=2, params=params), "pass"))
    for ns, ms in (((1,), (2,)), ((1, 2), (3,)), ((2, 2), (1, 3)), ((3,), (2, 1))):
        for orders in _order_assignments(len(ns) + len(ms)):
            cases.append((IdentityCase("COR3", rel, ns=ns, ms=ms, orders=orders, params=params), "pass"))
    rng = random.Random(seed)
    for _ in range(3):
        poly = Poly1([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(2, 5))], "t")
        if poly.is_zero():
            poly = Poly1([1, 1], "t")
        cases.append((IdentityCase("EQ14", rel, poly=poly, params=params), "pass"))
    return cases


def _order_assignments(count: int):
    # the first factor's order varies fastest
    return [orders[::-1] for orders in itertools.product(("ab", "ba"), repeat=count)]


def _errata_cases(max_n: int):
    sym = hq()
    at_p1 = hq(p=1)
    cases = []
    for cid in ("THM4a", "THM4b", "THM5", "LEM3"):
        for n in (-1,) if cid == "LEM3" else range(1, max_n + 1):  # LEM3 keeps alpha symbolic
            cases.append((IdentityCase(cid, sym, n=n, variant="as_stated"), "fail"))
            cases.append((IdentityCase(cid, at_p1, n=n, variant="as_stated", params={"p": "1"}), "pass"))
            cases.append((IdentityCase(cid, sym, n=n, variant="p_scaled"), "pass"))
    return cases


def _extended_cases(max_n: int):
    f_one = extended()  # sigma = p, F = 1, tau = q
    sl2 = extended(sigma=1, F=Poly1([0, 2], "N"), tau=1)
    cases = []
    for n in range(1, max_n + 1):
        cases.append((IdentityCase("THM6", f_one, n=n), "pass"))
    for n in range(1, min(max_n, 3) + 1):
        cases.append((IdentityCase("THM6", sl2, n=n, params={"p": "1", "q": "1", "F": "2*N"}), "pass"))
    for n in (1, 2):
        cases.append((IdentityCase("THM1a", f_one, n=n), "pass"))
        cases.append((IdentityCase("THM2c", f_one, n=n, m=n + 1), "pass"))
    return cases


def catalog_cases(config: SuiteConfig):
    """(case, expected-status) pairs for the chosen catalog, in run order.

    ``ids`` and ``variants`` narrow the list to specific catalog tags and
    variant labels.
    """
    params = dict(config.params)
    if config.catalog == "core":
        pairs = _core_cases(config.max_n, params, config.seed)
    elif config.catalog == "errata":
        pairs = _errata_cases(config.max_n)
    elif config.catalog == "extended":
        pairs = _extended_cases(config.max_n)
    elif config.catalog == "all":
        pairs = (
            _core_cases(config.max_n, params, config.seed)
            + _errata_cases(config.max_n)
            + _extended_cases(config.max_n)
        )
    elif config.catalog == "none":
        pairs = []
    else:
        raise UnsupportedCaseError("unknown catalog %r" % config.catalog)
    for name, wanted, known in (("catalog ids", config.ids, CATALOG_IDS), ("variants", config.variants, VARIANTS)):
        unknown = set(wanted) - set(known)
        if unknown:
            raise UnsupportedCaseError("unknown %s: %s" % (name, ", ".join(sorted(unknown))))
    return [
        (c, e)
        for c, e in pairs
        if (not config.ids or c.id in config.ids) and (not config.variants or c.variant in config.variants)
    ]


def run_cases(rows, notes=()) -> Report:
    """Run rows ``(id, args, variant, params, expected, thunk)`` into a Report.

    Each thunk returns a Verdict; an unsupported case is reported as a
    failure and never aborts the run.  The wall time of each thunk fills the
    text format's ms column.
    """
    results = []
    for cid, args, variant, params, expected, thunk in rows:
        t0 = time.perf_counter()
        try:
            verdict = thunk()
        except UnsupportedCaseError as exc:
            verdict = Verdict("fail", detail="unsupported: %s" % exc)
        millis = int((time.perf_counter() - t0) * 1000)
        residual = verdict.residual_text()
        results.append(CaseResult(cid, args, variant, params, verdict.status, expected, residual, millis, verdict.detail))
    return Report(cases=results, notes=list(notes))


def suite(config: SuiteConfig) -> Report:
    """Run every case in the catalog; failures never abort the run."""
    return run_cases(
        (c.id, c.args(), c.variant, {k: str(v) for k, v in sorted(c.params.items())}, expected, lambda c=c: verify(c))
        for c, expected in catalog_cases(config)
    )

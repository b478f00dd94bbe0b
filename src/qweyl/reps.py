"""Exact functional representations on polynomial spaces.

Four concrete assignments of the generators to operators on Q[x] (extended
by the symbols the operator needs):

    diff_ab   a = d/dx,                 b = x                (sigma 1, rho 1)
    diff_ba   a = x,                    b = d/dx             (sigma 1, rho -1)
    jackson   a = D (Jackson symbol),   b = x                (sigma q, rho 1)
    delta     a = forward difference,   b = x shift(-d)      (sigma 1, rho 1)

plus diagonal Fock representations a|n> = s_n |n-1>, b|n> = |n+1> on a
truncated basis, parameterized by an explicit exact sequence.  Everything is
exact: the Jackson action on x^k is {k} x^(k-1) via the q-number polynomial,
shifts expand binomially, and Fock matrix entries are Scalars.

``fock_words_equal`` decides a word identity w1 == w2 from the q-oscillator
Fock representation, where it is faithful, by counting the levels the a's act
at; ``identities.verify`` settles the catalog's word identities with it.

The convention here fixes a = D, b = x for the Jackson representation so
that b*a realizes x*D; callers that want the mirrored assignment can use
diff-style swaps explicitly.
"""

from __future__ import annotations

import functools
import math
import random
from collections import Counter
from fractions import Fraction

from .scalar import D as _D
from .scalar import P as _P, Poly1, Q as _Q, Scalar, one, qnum, zero
from .verdict import Verdict
from .weyl import NormalForm, Relation, heisenberg, hq

__all__ = [
    "ParameterMismatchError",
    "TruncationError",
    "PolyRep",
    "diff_ab",
    "diff_ba",
    "jackson",
    "delta_rep",
    "ALL_POLY_REPS",
    "rep_relation_check",
    "realize",
    "morphism_check",
    "check_identity_on_basis",
    "xpow",
    "op_gen",
    "op_compose",
    "op_add",
    "op_sub",
    "op_scale",
    "op_pow",
    "op_mulpoly",
    "falling_factorial",
    "FockRep",
    "FockMatrix",
    "hq_fock",
    "affine_fock",
    "fock_matrix",
    "fock_words_equal",
    "sequence_residual",
]


class ParameterMismatchError(Exception):
    """A normal form was realized in a representation with other parameters."""


class TruncationError(Exception):
    """The Fock truncation level is too small for the requested word."""


# --- polynomial-space actions -------------------------------------------------


def xpow(k: int) -> Poly1:
    """The basis monomial x^k."""
    return Poly1([zero] * k + [one], "x")


def _diff(f: Poly1) -> Poly1:
    return Poly1([f.coeffs[k] * k for k in range(1, len(f.coeffs))], "x")


def _mulx(f: Poly1) -> Poly1:
    if f.is_zero():
        return f
    return Poly1([zero] + f.coeffs, "x")


def _jackson_d(f: Poly1) -> Poly1:
    # D x^k = {k} x^(k-1), never dividing by x(1-q)
    return Poly1([f.coeffs[k] * qnum(k) for k in range(1, len(f.coeffs))], "x")


def _shift(f: Poly1, step: Scalar) -> Poly1:
    """f(x + step), expanded exactly."""
    return f.compose_affine(one, step)


def _dplus(f: Poly1) -> Poly1:
    # (f(x+d) - f(x))/d
    return f.difference(_D)


def _dminus(f: Poly1) -> Poly1:
    # (f(x) - f(x-d))/d, which is (f(x-d) - f(x))/(-d)
    return f.difference(-_D)


def _u_backward(f: Poly1) -> Poly1:
    # f - f(x - d): the unnormalized backward difference
    return _dminus(f) * _D


class PolyRep:
    """A generator assignment with its recorded relation parameters.

    ``a`` and ``b`` are the actions of the two generators on Q[x].
    """

    __slots__ = ("kind", "sigma", "rho", "_actions")

    def __init__(self, kind: str, sigma: Scalar, rho: Scalar, a, b):
        self.kind = kind
        self.sigma = sigma
        self.rho = rho
        self._actions = {"a": a, "b": b}

    def apply(self, gen: str, f: Poly1) -> Poly1:
        action = self._actions.get(gen)
        if action is None:
            raise ParameterMismatchError("polynomial representations know a and b only")
        return action(f)

    def relation(self) -> Relation:
        """The engine relation this representation satisfies."""
        return heisenberg(self.sigma, self.rho)

    def __repr__(self):
        return "PolyRep(%s: sigma=%s, rho=%s)" % (self.kind, self.sigma, self.rho)


def diff_ab() -> PolyRep:
    return PolyRep("diff_ab", one, one, _diff, _mulx)


def diff_ba() -> PolyRep:
    return PolyRep("diff_ba", one, -one, _mulx, _diff)


def jackson() -> PolyRep:
    return PolyRep("jackson", _Q, one, _jackson_d, _mulx)


def delta_rep() -> PolyRep:
    """a = (shift(+d) - 1)/d, b = x*shift(-d)."""
    return PolyRep("delta", one, one, _dplus, lambda f: _mulx(_shift(f, -_D)))


def ALL_POLY_REPS() -> dict[str, PolyRep]:
    return {
        "diff_ab": diff_ab(),
        "diff_ba": diff_ba(),
        "jackson": jackson(),
        "delta": delta_rep(),
    }


def rep_relation_check(rep: PolyRep, K: int) -> Verdict:
    """(a b - sigma b a - rho) x^k = 0 for 0 <= k <= K."""
    a, b = op_gen(rep, "a"), op_gen(rep, "b")
    rhs = op_add(op_scale(rep.sigma, op_compose(b, a)), op_scale(rep.rho, _op_id))
    return check_identity_on_basis(op_compose(a, b), rhs, K)


def realize(x: NormalForm, rep: PolyRep):
    """The concrete operator for a normal form; parameters must match."""
    if x.rel.has_N:
        raise ParameterMismatchError("polynomial representations carry no N")
    if not (x.rel.sigma == rep.sigma and x.rel.rho == rep.rho):
        raise ParameterMismatchError(
            "normal form under %s but representation records sigma=%s rho=%s"
            % (x.rel.describe(), rep.sigma, rep.rho)
        )
    terms = list(x.items())

    def op(f: Poly1) -> Poly1:
        out = Poly1([], "x")
        for (i, _m, j), c in terms:
            g = f
            for _ in range(j):
                g = rep.apply("a", g)
            for _ in range(i):
                g = rep.apply("b", g)
            out = out + g * c
        return out

    return op


def morphism_check(word: str, rep: PolyRep, K: int) -> Verdict:
    """realize(nf(word)) vs direct letter-by-letter application on x^0..x^K."""
    via_nf = realize(rep.relation().word(word), rep)
    return check_identity_on_basis(via_nf, op_compose(*(op_gen(rep, ch) for ch in word)), K)


# --- operator combinators (direct application, independent of the engine) ------


def op_gen(rep: PolyRep, gen: str):
    return lambda f: rep.apply(gen, f)


def op_compose(*ops):
    def op(f):
        for o in reversed(ops):
            f = o(f)
        return f

    return op


def op_add(o1, o2):
    return lambda f: o1(f) + o2(f)


def op_sub(o1, o2):
    return lambda f: o1(f) - o2(f)


def op_scale(c, o):
    c = Scalar.of(c)
    return lambda f: o(f) * c


def op_pow(o, n: int):
    if n < 0:
        raise ValueError("operators admit non-negative powers only")

    def op(f):
        for _ in range(n):
            f = o(f)
        return f

    return op


def op_mulpoly(g: Poly1):
    return lambda f: g * f


def falling_factorial(n: int, step: Scalar) -> Poly1:
    """x (x - step) (x - 2 step) ... (x - (n-1) step)."""
    out = Poly1([1], "x")
    for t in range(n):
        out = out * Poly1([-(step * t), one], "x")
    return out


def _images(op, K: int):
    """op(x^0), ..., op(x^K), each computed when it is consumed."""
    return (op(xpow(k)) for k in range(K + 1))


def check_identity_on_basis(lhs_op, rhs_op, K: int) -> Verdict:
    """Compare two concrete operators on the monomials x^0..x^K."""
    return _compare_images(_images(lhs_op, K), _images(rhs_op, K))


def _compare_images(us, vs) -> Verdict:
    """The basis verdict from two operators' images of x^0..x^K."""
    bad = []
    for k, (u, v) in enumerate(zip(us, vs)):
        diff = u - v
        if not diff.is_zero():
            bad.append((k, diff))
    return Verdict("pass" if not bad else "fail", bad or None)


def _images_factor(us, vs):
    """Scalar c with u = c * v for the images us, vs of x^0..x^K, or None.

    Basis vectors where both images vanish impose no constraint; a vector
    where exactly one vanishes rules a constant out.
    """
    c = None
    for u, v in zip(us, vs):
        if u.is_zero() and v.is_zero():
            continue
        if v.is_zero() or u.is_zero():
            return None
        n = max(len(u.coeffs), len(v.coeffs))
        for t in range(n):
            cu, cv = u[t], v[t]
            if cu.is_zero() and cv.is_zero():
                continue
            if cv.is_zero():
                return None
            ratio = cu / cv
            if c is None:
                c = ratio
            elif c != ratio:
                return None
    return c


# --- diagonal Fock representations ---------------------------------------------


class FockRep:
    """a|n> = s_n |n-1>, b|n> = |n+1>, a|0> = 0, truncated at level L.

    The sequence must be exact (Scalars); anything that does not coerce is
    rejected at construction.
    """

    __slots__ = ("seq", "L")

    def __init__(self, seq, L: int | None = None):
        self.seq = [Scalar.of(s) for s in seq]
        self.L = len(self.seq) if L is None else L
        if self.L != len(self.seq):
            raise TruncationError("sequence length %d != L=%d" % (len(self.seq), self.L))
        if self.L < 2:
            raise TruncationError("truncation level too small")

    def s(self, n: int) -> Scalar:
        if n <= 0 or n > self.L:
            return zero
        return self.seq[n - 1]


def hq_fock(p=None, q=None, L: int = 12) -> FockRep:
    """The deformed-Heisenberg sequence s_n = rho * {n}; symbolic by default."""
    rho = _P if p is None else Scalar.of(p)
    qv = _Q if q is None else Scalar.of(q)
    vals = []
    acc = zero
    for _ in range(L):
        acc = acc * qv + one  # {n} = q {n-1} + 1
        vals.append(rho * acc)
    return FockRep(vals, L)


def affine_fock(alpha, beta, L: int = 12) -> FockRep:
    """Preimage chain for ba = f(ab) with affine f(t) = alpha t + beta.

    Solving s_n = f(s_(n+1)) with s_0 = 0 gives s_(n+1) = (s_n - beta)/alpha.
    """
    alpha = Scalar.of(alpha)
    beta = Scalar.of(beta)
    if alpha.is_zero():
        raise ValueError("alpha must be invertible")
    vals = []
    prev = zero
    for _ in range(L):
        nxt = (prev - beta) / alpha
        vals.append(nxt)
        prev = nxt
    return FockRep(vals, L)


class FockMatrix:
    """Exact truncated matrix with a validity window.

    ``letters`` bounds how many generator letters built the operator; matrix
    entries in columns n <= window = L - letters are exact, columns beyond
    may feel the truncation and are excluded from comparisons.
    """

    __slots__ = ("entries", "L", "letters")

    def __init__(self, entries: dict, L: int, letters: int):
        self.entries = {k: v for k, v in entries.items() if v}
        self.L = L
        self.letters = letters

    @property
    def window(self) -> int:
        return self.L - self.letters

    def __add__(self, other):
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, zero) + v
        return FockMatrix(out, self.L, max(self.letters, other.letters))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "FockMatrix":
        c = Scalar.of(c)
        return FockMatrix({k: c * v for k, v in self.entries.items()}, self.L, self.letters)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "FockMatrix") -> "FockMatrix":
        if self.L != other.L:
            raise TruncationError("matrix levels differ")
        by_col: dict[int, list] = {}
        for (r, c), v in self.entries.items():
            by_col.setdefault(c, []).append((r, v))
        out: dict = {}
        for (k, c), vb in other.entries.items():
            for r, va in by_col.get(k, ()):
                key = (r, c)
                s = out.get(key, zero) + va * vb
                out[key] = s
        return FockMatrix(out, self.L, self.letters + other.letters)

    def matpow(self, n: int) -> "FockMatrix":
        if n < 0:
            raise ValueError("truncated matrices admit non-negative powers only")
        out = FockMatrix({(t, t): one for t in range(self.L + 1)}, self.L, 0)
        for _ in range(n):
            out = out @ self
        return out

    def column(self, n: int) -> dict:
        return {r: v for (r, c), v in self.entries.items() if c == n and v}

    def windowed_equal(self, other: "FockMatrix") -> bool:
        if self.L != other.L:
            return False
        w = min(self.window, other.window)
        for c in range(w + 1):
            if self.column(c) != other.column(c):
                return False
        return True

    def render_rows(self) -> list[list[str]]:
        """Row-major exact entries for golden comparisons."""
        size = self.L + 1
        return [
            [self.entries.get((r, c), zero).canonical() for c in range(size)]
            for r in range(size)
        ]


def _a_levels(word: str, n: int):
    """Levels k at which the word's a's act on |n> (each contributes s_k); None when killed."""
    levels = []
    for ch in reversed(word):
        if ch == "b":
            n += 1
        elif ch == "a":
            if n == 0:
                return None
            levels.append(n)
            n -= 1
        else:
            raise ParameterMismatchError("Fock words use a and b only")
    return levels


def _cyclotomic_counts(levels) -> Counter:
    """For each d >= 2, how many levels d divides.

    [k]_sigma = prod_(d | k, d > 1) Phi_d(sigma), so the product of [k]_sigma
    over the levels is prod_d Phi_d(sigma)^count(d).
    """
    counts = Counter()
    for k in levels:
        counts.update(d for d in range(2, k + 1) if k % d == 0)
    return counts


def fock_words_equal(rel: Relation, w1: str, w2: str):
    """Decide w1 == w2 in the algebra through the q-oscillator Fock representation.

    Returns True when the words are equal, False when they are not, and None
    when this procedure does not decide.  Under a central relation with
    rho != 0 the action a|n> = rho [n]_sigma |n-1>, b|n> = |n+1> (Arik & Coon,
    J. Math. Phys. 17 (1976) 524) is faithful on elements of a-degree at most
    J when [1]_sigma .. [J]_sigma are nonzero: the least a-degree j0 of a
    nonzero normal form survives on |j0> with the factor rho^j0 [j0]_sigma!.
    A word sends |n> to rho^#a prod_(k in S(n)) [k]_sigma |n + #b - #a>, S(n)
    the levels its a's act at, or kills |n> when an a meets level 0.  So two
    words with the same letters are equal exactly when they agree on
    |0> .. |#a>: both kill, or neither does and the products agree.

    - sigma a non-constant single term: the cyclotomic factors Phi_d(sigma)
      are pairwise coprime non-units, so the products agree exactly when
      every d >= 2 divides as many levels of one word as of the other.  Only
      integers are counted; no Scalar is built.
    - sigma a rational constant with [1]_sigma .. [#a]_sigma nonzero: the
      exact rational products are compared.
    - anything else (N in the relation, rho = 0, another sigma, different
      letter counts, a vanishing [k]_sigma as at sigma = -1) is None.
    """
    if rel.has_N or rel.rho.is_zero():
        return None
    na = w1.count("a")
    if len(w1) != len(w2) or na != w2.count("a"):
        return None
    sigma = rel.sigma
    if sigma.is_constant():
        c = sigma.as_fraction()
        qint = [Fraction(0)]  # qint[k] = [k]_c
        for _ in w1:
            qint.append(qint[-1] * c + 1)
        if not all(qint[1 : na + 1]):
            return None

        def value(levels):
            return math.prod((qint[k] for k in levels), start=Fraction(1))

    elif sigma.is_single_term():
        value = _cyclotomic_counts
    else:
        return None
    for n in range(na + 1):
        s1, s2 = _a_levels(w1, n), _a_levels(w2, n)
        if (s1 is None) != (s2 is None):
            return False
        if s1 is not None and value(s1) != value(s2):
            return False
    return True


def fock_word_matrix(word: str, rep: FockRep) -> FockMatrix:
    """Direct letter-by-letter application; independent of the engine.

    The word sends |n> to prod_(k in S(n)) s_k |n + #b - #a>, S(n) the levels
    its a's act at.  A level above L either meets an a, where s is zero, or
    ends above L, so dropping the rows above L truncates as the letters do.
    """
    if len(word) + 2 > rep.L:
        raise TruncationError("word of length %d needs L >= %d" % (len(word), len(word) + 2))
    shift = word.count("b") - word.count("a")
    out: dict = {}
    for n in range(rep.L + 1):
        levels = _a_levels(word, n)
        if levels is not None and n + shift <= rep.L:
            out[(n + shift, n)] = math.prod(map(rep.s, levels), start=one)
    return FockMatrix(out, rep.L, len(word))


def fock_matrix(x, rep: FockRep) -> FockMatrix:
    """Matrix of a normal form (term by term) or of a word (direct)."""
    if isinstance(x, str):
        return fock_word_matrix(x, rep)
    if x.rel.has_N:
        raise ParameterMismatchError("diagonal Fock matrices cover N-free relations")
    letters = max((i + j for (i, _m, j), _c in x.items()), default=0)
    if letters + 2 > rep.L:
        raise TruncationError("normal form needs L >= %d" % (letters + 2))
    out: dict = {}
    for (i, _m, j), c in x.items():
        for n in range(j, rep.L + 1):
            row = n - j + i
            if row > rep.L:
                continue
            coeff = c
            for t in range(j):
                coeff = coeff * rep.s(n - t)
            if coeff:
                out[(row, n)] = out.get((row, n), zero) + coeff
    return FockMatrix(out, rep.L, letters)


def sequence_residual(f: Poly1, rep) -> list[Scalar]:
    """Residuals t_(n-1) - f(t_n) with t_n = s_(n+1) and t_(-1) = 0.

    An all-zero list certifies that the sequence realizes ba = f(ab).
    """
    seq = rep.seq if isinstance(rep, FockRep) else [Scalar.of(s) for s in rep]
    out = []
    prev = zero
    for s in seq:
        out.append(prev - f.evaluate(s))
        prev = s
    return out


# --- the standard check catalog (drives the rep-check subcommand and tests) ------

JACKSON_NOTE = (
    "jackson assignment: the engine fixes a = D, b = x so that b*a realizes "
    "x*D; the mirrored a = x, b = D convention is not used"
)


def _op_id(f):
    return f


def _ladder(T, constants):
    """The operator T (T - c_1) ... (T - c_n) for constants c_1..c_n."""
    return op_compose(T, *(op_sub(T, op_scale(c, _op_id)) for c in constants))


def _windowed_zero(mat: FockMatrix) -> bool:
    return all(not mat.column(c) for c in range(mat.window + 1))


def eq1_first_check(n: int, K: int | None = None) -> Verdict:
    """(x^2 d/dx - n x)^(n+1) = x^(2n+2) (d/dx)^(n+1)."""
    rep = diff_ab()
    a, b = op_gen(rep, "a"), op_gen(rep, "b")
    lhs = op_pow(op_sub(op_compose(b, b, a), op_scale(n, b)), n + 1)
    rhs = op_compose(op_pow(b, 2 * n + 2), op_pow(a, n + 1))
    return check_identity_on_basis(lhs, rhs, 3 * (n + 1) + 2 if K is None else K)


def eq1_second_check(n: int, corrected: bool, K: int | None = None) -> Verdict:
    """((d/dx)^2 x -/+ n d/dx)^(n+1) vs (d/dx)^(2n+2) x^(n+1).

    As printed (minus sign) this fails; the detail records that at n = 1 the
    left side equals d^2 x^2 d^2 instead.  With the plus sign it holds.
    """
    rep = diff_ba()  # a = x, b = d/dx
    a, b = op_gen(rep, "a"), op_gen(rep, "b")
    combine = op_add if corrected else op_sub
    lhs = op_pow(combine(op_compose(b, b, a), op_scale(n, b)), n + 1)
    rhs = op_compose(op_pow(b, 2 * n + 2), op_pow(a, n + 1))
    if K is None:
        K = 3 * (n + 1) + 2
    lhs_images = list(_images(lhs, K))
    verdict = _compare_images(lhs_images, _images(rhs, K))
    if not corrected and n == 1:
        alt = op_compose(b, b, a, a, b, b)  # d^2 x^2 d^2
        if _compare_images(lhs_images, _images(alt, K)).passed:
            verdict.detail = "as printed, the left side equals d^2 x^2 d^2"
    return verdict


def eq2_check(rep: PolyRep, n: int, form: str, K: int | None = None) -> Verdict:
    """(bab)^n = b^n a^n b^n (form 'a') or (aba)^n = a^n b^n a^n (form 'b')."""
    a, b = op_gen(rep, "a"), op_gen(rep, "b")
    if K is None:
        K = 3 * n + 2 if rep.kind.startswith("diff") else 6 * n + 4
    if form == "a":
        lhs = op_pow(op_compose(b, a, b), n)
        rhs = op_compose(op_pow(b, n), op_pow(a, n), op_pow(b, n))
    else:
        lhs = op_pow(op_compose(a, b, a), n)
        rhs = op_compose(op_pow(a, n), op_pow(b, n), op_pow(a, n))
    verdict = check_identity_on_basis(lhs, rhs, K)
    if rep.kind.startswith("diff"):
        return verdict
    # layered evidence for shift-style actions: compare with the exact
    # algebraic verdict of the same collapse
    return _engine_cross_check(verdict, "THM1b" if form == "a" else "THM1a", rep.sigma, rep.rho, n)


def eq3_check(n: int, K: int | None = None) -> Verdict:
    """x d (x d - 1) ... (x d - n) = x^(n+1) d^(n+1)."""
    rep = diff_ab()
    a, b = op_gen(rep, "a"), op_gen(rep, "b")
    lhs = _ladder(op_compose(b, a), range(1, n + 1))
    rhs = op_compose(op_pow(b, n + 1), op_pow(a, n + 1))
    return check_identity_on_basis(lhs, rhs, 2 * (n + 1) + 2 if K is None else K)


def _engine_cross_check(verdict: Verdict, cid: str, sigma, rho, n: int) -> Verdict:
    """Layer a basis verdict with the engine's verdict on the same identity.

    Shift-style representations act on function spaces where the basis
    argument is subtler, so their checks are layered: the exact algebraic
    identity ``cid`` is normal-ordered by the engine and must agree.
    """
    # imported here: identities imports this module at load time
    from .identities import IdentityCase, build

    lhs, rhs = build(IdentityCase(cid, heisenberg(sigma, rho), n=n))
    if (lhs - rhs).is_zero() != verdict.passed:
        return Verdict("fail", verdict.residual, detail="basis check disagrees with the engine verdict")
    verdict.detail = (verdict.detail + "; engine cross-check agrees").strip("; ")
    return verdict


def eq4_check(n: int, K: int | None = None) -> Verdict:
    """prod_k [x(1 - shift(-d)) - k d] = x^((n+1)) (1 - shift(-d))^(n+1)."""
    lhs = _ladder(lambda f: _mulx(_u_backward(f)), (_D * k for k in range(1, n + 1)))
    rhs = op_compose(op_mulpoly(falling_factorial(n + 1, _D)), op_pow(_u_backward, n + 1))
    verdict = check_identity_on_basis(lhs, rhs, 4 * (n + 1) + 4 if K is None else K)
    return _engine_cross_check(verdict, "THM5", one, one, n)


def eq20_check(n: int, K: int | None = None) -> Verdict:
    """x D (x D - {1}) ... (x D - {n}) = q^(n(n+1)/2) x^(n+1) D^(n+1)."""
    rep = jackson()
    a, b = op_gen(rep, "a"), op_gen(rep, "b")
    lhs = _ladder(op_compose(b, a), (qnum(k) for k in range(1, n + 1)))
    rhs = op_scale(_Q ** (n * (n + 1) // 2), op_compose(op_pow(b, n + 1), op_pow(a, n + 1)))
    verdict = check_identity_on_basis(lhs, rhs, 4 * (n + 1) + 4 if K is None else K)
    return _engine_cross_check(verdict, "THM5", _Q, one, n)


def eq22_constant(n: int, K: int | None = None):
    """(verdict, constant, matches_printed) for the backward-difference ladder.

    lhs = xD-(xD- - 1)...(xD- - n) against the bare x^((n+1)) D-^(n+1); the
    discovered constant is compared with the printed d^(n+1).
    """
    if K is None:
        K = 4 * (n + 1) + 4
    lhs = _ladder(lambda f: _mulx(_dminus(f)), range(1, n + 1))
    rhs = op_compose(op_mulpoly(falling_factorial(n + 1, _D)), op_pow(_dminus, n + 1))
    # each side's images serve both the constant and the verdict
    lhs_images, rhs_images = list(_images(lhs, K)), list(_images(rhs, K))
    c = _images_factor(lhs_images, rhs_images)
    if c is None:
        return Verdict("fail", "no basis-independent constant"), None, False
    verdict = _compare_images(lhs_images, (v * c for v in rhs_images))
    matches_printed = c == _D ** (n + 1)
    verdict.detail = "constant %s; printed d^%d %s" % (
        c.compact(),
        n + 1,
        "matches" if matches_printed else "differs",
    )
    return verdict, c, matches_printed


def fock_theorem3_spotcheck(seed: int = 0, L: int = 14, trials: int = 5) -> Verdict:
    """Ordering identities hold in random diagonal representations.

    For exact random sequences: (aba)^2 = a^2 b^2 a^2, the 2k+1-block
    collapse for n, k <= 2, and [b^n a^n, b^m a^m] = 0 for n, m <= 3, all on
    the safe window.
    """
    rng = random.Random(seed)
    bad = []
    for trial in range(trials):
        seq = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(L)]
        rep = FockRep(seq, L)
        aba = fock_word_matrix("aba", rep)
        if not (aba @ aba).windowed_equal(fock_word_matrix("aabbaa", rep)):
            bad.append((trial, "aba^2"))
        for n in (1, 2):
            for k in (1, 2):
                block = fock_word_matrix("ab" * k + "a", rep)
                full = fock_word_matrix("a" * n + ("b" * n + "a" * n) * k, rep)
                got = block
                for _ in range(n - 1):
                    got = got @ block
                if not got.windowed_equal(full):
                    bad.append((trial, "blocks n=%d k=%d" % (n, k)))
        for n in (1, 2, 3):
            for m in (n, 2, 3):
                x = fock_word_matrix("b" * n + "a" * n, rep)
                y = fock_word_matrix("b" * m + "a" * m, rep)
                if not _windowed_zero(x @ y - y @ x):
                    bad.append((trial, "commute n=%d m=%d" % (n, m)))
    return Verdict("pass" if not bad else "fail", bad or None)


def fock_affine_spotcheck(seed: int = 0, L: int = 14) -> Verdict:
    """For a sequence certified against an affine map, the mixed commutator
    [a^n b^n, b^m a^m] also vanishes on the window."""
    rng = random.Random(seed)
    bad = []
    for _ in range(3):
        alpha = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        beta = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        rep = affine_fock(alpha, beta, L)
        f = Poly1([beta, alpha], "t")
        if any(sequence_residual(f, rep)):
            bad.append("residuals nonzero")
            continue
        for n in (1, 2):
            for m in (1, 2, 3):
                x = fock_word_matrix("a" * n + "b" * n, rep)
                y = fock_word_matrix("b" * m + "a" * m, rep)
                if not _windowed_zero(x @ y - y @ x):
                    bad.append("mixed n=%d m=%d" % (n, m))
    return Verdict("pass" if not bad else "fail", bad or None)


def fock_vs_abstract_spotcheck(seed: int = 0, L: int = 12, words: int = 50) -> Verdict:
    """Normal-form matrices match direct word application at random rational p, q."""
    rng = random.Random(seed)
    bad = []
    for _ in range(words):
        p = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        q = Fraction(rng.randint(1, 7), rng.randint(1, 4))
        rel = hq(p=p, q=q)
        rep = hq_fock(p=p, q=q, L=L)
        word = "".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
        via_nf = fock_matrix(rel.word(word), rep)
        direct = fock_word_matrix(word, rep)
        if not via_nf.windowed_equal(direct):
            bad.append(word)
    return Verdict("pass" if not bad else "fail", bad or None)


def standard_rep_cases(rep_filter: str | None = None, eq_filter: str | None = None, max_n: int = 3, degree: int | None = None, seed: int = 0):
    """The rep-check case list as ``identities.run_cases`` rows.

    Each row is (id, args with the rep name, variant, {}, expected, runner).

    ``rep_filter`` "diff" keeps both differential assignments; cases without
    an equation tag (the relation table, the Fock spot checks) run only when
    no ``eq_filter`` is given.
    """
    reps = ALL_POLY_REPS()
    K = 12 if degree is None else degree
    ns = [{"n": n} for n in range(1, max_n + 1)]

    def holds(check):
        return (("", "pass", check),)

    # (id, equation tag, rep, the args of each case, (variant, expected, check(args)) per args)
    rows = [
        ("RELTAB", None, name, [{"K": K}], holds(lambda a, rep=rep: rep_relation_check(rep, **a)))
        for name, rep in reps.items()
    ]
    rows += [
        ("EQ1a", "1a", "diff_ab", ns, holds(lambda a: eq1_first_check(a["n"], degree))),
        (
            "EQ1b",
            "1b",
            "diff_ba",
            ns,
            (
                ("as_printed", "fail", lambda a: eq1_second_check(a["n"], False, degree)),
                ("corrected", "pass", lambda a: eq1_second_check(a["n"], True, degree)),
            ),
        ),
    ]
    rows += [
        ("EQ" + tag, tag, name, ns, holds(lambda a, rep=reps[name], form=form: eq2_check(rep, a["n"], form, degree)))
        for tag, form in (("2a", "a"), ("2b", "b"))
        for name in ("diff_ab", "jackson")
    ]
    rows += [
        ("EQ3", "3", "diff_ab", ns, holds(lambda a: eq3_check(a["n"], degree))),
        ("EQ4", "4", "delta", ns, holds(lambda a: eq4_check(a["n"], degree))),
        ("EQ20", "20", "jackson", ns, holds(lambda a: eq20_check(a["n"], degree))),
        ("EQ22", "22", "delta", ns, holds(lambda a: eq22_constant(a["n"], degree)[0])),
        ("FOCK_T3", None, "fock", [{"L": 14, "trials": 5}], holds(lambda a: fock_theorem3_spotcheck(seed, **a))),
        ("FOCK_AFFINE", None, "fock", [{"L": 14}], holds(lambda a: fock_affine_spotcheck(seed, **a))),
        ("FOCK_HQ", None, "fock", [{"L": 12, "words": 50}], holds(lambda a: fock_vs_abstract_spotcheck(seed, **a))),
    ]
    wanted_reps = ("diff_ab", "diff_ba") if rep_filter == "diff" else (rep_filter,)
    return [
        (cid, dict(args, rep=name), variant, {}, expected, functools.partial(check, args))
        for cid, tag, name, arg_list, variants in rows
        if eq_filter is None or tag == eq_filter
        if rep_filter is None or name in wanted_reps
        for args in arg_list
        for variant, expected, check in variants
    ]

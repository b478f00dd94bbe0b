"""Canonical PBW normal forms for the deformed Heisenberg relation.

Every element is a finite sum of ordered monomials b^i * N^m * a^j with
Scalar coefficients (m is always 0 when the relation has no N).  The
defining data is a ``Relation``:

    a*b = sigma*b*a + remainder

where the remainder is either a central Scalar rho, or a polynomial F(N)
together with the shift rules

    a*g(N) = g(tau*N + 1)*a        g(N)*b = b*g(tau*N + 1).

Reordering a^j b^i starts from the recurrence

    a b^i = sigma * b * (a b^(i-1)) + b^(i-1) * F(tau^(i-1) N + {i-1})

(with F replaced by the central rho in the N-free case).  Each further a
is a product: a^j b^i = a * (a^(j-1) b^i) runs ``Relation._product``, the
term-pair loop that ``NormalForm.__mul__`` runs.  One table ``_r`` keyed
(j, i) memoizes both fills per relation, because identity checks reuse the
same (j, i) pairs thousands of times.  The memo tables fill on first use and
grow until ``Relation.clear_caches``; a relation's defining data never
change, so an entry never goes stale.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels as _k
from .scalar import P, Q, Poly1, Scalar, join_signed, one, signed_term, zero

__all__ = [
    "Relation",
    "NormalForm",
    "RelationMismatchError",
    "WordError",
    "heisenberg",
    "hq",
    "extended",
    "commutator",
]


class RelationMismatchError(Exception):
    """Normal forms built under different relations were combined."""


class WordError(Exception):
    """A word used the generator N under a relation without N."""


# packed (i, m, j) monomial keys; pure addition composes the b/a offsets
_MASK = (1 << 20) - 1
_KEY0 = 0


def _key(i: int, m: int, j: int) -> int:
    return (i << 40) | (m << 20) | j


def _ikey(key: int) -> tuple[int, int, int]:
    return key >> 40, (key >> 20) & _MASK, key & _MASK


def _mono_text(i: int, m: int, j: int) -> str:
    parts = []
    if i:
        parts.append("b" if i == 1 else "b^%d" % i)
    if m:
        parts.append("N" if m == 1 else "N^%d" % m)
    if j:
        parts.append("a" if j == 1 else "a^%d" % j)
    return "*".join(parts)


class Relation:
    """Reordering data plus the per-relation memo tables."""

    __slots__ = (
        "sigma",
        "rho",
        "F",
        "tau",
        "has_N",
        "_r",
        "_mid",
        "_shift_pow",
        "_tau_num",
    )

    def __init__(self, sigma, rho=None, F: Poly1 | None = None, tau=None):
        self.sigma = Scalar.of(sigma)
        self.has_N = F is not None
        if self.has_N:
            if rho is not None:
                raise ValueError("give either a central rho or a polynomial F(N), not both")
            self.F = F if isinstance(F, Poly1) else Poly1([F], "N")
            self.tau = Scalar.of(tau if tau is not None else 1)
            self.rho = None
        else:
            self.rho = Scalar.of(rho if rho is not None else 0)
            self.F = None
            self.tau = None
        self._r: dict = {}
        self._mid: dict = {}
        self._shift_pow: dict = {}
        self._tau_num: list = []

    # -- identity of the defining data, independent of cache state ----------

    def defining_data(self):
        return (self.sigma, self.rho, self.F, self.tau, self.has_N)

    def __eq__(self, other):
        return self is other or (isinstance(other, Relation) and self.defining_data() == other.defining_data())

    def __hash__(self):
        return hash(self.defining_data())

    def describe(self) -> str:
        if self.has_N:
            return "a*b = %s*b*a + F(N), F = %s, tau = %s" % (
                self.sigma.compact(),
                self.F.text(),
                self.tau.compact(),
            )
        return "a*b = %s*b*a + %s" % (self.sigma.compact(), self.rho.compact())

    def bind(self, bindings: dict) -> "Relation":
        """Substitute parameters inside the defining data."""
        if self.has_N:
            return Relation(
                self.sigma.substitute(bindings),
                F=self.F.map_coeffs(lambda c: c.substitute(bindings)),
                tau=self.tau.substitute(bindings),
            )
        return Relation(self.sigma.substitute(bindings), self.rho.substitute(bindings))

    # -- element constructors -------------------------------------------------

    def unit(self) -> "NormalForm":
        return NormalForm(self, {_KEY0: one}, _clean=True)

    def scalar_nf(self, c) -> "NormalForm":
        c = Scalar.of(c)
        return NormalForm(self, {_KEY0: c} if c else {}, _clean=True)

    def gen(self, letter: str) -> "NormalForm":
        if letter == "a":
            return NormalForm(self, {_key(0, 0, 1): one}, _clean=True)
        if letter == "b":
            return NormalForm(self, {_key(1, 0, 0): one}, _clean=True)
        if letter == "N":
            if not self.has_N:
                raise WordError("generator N is not part of this relation")
            return NormalForm(self, {_key(0, 1, 0): one}, _clean=True)
        raise WordError("unknown generator %r" % letter)

    def word(self, letters) -> "NormalForm":
        out = self.unit()
        for ch in letters:
            out = out * self.gen(ch)
        return out

    def npoly_nf(self, poly: Poly1) -> "NormalForm":
        if not self.has_N and poly.degree() not in (float("-inf"), 0):
            raise WordError("polynomial in N under a relation without N")
        return NormalForm(self, {_key(0, m, 0): c for m, c in poly.terms()}, _clean=True)

    # -- reordering engine -----------------------------------------------------

    def tau_number(self, n: int) -> Scalar:
        """{n} with base tau: 1 + tau + ... + tau^(n-1); zero for n <= 0."""
        if n <= 0:
            return zero
        table = self._tau_num
        if not table:
            table.append(zero)
        if n >= len(table):
            # bottom-up, {t} = base*{t-1} + 1; the table stays {0}, ..., {len-1}
            base = self.tau if self.has_N else self.sigma
            got = table[-1]
            for _ in range(len(table), n + 1):
                got = base * got + one
                table.append(got)
        return table[n]

    def _shiftpow(self, m: int, t: int) -> dict:
        """Term map of (tau^t N + {t})^m, the result of moving N^m across t letters."""
        if m == 0:
            return {_KEY0: one}
        got = self._shift_pow.get((m, t))
        if got is None:
            poly = Poly1.monomial(one, m).compose_affine(self.tau**t, self.tau_number(t))
            got = self._shift_pow[(m, t)] = {_key(0, e, 0): c for e, c in poly.terms()}
        return got

    def _r1_step(self, prev: dict, i: int, rem: list) -> dict:
        """a * b^i = sigma * b * (a * b^(i-1)) + b^(i-1) * F(tau^(i-1) N + {i-1})."""
        out = _k.axpy_shift({}, prev, _key(1, 0, 0), self.sigma)
        for m, c in rem:
            _k.axpy_shift(out, self._shiftpow(m, i - 1), _key(i - 1, 0, 0), c)
        return out

    def _R(self, j: int, i: int) -> dict:
        """Term map of a^j * b^i, memoized per (j, i)."""
        if j == 0:
            return {_key(i, 0, 0): one}
        if i == 0:
            return {_key(0, 0, j): one}
        got = self._r.get((j, i))
        if got is None:
            # bottom-up from the largest filled entry of row 1 or of column i,
            # so no exponent reaches the recursion limit
            if j == 1:
                # the remainder's nonzero coefficients, (m, F_m), or (0, rho) without N
                rem = self.F.terms() if self.has_N else [(0, self.rho)] if self.rho else []
                t = i - 1
                while t and (1, t) not in self._r:
                    t -= 1
                got = self._R(1, t)
                while t < i:
                    t += 1
                    got = self._r[(1, t)] = self._r1_step(got, t, rem)
            else:
                t = j - 1
                while t > 1 and (t, i) not in self._r:
                    t -= 1
                got = self._R(t, i)
                a = {_key(0, 0, 1): one}
                while t < j:
                    t += 1
                    got = self._r[(t, i)] = self._product(a, got)
        return got

    def _product(self, x: dict, y: dict) -> dict:
        """Term map of x * y: every term pair b^i1 N^m1 a^j1 * b^i2 N^m2 a^j2
        reorders its middle N^m1 a^j1 b^i2 N^m2."""
        out: dict = {}
        for k1, c1 in x.items():
            i1, m1, j1 = _ikey(k1)
            for k2, c2 in y.items():
                i2, m2, j2 = _ikey(k2)
                _k.axpy_shift(out, self._mid_product(m1, j1, i2, m2), (i1 << 40) + j2, c1 * c2)
        return out

    def _mid_product(self, m1: int, j1: int, i2: int, m2: int) -> dict:
        """Term map of N^m1 * a^j1 * b^i2 * N^m2."""
        if m1 == 0 and m2 == 0:
            return self._R(j1, i2)
        key = (m1, j1, i2, m2)
        got = self._mid.get(key)
        if got is None:
            # N^m1 crosses b^alpha and N^m2 crosses a^beta; N-polynomials
            # commute, so a term's own N^mu is part of its key offset
            got = {}
            for k, c in self._R(j1, i2).items():
                if not m2:
                    npoly = self._shiftpow(m1, k >> 40)
                elif not m1:
                    npoly = self._shiftpow(m2, k & _MASK)
                else:
                    npoly = _k.mpoly_mul(self._shiftpow(m1, k >> 40), self._shiftpow(m2, k & _MASK), _KEY0)
                _k.axpy_shift(got, npoly, k, c)
            self._mid[key] = got
        return got

    def clear_caches(self) -> None:
        for d in (self._r, self._mid, self._shift_pow, self._tau_num):
            d.clear()


def _check_key_range(x: "NormalForm", y: "NormalForm") -> None:
    """Raise WordError if a term of x*y could overflow the 20-bit m or j field.

    Moving a^j1 across b^i2 contracts at most min(j1, i2) pairs, and each
    contraction multiplies by F(N), so N-degrees grow by at most
    deg F * min(j1, i2).  One bound over the largest exponents of both
    operands covers every term pair of the product.
    """
    if not x.terms or not y.terms:
        return
    j1, m1 = _largest_j_m(x)
    j2, m2 = _largest_j_m(y)
    m = m1 + m2
    rel = x.rel
    if rel.F:
        i2 = max(y.terms) >> 40  # i is the key's top field
        m += rel.F.degree() * min(j1, i2)
    _refuse_past_limit(j1 + j2, m)


def _largest_j_m(x: "NormalForm") -> tuple[int, int]:
    """The largest a-exponent and the largest N-exponent over the terms of x."""
    j = max(map(_MASK.__and__, x.terms))
    m = max(map((_MASK << 20).__and__, x.terms)) >> 20 if x.rel.has_N else 0
    return j, m


def _refuse_past_limit(j: int, m: int) -> None:
    if j > _MASK or m > _MASK:
        raise WordError("product exceeds the exponent limit: powers of a and N must stay below 2^20")


def heisenberg(sigma, rho) -> Relation:
    """Relation a*b = sigma*b*a + rho with central rho."""
    return Relation(sigma, rho)


def hq(p=None, q=None) -> Relation:
    """The deformed Heisenberg relation a*b - q*b*a = p.

    Omitted parameters stay symbolic.  Note the slot naming: sigma is the
    coefficient on b*a (the deformation), rho the central remainder.
    """
    sigma = Q if q is None else Scalar.of(q)
    rho = P if p is None else Scalar.of(p)
    return Relation(sigma, rho)


def extended(sigma=None, F: Poly1 | None = None, tau=None) -> Relation:
    """The three-generator relation a*b - sigma*b*a = F(N) with N-shifts by tau.

    Defaults: sigma = p (symbolic), F = 1, tau = q (symbolic).
    """
    sigma = P if sigma is None else sigma
    F = Poly1([1], "N") if F is None else F
    tau = Q if tau is None else tau
    return Relation(sigma, F=F, tau=tau)


class NormalForm:
    """A finite Scalar-combination of PBW monomials b^i N^m a^j."""

    __slots__ = ("rel", "terms")

    def __init__(self, rel: Relation, terms: dict, *, _clean: bool = False):
        self.rel = rel
        self.terms = terms if _clean else {k: v for k, v in terms.items() if v}

    # -- inspection ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        """Iterate ((i, m, j), coefficient) pairs."""
        for k, v in self.terms.items():
            yield _ikey(k), v

    def coefficient(self, i: int, m: int = 0, j: int = 0) -> Scalar:
        return self.terms.get(_key(i, m, j), zero)

    def grade(self):
        """Common i - j over all monomials, or None when inhomogeneous."""
        grades = {(k >> 40) - (k & _MASK) for k in self.terms}
        if len(grades) == 1:
            return grades.pop()
        return None

    def __eq__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        if self.rel is not other.rel and self.rel != other.rel:
            raise RelationMismatchError("comparing normal forms from different relations")
        return self.terms == other.terms

    # -- algebra ----------------------------------------------------------------

    def _check(self, other: "NormalForm") -> None:
        if self.rel is not other.rel and self.rel != other.rel:
            raise RelationMismatchError("mixing normal forms from different relations")

    def __add__(self, other):
        other = self._lift(other)
        self._check(other)
        return NormalForm(self.rel, _k.mpoly_add(self.terms, other.terms), _clean=True)

    def __sub__(self, other):
        other = self._lift(other)
        self._check(other)
        return NormalForm(self.rel, _k.mpoly_sub(self.terms, other.terms), _clean=True)

    def __neg__(self):
        return NormalForm(self.rel, {k: -v for k, v in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        self._check(other)
        _check_key_range(self, other)
        return NormalForm(self.rel, self.rel._product(self.terms, other.terms), _clean=True)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "NormalForm":
        c = Scalar.of(c)
        if not c:
            return NormalForm(self.rel, {}, _clean=True)
        return NormalForm(self.rel, {k: c * v for k, v in self.terms.items()})

    def __pow__(self, n: int) -> "NormalForm":
        """x^n: by squaring when no term of x carries b, or none carries a;
        otherwise a product of n factors x, one at a time.

        Without both letters, no product of powers of x moves an a past a b,
        so squaring is cheap.  With both, even for a single term such as b*a,
        squaring reorders two large normal forms, which costs far more than
        multiplying by x n times.  Since x*x^k = x^k*x, each factor comes in
        from the side that moves fewer a's: reordering a^j b^i yields
        min(j, i) + 1 terms, so x^k*x moves x^k's a-block across x's b's,
        and x*x^k moves x's a's across x^k's b's.  The factor goes on the
        left when x's largest a-exponent is below its largest b-exponent
        (b^2*a - c*b: one a crosses each term), else on the right
        (b*a^2 - c*a).  The base's largest exponents times n are checked
        against the key range first, so a huge n is refused before any work.
        """
        if n < 0:
            raise ValueError("normal forms admit non-negative powers only")
        j, m = _largest_j_m(self) if self.terms else (0, 0)
        if n > 1:
            _refuse_past_limit(j * n, m * n)
        out = self.rel.unit()
        i = max((k >> 40 for k in self.terms), default=0)
        if i and j:
            left = j < i
            for _ in range(n):
                out = self * out if left else out * self
            return out
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def _lift(self, other) -> "NormalForm":
        if isinstance(other, NormalForm):
            return other
        return self.rel.scalar_nf(other)

    # -- parameter specialization -------------------------------------------------

    def substitute(self, bindings: dict) -> "NormalForm":
        """Coefficient-wise substitution; the relation is rebound to match."""
        rel = self.rel.bind(bindings)
        return NormalForm(rel, {k: v.substitute(bindings) for k, v in self.terms.items()})

    # -- rendering ------------------------------------------------------------------

    def render(self) -> str:
        """Canonical text: terms by (i, m, j) descending, e.g. ``q*b*a + p``."""
        terms = self.terms
        return join_signed(signed_term(terms[k], _mono_text(*_ikey(k))) for k in sorted(terms, key=_ikey, reverse=True))

    def __repr__(self):
        return "NormalForm(%s)" % self.render()

    def __str__(self):
        return self.render()


def commutator(x: NormalForm, y: NormalForm) -> NormalForm:
    return x * y - y * x

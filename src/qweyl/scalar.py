"""Exact coefficient arithmetic for the normal-ordering engine.

A coefficient (``Scalar``) is a reduced quotient num/den of sparse
multivariate polynomials over the rationals in the fixed indeterminates

    p, q, A, d

where ``q`` may carry negative (Laurent) exponents, the other three may not,
and ``d`` is the ASCII spelling of the shift step delta.  ``A`` stands for
the symbolic power q^alpha, so eliminating ``q`` from an expression that
still mentions ``A`` is refused unless ``A`` is bound first.

Canonical form: gcd(num, den) is a unit, den carries no negative exponents
and is not divisible by q, and the leading coefficient of den under the
fixed graded-lex term order is +1.  Scalar equality is structural equality
of the two term maps, so equal values always compare equal.

Polynomials are dicts from a packed exponent key to an ``int`` or
``fractions.Fraction``; the dict arithmetic lives in the plain-Python
kernels of ``qweyl._kernels``.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction

from . import _kernels as _k

__all__ = [
    "Scalar",
    "ScalarError",
    "ScalarDivisionError",
    "SubstitutionError",
    "NotDivisibleError",
    "VAR_NAMES",
    "symbol",
    "zero",
    "one",
    "P",
    "Q",
    "A",
    "D",
    "qnum",
    "substitute",
    "Poly1",
]


class ScalarError(Exception):
    """Base class for coefficient-arithmetic errors."""


class ScalarDivisionError(ScalarError):
    """Division by the zero Scalar."""


class SubstitutionError(ScalarError):
    """Ill-formed substitution (bad variable, vanishing denominator, ...)."""


class NotDivisibleError(ScalarError):
    """Exact polynomial division requested where none exists."""


# ---------------------------------------------------------------------------
# packed exponent keys
#
# Four fields, most significant first: p, q, A, d.  p, A and d exponents
# (0.._EXP_LIMIT) need 19 bits; q (-_EXP_LIMIT.._EXP_LIMIT) is stored biased
# by _QOFF as 1..2^20 - 1 and needs 20.  Each field has one guard bit on top,
# clear in every key, so p, A and d take 20 bits and q takes 21 (Monagan and
# Pearce, CASC 2007).  Adding two keys and subtracting KEY_ONE multiplies the
# monomials; a field sum then never carries into the next field, and one out
# of range sets its guard bit.  A biased q below 0 borrows from p, which sets
# the q guard bit too; a biased q of exactly 0 does not, so the test also
# looks at the key minus Q_UNIT.  So one mask test per key, _mp_checked, is
# exact for every key formed by a product, a quotient or a q shift of
# in-range keys.

VAR_NAMES = ("p", "q", "A", "d")
_NVARS = 4
_FIELD_BITS = (20, 21, 20, 20)
_SHIFTS = (61, 40, 20, 0)  # the widths of the fields below each one, summed
_FIELD_MASK = (1 << min(_FIELD_BITS)) - 1  # reads any in-range field: its guard bit is clear
_KEY_BITS = _SHIFTS[0] + _FIELD_BITS[0]
_QOFF = 1 << 19
_EXP_LIMIT = (1 << 19) - 1

Q_UNIT = 1 << _SHIFTS[1]  # the key step of one power of q
KEY_ONE = _QOFF * Q_UNIT  # all exponents zero
_GUARDS = sum(1 << (s + w - 1) for s, w in zip(_SHIFTS, _FIELD_BITS))


def _pack(ep: int, eq: int, ea: int, ed: int) -> int:
    if not (0 <= ep <= _EXP_LIMIT and 0 <= ea <= _EXP_LIMIT and 0 <= ed <= _EXP_LIMIT):
        raise ScalarError("exponent out of range (p, A, d must be 0..%d)" % _EXP_LIMIT)
    if not (-_QOFF < eq <= _EXP_LIMIT):
        raise ScalarError("q exponent out of range")
    sp, sq, sa, sd = _SHIFTS
    return (ep << sp) | ((eq + _QOFF) << sq) | (ea << sa) | (ed << sd)


_RANGE_MSG = (
    "result exceeds the exponent limit: p, A and d exponents must stay in 0..%d, q exponents in -%d..%d"
    % ((_EXP_LIMIT,) * 3)
)


def _unpack(key: int) -> tuple[int, int, int, int]:
    sp, sq, sa, sd = _SHIFTS
    return (
        key >> sp,
        ((key >> sq) & _FIELD_MASK) - _QOFF,
        (key >> sa) & _FIELD_MASK,
        (key >> sd) & _FIELD_MASK,
    )


def _order_key(key: int) -> int:
    # graded-lex as one int: the total degree above the key, which itself
    # compares as lex order on (p, q, A, d) because 0 <= key < 2^_KEY_BITS
    sp, sq, sa, sd = _SHIFTS
    deg = (key >> sp) + ((key >> sq) & _FIELD_MASK) - _QOFF + ((key >> sa) & _FIELD_MASK) + ((key >> sd) & _FIELD_MASK)
    return (deg << _KEY_BITS) + key


def _mp_checked(f: dict) -> dict:
    """f itself, refused with ScalarError when a key has left the exponent range.

    Exact for keys formed from in-range keys by one product, quotient or q
    shift (see the key layout above).
    """
    for k in f:
        if (k | (k - Q_UNIT)) & _GUARDS:
            raise ScalarError(_RANGE_MSG)
    return f


# ---------------------------------------------------------------------------
# raw polynomial helpers (term-map level)

_MP_ONE = {KEY_ONE: 1}


def _mp_const(c) -> dict:
    return {KEY_ONE: c} if c else {}


def _mp_var(idx: int, exp: int = 1) -> dict:
    e = [0, 0, 0, 0]
    e[idx] = exp
    return {_pack(*e): 1}


def _mp_qclear(f: dict) -> tuple[dict, int]:
    """(f / q^v, v) for the least q exponent v of f.

    Refused with ScalarError when f's q exponents span more than the field.
    """
    lo = _mp_degrees(f, 1)[0]
    if not lo:
        return f, 0
    return _mp_checked(_mp_qshift(f, -lo)), lo


def _mp_qshift(f: dict, n: int) -> dict:
    off = n * Q_UNIT
    return {k + off: v for k, v in f.items()}


def _mp_leading(f: dict) -> int:
    return max(f, key=_order_key)


def _mp_uses(f: dict, idx: int) -> bool:
    shift = _SHIFTS[idx]
    if idx == 1:
        return any((((k >> shift) & _FIELD_MASK) - _QOFF) != 0 for k in f)
    return any(((k >> shift) & _FIELD_MASK) != 0 for k in f)


def _mp_degrees(f: dict, idx: int) -> tuple[int, int]:
    """(min, max) exponent of variable idx over the terms of f."""
    shift = _SHIFTS[idx]
    off = _QOFF if idx == 1 else 0
    exps = [((k >> shift) & _FIELD_MASK) - off for k in f]
    return min(exps), max(exps)


def _mp_mul(f: dict, g: dict) -> dict:
    """Product f*g, refused with ScalarError when a term leaves the key range.

    Over an integral domain the top (and, in q, the bottom) degree part of a
    product is the product of the operands' parts, so it never cancels: a
    term leaves the range exactly when the operands' degree ranges add up
    past it.
    """
    return _mp_checked(_k.mpoly_mul(f, g, KEY_ONE))


# Bits where a borrow out of a lower field shows after subtracting two keys.
_BORROWS = sum(1 << s for s in _SHIFTS[:-1])


def _divides(hi: int, lo: int) -> bool:
    """True when every exponent field of key ``hi`` is at least that of ``lo``."""
    d = hi - lo
    return d >= 0 and not (d ^ hi ^ lo) & _BORROWS


def _mp_divexact(f: dict, g: dict) -> dict:
    """Exact division f/g of term maps; raises NotDivisibleError.

    Sparse division driven by a max-heap of packed keys (Johnson 1974;
    Monagan and Pearce, J. Symb. Comput. 46 (2011)).  The remainder is one
    dict updated in place; the heap holds negated keys, only keys that newly
    enter the remainder are pushed, and a popped key that has left it is
    skipped.

    Leading terms are taken in plain integer order of the keys, which is lex
    order on (p, q, A, d), not the graded-lex order of ``_mp_leading``.  Both
    are monomial orders, and the quotient of an exact division, or the
    verdict that there is none, does not depend on which one drives it, so
    the cheap integer comparison is used here.  ``_mp_leading`` stays
    graded-lex because it fixes the canonical sign and scale of a
    denominator, and with them the rendered text.
    """
    if not g:
        raise ScalarDivisionError("polynomial division by zero")
    if not f:
        return {}
    kg = max(g)
    cg = g[kg]
    # an exact quotient is in range, so a quotient term that is not proves g
    # does not divide f; refusing it keeps every key the loop forms (a tail
    # key of g plus an in-range quotient key) inside its fields
    tail = [(k, -v) for k, v in g.items() if k != kg]
    r = dict(f)
    get = r.get
    heap = [-k for k in r]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    out: dict = {}
    while heap:
        kr = -pop(heap)
        cr = r.pop(kr, None)
        if cr is None:
            continue  # cancelled after it was pushed
        d = kr - kg
        kq = d + KEY_ONE
        if not _divides(kr, kg) or (kq | (kq - Q_UNIT)) & _GUARDS:  # as _mp_checked
            raise NotDivisibleError("leading term not divisible")
        if cg == 1:
            c = cr
        elif isinstance(cr, int) and isinstance(cg, int) and cr % cg == 0:
            c = cr // cg
        else:
            c = Fraction(cr) / Fraction(cg)
            if c.denominator == 1:
                c = c.numerator
        out[kq] = c
        for kt, vt in tail:
            k = kt + d
            s = get(k)
            if s is None:
                r[k] = c * vt
                push(heap, -k)
            else:
                s = s + c * vt
                if s:
                    r[k] = s
                else:
                    del r[k]
    return out


def _mp_int(f: dict) -> dict:
    """Scale to integer coefficients (the scale is irrelevant for gcd)."""
    lcm = 1
    for v in f.values():
        if isinstance(v, Fraction):
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    if lcm == 1:
        return {k: int(v) for k, v in f.items()}
    return {k: int(v * lcm) for k, v in f.items()}


def _mp_icontent(f: dict) -> int:
    g = 0
    for v in f.values():
        g = math.gcd(g, abs(v))
        if g == 1:
            return 1
    return g or 1


def _mp_monomial_gcd(f: dict, g: dict) -> dict:
    """Componentwise-min monomial common to every term of f and of g."""
    mins = [None, None, None, None]
    for poly in (f, g):
        for k in poly:
            e = _unpack(k)
            for i in range(_NVARS):
                if mins[i] is None or e[i] < mins[i]:
                    mins[i] = e[i]
    return {_pack(*mins): 1}


def _split_by_var(f: dict, idx: int) -> list[dict]:
    """Dense coefficient list of f viewed as univariate in variable idx."""
    shift = _SHIFTS[idx]
    off = _QOFF if idx == 1 else 0
    deg = max(((k >> shift) & _FIELD_MASK) - off for k in f)
    out: list[dict] = [dict() for _ in range(deg + 1)]
    for k, v in f.items():
        e = ((k >> shift) & _FIELD_MASK) - off
        out[e][k - (e << shift)] = v
    return out


def _join_by_var(coeffs: list[dict], idx: int) -> dict:
    shift = _SHIFTS[idx]
    out: dict = {}
    for e, sub in enumerate(coeffs):
        off = e << shift
        for k, v in sub.items():
            out[k + off] = v
    return out


def _list_deg(u: list[dict]) -> int:
    d = len(u) - 1
    while d >= 0 and not u[d]:
        d -= 1
    return d


def _list_content(u: list[dict]) -> dict:
    g: dict = {}
    for c in u:
        if c:
            g = _mp_gcd_int(g, c)
    return g


def _list_primitive(u: list[dict]) -> list[dict]:
    cont = _list_content(u)
    if cont == _MP_ONE or not cont:
        return u
    return [_mp_divexact(c, cont) if c else {} for c in u]


def _prem(u: list[dict], w: list[dict]) -> list[dict]:
    """Pseudo-remainder of u by w (both dense lists of term maps)."""
    du, dw = _list_deg(u), _list_deg(w)
    lw = w[dw]
    r = [dict(c) for c in u]
    while True:
        dr = _list_deg(r)
        if dr < dw:
            return [c for c in r[: dr + 1]]
        lr = r[dr]
        r = [_mp_mul(c, lw) if c else {} for c in r]
        shift = dr - dw
        for i in range(dw + 1):
            if w[i]:
                r[i + shift] = _k.mpoly_sub(r[i + shift], _mp_mul(lr, w[i]))
        r[dr] = {}


def _mp_gcd_int(f: dict, g: dict) -> dict:
    """Gcd of non-Laurent integer term maps, up to a unit.

    Primitive-part / content recursion on a dense-in-one-variable view,
    which is plenty at the degree ranges the engine produces.
    """
    if not f:
        return dict(g)
    if not g:
        return dict(f)
    if len(f) == 1 or len(g) == 1:
        m = _mp_monomial_gcd(f, g)
        c = math.gcd(_mp_icontent(f), _mp_icontent(g))
        if c != 1:
            m = {k: c for k in m}
        return m
    pvars = [i for i in range(_NVARS) if _mp_uses(f, i) or _mp_uses(g, i)]
    if not pvars:
        return _mp_const(math.gcd(_mp_icontent(f), _mp_icontent(g)))
    # pick the present variable with the smallest combined degree
    idx = min(pvars, key=lambda i: max(_mp_degrees(f, i)[1], _mp_degrees(g, i)[1]))
    uf, ug = _split_by_var(f, idx), _split_by_var(g, idx)
    cf, cg = _list_content(uf), _list_content(ug)
    cont = _mp_gcd_int(cf, cg)
    u = _list_primitive(uf)
    w = _list_primitive(ug)
    if _list_deg(u) < _list_deg(w):
        u, w = w, u
    while True:
        dw = _list_deg(w)
        if dw < 0:
            gcd_pp = u
            break
        if dw == 0:
            gcd_pp = [_MP_ONE]
            break
        r = _prem(u, w)
        u, w = w, _list_primitive([_mp_int(c) for c in r])
    gcd_pp = _list_primitive(gcd_pp)
    result = _join_by_var(gcd_pp, idx)
    if cont != _MP_ONE:
        result = _mp_mul(result, cont)
    return result


def _mp_gcd(f: dict, g: dict) -> dict:
    return _mp_gcd_int(_mp_int(f), _mp_int(g))


def _taylor(coeffs: list[dict], term: tuple[int, object], drop: int) -> list[dict]:
    """Term maps of sum_j c_j ((X + o)^j - drop*X^j) / o^drop, for drop 0 or 1.

    ``coeffs`` are the term maps of polynomial coefficients c_j and ``term``
    is the (key, coefficient) pair of the single-term offset o.  This is the
    binomial form of the Taylor shift (von zur Gathen and Gerhard, ISSAC
    1997): output j - t gains C(j, t) * o^(t - drop) * c_j, and o^s is the
    key step s*(key(o) - KEY_ONE) with coefficient c_o**s, so the sum is one
    ``axpy_shift`` per (j, t) and builds no Scalar.
    """
    ko, co = term
    top = len(coeffs) - 1 - drop
    if top > 0:
        # o^top has the largest exponents of every power used.  It is checked
        # by its exponents, because its key may overshoot a field's guard bit;
        # every key formed below is then a product of two in-range keys, which
        # _mp_checked decides exactly.
        ep, eq, ea, ed = _unpack(ko)
        if max(ep, ea, ed) * top > _EXP_LIMIT or not -_QOFF < eq * top <= _EXP_LIMIT:
            raise ScalarError(_RANGE_MSG)
    step = ko - KEY_ONE
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * co)
    out: list[dict] = [{} for _ in range(len(coeffs) - drop)]
    for j, c in enumerate(coeffs):
        if c:
            for t in range(drop, j + 1):
                s = t - drop
                _k.axpy_shift(out[j - t], c, s * step, math.comb(j, t) * powers[s])
    return [_mp_checked(f) for f in out]


def _coeff_norm(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    return v


def join_signed(terms) -> str:
    """Join (negative, magnitude text) pairs as ``-x + y - z``; "0" when empty."""
    pieces = []
    for negative, text in terms:
        if pieces:
            pieces.append(" - " if negative else " + ")
        elif negative:
            pieces.append("-")
        pieces.append(text)
    return "".join(pieces) or "0"


def signed_term(c: "Scalar", mono: str) -> tuple[bool, str]:
    """The (negative, magnitude text) pair of the term c*mono for ``join_signed``.

    An empty ``mono`` is a constant term; a coefficient of magnitude 1 is left out.
    """
    negative = c.is_negative_term()
    ct = (-c if negative else c).compact()
    if not mono:
        return negative, ct
    return negative, mono if ct == "1" else "%s*%s" % (ct, mono)


def _mp_text(f: dict) -> str:
    """Terms in descending graded-lex order: ``q^2 + q + 1``, ``-p + 1``."""
    terms = []
    for k in sorted(f, key=_order_key, reverse=True):
        v = _coeff_norm(f[k])
        neg = v < 0
        mag = -v if neg else v
        factors = []
        for name, e in zip(VAR_NAMES, _unpack(k)):
            if e == 1:
                factors.append(name)
            elif e != 0:
                factors.append("%s^%d" % (name, e))
        if not factors or mag != 1:
            try:
                factors.insert(0, str(mag))
            except ValueError:  # CPython's cap on int-to-decimal conversion
                raise ScalarError(
                    "coefficient too long to print: more than %d decimal digits" % sys.get_int_max_str_digits()
                ) from None
        terms.append((neg, "*".join(factors)))
    return join_signed(terms)


# ---------------------------------------------------------------------------
# Scalar


def _normalize(num: dict, den: dict) -> tuple[dict, dict]:
    if not den:
        raise ScalarDivisionError("zero denominator")
    if not num:
        return {}, dict(_MP_ONE)
    num, vn = _mp_qclear(num)
    den, vd = _mp_qclear(den)
    qnet = vn - vd
    if len(den) == 1 and next(iter(den)) == KEY_ONE:
        pass  # constant denominator: unit scaling below is all that is needed
    elif len(num) == 1 or len(den) == 1:
        # m is the componentwise minimum, so shifting by it divides exactly
        m = next(iter(_mp_monomial_gcd(num, den))) - KEY_ONE
        if m:
            num = {k - m: v for k, v in num.items()}
            den = {k - m: v for k, v in den.items()}
    else:
        g = _mp_gcd(num, den)
        if len(g) > 1 or next(iter(g)) != KEY_ONE:
            num = _mp_divexact(num, g)
            den = _mp_divexact(den, g)
    if qnet:
        num = _mp_checked(_mp_qshift(num, qnet))
    c = den[_mp_leading(den)]
    if c != 1:
        inv = Fraction(1, 1) / Fraction(c)
        num = {k: _coeff_norm(v * inv) for k, v in num.items()}
        den = {k: _coeff_norm(v * inv) for k, v in den.items()}
    return num, den


class Scalar:
    """A reduced quotient of sparse polynomials in p, q, A, d over Q."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict | None = None, *, _normalized: bool = False):
        if den is None:
            den = dict(_MP_ONE)
        if _normalized:
            self.num, self.den = num, den
        else:
            self.num, self.den = _normalize(num, den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def of(value) -> "Scalar":
        """Coerce an int, Fraction or Scalar."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int):
            return Scalar(_mp_const(value), None, _normalized=True)
        if isinstance(value, Fraction):
            return Scalar(_mp_const(_coeff_norm(value)), None, _normalized=True)
        raise ScalarError("cannot coerce %r to Scalar" % (value,))

    @staticmethod
    def variable(name: str, exp: int = 1) -> "Scalar":
        idx = VAR_NAMES.index(name)
        if exp < 0 and idx != 1:
            raise ScalarError("only q admits negative exponents")
        return Scalar(_mp_var(idx, exp), None, _normalized=True)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        return (not self.num or set(self.num) == {KEY_ONE}) and self.den == _MP_ONE

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ScalarError("not a constant: %s" % self)
        if not self.num:
            return Fraction(0)
        return Fraction(self.num[KEY_ONE])

    def uses(self, name: str) -> bool:
        idx = VAR_NAMES.index(name)
        return _mp_uses(self.num, idx) or _mp_uses(self.den, idx)

    def numerator_divisible_by(self, probe: "Scalar") -> bool:
        """Exact-division test of the numerator by a polynomial probe."""
        if probe.den != _MP_ONE or not probe.num:
            raise ScalarError("probe must be a nonzero polynomial")
        if not self.num:
            return True
        # clear Laurent q powers on both sides; q-units never block divisibility
        num = _mp_qclear(self.num)[0]
        div = _mp_qclear(probe.num)[0]
        try:
            _mp_divexact(num, div)
            return True
        except NotDivisibleError:
            return False

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.of(other)
        return None

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == _MP_ONE and other.den == _MP_ONE:
            return Scalar(_k.mpoly_add(self.num, other.num), None, _normalized=True)
        n = _k.mpoly_add(
            _mp_mul(self.num, other.den),
            _mp_mul(other.num, self.den),
        )
        return Scalar(n, _mp_mul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == _MP_ONE and other.den == _MP_ONE:
            return Scalar(_k.mpoly_sub(self.num, other.num), None, _normalized=True)
        n = _k.mpoly_sub(
            _mp_mul(self.num, other.den),
            _mp_mul(other.num, self.den),
        )
        return Scalar(n, _mp_mul(self.den, other.den))

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __neg__(self):
        return Scalar(_k.mpoly_neg(self.num), dict(self.den), _normalized=True)

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == _MP_ONE and other.den == _MP_ONE:
            return Scalar(_mp_mul(self.num, other.num), None, _normalized=True)
        return Scalar(
            _mp_mul(self.num, other.num),
            _mp_mul(self.den, other.den),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ScalarDivisionError("division by zero Scalar")
        return Scalar(
            _mp_mul(self.num, other.den),
            _mp_mul(self.den, other.num),
        )

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, n: int):
        if n == 0:
            return one
        if n < 0:
            return (one / self) ** (-n)
        base, out = self, None
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(
            (frozenset((k, _coeff_norm(v)) for k, v in self.num.items()),
             frozenset((k, _coeff_norm(v)) for k, v in self.den.items()))
        )

    # -- substitution --------------------------------------------------------

    def substitute(self, bindings: dict) -> "Scalar":
        return substitute(self, bindings)

    def rename_variable(self, src: str, dst: str) -> "Scalar":
        """Rename variable src to dst; dst must be absent from the value.

        Renaming q is a binding of q, so it is refused while A is present.
        """
        if src == dst:
            return self
        if self.uses(dst):
            raise SubstitutionError("target variable %s already present" % dst)
        return substitute(self, {src: Scalar.variable(dst)})

    # -- rendering -----------------------------------------------------------

    def canonical(self) -> str:
        """Cross-check text form, always ``(num)/(den)``."""
        return "(%s)/(%s)" % (_mp_text(self.num), _mp_text(self.den))

    def compact(self) -> str:
        """Short form for use inside larger expressions."""
        if self.den != _MP_ONE:
            return "(%s)/(%s)" % (_mp_text(self.num), _mp_text(self.den))
        if len(self.num) > 1:
            return "(%s)" % _mp_text(self.num)
        return _mp_text(self.num)

    def is_single_term(self) -> bool:
        return self.den == _MP_ONE and len(self.num) <= 1

    def is_negative_term(self) -> bool:
        """True for a single-term value with negative coefficient."""
        if not self.is_single_term() or not self.num:
            return False
        return next(iter(self.num.values())) < 0

    def __repr__(self):
        return "Scalar(%s)" % self.canonical()

    def __str__(self):
        return self.compact()


zero = Scalar.of(0)
one = Scalar.of(1)


def symbol(name: str) -> Scalar:
    return Scalar.variable(name)


P = symbol("p")
Q = symbol("q")
A = symbol("A")
D = symbol("d")


def qnum(n: int) -> Scalar:
    """The q-number {n} = 1 + q + ... + q^(n-1), built as the explicit sum."""
    if n < 0:
        raise ScalarError("qnum expects n >= 0")
    if n - 1 > _EXP_LIMIT:
        raise ScalarError("q exponent out of range")
    return Scalar({KEY_ONE + e * Q_UNIT: 1 for e in range(n)}, None, _normalized=True)


def _eval_map(f: dict, values: list["Scalar"], pow_cache: dict) -> Scalar:
    total = zero
    for k, v in f.items():
        term = Scalar.of(v)
        exps = _unpack(k)
        for i in range(_NVARS):
            e = exps[i]
            if e:
                ck = (i, e)
                pw = pow_cache.get(ck)
                if pw is None:
                    pw = values[i] ** e
                    pow_cache[ck] = pw
                term = term * pw
        total = total + term
    return total


def substitute(x: Scalar, bindings: dict) -> Scalar:
    """Substitute variables by rationals or Scalars, then renormalize.

    The binding for A (if any) is applied first because A abbreviates a power
    of q; binding q while A is still present (and unbound) is refused.
    """
    clean: dict[str, Scalar] = {}
    for name, value in bindings.items():
        if name not in VAR_NAMES:
            raise SubstitutionError("unknown variable %r" % name)
        clean[name] = Scalar.of(value)
    if not clean:
        return x
    if "q" in clean and "A" not in clean and x.uses("A"):
        raise SubstitutionError("bind A before (or together with) q: A depends on q")

    cur = x
    if "A" in clean:
        cur = _subst_once(cur, {"A": clean.pop("A")})
    if clean:
        cur = _subst_once(cur, clean)
    return cur


def _subst_once(x: Scalar, bindings: dict[str, Scalar]) -> Scalar:
    values = [Scalar.variable(n) for n in VAR_NAMES]
    for name, val in bindings.items():
        values[VAR_NAMES.index(name)] = val
    cache: dict = {}
    try:
        num = _eval_map(x.num, values, cache)
        den = _eval_map(x.den, values, cache)
        if den.is_zero():
            raise ScalarDivisionError
        return num / den
    except ScalarDivisionError:
        raise SubstitutionError("substitution makes the denominator vanish") from None


# ---------------------------------------------------------------------------
# dense univariate polynomials over Scalar (used for N-polynomials, for the
# representation module's polynomial space, and for Lemma-style expansions)


class Poly1:
    """Dense univariate polynomial with Scalar coefficients."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs, var: str = "N"):
        cs = [Scalar.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = cs
        self.var = var

    @staticmethod
    def const(c, var: str = "N") -> "Poly1":
        return Poly1([Scalar.of(c)], var)

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly1) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1(
            [self[i] + other[i] for i in range(n)],
            self.var,
        )

    def __sub__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly1([self[i] - other[i] for i in range(n)], self.var)

    def __neg__(self):
        return Poly1([-c for c in self.coeffs], self.var)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c = Scalar.of(other)
            return Poly1([ci * c for ci in self.coeffs], self.var)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly1(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("polynomials admit non-negative powers only")
        out = Poly1.const(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __getitem__(self, i: int) -> Scalar:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else zero

    def _lift(self, other) -> "Poly1":
        if isinstance(other, Poly1):
            return other
        return Poly1.const(other, self.var)

    def evaluate(self, value):
        """Horner evaluation; value may be a Scalar or anything with +, *."""
        if not self.coeffs:
            return zero if isinstance(value, Scalar) else 0 * value
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * value + c
        return acc

    def compose_affine(self, scale: Scalar, offset: Scalar) -> "Poly1":
        """f(scale*X + offset): a Taylor shift, then the scaling.

        A nonzero single-term offset over coefficients with denominator 1
        shifts by one binomial sum on term maps (``_taylor``).  Any other
        offset or coefficient takes the classic in-place scheme: n(n-1)/2
        Scalar products and no intermediate polynomial (von zur Gathen and
        Gerhard, "Fast algorithms for Taylor shifts and certain difference
        equations", ISSAC 1997).  Coefficient k is then multiplied by
        scale**k, since f(scale*X + offset) = g(scale*X) for g = f(X + offset).
        """
        scale, offset = Scalar.of(scale), Scalar.of(offset)
        c = self._taylor_coeffs(offset, 0)
        n = len(self.coeffs)
        if c is None:
            c = list(self.coeffs)
            if offset:
                for i in range(n - 1):
                    for j in range(n - 2, i - 1, -1):
                        c[j] = c[j] + offset * c[j + 1]
        if scale != one:
            power = one
            for k in range(1, n):
                power = power * scale
                c[k] = c[k] * power
        return Poly1(c, self.var)

    def difference(self, step) -> "Poly1":
        """(f(X + step) - f(X)) / step, the difference quotient of f.

        A nonzero single-term step over coefficients with denominator 1 is
        one binomial sum on term maps (``_taylor`` without its t = 0 terms),
        so neither the shift nor the division forms a Scalar quotient.  Any
        other step shifts with ``compose_affine`` and divides; a zero step
        raises ScalarDivisionError.
        """
        step = Scalar.of(step)
        c = self._taylor_coeffs(step, 1)
        if c is None:
            return (self.compose_affine(one, step) - self) * (one / step)
        return Poly1(c, self.var)

    def _taylor_coeffs(self, offset: Scalar, drop: int):
        """The coefficients of ``_taylor`` over this polynomial; None where it does not apply."""
        if len(offset.num) != 1 or offset.den != _MP_ONE or any(c.den != _MP_ONE for c in self.coeffs):
            return None
        [term] = offset.num.items()
        return [Scalar(f, None, _normalized=True) for f in _taylor([c.num for c in self.coeffs], term, drop)]

    def map_coeffs(self, fn) -> "Poly1":
        return Poly1([fn(c) for c in self.coeffs], self.var)

    def text(self) -> str:
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c:
                mono = "" if e == 0 else self.var if e == 1 else "%s^%d" % (self.var, e)
                terms.append(signed_term(c, mono))
        return join_signed(terms)

    def __repr__(self):
        return "Poly1(%s)" % self.text()

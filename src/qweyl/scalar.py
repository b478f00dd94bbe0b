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
kernels of ``qweyl._kernels``.  A key has six fields: the four variables
above, X on top of them and Y below them.  Both are internal, never parsed
and never rendered.  X is the variable of a ``Poly1``: a ``Poly1`` is one
Scalar in p, q, A, d and X whose denominator is free of X, and no Scalar
outside ``Poly1`` ever carries it.  Y tags basis vectors: a representation
check applies its operators once to ``Poly1.basis_sum``, the sum of
Y^k x^k over 0 <= k <= K, and ``Poly1.basis_images`` splits the result by
the power of Y into X-polynomials free of Y.
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
# Six fields, most significant first: X, p, q, A, d, Y.  p, A and d exponents
# (0.._EXP_LIMIT) need 19 bits; q (-_EXP_LIMIT.._EXP_LIMIT) is stored biased
# by _QOFF as 1..2^20 - 1 and needs 20; X, the degree in a Poly1's variable,
# and Y, the index of a basis vector (both 0.._X_LIMIT), need 20, as many as
# the N field of a PBW key.  Each field has one guard bit on top, clear in
# every key, so p, A and d take 20 bits and q, X and Y take 21 (Monagan and
# Pearce, CASC 2007).  X sits above p, so the degree of a key is its top
# bits; Y sits below d, so keys without Y keep their order.  Adding two keys
# and subtracting KEY_ONE multiplies the monomials; a field sum then never
# carries into the next field, and one out of range sets its guard bit.  A
# biased q below 0 borrows from the field above, which sets the q guard bit
# too; a biased q of exactly 0 does not, so the test also looks at the key
# minus Q_UNIT.  So one mask test per key, _mp_checked, is exact for every
# key formed by a product, a quotient or a q shift of in-range keys.

VAR_NAMES = ("p", "q", "A", "d")
_NVARS = 6  # VAR_NAMES, then X and Y
_X = 4  # the index of X's field
_Y = 5  # the index of Y's field
_FIELD_BITS = (20, 21, 20, 20, 21, 21)
_SHIFTS = (82, 61, 41, 21, 102, 0)  # the widths of the fields below each one, summed
_FIELD_MASK = (1 << min(_FIELD_BITS)) - 1  # reads any in-range field: its guard bit is clear
_KEY_BITS = _SHIFTS[_X] + _FIELD_BITS[_X]
_QOFF = 1 << 19
_EXP_LIMIT = (1 << 19) - 1
_X_LIMIT = (1 << 20) - 1  # the limit of X and of Y

Q_UNIT = 1 << _SHIFTS[1]  # the key step of one power of q
X_UNIT = 1 << _SHIFTS[_X]  # the key step of one power of X
Y_UNIT = 1 << _SHIFTS[_Y]  # the key step of one power of Y
KEY_ONE = _QOFF * Q_UNIT  # all exponents zero
_GUARDS = sum(1 << (s + w - 1) for s, w in zip(_SHIFTS, _FIELD_BITS))
_X_GUARD = X_UNIT << (_FIELD_BITS[_X] - 1)
_Y_GUARD = Y_UNIT << (_FIELD_BITS[_Y] - 1)


def _pack(ep: int, eq: int, ea: int, ed: int, ex: int = 0, ey: int = 0) -> int:
    if not (0 <= ep <= _EXP_LIMIT and 0 <= ea <= _EXP_LIMIT and 0 <= ed <= _EXP_LIMIT):
        raise ScalarError("exponent out of range (p, A, d must be 0..%d)" % _EXP_LIMIT)
    if not (-_QOFF < eq <= _EXP_LIMIT):
        raise ScalarError("q exponent out of range")
    if not 0 <= ex <= _X_LIMIT:
        raise ScalarError(_DEGREE_MSG)
    if not 0 <= ey <= _X_LIMIT:
        raise ScalarError(_BASIS_MSG)
    sp, sq, sa, sd, sx, sy = _SHIFTS
    return (ex << sx) | (ep << sp) | ((eq + _QOFF) << sq) | (ea << sa) | (ed << sd) | (ey << sy)


_RANGE_MSG = (
    "result exceeds the exponent limit: p, A and d exponents must stay in 0..%d, q exponents in -%d..%d"
    % ((_EXP_LIMIT,) * 3)
)
_DEGREE_MSG = "result exceeds the polynomial degree limit: degrees must stay in 0..%d" % _X_LIMIT
_BASIS_MSG = "basis too large: a representation check covers x^0..x^K for K in 0..%d" % _X_LIMIT


def _unpack(key: int) -> tuple[int, int, int, int, int, int]:
    """The exponents of p, q, A, d, X and Y, in the order of VAR_NAMES."""
    sp, sq, sa, sd, sx, sy = _SHIFTS
    return (
        (key >> sp) & _FIELD_MASK,
        ((key >> sq) & _FIELD_MASK) - _QOFF,
        (key >> sa) & _FIELD_MASK,
        (key >> sd) & _FIELD_MASK,
        key >> sx,
        (key >> sy) & _FIELD_MASK,
    )


def _order_key(key: int) -> int:
    # graded-lex as one int: the total degree above the key, which itself
    # compares as lex order on (X, p, q, A, d, Y) because 0 <= key < 2^_KEY_BITS
    sp, sq, sa, sd, sx, sy = _SHIFTS
    m = _FIELD_MASK
    deg = (key >> sx) + ((key >> sp) & m) + ((key >> sq) & m) - _QOFF + ((key >> sa) & m) + ((key >> sd) & m)
    deg += (key >> sy) & m
    return (deg << _KEY_BITS) + key


def _mp_checked(f: dict) -> dict:
    """f itself, refused with ScalarError when a key has left the exponent range.

    Exact for keys formed from in-range keys by one product, quotient or q
    shift (see the key layout above).
    """
    for k in f:
        if (k | (k - Q_UNIT)) & _GUARDS:
            raise ScalarError(_DEGREE_MSG if k >= _X_GUARD else _BASIS_MSG if k & _Y_GUARD else _RANGE_MSG)
    return f


# ---------------------------------------------------------------------------
# raw polynomial helpers (term-map level)

_MP_ONE = {KEY_ONE: 1}


def _mp_const(c) -> dict:
    return {KEY_ONE: c} if c else {}


def _mp_var(idx: int, exp: int = 1) -> dict:
    e = [0] * _NVARS
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
_BORROWS = sum(1 << s for s in _SHIFTS if s)


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
    order on (X, p, q, A, d, Y), not the graded-lex order of ``_mp_leading``.  Both
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


def _linear_root(f: dict) -> tuple[int, int | Fraction] | None:
    """(idx, -beta/alpha) when f is alpha*v + beta for v = VAR_NAMES[idx] and
    rational alpha != 0 and beta; None for any other term map."""
    beta = f.get(KEY_ONE, 0)
    if len(f) != 1 + bool(beta):
        return None
    for idx in range(len(VAR_NAMES)):
        alpha = f.get(KEY_ONE + (1 << _SHIFTS[idx]))
        if alpha is not None:
            return idx, _coeff_norm(-Fraction(beta) / alpha)
    return None


def _mp_vanishes_at(f: dict, idx: int, root) -> bool:
    """True when f is zero at variable idx = root, for a rational root.

    Clears the variable's field from each key, weights each coefficient by
    root^e for the term's exponent e of the variable, and sums per remaining
    key.  A biased q field is read as its exponent, so f must carry no
    negative power of q when idx is q's field.
    """
    shift = _SHIFTS[idx]
    field = _FIELD_MASK << shift
    off = KEY_ONE & field  # q's bias, or 0
    sums: dict = {}
    get = sums.get
    if root == 1:
        keep = ~field
        for k, c in f.items():
            rest = k & keep
            sums[rest] = get(rest, 0) + c
    else:
        powers: dict = {}
        for k, c in f.items():
            kf = k & field
            w = powers.get(kf)
            if w is None:
                w = powers[kf] = root ** ((kf - off) >> shift)
            rest = k ^ kf
            sums[rest] = get(rest, 0) + c * w
    return not any(sums.values())


def _den_lcm(f: dict) -> int:
    return math.lcm(*(v.denominator for v in f.values() if isinstance(v, Fraction)))


def _mp_int(f: dict, lcm: int = 0) -> dict:
    """f times ``lcm``, or times the lcm of its own denominators: integer coefficients."""
    lcm = lcm or _den_lcm(f)
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
    mins = [None] * _NVARS
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
    """Pseudo-remainder of u by w.

    Both are dense lists of term maps with a nonzero last entry, so a list's
    degree is its length minus one; the result is trimmed the same way.
    """
    dw = len(w) - 1
    lw = w[dw]
    r = list(u)
    while len(r) > dw:
        # r * lw - lr * x^shift * w cancels the top entry, which is dropped
        lr = r.pop()
        if lw != _MP_ONE:
            r = [_mp_mul(c, lw) if c else {} for c in r]
        shift = len(r) - dw
        for i in range(dw):
            if w[i]:
                r[i + shift] = _k.mpoly_sub(r[i + shift], _mp_mul(lr, w[i]))
        while r and not r[-1]:
            r.pop()
    return r


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
    uf, ug = _mp_used(f), _mp_used(g)
    pvars = [i for i, s in enumerate(_SHIFTS) if ((uf | ug) >> s) & _FIELD_MASK]
    if not pvars:
        return _mp_const(math.gcd(_mp_icontent(f), _mp_icontent(g)))
    for i in pvars:
        s = _SHIFTS[i]
        if not (uf >> s) & _FIELD_MASK or not (ug >> s) & _FIELD_MASK:
            # a variable only g uses (after the swap): the gcd is free of it,
            # so it is the gcd of f and g's coefficients in it.  A Poly1's
            # numerator against its X-free denominator takes this path.
            if (uf >> s) & _FIELD_MASK:
                f, g = g, f
            for c in _split_by_var(g, i):
                if c:
                    f = _mp_gcd_int(f, c)
            return f
    # pick the present variable with the smallest combined degree
    idx = min(pvars, key=lambda i: max(_mp_degrees(f, i)[1], _mp_degrees(g, i)[1]))
    lf, lg = _split_by_var(f, idx), _split_by_var(g, idx)
    cont = _mp_gcd_int(_list_content(lf), _list_content(lg))
    u = _list_primitive(lf)
    w = _list_primitive(lg)
    if len(u) < len(w):
        u, w = w, u
    # every list ends in a nonzero entry: its degree is its length minus one
    while len(w) > 1:
        u, w = w, _list_primitive([_mp_int(c) for c in _prem(u, w)])
    gcd_pp = [_MP_ONE] if w else _list_primitive(u)
    result = _join_by_var(gcd_pp, idx)
    if cont != _MP_ONE:
        result = _mp_mul(result, cont)
    return result


# The largest evaluated operand, in bits.  CPython's int gcd is quadratic; on
# two 2^20-bit ints it takes about a second, while the PRS fallback on inputs
# in several variables with 100-bit coefficients can take minutes.
_HEU_BITS = 1 << 20
_HEU_TRIES = 6  # evaluation points per variable before the heuristic gives up


def _mp_gcd(f: dict, g: dict) -> tuple[dict, dict, dict]:
    """(h, a, b): h = gcd(f, g) up to a unit, and a/b = f/g with a = c*f/h, b = c*g/h.

    f and g are non-Laurent; c is one nonzero rational, the lcm that scales
    both to integer coefficients.  The heuristic gcd of Char, Geddes and
    Gonnet (J. Symb. Comput. 7 (1989) 31; analysed by Liao and Fateman,
    ISSAC 1995) runs first, ``_heu_gcd``: one integer gcd of the operands
    evaluated at powers of two, and the exact divisions that accept its
    candidate are the cofactors.  The primitive PRS gcd ``_mp_gcd_int`` is
    the fallback, when an evaluated operand would pass ``_HEU_BITS`` bits or
    ``_HEU_TRIES`` points fail for one variable.
    """
    lcm = math.lcm(_den_lcm(f), _den_lcm(g))
    f, g = _mp_int(f, lcm), _mp_int(g, lcm)
    uf, ug = _mp_used(f), _mp_used(g)
    fields = [
        (s, _QOFF if i == 1 else 0) for i, s in enumerate(_SHIFTS) if (uf >> s) & _FIELD_MASK and (ug >> s) & _FIELD_MASK
    ]
    found = _heu_gcd(f, g, fields)
    if found is not None:
        return found
    h = _mp_gcd_int(f, g)
    if h == _MP_ONE:
        return h, f, g
    return h, _mp_divexact(f, h), _mp_divexact(g, h)


def _mp_used(f: dict) -> int:
    """The key bits in which some term of f differs from the constant term."""
    used = 0
    for k in f:
        used |= k ^ KEY_ONE
    return used


def _heu_gcd(f: dict, g: dict, fields: list) -> tuple[dict, dict, dict] | None:
    """(h, f/h, g/h) for h = gcd(f, g), content included; None when it gives up.

    f and g are nonzero integer term maps.  ``fields`` lists the (shift, q
    offset) of each variable that both may use; every other variable is
    used by one of them at most, so the gcd is free of it, and with no
    field left the gcd is the gcd of the integer contents.  Otherwise the
    first variable is set to xi = 2^B in the primitive parts, the gcd of the
    two images comes from the remaining fields, and its symmetric xi-adic
    digits, made primitive, are the candidate.  A candidate that divides
    both is their gcd when xi >= 2*min(|f|, |g|) + 2 (the theorem of Char,
    Geddes and Gonnet), so acceptance by exact division never returns a
    wrong gcd.  xi is taken from the larger norm instead: an earlier field
    set to a power of two can leave a large power of two in the
    coefficients of one image only, and a smaller xi reads it as a power of
    this variable.
    """
    cf, cg = _mp_icontent(f), _mp_icontent(g)
    c = math.gcd(cf, cg)
    if not fields:
        return {KEY_ONE: c}, _mp_iquo(f, c), _mp_iquo(g, c)
    f, g = _mp_iquo(f, cf), _mp_iquo(g, cg)
    shift, off = fields[0]
    top = max(((k >> shift) & _FIELD_MASK) - off for k in (*f, *g))
    norm = max(map(abs, (*f.values(), *g.values())))
    bits = -(-(2 * norm + 2).bit_length() // 8) * 8  # whole bytes, for _heu_digits
    for _ in range(_HEU_TRIES):
        if top * bits + norm.bit_length() > _HEU_BITS:
            return None
        found = _heu_gcd(_heu_eval(f, shift, off, bits), _heu_eval(g, shift, off, bits), fields[1:])
        if found is None:
            return None
        h = _heu_digits(found[0], shift, bits)
        if len(h) == 1 and KEY_ONE in h:
            return {KEY_ONE: c}, _mp_iscale(f, cf // c), _mp_iscale(g, cg // c)
        try:
            a, b = _mp_divexact(f, h), _mp_divexact(g, h)
        except NotDivisibleError:
            pass
        else:
            return _mp_iscale(h, c), _mp_iscale(a, cf // c), _mp_iscale(b, cg // c)
        bits += 8 * (1 + bits // 32)
    return None


def _heu_eval(f: dict, shift: int, off: int, bits: int) -> dict:
    """f with the variable at ``shift`` set to 2^bits, its field cleared in every key."""
    out: dict = {}
    get = out.get
    for k, v in f.items():
        e = ((k >> shift) & _FIELD_MASK) - off
        k -= e << shift
        out[k] = get(k, 0) + (v << e * bits)
    return out


def _heu_digits(h: dict, shift: int, bits: int) -> dict:
    """The primitive part of the polynomial in the variable at ``shift`` whose
    coefficients are the symmetric 2^bits-adic digits of h's.

    Adding the number whose every digit is 2^(bits-1) makes each digit
    non-negative, so ``int.to_bytes`` reads them all at once.
    """
    width = bits >> 3
    half = 1 << (bits - 1)
    n = max(v.bit_length() for v in h.values()) // bits + 2
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    out = {}
    for k, v in h.items():
        digits = (v + bias).to_bytes(n * width, "little")
        for j in range(n):
            d = int.from_bytes(digits[j * width : (j + 1) * width], "little") - half
            if d:
                out[k + (j << shift)] = d
    return _mp_iquo(out, _mp_icontent(out))


def _mp_iquo(f: dict, c: int) -> dict:
    return f if c == 1 else {k: v // c for k, v in f.items()}


def _mp_iscale(f: dict, c: int) -> dict:
    return f if c == 1 else {k: v * c for k, v in f.items()}


def _taylor(num: dict, term: tuple[int, object], drop: int) -> dict:
    """Term map of (f(X + o) - drop*f(X)) / o^drop, for drop 0 or 1.

    ``num`` is the term map of a polynomial f = sum_j c_j X^j, X the top key
    field, and ``term`` is the (key, coefficient) pair of the X-free
    single-term offset o.  This is the binomial form of the Taylor shift (von
    zur Gathen and Gerhard, ISSAC 1997): X^(j - t) gains C(j, t) *
    o^(t - drop) * c_j, and o^s is the key step s*(key(o) - KEY_ONE) with
    coefficient c_o**s, so the sum is one ``axpy_shift`` per (j, t) into one
    term map and builds no Scalar.
    """
    if not num:
        return {}
    ko, co = term
    coeffs = _split_by_var(num, _X)
    top = len(coeffs) - 1 - drop
    if top > 0:
        # o^top has the largest exponents of every power used.  It is checked
        # by its exponents, because its key may overshoot a field's guard bit;
        # every key formed below is then a product of two in-range keys, which
        # _mp_checked decides exactly.
        ep, eq, ea, ed, _ex, _ey = _unpack(ko)
        if max(ep, ea, ed) * top > _EXP_LIMIT or not -_QOFF < eq * top <= _EXP_LIMIT:
            raise ScalarError(_RANGE_MSG)
    step = ko - KEY_ONE
    powers = [1]
    for _ in range(top):
        powers.append(powers[-1] * co)
    out: dict = {}
    for j, c in enumerate(coeffs):
        if c:
            for t in range(drop, j + 1):
                s = t - drop
                _k.axpy_shift(out, c, s * step + (j - t) * X_UNIT, math.comb(j, t) * powers[s])
    return _mp_checked(out)


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
    """The canonical (num, den) of the quotient num/den.

    Laurent powers of q move to the numerator; against a single term the
    common monomial cancels by a shift, and otherwise ``_mp_gcd``, whose
    cofactors are the reduced pair: the heuristic gcd of Char, Geddes and
    Gonnet (1989, analysed by Liao and Fateman, 1995), or, for operands that
    would evaluate past 2^20 bits or after failed points, the primitive PRS
    gcd.  Dividing both by den's leading coefficient then fixes sign and
    scale, so the result does not depend on which gcd ran.
    """
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
        _, num, den = _mp_gcd(num, den)
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
        used = _mp_used(self.num) | _mp_used(self.den)
        return bool((used >> _SHIFTS[VAR_NAMES.index(name)]) & _FIELD_MASK)

    def numerator_divisible_by(self, probe: "Scalar") -> bool:
        """Exact-division test of the numerator by a polynomial probe.

        Laurent q powers are cleared from both sides first, since q-units
        never block divisibility.  A probe alpha*v + beta, linear in one
        variable v of VAR_NAMES with rational alpha != 0 and beta, is decided
        by the factor theorem: it divides the numerator exactly when the
        numerator vanishes at v = -beta/alpha, which one pass over its terms
        decides (``_mp_vanishes_at``).  Every other probe goes through the
        exact division ``_mp_divexact``.
        """
        if probe.den != _MP_ONE or not probe.num:
            raise ScalarError("probe must be a nonzero polynomial")
        if not self.num:
            return True
        div = _mp_qclear(probe.num)[0]
        linear = _linear_root(div)
        if linear is not None:
            idx, root = linear
            # clearing leaves no negative power of a root in q, so each weight is exact
            num = _mp_qclear(self.num)[0] if idx == 1 else self.num
            return _mp_vanishes_at(num, idx, root)
        num = _mp_qclear(self.num)[0]
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
        if not other.num:
            return self
        if not self.num:
            return other
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
        if not other.num:
            return self
        if not self.num:
            return -other
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
        if self is one:
            return other
        if other is one:
            return self
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
        # hash(Fraction(n, 1)) == hash(n), so a coefficient stored either way hashes alike
        return hash((frozenset(self.num.items()), frozenset(self.den.items())))

    # -- substitution --------------------------------------------------------

    def substitute(self, bindings: dict) -> "Scalar":
        return substitute(self, bindings)

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


P = Scalar.variable("p")
Q = Scalar.variable("q")
A = Scalar.variable("A")
D = Scalar.variable("d")


def qnum(n: int) -> Scalar:
    """The q-number {n} = 1 + q + ... + q^(n-1), built as the explicit sum."""
    if n < 0:
        raise ScalarError("qnum expects n >= 0")
    if n - 1 > _EXP_LIMIT:
        raise ScalarError("q exponent out of range")
    return Scalar({KEY_ONE + e * Q_UNIT: 1 for e in range(n)}, None, _normalized=True)


def common_ratio(xs: dict, ys: dict):
    """The Scalar c with xs[k] = c * ys[k] for every key, or None.

    Both maps hold nonzero Scalars.  None when their keys differ, when two
    ratios differ, or when ys is empty.
    """
    if not ys or xs.keys() != ys.keys():
        return None
    c = None
    for key, y in ys.items():
        ratio = xs[key] / y
        if c is None:
            c = ratio
        elif c != ratio:
            return None
    return c


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
# univariate polynomials over Scalar (used for N-polynomials, for the
# representation module's polynomial space, and for Lemma-style expansions)

def _times_x(c: Scalar, e: int) -> Scalar:
    """c * X^e for an X-free c, reduced because c is."""
    if not 0 <= e <= _X_LIMIT:
        raise ScalarError(_DEGREE_MSG)
    return Scalar({k + e * X_UNIT: v for k, v in c.num.items()}, c.den, _normalized=True)


class Poly1:
    """Univariate polynomial in ``var`` with Scalar coefficients.

    Stored as one Scalar, ``value``, in p, q, A, d and the key field X, which
    stands for ``var``.  Invariant: the denominator of ``value`` is free of
    X, so all coefficients share it, and Scalar's canonical form is also the
    polynomial's; equality, hashing and the arithmetic are Scalar's.  X never
    leaves this class: ``coeffs``, ``[i]`` and ``terms`` split the numerator
    by its X field on demand and hand out reduced X-free Scalars.  The key
    field Y enters only through ``basis_sum`` and leaves through
    ``basis_images``.
    """

    __slots__ = ("value", "var")

    def __init__(self, coeffs, var: str = "N"):
        # coefficients over one denominator are joined as they are; any other
        # is added as a Scalar, which brings the sum over a common denominator
        num, den, rest = {}, None, []
        for e, c in enumerate(coeffs):
            c = Scalar.of(c)
            if c:
                term = _times_x(c, e)
                if den is None or term.den == den:
                    den = term.den
                    num.update(term.num)
                else:
                    rest.append(term)
        value = Scalar(num, den, _normalized=True)
        for x in rest:
            value = value + x
        self.value = value
        self.var = var

    @staticmethod
    def _of(value: Scalar, var: str) -> "Poly1":
        f = Poly1.__new__(Poly1)
        f.value = value
        f.var = var
        return f

    @staticmethod
    def monomial(c, k: int, var: str = "N") -> "Poly1":
        """c * var^k."""
        return Poly1._of(_times_x(Scalar.of(c), k), var)

    @staticmethod
    def basis_sum(K: int, var: str) -> "Poly1":
        """G = Y^0 var^0 + Y^1 var^1 + ... + Y^K var^K, Y the internal basis field.

        A linear operator maps G to the sum of Y^k times its image of var^k,
        which ``basis_images`` splits off.  K past Y's field is refused
        before any term is built.
        """
        if not 0 <= K <= _X_LIMIT:
            raise ScalarError(_BASIS_MSG)
        step = X_UNIT + Y_UNIT
        return Poly1._of(Scalar({KEY_ONE + k * step: 1 for k in range(K + 1)}, None, _normalized=True), var)

    def basis_images(self, K: int) -> list["Poly1"]:
        """The coefficients of Y^0 .. Y^K, each a Y-free polynomial over this one's denominator.

        For the image of ``basis_sum(K)`` under a linear operator, entry k
        is the operator's image of var^k.  A term with Y past K shows that
        the operator was not linear and raises ValueError.
        """
        parts: list[dict] = [{} for _ in range(K + 1)]
        for k, v in self.value.num.items():
            e = k & _FIELD_MASK  # Y is the bottom field
            if e > K:
                raise ValueError("operator is not linear: its image of the basis sum carries Y^%d, past K = %d" % (e, K))
            parts[e][k - e] = v
        return [Poly1._of(self._over_den(part), self.var) for part in parts]

    def degree(self):
        # X is the top field, so the largest key has the largest degree
        return max(self.value.num) >> _SHIFTS[_X] if self.value.num else float("-inf")

    def is_zero(self) -> bool:
        return not self.value.num

    def __bool__(self):
        return bool(self.value.num)

    def __eq__(self, other):
        return isinstance(other, Poly1) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __add__(self, other):
        return Poly1._of(self.value + self._lift(other).value, self.var)

    def __sub__(self, other):
        return Poly1._of(self.value - self._lift(other).value, self.var)

    def __neg__(self):
        return Poly1._of(-self.value, self.var)

    def __mul__(self, other):
        if isinstance(other, Poly1):
            return Poly1._of(self.value * other.value, self.var)
        if isinstance(other, (int, Fraction, Scalar)):
            return Poly1._of(self.value * other, self.var)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("polynomials admit non-negative powers only")
        if n and self.degree() * n > _X_LIMIT:
            raise ScalarError(_DEGREE_MSG)
        return Poly1._of(self.value**n, self.var)

    def _lift(self, other) -> "Poly1":
        if isinstance(other, Poly1):
            return other
        return Poly1._of(Scalar.of(other), self.var)

    # -- coefficients ----------------------------------------------------------

    def _over_den(self, num: dict) -> Scalar:
        """The reduced Scalar num / (this polynomial's denominator)."""
        den = self.value.den
        if den == _MP_ONE:
            return Scalar(num, None, _normalized=True)
        return Scalar(num, den)

    def terms(self) -> list[tuple[int, Scalar]]:
        """The nonzero coefficients as (degree, coefficient) pairs, lowest degree first."""
        parts: dict = {}
        shift = _SHIFTS[_X]
        for k, v in self.value.num.items():
            e = k >> shift
            parts.setdefault(e, {})[k - (e << shift)] = v
        return [(e, self._over_den(parts[e])) for e in sorted(parts)]

    @property
    def coeffs(self) -> list[Scalar]:
        """The dense coefficient list, constant first; built on each read."""
        out = [zero] * (self.degree() + 1) if self else []
        for e, c in self.terms():
            out[e] = c
        return out

    def __getitem__(self, i: int) -> Scalar:
        shift = _SHIFTS[_X]
        return self._over_den({k - (i << shift): v for k, v in self.value.num.items() if k >> shift == i})

    def map_coeffs(self, fn) -> "Poly1":
        return Poly1([fn(c) for c in self.coeffs], self.var)

    # -- evaluation and substitution ---------------------------------------------

    def evaluate(self, value):
        """Horner evaluation; value may be a Scalar or anything with +, *."""
        coeffs = self.coeffs
        if not coeffs:
            return zero if isinstance(value, Scalar) else 0 * value
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * value + c
        return acc

    def compose_affine(self, scale, offset) -> "Poly1":
        """f(scale*X + offset).

        With scale 1, a single-term offset and denominator 1 this is one
        binomial Taylor sum on the term map (``_taylor``).  Any other
        substitution runs Horner's rule with the Scalar scale*X + offset over
        the numerator's coefficients and divides by the denominator once.
        """
        scale, offset = Scalar.of(scale), Scalar.of(offset)
        if scale == one:
            if not offset:
                return self
            if offset.is_single_term() and self.value.den == _MP_ONE:
                [term] = offset.num.items()
                return Poly1._of(Scalar(_taylor(self.value.num, term, 0), None, _normalized=True), self.var)
        lin = _times_x(scale, 1) + offset
        acc = zero
        if self:
            for c in reversed(_split_by_var(self.value.num, _X)):
                acc = acc * lin + Scalar(c, None, _normalized=True)
        if self.value.den != _MP_ONE:
            acc = acc / Scalar(self.value.den, None, _normalized=True)
        return Poly1._of(acc, self.var)

    def difference(self, step) -> "Poly1":
        """(f(X + step) - f(X)) / step, the difference quotient of f.

        A nonzero single-term step over denominator 1 is one binomial sum on
        the term map (``_taylor`` without its t = 0 terms), so neither the
        shift nor the division forms a Scalar quotient.  Any other step
        shifts with ``compose_affine`` and divides; a zero step raises
        ScalarDivisionError.
        """
        step = Scalar.of(step)
        if step and step.is_single_term() and self.value.den == _MP_ONE:
            [term] = step.num.items()
            return Poly1._of(Scalar(_taylor(self.value.num, term, 1), None, _normalized=True), self.var)
        return (self.compose_affine(one, step) - self) * (one / step)

    # -- the actions of the polynomial representations, one pass over the terms --

    def derivative(self) -> "Poly1":
        """d/dX: X^k -> k X^(k-1)."""
        shift = _SHIFTS[_X]
        num = {k - X_UNIT: v * (k >> shift) for k, v in self.value.num.items() if k >= X_UNIT}
        return Poly1._of(self._over_den(num), self.var)

    def q_derivative(self) -> "Poly1":
        """The Jackson derivative: X^k -> {k} X^(k-1), {k} = 1 + q + ... + q^(k-1).

        The terms of X degree k are one kernel product with the run
        {k} X^-1, which the kernel takes as window sums once it is long
        enough.  Parts of different degree land on different X degrees, so
        their products are joined, never added.
        """
        parts: dict = {}
        shift = _SHIFTS[_X]
        for k, v in self.value.num.items():
            if k >= X_UNIT:
                parts.setdefault(k >> shift, {})[k] = v
        out: dict = {}
        low = KEY_ONE - X_UNIT
        for deg, part in parts.items():
            run = dict.fromkeys(range(low, low + deg * Q_UNIT, Q_UNIT), 1)
            out.update(_k.mpoly_mul(run, part, KEY_ONE))
        return Poly1._of(self._over_den(_mp_checked(out)), self.var)

    def mul_x(self) -> "Poly1":
        """X * f; the denominator, free of X, stays reduced against the numerator."""
        num = _mp_checked({k + X_UNIT: v for k, v in self.value.num.items()})
        return Poly1._of(Scalar(num, self.value.den, _normalized=True), self.var)

    # -- rendering ----------------------------------------------------------------

    def text(self) -> str:
        terms = []
        for e, c in reversed(self.terms()):
            mono = "" if e == 0 else self.var if e == 1 else "%s^%d" % (self.var, e)
            terms.append(signed_term(c, mono))
        return join_signed(terms)

    def __repr__(self):
        return "Poly1(%s)" % self.text()

"""Coefficient-field tests: q-numbers, normalization, substitution, axioms."""

import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qweyl import scalar as S
from qweyl.identities import sl2q_triple
from qweyl.scalar import (
    A,
    D,
    P,
    Q,
    NotDivisibleError,
    Poly1,
    Scalar,
    ScalarDivisionError,
    ScalarError,
    SubstitutionError,
    one,
    qnum,
    substitute,
    zero,
)
from qweyl.weyl import hq

from test_kernels import ref_mul


# --- q-numbers -------------------------------------------------------------


def test_qnum_zero_is_empty_sum():
    assert qnum(0) == zero
    assert qnum(0).canonical() == "(0)/(1)"


def test_qnum_three():
    assert qnum(3) == one + Q + Q**2
    assert qnum(3).canonical() == "(q^2 + q + 1)/(1)"


def test_qnum_classical_limit():
    assert substitute(qnum(4), {"q": 1}) == Scalar.of(4)


@pytest.mark.parametrize("n", range(13))
def test_qnum_times_one_minus_q(n):
    assert qnum(n) * (one - Q) == one - Q**n


def test_qnum_addition_law():
    for m in range(13):
        for n in range(13):
            assert qnum(m + n) == qnum(m) + Q**m * qnum(n)


def test_qnum_rejects_negative():
    with pytest.raises(S.ScalarError):
        qnum(-1)


def test_qnum_rejects_q_exponents_past_the_range():
    # {2^19 + 1} ends in q^(2^19), one past the q field's limit
    with pytest.raises(S.ScalarError, match="q exponent out of range"):
        qnum(2**19 + 1)


# --- symbolic alpha q-numbers ------------------------------------------------
# {alpha}, {alpha+1} and {2 alpha+2} under A = q^alpha, at sigma = q


ALPHA = (one - A) / (one - Q)
ALPHA_1 = (one - Q * A) / (one - Q)
DOUBLE_ALPHA = (one - Q**2 * A**2) / (one - Q)


def test_alpha_number_form():
    # the constants of the symbolic sl2q triple at sigma = q are these numbers
    t = sl2q_triple(hq())
    assert -t.jplus.coefficient(1) == ALPHA
    assert -t.jzero.coefficient(0) == ALPHA * ALPHA_1 / DOUBLE_ALPHA
    assert ALPHA.canonical() == "(A - 1)/(q - 1)"


def test_alpha_number_specializes_to_qnum():
    # oracle: {alpha} at A := q^3 must agree with qnum(3)
    assert ALPHA.substitute({"A": Q**3}) == qnum(3)
    assert ALPHA_1.substitute({"A": Q**3}) == qnum(4)


def test_double_alpha_number():
    # A := q^0 = 1, then the reduced fraction at q := 1
    reduced = DOUBLE_ALPHA.substitute({"A": 1})
    assert reduced == one + Q
    assert reduced.substitute({"q": 1}) == Scalar.of(2)


def test_double_alpha_matches_qnum_at_integers():
    for n in range(5):
        assert DOUBLE_ALPHA.substitute({"A": Q**n}) == qnum(2 * n + 2)


# --- arithmetic and normalization --------------------------------------------


def test_cancellation_golden():
    assert (one - Q**2) / (one - Q) == one + Q
    assert ((one - A) / (one - Q)) * (one - Q) == one - A


def test_laurent_term():
    x = P * (one / Q)
    assert x.canonical() == "(p*q^-1)/(1)"
    assert x * Q == P


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ScalarDivisionError):
        one / zero
    with pytest.raises(ScalarDivisionError):
        P / zero


def test_denominator_unit_normalized():
    x = one / (Scalar.of(2) - Scalar.of(2) * Q)  # 1/(2 - 2q)
    # leading den coefficient +1: den = q - 1, num = -1/2
    assert x.canonical() == "(-1/2)/(q - 1)"


def test_negative_power():
    assert Q**-2 == one / Q**2
    assert (P / Q) ** -1 == Q / P


def test_rational_coefficients():
    x = Scalar.of(Fraction(3, 2)) * P
    assert x.canonical() == "(3/2*p)/(1)"


@pytest.mark.parametrize("value", [10**5000 - 1, Fraction(1, 7**6000)], ids=["integer", "rational"])
def test_coefficient_too_long_to_print(value):
    # CPython refuses the decimal conversion with a message about its own API
    x = Scalar.of(value) * P
    want = "coefficient too long to print: more than %d decimal digits" % sys.get_int_max_str_digits()
    for render in (x.canonical, x.compact, Poly1([one, x], "x").text):
        with pytest.raises(ScalarError) as err:
            render()
        assert str(err.value) == want


# --- substitution -------------------------------------------------------------


def test_substitute_examples():
    assert substitute(qnum(3), {"q": 1}) == Scalar.of(3)
    assert substitute(P / Q, {"q": 2, "p": 1}) == Scalar.of(Fraction(1, 2))
    # oracle: qnum(2)
    assert substitute((one - A) / (one - Q), {"A": Q**2}) == qnum(2)


def test_substitute_requires_alpha_before_q():
    x = (one - A) / (one - Q)
    with pytest.raises(SubstitutionError):
        substitute(x, {"q": 2})
    # binding both at once is fine
    assert substitute(x, {"A": Q**2, "q": 2}) == Scalar.of(3)


def test_substitute_vanishing_denominator():
    x = one / (one - Q)
    with pytest.raises(SubstitutionError):
        substitute(x, {"q": 1})


def test_substitute_unknown_variable():
    with pytest.raises(SubstitutionError):
        substitute(P, {"x": 1})


def test_partial_substitution_keeps_symbols():
    x = P * Q + D
    assert substitute(x, {"p": 2}) == Scalar.of(2) * Q + D


def test_rename_variable():
    x = Q**2 + Q + 1
    assert x.rename_variable("q", "p") == P**2 + P + 1
    with pytest.raises(SubstitutionError):
        (P + Q).rename_variable("q", "p")


def test_rename_q_refused_while_alpha_present():
    # renaming q binds q, and A = q^alpha depends on q
    with pytest.raises(SubstitutionError, match="bind A"):
        ((one - A) / (one - Q)).rename_variable("q", "p")


# --- canonical form properties -----------------------------------------------


def _small_scalars():
    atoms = st.sampled_from([P, Q, A, D, one, zero, Scalar.of(2), Scalar.of(Fraction(1, 2)), Q**-1])
    return st.lists(atoms, min_size=1, max_size=4).map(
        lambda xs: sum(xs[1:], xs[0]) if len(xs) > 1 else xs[0]
    )


@st.composite
def _scalars(draw):
    x = draw(_small_scalars())
    y = draw(_small_scalars())
    op = draw(st.sampled_from([operator.add, operator.sub, operator.mul]))
    return op(x, y)


@settings(max_examples=200, deadline=None)
@given(_scalars(), _scalars(), _scalars())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x
    assert x * one == x
    assert x - x == zero
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=100, deadline=None)
@given(_scalars(), _scalars())
def test_normalize_idempotent(x, y):
    if y.is_zero():
        y = one + Q
    s = x / y
    again = Scalar(dict(s.num), dict(s.den))
    assert again.num == s.num and again.den == s.den


# --- exact division ------------------------------------------------------------

# non-Laurent term maps with small exponents, coefficients stored as the kernels keep them
_KEYS = st.tuples(*[st.integers(0, 3)] * 4).map(lambda e: S._pack(*e))
_COEFFS = (st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)).filter(bool).map(S._coeff_norm)
_TERM_MAPS = st.dictionaries(_KEYS, _COEFFS, min_size=1, max_size=5)
_MONOMIALS = st.dictionaries(_KEYS, _COEFFS, min_size=1, max_size=1)


def _tm(x: Scalar) -> dict:
    assert x.den == S._MP_ONE
    return x.num


@settings(max_examples=200, deadline=None)
@given(_TERM_MAPS, _TERM_MAPS | _MONOMIALS)
# products whose cross terms cancel: (p + q)(p - q) and (p - q)(p^3 + p^2 q + p q^2 + q^3)
@example(_tm(P + Q), _tm(P - Q))
@example(_tm(P**3 + P**2 * Q + P * Q**2 + Q**3), _tm(P - Q))
@example(_tm(one + Q + Q**2), _tm(one - Q + A * D))
def test_divexact_inverts_products(f, g):
    fg = S._mp_mul(f, g)
    assert S._mp_divexact(fg, g) == f
    assert S._mp_divexact(fg, f) == g


def test_divexact_edge_cases():
    g = {S._pack(1, 0, 0, 0): 1, S._pack(0, S._EXP_LIMIT, 0, 0): 1}  # p + q^M at the exponent limit M
    assert S._mp_divexact({}, g) == {}
    with pytest.raises(ScalarDivisionError):
        S._mp_divexact(g, {})
    # (p + q^M)(p - q^M + 1) with q^2M spelled as p*q^-2, the key it would
    # carry into: the quotient term -q^M times q^M leaves the key range, so
    # the division refuses it before the carried key can cancel
    f = {S._pack(2, 0, 0, 0): 1, S._pack(1, 0, 0, 0): 1, S._pack(1, -2, 0, 0): -1, S._pack(0, S._EXP_LIMIT, 0, 0): 1}
    with pytest.raises(NotDivisibleError):
        S._mp_divexact(f, g)


@settings(max_examples=150, deadline=None)
@given(_scalars(), st.booleans())
def test_divisible_by_p_minus_1_iff_numerator_vanishes_at_1(x, times):
    # p - 1 is monic in p, so it divides the numerator exactly when the
    # numerator vanishes at p = 1; substitution shares no code with division
    if times:
        x = x * (P - 1)
    vanishes = substitute(Scalar(x.num), {"p": 1}).is_zero()
    assert x.numerator_divisible_by(P - 1) == vanishes


# --- exponent range ----------------------------------------------------------

_LIMIT = S._EXP_LIMIT
_EDGES = (0, 1, 2**17 - 1, 2**17, 2**18 - 1, 2**18, 2**19 - 2, _LIMIT)
_exps = st.sampled_from(_EDGES) | st.integers(0, _LIMIT)
_qexps = st.sampled_from(_EDGES + tuple(-e for e in _EDGES)) | st.integers(-_LIMIT, _LIMIT)


def test_exponent_range_is_checked_per_product():
    assert str(Q**524287) == "q^524287"  # the in-range boundary
    assert str(Q**-524287) == "q^-524287"
    for build in (
        lambda: Q**524287 * Q,  # the q field carried into p: rendered p*q^-524288
        lambda: A**524287 * A,  # read A^524288, past the limit; at 2^20 the A field carries into q
        lambda: Q**-524288,
        lambda: Q**400000 / (Q**-200000 * (1 + Q)),  # the quotient's q shift
        lambda: (Q**-300000 + Q**300000) / (1 + Q**300000),  # q span of the normalised numerator
        # the gcd's pseudo-remainder forms q^600000, which carried into p
        lambda: (Q**300000 * A**2 + A + Q**300000) / (Q**300000 * A**2 + 2 * A + 1),
        lambda: (Q**-300000 + Q**300000).numerator_divisible_by(1 + Q),
    ):
        with pytest.raises(S.ScalarError, match="exponent limit"):
            build()


@settings(max_examples=300, deadline=None)
@given(st.tuples(_exps, _qexps, _exps, _exps), st.tuples(_exps, _qexps, _exps, _exps))
def test_monomial_products_are_exact_or_refused(e1, e2):
    x, y = (Scalar({S._pack(*e): 1}, None, _normalized=True) for e in (e1, e2))
    total = [a + b for a, b in zip(e1, e2)]
    if -_LIMIT <= total[1] <= _LIMIT and all(total[i] <= _LIMIT for i in (0, 2, 3)):
        assert (x * y).num == {S._pack(*total): 1}
    else:
        with pytest.raises(S.ScalarError):
            x * y


_HALF = 2**18  # 262144: two halves reach the first exponent past the range


_mono = Scalar.variable


@pytest.mark.parametrize(
    "x, y",
    [
        (_mono("p", _HALF), _mono("p", _HALF)),  # the p guard bit
        (_mono("q", _HALF), _mono("q", _HALF)),  # the q guard bit
        (_mono("A", _HALF), _mono("A", _HALF)),  # the A guard bit
        (_mono("d", _HALF), _mono("d", _HALF)),  # the d guard bit
        (_mono("q", -_HALF), _mono("q", -_HALF)),  # biased q of exactly 0: only the Q_UNIT borrow sees it
        (_mono("q", -_HALF), _mono("q", -_HALF - 1)),  # biased q of -1 borrows from p
        (_mono("q", -_HALF) * P, _mono("q", -_HALF - 1)),  # ... also when p is there to borrow from
    ],
    ids=["p", "q", "A", "d", "q-zero", "q-borrow", "q-borrow-p"],
)
def test_each_guard_bit_refuses_its_field(x, y):
    with pytest.raises(S.ScalarError, match="exponent limit"):
        x * y


@pytest.mark.parametrize("name", S.VAR_NAMES)
def test_products_at_the_range_boundaries_are_exact(name):
    assert (_mono(name, _HALF - 1) * _mono(name, _HALF)).num == _mono(name, _LIMIT).num
    if name == "q":
        assert (_mono(name, -_HALF + 1) * _mono(name, -_HALF)).num == _mono(name, -_LIMIT).num


def _in_range(e) -> bool:
    return -_LIMIT <= e[1] <= _LIMIT and all(0 <= e[i] <= _LIMIT for i in (0, 2, 3))


_EDGE_TERMS = st.dictionaries(
    st.tuples(_exps, _qexps, _exps, _exps), st.sampled_from([1, -1, 2, Fraction(1, 2)]), min_size=1, max_size=4
)


@settings(max_examples=300, deadline=None)
@given(_EDGE_TERMS, _EDGE_TERMS)
@example({(0, _LIMIT, 0, 0): 1, (0, 0, 0, 0): 1}, {(0, -_LIMIT, 0, 0): 1, (0, 1, 0, 0): -1})
@example({(_LIMIT, 0, 0, 0): 1, (0, 0, 0, 0): -1}, {(1, 0, 0, 0): 1})
@example({(0, -_LIMIT, 0, 0): 1, (0, 0, 0, 0): 1}, {(0, -1, 0, 0): 1})  # q^-524288: a biased q of 0
def test_products_equal_the_reference_or_are_refused(a, b):
    want = ref_mul(a, b)
    f, g = ({S._pack(*e): c for e, c in x.items()} for x in (a, b))
    if all(_in_range(e) for e in want):
        assert S._mp_mul(f, g) == {S._pack(*e): c for e, c in want.items()}
    else:
        with pytest.raises(S.ScalarError, match="exponent limit"):
            S._mp_mul(f, g)


def test_qclear_span_fills_the_field_exactly():
    ok = {S._pack(0, -_HALF, 0, 0): 1, S._pack(0, _HALF - 1, 0, 0): 1}  # span 524287
    assert S._mp_qclear(ok) == ({S._pack(0, 0, 0, 0): 1, S._pack(0, _LIMIT, 0, 0): 1}, -_HALF)
    for wide in (
        {S._pack(0, -_HALF, 0, 0): 1, S._pack(0, _HALF, 0, 0): 1},  # span 524288
        {S._pack(0, -_LIMIT, 0, 0): 1, S._pack(0, 1, 0, 0): 1},
    ):
        with pytest.raises(S.ScalarError, match="exponent limit"):
            S._mp_qclear(wide)


@pytest.mark.parametrize(
    "num, den",
    [
        (Q**-300000, Q**300000 * (1 + Q)),  # the q shift of the reduced quotient reaches -600000
        (Q**300000 * (1 + Q), Q**-300000),  # ... and 600000
    ],
    ids=["low", "high"],
)
def test_quotient_q_shift_is_checked(num, den):
    with pytest.raises(S.ScalarError, match="exponent limit"):
        num / den


def test_quotient_q_shift_at_the_boundary():
    x = Q ** (_HALF - 1) / (Q**-_HALF * (1 + Q))
    assert x.num == {S._pack(0, _LIMIT, 0, 0): 1}
    assert (Q ** -(_HALF - 1) / (Q**_HALF * (1 + Q))).num == {S._pack(0, -_LIMIT, 0, 0): 1}


def test_divexact_refuses_an_out_of_range_quotient_term():
    # (p^4 - p*q^-4) / (p + q^M) for M the limit: the quotient runs p^3,
    # -p^2 q^M, p q^2M, ...; without refusing q^2M the next remainder term
    # q^4M carries into p as p*q^-4, cancels f's second term and the
    # division reads as exact
    g = {S._pack(1, 0, 0, 0): 1, S._pack(0, _LIMIT, 0, 0): 1}
    f = {S._pack(4, 0, 0, 0): 1, S._pack(1, -4, 0, 0): -1}
    with pytest.raises(NotDivisibleError):
        S._mp_divexact(f, g)


# --- the term-map Taylor sum of Poly1.compose_affine and Poly1.difference --------


def _xpow(k: int) -> Poly1:
    return Poly1([0] * k + [1], "x")


@pytest.mark.parametrize(
    "build",
    [
        lambda: _xpow(4).compose_affine(one, P**_HALF),  # o^4 = p^(2^20) sits above the top field's guard bit
        lambda: _xpow(4).compose_affine(one, Q**-_HALF),  # q^(-2^20)
        lambda: _xpow(2).compose_affine(one, Q**-_HALF),  # q^(-2^19), one below the range
        lambda: _xpow(5).difference(P**_HALF),  # the largest power used is o^3
        lambda: Poly1([0, 0, P**_HALF]).compose_affine(one, P ** (_HALF - 1)),  # o^2 fits, times its coefficient not
    ],
    ids=["p", "q", "q-edge", "difference", "coefficient"],
)
def test_taylor_sum_refuses_keys_past_their_field(build):
    with pytest.raises(ScalarError, match="exponent limit"):
        build()


@pytest.mark.parametrize("o", [P ** (_HALF - 1), Q ** (_HALF - 1), Q ** -(_HALF - 1)], ids=["p", "q", "1/q"])
def test_taylor_sum_at_the_range_boundary(o):
    assert _xpow(2).compose_affine(one, o) == Poly1([o * o, 2 * o, 1], "x")
    assert _xpow(3).difference(o) == Poly1([o * o, 3 * o, 3], "x")


def test_difference_of_a_constant_and_by_zero():
    assert _xpow(0).difference(D).is_zero()
    with pytest.raises(ScalarDivisionError):
        _xpow(2).difference(zero)


# --- Poly1 -------------------------------------------------------------------


def test_poly1_basics():
    f = Poly1([1, 2, 1])  # 1 + 2N + N^2
    g = Poly1([1, 1])
    assert g * g == f
    assert f.evaluate(Scalar.of(3)) == Scalar.of(16)


def test_poly1_compose_affine():
    f = Poly1([0, 0, 1])  # N^2
    assert f.compose_affine(Q, one) == Poly1([1, 2 * Q, Q**2])


def test_poly1_negative_power_rejected():
    with pytest.raises(ValueError):
        Poly1([1, 1]) ** -1


def test_poly1_degree_sentinel():
    assert Poly1([]).degree() == float("-inf")
    assert Poly1([1]).degree() == 0

"""Coefficient-field tests: q-numbers, normalization, substitution, axioms."""

import operator
import subprocess
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
    common_ratio,
    one,
    qnum,
    substitute,
    zero,
)
from qweyl.weyl import hq

from oracles import q_derivative_per_term
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


def test_equal_scalars_hash_alike():
    # the left sides store integer coefficients as Fraction(n, 1), the right sides as n
    pairs = [
        (Scalar.of(Fraction(1, 2)) * 4, Scalar.of(2)),
        ((Q * Fraction(1, 2) + 1) / (P * Fraction(1, 3)) * 6, (9 * Q + 18) / P),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1


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


_LAURENT_KEYS = st.tuples(st.integers(0, 2), st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2)).map(lambda e: S._pack(*e))
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(S._coeff_norm)


def _divexact_succeeds(x: Scalar, probe: Scalar) -> bool:
    try:
        S._mp_divexact(S._mp_qclear(x.num)[0], S._mp_qclear(probe.num)[0])
    except NotDivisibleError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(_LAURENT_KEYS, _COEFFS, min_size=1, max_size=6),
    st.sampled_from(S.VAR_NAMES),
    _RATIONALS.filter(bool),
    _RATIONALS,
    st.booleans(),
)
# (q^-2 + q^-1 + A)*(q - 3): weights of negative powers of 3 would be inexact floats
@example({S._pack(0, -2, 0, 0): 1, S._pack(0, -1, 0, 0): 1, S._pack(0, 0, 1, 0): 1}, "q", 1, -3, True)
@example({S._pack(0, -2, 0, 0): 3, S._pack(0, 1, 1, 0): Fraction(1, 2)}, "q", 2, Fraction(-1, 3), True)
@example({S._pack(1, -1, 0, 0): 1}, "p", 2, 0, False)
def test_linear_probe_agrees_with_exact_division(f, v, alpha, beta, planted):
    # alpha*v + beta is decided by evaluating at its root; exact division is the oracle
    probe = alpha * Scalar.variable(v) + beta
    x = Scalar(f) * probe if planted else Scalar(f)
    assert x.numerator_divisible_by(probe) == _divexact_succeeds(x, probe)
    if planted:
        assert x.numerator_divisible_by(probe)


def test_only_non_linear_probes_reach_exact_division(monkeypatch):
    x = (P - 1) ** 2 * (P * Q - 1) * (Q**2 - 2) * (A + Q**-2) * (2 * Q + 3) * D
    calls = []
    divexact = S._mp_divexact
    monkeypatch.setattr(S, "_mp_divexact", lambda f, g: calls.append(1) or divexact(f, g))
    for probe, linear in (
        ((P - 1) ** 2, False),
        (P * Q - 1, False),
        (Q**2 - 2, False),
        (P - 1, True),
        (2 * Q + 3, True),
        (D / 2, True),
    ):
        calls.clear()
        assert x.numerator_divisible_by(probe)
        assert calls == ([] if linear else [1]), probe


def test_uses_reads_each_field_of_numerator_and_denominator():
    x = A**2 / (1 + Q**-1)
    assert [x.uses(v) for v in S.VAR_NAMES] == [False, True, True, False]
    assert [(P * D / P).uses(v) for v in S.VAR_NAMES] == [False, False, False, True]
    assert not any((Q**-3 * Q**3).uses(v) for v in S.VAR_NAMES)


def test_common_ratio():
    assert common_ratio({}, {}) is None
    assert common_ratio({1: P}, {}) is None
    assert common_ratio({1: P}, {2: P}) is None  # differing keys
    assert common_ratio({1: P, 2: Q}, {1: one, 2: one}) is None  # the ratio differs
    assert common_ratio({1: P * Q, 2: -Q / 2}, {1: P, 2: -one / 2}) == Q


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

# --- the fifth key field, X: the variable of a Poly1 -----------------------------

_X_LIMIT = S._X_LIMIT
_xexps = st.sampled_from((0, 1, 2**19, _X_LIMIT - 1, _X_LIMIT)) | st.integers(0, _X_LIMIT)


@settings(max_examples=300, deadline=None)
@given(_exps, _qexps, _exps, _exps, _xexps, _xexps)
def test_pack_round_trip_with_the_polynomial_field(ep, eq, ea, ed, ex, ey):
    key = S._pack(ep, eq, ea, ed, ex, ey)
    assert S._unpack(key) == (ep, eq, ea, ed, ex, ey)
    assert not (key | (key - S.Q_UNIT)) & S._GUARDS
    # X sits above the four variables and Y below them: each adds its own step
    assert key == S._pack(ep, eq, ea, ed) + ex * S.X_UNIT + ey * S.Y_UNIT
    assert S._mp_checked({key: 1})


def test_basis_field_guard_bit_at_its_limit():
    with pytest.raises(ScalarError, match="basis too large"):
        S._pack(0, 0, 0, 0, 0, _X_LIMIT + 1)
    top = S._pack(1, 0, 0, 0, 0, _X_LIMIT)
    assert S._mp_checked({top: 1})
    # a product key past Y's field sets Y's guard bit and nothing else
    assert (top + S.Y_UNIT) & S._GUARDS == S._Y_GUARD
    with pytest.raises(ScalarError, match="basis too large"):
        S._mp_checked({top + S.Y_UNIT: 1})
    with pytest.raises(ScalarError, match="basis too large"):
        Poly1.basis_sum(_X_LIMIT + 1, "x")


_yfree = st.tuples(st.integers(0, 3), st.integers(-3, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(_yfree, min_size=2, max_size=12, unique=True))
def test_keys_without_the_basis_field_sort_as_before_it(exps):
    # graded-lex on (X, p, q, A, d) for _order_key, lex on the same fields for
    # the plain int order that drives _mp_divexact
    keys = {S._pack(ep, eq, ea, ed, ex): (ex, ep, eq, ea, ed) for ep, eq, ea, ed, ex in exps}
    assert sorted(keys, key=S._order_key) == sorted(keys, key=lambda k: (sum(keys[k]), keys[k]))
    assert sorted(keys) == sorted(keys, key=keys.get)


def test_polynomial_field_guard_bit_at_the_degree_limit():
    with pytest.raises(ScalarError, match="polynomial degree limit"):
        S._pack(0, 0, 0, 0, _X_LIMIT + 1)
    top = Poly1.monomial(one, _X_LIMIT, "x")
    assert top.degree() == _X_LIMIT
    assert (S._pack(0, 0, 0, 0, _X_LIMIT) + S.X_UNIT) & S._GUARDS == S._X_GUARD  # the product key sets X's guard
    for build in (
        top.mul_x,
        lambda: top * Poly1([0, 1], "x"),
        lambda: Poly1([1, 1], "x") ** (_X_LIMIT + 1),
        lambda: Poly1.monomial(one, _X_LIMIT + 1, "x"),
    ):
        with pytest.raises(ScalarError, match="polynomial degree limit"):
            build()
    # a field below X that leaves its range is named as before
    with pytest.raises(ScalarError, match="p, A and d exponents"):
        Poly1([P**_LIMIT], "x") * P
    # the Jackson derivative's q-numbers reach past q's range before X's
    with pytest.raises(ScalarError, match="q exponents"):
        Poly1.monomial(one, _LIMIT + 2, "x").q_derivative()
    assert Poly1.monomial(one, _LIMIT + 1, "x").q_derivative()[_LIMIT] == qnum(_LIMIT + 1)


_JACKSON_KEYS = st.builds(
    lambda ep, eq, ea, ex, ey: S._pack(ep, eq, ea, 0, ex, ey),
    st.integers(0, 1),
    st.integers(-3, 6) | st.sampled_from((400000, 400003)),
    st.integers(0, 1),
    st.integers(0, 9),
    st.integers(0, 2),
)
_JACKSON_DENS = (None, (1 + P + A).num, (2 * P - A**2 + Fraction(1, 3)).num)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(_JACKSON_KEYS, st.integers(-3, 3).filter(bool) | st.sampled_from([Fraction(1, 2), 3]), max_size=14),
    st.sampled_from(_JACKSON_DENS),
)
@example({S._pack(0, 0, 0, 0, 3): 1, S._pack(0, 400000, 0, 0, 3): 2}, None)  # q^0 and q^400000 in one line
@example({S._pack(0, e, 0, 0, 4): 1 for e in range(-3, 7)}, None)  # a dense line, windows overlapping
@example({S._pack(0, e, 0, 0, 2): (-1) ** e for e in range(6)}, _JACKSON_DENS[1])  # running sums cancel
@example({S._pack(1, 2, 1, 0, 5, 1): -1, S._pack(0, 2, 0, 0, 1, 2): 3}, _JACKSON_DENS[2])  # single-key lines with Y
# parts with at least as many terms as their q-number take the kernel's window sums
@example(
    {S._pack(ep, eq, ea, 0, 8, ey): (-1) ** eq * (ep + 1) for ep in (0, 1) for eq in (0, 3, 9) for ea in (0, 1) for ey in (0, 2)},
    _JACKSON_DENS[1],
)  # degree 8 over the p, A and Y fields: lines of overlapping windows, spans 2^21 powers of q apart
@example({S._pack(0, e, 0, 0, 7): e or 5 for e in range(-6, 3)}, None)  # Laurent q
@example(
    {S._pack(0, e, 0, 0, 9): 2 for e in (0, 1, 2, 5, 400000, 400003, _LIMIT - 12, _LIMIT - 9, _LIMIT - 8)}, None
)  # near q^400000, and a last window whose end lies past the q field
def test_q_derivative_matches_the_per_term_sum(num, den):
    f = Poly1._of(Scalar(num, den) if num else zero, "x")
    assert f.q_derivative() == q_derivative_per_term(f)


def test_a_product_with_one_is_the_other_operand(monkeypatch):
    def refuse(f, g):
        raise AssertionError("a product with one ran a gcd")

    x = (P + 1 + Q**2) / (1 + Q + P * Q)
    monkeypatch.setattr(S, "_mp_gcd", refuse)
    assert x * one is x
    assert one * x is x
    assert 3 * one == one * 3 == Scalar.of(3)
    assert one * Fraction(1, 2) == Fraction(1, 2) * one == Scalar.of(Fraction(1, 2))


def test_a_sum_or_difference_with_zero_is_the_other_operand(monkeypatch):
    def refuse(f, g):
        raise AssertionError("a sum with zero ran a gcd")

    x = (P + 1 + Q**2) / (1 + Q + P * Q)
    minus_x = -x
    monkeypatch.setattr(S, "_mp_gcd", refuse)
    assert x + zero is x
    assert zero + x is x
    assert x - zero is x
    assert zero - x == minus_x
    assert x + 0 is x and 0 + x is x and x - 0 is x
    assert 0 - x == minus_x


# a numerator with a high power of q over a denominator that uses q once
# reached the pseudo-remainder gcd and ran past 20 s
_HIGH_Q_QUOTIENTS = """
from qweyl.scalar import A, P, Q, Poly1, Scalar, one
den = P + Q + 1
f = Poly1([1, 1, Q**400000 * A, Q**5], "x") * (one / den)
print(Scalar((Q**400000 * A).num, den.num))
print(f)
print(f.q_derivative())
print((Q**400000 * A + Q**400001 * A) / (Q**2 + Q + 1))
print(((Q**400000 * A + P) * den) / (den * (Q + 2)))
"""


def test_quotients_with_a_high_power_of_q_finish():
    r = subprocess.run([sys.executable, "-c", _HIGH_Q_QUOTIENTS], capture_output=True, text=True, timeout=60)
    assert (r.returncode, r.stdout.splitlines()) == (
        0,
        [
            "(q^400000*A)/(p + q + 1)",
            "Poly1((q^5)/(p + q + 1)*x^3 + (q^400000*A)/(p + q + 1)*x^2 + (1)/(p + q + 1)*x + (1)/(p + q + 1))",
            "Poly1((q^7 + q^6 + q^5)/(p + q + 1)*x^2 + (q^400001*A + q^400000*A)/(p + q + 1)*x + (1)/(p + q + 1))",
            "(q^400001*A + q^400000*A)/(q^2 + q + 1)",
            "(q^400000*A + p)/(q + 2)",
        ],
    )


def test_the_q4000_quotient_never_reaches_the_prs_gcd(monkeypatch):
    def refuse(f, g):
        raise AssertionError("the PRS gcd was reached")

    monkeypatch.setattr(S, "_mp_gcd_int", refuse)
    x = (Q**4000 + 1) * (1 + Q) ** -1
    assert (x.num, x.den) == ((Q**4000 + 1).num, (1 + Q).num)
    # q^4000 - 1 = (q + 1)(q^3999 - q^3998 + ... + q - 1): a gcd of 1 + q, divided out exactly
    assert (Q**4000 - 1) / (1 + Q) == Scalar({S._pack(0, k, 0, 0): (-1) ** (k + 1) for k in range(4000)}, None, _normalized=True)


def test_the_q300000_quotient_still_reaches_the_prs_gcd_and_is_refused(monkeypatch):
    # evaluating q at 2^8 would give a 2.4-million-bit operand, past the heuristic's cap
    calls = []
    prs = S._mp_gcd_int

    def spy(f, g):
        calls.append(len(f) + len(g))
        return prs(f, g)

    monkeypatch.setattr(S, "_mp_gcd_int", spy)
    with pytest.raises(ScalarError, match="exponent limit"):
        (Q**300000 * A**2 + A + Q**300000) / (Q**300000 * A**2 + 2 * A + 1)
    assert calls


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


def test_poly1_is_one_scalar_over_an_x_free_denominator():
    f = Poly1([P / (1 + Q), zero, one / ((1 + Q) * (P - 1)), Q], "x")
    assert f.value.den == ((1 + Q) * (P - 1)).num  # the least common denominator
    assert max(f.value.den) < S.X_UNIT
    assert f.coeffs == [P / (1 + Q), zero, one / ((1 + Q) * (P - 1)), Q]
    assert f[2] == one / ((1 + Q) * (P - 1)) and f[4] == zero and f[-1] == zero
    assert Poly1(f.coeffs, f.var) == f and hash(Poly1(f.coeffs, f.var)) == hash(f)
    assert (f * (1 + Q)).value.den == (P - 1).num
    assert f.text() == "q*x^3 + (1)/(p*q + p - q - 1)*x^2 + (p)/(q + 1)"

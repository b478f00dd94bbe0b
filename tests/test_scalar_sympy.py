"""Scalar normalisation against sympy, an implementation that shares no code with it.

Random quotients in p, q, A, d (with Laurent powers of q) are built twice,
once from qweyl's symbols and once from sympy's, and the reduced qweyl
value must equal the sympy value and have coprime numerator and denominator.
Skipped when sympy is not installed; the package does not depend on it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import scalar as S

sympy = pytest.importorskip("sympy")

SYMS = {name: sympy.Symbol(name) for name in S.VAR_NAMES}
TWINS = {
    "p": (S.P, SYMS["p"]),
    "q": (S.Q, SYMS["q"]),
    "A": (S.A, SYMS["A"]),
    "d": (S.D, SYMS["d"]),
    "1/q": (S.Q**-1, 1 / SYMS["q"]),
}


def _const(c: Fraction):
    return S.Scalar.of(c), sympy.Rational(c.numerator, c.denominator)


def _apply(op_and_operands):
    op, (x, sx), (y, sy) = op_and_operands
    if op == "+":
        return x + y, sx + sy
    if op == "-":
        return x - y, sx - sy
    if op == "/" and not y.is_zero():
        return x / y, sx / sy
    return x * y, sx * sy


LEAVES = st.one_of(
    st.sampled_from(sorted(TWINS)).map(TWINS.get),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(_const),
)
QUOTIENTS = st.recursive(
    LEAVES,
    lambda children: st.tuples(st.sampled_from("+-*/"), children, children).map(_apply),
    max_leaves=7,
)


def _sympy_of(text: str):
    return sympy.sympify(text.replace("^", "**"), locals=SYMS)


@settings(max_examples=40, deadline=None)
@given(QUOTIENTS)
def test_normalisation_matches_sympy(pair):
    x, twin = pair
    assert sympy.cancel(_sympy_of(x.canonical()) - twin) == 0, x.canonical()
    # coprime: clear the Laurent q powers of the numerator, then the gcd is a constant
    num, den = _sympy_of(S._mp_text(x.num)), _sympy_of(S._mp_text(x.den))
    num_poly, _q_power = sympy.fraction(sympy.together(num))
    g = sympy.gcd(num_poly, den)
    assert not g.free_symbols, (x.canonical(), g)


# --- exact division decides divisibility as sympy's remainder does --------------------------

_TERM_MAPS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4).map(lambda e: S._pack(*e)),
    st.integers(-3, 3).filter(bool) | st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]),
    min_size=1,
    max_size=4,
)


def _sympy_map(f: dict):
    return _sympy_of(S._mp_text(f))


def _assert_division_matches_sympy(f: dict, g: dict) -> bool:
    """Check _mp_divexact against sympy's division; True when g divides f."""
    quotient, remainder = sympy.div(_sympy_map(f), _sympy_map(g), *SYMS.values(), domain=sympy.QQ)
    if remainder == 0:
        assert sympy.expand(_sympy_map(S._mp_divexact(f, g)) - quotient) == 0
    else:
        with pytest.raises(S.NotDivisibleError):
            S._mp_divexact(f, g)
    return remainder == 0


@settings(max_examples=100, deadline=None)
@given(_TERM_MAPS, _TERM_MAPS, _TERM_MAPS | st.just({}))
def test_divexact_matches_sympy_remainder(g, h, extra):
    f = S._k.mpoly_add(S._mp_mul(g, h), extra)
    if f:
        _assert_division_matches_sympy(f, g)


@pytest.mark.parametrize(
    "f, g",
    [
        # fails only after four quotient terms, once -q^4 cancelled and its heap entry went stale
        (S.P**4 - S.Q**4 + 1, S.P - S.Q),
        (S.P**2 + S.Q, S.P + S.Q**2),  # the leading term q^4 left over is not divisible by p
        ((S.P + S.Q) * (S.A + S.D) * (S.P - S.A) + S.D, S.P + S.Q),
        ((S.P - 1) * (S.Q**3 + S.P * S.A) + S.Q**2, S.P - 1),
    ],
)
def test_divexact_refuses_late_like_sympy(f, g):
    assert not _assert_division_matches_sympy(f.num, g.num)

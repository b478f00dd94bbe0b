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


def _quotients(max_leaves: int):
    return st.recursive(
        LEAVES,
        lambda children: st.tuples(st.sampled_from("+-*/"), children, children).map(_apply),
        max_leaves=max_leaves,
    )


QUOTIENTS = _quotients(7)


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


# --- compose_affine is f(scale*x + offset) as sympy substitutes it --------------------------

X = sympy.Symbol("x")
_COEFFS = st.just(_const(Fraction(0))) | _quotients(3)
# polynomial coefficients (denominator 1, Laurent in q), where a single-term
# offset takes the term-map sum instead of Scalar arithmetic
_POLY_COEFFS = st.just(_const(Fraction(0))) | st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2)).map(lambda e: S._pack(*e)),
    st.integers(-3, 3).filter(bool) | st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]),
    min_size=1,
    max_size=3,
).map(lambda f: (S.Scalar(f, None, _normalized=True), _sympy_terms(f)))
_COEFF_LISTS = st.lists(_COEFFS, min_size=0, max_size=9) | st.lists(_POLY_COEFFS, min_size=0, max_size=9)
_OFFSETS = {
    "0": (S.zero, 0),
    "d": (S.D, SYMS["d"]),
    "-d": (-S.D, -SYMS["d"]),
    "3/2*q^-1": (S.Scalar.of(Fraction(3, 2)) * S.Q**-1, sympy.Rational(3, 2) / SYMS["q"]),
    "-p*d^2": (-S.P * S.D**2, -SYMS["p"] * SYMS["d"] ** 2),
    "p+A-1/q": (S.P + S.A - S.Q**-1, SYMS["p"] + SYMS["A"] - 1 / SYMS["q"]),
}
# a quotient offset only on the fixed coefficients: under random quotient
# coefficients its Scalar gcds make a single example take minutes
_ALL_OFFSETS = {**_OFFSETS, "p/(1+q)": (S.P / (1 + S.Q), SYMS["p"] / (1 + SYMS["q"]))}
_SCALES = {
    "1": (S.one, 1),
    "0": (S.zero, 0),
    "q": (S.Q, SYMS["q"]),
    "1/q": (S.Q**-1, 1 / SYMS["q"]),
    "p+q-2": (S.P + S.Q - 2, SYMS["p"] + SYMS["q"] - 2),
}


def _assert_compose_affine_matches_sympy(coeffs, scale, offset):
    (s, s_twin), (o, o_twin) = scale, offset
    f, twin = _poly1_and_twin(coeffs)
    expected = sympy.expand(twin.subs(X, s_twin * X + o_twin))
    _assert_coefficients_match(f.compose_affine(s, o), expected, len(coeffs))


def _assert_difference_matches_sympy(coeffs, step):
    o, o_twin = step
    f, twin = _poly1_and_twin(coeffs)
    expected = sympy.expand(sympy.cancel((twin.subs(X, X + o_twin) - twin) / o_twin))
    _assert_coefficients_match(f.difference(o), expected, len(coeffs))


def _poly1_and_twin(coeffs):
    f = S.Poly1([c for c, _ in coeffs], "x")
    return f, sum((tc * X**k for k, (_, tc) in enumerate(coeffs)), sympy.Integer(0))


def _assert_coefficients_match(got, expected, n):
    assert got.var == "x"
    assert not got.coeffs or not got.coeffs[-1].is_zero()
    for k in range(max(len(got.coeffs), n)):
        assert sympy.cancel(_sympy_scalar(got[k]) - expected.coeff(X, k)) == 0, (k, got)


def _sympy_scalar(x):
    """The sympy value of a Scalar, read term by term from its packed keys."""
    return _sympy_terms(x.num) / _sympy_terms(x.den)


def _sympy_terms(f: dict):
    terms = []
    for key, c in f.items():
        c = Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for name, e in zip(S.VAR_NAMES, S._unpack(key)):
            term *= SYMS[name] ** e
        terms.append(term)
    return sympy.Add(*terms)


@settings(max_examples=60, deadline=None)
@given(
    _COEFF_LISTS,
    st.sampled_from(sorted(_SCALES)).map(_SCALES.get),
    st.sampled_from(sorted(_OFFSETS)).map(_OFFSETS.get),
)
def test_compose_affine_matches_sympy(coeffs, scale, offset):
    _assert_compose_affine_matches_sympy(coeffs, scale, offset)


# degree 4 with a zero and a Laurent coefficient, so every loop bound and the
# order of shift and scaling show; all polynomial, then one with a denominator
_FIXED_COEFFS = [TWINS["p"], _const(Fraction(-3, 2)), _const(Fraction(0)), TWINS["1/q"], TWINS["A"]]
_FIXED_QUOTIENT = _FIXED_COEFFS[:3] + [_apply(("/", TWINS["d"], (S.P + 1, SYMS["p"] + 1)))] + _FIXED_COEFFS[4:]


@pytest.mark.parametrize("scale", sorted(_SCALES))
@pytest.mark.parametrize("offset", sorted(_ALL_OFFSETS))
def test_compose_affine_matches_sympy_on_every_scale_and_offset(scale, offset):
    for coeffs in (_FIXED_COEFFS, _FIXED_QUOTIENT, []):
        _assert_compose_affine_matches_sympy(coeffs, _SCALES[scale], _ALL_OFFSETS[offset])


# single-term steps only: dividing a random degree-8 shift by p + A - 1/q
# goes through a Scalar gcd that can run for minutes
_STEPS = ["d", "-d", "3/2*q^-1", "-p*d^2"]


@settings(max_examples=60, deadline=None)
@given(_COEFF_LISTS, st.sampled_from(_STEPS).map(_OFFSETS.get))
def test_difference_matches_sympy(coeffs, step):
    _assert_difference_matches_sympy(coeffs, step)


@pytest.mark.parametrize("step", sorted(k for k in _ALL_OFFSETS if k != "0"))
def test_difference_matches_sympy_on_every_step(step):
    for coeffs in (_FIXED_COEFFS, _FIXED_QUOTIENT, [], _FIXED_COEFFS[:1]):
        _assert_difference_matches_sympy(coeffs, _ALL_OFFSETS[step])

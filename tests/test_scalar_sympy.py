"""Scalar normalisation against sympy, an implementation that shares no code with it.

Random quotients in p, q, A, d (with Laurent powers of q) are built twice,
once from qweyl's symbols and once from sympy's, and the reduced qweyl
value must equal the sympy value and have coprime numerator and denominator.
Skipped when sympy is not installed; the package does not depend on it.
"""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qweyl import scalar as S

sympy = pytest.importorskip("sympy")

SYMS = {name: sympy.Symbol(name) for name in S.VAR_NAMES}
X = sympy.Symbol("x")  # the variable of the Poly1 values below
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
    return sympy.sympify(text.replace("^", "**"), locals={**SYMS, "x": X})


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
    """got is the polynomial expected in x of degree below n: read by ``[k]``,
    by ``coeffs`` and as ``text()``, and rebuilt from its coefficients."""
    assert got.var == "x"
    coeffs = got.coeffs
    assert not coeffs or not coeffs[-1].is_zero()
    assert got.degree() == (len(coeffs) - 1 if coeffs else float("-inf"))
    for k in range(max(len(coeffs), n)):
        assert got[k] == (coeffs[k] if k < len(coeffs) else S.zero), (k, got)
        assert sympy.cancel(_sympy_scalar(got[k]) - expected.coeff(X, k)) == 0, (k, got)
    # the whole text, compared at two rational points: cancelling it symbolically takes seconds,
    # and so does substituting into the sympified text, so it is read with the point's values bound
    text = got.text().replace("^", "**")
    for point in _POINTS:
        value = sympy.sympify(text, locals={str(symbol): v for symbol, v in point.items()})
        assert value == expected.xreplace(point), got
    assert S.Poly1(coeffs, got.var) == got


_POINTS = [
    {X: sympy.Rational(*x), **{SYMS[name]: sympy.Rational(*v) for name, v in zip("pqAd", values)}}
    for x, values in (((19, 23), ((3, 7), (5, 11), (2, 13), (7, 17))), ((-5, 3), ((-9, 4), (8, 3), (-1, 6), (4, 9))))
]


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
    st.sampled_from(sorted(_ALL_OFFSETS)).map(_ALL_OFFSETS.get),
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


_STEPS = ["d", "-d", "3/2*q^-1", "-p*d^2", "p+A-1/q"]


@settings(max_examples=60, deadline=None)
@given(_COEFF_LISTS, st.sampled_from(_STEPS).map(_OFFSETS.get))
def test_difference_matches_sympy(coeffs, step):
    _assert_difference_matches_sympy(coeffs, step)


@pytest.mark.parametrize("step", sorted(k for k in _ALL_OFFSETS if k != "0"))
def test_difference_matches_sympy_on_every_step(step):
    for coeffs in (_FIXED_COEFFS, _FIXED_QUOTIENT, [], _FIXED_COEFFS[:1]):
        _assert_difference_matches_sympy(coeffs, _ALL_OFFSETS[step])


# --- Poly1 is one packed Scalar: arithmetic and the representation actions ---------------
#
# Coefficients over different denominators that share factors with other
# coefficients' numerators, so that bringing them over one denominator, and
# reading each coefficient back, needs gcds that involve the key field X.

_FACTORS = [
    (S.one + S.Q, 1 + SYMS["q"]),
    (S.P - 1, SYMS["p"] - 1),
    (S.P + S.Q, SYMS["p"] + SYMS["q"]),
    (S.Q * S.A + 1, SYMS["q"] * SYMS["A"] + 1),
    (S.D, SYMS["d"]),
]


def _ratio(picks):
    k, nums, dens = picks
    x, twin = _const(Fraction(k))
    for i in nums:
        x, twin = x * _FACTORS[i][0], twin * _FACTORS[i][1]
    for i in dens:
        x, twin = x / _FACTORS[i][0], twin / _FACTORS[i][1]
    return x, twin


_FACTOR_INDEX = st.integers(0, len(_FACTORS) - 1)
_RATIOS = st.tuples(st.integers(-3, 3), st.lists(_FACTOR_INDEX, max_size=2), st.lists(_FACTOR_INDEX, max_size=2)).map(_ratio)
_POLY1_COEFF_LISTS = st.lists(_RATIOS | LEAVES, max_size=4)


@settings(max_examples=60, deadline=None)
@given(_POLY1_COEFF_LISTS)
def test_poly1_reads_back_its_coefficients(coeffs):
    f, twin = _poly1_and_twin(coeffs)
    # one denominator, free of X, and the whole value already in canonical form
    assert max(f.value.den) < S.X_UNIT
    again = S.Scalar(dict(f.value.num), dict(f.value.den))
    assert (again.num, again.den) == (f.value.num, f.value.den)
    _assert_coefficients_match(f, sympy.expand(twin), len(coeffs))


@settings(max_examples=60, deadline=None)
@given(_POLY1_COEFF_LISTS, _POLY1_COEFF_LISTS, st.sampled_from("+-*"))
def test_poly1_arithmetic_matches_sympy(coeffs, others, op):
    (f, twin), (g, other_twin) = _poly1_and_twin(coeffs), _poly1_and_twin(others)
    got, expected = _apply((op, (f, twin), (g, other_twin)))
    _assert_coefficients_match(got, sympy.expand(expected), len(coeffs) + len(others))


@settings(max_examples=40, deadline=None)
@given(st.lists(_RATIOS | LEAVES, max_size=3), st.integers(0, 3))
def test_poly1_powers_match_sympy(coeffs, n):
    f, twin = _poly1_and_twin(coeffs)
    _assert_coefficients_match(f**n, sympy.expand(twin**n), 3 * n + 1)


@settings(max_examples=60, deadline=None)
@given(_POLY1_COEFF_LISTS)
def test_poly1_actions_match_sympy(coeffs):
    f, twin = _poly1_and_twin(coeffs)
    q = SYMS["q"]
    n = len(coeffs) + 1
    _assert_coefficients_match(f.derivative(), sympy.expand(sympy.diff(twin, X)), n)
    _assert_coefficients_match(f.mul_x(), sympy.expand(X * twin), n)
    # the Jackson derivative as a difference quotient, with no q-number in it
    jackson = sympy.cancel((twin.subs(X, q * X) - twin) / ((q - 1) * X))
    _assert_coefficients_match(f.q_derivative(), sympy.expand(jackson), n)


# --- the heuristic gcd against sympy's, and against its own PRS fallback ---------------------

_GCD_MAPS = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4).map(lambda e: S._pack(*e)),
    st.integers(-9, 9).filter(bool) | st.sampled_from([Fraction(1, 2), Fraction(-2, 3), 10**30 + 7]),
    min_size=1,
    max_size=4,
)


def _assert_gcd_matches_sympy(f: dict, g: dict):
    """_mp_gcd(f, g) = (h, a, b): h is sympy's gcd up to a unit, a = c*f/h and b = c*g/h."""
    h, a, b = S._mp_gcd(f, g)
    expected = sympy.gcd(_sympy_map(f), _sympy_map(g))
    unit = sympy.cancel(_sympy_map(h) / expected)
    assert unit.is_number and unit != 0, (S._mp_text(h), expected)
    c = sympy.cancel(_sympy_map(a) * _sympy_map(h) / _sympy_map(f))
    assert c.is_number and c != 0
    assert sympy.expand(_sympy_map(b) * _sympy_map(h) - c * _sympy_map(g)) == 0
    return h


def _packed(terms: dict) -> dict:
    return {S._pack(*e): c for e, c in terms.items()}


# A draw of the test below (Hypothesis seed 16) in p, q, A, d with 100-bit
# coefficients.  Evaluated past the heuristic gcd's old 2^16-bit cap, it fell
# back to the PRS gcd, which ran for minutes; sympy.gcd takes 0.02 s.
_BIG = 10**30 + 7
_SLOW_PRS_DRAW = (
    _packed({(2, 1, 0, 2): _BIG, (2, 0, 0, 0): _BIG, (2, 1, 1, 0): Fraction(1, 2), (0, 0, 2, 2): _BIG}),
    _packed({(0, 2, 2, 0): Fraction(1, 2), (2, 1, 0, 2): _BIG, (0, 0, 0, 0): _BIG, (2, 1, 1, 0): Fraction(1, 2)}),
    _packed({(0, 2, 2, 1): -8, (2, 1, 1, 1): _BIG, (1, 1, 1, 0): Fraction(1, 2), (1, 1, 0, 1): Fraction(-2, 3)}),
)


@settings(max_examples=80, deadline=None)
@given(_GCD_MAPS, _GCD_MAPS, _GCD_MAPS)
@example(*_SLOW_PRS_DRAW)
def test_gcd_matches_sympy_on_a_planted_factor(common, u, w):
    _assert_gcd_matches_sympy(S._mp_mul(common, u), S._mp_mul(common, w))


def test_gcd_of_the_slow_prs_draw_finishes_in_a_subprocess():
    # a subprocess, so a regression fails at the timeout instead of holding the run
    common, u, w = _SLOW_PRS_DRAW
    code = (
        "from fractions import Fraction\n"
        "from qweyl import scalar as S\n"
        "common, u, w = %r, %r, %r\n"
        "h = S._mp_gcd(S._mp_mul(common, u), S._mp_mul(common, w))[0]\n"
        "print(len(h))\n" % (common, u, w)
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert (r.returncode, r.stdout) == (0, "%d\n" % len(common))


def test_gcd_tries_a_second_point_when_the_first_is_unlucky(monkeypatch):
    # w's coefficients sum to 65537 = 2^16 + 1 at q = -1, so at the first point,
    # xi = 2^16, both images share the prime xi + 1 besides the gcd's image
    q = S.Q
    w = sum(((-1) ** i * m * q**i for i, m in enumerate((9363, 9363, 9363, 9362, 9362, 9362, 9362))), S.zero)
    f, g = ((q + 1) * (q + 2)).num, (w * (q + 2)).num
    points = []
    digits = S._heu_digits

    def spy(h, shift, bits):
        points.append(bits)
        return digits(h, shift, bits)

    monkeypatch.setattr(S, "_heu_digits", spy)
    h = _assert_gcd_matches_sympy(f, g)
    assert points == [16, 24]
    assert len(h) == 2


_MULTIPLIERS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2), st.integers(0, 1)).map(lambda e: S._pack(*e)),
    st.integers(-4, 4).filter(bool) | st.just(Fraction(3, 5)),
    min_size=1,
    max_size=3,
)


# small quotients: the PRS gcd can take minutes on the larger ones
@settings(max_examples=60, deadline=None)
@given(_quotients(4), _MULTIPLIERS)
def test_heuristic_and_prs_gcd_give_one_scalar(pair, multiplier):
    x, _twin = pair
    if not x:
        return
    # the same value with a common factor, Laurent in q, reduced by each gcd
    num, den = S._mp_mul(x.num, multiplier), S._mp_mul(x.den, multiplier)
    assert S.Scalar(dict(num), dict(den)) == x
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "_heu_gcd", lambda f, g, fields: None)
        assert S.Scalar(dict(num), dict(den)) == x


def test_q_laurent_quotient_matches_sympy():
    q, p, a = S.Q, S.P, S.A
    x = (q**-2 * (1 + q) * (p - q) * (q**3 - a)) / (q**3 * (1 + q) * (a + q) * (q**3 - a))
    sq, sp, sa = SYMS["q"], SYMS["p"], SYMS["A"]
    assert sympy.cancel(_sympy_of(x.canonical()) - (sp - sq) / (sq**5 * (sa + sq))) == 0
    assert (x.num, x.den) == (((p - q) * q**-5).num, (a + q).num)

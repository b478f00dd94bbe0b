"""The sparse term-map kernels against a naive reference on exponent tuples.

The reference keeps polynomials as {(ep, eq, ea, ed): Fraction} and adds
exponent tuples componentwise; it shares nothing with the kernels' packed-key
arithmetic except the packing used to compare the two.  Products by a run
(``mpoly_mul``'s window sums) are also checked against a schoolbook product
on packed keys, for coefficients the tuple reference does not cover and for
keys that leave the exponent range.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import _kernels as K
from qweyl.scalar import _EXP_LIMIT, _QOFF, KEY_ONE, P, Q, Scalar, ScalarError, _mp_checked, _pack

# q exponents just above the lowest packable value sit next to the field's
# borrow boundary; the right-hand operands keep q exponents >= 0 so that every
# product stays packable.
_NEAR_BIAS = st.integers(-_QOFF + 1, -_QOFF + 4)
_LEFT_EXP = st.tuples(st.integers(0, 2), st.one_of(st.integers(-2, 2), _NEAR_BIAS), st.integers(0, 2), st.integers(0, 2))
_RIGHT_EXP = st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
# few distinct values, so sums and products cancel often
_COEFF = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)])


def _polys(exps):
    return st.dictionaries(exps, _COEFF, max_size=8)


def pack(poly: dict) -> dict:
    return {_pack(*e): c for e, c in poly.items()}


def _pruned(poly: dict) -> dict:
    return {e: c for e, c in poly.items() if c}


def ref_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _pruned(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _pruned(out)


@settings(max_examples=200, deadline=None)
@given(_polys(_LEFT_EXP), _polys(_LEFT_EXP))
def test_add_sub_neg(a, b):
    pa, pb = pack(a), pack(b)
    assert K.mpoly_add(pa, pb) == pack(ref_add(a, b))
    assert K.mpoly_sub(pa, pb) == pack(ref_add(a, b, -1))
    assert K.mpoly_neg(pa) == pack({e: -c for e, c in a.items()})
    assert (pa, pb) == (pack(a), pack(b))  # inputs are not modified


@settings(max_examples=200, deadline=None)
@given(_polys(_LEFT_EXP), _polys(_RIGHT_EXP))
def test_mul(a, b):
    want = pack(ref_mul(a, b))
    assert K.mpoly_mul(pack(a), pack(b), KEY_ONE) == want
    assert K.mpoly_mul(pack(b), pack(a), KEY_ONE) == want


@settings(max_examples=200, deadline=None)
@given(_polys(_LEFT_EXP), _polys(_LEFT_EXP), _RIGHT_EXP, st.one_of(st.just(Fraction(0)), _COEFF))
def test_axpy_shift(acc, src, e, c):
    # the shift that moves a key by the exponent tuple e
    want = pack(ref_add(acc, ref_mul(src, {e: c}))) if c else pack(acc)
    packed = pack(acc)
    assert K.axpy_shift(packed, pack(src), _pack(*e) - KEY_ONE, c) is packed  # in place
    assert packed == want


def test_cancellation_prunes_to_empty():
    a = pack({(0, -1, 0, 0): Fraction(3), (1, -_QOFF + 1, 0, 2): Fraction(-1, 2)})
    assert K.mpoly_add(a, K.mpoly_neg(a)) == {}
    assert K.mpoly_sub(a, a) == {}
    acc = dict(a)
    assert K.axpy_shift(acc, a, 0, Fraction(-1)) == {}


def test_cancellation_prunes_single_terms():
    # (x + 1)(x - 1): the cross terms cancel and must not stay as zero entries
    x_plus, x_minus = pack({(0, 1, 0, 0): 1, (0, 0, 0, 0): 1}), pack({(0, 1, 0, 0): 1, (0, 0, 0, 0): -1})
    assert K.mpoly_mul(x_plus, x_minus, KEY_ONE) == pack({(0, 2, 0, 0): 1, (0, 0, 0, 0): -1})


def test_empty_operands():
    a = pack({(1, -2, 0, 1): Fraction(5, 3)})
    assert K.mpoly_add({}, a) == a and K.mpoly_add({}, a) is not a
    assert K.mpoly_add(a, {}) == a and K.mpoly_add(a, {}) is not a
    assert K.mpoly_sub({}, a) == K.mpoly_neg(a)
    assert K.mpoly_mul({}, a, KEY_ONE) == {} == K.mpoly_mul(a, {}, KEY_ONE)
    assert K.axpy_shift({}, {}, 5, Fraction(1)) == {}


# --- products by a run c*x^k0*(1 + x^D + ... + x^((n-1)D)): the window sums -----------

_RUN_LEN = st.integers(K._RUN_MIN, K._RUN_MIN + 5)
# exponent steps (p, q, A, d, X): q as in [n]_q, a step across two fields as
# in [n]_(p*q), q^2, and one in a Poly1's variable X
_STEP = st.sampled_from([(0, 1, 0, 0, 0), (1, 1, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)])
_START = st.tuples(st.integers(0, 2), st.one_of(st.integers(-2, 2), _NEAR_BIAS), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
# q spread over three run lengths, so positions on one line fall inside one
# window, exactly one run length apart and further; p and A start new lines
_OTHER = st.tuples(st.integers(0, 2), st.integers(0, 3 * (K._RUN_MIN + 5)), st.integers(0, 1), st.integers(0, 1), st.integers(0, 2))


def _run(start: tuple, step: tuple, n: int, c) -> dict:
    return {tuple(e + t * d for e, d in zip(start, step)): c for t in range(n)}


def schoolbook(a: dict, b: dict, bias: int) -> dict:
    """a*b on packed keys, one product per term pair."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb - bias
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _assert_mul(a: dict, b: dict, bias: int, want: dict):
    assert K.mpoly_mul(a, b, bias) == want
    assert K.mpoly_mul(b, a, bias) == want


_INT_OR_FRACTION = st.one_of(_COEFF, st.integers(-3, 3).filter(bool))


@settings(max_examples=300, deadline=None)
@given(_RUN_LEN, _STEP, _START, _INT_OR_FRACTION, st.dictionaries(_OTHER, _INT_OR_FRACTION, max_size=40))
def test_mul_by_a_run(n, step, start, c, other):
    run = _run(start, step, n, c)
    assert K._run_step(pack(run)) == _pack(*step) - KEY_ONE
    _assert_mul(pack(run), pack(other), KEY_ONE, pack(ref_mul(run, other)))


_SCALARS = st.sampled_from([Scalar.of(1), Scalar.of(-2), P + 1, Q**-1, (1 + Q) ** -1, P / (P - Q)])


@settings(max_examples=100, deadline=None)
@given(
    _RUN_LEN,
    st.sampled_from([1, 1 << 20, (1 << 40) + 1]),
    _SCALARS,
    st.dictionaries(st.integers(0, 1 << 22), _SCALARS, max_size=30),
)
def test_mul_by_a_run_of_scalars(n, step, c, other):
    # PBW-style term maps of Scalar coefficients with constant-term key 0,
    # as the engine's two-sided middle products multiply them
    run = {t * step: c for t in range(n)}
    _assert_mul(run, other, 0, schoolbook(run, other, 0))


def test_mul_by_a_run_with_positions_exactly_one_run_apart():
    # windows that only touch: a span must not take in the next one's values
    n = K._RUN_MIN
    run = pack(_run((0, 0, 0, 0), (0, 1, 0, 0), n, 1))
    for signs in ((1,) * (n + 2), tuple((-1) ** t for t in range(n + 2))):
        other = pack({(0, t * n, 0, 0): s * (t + 1) for t, s in enumerate(signs)})
        want = pack({(0, t * n + u, 0, 0): s * (t + 1) for t, s in enumerate(signs) for u in range(n)})
        _assert_mul(run, other, KEY_ONE, want)
        # one step closer: every window but the last overlaps the next one
        other = pack({(0, t * (n - 1), 0, 0): s for t, s in enumerate(signs)})
        _assert_mul(run, other, KEY_ONE, schoolbook(run, other, KEY_ONE))


def test_mul_by_a_run_cancels_inside_a_line():
    # [n]_q (1 - q) = 1 - q^n on each of several lines, one per power of A
    n = K._RUN_MIN + 1
    run = _run((0, 0, 0, 0), (0, 1, 0, 0), n, 1)
    other = {e: c for r in range(n) for e, c in (((0, 0, r, 0), 1), ((0, 1, r, 0), -1))}
    want = {e: c for r in range(n) for e, c in (((0, 0, r, 0), 1), ((0, n, r, 0), -1))}
    _assert_mul(pack(run), pack(other), KEY_ONE, pack(want))
    negated = {e: -c for e, c in run.items()}
    _assert_mul(pack(run), pack(negated), KEY_ONE, pack(ref_mul(run, negated)))


@settings(max_examples=100, deadline=None)
@given(
    _RUN_LEN,
    st.sampled_from([(0, 1, 0, 0), (1, 1, 0, 0)]),
    st.sampled_from([_EXP_LIMIT - K._RUN_MIN - 8, -_QOFF + 1]),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(-3, 12), st.integers(0, 1), st.integers(0, 1)), _COEFF, max_size=30),
)
def test_mul_by_a_run_next_to_a_guard_bit(n, step, q0, other):
    # runs at the top or the bottom of the q field: products leave the range
    # through the guard bit or a borrow, so the window sums must form exactly
    # schoolbook's keys for _mp_checked to refuse exactly the same products
    run = pack(_run((0, q0, 0, 0), step, n, Fraction(-3, 2)))
    _assert_mul(run, pack(other), KEY_ONE, schoolbook(run, pack(other), KEY_ONE))


def test_mul_by_a_run_past_the_top_of_the_q_field_is_refused():
    n = K._RUN_MIN
    top = pack(_run((0, _EXP_LIMIT - n + 1, 0, 0), (0, 1, 0, 0), n, 1))
    with pytest.raises(ScalarError, match="exponent limit"):
        _mp_checked(K.mpoly_mul(top, pack({(0, t, 0, 0): 1 for t in range(n + 1)}), KEY_ONE))


def test_run_step_refuses_what_is_not_a_run():
    n = K._RUN_MIN
    run = _run((0, 0, 0, 0), (0, 1, 0, 0), n, 1)
    assert K._run_step(pack(run)) == _pack(0, 1, 0, 0) - KEY_ONE
    assert not K._run_step(pack({**run, (0, n - 1, 0, 0): 2}))  # unequal values
    assert not K._run_step(pack({**_run((0, 0, 0, 0), (0, 1, 0, 0), n - 1, 1), (0, n, 0, 0): 1}))  # a gap
    # equal values and q exponents 0, 1, 4, 6, ..., 2(n-1): a whole step of q^2, but 1 is off its line
    assert not K._run_step(pack({(0, e, 0, 0): 1 for e in [0, 1] + [2 * t for t in range(2, n)]}))

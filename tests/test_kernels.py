"""The sparse term-map kernels against a naive reference on exponent tuples.

The reference keeps polynomials as {(ep, eq, ea, ed): Fraction} and adds
exponent tuples componentwise; it shares nothing with the kernels' packed-key
arithmetic except the packing used to compare the two.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import _kernels as K
from qweyl.scalar import _QOFF, KEY_ONE, _pack

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

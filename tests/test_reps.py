"""Representation tests: relation table, realized identities, Fock matrices."""

import collections
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from qweyl import reps as R
from qweyl import weyl as W
from qweyl.identities import IdentityCase, build, verify, word_pair
from qweyl.reps import (
    ALL_POLY_REPS,
    FockRep,
    ParameterMismatchError,
    TruncationError,
    affine_fock,
    check_identity_on_basis,
    delta_rep,
    diff_ab,
    diff_ba,
    eq1_first_check,
    eq1_second_check,
    eq2_check,
    eq3_check,
    eq4_check,
    eq20_check,
    eq22_constant,
    falling_factorial,
    fock_matrix,
    fock_theorem3_spotcheck,
    fock_vs_abstract_spotcheck,
    fock_word_matrix,
    fock_words_equal,
    hq_fock,
    jackson,
    morphism_check,
    op_compose,
    op_gen,
    op_pow,
    realize,
    rep_relation_check,
    sequence_residual,
    xpow,
)
from qweyl.scalar import D, P, Poly1, Q, Scalar, one, qnum, zero

from catalog_cases import criterion_3_cases
from oracles import random_word


# --- the relation table -----------------------------------------------------------


def test_relation_table_exact():
    expected = {
        "diff_ab": (one, one),
        "diff_ba": (one, -one),
        "jackson": (Q, one),
        "delta": (one, one),
    }
    for name, rep in ALL_POLY_REPS().items():
        assert (rep.sigma, rep.rho) == expected[name]
        assert rep_relation_check(rep, 12).passed, name


def test_diff_ba_oracle():
    # direct expansion: (x d - d x) x^k = -x^k
    rep = diff_ba()
    for k in range(6):
        f = xpow(k)
        lhs = rep.apply("a", rep.apply("b", f)) - rep.apply("b", rep.apply("a", f))
        assert lhs == f * (-one)


# --- generator actions ---------------------------------------------------------------


def test_jackson_action_on_monomial():
    assert jackson().apply("a", xpow(3)) == xpow(2) * qnum(3)
    assert jackson().apply("b", xpow(3)) == xpow(4)


def test_delta_forward_difference():
    got = delta_rep().apply("a", xpow(2))
    assert got == Poly1([D, Scalar.of(2)], "x")  # 2x + d


def test_diff_kills_constants():
    assert diff_ab().apply("a", xpow(0)).is_zero()


@pytest.mark.parametrize("name", sorted(ALL_POLY_REPS()))
def test_poly_reps_know_a_and_b_only(name):
    with pytest.raises(ParameterMismatchError):
        ALL_POLY_REPS()[name].apply("N", xpow(1))


def test_delta_two_constructors_agree():
    shift_form = delta_rep()
    for k in range(8):
        f = xpow(k)
        # the backward-difference spelling x(1 - d D-) of the same operator
        dminus = (f - f.compose_affine(one, -D)) * (one / D)
        explicit = (f - dminus * D)
        explicit = Poly1([zero] + explicit.coeffs, "x") if explicit.coeffs else explicit
        assert shift_form.apply("b", f) == explicit


# --- realize / morphism ------------------------------------------------------------------


def test_realize_euler_operator():
    rel = W.heisenberg(one, one)
    op = realize(rel.word("ba"), diff_ab())
    for k in range(6):
        assert op(xpow(k)) == xpow(k) * Scalar.of(k)


def test_realize_ladder_generator():
    # b^2 a - n b acts as x^2 d/dx - n x
    rel = W.heisenberg(one, one)
    n = 2
    nf = rel.word("bba") - Scalar.of(n) * rel.gen("b")
    op = realize(nf, diff_ab())
    for k in range(5):
        assert op(xpow(k)) == xpow(k + 1) * Scalar.of(k - n)


def test_realize_jackson_ab():
    rel = W.heisenberg(Q, one)
    op = realize(rel.word("ab"), jackson())
    for k in range(6):
        # oracle: apply-twice composition
        direct = jackson().apply("a", jackson().apply("b", xpow(k)))
        assert op(xpow(k)) == direct == xpow(k) * qnum(k + 1)


def test_realize_parameter_mismatch():
    nf = W.hq().word("ab")  # symbolic sigma=q, rho=p
    with pytest.raises(ParameterMismatchError):
        realize(nf, diff_ab())
    bound = nf.substitute({"p": 1, "q": 1})
    assert realize(bound, diff_ab())(xpow(1)) == xpow(1) + diff_ab().apply("b", diff_ab().apply("a", xpow(1)))


def test_morphism_examples():
    assert morphism_check("abab", diff_ab(), 8).passed
    assert morphism_check("b", delta_rep(), 6).passed
    assert morphism_check("abbb", jackson(), 10).passed


def test_morphism_random_words():
    rng = random.Random(909)
    for name, rep in ALL_POLY_REPS().items():
        for _ in range(50):
            word = random_word(rng, rng.randint(1, 6))
            assert morphism_check(word, rep, 10).passed, (name, word)


# --- realized identities --------------------------------------------------------------------


@pytest.mark.parametrize("n", (1, 2, 3))
def test_eq1_first(n):
    assert eq1_first_check(n).passed


def test_eq1_second_as_printed_fails_with_cross_identity():
    v = eq1_second_check(1, corrected=False)
    assert v.status == "fail"
    assert "d^2 x^2 d^2" in v.detail


def test_eq1_second_evaluates_each_side_once(monkeypatch):
    # lhs, rhs and the cross identity d^2 x^2 d^2: three images of each x^k, not four
    built = collections.Counter()
    xpow_before = R.xpow

    def counting_xpow(k):
        built[k] += 1
        return xpow_before(k)

    monkeypatch.setattr(R, "xpow", counting_xpow)
    v = eq1_second_check(1, corrected=False)
    assert built == {k: 3 for k in range(9)}
    # verdict and detail as recorded before the images were shared
    assert v.detail == "as printed, the left side equals d^2 x^2 d^2"
    assert [(k, d.text()) for k, d in v.residual] == [
        (2, "-20"),
        (3, "-84*x"),
        (4, "-216*x^2"),
        (5, "-440*x^3"),
        (6, "-780*x^4"),
        (7, "-1260*x^5"),
        (8, "-1904*x^6"),
    ]


@pytest.mark.parametrize("n", (1, 2, 3))
def test_eq1_second_corrected(n):
    assert eq1_second_check(n, corrected=True).passed


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_eq2_diff_and_jackson(n):
    for rep in (diff_ab(), jackson()):
        assert eq2_check(rep, n, "a").passed
        assert eq2_check(rep, n, "b").passed


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_eq3(n):
    assert eq3_check(n).passed


@pytest.mark.parametrize("n", (1, 2, 3))
def test_eq4_symbolic_delta(n):
    assert eq4_check(n).passed


@pytest.mark.parametrize("n", (1, 2, 3))
def test_eq20_symbolic_q(n):
    assert eq20_check(n).passed


def test_eq20_example_n2():
    # xD(xD-{1})(xD-{2}) = q^3 x^3 D^3 on low monomials
    rep = jackson()
    a, b = op_gen(rep, "a"), op_gen(rep, "b")
    T = op_compose(b, a)
    lhs = op_compose(T, lambda f: T(f) - f * qnum(1), lambda f: T(f) - f * qnum(2))
    rhs = lambda f: op_compose(b, b, b, a, a, a)(f) * Q**3
    assert check_identity_on_basis(lhs, rhs, 8).passed


@pytest.mark.parametrize("n", (0, 1, 2, 3))
def test_eq22_constant_found_and_differs(n):
    verdict, c, matches_printed = eq22_constant(n)
    assert verdict.passed
    assert c == one
    assert not matches_printed  # printed value d^(n+1) is not the constant found


@pytest.mark.parametrize("n", (1, 2, 3))
def test_eq22_constant_evaluates_each_basis_vector_once_per_side(monkeypatch, n):
    # the ladder (lhs) and the power of the backward difference (rhs) each see
    # x^0..x^K once; their images give both the constant and the verdict
    seen = {"lhs": [], "rhs": []}

    def counted(side, op):
        def wrapped(f):
            seen[side].append(f.degree())
            return op(f)

        return wrapped

    ladder_before, pow_before = R._ladder, R.op_pow
    monkeypatch.setattr(R, "_ladder", lambda T, cs: counted("lhs", ladder_before(T, cs)))
    monkeypatch.setattr(R, "op_pow", lambda o, m: counted("rhs", pow_before(o, m)))
    verdict, c, matches_printed = eq22_constant(n)
    K = 4 * (n + 1) + 4
    assert sorted(seen["lhs"]) == list(range(K + 1))
    assert sorted(seen["rhs"]) == list(range(K + 1))
    # the values recorded before the images were shared
    assert (verdict.status, c.canonical(), matches_printed) == ("pass", "(1)/(1)", False)
    assert verdict.detail == "constant 1; printed d^%d differs" % (n + 1)


def test_op_pow_rejects_negative_powers():
    b = op_gen(diff_ab(), "b")
    with pytest.raises(ValueError):
        op_pow(b, -1)
    assert op_pow(b, 0)(xpow(2)) == xpow(2)
    assert op_pow(b, 2)(xpow(2)) == xpow(4)


# --- Fock representations ---------------------------------------------------------------------


def test_hq_fock_diagonal():
    rep = hq_fock(L=8)  # symbolic p, q
    m = fock_matrix(W.hq().word("ab"), rep)
    for n in range(m.window + 1):
        assert m.column(n) == {n: P * qnum(n + 1)}


def test_fock_relation_on_window():
    rep = hq_fock(L=10)
    ma = fock_word_matrix("a", rep)
    mb = fock_word_matrix("b", rep)
    resid = (ma @ mb) - (mb @ ma).scale(Q)
    for n in range(resid.window + 1):
        assert resid.column(n) == {n: P}


def test_fock_zero_element():
    rep = hq_fock(L=6)
    rel = W.hq()
    assert fock_matrix(rel.scalar_nf(0), rep).entries == {}


def test_fock_matrix_word_vs_nf_symbolic():
    rel = W.hq()
    rep = hq_fock(L=10)
    for word in ("ab", "ba", "abba", "babab"):
        assert fock_matrix(rel.word(word), rep).windowed_equal(fock_word_matrix(word, rep))


def test_fock_truncation_guard():
    rep = hq_fock(L=4)
    with pytest.raises(TruncationError):
        fock_word_matrix("ababab", rep)
    with pytest.raises(TruncationError):
        FockRep([one], 1)


def test_fock_matrix_negative_power_rejected():
    m = fock_word_matrix("a", hq_fock(L=4))
    with pytest.raises(ValueError):
        m.matpow(-1)


def test_fock_rejects_inexact_sequences():
    with pytest.raises(Exception):
        FockRep([0.5, 1.5], 2)


def test_theorem3_random_sequences():
    assert fock_theorem3_spotcheck(seed=7, L=14, trials=5).passed


def test_theorem3_aba_squared_any_sequence():
    rng = random.Random(31)
    seq = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(14)]
    rep = FockRep(seq)
    lhs = fock_word_matrix("aba", rep)
    assert (lhs @ lhs).windowed_equal(fock_word_matrix("aabbaa", rep))


def test_affine_certified_sequences():
    assert R.fock_affine_spotcheck(seed=3).passed


def test_fock_vs_abstract_random_words():
    assert fock_vs_abstract_spotcheck(seed=11, L=12, words=50).passed


def test_sequence_residual_hq():
    # ba = f(ab) for the deformed relation has f(t) = (t - p)/q
    p, q = Fraction(2, 3), Fraction(5, 7)
    rep = hq_fock(p=p, q=q, L=10)
    f = Poly1([Scalar.of(-p) / q, one / Scalar.of(q)], "t")
    assert all(r.is_zero() for r in sequence_residual(f, rep))


def test_sequence_residual_identity_map():
    rep = FockRep([Scalar.of(3)] * 6, 6)
    f = Poly1([0, 1], "t")
    res = sequence_residual(f, rep)
    assert res[0] == Scalar.of(-3)  # t_(-1) = 0 vs f(t_0) = 3
    assert all(r.is_zero() for r in res[1:])


def test_affine_fock_matches_hq():
    p, q = Fraction(1, 2), Fraction(3, 4)
    via_affine = affine_fock(Fraction(1) / q, -p / q, 8)
    via_hq = hq_fock(p=p, q=q, L=8)
    assert via_affine.seq == via_hq.seq


def test_falling_factorial():
    f = falling_factorial(3, D)
    assert f == Poly1([zero, 2 * D**2, -3 * D, one], "x")


def test_render_rows_golden():
    rep = hq_fock(p=1, q=1, L=3)
    m = fock_word_matrix("a", rep)
    assert m.render_rows() == [
        ["(0)/(1)", "(1)/(1)", "(0)/(1)", "(0)/(1)"],
        ["(0)/(1)", "(0)/(1)", "(2)/(1)", "(0)/(1)"],
        ["(0)/(1)", "(0)/(1)", "(0)/(1)", "(3)/(1)"],
        ["(0)/(1)", "(0)/(1)", "(0)/(1)", "(0)/(1)"],
    ]


# --- deciding word identities in the Fock representation ------------------------------


def _engine_equal(rel, w1, w2):
    return (rel.word(w1) - rel.word(w2)).is_zero()


def test_fock_words_equal_agrees_with_engine_on_criterion_3():
    # the engine, not verify, settles each case: verify takes the Fock decision
    rel = W.hq()
    for case in criterion_3_cases(rel):
        lhs, rhs = build(case)
        assert fock_words_equal(rel, *word_pair(case)) is (lhs - rhs).is_zero(), (case.id, case.args())


def test_cyclotomic_counts_decide_products_of_q_integers():
    # [k]_q = prod_(d | k, d > 1) Phi_d(q), so equal counts mean equal products and back
    multisets = [ms for size in (1, 2) for ms in itertools.combinations_with_replacement(range(1, 9), size)]
    product = {ms: math.prod((qnum(k) for k in ms), start=one) for ms in multisets}
    for s1, s2 in itertools.product(multisets, repeat=2):
        assert (R._cyclotomic_counts(s1) == R._cyclotomic_counts(s2)) is (product[s1] == product[s2]), (s1, s2)


def _random_pairs(rng):
    """300 permuted word pairs and 200 commutator pairs U V, V U."""
    pairs = []
    for _ in range(300):
        w = random_word(rng, rng.randint(1, 8))
        pairs.append((w, "".join(rng.sample(w, len(w)))))
    for _ in range(200):
        # half the factors have grade 0; those all commute, so both verdicts occur
        u, v = (
            "".join(rng.sample("ab" * t, 2 * t)) if rng.random() < 0.5 else random_word(rng, t)
            for t in (rng.randint(1, 3), rng.randint(1, 3))
        )
        pairs.append((u + v, v + u))
    return pairs


# at sigma = 0 every [k]_sigma is 1, so only the kill pattern tells words apart
@pytest.mark.parametrize(
    "rel",
    [W.hq(), W.hq(p=3, q=7), W.heisenberg(1, 1), W.heisenberg(P * Q, P), W.hq(q=0)],
    ids=["hq", "p3q7", "heisenberg11", "sigma_pq", "q=0"],
)
def test_fock_words_equal_agrees_with_engine_on_random_words(rel):
    verdicts = []
    for w1, w2 in _random_pairs(random.Random(6)):
        got = fock_words_equal(rel, w1, w2)
        assert got is _engine_equal(rel, w1, w2), (w1, w2)
        verdicts.append(got)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 50


@pytest.mark.parametrize(
    "rel",
    [W.hq(q=-1), W.hq(p=0), W.heisenberg(one + Q, 1), W.extended()],
    ids=["q=-1", "p=0", "multi-term-sigma", "extended"],
)
def test_fock_words_equal_leaves_undecided_cases_to_the_engine(rel):
    assert fock_words_equal(rel, "aabb", "abab") is None
    assert fock_words_equal(rel, "abab", "abab") is None


def test_fock_words_equal_needs_equal_letter_counts():
    assert fock_words_equal(W.hq(), "ab", "abab") is None
    assert fock_words_equal(W.hq(), "ab", "aa") is None


def test_fock_words_equal_beyond_the_engine():
    rel = W.hq()
    case = IdentityCase("COR2b", rel, ns=(4, 4), ms=(4, 4), k=2)
    t0 = time.perf_counter()
    assert verify(case).passed
    assert time.perf_counter() - t0 < 1.0
    w1, w2 = word_pair(case)
    for at in (w1.index("ab"), w1.rindex("ab")):
        swapped = w1[:at] + "ba" + w1[at + 2 :]
        assert fock_words_equal(rel, swapped, w2) is False

"""Representation tests: relation table, realized identities, Fock matrices."""

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
    op_add,
    op_compose,
    op_mulpoly,
    op_pow,
    op_scale,
    realize,
    rep_relation_check,
    sequence_residual,
)
from qweyl.scalar import D, P, Poly1, Q, Scalar, one, qnum, zero

from catalog_cases import criterion_3_cases
from oracles import fock_matrix_per_level, fock_word_matrix_per_level, fock_words_equal_per_level, random_word


def _xpow(k: int) -> Poly1:
    """The basis monomial x^k."""
    return Poly1.monomial(one, k, "x")


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
        f = _xpow(k)
        lhs = rep.a(rep.b(f)) - rep.b(rep.a(f))
        assert lhs == f * (-one)


# --- generator actions ---------------------------------------------------------------


def test_jackson_action_on_monomial():
    assert jackson().a(_xpow(3)) == _xpow(2) * qnum(3)
    assert jackson().b(_xpow(3)) == _xpow(4)


def test_delta_forward_difference():
    got = delta_rep().a(_xpow(2))
    assert got == Poly1([D, Scalar.of(2)], "x")  # 2x + d


def test_diff_kills_constants():
    assert diff_ab().a(_xpow(0)).is_zero()


@pytest.mark.parametrize("name", sorted(ALL_POLY_REPS()))
def test_poly_reps_know_a_and_b_only(name):
    rep = ALL_POLY_REPS()[name]
    with pytest.raises(W.WordError):
        morphism_check("aNb", rep, 2)
    with pytest.raises(ParameterMismatchError):
        realize(W.extended().word("ab"), rep)


def test_delta_two_constructors_agree():
    shift_form = delta_rep()
    for k in range(8):
        f = _xpow(k)
        # the backward-difference spelling x(1 - d D-) of the same operator
        dminus = (f - f.compose_affine(one, -D)) * (one / D)
        explicit = (f - dminus * D)
        explicit = Poly1([zero] + explicit.coeffs, "x") if explicit.coeffs else explicit
        assert shift_form.b(f) == explicit


# --- realize / morphism ------------------------------------------------------------------


def test_realize_euler_operator():
    rel = W.heisenberg(one, one)
    op = realize(rel.word("ba"), diff_ab())
    for k in range(6):
        assert op(_xpow(k)) == _xpow(k) * Scalar.of(k)


def test_realize_ladder_generator():
    # b^2 a - n b acts as x^2 d/dx - n x
    rel = W.heisenberg(one, one)
    n = 2
    nf = rel.word("bba") - Scalar.of(n) * rel.gen("b")
    op = realize(nf, diff_ab())
    for k in range(5):
        assert op(_xpow(k)) == _xpow(k + 1) * Scalar.of(k - n)


def test_realize_jackson_ab():
    rel = W.heisenberg(Q, one)
    op = realize(rel.word("ab"), jackson())
    for k in range(6):
        # oracle: apply-twice composition
        direct = jackson().a(jackson().b(_xpow(k)))
        assert op(_xpow(k)) == direct == _xpow(k) * qnum(k + 1)


def test_realize_parameter_mismatch():
    nf = W.hq().word("ab")  # symbolic sigma=q, rho=p
    with pytest.raises(ParameterMismatchError):
        realize(nf, diff_ab())
    bound = nf.substitute({"p": 1, "q": 1})
    assert realize(bound, diff_ab())(_xpow(1)) == _xpow(1) + diff_ab().b(diff_ab().a(_xpow(1)))


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
    # lhs, rhs and the cross identity d^2 x^2 d^2: three operator applications,
    # not four, each to the generating polynomial of x^0..x^8
    applied = []
    images_before = R._images

    def counting_images(op, K):
        def counted(f):
            applied.append(f.degree())
            return op(f)

        return images_before(counted, K)

    monkeypatch.setattr(R, "_images", counting_images)
    v = eq1_second_check(1, corrected=False)
    assert applied == [8, 8, 8]
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
    a, b = rep.a, rep.b
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
    # the ladder (lhs) and the power of the backward difference (rhs) are each
    # applied once, to the generating polynomial of x^0..x^K; their images give
    # both the constant and the verdict
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
    assert seen == {"lhs": [K], "rhs": [K]}
    # the values recorded before the images were shared
    assert (verdict.status, c.canonical(), matches_printed) == ("pass", "(1)/(1)", False)
    assert verdict.detail == "constant 1; printed d^%d differs" % (n + 1)


# --- the images of x^0..x^K from one application ---------------------------------------


def _per_image(op, K):
    """The oracle: op applied to each monomial on its own."""
    return [op(_xpow(k)) for k in range(K + 1)]


def _linear_operators():
    """(label, operator) pairs: every kind of operator the basis checks apply."""
    ops = []
    rng = random.Random(18)
    for name, rep in ALL_POLY_REPS().items():
        a, b = rep.a, rep.b
        ops += [(name + " a", a), (name + " b", b)]
        for _ in range(3):
            word = random_word(rng, rng.randint(1, 4))
            ops.append(("%s realize %s" % (name, word), realize(rep.relation().word(word), rep)))
        ops.append((name + " ladder", R._ladder(op_compose(b, a), (one, rep.sigma + one))))
        ops.append((name + " pow", op_pow(op_compose(a, b), 3)))
        # coefficients over two different denominators meet in one sum
        ops.append((name + " fractions", op_add(op_scale(one / (P + Q), a), op_scale(one / (one + Q), b))))
    ops.append(("falling factorial", op_mulpoly(falling_factorial(3, D))))
    return ops


def _split_mismatches(K):
    return [label for label, op in _linear_operators() if R._images(op, K) != _per_image(op, K)]


@pytest.mark.parametrize("K", (0, 1, 8, 22))
def test_images_from_one_application_equal_the_per_image_oracle(K):
    assert _split_mismatches(K) == []


def _drops_a_term(split):
    def broken(f, K):
        num = dict(f.value.num)
        del num[max(num)]
        return split(Poly1._of(Scalar(num, f.value.den), f.var), K)

    return broken


def _reads_the_next_power(split):
    return lambda f, K: split(f, K + 1)[1:]


@pytest.mark.parametrize("breakage", (_drops_a_term, _reads_the_next_power))
def test_the_per_image_oracle_catches_a_broken_split(monkeypatch, breakage):
    monkeypatch.setattr(Poly1, "basis_images", breakage(Poly1.basis_images))
    assert _split_mismatches(8) == [label for label, _op in _linear_operators()]


def test_a_nonlinear_map_gets_no_verdict():
    with pytest.raises(ValueError, match="not linear"):
        check_identity_on_basis(lambda f: f * f, lambda f: f, 3)


def test_op_pow_rejects_negative_powers():
    b = diff_ab().b
    with pytest.raises(ValueError):
        op_pow(b, -1)
    assert op_pow(b, 0)(_xpow(2)) == _xpow(2)
    assert op_pow(b, 2)(_xpow(2)) == _xpow(4)


# --- Fock representations ---------------------------------------------------------------------


def test_hq_fock_diagonal():
    rep = hq_fock(L=8)  # symbolic p, q
    m = fock_matrix(W.hq().word("ab"), rep)
    for n in range(m.window + 1):
        assert m.column(n) == {n: P * qnum(n + 1)}


def test_hq_fock_sequence_is_rho_times_the_q_numbers():
    assert hq_fock(L=12).seq == [P * qnum(n) for n in range(1, 13)]
    assert hq_fock(p=3, q=Fraction(2, 5), L=4).seq == [Scalar.of(3 * (1 - Fraction(2, 5) ** n) / (1 - Fraction(2, 5))) for n in range(1, 5)]


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


def _diag(L, letters, *cols):
    """A truncated matrix with a unit entry on the diagonal at each of cols."""
    return R.FockMatrix({(c, c): one for c in cols}, L, letters)


def test_windowed_equal_ignores_the_column_past_the_window():
    assert _diag(6, 2, 0, 5).windowed_equal(_diag(6, 2, 0))  # window 4
    assert _diag(6, 2, 0).windowed_equal(_diag(6, 2, 0, 5))


def test_windowed_equal_catches_a_difference_in_the_last_window_column():
    assert not _diag(6, 2, 0, 4).windowed_equal(_diag(6, 2, 0))
    assert not _diag(6, 2, 0).windowed_equal(_diag(6, 2, 0, 4))
    assert not _diag(6, 2, 4).windowed_equal(R.FockMatrix({(4, 4): Scalar.of(2)}, 6, 2))


def test_windowed_equal_needs_equal_levels():
    assert not _diag(6, 2, 0).windowed_equal(_diag(7, 2, 0))


def test_windowed_equal_takes_the_smaller_window():
    # windows 5 and 3: column 4 is outside the smaller one, column 3 inside
    assert _diag(6, 1, 4).windowed_equal(_diag(6, 3))
    assert _diag(6, 3).windowed_equal(_diag(6, 1, 4))
    assert not _diag(6, 1, 3).windowed_equal(_diag(6, 3))
    assert not _diag(6, 3).windowed_equal(_diag(6, 1, 3))


def test_fock_sum_refuses_mixed_levels():
    m6 = fock_word_matrix("ab", hq_fock(p=1, q=2, L=6))
    m9 = fock_word_matrix("ab", hq_fock(p=1, q=2, L=9))
    for combine in (lambda x, y: x + y, lambda x, y: x - y):
        with pytest.raises(TruncationError, match="matrix levels differ"):
            combine(m6, m9)
        with pytest.raises(TruncationError, match="matrix levels differ"):
            combine(m9, m6)
    assert (m6 - m6).entries == {}


def test_fock_truncation_guard():
    rep = hq_fock(L=4)
    with pytest.raises(TruncationError):
        fock_word_matrix("ababab", rep)
    with pytest.raises(TruncationError):
        FockRep([one])


def test_fock_matrix_negative_power_rejected():
    m = fock_word_matrix("a", hq_fock(L=4))
    with pytest.raises(ValueError):
        m.matpow(-1)


def test_fock_rejects_inexact_sequences():
    with pytest.raises(Exception):
        FockRep([0.5, 1.5])


def test_theorem3_random_sequences():
    assert fock_theorem3_spotcheck(seed=7, L=14, trials=5).passed


def test_theorem3_aba_squared_any_sequence():
    rng = random.Random(31)
    seq = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(14)]
    rep = FockRep(seq)
    assert rep.L == len(seq)
    lhs = fock_word_matrix("aba", rep)
    assert (lhs @ lhs).windowed_equal(fock_word_matrix("aabbaa", rep))


def test_affine_certified_sequences():
    assert R.fock_affine_spotcheck(seed=3).passed


def test_spot_check_reports_the_word_pairs_that_differ():
    rep = FockRep([Fraction(t, 3) for t in range(2, 16)])
    pairs = [("abaaba", "aabbaa"), ("ab", "ba"), ("abba", "baab"), ("aabb", "abab")]
    assert R._differing_pairs(pairs, rep) == [("ab", "ba"), ("aabb", "abab")]


def test_fock_vs_abstract_random_words():
    assert fock_vs_abstract_spotcheck(seed=11, L=12, words=50).passed


def test_sequence_residual_hq():
    # ba = f(ab) for the deformed relation has f(t) = (t - p)/q
    p, q = Fraction(2, 3), Fraction(5, 7)
    rep = hq_fock(p=p, q=q, L=10)
    f = Poly1([Scalar.of(-p) / q, one / Scalar.of(q)], "t")
    assert all(r.is_zero() for r in sequence_residual(f, rep))


def test_sequence_residual_identity_map():
    rep = FockRep([Scalar.of(3)] * 6)
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
    # [k]_q = prod_(d | k, d > 1) Phi_d(q) with the Phi_d pairwise coprime, so a
    # product of q-integers fixes its levels above 1 and back; fock_words_equal
    # rests on this for a single-term sigma
    multisets = [ms for size in (1, 2, 3) for ms in itertools.combinations_with_replacement(range(1, 9), size)]
    product = {ms: math.prod((qnum(k) for k in ms), start=one) for ms in multisets}
    above_1 = {ms: tuple(k for k in ms if k > 1) for ms in multisets}
    for s1, s2 in itertools.product(multisets, repeat=2):
        assert (above_1[s1] == above_1[s2]) is (product[s1] == product[s2]), (s1, s2)


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


_DECISION_RELATIONS = [
    W.hq(),
    W.hq(p=3, q=7),
    W.heisenberg(2 * Q**3, 1),
    W.hq(q=0),
    W.hq(p=1, q=-2),
    W.heisenberg(1, 1),
    W.hq(q=-1),
    W.heisenberg(1 + Q, 1),
    W.extended(),
]


@pytest.mark.parametrize(
    "rel",
    _DECISION_RELATIONS,
    ids=["hq", "p3q7", "2q^3", "q=0", "p1q-2", "heisenberg11", "q=-1", "multi-term-sigma", "extended"],
)
def test_fock_words_equal_matches_the_per_level_decision(rel):
    rng = random.Random(25)
    pairs = _random_pairs(rng)
    for _ in range(200):
        # longer words, a few with other letter counts
        w = random_word(rng, rng.randint(0, 14))
        pairs.append((w, "".join(rng.sample(w, len(w))) if rng.random() < 0.9 else random_word(rng, len(w))))
    verdicts = set()
    for w1, w2 in pairs:
        got = fock_words_equal(rel, w1, w2)
        assert got is fock_words_equal_per_level(rel, w1, w2), (w1, w2)
        verdicts.add(got)
    assert verdicts == ({None} if rel.has_N or not rel.sigma.is_single_term() else {True, False, None})


def _same_matrix(m, oracle):
    return (m.entries, m.L, m.letters) == (oracle.entries, oracle.L, oracle.letters)


@pytest.mark.parametrize(
    "rep",
    [
        hq_fock(L=12),
        hq_fock(p=3, q=7, L=12),
        FockRep([1, 2, 0, 5, -3, 7, 1, 2, 9, 4, 6, 1]),
        FockRep([Fraction(k, k + 2) * (-1) ** k for k in range(1, 13)]),
    ],
    ids=["symbolic", "p3q7", "zero-s3", "fractions"],
)
def test_fock_matrices_match_the_per_level_products(rep):
    rng = random.Random(7)
    words = ["", "a", "b", "ab", "ba", "aabb", "bbaa", "a" * 10, "b" * 10] + [
        random_word(rng, rng.randint(1, 10)) for _ in range(40)
    ]
    for word in words:
        assert _same_matrix(fock_word_matrix(word, rep), fock_word_matrix_per_level(word, rep)), word
    rel = W.hq()
    for _ in range(10):
        x = rel.word(random_word(rng, rng.randint(1, 5))) * (P - 2) + rel.word(random_word(rng, rng.randint(0, 5))) * Q
        assert _same_matrix(fock_matrix(x, rep), fock_matrix_per_level(x, rep)), x


@pytest.mark.parametrize(
    "rel",
    [W.hq(q=-1), W.hq(p=0), W.heisenberg(one + Q, 1), W.extended()],
    ids=["q=-1", "p=0", "multi-term-sigma", "extended"],
)
def test_fock_words_equal_leaves_undecided_cases_to_the_engine(rel):
    assert fock_words_equal(rel, "aabb", "abab") is None
    assert fock_words_equal(rel, "abab", "abab") is None


def test_fock_words_equal_builds_q_integers_only_for_unequal_offsets(monkeypatch):
    # [k]_2 and [k]_(1/2) hold about k bits, so a table up to the words' length
    # would take about 25 MB here; equal offsets need no table at all
    def refuse(*args):
        raise AssertionError("q-integer table built")

    monkeypatch.setattr(R, "Fraction", refuse)
    w = "a" * 20000 + "b" * 3
    for q in (2, Fraction(1, 2), 0, 1):
        assert fock_words_equal(W.hq(q=q), w, w) is True
    assert fock_words_equal(W.hq(q=-1), w, w) is None
    assert fock_words_equal(W.hq(q=-1), "ab", "ab") is True
    with pytest.raises(AssertionError, match="table"):
        fock_words_equal(W.hq(q=2), "aab", "aba")


def test_fock_words_equal_needs_equal_letter_counts():
    assert fock_words_equal(W.hq(), "ab", "abab") is None
    assert fock_words_equal(W.hq(), "ab", "aa") is None


def test_fock_words_equal_beyond_the_engine():
    # the engine's build of this case takes about 2 s; the Fock decision, well under 1 s
    rel = W.hq()
    case = IdentityCase("COR2b", rel, ns=(4, 4), ms=(4, 4), k=2)
    t0 = time.perf_counter()
    assert verify(case).passed
    assert time.perf_counter() - t0 < 1.0
    w1, w2 = word_pair(case)
    for at in (w1.index("ab"), w1.rindex("ab")):
        swapped = w1[:at] + "ba" + w1[at + 2 :]
        assert fock_words_equal(rel, swapped, w2) is False

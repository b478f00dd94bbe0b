"""Normal-form engine tests: reordering, products, grading, confluence."""

import random
from fractions import Fraction

import pytest

from qweyl import scalar as S
from qweyl.scalar import P, Q, Poly1, one, qnum
from qweyl.weyl import (
    NormalForm,
    RelationMismatchError,
    WordError,
    _key,
    commutator,
    extended,
    grade,
    hq,
    mul,
    nf_of_word,
    power,
    substitute_params,
)

from oracles import ab_power_ordering, nf_terms, random_rational, random_word, reduce_word


@pytest.fixture(scope="module")
def rel():
    return hq()


# --- single-word reordering -----------------------------------------------------


def test_defining_relation(rel):
    nf = nf_of_word("ab", rel)
    assert nf_terms(nf) == {(1, 0, 1): Q, (0, 0, 0): P}
    assert nf.render() == "q*b*a + p"


def test_reorder_ab2(rel):
    nf = nf_of_word("abb", rel)
    assert nf_terms(nf) == {(2, 0, 1): Q**2, (1, 0, 0): P * (one + Q)}
    assert nf.render() == "q^2*b^2*a + (p*q + p)*b"


def test_reorder_baba(rel):
    # hand oracle: baba = b(ab)a = q b^2a^2 + p ba
    nf = nf_of_word("baba", rel)
    assert nf_terms(nf) == {(2, 0, 2): Q, (1, 0, 1): P}


def test_word_rejects_N_without_extension(rel):
    with pytest.raises(WordError):
        nf_of_word("aNb", rel)


def test_word_rejects_unknown_letter(rel):
    with pytest.raises(WordError):
        nf_of_word("axb", rel)


# --- Lemma-1 style reordering laws (symbolic p, q) --------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_ab_power_law(rel, n):
    lhs = nf_of_word("a" + "b" * n, rel) - Q**n * nf_of_word("b" * n + "a", rel)
    rhs = (P * qnum(n)) * nf_of_word("b" * (n - 1), rel)
    assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("n", range(1, 9))
def test_a_power_b_law(rel, n):
    lhs = nf_of_word("a" * n + "b", rel) - Q**n * nf_of_word("b" + "a" * n, rel)
    rhs = (P * qnum(n)) * nf_of_word("a" * (n - 1), rel)
    assert (lhs - rhs).is_zero()


# --- multiplication ------------------------------------------------------------------


def test_mul_consistent_with_word(rel):
    assert mul(rel.gen("a"), rel.gen("b")) == nf_of_word("ab", rel)


def test_unit_laws(rel):
    x = nf_of_word("bbaa", rel) + 3 * rel.gen("b")
    assert mul(x, rel.unit()) == x
    assert mul(rel.unit(), x) == x


def test_extended_ba_squared():
    # relation ab = p*ba + 1; hand expansion: baba = b(ab)a = p b^2a^2 + ba
    ext = extended()
    x = nf_of_word("ba", ext)
    assert nf_terms(mul(x, x)) == {(2, 0, 2): P, (1, 0, 1): one}


def test_relation_mismatch_raises():
    x = nf_of_word("ab", hq())
    y = nf_of_word("ab", hq(p=1))
    with pytest.raises(RelationMismatchError):
        mul(x, y)
    with pytest.raises(RelationMismatchError):
        x + y


def test_equal_specs_are_compatible():
    # distinct Relation objects with equal data interoperate
    x = nf_of_word("ab", hq())
    y = nf_of_word("ba", hq())
    assert not mul(x, y).is_zero()


# --- power -----------------------------------------------------------------------------


def test_power_trivial(rel):
    x = nf_of_word("aba", rel)
    assert power(x, 1) == x
    assert power(x, 0) == rel.unit()
    assert nf_terms(power(rel.gen("b"), 3)) == {(3, 0, 0): one}


def test_power_product_collapse(rel):
    assert power(nf_of_word("aba", rel), 2) == nf_of_word("aabbaa", rel)


# --- commutator ---------------------------------------------------------------------------


def test_commutator_self_is_zero(rel):
    x = nf_of_word("ab", rel) + 2 * rel.gen("b")
    assert commutator(x, x).is_zero()


def test_commutator_ab_a2b2(rel):
    assert commutator(nf_of_word("ab", rel), nf_of_word("aabb", rel)).is_zero()


def test_commutator_N_with_ba():
    ext = extended()
    assert commutator(ext.gen("N"), nf_of_word("ba", ext)).is_zero()
    assert commutator(ext.gen("N"), nf_of_word("aabb", ext)).is_zero()


# --- grading ---------------------------------------------------------------------------------


def test_grading_examples(rel):
    assert grade(nf_of_word("bba", rel) - qnum(2) * rel.gen("b")) == 1
    assert grade(nf_of_word("ab", rel)) == 0
    assert grade(rel.gen("a") + rel.gen("b")) is None


def test_grading_additive(rel):
    rng = random.Random(7)
    for _ in range(40):
        x = nf_of_word(random_word(rng, rng.randint(1, 4)), rel)
        y = nf_of_word(random_word(rng, rng.randint(1, 4)), rel)
        gx, gy = grade(x), grade(y)
        if gx is None or gy is None:
            continue
        assert grade(mul(x, y)) == gx + gy


def test_N_has_grade_zero():
    ext = extended()
    assert grade(ext.gen("N")) == 0
    assert grade(nf_of_word("bNa", ext)) == 0


# --- parameter substitution ---------------------------------------------------------------------


def test_substitute_simple(rel):
    nf = substitute_params(nf_of_word("ab", rel), {"p": 1})
    assert nf.render() == "q*b*a + 1"


def test_substitute_classical(rel):
    nf = substitute_params(nf_of_word("ab", rel), {"q": 1, "p": 1})
    assert nf.render() == "b*a + 1"


def test_substitute_numeric_lemma1(rel):
    # direct recurrence oracle at q=2, p=3: a b^3 -> 8 b^3 a + 3*{3}|q=2 * b^2
    nf = substitute_params(nf_of_word("abbb", rel), {"q": 2, "p": 3})
    assert nf_terms(nf) == {(3, 0, 1): S.Scalar.of(8), (2, 0, 0): S.Scalar.of(21)}


def test_substitute_drops_vanishing_terms(rel):
    nf = nf_of_word("ab", rel)  # q*ba + p
    sub = substitute_params(nf, {"p": 0})
    assert nf_terms(sub) == {(1, 0, 1): Q}


# --- confluence and associativity --------------------------------------------------------------------


def test_confluence_against_naive_reducer():
    rng = random.Random(20260810)
    for trial in range(100):
        p = random_rational(rng)
        q = random_rational(rng)
        rel = hq(p=p, q=q)
        word = random_word(rng, rng.randint(1, 8))
        left = reduce_word(word, rel, order="left")
        right = reduce_word(word, rel, order="right")
        assert left == right, (word, p, q)
        assert nf_terms(nf_of_word(word, rel)) == left, (word, p, q)


def test_confluence_extended_words():
    rng = random.Random(99)
    ext = extended(sigma=Fraction(2, 3), F=Poly1([1, 2]), tau=Fraction(3, 2))
    for trial in range(40):
        word = random_word(rng, rng.randint(1, 6), letters="abN")
        left = reduce_word(word, ext, order="left")
        right = reduce_word(word, ext, order="right")
        assert left == right, word
        assert nf_terms(nf_of_word(word, ext)) == left, word


@pytest.mark.parametrize("j", range(7))
@pytest.mark.parametrize("i", range(7))
def test_ab_power_ordering_closed_form(rel, i, j):
    want = ab_power_ordering(j, i)
    assert nf_terms(rel.word("a" * j + "b" * i)) == want
    # a^j * b^i as one product goes through the memoized _R(j, i) table directly
    assert nf_terms(rel.gen("a") ** j * rel.gen("b") ** i) == want


def test_associativity_random_triples():
    rng = random.Random(4242)
    rel = hq()
    for _ in range(100):
        x, y, z = (
            nf_of_word(random_word(rng, rng.randint(1, 4)), rel)
            + rng.randint(-2, 2) * rel.unit()
            for _ in range(3)
        )
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_associativity_extended():
    rng = random.Random(11)
    ext = extended()
    for _ in range(25):
        x, y, z = (
            nf_of_word(random_word(rng, rng.randint(1, 3), letters="abN"), ext)
            for _ in range(3)
        )
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


# --- PBW key range: the packed m and j fields are 20 bits wide ----------------------------------------------


def test_a_power_at_key_limit():
    limit = 1 << 20
    a = hq().gen("a")
    assert nf_terms(a ** (limit - 1)) == {(0, 0, limit - 1): one}
    with pytest.raises(WordError):
        a**limit
    with pytest.raises(WordError):
        a ** (limit - 1) * a


def test_N_degree_at_key_limit():
    ext = extended()
    half = NormalForm(ext, {_key(0, 1 << 19, 0): one})
    with pytest.raises(WordError):
        half * half


def test_remainder_degree_counts_toward_key_limit():
    # F = N^2: each of the 2^19 contractions in a^(2^19) * b^(2^19) adds 2 to the N-degree
    ext = extended(F=Poly1([0, 0, 1], "N"))
    x, y = ext.gen("a") ** (1 << 19), ext.gen("b") ** (1 << 19)
    with pytest.raises(WordError):
        x * y


# --- extended-relation shift laws -------------------------------------------------------------------------


def test_shift_laws_symbolic():
    ext = extended()
    qn1 = Poly1([one, Q])  # qN + 1
    assert nf_of_word("aN", ext) == ext.npoly_nf(qn1) * ext.gen("a")
    assert nf_of_word("Nb", ext) == ext.gen("b") * ext.npoly_nf(qn1)


def test_fN_commutes_with_anbn():
    ext = extended(F=Poly1([0, 0, 1]))  # F = N^2 just to vary the remainder
    f = ext.npoly_nf(Poly1([2, 0, 3]))  # 2 + 3N^2
    for n in (1, 2, 3):
        assert commutator(f, nf_of_word("a" * n + "b" * n, ext)).is_zero()
        assert commutator(f, nf_of_word("b" * n + "a" * n, ext)).is_zero()


def test_thm1_under_extended():
    ext = extended()
    for n in (1, 2, 3):
        assert power(nf_of_word("aba", ext), n) == nf_of_word("a" * n + "b" * n + "a" * n, ext)


# --- memoization transparency ---------------------------------------------------------------------------------


def test_concurrent_memo_fill_is_idempotent():
    # many workers hammering one relation's memo tables must agree exactly
    from concurrent.futures import ThreadPoolExecutor

    shared = hq()
    words = ["aabbab", "babaab", "abbbaa", "aaabbb"] * 8

    def job(word):
        return nf_terms(nf_of_word(word, shared))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, words))
    fresh = {w: nf_terms(nf_of_word(w, hq())) for w in set(words)}
    for word, got in zip(words, results):
        assert got == fresh[word]


def test_memo_transparency():
    word = "aabbab"
    with_memo = nf_of_word(word, hq(memoize=True))
    without = nf_of_word(word, hq(memoize=False))
    assert nf_terms(with_memo) == nf_terms(without)
    x = power(nf_of_word("bba", hq(memoize=True)) - qnum(2) * hq().gen("b"), 3)
    y = power(nf_of_word("bba", hq(memoize=False)) - qnum(2) * hq(memoize=False).gen("b"), 3)
    assert nf_terms(x) == nf_terms(y)


# --- rendering -----------------------------------------------------------------------------------------------------


def test_render_zero(rel):
    assert (rel.gen("a") - rel.gen("a")).render() == "0"


def test_render_negative_leading(rel):
    assert (-rel.gen("b")).render() == "-b"
    assert (rel.gen("a") - 2 * rel.gen("b")).render() == "-2*b + a"


def test_render_extended():
    ext = extended()
    assert nf_of_word("ab", ext).render() == "p*b*a + 1"
    assert nf_of_word("aN", ext).render() == "q*N*a + a"

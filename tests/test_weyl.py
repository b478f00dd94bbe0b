"""Normal-form engine tests: reordering, products, grading, confluence."""

import itertools
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
    heisenberg,
    hq,
)

from oracles import ab_power_ordering, nf_terms, random_rational, random_word, reduce_word


@pytest.fixture(scope="module")
def rel():
    return hq()


# --- single-word reordering -----------------------------------------------------


def test_defining_relation(rel):
    nf = rel.word("ab")
    assert nf_terms(nf) == {(1, 0, 1): Q, (0, 0, 0): P}
    assert nf.render() == "q*b*a + p"


def test_reorder_ab2(rel):
    nf = rel.word("abb")
    assert nf_terms(nf) == {(2, 0, 1): Q**2, (1, 0, 0): P * (one + Q)}
    assert nf.render() == "q^2*b^2*a + (p*q + p)*b"


def test_reorder_baba(rel):
    # hand oracle: baba = b(ab)a = q b^2a^2 + p ba
    nf = rel.word("baba")
    assert nf_terms(nf) == {(2, 0, 2): Q, (1, 0, 1): P}


def test_word_rejects_N_without_extension(rel):
    with pytest.raises(WordError):
        rel.word("aNb")


def test_word_rejects_unknown_letter(rel):
    with pytest.raises(WordError):
        rel.word("axb")


# --- Lemma-1 style reordering laws (symbolic p, q) --------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_ab_power_law(rel, n):
    lhs = rel.word("a" + "b" * n) - Q**n * rel.word("b" * n + "a")
    rhs = (P * qnum(n)) * rel.word("b" * (n - 1))
    assert (lhs - rhs).is_zero()


@pytest.mark.parametrize("n", range(1, 9))
def test_a_power_b_law(rel, n):
    lhs = rel.word("a" * n + "b") - Q**n * rel.word("b" + "a" * n)
    rhs = (P * qnum(n)) * rel.word("a" * (n - 1))
    assert (lhs - rhs).is_zero()


# --- multiplication ------------------------------------------------------------------


def test_mul_consistent_with_word(rel):
    assert rel.gen("a") * rel.gen("b") == rel.word("ab")


def test_unit_laws(rel):
    x = rel.word("bbaa") + 3 * rel.gen("b")
    assert x * rel.unit() == x
    assert rel.unit() * x == x


def test_extended_ba_squared():
    # relation ab = p*ba + 1; hand expansion: baba = b(ab)a = p b^2a^2 + ba
    ext = extended()
    x = ext.word("ba")
    assert nf_terms(x * x) == {(2, 0, 2): P, (1, 0, 1): one}


def test_relation_mismatch_raises():
    x = hq().word("ab")
    y = hq(p=1).word("ab")
    with pytest.raises(RelationMismatchError):
        x * y
    with pytest.raises(RelationMismatchError):
        x + y


def test_equal_specs_are_compatible():
    # distinct Relation objects with equal data interoperate
    x = hq().word("ab")
    y = hq().word("ba")
    assert not (x * y).is_zero()


# --- power -----------------------------------------------------------------------------


def test_power_trivial(rel):
    x = rel.word("aba")
    assert x**1 == x
    assert x**0 == rel.unit()
    assert nf_terms(rel.gen("b") ** 3) == {(3, 0, 0): one}


def test_power_product_collapse(rel):
    assert rel.word("aba") ** 2 == rel.word("aabbaa")


# --- commutator ---------------------------------------------------------------------------


def test_commutator_self_is_zero(rel):
    x = rel.word("ab") + 2 * rel.gen("b")
    assert commutator(x, x).is_zero()


def test_commutator_ab_a2b2(rel):
    assert commutator(rel.word("ab"), rel.word("aabb")).is_zero()


def test_commutator_N_with_ba():
    ext = extended()
    assert commutator(ext.gen("N"), ext.word("ba")).is_zero()
    assert commutator(ext.gen("N"), ext.word("aabb")).is_zero()


# --- grading ---------------------------------------------------------------------------------


def test_grading_examples(rel):
    assert (rel.word("bba") - qnum(2) * rel.gen("b")).grade() == 1
    assert rel.word("ab").grade() == 0
    assert (rel.gen("a") + rel.gen("b")).grade() is None


def test_grading_additive(rel):
    rng = random.Random(7)
    for _ in range(40):
        x = rel.word(random_word(rng, rng.randint(1, 4)))
        y = rel.word(random_word(rng, rng.randint(1, 4)))
        gx, gy = x.grade(), y.grade()
        if gx is None or gy is None:
            continue
        assert (x * y).grade() == gx + gy


def test_N_has_grade_zero():
    ext = extended()
    assert ext.gen("N").grade() == 0
    assert ext.word("bNa").grade() == 0


# --- parameter substitution ---------------------------------------------------------------------


def test_substitute_simple(rel):
    nf = rel.word("ab").substitute({"p": 1})
    assert nf.render() == "q*b*a + 1"


def test_substitute_classical(rel):
    nf = rel.word("ab").substitute({"q": 1, "p": 1})
    assert nf.render() == "b*a + 1"


def test_substitute_numeric_lemma1(rel):
    # direct recurrence oracle at q=2, p=3: a b^3 -> 8 b^3 a + 3*{3}|q=2 * b^2
    nf = rel.word("abbb").substitute({"q": 2, "p": 3})
    assert nf_terms(nf) == {(3, 0, 1): S.Scalar.of(8), (2, 0, 0): S.Scalar.of(21)}


def test_substitute_drops_vanishing_terms(rel):
    nf = rel.word("ab")  # q*ba + p
    sub = nf.substitute({"p": 0})
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
        assert nf_terms(rel.word(word)) == left, (word, p, q)


def test_confluence_extended_words():
    rng = random.Random(99)
    ext = extended(sigma=Fraction(2, 3), F=Poly1([1, 2]), tau=Fraction(3, 2))
    for trial in range(40):
        word = random_word(rng, rng.randint(1, 6), letters="abN")
        left = reduce_word(word, ext, order="left")
        right = reduce_word(word, ext, order="right")
        assert left == right, word
        assert nf_terms(ext.word(word)) == left, word


@pytest.mark.parametrize(
    "make",
    [
        lambda: extended(sigma=Fraction(2, 3), F=Poly1([1, 2, 1]), tau=Fraction(3, 2)),
        lambda: extended(F=Poly1([0, 0, 1])),
        lambda: heisenberg(Q, 0),
        lambda: heisenberg(0, 1),
    ],
    ids=["extended-rational", "extended-N^2", "sigma=q,rho=0", "sigma=0,rho=1"],
)
def test_mid_product_against_naive_reducer(make):
    # N^m1 a^j times b^i N^m2 is one _mid_product(m1, j, i, m2); its _R(j, i)
    # fill moves each a through _mid_product(0, 1, alpha, mu) in turn
    rel = make()
    ms = range(3) if rel.has_N else [0]
    for m1, j, i, m2 in itertools.product(ms, range(4), range(4), ms):
        x = NormalForm(rel, {_key(0, m1, j): one})
        y = NormalForm(rel, {_key(i, m2, 0): one})
        want = reduce_word("N" * m1 + "a" * j + "b" * i + "N" * m2, rel)
        assert nf_terms(x * y) == want, (m1, j, i, m2)


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
            rel.word(random_word(rng, rng.randint(1, 4)))
            + rng.randint(-2, 2) * rel.unit()
            for _ in range(3)
        )
        assert (x * y) * z == x * (y * z)


def test_associativity_extended():
    rng = random.Random(11)
    ext = extended()
    for _ in range(25):
        x, y, z = (
            ext.word(random_word(rng, rng.randint(1, 3), letters="abN"))
            for _ in range(3)
        )
        assert (x * y) * z == x * (y * z)


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
    assert ext.word("aN") == ext.npoly_nf(qn1) * ext.gen("a")
    assert ext.word("Nb") == ext.gen("b") * ext.npoly_nf(qn1)


def test_fN_commutes_with_anbn():
    ext = extended(F=Poly1([0, 0, 1]))  # F = N^2 just to vary the remainder
    f = ext.npoly_nf(Poly1([2, 0, 3]))  # 2 + 3N^2
    for n in (1, 2, 3):
        assert commutator(f, ext.word("a" * n + "b" * n)).is_zero()
        assert commutator(f, ext.word("b" * n + "a" * n)).is_zero()


def test_thm1_under_extended():
    ext = extended()
    for n in (1, 2, 3):
        assert ext.word("aba") ** n == ext.word("a" * n + "b" * n + "a" * n)


# --- memoization transparency ---------------------------------------------------------------------------------


def test_concurrent_memo_fill_is_idempotent():
    # many workers hammering one relation's memo tables must agree exactly
    from concurrent.futures import ThreadPoolExecutor

    shared = hq()
    words = ["aabbab", "babaab", "abbbaa", "aaabbb"] * 8

    def job(word):
        return nf_terms(shared.word(word))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, words))
    fresh = {w: nf_terms(hq().word(w)) for w in set(words)}
    for word, got in zip(words, results):
        assert got == fresh[word]


@pytest.mark.parametrize(
    "make",
    [lambda: heisenberg(0, 1), lambda: extended(sigma=0), lambda: extended(sigma=0, F=Poly1([1, 2, 1]))],
    ids=["central", "extended", "extended-F(N)"],
)
def test_memo_tables_hold_no_zero_terms_at_sigma_zero(make):
    # with sigma = 0 every sigma * (a b^(i-1)) term vanishes; none may stay in a table
    rel = make()
    assert rel.gen("a") ** 3 * rel.gen("b") ** 4 == rel.word("aaabbbb")
    tables = [rel._r1, rel._r]
    if rel.has_N:
        # N on both sides of a^j b^i fills _mid, and so does a remainder in N
        n = rel.gen("N")
        assert n * rel.gen("a") ** 3 * (rel.gen("b") ** 4 * n) == rel.word("NaaabbbbN")
        tables.append(rel._mid)
    for table in tables:
        assert table and all(all(terms.values()) for terms in table.values())


# --- rendering -----------------------------------------------------------------------------------------------------


def test_render_zero(rel):
    assert (rel.gen("a") - rel.gen("a")).render() == "0"


def test_render_negative_leading(rel):
    assert (-rel.gen("b")).render() == "-b"
    assert (rel.gen("a") - 2 * rel.gen("b")).render() == "-2*b + a"


def test_render_extended():
    ext = extended()
    assert ext.word("ab").render() == "p*b*a + 1"
    assert ext.word("aN").render() == "q*N*a + a"


# --- tau numbers ------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [hq, extended, lambda: extended(sigma=1, tau=2), lambda: heisenberg(0, P)],
    ids=["hq", "extended", "extended-1-2", "sigma-0"],
)
def test_tau_number_is_the_explicit_sum(make):
    rel = make()
    base = rel.tau if rel.has_N else rel.sigma
    want = [sum((base**s for s in range(n)), S.zero) for n in range(10)]
    for order in ([5, 2, 9, 0, 7], range(9, -1, -1)):
        for n in order:
            assert rel.tau_number(n) == want[n]
        rel.clear_caches()
    assert rel.tau_number(-1) == S.zero  # the empty sum


def test_tau_number_fills_bottom_up(monkeypatch):
    # the explicit sum of every new n was quadratic in n: a*b^600 under
    # extended() spent 20.9 of 21.3 s there under cProfile
    rel = extended()
    calls = []
    mul = S.Scalar.__mul__
    monkeypatch.setattr(S.Scalar, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    rel.tau_number(200)
    assert len(calls) <= 200
    rel.tau_number(150)
    assert len(calls) <= 200  # read back from the table

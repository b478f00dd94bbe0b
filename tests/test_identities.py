"""Catalog verification: ladder identities, erratum variants, expansions, sl2q."""

import random

import pytest

from qweyl import identities as I
from qweyl import reps as R
from qweyl import weyl as W
from qweyl.identities import (
    IdentityCase,
    NotExpressibleError,
    SuiteConfig,
    UnsupportedCaseError,
    annihilation_check,
    build,
    expand_in_ab_powers,
    sl2q_solve,
    sl2q_triple,
    solve_scalar_factor,
    suite,
    thm6_letter_swap_matches_thm5,
    verify,
)
from qweyl.scalar import A, P, Poly1, Q, Scalar, ScalarError, one, zero

from oracles import ab_power_sum_matrix, random_rational, thm4a_matrix_residual


@pytest.fixture(scope="module")
def rel():
    return W.hq()


# --- build examples -------------------------------------------------------------


def test_build_thm1a_n1_trivial(rel):
    lhs, rhs = build(IdentityCase("THM1a", rel, n=1))
    assert lhs == rhs == rel.word("aba")


def test_build_thm5_n1(rel):
    lhs, rhs = build(IdentityCase("THM5", rel, n=1))
    assert lhs == rel.word("ba") * (rel.word("ba") - rel.unit())
    assert rhs == Q * rel.word("bbaa")


def test_build_thm6_n1():
    ext = W.extended()  # a*b = p*b*a + 1
    lhs, rhs = build(IdentityCase("THM6", ext, n=1))
    assert lhs == ext.word("ba") * (ext.word("ba") - ext.unit())
    assert rhs == P * ext.word("bbaa")
    assert (lhs - rhs).is_zero()


def test_build_rejects_mismatched_relation():
    with pytest.raises(UnsupportedCaseError):
        build(IdentityCase("THM6", W.hq(), n=1))
    with pytest.raises(UnsupportedCaseError):
        build(IdentityCase("THM5", W.extended(), n=1))
    with pytest.raises(UnsupportedCaseError):
        build(IdentityCase("THM1b", W.hq(q=0), n=2))
    with pytest.raises(UnsupportedCaseError):  # before any word identity is decided
        verify(IdentityCase("THM1b", W.hq(q=0), n=2))
    with pytest.raises(UnsupportedCaseError):  # LEM3 is solved for factors by verify
        build(IdentityCase("LEM3", W.hq(), n=-1))


# --- the always-true families ---------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_thm1_passes_symbolically(rel, n):
    assert verify(IdentityCase("THM1a", rel, n=n)).passed
    assert verify(IdentityCase("THM1b", rel, n=n)).passed


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)])
def test_cor1(rel, n, k):
    assert verify(IdentityCase("COR1", rel, n=n, k=k)).passed


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 5)])
def test_thm2_all_forms(rel, n, m):
    assert verify(IdentityCase("THM2a", rel, n=n, m=m)).passed
    assert verify(IdentityCase("THM2b", rel, n=n, m=m)).passed
    assert verify(IdentityCase("THM2c", rel, n=n, m=m)).passed


@pytest.mark.parametrize("k", (1, 2))
def test_cor2a(rel, k):
    for n in (1, 2, 3):
        for m in range(n + 1, 4):
            assert verify(IdentityCase("COR2a", rel, n=n, m=m, k=k)).passed


def test_cor2b(rel):
    assert verify(IdentityCase("COR2b", rel, ns=(1, 2), ms=(2, 1), k=1)).passed
    assert verify(IdentityCase("COR2b", rel, ns=(2, 2), ms=(3,), k=2)).passed


def test_cor3_all_orderings(rel):
    multisets = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3)]
    for ns in multisets:
        for ms in multisets:
            for orders in I._order_assignments(len(ns) + len(ms)):
                case = IdentityCase("COR3", rel, ns=ns, ms=ms, orders=orders)
                assert verify(case).passed, (ns, ms, orders)


@pytest.mark.parametrize("n", range(1, 9))
def test_lem1_instances(rel, n):
    assert verify(IdentityCase("LEM1a", rel, n=n)).passed
    assert verify(IdentityCase("LEM1b", rel, n=n)).passed


# --- the erratum families --------------------------------------------------------------


@pytest.mark.parametrize("cid,max_n", [("THM4a", 4), ("THM4b", 4), ("THM5", 5)])
def test_erratum_triples(rel, cid, max_n):
    at_p1 = W.hq(p=1)
    for n in range(1, max_n + 1):
        as_stated = verify(IdentityCase(cid, rel, n=n))
        assert as_stated.status == "fail"
        assert not as_stated.residual.is_zero()
        assert verify(IdentityCase(cid, at_p1, n=n)).passed
        assert verify(IdentityCase(cid, W.hq(), n=n, variant="p_scaled")).passed


def test_thm4a_n1_residual_golden(rel):
    v = verify(IdentityCase("THM4a", rel, n=1))
    golden = (one + Q) * (P - one) * rel.word("bbba") + (one - P) * rel.word("bb")
    assert v.residual == golden
    assert v.detail == "common factor: (p - 1)"


@pytest.mark.parametrize("error, detail", [(RuntimeError, None), (ScalarError, "")])
def test_residual_detail_catches_only_scalar_errors(rel, monkeypatch, error, detail):
    def probe(self, other):
        raise error("injected")

    monkeypatch.setattr(Scalar, "numerator_divisible_by", probe)
    residual = rel.word("ab") - rel.word("ba")
    if detail is None:
        with pytest.raises(error, match="injected"):
            I._residual_detail(rel, residual)
    else:
        assert I._residual_detail(rel, residual) == detail


def test_thm4a_residual_fock_oracle(rel):
    # matrix products never touch the reordering engine
    rng = random.Random(5150)
    v = verify(IdentityCase("THM4a", rel, n=1))
    for _ in range(5):
        p = random_rational(rng, 1, 7)
        q = random_rational(rng, 1, 7)
        residual_nf = v.residual.substitute({"p": p, "q": q})
        via_matrices, rep = thm4a_matrix_residual(1, p, q, L=16)
        via_engine = R.fock_matrix(residual_nf, rep)
        assert via_engine.windowed_equal(via_matrices), (p, q)


def test_thm5_p1_symbolic_q(rel):
    for n in range(1, 6):
        assert verify(IdentityCase("THM5", W.hq(p=1), n=n)).passed


# --- EQ14 -----------------------------------------------------------------------------------


def test_eq14_random_polynomials(rel):
    rng = random.Random(14)
    for _ in range(5):
        poly = Poly1([random_rational(rng, -4, 4) for _ in range(rng.randint(2, 5))], "t")
        assert verify(IdentityCase("EQ14", rel, poly=poly)).passed


def test_affine_substitution_law(rel):
    # p(ab) = q(ba) with q(t) = p(sigma t + rho), exactly, for random p
    rng = random.Random(1414)
    ab, ba = rel.word("ab"), rel.word("ba")
    for _ in range(5):
        poly = Poly1([random_rational(rng, -3, 3) for _ in range(rng.randint(2, 5))], "t")
        composed = poly.compose_affine(rel.sigma, rel.rho)
        assert poly.evaluate(ab) == composed.evaluate(ba)


# --- expansions ---------------------------------------------------------------------------------


def test_expand_examples(rel):
    assert [c.compact() for c in expand_in_ab_powers(rel.word("ab")).coeffs] == ["0", "1"]
    ba = expand_in_ab_powers(rel.word("ba"))
    assert ba.coeffs == [-(P / Q), one / Q]


def test_expand_a2b2_reconstructs(rel):
    x = rel.word("aabb")
    e = expand_in_ab_powers(x)
    assert len(e.coeffs) == 3
    assert e.reconstruct() == x


@pytest.mark.parametrize("n", range(1, 6))
def test_lemma2_lengths_and_reconstruction(rel, n):
    for w in ("a" * n + "b" * n, "b" * n + "a" * n):
        x = rel.word(w)
        e = expand_in_ab_powers(x)
        assert len(e.coeffs) <= n + 1
        assert e.reconstruct() == x


def test_lemma2_fock_agreement(rel):
    rng = random.Random(2026)
    L = 14
    for _ in range(3):
        p = random_rational(rng, 1, 6)
        q = random_rational(rng, 1, 6)
        rep = R.hq_fock(p=p, q=q, L=L)
        for n in (1, 2, 3):
            x = rel.word("a" * n + "b" * n)
            coeffs = [c.substitute({"p": p, "q": q}).as_fraction() for c in expand_in_ab_powers(x).coeffs]
            total = ab_power_sum_matrix(coeffs, rep, 2 * n)
            direct = R.fock_word_matrix("a" * n + "b" * n, rep)
            assert total.windowed_equal(direct), (p, q, n)


def test_expand_rejects_inhomogeneous(rel):
    with pytest.raises(NotExpressibleError):
        expand_in_ab_powers(rel.word("ab") + rel.gen("b"))
    with pytest.raises(NotExpressibleError):
        expand_in_ab_powers(rel.word("bba"))


def test_expand_quantum_plane_pivot_failure():
    # at sigma = 0 the element ab is central, so ba is not a polynomial in it
    plane = W.hq(q=0)
    with pytest.raises(NotExpressibleError):
        expand_in_ab_powers(plane.word("ba"))


def test_lemma4_expansions():
    sl2 = W.extended(sigma=1, F=Poly1([0, 2], "N"), tau=1)
    for n in (1, 2, 3):
        for w in ("a" * n + "b" * n, "b" * n + "a" * n):
            x = sl2.word(w)
            e = expand_in_ab_powers(x)
            assert len(e.coeffs) <= n + 1
            assert e.reconstruct() == x


def test_lemma4_generic_extended():
    ext = W.extended(F=Poly1([0, 1], "N"))  # sigma = p, tau = q, F = N
    for n in (1, 2, 3):
        x = ext.word("a" * n + "b" * n)
        assert expand_in_ab_powers(x).reconstruct() == x
    # the pivot of (ab)^k is the constant sigma^(k(k+1)/2), so every
    # coefficient is a polynomial in N, never a rational function
    rng = random.Random(5)
    relations = (
        W.extended(),
        ext,
        W.extended(sigma=1, F=Poly1([0, 2], "N"), tau=1),
        W.extended(sigma=P * Q, F=Poly1([P, 0, 1], "N")),
    )
    for rel in relations:
        for length in (2, 4, 6, 6):
            letters = ["a", "b"] * (length // 2)
            rng.shuffle(letters)
            x = rel.word("".join(letters))
            e = expand_in_ab_powers(x)
            assert all(isinstance(c, Poly1) for c in e.coeffs)
            assert e.reconstruct() == x, "".join(letters)


# --- scalar factor solving ------------------------------------------------------------------------


def test_solve_scalar_factor_examples(rel):
    ba = rel.word("ba")
    assert solve_scalar_factor(2 * Q * ba, ba) == 2 * Q
    assert solve_scalar_factor(Q * rel.word("bbaa") + ba, rel.word("bbaa")) is None
    assert solve_scalar_factor(rel.scalar_nf(0), ba) == zero
    assert solve_scalar_factor(rel.scalar_nf(0), rel.scalar_nf(0)) == one
    assert solve_scalar_factor(ba, rel.scalar_nf(0)) is None


def test_solve_scalar_factor_sl2q_lambda(rel):
    # q j0 j- - j- j0 = ((1-q) kappa - p) j-  with kappa the j0 constant
    t = sl2q_triple(rel)
    x1 = Q * (t.jzero * t.jminus) - t.jminus * t.jzero
    lam = solve_scalar_factor(x1, t.jminus)
    kappa = -t.jzero.coefficient(0, 0, 0)
    assert lam == (one - Q) * kappa - P


# --- sl2q --------------------------------------------------------------------------------------------


def test_sl2q_p1_symbolic():
    res = sl2q_solve(sl2q_triple(W.hq(p=1)))
    assert res.ok and res.failing_relation is None
    assert res.c_minus == one


def test_sl2q_generic_p_fails_relation_2():
    res = sl2q_solve(sl2q_triple(W.hq()))
    assert not res.ok
    assert res.failing_relation == 2
    probe = (one - A) * (one - P)
    assert res.residual.numerator_divisible_by(probe)


def test_sl2q_p_scaled_symbolic():
    res = sl2q_solve(sl2q_triple(W.hq(), variant="p_scaled"))
    assert res.ok


def test_sl2q_concrete_alpha():
    for n in (0, 1, 2, 3):
        res = sl2q_solve(sl2q_triple(W.hq(p=1), alpha=n))
        assert res.ok, n


@pytest.mark.parametrize("variant", ("as_stated", "p_scaled"))
def test_sl2q_symbolic_alpha_specializes(rel, variant):
    # the symbolic triple at A := q^n is the triple built at alpha = n
    symbolic = sl2q_triple(rel, variant=variant)
    for n in range(4):
        concrete = sl2q_triple(rel, alpha=n, variant=variant)
        for name in ("jplus", "jzero", "jminus"):
            got = getattr(symbolic, name).substitute({"A": Q**n})
            assert got == getattr(concrete, name), (n, name)


def test_sl2q_scaled_relations_hold():
    t = sl2q_triple(W.hq(p=1))
    res = sl2q_solve(t)
    sig = t.relation.sigma
    jp, j0, jm = res.c_plus * t.jplus, res.c_zero * t.jzero, t.jminus
    assert (sig * (j0 * jm) - jm * j0 + jm).is_zero()
    assert (sig**2 * (jp * jm) - jm * jp + (sig + one) * j0).is_zero()
    assert (j0 * jp - sig * (jp * j0) - jp).is_zero()


# --- annihilation ----------------------------------------------------------------------------------------


def test_annihilation_p1():
    for n in range(0, 5):
        assert annihilation_check(n, relation=W.hq(p=1)).passed


def test_annihilation_symbolic_p_fails():
    v = annihilation_check(1, relation=W.hq())
    assert v.status == "fail"
    # the offending entries carry the p - 1 obstruction
    assert any(col == 1 for col, _img in v.residual)


def test_annihilation_p_scaled_symbolic():
    for n in (0, 1, 2):
        assert annihilation_check(n, variant="p_scaled", relation=W.hq()).passed


# --- THM6 ------------------------------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 5))
def test_thm6_f1(n):
    assert verify(IdentityCase("THM6", W.extended(), n=n)).passed


@pytest.mark.parametrize("n", range(1, 5))
def test_thm6_letter_swap(n):
    assert thm6_letter_swap_matches_thm5(n)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_thm6_sl2_instance(n):
    sl2 = W.extended(sigma=1, F=Poly1([0, 2], "N"), tau=1)
    assert verify(IdentityCase("THM6", sl2, n=n)).passed


def test_thm6_q_deformed_sl2q_instance():
    qsl = W.extended(sigma=Q**2, F=Poly1([0, one + Q], "N"), tau=Q)
    for n in (1, 2):
        assert verify(IdentityCase("THM6", qsl, n=n)).passed


def test_thm1_thm2_under_extended():
    ext = W.extended()
    for n in (1, 2, 3):
        assert verify(IdentityCase("THM1a", ext, n=n)).passed
    for n, m in ((1, 2), (2, 2), (2, 3)):
        assert verify(IdentityCase("THM2a", ext, n=n, m=m)).passed
        assert verify(IdentityCase("THM2b", ext, n=n, m=m)).passed
        assert verify(IdentityCase("THM2c", ext, n=n, m=m)).passed


# --- suite ----------------------------------------------------------------------------------------------------


def test_suite_default_catalogs():
    for catalog in ("core", "errata", "extended"):
        report = suite(SuiteConfig(catalog=catalog, max_n=3))
        assert report.ok(), catalog
        assert not report.surprises(), catalog


def test_suite_empty():
    report = suite(SuiteConfig(catalog="none"))
    assert report.cases == [] and report.ok()


def test_suite_erratum_pattern():
    report = suite(SuiteConfig(catalog="errata", max_n=2))
    assert report.cases
    for c in report.cases:
        if c.variant == "as_stated" and not c.params:
            assert c.status == "fail", c
        else:
            assert c.status == "pass", c


def test_suite_json_deterministic():
    a = suite(SuiteConfig(catalog="errata", max_n=2)).to_json()
    b = suite(SuiteConfig(catalog="errata", max_n=2)).to_json()
    assert a == b


def test_suite_id_and_variant_filters():
    report = suite(SuiteConfig(catalog="errata", max_n=2, ids=("THM5",)))
    assert report.cases and all(c.id == "THM5" for c in report.cases)
    report = suite(SuiteConfig(catalog="errata", max_n=2, ids=("THM5",), variants=("p_scaled",)))
    assert report.cases and all(c.variant == "p_scaled" for c in report.cases)
    with pytest.raises(UnsupportedCaseError):
        suite(SuiteConfig(catalog="errata", ids=("NOPE",)))
    with pytest.raises(UnsupportedCaseError):
        suite(SuiteConfig(catalog="errata", variants=("nope",)))

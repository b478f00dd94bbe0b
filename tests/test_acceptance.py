"""Acceptance criteria, one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every check is exact; the stated wall-clock budgets are asserted
too.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from qweyl import identities as I
from qweyl import parser as P
from qweyl import reps as R
from qweyl import weyl as W
from qweyl.identities import IdentityCase, annihilation_check, expand_in_ab_powers, sl2q_solve, sl2q_triple, verify
from qweyl.scalar import A, P as SP, Poly1, Q, one

from catalog_cases import criterion_3_cases
from oracles import ab_power_sum_matrix, random_rational, random_word, thm4a_matrix_residual


@contextmanager
def criterion(number, label, budget_seconds):
    t0 = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - t0
        status = "FAIL" if failed else ("PASS" if elapsed < budget_seconds else "FAIL (over budget)")
        print("criterion %2d %-46s %-6s %6.2fs (budget %ds)" % (number, label, status, elapsed, budget_seconds))
    assert elapsed < budget_seconds, "criterion %d exceeded %ds" % (number, budget_seconds)


def test_criterion_1_theorem_1():
    with criterion(1, "product collapse (both letter orders), n<=6", 10):
        rel = W.hq()
        for n in range(1, 7):
            assert verify(IdentityCase("THM1a", rel, n=n)).passed, n
            assert verify(IdentityCase("THM1b", rel, n=n)).passed, n


def test_criterion_2_lemma_1():
    with criterion(2, "reordering law, n<=8, symbolic p q", 2):
        rel = W.hq()
        for n in range(1, 9):
            assert verify(IdentityCase("LEM1a", rel, n=n)).passed, n
            assert verify(IdentityCase("LEM1b", rel, n=n)).passed, n


def test_criterion_3_commutation_families():
    with criterion(3, "block collapse and commutator families", 30):
        for case in criterion_3_cases(W.hq()):
            assert verify(case).passed, (case.id, case.args())


def test_criterion_4_lemma_2_expansions():
    with criterion(4, "power-of-ab expansions, n<=5, Fock-checked", 30):
        rel = W.hq()
        for n in range(1, 6):
            for w in ("a" * n + "b" * n, "b" * n + "a" * n):
                x = rel.word(w)
                e = expand_in_ab_powers(x)
                assert len(e.coeffs) <= n + 1
                assert e.reconstruct() == x
        rng = random.Random(4)
        L = 14
        for _ in range(3):
            p = random_rational(rng, 1, 6)
            q = random_rational(rng, 1, 6)
            rep = R.hq_fock(p=p, q=q, L=L)
            for n in (2, 3):
                for w in ("a" * n + "b" * n, "b" * n + "a" * n):
                    coeffs = [
                        c.substitute({"p": p, "q": q}).as_fraction()
                        for c in expand_in_ab_powers(rel.word(w)).coeffs
                    ]
                    total = ab_power_sum_matrix(coeffs, rep, 2 * n)
                    assert total.windowed_equal(R.fock_word_matrix(w, rep)), (p, q, w)


def test_criterion_5_erratum_suite():
    with criterion(5, "ladder identities: p=1 / symbolic / p-scaled", 60):
        sym = W.hq()
        at1 = W.hq(p=1)
        for cid in ("THM4a", "THM4b", "THM5"):
            for n in range(1, 5):
                assert verify(IdentityCase(cid, at1, n=n)).passed, (cid, n)
                bad = verify(IdentityCase(cid, sym, n=n))
                assert bad.status == "fail" and not bad.residual.is_zero(), (cid, n)
                assert verify(IdentityCase(cid, sym, n=n, variant="p_scaled")).passed, (cid, n)
        res = verify(IdentityCase("THM4a", sym, n=1)).residual
        golden = (one + Q) * (SP - one) * sym.word("bbba") + (one - SP) * sym.word("bb")
        assert res == golden
        rng = random.Random(55)
        for _ in range(5):
            p = random_rational(rng, 1, 7)
            q = random_rational(rng, 1, 7)
            via_matrices, rep = thm4a_matrix_residual(1, p, q)
            via_engine = R.fock_matrix(res.substitute({"p": p, "q": q}), rep)
            assert via_engine.windowed_equal(via_matrices), (p, q)


def test_criterion_6_sl2q_and_annihilation():
    with criterion(6, "sl2q factors, relation-2 obstruction, kernels", 20):
        ok = sl2q_solve(sl2q_triple(W.hq(p=1)))
        assert ok.ok and ok.failing_relation is None
        generic = sl2q_solve(sl2q_triple(W.hq()))
        assert not generic.ok and generic.failing_relation == 2
        assert generic.residual.numerator_divisible_by((one - A) * (one - SP))
        assert sl2q_solve(sl2q_triple(W.hq(), variant="p_scaled")).ok
        for n in range(0, 5):
            assert annihilation_check(n, relation=W.hq(p=1)).passed, n


def test_criterion_7_extended_ladder():
    with criterion(7, "extended-relation ladder and expansions", 60):
        f1 = W.extended()  # sigma = p, F = 1, tau = q
        for n in range(1, 5):
            assert verify(IdentityCase("THM6", f1, n=n)).passed, n
            assert I.thm6_letter_swap_matches_thm5(n), n
        sl2 = W.extended(sigma=1, F=Poly1([0, 2], "N"), tau=1)
        for n in range(1, 4):
            assert verify(IdentityCase("THM6", sl2, n=n)).passed, n
        for n in range(1, 4):
            for w in ("a" * n + "b" * n, "b" * n + "a" * n):
                x = sl2.word(w)
                assert expand_in_ab_powers(x).reconstruct() == x, w


def test_criterion_8_representation_suite():
    with criterion(8, "representation suite", 30):
        for rep in R.ALL_POLY_REPS().values():
            assert R.rep_relation_check(rep, 12).passed, rep.kind
        for n in range(1, 5):
            for rep in (R.diff_ab(), R.jackson()):
                assert R.eq2_check(rep, n, "a").passed, (rep.kind, n)
                assert R.eq2_check(rep, n, "b").passed, (rep.kind, n)
            assert R.eq3_check(n).passed, n
        for n in range(1, 4):
            assert R.eq4_check(n).passed, n
            assert R.eq20_check(n).passed, n
            assert R.eq1_first_check(n).passed, n
            assert R.eq1_second_check(n, corrected=True).passed, n
        printed = R.eq1_second_check(1, corrected=False)
        assert printed.status == "fail"
        assert "d^2 x^2 d^2" in printed.detail
        for n in range(0, 4):
            verdict, c, matches_printed = R.eq22_constant(n)
            assert verdict.passed and c is not None
            assert not matches_printed  # flagged disagreement with the printed d^(n+1)


def test_criterion_9_cross_validation():
    with criterion(9, "morphism and Fock cross-validation, 50 words", 30):
        rng = random.Random(99)
        for name, rep in R.ALL_POLY_REPS().items():
            for _ in range(50):
                word = random_word(rng, rng.randint(1, 6))
                assert R.morphism_check(word, rep, 10).passed, (name, word)
        assert R.fock_vs_abstract_spotcheck(seed=9, L=12, words=50).passed


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "qweyl.cli", *args], capture_output=True, text=True)


def test_criterion_10_parser_cli():
    with criterion(10, "parser round-trip, exit codes, stable JSON", 30):
        rel = W.hq()
        rng = random.Random(10)
        atoms = ["a", "b", "p", "q", "d", "2", "1/2", "qnum(2)", "qnum(3)"]

        def gen(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(atoms)
            shape = rng.randrange(5)
            if shape == 0:
                return "(%s + %s)" % (gen(depth - 1), gen(depth - 1))
            if shape == 1:
                return "(%s - %s)" % (gen(depth - 1), gen(depth - 1))
            if shape == 2:
                return "%s * %s" % (gen(depth - 1), gen(depth - 1))
            if shape == 3:
                return "(%s)^%d" % (gen(depth - 1), rng.randrange(4))
            return "comm(%s, %s)" % (gen(depth - 1), gen(depth - 1))

        for _ in range(100):
            nf = P.evaluate(P.parse(gen(2)), rel)
            assert P.evaluate(P.parse(P.print_canonical(nf)), rel) == nf

        assert _cli("verify", "(a*b*a)^2 == a^2*b^2*a^2").returncode == 0
        assert _cli("verify", "a*b == b*a").returncode == 1
        assert _cli("normalize", "a^^2").returncode == 2
        args = ("suite", "--catalog", "errata", "--max-n", "2", "--format", "json", "--seed", "12")
        first, second = _cli(*args), _cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["version"] == 1
        keys = list(payload["cases"][0])
        assert keys == ["id", "args", "variant", "params", "status", "residual", "millis"]

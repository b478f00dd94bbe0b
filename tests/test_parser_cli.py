"""Parser round-trips, grammar goldens, and CLI end-to-end runs."""

import argparse
import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import cli
from qweyl import parser as P
from qweyl import weyl as W
from qweyl.parser import EvalError, ParseError, eval_npoly, eval_scalar, evaluate, parse, parse_bindings, parse_statement
from qweyl.scalar import Poly1, Scalar, qnum

from oracles import ab_power_ordering

REL = W.hq()


# --- grammar: one accepting and one rejecting case per production ---------------------


@pytest.mark.parametrize(
    "text",
    [
        "a", "b", "p", "q", "A", "d", "3", "3/2",
        "qnum(4)",
        "comm(a, b)",
        "(a)",
        "a*b",
        "a + b - p",
        "a^2",
        "q^-1",
        "-a + b",
        "(a*b*a)^3 - a^3*b^3*a^3",
        "b*a*(b*a - qnum(1))",
        "comm(a*b, a^2*b^2)",
        "3/2 * b",
    ],
)
def test_grammar_accepts(text):
    parse(text)


@pytest.mark.parametrize(
    "text,col",
    [
        ("a^^2", 3),
        ("a b", 3),          # juxtaposition is not multiplication
        ("qnum(q)", 6),
        ("comm(a b)", 8),
        ("(a", 3),
        ("a +", 4),
        ("x", 1),
        ("a^2.5", 4),
        ("", 1),
        ("a $ b", 3),
        ("3//2", 2),
        ("(1/0)", 2),
        ("a + 02/00", 5),
    ],
)
def test_grammar_rejects_with_position(text, col):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.col == col
    assert err.value.expected or True


def test_error_positions_multiline():
    with pytest.raises(ParseError) as err:
        parse("a +\n ^")
    assert (err.value.line, err.value.col) == (2, 2)


# --- evaluation ------------------------------------------------------------------------


def test_eval_defining_relation():
    assert evaluate(parse("a*b - q*b*a - p"), REL).is_zero()


def test_eval_commutator_example():
    assert evaluate(parse("comm(a*b, a^2*b^2)"), REL).is_zero()


def test_eval_rational_coefficient():
    nf = evaluate(parse("3/2 * b"), REL)
    assert nf == Scalar.of(Fraction(3, 2)) * REL.gen("b")


def test_eval_qnum_atom():
    assert evaluate(parse("qnum(3)"), REL) == REL.scalar_nf(qnum(3))


def test_eval_N_requires_extended():
    with pytest.raises(EvalError):
        evaluate(parse("N"), REL)
    ext = W.extended()
    assert not evaluate(parse("N*a"), ext).is_zero()


def test_eval_negative_generator_power_rejected():
    with pytest.raises(EvalError):
        evaluate(parse("a^-1"), REL)
    assert evaluate(parse("q^-2"), REL) == REL.scalar_nf(Scalar.variable("q", -2))


def test_eval_scalar_and_npoly():
    assert eval_scalar(parse("qnum(2)*p - 1")) == qnum(2) * Scalar.variable("p") - 1
    with pytest.raises(EvalError):
        eval_scalar(parse("a"))
    assert eval_npoly(parse("2*N + 1")) == Poly1([1, 2], "N")
    with pytest.raises(EvalError):
        eval_npoly(parse("a*N"))


def test_nesting_limit():
    n = P.MAX_NESTING
    assert evaluate(parse("(" * n + "a*b" + ")" * n), REL) == evaluate(parse("a*b"), REL)
    with pytest.raises(ParseError) as err:
        parse("(" * (n + 1) + "a" + ")" * (n + 1))
    assert err.value.col == n + 2
    with pytest.raises(ParseError):
        parse("(" * 3000 + "a" + ")" * 3000)


def test_long_flat_chains_evaluate():
    n = 3000
    assert evaluate(parse("*".join(["a"] * n)), REL) == evaluate(parse("a^%d" % n), REL)
    assert evaluate(parse(" - ".join(["b"] * n)), REL) == evaluate(parse("%d*b" % (n - 2)), REL) * -1
    assert eval_scalar(parse("*".join(["q"] * n))) == Scalar.variable("q", n)
    assert eval_npoly(parse("+".join(["N"] * n))) == Poly1([0, n], "N")


# --- printing round-trip ------------------------------------------------------------------


def test_print_examples():
    assert evaluate(parse("a*b"), REL).render() == "q*b*a + p"
    assert evaluate(parse("a - a"), REL).render() == "0"


_atoms = st.sampled_from(["a", "b", "p", "q", "d", "2", "1/2", "qnum(2)", "qnum(3)"])


def _ast_texts(depth):
    if depth == 0:
        return _atoms
    sub = _ast_texts(depth - 1)
    return st.one_of(
        _atoms,
        st.tuples(sub, sub).map(lambda t: "(%s + %s)" % t),
        st.tuples(sub, sub).map(lambda t: "(%s - %s)" % t),
        st.tuples(sub, sub).map(lambda t: "%s * %s" % t),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: "(%s)^%d" % t),
        st.tuples(sub, sub).map(lambda t: "comm(%s, %s)" % t),
    )


@settings(max_examples=100, deadline=None)
@given(_ast_texts(2))
def test_round_trip_law(text):
    nf = evaluate(parse(text), REL)
    again = evaluate(parse(nf.render()), REL)
    assert again == nf


# --- statements -------------------------------------------------------------------------------


def test_statement_forms():
    assert parse_statement("normalize a*b").kind == "normalize"
    st_ = parse_statement("verify (a*b*a)^2 == a^2*b^2*a^2")
    assert st_.kind == "verify" and len(st_.exprs) == 2
    assert parse_statement("expand a^2*b^2").kind == "expand"


def test_statement_rejects_bad_bindings():
    with pytest.raises(ParseError):
        parse_bindings("x=1")
    with pytest.raises(ParseError):
        parse_bindings("p=oops")
    with pytest.raises(ParseError):
        parse_bindings("p=1/0")
    with pytest.raises(ParseError):
        parse_bindings("p=--2")
    with pytest.raises(ParseError):
        parse_bindings("p=1:")
    with pytest.raises(ParseError):
        parse_statement("verify a*b")


def test_run_statement_under_bindings():
    p1, pq1 = {"p": Fraction(1)}, {"p": Fraction(1), "q": Fraction(1)}
    rows = [
        P.run_statement(parse_statement(text), W.hq(), bindings)
        for text, bindings in (
            ("verify a*b == q*b*a + 1", p1),
            ("normalize a*b", p1),
            ("verify a*b == b*a + 1", pq1),
            ("expand b*a", pq1),
            ("verify a*b == b*a", pq1),
        )
    ]
    assert [r["kind"] for r in rows] == ["verify", "normalize", "verify", "expand", "verify"]
    assert [r["status"] for r in rows] == ["pass", "pass", "pass", "pass", "fail"]
    assert rows[1]["result"] == "q*b*a + 1"
    assert rows[3]["result"] == ["-1", "1"]  # ba = (ab - 1)/1 at p=q=1


@pytest.mark.parametrize(
    "text, at, where, message",
    [
        ("normalize a^^2", (2, 1), (2, 13), "unexpected '\\^'"),
        (" normalize a^^2", (1, 13), (1, 26), "unexpected '\\^'"),  # a statement cut from a longer line
        ("\n\n  verify a == b^^2", (1, 1), (3, 17), "unexpected '\\^'"),  # lines counted from its newlines
        ("verify a*b == (b", (1, 1), (1, 17), "unexpected 'end of input'"),
        (" verify a*b", (2, 1), (2, 11), "verify needs '=='"),  # no '==': the statement's last character
        ("  normalize a $ b", (2, 1), (2, 15), "unexpected character '\\$'"),
        ("a*b == b*a", (1, 1), (1, 1), "a statement starts with normalize, verify or expand"),
        # Fraction(1, 0) raised a bare ZeroDivisionError
        ("normalize 1/0", (2, 1), (2, 11), "zero denominator in '1/0'"),
        # int() raised CPython's ValueError, which names sys.set_int_max_str_digits(); here at the denominator
        ("verify a*b == q*b*a + 3/" + "7" * 5000, (2, 1), (2, 25), "integer literal too long"),
    ],
    ids=("second-line", "mid-line", "leading-newlines", "end-of-input", "no-equals", "bad-character",
         "no-keyword", "zero-denominator", "long-literal"),
)
def test_statement_errors_name_their_positions(text, at, where, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_statement(text, *at)
    assert (err.value.line, err.value.col) == where
    assert str(err.value).endswith("at line %d, column %d" % where)


def test_statement_errors_count_from_the_statement():
    with pytest.raises(ParseError) as err:
        parse_statement("verify a == b^^2")
    assert (err.value.line, err.value.col) == (1, 15)


# --- CLI ------------------------------------------------------------------------------------------


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "qweyl.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_cli_normalize_golden():
    r = run_cli("normalize", "a*b*b")
    assert r.returncode == 0
    assert r.stdout.strip() == "q^2*b^2*a + (p*q + p)*b"


def test_cli_verify_pass_and_fail():
    r = run_cli("verify", "(a*b*a)^2 == a^2*b^2*a^2")
    assert r.returncode == 0
    r = run_cli("verify", "a*b == b*a")
    assert r.returncode == 1
    assert "residual" in r.stdout


def test_cli_parse_error_exit_2():
    r = run_cli("normalize", "a^^2")
    assert r.returncode == 2
    assert "column 3" in r.stderr


@pytest.mark.parametrize(
    "text, col",
    [
        ("a^^2 == b", 3),
        ("b == a^^2", 8),
        ("a*b", 3),  # no '==': the expression's last character
        ("a*b  ", 3),
    ],
)
def test_cli_verify_errors_name_expression_columns(capsys, text, col):
    rc, out, err = cli_main(capsys, "verify", text)
    assert rc == 2 and not out
    assert err.rstrip().endswith("at line 1, column %d" % col)


def test_cli_usage_error_exit_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


def test_cli_suite_has_no_empty_catalog():
    # an empty selection is --ids with no matching case; "none" is not a catalog
    r = run_cli("suite", "--catalog", "none")
    assert r.returncode == 2 and not r.stdout
    assert r.stderr.startswith("usage: qweyl suite") and "invalid choice: 'none'" in r.stderr


@pytest.mark.parametrize("catalog", ("errata", "extended"))
def test_cli_suite_params_bind_only_the_core_rows(capsys, catalog):
    # these catalogs fix their own relations; --params was ignored there
    rc, out, err = cli_main(capsys, "suite", "--catalog", catalog, "--params", "q=1")
    assert rc == 2 and not out
    assert err == "error: --params binds the core catalog's relation only; the %s catalog fixes its own\n" % catalog


def test_cli_params_binding():
    r = run_cli("normalize", "a*b", "--params", "p=1,q=2/3")
    assert r.returncode == 0
    assert r.stdout.strip() == "2/3*b*a + 1"


def test_cli_extended_relation():
    r = run_cli("verify", "a*b - p*b*a == 1", "--relation", "extended")
    assert r.returncode == 0
    r = run_cli(
        "verify",
        "a*b - b*a == 2*N",
        "--relation",
        "extended",
        "--sigma",
        "1",
        "--F",
        "2*N",
    )
    assert r.returncode == 0


def test_cli_expand():
    r = run_cli("expand", "b*a", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["status"] == "pass"
    r = run_cli("expand", "b*b*a")
    assert r.returncode == 1


# machine-format outputs pinned by exit code and sha256: every verdict, residual
# and detail, whichever path (engine or Fock decision) settled the case
PINNED_JSON = (
    (("suite", "--catalog", "errata", "--max-n", "2", "--format", "json", "--seed", "7"), 0, "82e7db5e9b77887c4a8935d9dfff7fb55782c8eaee6fe29d4941842b0a0674c4"),
    # every THM4a/b and THM5 residual and its (p - 1) detail up to n = 8
    (("suite", "--catalog", "errata", "--max-n", "8", "--format", "json"), 0, "1bd326a16d60ffc4cacdc325c7cc35585a6c01965954128fbefc68fd2dc28188"),
    (("suite", "--format", "json"), 0, "2cb58a415351ef2d32660b10bea944dc9034fe198900a5d95a94851513b0b51a"),
    (("suite", "--max-n", "6", "--params", "p=3,q=7", "--format", "json"), 0, "9dd86a7b262792654b064da7fb152ac5b248f7f2914855af037d1da9c9d3647d"),
    (("suite", "--params", "p=1,q=-1", "--format", "json"), 0, "97883c210e47f4e238b83d5a7d97379a9760ccf86e213080cdca1bcec8775a85"),
    (("suite", "--params", "p=0", "--format", "json"), 0, "1dd2185b830ea4e9ed1deb93b554038d1e097a92b82e7dbf20c0cc9651a98c7c"),
    (("rep-check", "--format", "json"), 0, "149ff6e8c6ea738bc0d35e4dcebbd079f33133b22fe08eae446bafc6086361e8"),
    (("rep-check", "--n", "4", "--format", "json"), 0, "f7b7f9957499310dcb700667d503745dfb454a6e72d1d669a0adf2c67bf22d8c"),
    (("rep-check", "--degree", "16", "--format", "json"), 0, "a19ac93d2ceaf0f0f2c899e4d5ecfdc27fb3fcb07dca7280bef88c970cf93b69"),
    (("rep-check", "--n", "6", "--format", "json"), 0, "a63e81306007d8f80f1869f886f0893f96fd9462fbc19fbb0c90403e1b31dae8"),
    (("rep-check", "--degree", "80", "--format", "json"), 0, "5c9861d4556b6d71ea567ca9fd7a5d5c470b264d60fd33718347c4242f386a37"),
)


def test_cli_suite_json_byte_stable():
    for args, rc, digest in PINNED_JSON:
        r = run_cli(*args)
        assert (r.returncode, hashlib.sha256(r.stdout.encode()).hexdigest()) == (rc, digest), args
        payload = json.loads(r.stdout)
        assert payload["version"] == 1
        assert list(payload["cases"][0]) == ["id", "args", "variant", "params", "status", "residual", "millis"]


def test_cli_normalize_json_of_a_high_degree_quotient_byte_stable():
    # its gcd with 1 + q is 1; the heuristic gcd shows it with one integer gcd
    r = run_cli("normalize", "(q^4000+1)*(1+q)^-1*a", "--format", "json")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == "bf0293a8536a74ec49791ec0280b2e5393d312546785f4e283c38e20e795cf4e"
    assert "(q^4000 + 1)/(q + 1)*a" in r.stdout


# engine outputs pinned by sha256: long a-runs, long b-runs, an N on both sides of a^j b^i;
# the degree-40 products multiply by long q-integer runs, the kernel's window sums;
# the power of b^2*a - c*b multiplies its factors in from the left
PINNED_NORMALIZE_JSON = (
    (("a^24*b^24",), "7b66382de15f97c3f4fe32a0defcd1607bf466c5a4e48b8c363f56e07e7d16a2"),
    (("(a*b)^16",), "ec9c2a2f896696603cdbcab15a91eae55e5aadd4af733a62745885eb212cf2e1"),
    (("a^40*b^40",), "2f6af0fcde7ea955d738b2888911b61cab40cb731053ed19d32d326d52095c47"),
    (("(a*b)^40",), "c71f9db31a3277bf4bede2629f38bca81c3a66db12a49f72c8837640b7b4e2ee"),
    (("(b^2*a - (1+q+q^2)*p*b)^16",), "0fd503611ffa0af5b3bf3d32557a5c9126b87ed18b9f648cbc61d90d376d660a"),
    (("a^3000*b",), "5f3e1ae2d94108e6346aca6a5e034a0bd9c7ffd328ded86b6035adc75d43f501"),
    (("a*b^3000",), "e9d331db585641cda7646b1e4c0bb723aa88036c537c69bf98b13b5fdbfb4e36"),
    (("N^2*a^6*b^6*N^2", "--relation", "extended", "--F", "1+N+N^2"), "41d4f5b09bc794dce86da91ec939564537fc23062a80bc2d09b5f9b7db09b970"),
)


def test_cli_normalize_json_of_reordered_powers_byte_stable():
    for args, digest in PINNED_NORMALIZE_JSON:
        r = run_cli("normalize", *args, "--format", "json", timeout=60)
        assert (r.returncode, hashlib.sha256(r.stdout.encode()).hexdigest()) == (0, digest), args


def test_cli_normalize_binds_parameters_of_an_extended_relation():
    r = run_cli("normalize", "a*b*N", "--relation", "extended", "--F", "p+N", "--params", "p=2,q=3")
    assert (r.returncode, r.stdout) == (0, "6*b*N*a + 2*b*a + N^2 + 2*N\n")


def test_cli_normalize_of_quotients_past_the_heuristic_gcd_cap_finishes():
    # the first evaluates past the heuristic gcd's bit cap, so the PRS gcd
    # divides it, dropping one top coefficient per step; the second stays
    # under the cap, and one integer gcd finds q - 1
    r = run_cli("normalize", "(q^300000+q^400000)*(1+q)^-1*a", timeout=30)
    assert (r.returncode, r.stdout) == (0, "(q^400000 + q^300000)/(q + 1)*a\n")
    r = run_cli("normalize", "(q^20000-1)*(q-1)^-1", timeout=30)
    assert (r.returncode, r.stdout) == (0, "(%s + q + 1)\n" % " + ".join("q^%d" % e for e in range(19999, 1, -1)))


def test_cli_expand_json_under_the_extended_relation_byte_stable():
    r = run_cli("expand", "b*b*a*a", "--relation", "extended", "--F", "1+N", "--format", "json")
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == "63c1ea8aa78085f490470e0bb25973c2f764068456c842b634f66114de823669"


def test_cli_suite_core_seeded_determinism():
    args = ("suite", "--catalog", "core", "--max-n", "2", "--format", "json", "--seed", "42")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_cli_rep_check_json():
    r = run_cli("rep-check", "--eq", "22", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert all(c["status"] == "pass" for c in payload["cases"])
    assert any("jackson" in note for note in payload["notes"])


def test_cli_rep_check_expected_failure_is_ok_exit():
    # the as-printed variant is expected to fail; exit stays 0
    r = run_cli("rep-check", "--eq", "1b", "--n", "1")
    assert r.returncode == 0
    assert "as_printed" in r.stdout


def test_cli_tsv_format():
    r = run_cli("suite", "--catalog", "errata", "--max-n", "1", "--format", "tsv")
    assert r.returncode == 0
    line = r.stdout.splitlines()[0].split("\t")
    assert len(line) == 7 and line[0] == "THM4a"


def test_cli_tsv_byte_stable():
    args = ("suite", "--catalog", "core", "--max-n", "2", "--format", "tsv", "--seed", "9")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_cli_suite_ids_filter():
    r = run_cli("suite", "--catalog", "errata", "--ids", "LEM3", "--format", "json")
    payload = json.loads(r.stdout)
    assert payload["cases"] and all(c["id"] == "LEM3" for c in payload["cases"])


# --- CLI exit codes: 2 for bad input, 3 for internal errors, 1 only for failed identities ----------


def cli_main(capsys, *args):
    rc = cli.main(list(args))
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize(
    "args",
    [
        ("normalize", "a*b", "--seed", "1"),
        ("suite", "--relation", "extended"),
        ("rep-check", "--params", "p=1"),
        ("rep-check", "--max-n", "2"),
    ],
)
def test_cli_rejects_flags_the_subcommand_does_not_read(capsys, args):
    rc, out, err = cli_main(capsys, *args)
    assert rc == 2
    assert "unrecognized arguments" in err and not out


@pytest.mark.parametrize(
    "args",
    [
        ("normalize", "a*b", "--params", "p=1/0"),
        ("suite", "--catalog", "core", "--params", "p=1/0"),
        ("normalize", "a*b", "--params", "p=--2"),
        ("normalize", "a*b", "--params", "p=1:"),
        # unknown suite filters are input errors of the same kind (were exit 3, and exit 0 with no cases)
        ("suite", "--catalog", "core", "--ids", "BOGUS"),
        ("suite", "--catalog", "errata", "--variants", "bogus"),
        # a zero-denominator literal (were exit 3 with ``internal error: ZeroDivisionError(...)``)
        ("normalize", "(1/0)"),
        ("verify", "1/0 == a"),
        ("normalize", "a", "--sigma", "1/0"),
        ("expand", "a", "--relation", "extended", "--F", "1/0"),
    ],
)
def test_cli_bad_bindings_exit_2(capsys, args):
    rc, out, err = cli_main(capsys, *args)
    assert rc == 2
    assert err.startswith("error: ") and not out


@pytest.mark.parametrize(
    "text, col",
    [
        ("1" * 5000, 1),
        ("a + " + "3" * 5000 + "/2", 5),
        ("a + 2/" + "3" * 5000, 7),
        ("a^" + "9" * 5000, 3),
    ],
)
def test_cli_long_integer_literal_exit_2(capsys, text, col):
    # exited 2 with CPython's message, which names sys.set_int_max_str_digits()
    rc, out, err = cli_main(capsys, "normalize", text)
    assert rc == 2 and not out
    want = "error: integer literal too long: more than %d decimal digits at line 1, column %d\n"
    assert err == want % (sys.get_int_max_str_digits(), col)


def test_cli_non_decimal_digit_is_parse_error(capsys):
    # "²" passes str.isdigit() but not int(), which raised a ValueError without a position
    rc, out, err = cli_main(capsys, "normalize", "a^²")
    assert (rc, out, err) == (2, "", "error: unexpected character '²' at line 1, column 3\n")


def test_cli_coefficient_too_long_exit_2(capsys):
    # exited 2 with CPython's message, which names sys.set_int_max_str_digits()
    rc, out, err = cli_main(capsys, "normalize", "2^100000")
    assert rc == 2 and not out
    assert err == "error: coefficient too long to print: more than %d decimal digits\n" % sys.get_int_max_str_digits()


@pytest.mark.parametrize(
    "args",
    [
        # an empty basis made the known-false as-printed EQ1b read as pass
        ("rep-check", "--eq", "1b", "--n", "1", "--degree", "-1"),
        ("rep-check", "--n", "-1"),
        ("suite", "--max-n", "-1"),
    ],
)
def test_cli_negative_sizes_exit_2(capsys, args):
    rc, out, err = cli_main(capsys, *args)
    assert rc == 2
    assert "must be a non-negative integer" in err and not out


def test_cli_rep_check_degree_zero_is_zero(capsys):
    rc, out, _err = cli_main(capsys, "rep-check", "--rep", "diff_ab", "--degree", "0", "--format", "json")
    assert rc == 0
    reltab = [c for c in json.loads(out)["cases"] if c["id"] == "RELTAB"]
    assert [c["args"] for c in reltab] == [{"K": 0, "rep": "diff_ab"}]


def test_cli_deep_nesting_exit_2(capsys):
    rc, out, err = cli_main(capsys, "normalize", "(" * 3000 + "a" + ")" * 3000)
    assert rc == 2
    assert "nested more than" in err and not out


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "a^1048576 == N", "--relation", "extended"),  # read as pass before the key check
        ("normalize", "a^1048576*b"),
        ("normalize", "a^2000000"),
        # the coefficients' packed keys are bounded the same way
        ("verify", "q^600000*a == p*q^-448576*a"),  # q carried into p and read as pass
        ("normalize", "q^524287*q"),
    ],
)
def test_cli_pbw_exponent_overflow_exit_2(capsys, args):
    rc, out, err = cli_main(capsys, *args)
    assert rc == 2
    assert "exponent limit" in err and not out


@pytest.mark.parametrize(
    "args, reason",
    [
        # Poly1 ** squared dense coefficient lists: N^600000 still ran after 20 s
        (("normalize", "--relation", "extended", "--F", "N^2000000", "a*b"), "polynomial degree limit"),
        # NormalForm ** checks the base's exponents times n before it multiplies
        (("normalize", "(a*b)^1048576"), "exponent limit"),
    ],
)
def test_cli_huge_powers_exit_2_at_once(capsys, args, reason):
    start = time.perf_counter()
    rc, out, err = cli_main(capsys, *args)
    assert time.perf_counter() - start < 1
    assert rc == 2
    assert reason in err and not out


@pytest.mark.parametrize("args", [("--degree", "2000000"), ("--rep", "diff_ab", "--eq", "1a", "--degree", "2000000")])
def test_cli_rep_check_basis_past_its_field_exits_2_at_once(capsys, args):
    # still running after 15 s; the basis x^0..x^K is refused before it is built
    start = time.perf_counter()
    rc, out, err = cli_main(capsys, "rep-check", *args)
    assert time.perf_counter() - start < 1
    assert rc == 2 and not out
    assert err == "error: basis too large: a representation check covers x^0..x^K for K in 0..1048575\n"


@pytest.mark.parametrize("text, j, i", [("a*b^1500", 1, 1500), ("a^1500*b", 1500, 1)])
def test_cli_long_ab_powers_normalize(capsys, text, j, i):
    # the memo fill recursed once per exponent, so these exited 3 with RecursionError
    rc, out, err = cli_main(capsys, "normalize", text)
    assert rc == 0 and not err
    want = W.NormalForm(REL, {W._key(*mono): c for mono, c in ab_power_ordering(j, i).items()})
    assert out == want.render() + "\n"


def test_cli_unexpected_pass_exit_1(capsys):
    # a degree-1 basis cannot separate the known-false as-printed EQ1b, so it passes
    rc, out, _err = cli_main(capsys, "rep-check", "--eq", "1b", "--n", "1", "--degree", "1")
    assert rc == 1
    assert "UNEXPECTED (wanted fail)" in out
    assert "1 unexpected, suite FAIL" in out


def test_cli_internal_error_exit_3(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("injected\nsecond line")

    monkeypatch.setattr(cli, "_cmd_normalize", crash)
    rc, out, err = cli_main(capsys, "normalize", "a")
    assert rc == 3
    assert err.startswith("internal error: RuntimeError(") and err.count("\n") == 1


# --- one parser per process: in-process calls answer as fresh processes do -------------------------

REUSE_SEQUENCE = (
    ("normalize", "a*b", "--params", "p=1"),
    ("normalize", "a*b"),
    ("normalize", "a*b", "--seed", "1"),
    ("--help",),
    ("--help",),
    ("verify", "--help"),
    ("frobnicate",),
    ("normalize", "(1/0)"),
    ("suite", "--catalog", "core", "--format", "json"),
    ("normalize", "a*b", "--relation", "extended", "--F", "N"),
)


def test_cli_main_reuse_matches_fresh_processes(capsys, monkeypatch):
    # help and usage text wrap at the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_arg_parser.cache_clear()
    for args in REUSE_SEQUENCE:
        fresh = run_cli(*args)
        assert cli_main(capsys, *args) == (fresh.returncode, fresh.stdout, fresh.stderr), args


def test_cli_main_builds_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.Action.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.Action, "__init__", counting_init)
    cli.build_arg_parser.cache_clear()
    assert cli_main(capsys, "normalize", "a*b")[0] == 0
    assert built and cli.build_arg_parser.cache_info().misses == 1
    del built[:]
    for args in (("normalize", "a*b"), ("verify", "a == a"), ("frobnicate",), ("--help",)):
        cli_main(capsys, *args)
    assert not built
    assert cli.build_arg_parser.cache_info().misses == 1

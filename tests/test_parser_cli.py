"""Parser round-trips, grammar goldens, and CLI end-to-end runs."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qweyl import cli
from qweyl import parser as P
from qweyl import weyl as W
from qweyl.parser import EvalError, ParseError, eval_npoly, eval_scalar, evaluate, parse, parse_script, parse_statement
from qweyl.scalar import Poly1, Scalar, qnum


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
    assert P.print_canonical(evaluate(parse("a*b"), REL)) == "q*b*a + p"
    assert P.print_canonical(evaluate(parse("a - a"), REL)) == "0"


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
    again = evaluate(parse(P.print_canonical(nf)), REL)
    assert again == nf


# --- statements -------------------------------------------------------------------------------


def test_statement_forms():
    assert parse_statement("normalize a*b").kind == "normalize"
    st_ = parse_statement("verify (a*b*a)^2 == a^2*b^2*a^2")
    assert st_.kind == "verify" and len(st_.exprs) == 2
    assert parse_statement("a*b == b*a").kind == "verify"
    assert parse_statement("expand a^2*b^2").kind == "expand"
    w = parse_statement("with p=1, q=2/3")
    assert w.bindings == {"p": Fraction(1), "q": Fraction(2, 3)}
    w = parse_statement("with d=-1/2")
    assert w.bindings == {"d": Fraction(-1, 2)}


def test_statement_rejects_bad_bindings():
    with pytest.raises(ParseError):
        parse_statement("with x=1")
    with pytest.raises(ParseError):
        parse_statement("with p=oops")
    with pytest.raises(ParseError):
        parse_statement("with p=1/0")
    with pytest.raises(ParseError):
        parse_statement("with p=--2")
    with pytest.raises(ParseError):
        parse_statement("verify a*b")


def test_parse_script():
    script = parse_script("with p=1\nverify a*b == q*b*a + 1; normalize a*b*b")
    assert [s.kind for s in script] == ["with", "verify", "normalize"]


def test_run_script():
    rows = P.run_script(
        "with p=1\n"
        "verify a*b == q*b*a + 1\n"
        "normalize a*b\n"
        "with q=1\n"
        "verify a*b == b*a + 1\n"
        "expand b*a\n"
        "verify a*b == b*a",
        W.hq(),
    )
    assert [r["kind"] for r in rows] == ["verify", "normalize", "verify", "expand", "verify"]
    assert [r["status"] for r in rows] == ["pass", "pass", "pass", "pass", "fail"]
    assert rows[1]["result"] == "q*b*a + 1"
    assert rows[3]["result"] == ["-1", "1"]  # ba = (ab - 1)/1 at p=q=1


# --- CLI ------------------------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qweyl.cli", *args],
        capture_output=True,
        text=True,
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


def test_cli_usage_error_exit_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2


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
    (("suite", "--format", "json"), 0, "2cb58a415351ef2d32660b10bea944dc9034fe198900a5d95a94851513b0b51a"),
    (("suite", "--max-n", "6", "--params", "p=3,q=7", "--format", "json"), 0, "9dd86a7b262792654b064da7fb152ac5b248f7f2914855af037d1da9c9d3647d"),
    (("suite", "--params", "p=1,q=-1", "--format", "json"), 0, "97883c210e47f4e238b83d5a7d97379a9760ccf86e213080cdca1bcec8775a85"),
    (("suite", "--params", "p=0", "--format", "json"), 0, "1dd2185b830ea4e9ed1deb93b554038d1e097a92b82e7dbf20c0cc9651a98c7c"),
    (("rep-check", "--format", "json"), 0, "149ff6e8c6ea738bc0d35e4dcebbd079f33133b22fe08eae446bafc6086361e8"),
)


def test_cli_suite_json_byte_stable():
    for args, rc, digest in PINNED_JSON:
        r = run_cli(*args)
        assert (r.returncode, hashlib.sha256(r.stdout.encode()).hexdigest()) == (rc, digest), args
        payload = json.loads(r.stdout)
        assert payload["version"] == 1
        assert list(payload["cases"][0]) == ["id", "args", "variant", "params", "status", "residual", "millis"]


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
        ("suite", "--catalog", "none", "--params", "p=1/0"),
        ("normalize", "a*b", "--params", "p=--2"),
        # unknown suite filters are input errors of the same kind (were exit 3, and exit 0 with no cases)
        ("suite", "--catalog", "core", "--ids", "BOGUS"),
        ("suite", "--catalog", "errata", "--variants", "bogus"),
    ],
)
def test_cli_bad_bindings_exit_2(capsys, args):
    rc, out, err = cli_main(capsys, *args)
    assert rc == 2
    assert err.startswith("error: ") and not out


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

"""Reference checks for benchmark outputs; shares no code with qweyl.

``Naive`` evaluates an expression at one rational point (p, q) by naive pair
rewriting: an element is a map from words in a, b to ``Fraction``
coefficients, a product concatenates words, and every occurrence of ``ab``
is rewritten to ``q*ba + p`` (leftmost first, collecting like words each
round) until every word reads b...ba...a.  Two expressions that agree as
elements of the algebra agree at every point; a random rational point makes
an accidental match of different elements very unlikely.

``check`` classifies one item's output: ``failed`` when the call raised or
exited with another code than the one the item expects, ``wrong`` when the
output differs from the reference.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from fractions import Fraction

from workloads import item_key

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|(.))")


class NaiveError(Exception):
    """The text is outside the grammar this reference understands."""


class Naive:
    """Exact evaluator of a*b = q*b*a + p at fixed rational p, q."""

    def __init__(self, p: Fraction, q: Fraction):
        self.p, self.q = Fraction(p), Fraction(q)

    # -- algebra on {word: Fraction} ---------------------------------------

    def reduce(self, elem: dict) -> dict:
        done: dict = {}
        todo = elem
        while todo:
            nxt: dict = {}
            for w, c in todo.items():
                k = w.find("ab")
                if k < 0:
                    done[w] = done.get(w, 0) + c
                    continue
                for w2, c2 in ((w[:k] + "ba" + w[k + 2 :], c * self.q), (w[:k] + w[k + 2 :], c * self.p)):
                    nxt[w2] = nxt.get(w2, 0) + c2
            todo = {w: c for w, c in nxt.items() if c}
        return {w: c for w, c in done.items() if c}

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for w1, c1 in x.items():
            for w2, c2 in y.items():
                out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
        return self.reduce(out)

    @staticmethod
    def add(x: dict, y: dict, sign: int = 1) -> dict:
        out = dict(x)
        for w, c in y.items():
            out[w] = out.get(w, 0) + sign * c
        return {w: c for w, c in out.items() if c}

    def power(self, x: dict, n: int) -> dict:
        if n < 0:
            return {"": self.scalar(x) ** n}
        out = {"": Fraction(1)}
        for _ in range(n):
            out = self.mul(out, x)
        return out

    @staticmethod
    def scalar(x: dict) -> Fraction:
        if set(x) - {""}:
            raise NaiveError("expected a scalar, got generators")
        return x.get("", Fraction(0))

    # -- text -----------------------------------------------------------------

    def evaluate(self, text: str) -> dict:
        self._toks = self._tokenize(text)
        self._pos = 0
        value = self._expr()
        if self._peek() is not None:
            raise NaiveError("trailing input in %r" % text)
        return value

    @staticmethod
    def _tokenize(text: str) -> list:
        toks = []
        for num, name, op in _TOKEN.findall(text):
            if num:
                toks.append(("num", int(num)))
            elif name:
                toks.append(("name", name))
            elif op.strip():
                toks.append(("op", op))
        return toks

    def _peek(self):
        return self._toks[self._pos] if self._pos < len(self._toks) else None

    def _take(self, want=None):
        tok = self._peek()
        if tok is None or (want is not None and tok != ("op", want)):
            raise NaiveError("expected %r, got %r" % (want, tok))
        self._pos += 1
        return tok

    def _expr(self) -> dict:
        negate = self._peek() == ("op", "-")
        if negate:
            self._take("-")
        value = self._term()
        if negate:
            value = self.add({}, value, -1)
        while self._peek() in (("op", "+"), ("op", "-")):
            sign = 1 if self._take()[1] == "+" else -1
            value = self.add(value, self._term(), sign)
        return value

    def _term(self) -> dict:
        value = self._factor()
        while self._peek() in (("op", "*"), ("op", "/")):
            if self._take()[1] == "*":
                value = self.mul(value, self._factor())
            else:
                d = self.scalar(self._factor())
                value = {w: c / d for w, c in value.items()}
        return value

    def _factor(self) -> dict:
        base = self._atom()
        if self._peek() != ("op", "^"):
            return base
        self._take("^")
        sign = 1
        if self._peek() == ("op", "-"):
            self._take("-")
            sign = -1
        kind, n = self._take()
        if kind != "num":
            raise NaiveError("integer exponent expected")
        return self.power(base, sign * n)

    def _atom(self) -> dict:
        kind, val = self._take()
        if kind == "num":
            return {"": Fraction(val)} if val else {}
        if kind == "name":
            if val in ("a", "b"):
                return {val: Fraction(1)}
            if val == "p":
                return {"": self.p}
            if val == "q":
                return {"": self.q}
            if val == "qnum":
                self._take("(")
                kind, k = self._take()
                self._take(")")
                return {"": sum((self.q**i for i in range(k)), Fraction(0))} if k else {}
            if val == "comm":
                self._take("(")
                x = self._expr()
                self._take(",")
                y = self._expr()
                self._take(")")
                return self.add(self.mul(x, y), self.mul(y, x), -1)
            raise NaiveError("unknown name %r" % val)
        if val == "(":
            value = self._expr()
            self._take(")")
            return value
        raise NaiveError("unexpected %r" % val)


def naive_point(seed: int) -> Naive:
    """A random rational point with p != 0 and q not in {0, 1, -1}."""
    rng = random.Random("naive-%d" % seed)
    p = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    q = Fraction(1)
    while q in (0, 1, -1):
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return Naive(p, q)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_content_ok(item: dict, out: dict, naive: Naive) -> bool:
    check = item["check"]
    if check == "malformed":
        return out["stdout"] == "" and out["stderr"].startswith("error:")
    if out["stderr"]:
        return False
    if check == "normalize":
        fmt = item["argv"][item["argv"].index("--format") + 1]
        text = json.loads(out["stdout"])["result"] if fmt == "json" else out["stdout"].rstrip("\n")
        return naive.evaluate(text) == naive.evaluate(item["expr"])
    if check == "verify":
        got = json.loads(out["stdout"])
        lhs, _, rhs = item["argv"][1].partition("==")
        want = naive.add(naive.evaluate(lhs), naive.evaluate(rhs), -1)
        status = "pass" if item["rc"] == 0 else "fail"
        residual = naive.evaluate(got["residual"]) if got["residual"] else {}
        return got["status"] == status and residual == want and bool(want) == (status == "fail")
    if check == "expand":
        got = json.loads(out["stdout"])
        if got["status"] != "pass":
            return False
        ab = naive.evaluate("a*b")
        total: dict = {}
        for k, coeff in enumerate(json.loads(got["coefficients"])):
            term = naive.mul({"": naive.scalar(naive.evaluate(coeff))}, naive.power(ab, k))
            total = naive.add(total, term)
        return total == naive.evaluate(item["expr"])
    return True  # "digest": the recorded digest carries the check


def check(item: dict, output: str, naive: Naive, digests: dict) -> tuple[bool, bool]:
    """(failed, wrong) for one item's first-pass output."""
    if output.startswith("error: "):
        return True, False
    data = json.loads(output)
    if item["kind"] == "cli" and data["rc"] != item["rc"]:
        return True, False
    wrong = False
    if item["digest"]:
        wrong = digests.get(item_key(item)) != sha256(output)
    if item["kind"] == "cli":
        try:
            wrong = wrong or not _cli_content_ok(item, data, naive)
        except (NaiveError, ValueError, KeyError, ZeroDivisionError):
            wrong = True
    elif item["kind"] == "verify":
        wrong = wrong or data["status"] != item["expect"] or data["detail"] != item["detail"]
    else:
        wrong = wrong or data["status"] != "pass"
    return False, wrong

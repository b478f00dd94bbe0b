"""Independent oracles for the engine tests.

The naive reducer below rewrites free words letter by letter, with a
selectable reduction position (leftmost or rightmost reducible pair).  It
shares no code with the engine's memoized recurrences, so agreement between
the two is meaningful evidence, and agreement between the two reduction
orders is the confluence check.

``ab_power_ordering`` is the closed form for a^j b^i in the central case,
an oracle for ``Relation._R`` that involves no recurrence on words at all.

``thm4a_matrix_residual`` and ``ab_power_sum_matrix`` build Fock matrices
from products of the letter matrices alone, so they never touch the
reordering engine.

``word_identity_residual`` states the catalog's word identities on its own,
as powers and products of normal forms, where the catalog states them as
two words that the engine normal-orders letter by letter.
"""

from fractions import Fraction

from qweyl.reps import FockMatrix, fock_word_matrix, hq_fock
from qweyl.scalar import P, Q, one, zero
from qweyl.weyl import commutator

_RANK = {"b": 0, "N": 1, "a": 2}


def _reducible(word):
    """Indices of adjacent out-of-order pairs."""
    return [t for t in range(len(word) - 1) if _RANK[word[t]] > _RANK[word[t + 1]]]


def _rewrite_pair(word, t, rel):
    """Replace the pair at position t by the relation's right-hand side.

    Yields (new_word, scalar_factor) pairs.
    """
    left, pair, right = word[:t], word[t : t + 2], word[t + 2 :]
    if pair == ("a", "b"):
        yield left + ("b", "a") + right, rel.sigma
        if rel.has_N:
            for m, c in enumerate(rel.F.coeffs):
                if c:
                    yield left + ("N",) * m + right, c
        else:
            if rel.rho:
                yield left + right, rel.rho
    elif pair == ("a", "N"):
        # a N = tau * N a + a
        yield left + ("N", "a") + right, rel.tau
        yield left + ("a",) + right, one
    elif pair == ("N", "b"):
        # N b = tau * b N + b
        yield left + ("b", "N") + right, rel.tau
        yield left + ("b",) + right, one
    else:  # pragma: no cover - guarded by _reducible
        raise AssertionError(pair)


def reduce_word(word, rel, order="left"):
    """Fully normal-order a word by repeated single-pair rewriting.

    Returns a dict mapping (i, m, j) to Scalar, comparable with the engine's
    term map.
    """
    element = {tuple(word): one}
    while True:
        again = {}
        done = {}
        for w, c in element.items():
            spots = _reducible(w)
            if not spots:
                done[w] = done.get(w, zero) + c
                continue
            t = spots[0] if order == "left" else spots[-1]
            for nw, factor in _rewrite_pair(w, t, rel):
                again[nw] = again.get(nw, zero) + c * factor
        if not again:
            break
        for w, c in done.items():
            again[w] = again.get(w, zero) + c
        element = {w: c for w, c in again.items() if c}
    out = {}
    for w, c in element.items():
        if not c:
            continue
        key = (w.count("b"), w.count("N"), w.count("a"))
        out[key] = out.get(key, zero) + c
    return {k: v for k, v in out.items() if v}


def nf_terms(nf):
    """The engine normal form as a plain {(i, m, j): Scalar} dict."""
    return {mono: c for mono, c in nf.items()}


def random_word(rng, length, letters="ab"):
    return "".join(rng.choice(letters) for _ in range(length))


def random_rational(rng, lo=-6, hi=6):
    num = rng.randint(lo, hi)
    den = rng.randint(1, 6)
    if num == 0:
        num = 1
    return Fraction(num, den)


def _qint(n):
    """The q-number [n]_q = 1 + q + ... + q^(n-1)."""
    return sum((Q**t for t in range(n)), zero)


def _qfactorial(n):
    out = one
    for t in range(1, n + 1):
        out = out * _qint(t)
    return out


def _qbinomial(n, k):
    """Gaussian binomial [n k]_q by the q-Pascal rule [n k] = [n-1 k-1] + q^k [n-1 k].

    Filled row by row in a loop, so large n (a*b^1500) needs no recursion.
    """
    if k < 0 or k > n:
        return zero
    if k == 0 or k == n:
        return one
    row = [one] + [zero] * k  # row[t] = [m t] for the current m, starting at m = 0
    for m in range(1, n + 1):
        for t in range(min(m, k), 0, -1):  # descending: row[t - 1] still holds [m-1 t-1]
            row[t] = row[t - 1] + Q**t * row[t]
    return row[k]


def ab_power_ordering(j, i):
    """Normal form of a^j b^i under a*b = q*b*a + p, as {(i, m, j): Scalar}.

    a^j b^i = sum_k [j k]_q [i k]_q [k]_q! p^k q^((j-k)(i-k)) b^(i-k) a^(j-k)
    (Katriel and Kibler, J. Phys. A 25 (1992) 2683).
    """
    out = {}
    for k in range(min(i, j) + 1):
        c = _qbinomial(j, k) * _qbinomial(i, k) * _qfactorial(k) * P**k * Q ** ((j - k) * (i - k))
        out[(i - k, 0, j - k)] = c
    return out


def thm4a_matrix_residual(n, p, q, L=16):
    """LHS - RHS of the b-heavy ladder (THM4a) at numeric p, q, and its Fock rep."""
    rep = hq_fock(p=p, q=q, L=L)
    ma, mb = fock_word_matrix("a", rep), fock_word_matrix("b", rep)
    c = sum(q**t for t in range(n))  # {n} at numeric q
    base = mb @ mb @ ma - mb.scale(Fraction(c))
    lhs = base.matpow(n + 1)
    rhs = (mb.matpow(2 * n + 2) @ ma.matpow(n + 1)).scale(Fraction(q) ** (n * (n + 1)))
    return lhs - rhs, rep


def ab_power_sum_matrix(coeffs, rep, letters):
    """sum_k coeffs[k] (ab)^k as a Fock matrix built from the matrix of ab."""
    mab = fock_word_matrix("ab", rep)
    total = FockMatrix({}, rep.L, letters)
    acc = FockMatrix({(t, t): one for t in range(rep.L + 1)}, rep.L, 0)
    for k, c in enumerate(coeffs):
        if k:
            acc = acc @ mab
        total = total + acc.scale(c)
    return total


def _t_word(n, k):
    """The 2k+1-block word a^n (b^n a^n)^k."""
    return "a" * n + ("b" * n + "a" * n) * k


def _block(order, t):
    return order[0] * t + order[1] * t


def _product(rel, words):
    out = rel.unit()
    for w in words:
        out = out * rel.word(w)
    return out


def word_identity_residual(case):
    """lhs - rhs of a catalog word identity, built from powers and products.

    A collapse base^n == word takes ``rel.word(base) ** n``; a commuting family
    [U, V] == 0 takes the commutator of its left and right word products.
    """
    rel, cid, n, m, k = case.relation, case.id, case.n, case.m, case.k
    if cid in ("THM1a", "THM1b"):
        x, y = "ab" if cid == "THM1a" else "ba"
        return rel.word(x + y + x) ** n - rel.word(x * n + y * n + x * n)
    if cid == "COR1":
        return rel.word("ab" * k + "a") ** n - rel.word(_t_word(n, k))
    if cid == "COR3":
        orders = case.orders or ("ab",) * (len(case.ns) + len(case.ms))
        words = [_block(order, t) for t, order in zip(tuple(case.ns) + tuple(case.ms), orders)]
        left, right = words[: len(case.ns)], words[len(case.ns) :]
    else:
        left, right = {
            "COR2a": ([_t_word(n, k)], [_t_word(m, k)]),
            "COR2b": ([_t_word(t, k) for t in case.ns], [_t_word(t, k) for t in case.ms]),
            "THM2a": ([_block("ab", n)], [_block("ab", m)]),
            "THM2b": ([_block("ab", n)], [_block("ba", m)]),
            "THM2c": ([_block("ba", n)], [_block("ba", m)]),
        }[cid]
    return commutator(_product(rel, left), _product(rel, right))

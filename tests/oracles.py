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

``q_derivative_per_term`` is the Jackson derivative term by term: each key
adds its coefficient to every key of its q-number, one at a time, where
``Poly1.q_derivative`` multiplies each X degree by its q-number in one
kernel product.

``fock_words_equal_per_level`` and ``fock_word_matrix_per_level`` apply a
word to each basis vector |n> letter by letter and multiply the s_k of the
levels its a's meet, where ``reps`` keys a word's action by its sorted
a-offsets and memoizes the products on the representation.
"""

import math
from collections import Counter
from fractions import Fraction

from qweyl import scalar as S
from qweyl.identities import IdentityCase, build, sl2q_triple
from qweyl.reps import FockMatrix, ParameterMismatchError, fock_matrix, fock_word_matrix, hq_fock
from qweyl.scalar import P, Q, Poly1, one, zero
from qweyl.verdict import Verdict
from qweyl.weyl import commutator, extended, hq

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


def q_derivative_per_term(f):
    """The Jackson derivative X^k -> (1 + q + ... + q^(k-1)) X^(k-1), summed key by key."""
    out = {}
    for k, v in f.value.num.items():
        low = k - S.X_UNIT
        for kt in range(low, low + (k >> S._SHIFTS[S._X]) * S.Q_UNIT, S.Q_UNIT):
            s = out.get(kt, 0) + v
            if s:
                out[kt] = s
            else:
                del out[kt]
    return Poly1._of(f._over_den(S._mp_checked(out)), f.var)


def fock_a_levels(word, n):
    """Levels k at which the word's a's act on |n>, letter by letter; None when an a meets |0>."""
    levels = []
    for ch in reversed(word):
        if ch == "b":
            n += 1
        elif ch == "a":
            if n == 0:
                return None
            levels.append(n)
            n -= 1
        else:
            raise ParameterMismatchError("Fock words use a and b only")
    return levels


def _cyclotomic_counts(levels):
    """For each d >= 2, how many levels d divides: the exponent of Phi_d(sigma) in prod [k]_sigma."""
    counts = Counter()
    for k in levels:
        counts.update(d for d in range(2, k + 1) if k % d == 0)
    return counts


def fock_words_equal_per_level(rel, w1, w2):
    """``reps.fock_words_equal`` decided on |0> .. |#a> one level at a time.

    Each |n> is sent through both words letter by letter; the words differ
    when one kills |n> and the other does not, or when their products of
    [k]_sigma differ: as cyclotomic counts for a non-constant single-term
    sigma, as exact rationals for a constant one.  None where the Fock
    representation does not decide, as in ``reps``.
    """
    if rel.has_N or rel.rho.is_zero():
        return None
    na = w1.count("a")
    if len(w1) != len(w2) or na != w2.count("a"):
        return None
    sigma = rel.sigma
    if sigma.is_constant():
        c = sigma.as_fraction()
        qint = [Fraction(0)]
        for _ in w1:
            qint.append(qint[-1] * c + 1)
        if not all(qint[1 : na + 1]):
            return None

        def value(levels):
            return math.prod((qint[k] for k in levels), start=Fraction(1))

    elif sigma.is_single_term():
        value = _cyclotomic_counts
    else:
        return None
    for n in range(na + 1):
        s1, s2 = fock_a_levels(w1, n), fock_a_levels(w2, n)
        if (s1 is None) != (s2 is None):
            return False
        if s1 is not None and value(s1) != value(s2):
            return False
    return True


def fock_word_matrix_per_level(word, rep, c=one):
    """c times the word's Fock matrix: column n is c times s_k over the levels k, in the order met."""
    shift = word.count("b") - word.count("a")
    out = {}
    for n in range(rep.L + 1):
        levels = fock_a_levels(word, n)
        if levels is not None and n + shift <= rep.L:
            out[(n + shift, n)] = math.prod(map(rep.s, levels), start=c)
    return FockMatrix(out, rep.L, len(word))


def fock_matrix_per_level(x, rep):
    """A normal form's Fock matrix: the sum of c * (the word b^i a^j) over its terms, level by level."""
    letters = max((i + j for (i, _m, j), _c in x.items()), default=0)
    total = FockMatrix({}, rep.L, letters)
    for (i, _m, j), c in x.items():
        total = total + fock_word_matrix_per_level("b" * i + "a" * j, rep, c)
    return total


def annihilation_check(n, variant="as_stated", relation=None):
    """(j+)^(n+1) kills the span of 1, b, ..., b^n in the vacuum module."""
    rel = relation if relation is not None else hq()
    triple = sl2q_triple(rel, alpha=n, variant=variant)
    op = triple.jplus ** (n + 1)
    L = 3 * (n + 1) + n + 2
    mat = fock_matrix(op, hq_fock(rel.rho, rel.sigma, L))
    bad = []
    for col in range(n + 1):
        column = mat.column(col)
        if column:
            bad.append((col, {r: v.compact() for r, v in column.items()}))
    return Verdict("pass" if not bad else "fail", bad or None)


def thm6_letter_swap_matches_thm5(n):
    """THM6 at F = 1, sigma = p has THM5's term structure with q renamed to p.

    THM5 is instantiated at rho = 1 so both remainders are the unit.  The
    renaming is the substitution q = p, on coefficients free of p.
    """
    lhs5, rhs5 = build(IdentityCase("THM5", hq(p=1), n=n))
    lhs6, rhs6 = build(IdentityCase("THM6", extended(), n=n))  # sigma = p, F = 1, tau = q

    def swap(x):
        assert not any(c.uses("p") for _mono, c in x.items())
        return {mono: c.substitute({"q": P}) for mono, c in x.items()}

    def plain(x):
        return dict(x.items())

    return swap(lhs5) == plain(lhs6) and swap(rhs5) == plain(rhs6)

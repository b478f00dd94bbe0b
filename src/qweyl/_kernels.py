"""Hot kernels on sparse term maps.

Sparse polynomials (and PBW term maps) are plain dicts from a packed integer
key to a coefficient.  ``scalar`` and ``weyl`` call these functions as
attributes of the module (``_k.mpoly_mul(...)``), so a profiler or tracer can
wrap them in one place.

Coefficients are ``int``/``fractions.Fraction`` for polynomial dicts and
``Scalar`` objects for normal-form dicts; ``axpy_shift`` only assumes
``+``, ``*`` and truthiness.  Term maps never store a zero coefficient: the
kernels delete entries that cancel.

Multiplicative key composition is ``k1 + k2 - bias`` where ``bias`` is the
key of the constant term (exponent offsets cancel that way).

``mpoly_mul`` multiplies by a run, equal coefficients at equal key steps
such as the q-integers ``[j]_q`` in the engine's memo entries and the
q-numbers ``{k}`` of the Jackson derivative ``Poly1.q_derivative``, as window
sums of the other operand: ``len + output`` work instead of ``n * len``
products, forming only keys that schoolbook forms.  That path also subtracts
coefficients.
"""

from itertools import accumulate


def mpoly_add(a, b):
    """Sum of two term maps."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    get = out.get
    for k, v in b.items():
        s = get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def mpoly_sub(a, b):
    """Difference of two term maps."""
    out = dict(a)
    get = out.get
    for k, v in b.items():
        s = get(k)
        if s is None:
            out[k] = -v
        else:
            s = s - v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def mpoly_neg(a):
    return {k: -v for k, v in a.items()}


def mpoly_mul(a, b, bias):
    """Product of two term maps; ``bias`` is the constant-term key.

    Schoolbook, one product per term pair, unless the shorter operand is a
    run ``c*x^k0*(1 + x^D + ... + x^((n-1)D))`` of at least ``_RUN_MIN``
    terms, as ``c*[n]_q`` is; such a product is ``_run_mul``'s window sums.
    """
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    if len(a) >= _RUN_MIN:
        step = _run_step(a)
        if step:
            return _run_mul(a, b, bias, step)
    out = {}
    get = out.get
    for ka, va in a.items():
        ka -= bias
        for kb, vb in b.items():
            k = ka + kb
            s = get(k)
            if s is None:
                out[k] = va * vb
            else:
                s = s + va * vb
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


# The shortest run that mpoly_mul multiplies by window sums.  Measured on the
# operand pairs of the benchmark's workloads: below six terms the run test and
# the window setup cost about what schoolbook saves.
_RUN_MIN = 6


def _run_step(a):
    """D when the term map a is c*x^k0*(1 + x^D + ... + x^((n-1)D)), else 0."""
    lo = min(a)
    step, rem = divmod(max(a) - lo, len(a) - 1)
    if rem:
        return 0
    c = a[lo]
    for k, v in a.items():
        if v != c or (k - lo) % step:
            return 0
    return step


def _run_mul(a, b, bias, step):
    """a*b for a run a of n terms and key step ``step``, as window sums of b.

    Each key of b, moved by k0 - bias, is ``pos*step + res``, so b splits
    into lines of equal ``res``.  The product's coefficient at position t of
    a line is c times the sum of the line's values at positions t-n+1..t:
    a running sum that takes each value in at its position and out n
    positions later.  Positions less than n apart make one span, and each
    span gets its own dense array: a line also runs across the fields above
    the step's, so its positions can lie 2^21 apart.  Spans are at least n
    apart, so their outputs never meet.
    """
    n = len(a)
    k0 = min(a)
    c = a[k0]
    off = k0 - bias
    lines = {}
    for kb in sorted(b):  # so each line comes out in ascending positions
        pos, res = divmod(kb + off, step)
        line = lines.get(res)
        if line is None:
            lines[res] = [(pos, b[kb])]
        else:
            line.append((pos, b[kb]))
    out = {}
    for res, line in lines.items():
        last = len(line) - 1
        i = 0
        for j, (end, _) in enumerate(line):
            if j < last and line[j + 1][0] - end < n:
                continue
            # line[i..j] is one span; its outputs sit at positions start..end+n-1
            start = line[i][0]
            diff = [0] * (end - start + n + 1)
            for pos, v in line[i : j + 1]:
                pos -= start
                diff[pos] += v
                diff[pos + n] -= v
            diff.pop()
            key = start * step + res
            for s in accumulate(diff):
                if s:
                    out[key] = c * s
                key += step
            i = j + 1
    return out


def axpy_shift(acc, src, shift, c):
    """acc += c * (src with every key translated by ``shift``), in place."""
    if not c:
        return acc
    get = acc.get
    for k, v in src.items():
        k = k + shift
        s = get(k)
        if s is None:
            acc[k] = c * v
        else:
            s = s + c * v
            if s:
                acc[k] = s
            else:
                del acc[k]
    return acc

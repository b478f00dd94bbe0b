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
"""


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
    """Product of two term maps; ``bias`` is the constant-term key."""
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
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

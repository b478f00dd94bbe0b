"""Catalog case lists that more than one test runs."""

from qweyl.identities import IdentityCase, _order_assignments


def criterion_3_cases(rel):
    """The block-collapse and commutator cases of acceptance criterion 3, in run order."""
    cases = []
    for k in (1, 2):
        for n in range(1, 5):
            cases.append(IdentityCase("COR1", rel, n=n, k=k))
    for k in (1, 2):
        for n in range(1, 5):
            for m in range(n, 5):
                cases.append(IdentityCase("COR2a", rel, n=n, m=m, k=k))
    for n in range(1, 5):
        for m in range(1, 5):
            for cid in ("THM2a", "THM2b", "THM2c"):
                cases.append(IdentityCase(cid, rel, n=n, m=m))
    sets4 = [(n,) for n in range(1, 5)] + [tuple(sorted((a, b))) for a in range(1, 5) for b in range(a, 5)]
    for i, ns in enumerate(sets4):
        for ms in sets4[i:]:
            cases.append(IdentityCase("COR2b", rel, ns=ns, ms=ms, k=1))
    sets3 = [s for s in sets4 if max(s) <= 3]
    for i, ns in enumerate(sets3):
        for ms in sets3[i:]:
            cases.append(IdentityCase("COR2b", rel, ns=ns, ms=ms, k=2))
    for ns in sets3:
        for ms in sets3:
            for orders in _order_assignments(len(ns) + len(ms)):
                cases.append(IdentityCase("COR3", rel, ns=ns, ms=ms, orders=orders))
    return cases

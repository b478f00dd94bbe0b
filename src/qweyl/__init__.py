"""qweyl: exact normal ordering in the (q-deformed) Heisenberg algebra.

The package normal-orders words in the unital algebra generated by a, b
(and optionally a grading generator N) subject to

    a*b = sigma*b*a + r        r central, or r = F(N)

with exact rational-function coefficients, verifies a catalog of operator
identities (reporting exact residuals on failure, including the variants
that only hold after rescaling the constants by the central remainder), and
cross-validates the abstract engine against concrete representations on
polynomial spaces and truncated Fock matrices.

The hot kernels are plain Python dict arithmetic in ``qweyl._kernels``.
"""

from .identities import (
    AbPowerExpansion,
    CaseResult,
    IdentityCase,
    NotExpressibleError,
    Report,
    Sl2qResult,
    Sl2qTriple,
    SuiteConfig,
    UnsupportedCaseError,
    annihilation_check,
    build,
    catalog_cases,
    expand_in_ab_powers,
    sl2q_solve,
    sl2q_triple,
    solve_scalar_factor,
    suite,
    verify,
)
from .parser import (
    EvalError,
    ParseError,
    Statement,
    eval_npoly,
    eval_scalar,
    evaluate,
    parse,
    parse_script,
    parse_statement,
    print_canonical,
    run_script,
)
from .reps import (
    FockMatrix,
    FockRep,
    ParameterMismatchError,
    PolyRep,
    TruncationError,
    affine_fock,
    check_identity_on_basis,
    delta_rep,
    diff_ab,
    diff_ba,
    fock_matrix,
    hq_fock,
    jackson,
    morphism_check,
    realize,
    rep_relation_check,
    sequence_residual,
)
from .scalar import (
    A,
    D,
    P,
    Poly1,
    Q,
    Scalar,
    ScalarDivisionError,
    ScalarError,
    SubstitutionError,
    one,
    qnum,
    substitute,
    symbol,
    zero,
)
from .verdict import Verdict
from .weyl import (
    NormalForm,
    Relation,
    RelationMismatchError,
    WordError,
    commutator,
    extended,
    heisenberg,
    hq,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # coefficients
    "Scalar",
    "ScalarError",
    "ScalarDivisionError",
    "SubstitutionError",
    "Poly1",
    "symbol",
    "zero",
    "one",
    "P",
    "Q",
    "A",
    "D",
    "qnum",
    "substitute",
    # engine
    "Relation",
    "NormalForm",
    "RelationMismatchError",
    "WordError",
    "heisenberg",
    "hq",
    "extended",
    "commutator",
    # identities
    "Verdict",
    "IdentityCase",
    "UnsupportedCaseError",
    "NotExpressibleError",
    "AbPowerExpansion",
    "Sl2qTriple",
    "Sl2qResult",
    "SuiteConfig",
    "CaseResult",
    "Report",
    "build",
    "verify",
    "solve_scalar_factor",
    "expand_in_ab_powers",
    "sl2q_triple",
    "sl2q_solve",
    "annihilation_check",
    "suite",
    "catalog_cases",
    # representations
    "PolyRep",
    "FockRep",
    "FockMatrix",
    "ParameterMismatchError",
    "TruncationError",
    "diff_ab",
    "diff_ba",
    "jackson",
    "delta_rep",
    "rep_relation_check",
    "realize",
    "morphism_check",
    "check_identity_on_basis",
    "hq_fock",
    "affine_fock",
    "fock_matrix",
    "sequence_residual",
    # parsing
    "ParseError",
    "EvalError",
    "Statement",
    "parse",
    "evaluate",
    "eval_scalar",
    "eval_npoly",
    "print_canonical",
    "parse_statement",
    "parse_script",
    "run_script",
]

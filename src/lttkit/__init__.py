"""Lower triangular Toeplitz kernels and exact Bernoulli number drivers.

Layers, bottom up: ``scalars`` (exact rational and complex fields),
``series`` (naive l.t.T. algebra, the reference oracles, and the exact
Kronecker-substitution product), ``fft`` (radix-b transforms and fast
Toeplitz products), ``solver`` (the non-recursive nullification solver),
``bernoulli`` (system generators and number-theoretic checks), ``cli`` (the
``lttkit`` command).
"""

from .bernoulli import (
    METHODS,
    BernoulliSystem,
    BinomialSystem,
    bernoulli_numbers,
    binomial_system,
    convert_type,
    gen_system,
    ramanujan_rhs,
    scaling_diag,
    tartaglia_check,
    von_staudt_check,
    zeta_consistency,
)
from .fft import (
    DftPlan,
    ToeplitzSpec,
    circulant_matvec,
    dft,
    idft,
    neg_circulant_matvec,
    plan_for,
    toeplitz_matvec_embed,
    toeplitz_matvec_split,
)
from .opcount import OpCounter
from .scalars import field_of, format_scalar, neg_root, parse_scalar
from .series import (
    SingularMatrixError,
    ltt_matvec_naive,
    ltt_solve_forward,
    read_vector,
    write_vector,
)
from .solver import (
    SolveTrace,
    SparsifyResult,
    invert_first_column,
    ltt_solve_fast,
    sparsify_hat,
    sparsify_step,
)

__all__ = [
    "METHODS",
    "BernoulliSystem",
    "BinomialSystem",
    "DftPlan",
    "OpCounter",
    "SingularMatrixError",
    "SolveTrace",
    "SparsifyResult",
    "ToeplitzSpec",
    "bernoulli_numbers",
    "binomial_system",
    "circulant_matvec",
    "convert_type",
    "dft",
    "field_of",
    "format_scalar",
    "gen_system",
    "idft",
    "invert_first_column",
    "ltt_matvec_naive",
    "ltt_solve_fast",
    "ltt_solve_forward",
    "neg_circulant_matvec",
    "neg_root",
    "parse_scalar",
    "plan_for",
    "ramanujan_rhs",
    "read_vector",
    "scaling_diag",
    "sparsify_hat",
    "sparsify_step",
    "tartaglia_check",
    "toeplitz_matvec_embed",
    "toeplitz_matvec_split",
    "von_staudt_check",
    "write_vector",
    "zeta_consistency",
]

"""Brascamp-Lieb constants by fixed-point iteration on the positive definite cone."""

from .baseline import RgdConfig, rgd_step, riem_grad, riem_grad_norm, solve_rgd
from .cone import ConeBox, hilbert, in_box, schatten_norm, snyder_bound, thompson
from .datum import (
    BLDatum,
    ValidationReport,
    critical_c,
    gen_holder,
    gen_random,
    gen_young,
    load_datum,
    save_datum,
    validate,
)
from .errors import (
    BlfixError,
    CholeskyFailure,
    ConvergenceFailure,
    DimensionMismatch,
    InvalidArgument,
    InvalidShape,
    ParseError,
    ShapeMismatch,
    StepFailure,
    TooLarge,
    ValidationFailed,
)
from .matcore import (
    SpdMatrix,
    load_matrix,
    log_det,
    max_gen_eig,
    save_matrix,
    spd_inverse,
    spd_solve,
    sym_eig,
    sym_op_norm,
)
from .objective import (
    GaussianInput,
    ObjectiveEval,
    bl_constant_from_X,
    bl_value_Z,
    eval_F,
    eval_F_mu,
    pre_inversion_sum,
    pushforwards,
    recover_Z,
)
from .solve import (
    CONVERGED,
    INFEASIBILITY_SUSPECTED,
    MAX_ITER,
    IterTrace,
    SolveConfig,
    SolveResult,
    choose_mu,
    contraction_diagnostic,
    solve_fixed_point,
    step_G,
    step_G_mu,
    step_G_tilde,
)

__version__ = "0.1.0"

"""Recover the input of a softmax-attention layer from its weights and
output, with analytically certified first and second derivatives."""

from .analysis import (
    BoundCheck,
    BoundReport,
    PsdReport,
    bound_suite,
    choose_gamma,
    effective_bound_constant,
    lipschitz_probe,
    psd_floor,
)
from .generate import SplitMix64, make_instance, perturbed_start
from .gradient import grad_L, jacobian_c
from .hessian import hessian_L, hessian_c, residual_hessians
from .model import (
    ForwardCache,
    NumericalRangeError,
    ProblemSpec,
    flatten_input,
    forward_cache,
    loss,
    synthesize_target,
)
from .solver import (
    CONVERGED,
    MAX_ITER,
    NUMERICAL_FAILURE,
    RunRecord,
    gd_solve,
    newton_solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Quantum Riemannian geometry of the fuzzy sphere.

Exact symbolic layers: coordinate algebra, 3D differential calculus, quantum
Levi-Civita connection and curvature, monopole bundle.  Numerical layer:
Euclidean quantum-gravity functional integrals over 3x3 metrics.
"""

from .scalars import ParamScalar, LP, I, ONE, ZERO
from .algebra import (
    AlgElem, DegreeLimitError, commutator, X1, X2, X3, ONE_A)
from .forms import (
    DiffForm, TensorForm, d, wedge, tensor, s_basis, s_from_dx, theta, eps3)
from .geometry import (
    Metric3, Connection3, CurvatureData, qlc, solve_qlc_linear,
    connection_from_gamma_matrix, torsion, cotorsion, metric_compat_defect,
    nabla_g, curvature, curvature_2form, rho_2forms, scalar_closed_form,
    scalar_perturbation)
from .monopole import (
    AlgMatrix, FormMatrix, coords, projector, projector_dP,
    grassmann_connection, grassmann_closed_form, monopole_curvature,
    f23_factor)
from .verify import SUITES, run_suite

__version__ = "0.1.0"

# served by __getattr__ (PEP 562), so that the exact layers load without
# NumPy
_QGRAVITY = (
    "QGConfig", "MomentEstimate", "MCEstimate", "PartialZu", "SweepResult",
    "SWEEP_SCHEMA", "action_matrix", "quad_form", "eigen_weight",
    "uvw_map", "uvw_inverse", "quad_form_uvw", "moment_set",
    "mc_matrix_oracle", "partial_Zu", "sweep")


def __getattr__(name):
    if name not in _QGRAVITY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from . import qgravity
    return getattr(qgravity, name)


__all__ = [
    "ParamScalar", "LP", "I", "ONE", "ZERO",
    "AlgElem", "DegreeLimitError", "commutator", "X1", "X2", "X3", "ONE_A",
    "DiffForm", "TensorForm", "d", "wedge", "tensor", "s_basis",
    "s_from_dx", "theta", "eps3",
    "Metric3", "Connection3", "CurvatureData", "qlc", "solve_qlc_linear",
    "connection_from_gamma_matrix", "torsion", "cotorsion",
    "metric_compat_defect", "nabla_g", "curvature", "curvature_2form",
    "rho_2forms", "scalar_closed_form", "scalar_perturbation",
    "AlgMatrix", "FormMatrix", "coords", "projector", "projector_dP",
    "grassmann_connection", "grassmann_closed_form", "monopole_curvature",
    "f23_factor",
    *_QGRAVITY,
    "SUITES", "run_suite",
    "__version__",
]

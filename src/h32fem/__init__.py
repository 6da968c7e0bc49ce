"""Isoparametric Lagrange FE toolkit for fractional-order norms on curved
2D domains, with a rate-experiment harness that certifies the inverse,
interpolation, regularity, trace, product, and domain-deformation
estimates behind the discrete 3/2-order Sobolev-like norm calculus."""

from .assembly import (
    FeFunction,
    GramSet,
    assemble_grams,
    grams_of,
    nodal_interp_bulk,
    nodal_interp_surface,
    trace,
    zero_function,
)
from .experiments import ExperimentConfig, run_experiment, run_plan, REGISTRY
from .gagliardo import gagliardo_gram, gagliardo_seminorms
from .harness import RateTable, emit, fit_rate
from .interp import (
    dirichlet_lift,
    dirichlet_riesz_data,
    scott_zhang,
    sz_via_dirichlet,
    winf_like_norm,
)
from .lifting import LiftMap, MeshLocator, lift_of
from .meshing import Mesh, build_disk_mesh, build_square_mesh, disk_mesh, geometry_map
from .multilinear import (
    MultilinearForm,
    comparison_decompose,
    deformation_tensor,
    det_form,
    ml_eval,
    ml_fix_slot,
    ml_from_function,
    ml_norm,
    neumann_tail,
)
from .norms import (
    SpectralBasis,
    dual_neg_half_norms,
    dual_norms,
    h_s_norms,
    hhat_threehalf_norms,
    spectral_decomp,
)
from .quadrature import QuadratureRule, quadrature
from .solvers import (
    deformed_dirichlet_energy,
    solve_dirichlet_fe,
    solve_robin_fe,
)

__version__ = "0.1.0"

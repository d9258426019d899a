"""Local invariant manifolds of Galerkin-truncated evolution PDEs.

Core pipeline: build a model (models), split its equilibrium linearization
(linalg.eigen_split), and iterate the Lyapunov-Perron operator (lp.lp_solve /
lp.build_manifold_graph).  Independent checks live in oracles; linear
water-wave criteria in waterwave; the command line front end in cli.
"""

from .graded import NormLadder, OrbitGrid, graded_norm
from .linalg import (
    AmbiguousSplitError,
    LyapunovForm,
    SpectralSplitting,
    dissipativity_check,
    eigen_split,
    hamiltonian_symmetry_check,
    lyapunov_form,
    picard_solve,
    variational_flow,
)
from .lp import (
    ContractionBudget,
    LpConfig,
    ManifoldGraph,
    NoContractionError,
    build_manifold_graph,
    contraction_budget,
    decay_rate_fit,
    invariance_residual,
    lp_apply,
    lp_solve,
    lp_variational,
    quasilinearize,
    reversed_model,
    split_field,
)
from .models import (
    MmtParams,
    ModelSystem,
    kdv_wave_profile,
    mmt_block,
    mmt_galerkin,
    mmt_mode_set,
    mmt_plane_wave_frequency,
    mmt_unstable_scan,
    reaction_diffusion,
    saddle_toy,
)
from .oracles import backward_shoot, finite_difference_jacobian, quartic_roots
from .waterwave import (
    OneFluidConfig,
    TwoFluidConfig,
    capillary_multiplier,
    dn_flat_symbol,
    dn_shape_derivative_flat,
    froude_bond,
    kh_bound,
    kh_rt_multiplier,
)

__version__ = "0.1.0"

"""Random walks on spanning tuples over finite fields and Heisenberg groups.

The package splits into six layers:

* :mod:`groupwalks.algebra` — F_p vectors, linear functionals, the
  standard alternating form, and exact ranks (also of bit-packed F_2 rows);
* :mod:`groupwalks.groups` — Heisenberg group elements, the representations
  rho_lam, and projection norms;
* :mod:`groupwalks.chains` — the three walk kernels (row-addition tuples,
  one-column updates, power-averaged generator replacement), enumerated
  state spaces, fibre kernels, and vectorised trajectory engines;
* :mod:`groupwalks.spectral` — gaps, Dirichlet forms, entropy, numeric
  log-Sobolev constants, killed kernels, semigroup evolution, and the
  good-set confinement pipeline;
* :mod:`groupwalks.diagnostics` — character statistics, good-set
  measures, burn-in occupancy, exact and Monte Carlo mixing measurements,
  and the birth-death analysis of the support process;
* :mod:`groupwalks.cli` — the ``groupwalks`` command-line harness.
"""

from .errors import (
    BudgetError,
    CharacteristicError,
    ConfigError,
    DimensionMismatch,
    GroupwalksError,
    InvalidMove,
    InvariantError,
    ReversibilityError,
)
from .algebra import (
    FieldVector,
    LinearFunctional,
    SymplecticForm,
    rank,
    rank_bits,
)
from .groups import (
    HeisenbergElement,
    Representation,
    fixed_projection,
    h_identity,
    heisenberg_elements,
    operator_norm,
    psi,
    representation_dimension_check,
)
from .chains import (
    EnumeratedSpace,
    OneColumnWalk,
    PaPraWalk,
    Trajectory,
    TransvectionWalk,
    build_fibre_kernel,
    connected_components,
    heisenberg_tuple_space,
    one_column_space,
    simulate,
    stiefel_space,
)
from .spectral import (
    PipelineReport,
    dirichlet_form,
    entropy,
    entropy_decay_check,
    fibre_eigenvalues_tr,
    gap_lsi_bound,
    killed_kernel,
    path_comparison_check,
    pipeline_report,
    poincare_constant,
    semigroup_evolve,
    spectral_gap,
    spectrum,
    subprob_tv_bound,
)
from .diagnostics import (
    BDParams,
    GoodSetSpec,
    RateConstants,
    bd_crossing_prob,
    bd_hitting_time,
    bd_probs,
    burnin_occupancy,
    good_set_measure,
    heisenberg_good_set,
    in_good_set,
    mixing_time_exact,
    n_xi,
    rate_I,
    rate_J,
    s_xi,
    select_constants,
    transvection_good_set,
    tv_counting_lower,
    tv_exact,
    wilson_interval,
)

__version__ = "0.1.0"

"""Dephasing channels, entanglement decay and decoherence timescales.

Simulates two- and three-qubit registers under local and collective pure
dephasing in the operator-sum picture, tracks coherence and bipartite
entanglement, reads exact decay timescales from the exponent matrix and the
closed-form evolution, audits the disentanglement-vs-decoherence inequality,
and cross-checks the channels against a stochastic Hamiltonian Monte Carlo
average.
"""

from .channels import (
    ChannelKind,
    KrausSet,
    Local,
    NoiseScenario,
    PairCollective,
    TripleCollective,
    apply_kraus,
    evolve,
    gamma,
    kraus_for,
    omega_factors,
    verify_completeness,
)
from .entanglement import (
    concurrence_curve,
    entanglement_of_formation,
)
from .errors import EquivalenceNotEstablishedError, UnsupportedScenarioError
from .linalg import (
    QUBITS,
    frobenius_distance,
    partial_trace,
)
from .montecarlo import (
    ChannelComparison,
    TrajectoryConfig,
    compare_to_channel,
    simulate_statistics,
)
from .presets import (
    PAPER_MATRIX,
    PAPER_TAUS,
    SCENARIO_LAYOUTS,
    PaperTau,
    draw_state,
    measure_paper_taus,
    named_scenario,
    paper_tau_table,
)
from .states import (
    DensityMatrix,
    Fragile,
    Fragile2,
    GenericPure,
    GHZState,
    Robust,
    Robust2,
    StateSpec,
    WState,
    analytic_evolved,
    projector,
)
from .timescales import (
    AuditResult,
    FitResult,
    PairAudit,
    TimeGrid,
    Timescale,
    TimescaleReport,
    Trajectory,
    audit_inequality,
    build_report,
    default_grid,
    fit_exponential,
    sample_evolution,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

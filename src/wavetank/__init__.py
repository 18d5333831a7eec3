"""Spectral simulator for a wave-maker-driven linear water tank on [0, pi] x [-1, 0],
with a convergence laboratory for the shallow-water limit."""

from .basis import (
    ModalVector,
    SpectralParams,
    eval_basis,
    eval_function,
    norm,
    project,
    quadrature_nodes,
    sobolev_weights,
)
from .evolution import (
    EvolutionState,
    InputSignal,
    ModeSystem,
    Trajectory,
    energy,
    evolve,
    limit_system,
    make_initial,
    step,
    water_system,
)
from .fields import (
    FieldGrid,
    LateralProfile,
    dirichlet_extension,
    dirichlet_values,
    neumann_extension,
    neumann_values,
    verify_harmonic,
    write_field_csv,
)
from .lab import (
    KernelAudit,
    SweepConfig,
    SweepReport,
    audit_kernels,
    audit_resolvents,
    bmu_rate_table,
    fit_rate,
    run_sweep,
    sweep_summary,
    write_sweep_csv,
)
from .operators import (
    SeriesSum,
    bmu_dual_norm_gap,
    dtn_eigenvalue,
    kernel_F,
    kernel_G,
    kernel_H_sum,
    kernel_I,
    kernel_J,
    lateral_sum,
    limit_forcing,
    ntn_forcing,
    wave_maker_forcing,
)

__version__ = "0.1.0"

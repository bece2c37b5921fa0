"""Galerkin time stepping for stochastic evolution equations with jumps."""

from .averaging import impl_A, tilde_F
from .coefficients import (
    BoxSampler,
    CoefficientTriple,
    ConditionConstants,
    ConditionReport,
    MarkIntegral,
    check_bf_bounds,
    check_coercivity,
    check_growth,
    check_monotonicity,
    exponential_transform,
    probe_hemicontinuity,
)
from .fixtures import additive_multimode, heat_jump, semilinear, zero_triple
from .harness import (
    ConvergenceReport,
    LadderSpec,
    MCStats,
    SuiteConfig,
    convergence_study,
    monte_carlo,
    run_condition_suite,
)
from .noise import (
    AtomMarks,
    BlockNoise,
    MarkPartition,
    NoiseBundle,
    PowerLawMarks,
    TimeGrid,
    build_partition,
    bundle_from_json,
    bundle_to_json,
    read_block,
    sample_bundles,
)
from .schemes import (
    ENERGIES,
    STATES,
    BlockRun,
    ImplicitStepError,
    SchemeConfig,
    SolveReport,
    run_block,
    solve_implicit_step,
    stability_margin,
    step_energy_bound,
)
from .space import (
    GalerkinSpace,
    build_sine_space,
    c_b,
    dual_norms,
    norms,
    pairing,
    project,
    restrict,
    smooth_profile,
    v_norms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

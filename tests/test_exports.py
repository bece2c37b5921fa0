"""The package root exports exactly its public names, so that a name is
added to or removed from it only on purpose."""

import spdesim

PUBLIC = [
    "AtomMarks", "BlockNoise", "BlockRun", "BoxSampler", "CoefficientTriple",
    "ConditionConstants", "ConditionReport", "ConvergenceReport", "ENERGIES",
    "GalerkinSpace", "ImplicitStepError", "LadderSpec", "MCStats", "MarkIntegral",
    "MarkPartition", "NoiseBundle", "PowerLawMarks", "STATES", "SchemeConfig",
    "SolveReport", "SuiteConfig", "TimeGrid", "additive_multimode",
    "build_partition", "build_sine_space", "bundle_from_json", "bundle_to_json",
    "c_b", "check_bf_bounds", "check_coercivity", "check_growth",
    "check_monotonicity", "convergence_study", "dual_norms",
    "exponential_transform", "heat_jump", "monte_carlo", "norms", "pairing",
    "probe_hemicontinuity", "project", "read_block", "restrict",
    "run_block", "run_condition_suite", "sample_block", "sample_bundles", "semilinear",
    "smooth_profile", "solve_implicit_step", "stability_margin",
    "step_energy_bound", "v_norms", "zero_triple",
]


def test_the_package_root_exports_its_public_names_only():
    # importing the names binds their submodules in the package too, but a
    # star import binds none of them
    assert spdesim.__all__ == sorted(PUBLIC)
    namespace = {}
    exec("from spdesim import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)

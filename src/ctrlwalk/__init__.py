"""Controlled lazy random walks on the integer lattice.

Exact distribution evolution under capped laziness controls, dynamic
programming for extremal return probabilities with bang-bang region
extraction, the explicit control constructions (two-zone, fast-until-zero,
multiscale schedules), counter-based Monte Carlo, and the statistical
toolkit for measuring polynomial localization exponents.

The package loads lazily: `import ctrlwalk` imports no submodule and no
numpy. A public name or a submodule (`ctrlwalk.dp`, `ctrlwalk.analysis`, ...)
is imported on first access, so a process holds only the engines it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it, in __all__ order
_EXPORTS = {
    "errors": """ParameterError AdmissibilityError DegenerateScheduleError CalibrationError
        InvariantError""",
    "lattice": """FLOAT RATIONAL NOT_HIT HIT_ZERO LatticeDistribution point_mass interval_mass
        reset_hit_flags to_snapshot from_snapshot""",
    "policies": """CONSTANT TWO_ZONE FAST_UNTIL_ZERO SCHEDULE BANG_BANG_TABLE PolicySpec
        ScheduleSegment constant_policy two_zone_policy fast_until_zero_policy schedule_policy
        bang_bang_table_policy multiscale_localization_schedule multiscale_qto1_schedule horizon
        flag_reset_times mirror_symmetric policy_to_json policy_from_json sweep_policy""",
    "dp": """MAX MIN as_target evolve evolve_trace hit_probability ValueTable BangBangPolicy
        solve_extremal extract_region value_table_to_csv boundary_to_csv""",
    "rng": "mix64 trial_keys",
    "montecarlo": """wilson_interval BarrierFamily barrier_family TrajectoryBatch run_batch
        sample_path HitEstimate estimate_hit StageStats barrier_diagnostics EscapeProbeResult
        lemma0_check ReturnProbeResult lemma_ori_check""",
    "analysis": """ExponentFit fit_exponent exponent_sweep ChainSpec reversibility_check
        heat_kernel_profile band_sum_profile band_sum_direct calibrate_lemma5
        verify_lemma5_certificate level_hit_cdf level_hit_cdf_absorbing interior_survival
        interior_survival_absorbing escape_probability early_exit_probability calibrate_lemma6
        verify_lemma6_certificate""",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "defaults")

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _SUBMODULES:  # the import binds it as an attribute of the package
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

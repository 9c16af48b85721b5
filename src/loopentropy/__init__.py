"""Regularized one-loop entropies of real and virtual propagation states.

The library computes, in dimensional regularization around d = 4, the
entanglement, mutual-information and conditional entropies between the
external (real) and internal (virtual) states of the quartic scalar
theory's low-order correlation functions, together with the loop-integral
families, series algebra and contour coefficients they are built from.
"""

# each public name -> the submodule that defines it; a name is imported on
# its first lookup (PEP 562), so ``import loopentropy`` loads no submodule
_SUBMODULE = {
    **dict.fromkeys(("ContourConfig", "coeff_a", "coeff_b", "ratio_AB", "ratio_ab_regulated",
                     "tau"), "contour"),
    **dict.fromkeys(("QUANTITIES", "EntropyBreakdown", "SpectralDensity", "compute_quantity",
                     "entropy_order1_generic", "mutual_information_21", "order1_blocks_n2",
                     "plane_wave_trace", "renyi_trace_n", "renyi_trace_radial",
                     "s_ext_2_order0", "s_ext_2_order1", "s_ext_2_total", "s_ext_21",
                     "s_int_21", "s_nonperturbative", "s_total_21", "s_vacuum_order1",
                     "vacuum_finite_coefficient"), "entropy"),
    **dict.fromkeys(("EpsSeries", "digamma_series", "gamma_series", "harmonic_series",
                     "power_series"), "epsseries"),
    **dict.fromkeys(("InputError", "LogCapError", "LoopEntropyError", "NonConvergentError",
                     "NonFiniteError", "NonInvertibleLeadingTermError", "PoleError",
                     "ToleranceNotMetError", "UnknownQuantityError"),
                    "errors"),
    **dict.fromkeys(("LoopValue", "chi_closed", "chi_over_delta_series", "chi_series",
                     "delta_closed", "delta_series", "delta_stripped_series", "eta",
                     "eta_closed_d4", "oracle_chi_radial", "oracle_chi_x",
                     "oracle_delta_radial"), "loops"),
    "SchemeParams": "params",
    **dict.fromkeys(("constants", "digamma", "gamma", "harmonic", "polygamma"), "specialfns"),
    **dict.fromkeys(("TraceSet", "ratio_checks", "tr_rho4_inferred", "vacuum_trace_phi4",
                     "vacuum_trace_phir"), "traces"),
}


def __getattr__(name: str):
    try:
        submodule = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = list(_SUBMODULE)

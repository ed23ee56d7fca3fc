"""Exact reduction theory for indefinite binary quadratic forms.

Gauss-reduced and Zagier-reduced forms, their reduction cycles, the
fundamental Pell solution of |t^2 - delta u^2| = 4, and the dictionary
between reduced forms, bead strings, binary necklaces, and continued
fraction expansions (regular, negative, and binary).  All arithmetic is
exact and in pure Python.
"""

import importlib

from .contfrac import (
    QuadraticSurd,
    cf_expand,
    continuant,
    continuant_matrix,
    denjoy_surd,
    is_purely_periodic_neg,
    is_purely_periodic_reg,
    neg_cf_period,
    neg_cf_surd,
    neg_to_reg_stream,
    reg_cf_period,
    reg_cf_surd,
    reg_to_denjoy,
    surd,
)
from .forms import Form, UnimodularMatrix, act, form, form_to_json
from .kernel import backend
from .maps import beta, denjoy_period, gamma, mu, sigma, sigma_bar, tau, xi
from .pell import PellSolution, fundamental_solution, solve_pell_bruteforce
from .reduction import (
    OrbitResult,
    cycles,
    enumerate_g_reduced,
    enumerate_z_reduced,
    orbit_to_cycle,
    r_g,
    r_z,
    reducing_number,
    z_caliber,
)
from .strings import (
    AlternatingNecklace,
    ColoredBin,
    Necklace,
    alternating_necklace,
    eta_minus,
    eta_plus,
    is_primitive,
    knead,
    least_rotation,
    necklace,
    pinch_both,
    pinch_left,
    pinch_right,
    rotate_bin,
    sb,
    sb_inv,
    t_g,
    t_z,
)

__version__ = "0.1.0"

# The verification suites are the largest module and no map uses them, so
# `oracle` loads on first use of one of its names, not with the package.
# (`from . import oracle` would look the name up here first and recurse.)
_ORACLE_NAMES = frozenset({"SUITE_IDS", "VerificationReport", "expand_surd_oracle", "verify"})


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AlternatingNecklace", "ColoredBin", "Form", "Necklace", "OrbitResult",
    "PellSolution", "QuadraticSurd", "SUITE_IDS", "UnimodularMatrix",
    "VerificationReport", "act", "alternating_necklace", "backend", "beta",
    "cf_expand", "continuant", "continuant_matrix", "cycles",
    "denjoy_period", "denjoy_surd", "enumerate_g_reduced",
    "enumerate_z_reduced", "eta_minus", "eta_plus", "expand_surd_oracle",
    "form", "form_to_json", "fundamental_solution", "gamma",
    "is_primitive", "is_purely_periodic_neg", "is_purely_periodic_reg",
    "knead", "least_rotation", "mu", "necklace", "neg_cf_period",
    "neg_cf_surd", "neg_to_reg_stream", "orbit_to_cycle", "pinch_both",
    "pinch_left", "pinch_right", "r_g", "r_z", "reducing_number",
    "reg_cf_period", "reg_cf_surd", "reg_to_denjoy", "rotate_bin", "sb",
    "sb_inv", "sigma", "sigma_bar", "solve_pell_bruteforce", "surd", "t_g",
    "t_z", "tau", "verify", "xi", "z_caliber",
]

"""Exact q-series arithmetic for congruent theta Wronskians and
odd-weight Jacobi form operators, over the rationals with certified
truncation windows and no floating point.

The exports load on first use (PEP 562): ``import qtheta`` runs none of the
package's modules, and ``qtheta.<name>`` imports only the module that
defines ``name``, so a command compiles only the engine it runs.
"""

from importlib import import_module

# module -> the names the package exports from it
_EXPORTS = {
    "characters": ("GammaCharacter", "NotAnEigenvector", "UnityExponent",
                   "squared_determinant_delta_power", "squared_determinant_translation",
                   "translation_eigenvalues"),
    "exact": ("VerificationFailed", "parse_rational"),
    "injectivity": ("CaseInput", "CaseVerdict", "InvalidInput", "NonintegralityReport",
                    "classify", "classify_levels", "is_squarefree", "level_classes",
                    "nonintegrality_check"),
    "jacobi": ("EvenIndex", "InvariantViolation", "JacobiFormData", "NotOdd",
               "ThetaComponents", "component_taylor", "development_operator",
               "dump_jacobi_table", "from_theta_components", "kernel_equivalence",
               "parse_jacobi_table", "random_components", "taylor_coefficient",
               "taylor_from_moment", "taylor_moments", "theta_components", "two_path_taylor"),
    "modforms": ("HalfIntWeight", "eisenstein_e2", "eta", "eta_power", "modular_derivative"),
    "series": ("INFINITY", "PuiseuxSeries", "dot", "dump_series_text", "parse_series_text"),
    "theta": ("ThetaIndex", "ThetaTwoVar", "odd_theta_series", "theta_series",
              "translation_eigenvalue"),
    "wronskian": ("CofactorOrderReport", "CramerReport", "SeriesMatrix",
                  "ThetaDerivativeMatrix", "WronskianReport", "cramer_reconstruction",
                  "eta_power_exponent", "kernel_components", "modular_wronskian",
                  "theta_derivative_matrix", "theta_minors", "theta_wronskian",
                  "verify_cofactor_orders", "verify_eta_power"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An export read from its module, or a module of the export table, imported
    on first use; the export is bound into no namespace, so each access reads
    the module's current value."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)

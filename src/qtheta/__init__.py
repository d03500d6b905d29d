"""Exact q-series arithmetic for congruent theta Wronskians and
odd-weight Jacobi form operators.

Everything is computed over the rationals with certified truncation
windows; no floating point is used anywhere.
"""

from .characters import (GammaCharacter, UnityExponent, squared_determinant_delta_power,
                         squared_determinant_translation, translation_eigenvalues)
from .injectivity import (CaseInput, CaseVerdict, InvalidInput, NonintegralityReport,
                          classify, classify_levels, is_squarefree, level_classes,
                          nonintegrality_check)
from .jacobi import (EvenIndex, InvariantViolation, JacobiFormData, NotOdd,
                     ThetaComponents, component_taylor, development_operator,
                     dump_jacobi_table, from_theta_components, kernel_equivalence,
                     parse_jacobi_table, random_components, taylor_coefficient,
                     taylor_from_moment, taylor_moments, theta_components, two_path_taylor)
from .modforms import HalfIntWeight, eisenstein_e2, eta, eta_power, modular_derivative
from .series import (INFINITY, PuiseuxSeries, dot, dump_series_text, parse_rational,
                     parse_series_text)
from .theta import (NotAnEigenvector, ThetaIndex, ThetaTwoVar, odd_theta_series, theta_series,
                    translation_eigenvalue)
from .wronskian import (CofactorOrderReport, CramerReport, SeriesMatrix,
                        ThetaDerivativeMatrix, VerificationFailed, WronskianReport,
                        cramer_reconstruction, eta_power_exponent, kernel_components,
                        modular_wronskian, theta_derivative_matrix, theta_minors,
                        theta_wronskian, verify_cofactor_orders, verify_eta_power)

__version__ = "0.1.0"

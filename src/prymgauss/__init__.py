"""Exact construction and rank certification of the first Gaussian map of
Prym-canonical binary curves, plus the induction verifier and the genus-12
divisor-class calculator."""

__version__ = "1.0.0"

from .exact import BadPrimeError, FIELD_PRIMES, format_rational, parse_rational, reduce_mod_p
from .curves import (ParameterError, PrymBinaryCurve, build_curve, node_check, node_table,
                     project_node, projection_node_index)
from .gaussmap import (GaussMatrix, assemble_matrix, assemble_mod_p, evaluation_points,
                       matrix_checksum, matrix_from_bytes, matrix_from_json, matrix_shape,
                       matrix_to_bytes, matrix_to_json, nu_closed_form, row_pairs)
from .rank import RankCertificate, certify, rank_exact, rank_mod_p
from .induction import (InductionReport, build_induction_submatrix, check_scaled_matrix,
                        check_tau_closed_form, family_curve, selected_pairs,
                        tau_closed_form, verify_det5)
from .induction import sweep as induction_sweep
from .classes import (DivisorClass, SurfaceClassExpr, classes_report, degeneracy_class,
                      grr_c1, hodge_c1, kodaira_residual, pushforward, source_c1,
                      square_of_line_bundle)
from .params import builtin_params, params_from_file, params_to_file, seeded_params

__all__ = [name for name in dir() if not name.startswith("_")]

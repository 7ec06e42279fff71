"""QQ-systems, Bethe ansatz equations, Backlund transformations, and
generalized q-Wronskians for twisted q-difference connections."""

from .cartan import (CartanData, TwistZ, WeylWord, cartan_matrix,
                     column_index_set, coxeter_number, enumerate_weyl,
                     longest_element, reflect_twist, twist_along_word)
from .polynomials import TAU, Poly, RatFun, poly_roots, q_distinct, q_shift
from .qq import (DegenerateInstance, FullQQSystem, QQInstance, QQSolution,
                 bethe_residual, cartan_connection, nondegenerate,
                 qq_residual, resonance_check, solve_bethe, solve_q_minus,
                 xi_factors)
from .backlund import (BacklundStepRecord, apply_word, backlund_step,
                       full_qq_system, mu_gauge)
from .wronskian import (LiftExponents, MinorSpec, RatMatrix, TypeABundle,
                        build_miura_A, build_wronskian,
                        check_fundamental_relation, check_lewis_carroll,
                        check_shifted_minor_relation,
                        check_wronskian_equations, d_exponents,
                        fundamental_relation_residual, gauss_decompose,
                        generalized_minor, miura_from_wronskian,
                        miura_plucker_blocks, miura_trivializer,
                        s_lambda_inverse, twist_matrix, type_a_bundle,
                        weyl_twist, wronskian_first_column)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

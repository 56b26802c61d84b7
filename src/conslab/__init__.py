"""Numerical laboratory for conservation-law systems with companion laws.

Core workflow: build a system (flux G, multiplier B, companion flux Q),
check the companion identity, generate discrete fields (traveling shocks,
lacunary rough fields), mollify, and measure how the companion law fails
or survives through commutator residuals and jump defects.
"""

from .commutator import (CommutatorSweep, ResidualReport, commutator_field,
                         good_set_measure, lemma_bound_audit, residual_R)
from .dissipation import (DissipationReport, RankineHugoniot,
                          build_dissipation_report, rankine_hugoniot_speed,
                          shock_dissipation_rate, weak_residual_companion,
                          weak_residual_system)
from .errors import (ConfigError, ConslabError, DomainViolationError,
                     GeometryError, InconsistentShockError, ParameterError,
                     ResolutionError, TestSupportError,
                     UnsupportedGeometryError)
from .fields import (BesovEstimate, DiscreteField, Lattice, TravelingField,
                     estimate_besov, field_to_csv, lacunary_profile,
                     load_field, make_lacunary_field, make_shock_field,
                     save_field, shift_difference_norm)
from .mollifier import (MollifierAudit, MollifierKernel, kernel_table,
                        lq_norm, make_kernel, mollify, verify_estimates)
from .rates import RateFit, aitken_limit, fit_loglog
from .systems import (BUILTIN_NAMES, CompatibilityReport, StateDomain,
                      SystemSpec, check_compatibility, extend_to_compact_range,
                      make_builtin, uniform_box_sampler)
from .testfunctions import (ShockAlignedBump, TensorBump, TestFunction,
                            TimeBump)
from .testfunctions import from_config as test_function_from_config

__version__ = "0.1.0"

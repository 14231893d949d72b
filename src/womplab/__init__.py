"""Sparse trigonometric polynomials, sampling discretization certificates,
and weak orthogonal greedy recovery experiments."""

from .trig import (TrigPolynomial, TrigSystem, dyadic_block, fejer_kernel,
                   lp_norm, lp_norms, multiply, quadrature_grid_size,
                   reconstruct, write_polynomial)
from .classes import (ClassSpec, PROFILES, default_truncation_level,
                      sample_class_function)
from .discretization import (DiscretizationReport, PointSet, SampledSystem,
                             build_sampled, check_usd, draw_points,
                             read_pointset, uniform_grid_points, write_pointset)
from .greedy import BestTermResult, WompTrace, best_vterm, project, womp
from .recovery import (FoolingInstance, GapRecord, RecoveryReport,
                       adversary_gap, best_vterm_l2_muxi, make_fooling,
                       recover, write_fooling)
from .experiments import (ConfigError, RateFit, default_config, fit_rate,
                          parse_config, rate_sweep_compute, schedule_m,
                          target_exponent)
from .acceptance import CriterionResult, run_all

__version__ = "0.1.0"

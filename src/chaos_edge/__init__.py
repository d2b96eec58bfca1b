"""Computational one-dimensional dynamics at the boundary of chaos."""

from .config import DEFAULT, RunConfig
from .errors import (BracketError, BudgetExhausted, ChaosEdgeError,
                     DescriptorError, DomainEscapeError, MarkovBudgetError,
                     PreconditionError)
from .maps import (Interval, PolynomialTypeB, Quadratic, SawtoothBase,
                   StuntedSawtooth, build_base, build_stunted, build_type_b,
                   critical_values, full_stunted, iterate, parse_map,
                   rat, serialize_map)
from .piecewise import Affine, PiecewiseLinear
from .symbolic import (Itinerary, KneadingInvariant, Shape, itinerary,
                       kneading, psi, shape, signed_compare)
from .entropy import (EntropyEstimate, LapCount, Witness, entropy_lap,
                      entropy_markov, lap_count, lap_series,
                      positive_entropy_witness, verify_witness)
from .periods import (PeriodicOrbit, PeriodSet, is_power_of_two,
                      is_power_of_two_spectrum, period_set, periodic_points)
from .renorm import (CascadeTrace, QuadraticFamily, RestrictiveInterval,
                     cascade_trace, feigenbaum_delta, find_restrictive,
                     renormalize, superstable_parameter, superstable_sequence)
from .boundary import (BoundaryResult, FloatZeroCertificate, ParameterPath,
                       ZeroEntropyCertificate, approximants, classify_float,
                       classify_probe, classify_stunted, locate_boundary,
                       quadratic_path, stunted_path, type_b_path,
                       verify_zero_certificate, zero_entropy_certificate)

__version__ = "0.1.0"

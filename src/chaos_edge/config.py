"""Run configuration shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class RunConfig:
    """Budgets, tolerances and output options.

    All budgets are positive.  ``precision`` is the only float tolerance a
    caller sets: the relative width to which float roots are bisected before
    their Newton polish.  The float classifiers' fixed tolerances and grid
    sizes are module constants beside their code.  ``depth`` is the default
    symbol depth for itineraries and kneading data, and the two
    ``period_bound_*`` values are the default periodic-orbit search ceilings
    for exact (rational) and floating-point maps.
    """

    precision: float = 1e-12
    depth: int = 64
    period_bound_exact: int = 64
    period_bound_float: int = 32
    n_max: int = 14                    # lap-growth estimator horizon
    lap_cap: int = 10**9               # reported counts above this saturate
    piece_budget: int = 400_000        # pieces per iterate; exact lap counts use the Markov budget
    orbit_budget: int = 20_000         # exact orbit steps before giving up
    markov_max_states: int = 20_000    # Markov partition size; caps exact entropy and laps
    zero_cert_levels: int = 24         # largest k admitted in 2^k plateau periods
    resolution_exact: Fraction = Fraction(1, 2**40)
    resolution_float: float = 1e-9
    output_format: str = "json"

    def __post_init__(self):
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        for name in ("depth", "period_bound_exact", "period_bound_float", "n_max",
                     "lap_cap", "piece_budget", "orbit_budget",
                     "markov_max_states", "zero_cert_levels"):
            if getattr(self, name) <= 0:
                raise ValueError(f"budget {name} must be positive")

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def markov_budget(self):
        """(limit, name) of the budget that caps a Markov partition's size:
        the smaller of ``markov_max_states`` and ``orbit_budget``."""
        if self.orbit_budget < self.markov_max_states:
            return self.orbit_budget, "orbit_budget"
        return self.markov_max_states, "markov_max_states"


DEFAULT = RunConfig()


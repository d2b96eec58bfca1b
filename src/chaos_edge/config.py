"""Run configuration shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class RunConfig:
    """Budgets and tolerances.

    All budgets are positive.  ``precision`` is the only float tolerance a
    caller sets: the relative width to which float roots are bisected before
    their Newton polish.  The float classifiers' fixed tolerances, grid
    sizes and the default period bounds are module constants beside their
    code.  The two resolutions are the default bracket widths of a locate.
    """

    precision: float = 1e-12
    piece_budget: int = 400_000        # pieces per iterate; exact lap counts use the Markov budget
    orbit_budget: int = 20_000         # exact orbit steps before giving up
    markov_max_states: int = 20_000    # Markov partition size; caps exact entropy and laps
    resolution_exact: Fraction = Fraction(1, 2**40)
    resolution_float: float = 1e-9

    def __post_init__(self):
        for name in ("precision", "piece_budget", "orbit_budget", "markov_max_states"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def markov_budget(self):
        """(limit, name) of the budget that caps a Markov partition's size:
        the smaller of ``markov_max_states`` and ``orbit_budget``."""
        if self.orbit_budget < self.markov_max_states:
            return self.orbit_budget, "orbit_budget"
        return self.markov_max_states, "markov_max_states"


DEFAULT = RunConfig()


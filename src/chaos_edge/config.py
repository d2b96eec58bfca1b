"""Run configuration shared by the library and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class RunConfig:
    """Budgets and the float root tolerance; all three are positive.

    ``precision`` is the only float tolerance a caller sets: the relative
    width to which float roots are bisected before their Newton polish.
    ``orbit_budget`` caps one count of exact orbit points: the points of
    the breakpoint closure (``markov.build_markov``), which holds every
    plateau orbit and is the Markov partition (on a stunted map, ±e, the
    plateau ends and the plateau orbits).
    ``piece_budget`` caps the pieces of one iterate on an interval
    (``piecewise.pieces_on``, exact renormalization), the turning points of
    a float iterate and the prefix extensions that the Lyndon closed-walk
    search keeps while it lists an exact map's orbits of one period.  The
    float classifiers' fixed tolerances, grid sizes and the default period
    bounds are module constants beside their code; the two resolutions, the
    default bracket widths of a locate, are constants of this class, not
    fields.
    """

    resolution_exact = Fraction(1, 2**40)
    resolution_float = 1e-9

    precision: float = 1e-12
    piece_budget: int = 400_000
    orbit_budget: int = 20_000

    def __post_init__(self):
        for name in ("precision", "piece_budget", "orbit_budget"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def with_(self, **kw) -> "RunConfig":
        return replace(self, **kw)


DEFAULT = RunConfig()

"""Topological entropy: lap growth, exact Markov backend, positivity witnesses.

Entropy is the exponential growth rate of the lap count of the iterates.  For
exact maps whose plateau orbits close up, an exact Markov partition gives the
entropy as the log of the spectral radius of the transition structure; the
lap estimator works on anything and reports its regression residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT, RunConfig
from .errors import BudgetExhausted, PreconditionError
from .maps import as_pl, is_exact, turning_points_of
from .periods import is_power_of_two, turning_points_of_iterate
from .piecewise import PieceCursor, strict_lap_count


@dataclass(frozen=True)
class LapCount:
    n: int
    laps: int


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    method: str                 # lap-regression | markov-exact
    n_used: int
    residual: float
    saturated: bool = False

    def as_dict(self):
        return {"value": self.value, "method": self.method,
                "n_used": self.n_used, "residual": self.residual,
                "saturated": self.saturated}


def lap_count(m, n: int, config: RunConfig = DEFAULT,
              cursor: Optional[PieceCursor] = None) -> LapCount:
    """Number of maximal intervals of strict monotonicity of the n-th iterate."""
    if n < 1:
        raise PreconditionError("iterate index must be >= 1")
    if is_exact(m):
        pl = as_pl(m)
        if n == 1:
            return LapCount(1, strict_lap_count(pl.pieces()))
        if not pl.is_self_map():
            raise PreconditionError("iterated lap counts need a self-map")
        if cursor is None:
            cursor = PieceCursor(pl, config.piece_budget)
        return LapCount(n, strict_lap_count(cursor.level(n)))
    turns = turning_points_of_iterate(m, n, config) if n > 1 else list(turning_points_of(m))
    return LapCount(n, len(turns) + 1)


def lap_series(m, n_max: int, config: RunConfig = DEFAULT):
    """(counts, saturated): lap counts for n = 1..n_max, stopping at the budget."""
    counts = []
    saturated = False
    if is_exact(m):
        pl = as_pl(m)
        if not pl.is_self_map():
            raise PreconditionError("lap series needs a self-map")
        cursor = PieceCursor(pl, config.piece_budget)
        for n in range(1, n_max + 1):
            try:
                pieces = cursor.level(n)
            except BudgetExhausted:
                saturated = True
                break
            c = strict_lap_count(pieces)
            counts.append(c)
            if c > config.lap_cap:
                saturated = True
                break
    else:
        for n in range(1, n_max + 1):
            try:
                counts.append(lap_count(m, n, config).laps)
            except BudgetExhausted:
                saturated = True
                break
            if counts[-1] > config.lap_cap:
                saturated = True
                break
    return counts, saturated


def entropy_lap(m, n_max: Optional[int] = None,
                config: RunConfig = DEFAULT) -> EntropyEstimate:
    """Growth rate of log lap counts over the top half of the range.

    Zero-entropy maps have polynomially growing lap counts, so the fit is
    log l(f^n) ~ h*n + d*log n + c; the reported value is the coefficient h,
    which is the plain log-slope whenever the growth is exponential.
    """
    if n_max is None:
        n_max = config.n_max
    if n_max < 8:
        raise PreconditionError("n_max must be >= 8")
    counts, saturated = lap_series(m, n_max, config)
    if len(counts) < 4:
        raise BudgetExhausted("lap series too short to fit a growth rate")
    n_used = len(counts)
    start = max(n_used // 2, 1)
    ns = np.arange(start, n_used + 1, dtype=float)
    ls = np.log([counts[int(n) - 1] for n in ns])
    design = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
    coef, *_ = np.linalg.lstsq(design, ls, rcond=None)
    resid = float(np.sqrt(np.mean((ls - design @ coef) ** 2)))
    return EntropyEstimate(max(float(coef[0]), 0.0), "lap-regression",
                           n_used, resid, saturated)


# ---------------------------------------------------------------------
# exact Markov backend
# ---------------------------------------------------------------------


def spectral_radius(rows, size: int, config: RunConfig = DEFAULT) -> float:
    """Spectral radius of a 0/1 matrix whose rows are column ranges.

    Transition structures of interval maps are routinely reducible and
    imprimitive, where plain power iteration stalls or oscillates, so dense
    eigenvalues are used up to a size cutoff; beyond it, power iteration on
    A + I (same Perron root shifted by one, aperiodic) with a Collatz
    upper-bound guard.
    """
    if size == 0:
        return 0.0
    if size <= 1500:
        dense = np.zeros((size, size))
        for i, (a, b) in enumerate(rows):
            dense[i, a:b] = 1.0
        eig = np.linalg.eigvals(dense)
        return float(np.max(np.abs(eig)))
    v = np.ones(size)
    lam = 1.0
    for _ in range(config.power_iter_max):
        pref = np.concatenate(([0.0], np.cumsum(v)))
        w = v.copy()
        for i, (a, b) in enumerate(rows):
            if a < b:
                w[i] += pref[b] - pref[a]
        upper = float(np.max(w / v)) - 1.0   # Collatz bound: rho <= max (Av)_i/v_i
        s = w.sum()
        if s == 0:
            return 0.0
        new_lam = s / v.sum() - 1.0
        v = w / s
        if abs(new_lam - lam) < config.power_iter_tol / 8 and upper - new_lam < 1e-6:
            return new_lam
        lam = new_lam
    return lam


def entropy_markov(m, config: RunConfig = DEFAULT) -> EntropyEstimate:
    """Exact entropy for maps whose breakpoint orbits close up.

    Builds the Markov partition from the forward orbits of all breakpoints
    (plateau edges and values included) and returns log of the spectral
    radius of the induced transition structure.
    """
    from .markov import build_markov
    pl = as_pl(m)
    if not pl.is_self_map():
        raise PreconditionError("Markov entropy needs a self-map")
    system = build_markov(pl, *config.markov_budget())
    rho = spectral_radius(system.rows, system.size, config)
    value = max(math.log(rho), 0.0) if rho > 0 else 0.0
    return EntropyEstimate(value, "markov-exact", system.size, 0.0)


# ---------------------------------------------------------------------
# positive-entropy witnesses
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    kind: str                   # periodic-orbit
    period: Optional[int]
    orbit: Optional[tuple]

    def as_dict(self):
        d = {"kind": self.kind, "period": self.period}
        if self.orbit is not None:
            d["orbit"] = [str(x) for x in self.orbit]
        return d


def verify_witness(m, w: Witness, tol: float = 1e-10) -> bool:
    """Re-verify a periodic-orbit witness against the map itself."""
    if w.orbit is None or w.period is None:
        return False
    x = w.orbit[0]
    y = x
    exact = is_exact(m)
    fn = as_pl(m) if exact else m
    for k in range(1, w.period + 1):
        y = fn(y)
        close = (y == x) if exact else abs(y - x) <= tol
        if close and k < w.period:
            return False
        if k == w.period and not close:
            return False
    return not is_power_of_two(w.period)


def positive_entropy_witness(m, period_bound: Optional[int] = None,
                             config: RunConfig = DEFAULT) -> Optional[Witness]:
    """A re-verified periodic orbit whose period is not a power of two, or None.

    Exact maps go through the exact decision route
    (``boundary.decide_exact``): the witness is a plateau cycle or a splice
    of two cycles of a branching Markov component, and its period is not
    capped by ``period_bound``.  None there means zero entropy was certified,
    or a budget ran out, or a branching component gave no verified orbit.
    Float maps search periods up to the bound.  Absence of a witness is not a
    proof of zero entropy.
    """
    if period_bound is None:
        period_bound = (config.period_bound_exact if is_exact(m)
                        else config.period_bound_float)
    if period_bound < 3:
        raise PreconditionError("period bound must be >= 3")
    if not is_exact(m):
        from .boundary import float_positive_witness
        return float_positive_witness(m, period_bound, config)
    from .boundary import decide_exact
    try:
        return decide_exact(m, config.zero_cert_levels, period_bound, config).witness
    except BudgetExhausted:
        return None

"""Checks made apart from the program.

Every function here recomputes a result without calling ``chaos_edge``, or
tests a property the method must have.  Each returns ``None`` when the
output is right and otherwise a one-line description of what is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

C_INF = -1.4011551890920506        # accumulation point of period doubling for x^2 + c
FEIGENBAUM_DELTA = 4.669201609
LAP_ENVELOPE = 0.3                 # |lap regression - Markov entropy| allowed on budget-capped series


def is_pow2(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


# ---------------------------------------------------------------------
# stunted sawtooth maps, exact, from their definition
# ---------------------------------------------------------------------


class Stunted:
    """The stunted sawtooth map with m turning points, orientation eps and
    signed plateau heights xi, evaluated exactly.

    The base zigzag has turning points c_i = -m-1+2i with values
    eps*lam*(-1)^(i+1), slope eps*lam*(-1)^j on lap j and lam = m+2; plateau i
    covers c_i +- (lam - xi_i)/lam and takes the value +-xi_i, with the sign of
    the turning value it truncates.
    """

    def __init__(self, m: int, eps: int, xi):
        lam = m + 2
        self.eps, self.lam = eps, lam
        self.e = Fraction(m * lam, lam - 1)
        self.c = [Fraction(-m - 1 + 2 * i) for i in range(1, m + 1)]
        self.v = [eps * lam * (-1) ** (i + 1) for i in range(1, m + 1)]
        self.plateaus = []
        for i, x in enumerate(xi):
            half = (lam - x) / lam
            self.plateaus.append((self.c[i] - half, self.c[i] + half,
                                  x if self.v[i] > 0 else -x))

    def __call__(self, x):
        if not -self.e <= x <= self.e:
            raise ValueError(f"{x} outside [-{self.e}, {self.e}]")
        for lo, hi, value in self.plateaus:
            if lo <= x <= hi:
                return value
        lap = sum(1 for c in self.c if c <= x)
        k = max(lap, 1) - 1
        return self.v[k] + self.eps * self.lam * (-1) ** lap * (x - self.c[k])

    def right_symbol(self, y):
        """Kneading symbol of y + 0: plateau address -(i+1), else the lap.
        The right end of the domain has no right neighbour and keeps its own."""
        for i, (lo, hi, _) in enumerate(self.plateaus):
            if lo <= y < hi or (y == hi == self.e):
                return -(i + 1)
        return sum(1 for _, hi, _ in self.plateaus if hi <= y)


def eventual_period(f, x, budget: int):
    """(preperiod, period) of the orbit of x, or None within budget steps."""
    seen = {}
    for k in range(budget + 1):
        if x in seen:
            return seen[x], k - seen[x]
        seen[x] = k
        x = f(x)
    return None


def exact_orbit_problem(f, orbit, period) -> str | None:
    """The orbit must close at its period and not before, through its points."""
    if period is None or orbit is None or len(orbit) != period:
        return f"witness orbit of length {None if orbit is None else len(orbit)} for period {period}"
    if is_pow2(period):
        return f"witness period {period} is a power of two"
    x = orbit[0]
    for k in range(1, period + 1):
        x = f(x)
        if k < period and (x == orbit[0] or x != orbit[k]):
            return f"witness orbit breaks at step {k} of {period}"
    if x != orbit[0]:
        return f"witness orbit does not close at period {period}"
    return None


def check_exact_locate(out, m, xi0, direction, t_lo, t_hi, resolution,
                       orbit_budget=20_000) -> str | None:
    res, zero_reverified, witness_reverified = out
    if not (zero_reverified and witness_reverified):
        return f"program re-check failed: zero {zero_reverified}, witness {witness_reverified}"
    t0, cert = res.zero_side
    t1, wit = res.positive_side
    if not t_lo <= t0 < t1 <= t_hi:
        return f"bracket [{t0}, {t1}] not increasing inside [{t_lo}, {t_hi}]"
    if t1 - t0 > resolution:
        return f"bracket width {t1 - t0} above resolution {resolution}"

    def at(t):
        return Stunted(m, 1, [x + t * d for x, d in zip(xi0, direction)])

    f0 = at(t0)
    if len(cert.plateau_orbits) != m:
        return f"{len(cert.plateau_orbits)} plateau records for m={m}"
    for rec, (_, _, value) in zip(cert.plateau_orbits, f0.plateaus):
        found = eventual_period(f0, value, orbit_budget)
        if found is None:
            return f"plateau {rec.plateau} orbit does not close within {orbit_budget}"
        if not is_pow2(found[1]):
            return f"plateau {rec.plateau} has period {found[1]}"
        if found != (rec.preperiod, rec.period):
            return f"plateau {rec.plateau}: certificate {rec.preperiod}/{rec.period}, recomputed {found}"
    if any(not is_pow2(p) for p in cert.periods_found):
        return f"certificate lists periods {sorted(cert.periods_found)}"
    return exact_orbit_problem(at(t1), wit.orbit, wit.period)


# ---------------------------------------------------------------------
# lap counts and entropy
# ---------------------------------------------------------------------


def submultiplicative_problem(counts) -> str | None:
    n = len(counts)
    for a in range(1, n + 1):
        for b in range(1, n + 1 - a):
            if counts[a + b - 1] > counts[a - 1] * counts[b - 1]:
                return f"lap({a + b}) = {counts[a + b - 1]} > lap({a})*lap({b})"
    return None


def check_full_laps(out, m: int, n: int) -> str | None:
    counts, saturated = out
    want = [(m + 1) ** k for k in range(1, n + 1)]
    if saturated or list(counts) != want:
        return f"full m={m} lap counts {list(counts)[-3:]} (saturated {saturated}), want {want[-3:]}"
    return submultiplicative_problem(counts)


def check_full_markov(out, m: int) -> str | None:
    if abs(out.value - math.log(m + 1)) > 1e-10:
        return f"full m={m} Markov entropy {out.value!r}, want log({m + 1})"
    return None


def check_full_periods(out, bound: int) -> str | None:
    want = frozenset(range(1, bound + 1))
    if out.periods != want or out.complete_upto != bound:
        return f"full map period set {sorted(out.periods)} up to {out.complete_upto}, want 1..{bound}"
    return None


def check_full_lap_entropy(out, m: int) -> str | None:
    if abs(out.value - math.log(m + 1)) > 1e-9:
        return f"full m={m} lap entropy {out.value!r}, want log({m + 1})"
    return None


def check_lap_vs_markov(out) -> str | None:
    lap, markov = out
    if lap.n_used < 4 or lap.value < 0:
        return f"lap estimate {lap.value} from {lap.n_used} levels"
    if abs(lap.value - markov.value) > LAP_ENVELOPE:
        return f"lap {lap.value:.4f} vs Markov {markov.value:.4f} outside {LAP_ENVELOPE}"
    return None


def check_exact_zero(out) -> str | None:
    if out.value != 0.0:
        return f"markov-exact entropy {out.value!r} on a zero-certified map"
    return None


def check_cli_entropy(out) -> str | None:
    code, text, err = out
    if code != 0:
        return f"chaos-edge entropy exited {code}: {err.strip()}"
    rep = json.loads(text)
    if abs(rep["markov"]["value"] - math.log(2)) > 1e-10:
        return f"trapezoid Markov entropy {rep['markov']['value']}"
    if abs(rep["lap"]["value"] - math.log(2)) > 1e-6:
        return f"trapezoid lap entropy {rep['lap']['value']}"
    return None


def check_cli_sweep(out, grid: int, m: int) -> str | None:
    """Entropy must not decrease along a path from the zero map to the full map."""
    code, text, err = out
    if code != 0:
        return f"chaos-edge sweep exited {code}: {err.strip()}"
    rows = list(csv.reader(io.StringIO(text)))[1:]
    if len(rows) != grid:
        return f"sweep printed {len(rows)} rows, want {grid}"
    ts = [Fraction(r[0]) for r in rows]
    hs = [float(r[1]) for r in rows]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        return "sweep parameters are not increasing"
    for k in range(grid - 1):
        if hs[k + 1] < hs[k]:
            return f"sweep entropy decreases at t={rows[k + 1][0]}: {hs[k]} -> {hs[k + 1]}"
    if hs[0] != 0.0 or abs(hs[-1] - math.log(m + 1)) > 1e-10:
        return f"sweep entropy runs {hs[0]} .. {hs[-1]}, want 0 .. log({m + 1})"
    return None


# ---------------------------------------------------------------------
# float maps, iterated here as z -> z^2 + c
# ---------------------------------------------------------------------


def float_orbit_problem(c: float, orbit, period, tol=1e-7) -> str | None:
    """The orbit of orbit[0] under z^2 + c must close at its period only."""
    if period is None or orbit is None or len(orbit) != period:
        return f"witness orbit of length {None if orbit is None else len(orbit)} for period {period}"
    if is_pow2(period):
        return f"witness period {period} is a power of two"
    x0 = orbit[0]
    scale = tol * max(1.0, abs(x0))
    z = x0
    for k in range(1, period + 1):
        z = z * z + c
        if k < period and abs(z - x0) <= scale:
            return f"witness orbit returns at step {k} of {period}"
    if abs(z - x0) > scale:
        return f"witness orbit misses its start by {abs(z - x0):.3g} after {period} steps"
    return None


def float_cert_problem(c: float, point: float, period: int) -> str | None:
    """Recomputed multiplier of the certified 2^k-cycle must be below 1."""
    if not is_pow2(period):
        return f"zero certificate period {period}"
    z = point
    mult = 1.0
    for _ in range(period):
        mult *= 2 * z
        z = z * z + c
    if not abs(mult) < 1.0:
        return f"recomputed multiplier {mult:.4g} of the period-{period} cycle"
    if abs(z - point) > 1e-6 * max(1.0, abs(point)):
        return f"certified point is not {period}-periodic: off by {abs(z - point):.3g}"
    return None


def check_quadratic_locate(res, resolution: float) -> str | None:
    lo, hi = sorted(res.bracket)
    if not lo <= C_INF <= hi:
        return f"bracket [{lo!r}, {hi!r}] misses c_inf"
    if hi - lo > resolution:
        return f"bracket width {hi - lo:.3g} above resolution {resolution}"
    c0, cert = res.zero_side
    c1, wit = res.positive_side
    return (float_cert_problem(c0, cert.point, cert.period)
            or float_orbit_problem(c1, wit.orbit, wit.period))


def check_type_b_locate(res, resolution: float) -> str | None:
    """One stage (2, a) on [-1, 1] is z = -b x conjugate to z^2 + a, b^2 + a = b."""
    lo, hi = sorted(res.bracket)
    if not lo <= C_INF <= hi:
        return f"type-B bracket [{lo!r}, {hi!r}] misses c_inf"
    if hi - lo > resolution:
        return f"type-B bracket width {hi - lo:.3g} above resolution {resolution}"

    def b_of(a):
        return (1 + math.sqrt(1 - 4 * a)) / 2

    a0, cert = res.zero_side
    a1, wit = res.positive_side
    problem = float_cert_problem(a0, -b_of(a0) * cert.point, cert.period)
    if problem:
        return "type-B " + problem
    b1 = b_of(a1)
    orbit = None if wit.orbit is None else tuple(-b1 * x for x in wit.orbit)
    problem = float_orbit_problem(a1, orbit, wit.period, tol=1e-6)
    return None if problem is None else "type-B " + problem


def check_cascade(trace, depth: int) -> str | None:
    if trace.depth != depth:
        return f"cascade depth {trace.depth} ({trace.reason}), want {depth}"
    widths = []
    outer = (-math.inf, math.inf)
    for lvl in trace.levels:
        lo, hi = float(lvl.original.lo), float(lvl.original.hi)
        if lvl.relative_period != 2 or not outer[0] <= lo < 0.0 < hi <= outer[1]:
            return f"cascade level [{lo}, {hi}] of relative period {lvl.relative_period}"
        outer = (lo, hi)
        widths.append(hi - lo)
    ratios = [a / b for a, b in zip(widths, widths[1:])]
    if any(not 2.2 <= r <= 2.8 for r in ratios):
        return f"cascade width ratios {[round(r, 3) for r in ratios]} far from alpha = 2.5029"
    return None


def check_feigenbaum(est) -> str | None:
    if abs(est.value - FEIGENBAUM_DELTA) > 1e-3:
        return f"delta estimate {est.value} is not within 1e-3 of {FEIGENBAUM_DELTA}"
    return None


def quadratic_kneading(c: float, depth: int):
    """Right-limit itinerary of the critical value of z^2 + c: 0 left of 0, else 1."""
    z = c
    out = []
    for _ in range(depth):
        out.append(0 if z < 0 else 1)
        z = z * z + c
    return tuple(out)


def stunted_kneading(f: Stunted, depth: int):
    out = []
    y = f.plateaus[0][2]
    for _ in range(depth):
        s = f.right_symbol(y)
        out.append(s)
        y = f.plateaus[-s - 1][2] if s < 0 else f(y)
    return tuple(out)


def check_quadratic_kneadings(out, cs, depth: int) -> str | None:
    for nu, c in zip(out, cs):
        want = quadratic_kneading(c, depth)
        if nu.nu != (want,):
            return f"kneading of x^2 + {c!r} is {nu.as_strings()}"
    return None


def check_quadratic_symbolic(out, cs, depth: int) -> str | None:
    """Kneading of each x^2 + c as iterated here; psi of x^2 - 2 (cs[0]) must
    be a one-plateau map with the same kneading."""
    res, nus = out
    problem = check_quadratic_kneadings(nus, cs, depth)
    if problem:
        return problem
    t = res.stunted
    got = stunted_kneading(Stunted(1, t.base.epsilon, list(t.xi)), depth)
    if got != quadratic_kneading(cs[0], depth):
        return f"psi(x^2 - 2) = {[str(x) for x in t.xi]} has kneading {got[:12]}..."
    return None

"""Exact piecewise-linear interval maps over the rationals.

Everything here is exact: breakpoints and values are ``Fraction``s or ints,
so plateau hits, periodicity and lap counts are decided, not estimated.  A
map is stored as breakpoints ``xs`` with values ``ys``; between breakpoints
the map is affine with a slope computed once per segment (an int when it is
integral), and a run of equal consecutive values is a plateau.

``PiecewiseLinear.lattice`` gives the same map in lattice coordinates
X = N·x, where N is the lcm of the denominators of the breakpoints and
values: its breakpoints and values are ints, so a map with integral slopes
takes ints to ints and its orbits from lattice points are int arithmetic.

The n-th iterate of a map is represented by its *pieces*: maximal intervals on
which the iterate is affine (or constant), each carried as
``(a, b, f(a), f(b))``.  Pieces are produced level by level by pulling the
outer map's breakpoints back through each affine piece, which keeps the
representation exact and the cost proportional to the lap count.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExhausted, DomainEscapeError

Piece = tuple  # (a, b, fa, fb); fa == fb marks a constant piece


@dataclass(frozen=True)
class Affine:
    """x -> a*x + b: exact coefficients on the exact route, floats on the
    float route (renormalized float maps)."""

    a: Fraction
    b: Fraction

    def __call__(self, x):
        return self.a * x + self.b

    def inverse(self) -> "Affine":
        return Affine(1 / self.a, -self.b / self.a)


def _slope(x0, x1, y0, y1):
    """(y1 - y0) / (x1 - x0) exactly for rationals x0 < x1, as an int when it
    is integral; cross-multiplied, so no intermediate ``Fraction`` is made."""
    p = ((y1.numerator * y0.denominator - y0.numerator * y1.denominator)
         * x0.denominator * x1.denominator)
    q = ((x1.numerator * x0.denominator - x0.numerator * x1.denominator)
         * y0.denominator * y1.denominator)
    return p // q if p % q == 0 else Fraction(p, q)


def on_lattice(x, n: int) -> int:
    """n·x as an int, for a rational x on the lattice (1/n)Z."""
    return x.numerator * (n // x.denominator)


class PiecewiseLinear:
    """Continuous piecewise-linear map given by breakpoints and values."""

    __slots__ = ("xs", "ys", "slopes", "_lattice")

    def __init__(self, xs, ys):
        xs = tuple(xs)
        ys = tuple(ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching breakpoints and values, at least two")
        for u, v in zip(xs, xs[1:]):
            if not u < v:
                raise ValueError("breakpoints must be strictly increasing")
        self.xs = xs
        self.ys = ys
        self.slopes = tuple(map(_slope, xs, xs[1:], ys, ys[1:]))
        self._lattice = None

    # -- basic queries ---------------------------------------------------

    @property
    def lo(self):
        return self.xs[0]

    @property
    def hi(self):
        return self.xs[-1]

    def __call__(self, x):
        xs, ys = self.xs, self.ys
        if x < xs[0] or x > xs[-1]:
            raise DomainEscapeError(f"{x} outside [{xs[0]}, {xs[-1]}]")
        i = bisect_right(xs, x) - 1
        if i >= len(xs) - 1:
            return ys[-1]
        s = self.slopes[i]
        return ys[i] + (x - xs[i]) * s if s else ys[i]

    def lattice(self):
        """(N, L): N the lcm of the denominators of the breakpoints and
        values, L the map X -> N·f(X/N) on the int breakpoints N·xs with the
        int values N·ys.  L has the slopes of f, so it takes ints to ints
        when they are integral.  Built once per map."""
        if self._lattice is None:
            n = math.lcm(*(v.denominator for v in self.xs + self.ys))
            self._lattice = n, PiecewiseLinear([on_lattice(x, n) for x in self.xs],
                                               [on_lattice(y, n) for y in self.ys])
        return self._lattice

    def pieces(self):
        """Level-1 pieces (the map's own segments)."""
        xs, ys = self.xs, self.ys
        return [(xs[i], xs[i + 1], ys[i], ys[i + 1]) for i in range(len(xs) - 1)]

    def is_self_map(self) -> bool:
        lo, hi = self.lo, self.hi
        return all(lo <= y <= hi for y in self.ys)

    def plateau_runs(self):
        """Maximal intervals on which the map is constant, with their values."""
        runs = []
        xs, ys = self.xs, self.ys
        i = 0
        while i < len(xs) - 1:
            if ys[i] == ys[i + 1]:
                j = i
                while j < len(xs) - 1 and ys[j + 1] == ys[i]:
                    j += 1
                runs.append((xs[i], xs[j], ys[i]))
                i = j
            else:
                i += 1
        return runs

    def image_interval(self, a, b):
        """Exact image [min, max] of [a, b] ⊆ domain."""
        if a > b:
            a, b = b, a
        va, vb = self(a), self(b)
        lo = min(va, vb)
        hi = max(va, vb)
        i = bisect_right(self.xs, a)
        j = bisect_left(self.xs, b)
        for k in range(i, j):
            y = self.ys[k]
            if y < lo:
                lo = y
            elif y > hi:
                hi = y
        return lo, hi

    def restrict(self, a, b) -> "PiecewiseLinear":
        if not (self.lo <= a < b <= self.hi):
            raise ValueError("restriction outside domain")
        i = bisect_right(self.xs, a)
        j = bisect_left(self.xs, b)
        xs = (a,) + self.xs[i:j] + (b,)
        ys = (self(a),) + self.ys[i:j] + (self(b),)
        return PiecewiseLinear(xs, ys)

    def conjugate(self, phi: Affine) -> "PiecewiseLinear":
        """Return phi ∘ self ∘ phi⁻¹ (exact)."""
        inv = phi.inverse()
        pts = [(phi(x), phi(y)) for x, y in zip(self.xs, self.ys)]
        if phi.a < 0:
            pts.reverse()
        return PiecewiseLinear([p for p, _ in pts], [v for _, v in pts])

    def __eq__(self, other):
        return (isinstance(other, PiecewiseLinear)
                and self.xs == other.xs and self.ys == other.ys)

    def __hash__(self):
        return hash((self.xs, self.ys))

    def __repr__(self):
        return f"PiecewiseLinear({len(self.xs)} breakpoints on [{self.lo}, {self.hi}])"


# -- iterated pieces -----------------------------------------------------


def advance_pieces(pieces, pl: PiecewiseLinear, budget: int):
    """Pieces of f∘g from the pieces of g (f = pl), exactly.

    Affine pieces are cut at preimages of the outer breakpoints;
    constant pieces stay constant.
    """
    xs = pl.xs
    lo_dom, hi_dom = pl.lo, pl.hi
    out = []
    for a, b, fa, fb in pieces:
        if fa == fb:
            out.append((a, b, pl(fa), pl(fa)))
            continue
        if fa < lo_dom or fa > hi_dom or fb < lo_dom or fb > hi_dom:
            raise DomainEscapeError("iterate leaves the domain; map is not a self-map")
        vlo, vhi = (fa, fb) if fa < fb else (fb, fa)
        i = bisect_right(xs, vlo)
        j = bisect_left(xs, vhi)
        cuts = xs[i:j]
        if fa > fb:
            cuts = cuts[::-1]
        vals = [fa, *cuts, fb]
        scale = (b - a) / (fb - fa)
        nodes = [a] + [a + (t - fa) * scale for t in cuts] + [b]
        w0 = pl(vals[0])
        for k in range(len(vals) - 1):
            w1 = pl(vals[k + 1])
            out.append((nodes[k], nodes[k + 1], w0, w1))
            w0 = w1
        if len(out) > budget:
            raise BudgetExhausted(f"piece budget ({budget}) exceeded")
    if len(out) > budget:
        raise BudgetExhausted(f"piece budget ({budget}) exceeded")
    return out


class PieceCursor:
    """Lazily extended pieces of f, f², f³, … for one exact map."""

    def __init__(self, pl: PiecewiseLinear, budget: int):
        self.pl = pl
        self.budget = budget
        self._levels = [pl.pieces()]

    def level(self, n: int):
        if n < 1:
            raise ValueError("iterate index must be >= 1")
        while len(self._levels) < n:
            self._levels.append(advance_pieces(self._levels[-1], self.pl, self.budget))
        return self._levels[n - 1]


def strict_lap_count(pieces) -> int:
    """Number of maximal intervals of strict monotonicity (plateaus excluded,
    but an everywhere-constant iterate still counts as one lap)."""
    count = 0
    prev_dir = 0
    for a, b, fa, fb in pieces:
        d = 1 if fb > fa else (-1 if fb < fa else 0)
        if d == 0:
            prev_dir = 0
            continue
        if d != prev_dir:
            count += 1
        prev_dir = d
    return max(count, 1)


def fixed_points_of_pieces(pieces):
    """Exact solutions of F(x) = x, one per piece, as (x, slope).

    Constant pieces contribute their value when it lies inside the piece
    (slope 0, a plateau-absorbed solution).
    """
    sols = []
    for a, b, fa, fb in pieces:
        if fa == fb:
            if a <= fa <= b:
                sols.append((fa, Fraction(0)))
            continue
        s = (fb - fa) / (b - a)
        if s == 1:
            if fa == a:
                raise ValueError("segment of fixed points (slope-1 identity piece)")
            continue
        x = (fa - s * a) / (1 - s)
        if a <= x <= b:
            sols.append((x, s))
    sols.sort(key=lambda t: t[0])
    out = []
    for x, s in sols:
        if out and out[-1][0] == x:
            # keep the non-degenerate slope when a breakpoint repeats
            if out[-1][1] == 0 and s != 0:
                out[-1] = (x, s)
            continue
        out.append((x, s))
    return [(x, s) for x, s in out]


def solve_on_pieces(pieces, target):
    """Exact solutions of F(x) = target, ascending."""
    sols = []
    for a, b, fa, fb in pieces:
        if fa == fb:
            if fa == target:
                sols.append(a)  # whole piece maps there; report its left end
            continue
        lo, hi = (fa, fb) if fa < fb else (fb, fa)
        if lo <= target <= hi:
            x = a + (target - fa) * (b - a) / (fb - fa)
            sols.append(x)
    sols = sorted(set(sols))
    return sols

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

The n-th iterate of a map on an interval [lo, hi] is represented by its
*pieces*: maximal intervals on which the iterate is affine (or constant),
each carried as ``(a, b, f(a), f(b))``.  ``pieces_on`` produces them by
pushing the identity piece on [lo, hi] through the map n times, pulling the
map's breakpoints back through each affine piece, so no piece outside
[lo, hi] is built.  Its one reader is the exact renormalization (``renorm``),
which needs every piece of f^n on a side of a turning region or on a
restrictive interval; periods, laps and entropy read the breakpoint closure
(``markov.build_markov``) instead.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExhausted, DomainEscapeError

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


def ratio(p, q):
    """p / q exactly, as an int when it is integral (/ on two ints is a float)."""
    k, r = divmod(p, q)
    return Fraction(p, q) if r else k


def _slope(x0, x1, y0, y1):
    """(y1 - y0) / (x1 - x0) exactly for rationals x0 < x1, as an int when it
    is integral; cross-multiplied, so no intermediate ``Fraction`` is made."""
    if type(x0) is int and type(x1) is int and type(y0) is int and type(y1) is int:
        return ratio(y1 - y0, x1 - x0)      # a segment of a lattice map
    p = ((y1.numerator * y0.denominator - y0.numerator * y1.denominator)
         * x0.denominator * x1.denominator)
    q = ((x1.numerator * x0.denominator - x0.numerator * x1.denominator)
         * y0.denominator * y1.denominator)
    return ratio(p, q)


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
        xs, ys, slopes = self.xs, self.ys, self.slopes
        i = bisect_right(xs, x) - 1
        if 0 <= i < len(slopes):
            s = slopes[i]
            return ys[i] + (x - xs[i]) * s if s else ys[i]
        if x == xs[-1]:
            return ys[-1]
        raise DomainEscapeError(f"{x} outside [{xs[0]}, {xs[-1]}]")

    def lattice(self):
        """(N, L): N the lcm of the denominators of the breakpoints and
        values, L the map X -> N·f(X/N) on the int breakpoints N·xs with the
        int values N·ys.  L has the slopes of f, so it takes ints to ints
        when they are integral.  Built once per map; the ``pl`` of a stunted
        map shares the map's own lattice, whose N may be a multiple."""
        if self._lattice is None:
            n = math.lcm(*(v.denominator for v in self.xs + self.ys))
            self._lattice = n, PiecewiseLinear([on_lattice(x, n) for x in self.xs],
                                               [on_lattice(y, n) for y in self.ys])
        return self._lattice

    def is_self_map(self) -> bool:
        return self.lo <= min(self.ys) and max(self.ys) <= self.hi

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
    """Pieces of f∘g from the pieces of g (f = pl), exactly: affine pieces
    are cut at preimages of the outer breakpoints; constant pieces stay
    constant.  Adjacent constant pieces of one value are not merged:
    ``solve_on_pieces`` reports each one's left end, so ``find_restrictive``
    tries each as a mate (on m = 2, xi = (0, 31/16), period 3, merging
    narrows its widest interval from [0, 2] to [0, 97/64])."""
    xs, ys = pl.xs, pl.ys
    lo_dom, hi_dom = pl.lo, pl.hi
    out = []
    for a, b, fa, fb in pieces:
        w0 = pl(fa)
        if fa == fb:
            out.append((a, b, w0, w0))
            continue
        if fa < lo_dom or fa > hi_dom or fb < lo_dom or fb > hi_dom:
            raise DomainEscapeError("iterate leaves the domain; map is not a self-map")
        k = ratio(b - a, fb - fa)
        if fa < fb:
            cuts = range(bisect_right(xs, fa), bisect_left(xs, fb))
        else:
            cuts = range(bisect_left(xs, fa) - 1, bisect_right(xs, fb) - 1, -1)
        x0 = a
        for c in cuts:
            x1 = a + (xs[c] - fa) * k
            out.append((x0, x1, w0, ys[c]))
            x0, w0 = x1, ys[c]
        out.append((x0, b, w0, pl(fb)))
        if len(out) > budget:
            raise BudgetExhausted(f"piece budget exceeded: more than piece_budget={budget} pieces")
    if len(out) > budget:
        raise BudgetExhausted(f"piece budget exceeded: more than piece_budget={budget} pieces")
    return out


def pieces_on(pl: PiecewiseLinear, n: int, lo, hi, budget: int):
    """Pieces of f^n on [lo, hi] ⊆ domain (f = pl): the identity piece on
    [lo, hi] advanced n times."""
    pieces = [(lo, hi, lo, hi)]
    for _ in range(n):
        pieces = advance_pieces(pieces, pl, budget)
    return pieces


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
            sols.append(a + ratio((target - fa) * (b - a), fb - fa))
    sols = sorted(set(sols))
    return sols

"""Map families: sawtooth bases, stunted sawtooth maps, unicritical compositions.

Stunted sawtooth maps are kept exact (rational breakpoints and plateau
heights), so their dynamics is decidable.  Polynomial families are floating
point with configurable root-finding precision.  ``turning_regions`` is the
one derivation of a map's turning points, plateaus and their values, and
``SawtoothBase.pl`` the one form of the base zigzag's laps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DescriptorError, PreconditionError
from .piecewise import PiecewiseLinear, on_lattice


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/2', and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**15)
    raise TypeError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class Interval:
    lo: object
    hi: object

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi


# =====================================================================
# Sawtooth base S0 and stunted maps
# =====================================================================


@dataclass(frozen=True)
class SawtoothBase:
    """Base zigzag with m turning points, slopes ±(m+2) and extremal values ±(m+2).

    The map fixes {-e, e} setwise, where e = m·lam/(lam-1); it is not a
    self-map of [-e, e] (its extrema stick out), which is exactly what the
    plateau truncation repairs.
    """

    m: int
    epsilon: int
    lam: int = field(init=False)
    e: Fraction = field(init=False)
    turning_points: tuple = field(init=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("need at least one turning point (m >= 1)")
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        lam = self.m + 2
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "e", Fraction(self.m * lam, lam - 1))
        object.__setattr__(
            self, "turning_points",
            tuple(Fraction(-self.m - 1 + 2 * i) for i in range(1, self.m + 1)))

    @property
    def domain(self) -> Interval:
        return Interval(-self.e, self.e)

    def is_max(self, i: int) -> bool:
        return self.epsilon * (-1) ** (i + 1) > 0

    @cached_property
    def pl(self) -> PiecewiseLinear:
        """The zigzag as a ``PiecewiseLinear`` on [-e, e], one segment per lap:
        int slopes ±lam, ``Fraction`` ends and values (±lam at the turning
        points), so lap affines and their inverses stay exact."""
        s, e = self.epsilon, self.e
        tops = (Fraction(s * self.lam * (-1) ** k) for k in range(self.m))
        return PiecewiseLinear((-e, *self.turning_points, e),
                               (-s * e, *tops, s * (-1) ** self.m * e))


def build_base(m: int, epsilon: int = 1) -> SawtoothBase:
    return SawtoothBase(m, epsilon)


@dataclass(frozen=True)
class StuntedSawtooth:
    """Base zigzag truncated to constant plateaus of signed heights xi.

    ``xi[i]`` is the plateau value when the i-th turning point is a maximum
    of the base and minus the plateau value when it is a minimum; admissible
    parameters satisfy xi[i] >= -xi[i+1] (disjoint plateau interiors, touching
    allowed and flagged degenerate).  The map is built on its ``lattice`` from
    the numerators of xi; ``pl`` and ``plateaus`` are made when first read.
    """

    base: SawtoothBase
    xi: tuple
    plateau_values: tuple = field(init=False)
    degenerate: bool = field(init=False)
    _lattice: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        b = self.base
        xi = tuple(rat(v) for v in self.xi)
        object.__setattr__(self, "xi", xi)
        if len(xi) != b.m:
            raise ValueError(f"need {b.m} plateau parameters, got {len(xi)}")
        q = math.lcm(*(v.denominator for v in xi))
        n, lat, values = stunted_lattice(b, [on_lattice(v, q) for v in xi], q)
        # touching plateaus, xi[i] = -xi[i+1], have the same value
        object.__setattr__(self, "degenerate", any(u == v for u, v in zip(values, values[1:])))
        object.__setattr__(self, "plateau_values", tuple(
            v if b.is_max(i) else -v for i, v in enumerate(xi, start=1)))
        object.__setattr__(self, "_lattice", (n, lat))

    def lattice(self):
        """(N, L) as ``PiecewiseLinear.lattice``, built with the map."""
        return self._lattice

    @cached_property
    def pl(self) -> PiecewiseLinear:
        """The map as a ``Fraction`` ``PiecewiseLinear`` sharing its lattice."""
        n, lat = self._lattice
        pl = PiecewiseLinear([Fraction(x, n) for x in lat.xs], [Fraction(y, n) for y in lat.ys])
        pl._lattice = self._lattice
        return pl

    @cached_property
    def plateaus(self) -> tuple:
        halves = (Fraction(self.base.lam - v, self.base.lam) for v in self.xi)
        return tuple(Interval(c - h, c + h) for c, h in zip(self.base.turning_points, halves))

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def domain(self) -> Interval:
        return self.base.domain

    @property
    def turning_points(self) -> tuple:
        return self.base.turning_points

    kind = "stunted"

    def __call__(self, x):
        return self.pl(x)

    def shifted(self, delta: Sequence) -> "StuntedSawtooth":
        new = tuple(v + rat(d) for v, d in zip(self.xi, delta))
        return StuntedSawtooth(self.base, new)


def stunted_lattice(base: SawtoothBase, nums, q: int):
    """(N, L, values): the stunted map with signed heights xi = nums/q, built
    from those ints in lattice coordinates X = N·x, N = lcm(lam·lcm(den xi),
    lam - 1): the map L on int breakpoints and values, its plateau values.
    The plateau at c = 2i - m - 1 has half-width (N·lam - N·xi[i])/lam; -e
    maps to -epsilon·e, e to epsilon·(-1)^m·e; touching ends merge."""
    lam, m = base.lam, base.m
    g = math.gcd(q, *nums)          # lcm(den xi) = q/g
    n = math.lcm(lam * (q // g), lam - 1)
    ne = n * m * lam // (lam - 1)
    nxi = [v * n // q for v in nums]
    for i, v in enumerate(nxi):
        if abs(v) > ne:
            raise ValueError(f"xi[{i}]={Fraction(nums[i], q)} outside [-e, e] = "
                             f"[-{base.e}, {base.e}]")
    for i in range(m - 1):
        if nxi[i] < -nxi[i + 1]:
            raise ValueError(f"plateau interiors overlap: xi[{i}]={Fraction(nums[i], q)} "
                             f"< -xi[{i+1}]={-Fraction(nums[i + 1], q)}")
    ys = {-ne: -base.epsilon * ne, ne: base.epsilon * (-1) ** m * ne}
    values, sign = [], base.epsilon       # +1 at a maximum of the base (``is_max``)
    for c, v in zip(range((1 - m) * n, m * n, 2 * n), nxi):
        half = n - v // lam
        ys[c - half] = ys[c + half] = sign * v
        values.append(sign * v)
        sign = -sign
    xs = sorted(ys)
    return n, PiecewiseLinear(xs, [ys[x] for x in xs]), tuple(values)


def build_stunted(base: SawtoothBase, xi) -> StuntedSawtooth:
    return StuntedSawtooth(base, tuple(xi))


def full_stunted(base: SawtoothBase) -> StuntedSawtooth:
    """The widest admissible truncation (all signed heights equal to e)."""
    return StuntedSawtooth(base, (base.e,) * base.m)


# =====================================================================
# Floating-point families
# =====================================================================


@dataclass(frozen=True)
class Quadratic:
    """x^2 + c on its invariant interval [-beta, beta], c in [-2, 1/4]."""

    c: float
    beta: float = field(init=False)

    def __post_init__(self):
        disc = 1 - 4 * self.c
        if disc < 0 or self.c < -2:
            raise ValueError(f"no invariant interval for c={self.c}")
        object.__setattr__(self, "beta", (1 + math.sqrt(disc)) / 2)

    kind = "quadratic"
    array_exact = True      # x * x + c on a numpy array gives the scalar floats

    @property
    def domain(self) -> Interval:
        return Interval(-self.beta, self.beta)

    @property
    def turning_points(self) -> tuple:
        return (0.0,)

    def __call__(self, x):
        return x * x + self.c

    def preimages(self, w):
        r = w - self.c
        if r < 0:
            return []
        s = math.sqrt(r)
        out = [x for x in (-s, s) if -self.beta <= x <= self.beta]
        return sorted(set(out))

    def derivative(self, x):
        return 2 * x


def bisect_root(g, lo: float, hi: float, xtol: float, g_lo=None) -> float:
    """Root of g in [lo, hi], where g changes sign: the bracket is halved
    until it is no wider than xtol, or than one ulp when xtol is below that
    (the midpoint of adjacent floats is one of them), and its midpoint
    returned.

    A midpoint becomes the right end when g(mid) * g_lo <= 0, so g_lo == 0
    converges to lo; a midpoint where g is exactly 0 is returned at once.
    Pass Python floats: each step on numpy scalars is slower.
    """
    if g_lo is None:
        g_lo = g(lo)
    while hi - lo > xtol:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        gm = g(mid)
        if gm == 0:
            return mid
        if gm * g_lo <= 0:
            hi = mid
        else:
            lo, g_lo = mid, gm
    return (lo + hi) / 2


def _stage_b(ell: int, a: float, tol: float = 1e-14) -> float:
    """Positive root of b^ell + a = b beyond the minimum of g(b) = b^ell + a - b.

    g decreases up to b* = (1/ell)^(1/(ell-1)) and increases after, so a root
    exists iff g(b*) <= 0 and then bisection on [b*, hi] brackets it; a Newton
    polish lands on the machine root (exact for integer roots like b=2).
    """
    g = lambda b: b ** ell + a - b
    bstar = (1.0 / ell) ** (1.0 / (ell - 1))
    g_star = g(bstar)
    if g_star > 0:
        raise ValueError(
            f"stage (ell={ell}, a={a}) has no invariant interval: "
            f"min of b^{ell}+a-b is {g_star:.6g} > 0")
    hi = max(2 * bstar, 1.5)
    for _ in range(200):
        if g(hi) > 0:
            break
        hi *= 2
    else:
        raise ValueError("could not bracket the fixed-point equation")
    b = bisect_root(g, bstar, hi, tol, g_star)
    for _ in range(5):
        d = ell * b ** (ell - 1) - 1
        if d == 0:
            break
        step = g(b) / d
        b -= step
        if step == 0:
            break
    return b


@dataclass(frozen=True)
class PolynomialTypeB:
    """Composition q_k ∘ … ∘ q_1 of rescaled unicritical stages on [-1, 1].

    Each stage comes from p(z) = z^ell + a with invariant interval [-b, b]
    (b > 0, b^ell + a = b, a >= -b), rescaled by A(z) = -b z so that
    q(-1) = q(1) = -1.  Interior stages must satisfy q(0) > 0 (a < 0).
    """

    stages: tuple
    bs: tuple = field(init=False)
    turning_points: tuple = field(init=False)
    # (ell, a, b, b ** ell) per stage, for __call__
    coeffs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stages = tuple((int(ell), float(a)) for ell, a in self.stages)
        object.__setattr__(self, "stages", stages)
        if not stages:
            raise ValueError("need at least one stage")
        bs = []
        for idx, (ell, a) in enumerate(stages):
            if ell < 2 or ell % 2 != 0:
                raise ValueError(f"stage order must be even and >= 2, got {ell}")
            b = _stage_b(ell, a)
            if a < -b:
                raise ValueError(
                    f"stage (ell={ell}, a={a}) not invariant: a < -b = {-b:.6g}")
            if idx < len(stages) - 1 and a >= 0:
                raise ValueError(
                    f"interior stage {idx + 1} needs value q(0) = {-a/b:.6g} > 0 (a < 0)")
            bs.append(b)
        object.__setattr__(self, "bs", tuple(bs))
        object.__setattr__(self, "coeffs", tuple(
            (ell, a, b, b ** ell) for (ell, a), b in zip(stages, bs)))
        object.__setattr__(self, "turning_points", tuple(self._turning_points()))

    kind = "type_b"

    @property
    def domain(self) -> Interval:
        return Interval(-1.0, 1.0)

    def stage_eval(self, i: int, x: float) -> float:
        ell, a = self.stages[i]
        b = self.bs[i]
        return -(b ** ell * x ** ell + a) / b

    def stage_preimages(self, i: int, w: float):
        ell, a = self.stages[i]
        b = self.bs[i]
        r = (-w * b - a) / b ** ell
        if r < 0:
            return []
        s = r ** (1.0 / ell)
        return sorted({x for x in (-s, s) if -1.0 <= x <= 1.0})

    def __call__(self, x):
        # stage_eval per stage, with b ** ell computed once
        for ell, a, b, b_ell in self.coeffs:
            x = -(b_ell * x ** ell + a) / b
        return x

    def _pull_back(self, w, k):
        """The preimages of w under q_k ∘ … ∘ q_1, stages k-1 down to 0, sorted."""
        targets = [w]
        for i in range(k - 1, -1, -1):
            targets = sorted({x for t in targets for x in self.stage_preimages(i, t)})
        return targets

    def preimages(self, w):
        return self._pull_back(w, len(self.stages))

    def _turning_points(self):
        # turning points of q_k∘…∘q_1: 0 and the preimages of 0 under each proper prefix
        return sorted({0.0}.union(*(self._pull_back(0.0, i) for i in range(1, len(self.stages)))))


def build_type_b(stages) -> PolynomialTypeB:
    return PolynomialTypeB(tuple(stages))


@dataclass(frozen=True)
class FloatUnimodal:
    """Unimodal float map given by a callable."""

    fn: Callable
    domain: Interval
    turning: float
    kind: str = "float-unimodal"

    @property
    def turning_points(self) -> tuple:
        return (self.turning,)

    def __call__(self, x):
        return self.fn(x)


# =====================================================================
# Generic operations
# =====================================================================


def is_exact(m) -> bool:
    return isinstance(m, (StuntedSawtooth, PiecewiseLinear))


def as_pl(m) -> PiecewiseLinear:
    if isinstance(m, StuntedSawtooth):
        return m.pl
    if isinstance(m, PiecewiseLinear):
        return m
    raise TypeError(f"{m!r} is not an exact piecewise-linear map")


def domain_of(m) -> Interval:
    if isinstance(m, PiecewiseLinear):
        return Interval(m.lo, m.hi)
    return m.domain


def turning_regions(m) -> tuple:
    """(lo, hi, value) per turning point, ascending: the one derivation of a
    map's critical structure.  A stunted map gives its plateaus with their
    values, a ``PiecewiseLinear`` its plateau runs and, as one-point regions,
    its direction flips, and any other map (c, c, m(c)) per turning point."""
    if isinstance(m, StuntedSawtooth):
        return tuple((z.lo, z.hi, v) for z, v in zip(m.plateaus, m.plateau_values))
    if isinstance(m, PiecewiseLinear):
        xs, ys = m.xs, m.ys
        flips = [(xs[i], xs[i], ys[i]) for i in range(1, len(xs) - 1)
                 if (ys[i] - ys[i - 1]) * (ys[i + 1] - ys[i]) < 0]
        return tuple(sorted(m.plateau_runs() + flips))
    return tuple((c, c, m(c)) for c in m.turning_points)


def turning_points_of(m) -> tuple:
    """A point per turning region: a ``PiecewiseLinear``'s region midpoints,
    else the map's own turning points."""
    if isinstance(m, PiecewiseLinear):
        return tuple((lo + hi) / 2 for lo, hi, _ in turning_regions(m))
    return tuple(m.turning_points)


def is_even(m) -> bool:
    """One turning point, at 0, on a symmetric domain: x^2 + c and one-stage
    type-B maps."""
    dom = domain_of(m)
    return turning_points_of(m) == (0.0,) and dom.lo == -dom.hi


def _quadratic_steps(x: float, c: float, n: int) -> float:
    """n steps of x * x + c on a float, eight to a loop pass."""
    for _ in range(n >> 3):
        x = x * x + c
        x = x * x + c
        x = x * x + c
        x = x * x + c
        x = x * x + c
        x = x * x + c
        x = x * x + c
        x = x * x + c
    for _ in range(n & 7):
        x = x * x + c
    return x


def iterate(m, x, n: int):
    """n-th image of x (exact for rational piecewise-linear maps).

    For a float map x may also be a numpy array.  A ``Quadratic`` runs
    ``x * x + c`` inline, the arithmetic of ``Quadratic.__call__`` without a
    call per step (on a float eight steps to a loop pass); an array gets one
    new array at the first step and is then stepped in place (the argument
    is left unchanged).  A ``PolynomialTypeB`` runs the stage expression of
    its ``__call__`` inline over ``coeffs``.
    """
    if n < 0:
        raise ValueError("iterate count must be >= 0")
    if type(m) is Quadratic:
        c = m.c
        if isinstance(x, float) or n == 0:
            return _quadratic_steps(x, c, n)
        x = x * x + c
        for _ in range(n - 1):
            x *= x
            x += c
        return x
    if type(m) is PolynomialTypeB:
        if len(m.coeffs) == 1:
            # one stage unpacked once: the loop over one stage is a third of
            # a step's cost, and the type-B locate is float-locate's median op
            ((ell, a, b, b_ell),) = m.coeffs
            for _ in range(n):
                x = -(b_ell * x ** ell + a) / b
            return x
        for _ in range(n):
            for ell, a, b, b_ell in m.coeffs:
                x = -(b_ell * x ** ell + a) / b
        return x
    f = m.pl if isinstance(m, StuntedSawtooth) else m
    for _ in range(n):
        x = f(x)
    return x


def iterate_grid(m, xs, n: int) -> list:
    """``[iterate(m, x, n) for x in xs]`` for a numpy array xs of floats, as
    a list of floats equal bit for bit to the scalar ones.

    A map whose ``array_exact`` is true steps with IEEE +, -, * and / only
    (``x^2 + c``, and a renormalized level of it) and takes one array call:
    numpy rounds those operations as Python floats do.  Any other map takes
    one call per point: numpy's ``x ** ell`` differs from libm's ``pow`` in
    the last bit of some x, and a callable need not take arrays.
    """
    if getattr(m, "array_exact", False):
        return iterate(m, xs, n).tolist()
    return [iterate(m, x, n) for x in xs.tolist()]


def orbit(m, x: float, n: int) -> list:
    """The next n images of x under a float map, as a list of floats equal
    bit for bit to stepping ``m(x)``; a ``Quadratic`` runs ``x * x + c``
    inline, as in ``iterate``."""
    if type(m) is Quadratic:
        c = m.c
        return [x := x * x + c for _ in range(n)]
    return [x := m(x) for _ in range(n)]


def quadratic_multiplier(m: Quadratic, x: float, p: int) -> float:
    """(f^p)'(x) for f = x^2 + c: the product of ``m.derivative`` (2 * x)
    along the p points of the orbit of x, in the same order."""
    c = m.c
    mult = 1.0
    for _ in range(p):
        mult *= 2 * x
        x = x * x + c
    return mult


def critical_values(m):
    """Sorted distinct turning/plateau values with the rank of each turning point.

    Returns (values, ranks) where ranks[i] is the 1-based rank of the i-th
    turning point's value among the distinct values.
    """
    vals = [v for _, _, v in turning_regions(m)]
    if not vals:
        raise PreconditionError("map has no turning points or plateaus")
    if all(isinstance(v, (Fraction, int)) for v in vals):
        distinct = sorted(set(vals))
        ranks = [distinct.index(v) + 1 for v in vals]
        return distinct, ranks
    # float values: group within tolerance
    tol = 1e-9 * max(1.0, max(abs(float(v)) for v in vals))
    distinct = []
    for v in sorted(float(v) for v in vals):
        if not distinct or v - distinct[-1] > tol:
            distinct.append(v)
    ranks = []
    for v in vals:
        k = min(range(len(distinct)), key=lambda i: abs(distinct[i] - float(v)))
        ranks.append(k + 1)
    return distinct, ranks


# =====================================================================
# JSON descriptors
# =====================================================================


def parse_map(desc: dict):
    """Build a map from a JSON-style descriptor (rationals as 'p/q' strings)."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise DescriptorError("descriptor must be an object with a 'kind' field")
    kind = desc["kind"]
    try:
        if kind == "stunted":
            base = build_base(int(desc["m"]), int(desc.get("epsilon", 1)))
            xi = [rat(v) for v in desc["xi"]]
            return build_stunted(base, xi)
        if kind == "type_b":
            return build_type_b([(int(e), float(a)) for e, a in desc["stages"]])
        if kind == "quadratic":
            return Quadratic(float(desc["c"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DescriptorError(f"bad {kind!r} descriptor: {exc}") from exc
    raise DescriptorError(f"unknown map kind {kind!r}")


def serialize_map(m) -> dict:
    if isinstance(m, StuntedSawtooth):
        return {"kind": "stunted", "m": m.base.m, "epsilon": m.base.epsilon,
                "xi": [str(v) for v in m.xi]}
    if isinstance(m, PolynomialTypeB):
        return {"kind": "type_b", "stages": [[e, a] for e, a in m.stages]}
    if isinstance(m, Quadratic):
        return {"kind": "quadratic", "c": m.c}
    raise DescriptorError(f"cannot serialize {type(m).__name__}")

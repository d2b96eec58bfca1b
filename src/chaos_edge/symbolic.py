"""Itineraries, kneading data, shapes and the projection onto stunted maps.

Symbols are small integers: lap j (0-based, m+1 laps) is encoded as ``j`` and
the address of the j-th turning point / plateau (1-based) as ``-j``.  The
string form uses the lap digit or ``Cj``.

Every map's symbols come from one resolver, ``_symbol``, read against the
map's ``maps.turning_regions`` (plateaus, and turning points as one-point
regions), for stunted, raw ``PiecewiseLinear`` and float maps alike.  Two
symbol conventions coexist deliberately:

* plain itineraries resolve exact hits of a turning point or any point of a
  closed plateau to the address symbol;
* kneading sequences are the itineraries of the turning/plateau *values* and
  resolve every exact hit of a turning point or plateau boundary to the right
  (one consistent one-sided convention, never left limits), so a kneading
  sequence over laps is directly comparable with right-limit itineraries of
  the base zigzag.

An address symbol continues the orbit through its region's value.  The base
zigzag's laps are read from ``SawtoothBase.pl`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError
from .maps import (SawtoothBase, StuntedSawtooth, build_stunted, critical_values,
                   domain_of, is_even, orbit, turning_points_of,
                   turning_regions)
from .piecewise import on_lattice


def sym_str(s: int) -> str:
    return str(s) if s >= 0 else f"C{-s}"


def syms_str(seq) -> str:
    return "".join(sym_str(s) for s in seq)


@dataclass(frozen=True)
class Itinerary:
    symbols: tuple

    def __str__(self):
        return syms_str(self.symbols)


@dataclass(frozen=True)
class KneadingInvariant:
    nu: tuple           # one symbol tuple per turning point / plateau
    depth: int

    def as_strings(self):
        return [syms_str(s) for s in self.nu]


@dataclass(frozen=True)
class Shape:
    """Pairing of each turning point with the rank of its value among distinct values."""

    pairs: tuple        # ((i, rank), ...) with i 1-based
    value_count: int

    def __post_init__(self):
        ranks = {r for _, r in self.pairs}
        if ranks and (min(ranks) < 1 or max(ranks) > self.value_count):
            raise ValueError("ranks out of range")
        if ranks != set(range(1, self.value_count + 1)):
            raise ValueError("every rank must be attained")


# ---------------------------------------------------------------------
# symbol resolution
# ---------------------------------------------------------------------


def _symbol(regions, y, right: bool, top) -> int:
    """Symbol of y against ``turning_regions``: the address of the region
    holding y, else the lap, the number of regions below y.  A region holds
    its closed interval, or with ``right`` (the symbol of y + 0⁺) its
    half-open [lo, hi), so a one-point region holds nothing; at the domain's
    upper end ``top``, which has no right, the closed rule holds."""
    closed = not right or y == top
    for i, (lo, hi, _) in enumerate(regions):
        if y < lo:
            return i
        if y < hi or closed and y == hi:
            return -i - 1
    return len(regions)


def _symbols(m, regions, y, depth: int, right: bool) -> tuple:
    """``depth`` symbols along the orbit of y; an address symbol continues
    through its region's value."""
    top = domain_of(m).hi
    out = []
    for _ in range(depth):
        s = _symbol(regions, y, right, top)
        out.append(s)
        y = regions[-s - 1][2] if s < 0 else m(y)
    return tuple(out)


def itinerary(m, x, depth: int) -> Itinerary:
    """Symbol per iterate; exact hits of a turning point or closed plateau
    produce the address symbol and the orbit continues through the image."""
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if not domain_of(m).contains(x):
        raise PreconditionError(f"{x} outside the domain")
    return Itinerary(_symbols(m, turning_regions(m), x, depth, False))


def kneading(m, depth: int) -> KneadingInvariant:
    """Kneading invariant: per turning point, the itinerary of its value.

    Exact hits of a plateau boundary or a turning point are resolved to the
    right; landing strictly inside a plateau yields that plateau's address
    and continues through the plateau value.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    regions = turning_regions(m)
    return KneadingInvariant(
        tuple(_symbols(m, regions, v, depth, True) for _, _, v in regions), depth)


def shape(m) -> Shape:
    """Order pattern of turning points versus ranked distinct critical values."""
    distinct, ranks = critical_values(m)
    pairs = tuple((i + 1, r) for i, r in enumerate(ranks))
    return Shape(pairs, len(distinct))


def signed_compare(a, b, epsilon: int = 1) -> int:
    """Order two itineraries as the points carrying them would be ordered.

    Returns -1, 0 or +1.  The comparison sign flips after every symbol whose
    lap is orientation reversing (lap j has slope sign epsilon·(-1)^j); equal
    prefixes (or a shared address symbol) compare equal at this depth.
    """
    sa = a.symbols if isinstance(a, Itinerary) else tuple(a)
    sb = b.symbols if isinstance(b, Itinerary) else tuple(b)
    sign = 1

    def key(s):
        return 2 * s if s >= 0 else -2 * s - 1

    for x, y in zip(sa, sb):
        if x != y:
            return sign if key(x) > key(y) else -sign
        if x < 0:
            return 0
        if epsilon * (-1) ** x < 0:
            sign = -sign
    return 0


DOUBLING_STEPS = 2 ** 18    # symbols doubling_side compares before it gives up


def doubling_side(m) -> Optional[str]:
    """Which side of the period-doubling limit an even map lies on, by
    Milnor–Thurston monotonicity: "zero" or "positive", the entropy side.

    The critical value's float itinerary is compared, with the sign flips of
    ``signed_compare``, against the doubling-limit kneading of
    Metropolis–Stein–Stein in the map's own lap orientation.  Symbol i of
    the limit is the orientation-reversing lap exactly when the 2-adic
    valuation of i + 1 is even; equivalently its first 2^k - 1 symbols W_k
    grow by W_{k+1} = W_k x_k W_k, x_k reversing for even k.  So the orbit
    is walked in blocks that double: each must read x_k and then repeat the
    symbols already matched, and no table is kept.  The map is positive
    when its critical value lies beyond the limit's, away from the turning
    point.  None when the orbit hits 0 exactly or the first ``DOUBLING_STEPS``
    symbols all agree.
    """
    if not is_even(m):
        raise PreconditionError("doubling_side needs an even map")
    rev = orientation(m) > 0        # lap 1 (x > 0) reverses orientation
    seen = bytearray()              # x > 0 per symbol matched so far: W_k
    y = 0.0
    while len(seen) < DOUBLING_STEPS:
        n = min(len(seen) + 1, DOUBLING_STEPS - len(seen))
        block = orbit(m, y, n)
        y = block[-1]
        end = block.index(0.0) if 0.0 in block else n      # symbols before a hit of 0
        laps = bytes([v > 0.0 for v in block[:end]])
        want = (bytes([rev == (len(seen).bit_length() % 2 == 0)]) + seen)[:end]   # x_k W_k
        if laps != want:
            i = next(j for j, (a, b) in enumerate(zip(laps, want)) if a != b)
            flips = (seen + want[:i]).count(rev) % 2 == 1    # the order's sign is reversed
            return "positive" if (laps[i] != flips) == rev else "zero"
        if end < n:
            return None
        seen += laps
    return None


# ---------------------------------------------------------------------
# projection onto stunted maps
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class PsiResult:
    stunted: StuntedSawtooth
    s: tuple            # plateau right endpoints, one per turning point
    widths: tuple       # residual candidate-interval widths at this depth


def cylinders(base: SawtoothBase, word):
    """The exact cylinder of the points whose right-limit base-itinerary
    starts with the lap word ``word``, built forward one symbol at a time.

    Yields, after each of the first D symbols, (den, lo, hi): the closed
    interval [lo/den, hi/den], den = n·lam^D, of the points that follow
    those D laps and that f^D maps into the domain.  On it n·f^D(x) is
    sign·X + c in X = den·x, so a symbol costs a few int operations: cut X
    to the symbol's lap, scale by lam, cut to the domain.
    """
    n = base.e.denominator          # the laps end at ints and ±e, their intercepts are ints
    pl = base.pl
    laps = [(on_lattice(a, n), on_lattice(b, n), s, on_lattice(y - s * a, n))
            for a, b, y, s in zip(pl.xs, pl.xs[1:], pl.ys, pl.slopes)]
    ne = on_lattice(base.e, n)
    den, lo, hi, sign, c = n, -ne, ne, 1, 0

    def cut(u, v):              # the X in [lo, hi] with sign·X + c in [u, v]
        a, b = sorted((sign * (u - c), sign * (v - c)))
        return max(lo, a), min(hi, b)

    for sym in word:
        if sym < 0:
            raise ValueError("address symbol in target; pullback needs lap symbols only")
        a, b, s, o = laps[sym]
        lo, hi = cut(a, b)
        den, lo, hi = den * base.lam, lo * base.lam, hi * base.lam
        sign, c = sign if s > 0 else -sign, s * c + o
        lo, hi = cut(-ne, ne)
        if lo > hi:
            raise ValueError("target itinerary is not realizable in the base zigzag")
        yield den, lo, hi


def orientation(m) -> int:
    """+1 when the map increases on its first lap, -1 when it decreases: the
    epsilon of the base zigzag that ``psi`` projects it onto."""
    dom = domain_of(m)
    probe = dom.lo + (dom.hi - dom.lo) / 10**6
    return 1 if m(probe) > m(dom.lo) else -1


def psi(m, base: SawtoothBase, depth: int = 64) -> PsiResult:
    """Project a multimodal map onto the stunted family with the same kneading.

    For each turning point, finds the point s_i in the (i+1)-th lap of the
    base zigzag whose right-limit base-itinerary matches the map's kneading
    sequence to the given depth, then truncates the base at height S0(s_i).
    A stunted map whose kneading stays on laps is fixed by that kneading
    (Milnor–Thurston), so it projects onto itself: s_i is its plateau's
    right end, checked against the cylinder, and the width is 0.  Any
    other map, whose kneading is known only to ``depth``, gets the left end
    of the exact candidate interval and the interval's width.  The kneading
    must consist of lap symbols only.
    """
    c = turning_points_of(m)
    if len(c) != base.m:
        raise PreconditionError(
            f"map has {len(c)} turning points but the base has {base.m}")
    if orientation(m) != base.epsilon:
        raise PreconditionError("orientation mismatch between map and base")
    nu = kneading(m, depth)
    ss = []
    widths = []
    for k in range(base.m):
        seq = nu.nu[k]
        if any(s < 0 for s in seq):
            raise PreconditionError(
                f"kneading sequence {k + 1} enters a plateau; "
                "the projection needs lap symbols only")
        target = (k + 1,) + tuple(seq)
        *_, (den, lo, hi) = cylinders(base, target)
        c_lo, c_hi = Fraction(lo, den), Fraction(hi, den)
        if isinstance(m, StuntedSawtooth) and c_lo <= m.plateaus[k].hi <= c_hi:
            ss.append(m.plateaus[k].hi)
            widths.append(Fraction(0))
        else:
            ss.append(c_lo)
            widths.append(c_hi - c_lo)
    xi = [base.pl(s) if base.is_max(i) else -base.pl(s) for i, s in enumerate(ss, start=1)]
    return PsiResult(build_stunted(base, xi), tuple(ss), tuple(widths))

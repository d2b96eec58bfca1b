"""Exact Markov structure of a piecewise-linear self-map.

When every breakpoint orbit closes up, the forward closure of the breakpoints
is a finite invariant partition on whose intervals the map is affine (or
constant), and the dynamics is fully described by a transition graph whose
rows are index ranges.

The graph decides periodicity questions without iterating pieces:

* orbits through partition points are walks in a functional graph;
* every other periodic orbit avoids plateaus and corresponds to one Lyndon
  closed walk through expanding states (the least of its rotations, not a
  repeat), generated prefix by prefix by the necklace rule and solved
  exactly as a fixed point of an affine composition;
* strongly connected components, found by Gabow's path-based depth-first
  search and listed in reverse topological order, split the graph: those
  that are single cycles enumerate all such orbits; a component with a
  branching vertex certifies entropy at least log 2 / length and yields a
  non-power-of-two orbit by splicing two cycles;
* traces of the transition matrix count the points of each period.

``build_markov`` walks the closure once, evaluating each point off the
breakpoints and keeping its image; the sorted partition, the functional
graph, the rows and the affine pieces are derived from that record when
first read, so a caller that needs only the orbits (the plateau records of
``boundary``, a sweep row's samples) pays for no graph.  The closure is walked in the lattice
coordinates X = N·x of the map's ``lattice()``: for a rational stunted map
every slope is an integer, so the closure, the rows and the functional
graph are int arithmetic.  Only the spliced periodic points x = o/(1 − s),
which lie off the lattice, are ``Fraction``s; witness orbits leave
``cycle_analysis`` divided by N, in the map's own coordinates.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, product
from typing import Optional

from .errors import BudgetExhausted, MarkovBudgetError, PreconditionError
from .maps import is_exact
from .piecewise import PiecewiseLinear

SEGMENT = "segment of fixed points: a closed walk composes to the identity"


@dataclass(frozen=True)
class MarkovSystem:
    """The breakpoint closure of a map, walked once, with the partition and
    transition graph derived from it when first read."""

    pl: PiecewiseLinear           # the map in lattice coordinates, X -> N·f(X/N)
    scale: int                    # N; the partition points are N·x
    image: dict                   # closure point -> its image, from the one walk

    @property
    def size(self) -> int:
        return len(self.image) - 1

    @cached_property
    def points(self) -> tuple:
        """The sorted forward-invariant partition points."""
        return tuple(sorted(self.image))

    @cached_property
    def next_point(self) -> tuple:
        """The functional graph on partition points, as indices."""
        pts = self.points
        index = dict(zip(pts, range(len(pts))))
        return tuple(map(index.__getitem__, map(self.image.__getitem__, pts)))

    @cached_property
    def rows(self) -> tuple:
        """Per state, its successor index range [a, b); (0, 0) when constant."""
        nxt = self.next_point
        return tuple([(j, k) if j < k else (k, j) if k < j else (0, 0)
                      for j, k in zip(nxt, nxt[1:])])

    @cached_property
    def affine(self) -> tuple:
        """Per state, (slope, intercept), or None when constant."""
        pts, nxt = self.points, self.next_point
        xs, slopes = self.pl.xs, self.pl.slopes
        out = []
        for x, j, k in zip(pts, nxt, nxt[1:]):
            if j == k:
                out.append(None)
                continue
            # the state lies in one segment of the map, so this is its slope
            s = slopes[bisect_right(xs, x) - 1]
            out.append((s, pts[j] - s * x))
        return tuple(out)

    @cached_property
    def components(self) -> tuple:
        """The ``cyclic_components`` of the transition graph."""
        return tuple(cyclic_components(self.rows, self.size))


def build_markov(m, budget: int) -> MarkovSystem:
    """The forward closure of the breakpoints of an exact map m, in the
    lattice coordinates of ``m.lattice()``, or of that pair (N, L) itself: a
    breakpoint's image is its value, and each other point is evaluated once
    and its image kept.  Raises PreconditionError unless m maps its domain
    into itself, and MarkovBudgetError, naming ``orbit_budget``, past
    ``budget`` points."""
    if not (isinstance(m, tuple) or is_exact(m)):
        raise TypeError(f"{m!r} is not an exact piecewise-linear map")
    n, lat = m if isinstance(m, tuple) else m.lattice()
    if not lat.is_self_map():
        raise PreconditionError("the breakpoint closure needs a self-map")
    image = dict(zip(lat.xs, lat.ys))       # a breakpoint's image is its value
    reached = list(lat.ys)                  # points reached, evaluated when first taken
    # the breakpoints count too, so a budget below them raises at once
    while len(image) <= budget:
        if not reached:
            return MarkovSystem(lat, n, image)
        x = reached.pop()
        if x not in image:
            image[x] = y = lat(x)
            reached.append(y)
    raise MarkovBudgetError(f"not Markov within orbit_budget={budget}: "
                            f"breakpoint orbits exceed {budget} points")


def _components(rows, size):
    """The strongly connected components of the range-successor rows, by
    Gabow's path-based depth-first search: reverse topological order, each
    component from its last-reached state to its root.  ``index`` is -1 for
    an unreached state, its place on ``stack`` until it is placed in a
    component, then ``size``; ``bounds`` holds the stack places of the
    tentative roots on the search path, which an edge back into the stack
    merges.  The state v under search scans its successors from the cursor
    w up to ``end``; ``path`` keeps (v, w, end) of the states above it."""
    index = [-1] * size
    comps = []
    stack, bounds, path = [], [], []
    for root in range(size):
        if index[root] >= 0:
            continue
        # every state reached from an earlier root is placed: the stacks are empty
        v, (w, end) = root, rows[root]
        index[root] = 0
        stack.append(root)
        bounds.append(0)
        while True:
            while w < end:
                i = index[w]
                if i < 0:
                    break
                while bounds[-1] > i:
                    bounds.pop()
                w += 1
            else:
                # v is done: it closes a component when it is a root
                i = index[v]
                if bounds[-1] == i:
                    bounds.pop()
                    comp = stack[i:][::-1]
                    del stack[i:]
                    for u in comp:
                        index[u] = size
                    comps.append(comp)
                if not path:
                    break
                v, w, end = path.pop()
                continue
            path.append((v, w + 1, end))
            v = w
            index[v] = i = len(stack)
            stack.append(v)
            bounds.append(i)
            w, end = rows[v]
    return comps


@dataclass(frozen=True)
class CycleAnalysis:
    periods: frozenset             # all minimal periods when no component branches
    witness_orbit: Optional[tuple]


def cyclic_components(rows, size):
    """Strongly connected components with an internal edge, in the order of
    ``_components`` (reverse topological, each from its last-reached state to
    its root), each as (states, {state: its in-component successors,
    ascending}).  A component branches (``branches``) unless every state has
    exactly one successor."""
    for scc in _components(rows, size):
        if len(scc) == 1:           # most states: cyclic only by a loop
            v = scc[0]
            if rows[v][0] <= v < rows[v][1]:
                yield scc, {v: [v]}
            continue
        order = sorted(scc)         # a state's successors: the members within its row
        yield scc, {v: order[bisect_left(order, rows[v][0]):bisect_left(order, rows[v][1])]
                    for v in scc}


def branches(succ) -> bool:
    """Whether a cyclic component, given by its successors ``succ``, branches:
    some state has two in-component successors, so its spectral radius
    exceeds 1 and the map's entropy is positive (each state has one at
    least, so the successors then outnumber the states)."""
    return sum(map(len, succ.values())) > len(succ)


def component_spans(scc, succ):
    """A component's states ascending, and per state its in-component
    successors as the run [i, j) of positions they fill in that order."""
    order = sorted(scc)
    pos = {v: i for i, v in enumerate(order)}
    return order, [(pos[succ[v][0]], pos[succ[v][-1]] + 1) for v in order]


def _cycle_orbit(system: MarkovSystem, states, comp=None):
    """Exact periodic point tracing the given closed state walk, or None.

    The point X = o/(1 - s) of the walk's composed affine map (``comp``, if
    given) lies off the lattice; its orbit is walked by the states' affine
    maps as numerators P over one denominator q > 0, X = P/q, and returned
    as (numerators, q), cut at its first return: one period.
    """
    affine = [system.affine[st] for st in states]
    if None in affine:
        return None
    if comp is None:
        comp = 1, 0
        for a, b in affine:
            comp = a * comp[0], a * comp[1] + b
    s, o = comp
    if s == 1:
        return None
    q, p0 = (1 - s, o) if s < 1 else (s - 1, -o)
    pts, p, orbit = system.points, p0, []
    for st, (a, b) in zip(states, affine):
        if not pts[st] * q <= p <= pts[st + 1] * q:
            return None
        orbit.append(p)
        p = a * p + b * q
    if p != p0:
        return None
    orbit.append(p)
    return orbit[:orbit.index(p, 1)], q


def point_cycles(system: MarkovSystem):
    """The cycles of the functional graph on partition points, in orbit order."""
    nxt, walk, cycles = system.next_point, [0] * len(system.next_point), []
    for start in range(1, len(nxt) + 1):
        v = start - 1
        while not walk[v]:          # mark this walk's points until one is seen
            walk[v], v = start, nxt[v]
        if walk[v] == start:        # seen on this walk: a fresh cycle through v
            cyc = [v]
            while nxt[cyc[-1]] != v:
                cyc.append(nxt[cyc[-1]])
            cycles.append(cyc)
    return cycles


def _germ(system: MarkovSystem, k, side):
    """The germ of partition point k on side +1 (right) or -1 (left) under T,
    T^2, ...: per step its point, side and slope, until a constant state."""
    slope = 1
    while 0 <= (st := k if side > 0 else k - 1) < system.size and system.affine[st]:
        a = system.affine[st][0]
        slope *= a
        k, side = system.next_point[k], side if a > 0 else -side
        yield k, side, slope


def periodic_point_counts(system: MarkovSystem, bound: int):
    """The numbers of points of minimal period p = 1..bound, in ints.

    A closed walk of length p through non-constant states maps a piece of
    its first state onto that state: one fixed point of T^p (a segment, and
    ValueError, at slope +1).  So #Fix(T^p) is tr(A^p), less the walks of
    germs that come back to a partition point on their own side, plus the
    partition points T^p fixes."""
    fix = [0] * (bound + 1)
    for scc, succ in system.components:
        if not branches(succ):
            # a simple cycle of length n adds its n walks at each multiple of n
            n, s = len(scc), math.prod(system.affine[v][0] for v in scc)
            if s * s == 1 and (n if s == 1 else 2 * n) <= bound:
                raise ValueError(SEGMENT)
            for p in range(n, bound + 1, n):
                fix[p] += n
            continue
        # the diagonal of A^p, row by row: one difference array per step
        order, spans = component_spans(scc, succ)
        for v in range(len(order)):
            row = [int(w == v) for w in range(len(order))]
            for p in range(1, bound + 1):
                diff = [0] * (len(order) + 1)
                for c, (a, b) in zip(row, spans):
                    diff[a] += c
                    diff[b] -= c
                row = list(accumulate(diff[:-1]))
                fix[p] += row[v]
    for cyc in point_cycles(system):
        for p in range(len(cyc), bound + 1, len(cyc)):
            fix[p] += len(cyc)
        for k, side in product(cyc, (-1, 1)):
            for p, (_, back, _) in enumerate(islice(_germ(system, k, side), bound), 1):
                if p % len(cyc) == 0 and back == side:
                    fix[p] -= 1
    counts = []
    for p in range(1, bound + 1):
        counts.append(fix[p] - sum(counts[d - 1] for d in range(1, p) if p % d == 0))
        assert counts[-1] % p == 0, f"{counts[-1]} points of minimal period {p}"
    return counts


def periodic_orbits(system: MarkovSystem, p: int, budget: int):
    """The orbits of minimal period p as (numerators, q, slope): points
    X = P/q from the least, and the slope of T^p there (at a partition
    point, on its left unless that is 0 or absent).  Besides the p-cycles of
    partition points, each orbit is one Lyndon closed walk, the least of its
    rotations and not a repeat.  A depth-first search per component makes
    them by the necklace rule of Fredricksen, Kessler and Maiorana: a prefix
    is extended only by states >= the one ``run`` places back, ``run`` the
    length of its longest Lyndon prefix, so each walk is reached once.  A
    Lyndon walk off the partition points has minimal period p; a closed walk
    with run < p dividing p repeats a shorter one and is only checked for
    slope 1.  Raises BudgetExhausted, naming ``piece_budget``, past
    ``budget`` kept prefix extensions."""
    pts, rows, affine = system.points, system.rows, system.affine
    out = []
    for cyc in point_cycles(system):
        if len(cyc) == p:
            i = cyc.index(min(cyc))
            left, right = (next(islice(_germ(system, cyc[i], side), p - 1, None), (0, 0, 0))[2]
                           for side in (-1, 1))
            out.append(([pts[k] for k in cyc[i:] + cyc[:i]], 1, left or right))
    steps, path = 0, [None] * p
    for scc, succ in system.components:
        moves = {w: [(u, *affine[u]) for u in ws] for w, ws in succ.items()}
        for v in scc:
            stack = [(1, 1, v, *affine[v])]   # (length, run, last state, T^length on it)
            while stack:
                k, run, w, s, o = stack.pop()
                path[k - 1] = w
                if k < p:
                    least = path[k - run]
                    ext = moves[w][bisect_left(succ[w], least):]
                    steps += len(ext)
                    if steps > budget:
                        raise BudgetExhausted(f"closed-walk budget exceeded: more than "
                                              f"piece_budget={budget} walk steps at period p={p}")
                    stack += [(k + 1, run if u == least else k + 1, u, a * s, a * o + b)
                              for u, a, b in ext]
                elif p % run == 0 and rows[w][0] <= v < rows[w][1]:
                    if s == 1:
                        raise ValueError(SEGMENT)
                    if run < p:
                        continue
                    orbit, q = _cycle_orbit(system, path, (s, o))
                    if orbit[0] not in (pts[v] * q, pts[v + 1] * q):
                        i = orbit.index(min(orbit))
                        out.append((orbit[i:] + orbit[:i], q, s))
    return out


def cycle_analysis(system: MarkovSystem) -> CycleAnalysis:
    """Period structure from the transition graph, in lattice coordinates.

    If every strongly connected component is a single cycle, the returned
    period set is the complete set of minimal periods of the map.  Otherwise
    a component branches, and splicing two of its cycles produces an exact
    periodic orbit whose minimal period is not a power of two; the witness
    orbit is returned in the map's own coordinates.  Cycles of partition
    points only add their periods: on a stunted map they are plateau cycles,
    which ``boundary.decide_exact`` witnesses before it reads the graph, or
    the cycle of ±e, of period 1 or 2.
    """
    periods = {len(cyc) for cyc in point_cycles(system)}
    witness = None                 # (numerators, q): the orbit X = P/q
    for scc, succ in system.components:
        if not branches(succ):
            # follow the unique in-component successor around the cycle
            cyc = [scc[0]]
            v = succ[scc[0]][0]
            while v != scc[0]:
                cyc.append(v)
                v = succ[v][0]
            traced = _cycle_orbit(system, cyc)
            if traced is not None:
                periods.add(len(traced[0]))
            continue
        # branching component: two distinct cycles through branch_vertex
        if witness is not None:
            continue
        branch_vertex = next(v for v in scc if len(succ[v]) > 1)
        u1, u2 = succ[branch_vertex][:2]
        w1 = _cycle_through(succ, branch_vertex, u1)
        w2 = _cycle_through(succ, branch_vertex, u2)
        for a, b in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3)):
            traced = _cycle_orbit(system, w1 * a + w2 * b)
            if traced is not None and len(traced[0]) & (len(traced[0]) - 1):
                witness = traced   # its period is not a power of two
                break
    if witness is None:
        return CycleAnalysis(frozenset(periods), None)
    orbit, q = witness
    return CycleAnalysis(frozenset(periods), tuple(Fraction(p, q * system.scale) for p in orbit))


def _cycle_through(succ, v, first):
    """Closed walk [v, first, ..., u] with an edge u -> v, inside the
    component: v's strongly connected component, so the search reaches v."""
    from collections import deque
    if first == v:
        return [v]
    parent = {first: None}
    dq = deque([first])
    while dq:
        w = dq.popleft()
        for nx in succ[w]:
            if nx == v:
                path = []
                cur = w
                while cur is not None:
                    path.append(cur)
                    cur = parent[cur]
                path.reverse()
                return [v] + path
            if nx not in parent:
                parent[nx] = w
                dq.append(nx)

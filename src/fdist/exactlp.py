"""Exact solvers on integers.

``maximize`` solves  max c.x  subject to  A x = b, x >= 0  by the
two-phase dense-tableau method with Bland's rule (anti-cycling); it serves
``linear_combination``. Each row of ``[A | b]`` is scaled to integers by
its own lcm, and every pivot is Bareiss's fraction-free update: all
entries stay integers over one common denominator, the previous pivot,
which divides each updated entry exactly (Edmonds 1967; Bareiss 1968).

``min_cost_flow`` solves transportation problems over a sparse edge list
by the primal-dual method (Ahuja, Magnanti and Orlin, *Network Flows*,
ch. 9): a maximum flow is pushed through the arcs of reduced cost zero
under node potentials, Dinic-style, and then one Dijkstra over reduced
costs (Tomizawa 1971; Edmonds-Karp 1972) raises the potentials for the
next round. The first potentials are shortest distances in the
three-layer graph (source, supplies, demands, sink), so the first round
needs no Dijkstra, and a flow that fills every supply or demand stops. Edge
costs are integer tuples compared lexicographically, so one flow
optimizes several objectives in order; each tuple is encoded as one
integer in a base wider than any simple path's cost difference in one
coordinate, which keeps that order. Empty costs give a plain maximum flow.

Supplies, demands and flows are integers: callers put masses on one
scale first (mass.masses_under_lcm), with no bound on its size. The simplex
turns its integers back into Fractions only at the end, so results are
exact and bit-stable.
"""

from fractions import Fraction
from heapq import heappop, heappush
from math import lcm
from typing import Optional, Sequence

from .intervals import ZERO


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _pivot(tableau, basis, d, row, col):
    """Bareiss step on the pivot (row, col) of a tableau whose true entries
    are its integers over d > 0; returns the new denominator, the pivot.
    A negative pivot row is negated first, so the denominator stays
    positive and every sign test reads the integers directly."""
    line = tableau[row]
    p = line[col]
    if p < 0:
        line = tableau[row] = [-v for v in line]
        p = -p
    for r, other in enumerate(tableau):
        if r != row:
            f = other[col]
            if f:
                tableau[r] = [(p * v - f * w) // d for v, w in zip(other, line)]
            elif p != d:
                tableau[r] = [p * v // d for v in other]
    basis[row] = col
    return p


def _simplex(tableau, basis, d, ncols):
    """Maximize over a tableau whose last row holds the reduced costs and
    minus the objective value; returns the final denominator. Bland's rule
    enters the lowest column with positive reduced cost and leaves by the
    least ratio, compared by cross-multiplication, ties to the lowest
    basic variable."""
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return d
        row = None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                rhs = tableau[r][-1]
                # rhs / a against the least ratio so far, top / bottom
                if row is None or (rhs * bottom, basis[r]) < (top * a, basis[row]):
                    row, top, bottom = r, rhs, a
        if row is None:
            raise Unbounded("objective unbounded above")
        d = _pivot(tableau, basis, d, row, col)


def _scaled(values, sign=1):
    """The values times the lcm of their denominators (and sign), as ints,
    with that positive lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (sign * scale // v.denominator) for v in values], scale


def maximize(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> tuple:
    """Return (optimal value, solution vector) or raise Infeasible/Unbounded."""
    n = len(c)
    m = len(A)
    # phase 1 tableau: [A | I | b] with artificial basis, rows flipped so
    # b >= 0 and scaled to integers. The scaling multiplies each basic
    # artificial by its row's lcm; weighting it by the inverse in the
    # phase 1 objective keeps every reduced cost's sign, every ratio's
    # order and so every pivot of the unscaled tableau.
    tableau, scales = [], []
    for i in range(m):
        line, scale = _scaled([*A[i], b[i]], -1 if b[i] < 0 else 1)
        tableau.append(line[:-1] + [int(j == i) for j in range(m)] + line[-1:])
        scales.append(scale)
    basis = [n + i for i in range(m)]
    # phase 1 maximizes minus the sum of the artificials, each weighted by
    # weight // its row's scale: the reduced costs are the weighted sum of
    # the rows, zero on the basic artificials
    weight = lcm(*scales)
    obj = [0] * (n + m + 1)
    for line, scale in zip(tableau, scales):
        obj = [v + weight // scale * w for v, w in zip(obj, line)]
    obj[n:n + m] = [0] * m
    tableau.append(obj)
    d = _simplex(tableau, basis, 1, n + m)
    if tableau.pop()[-1] > 0:
        raise Infeasible("no feasible point")

    # drive remaining artificials out of the basis, drop redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j]), None)
            if col is None:
                continue  # redundant constraint
            d = _pivot(tableau, basis, d, r, col)
        keep.append(r)
    tableau = [tableau[r][:n] + tableau[r][-1:] for r in keep]
    basis = [basis[r] for r in keep]

    cost, scale = _scaled(c)
    obj = [d * v for v in cost] + [0]
    for line, var in zip(tableau, basis):
        cb = cost[var]
        if cb:
            obj = [v - cb * w for v, w in zip(obj, line)]
    tableau.append(obj)
    d = _simplex(tableau, basis, d, n)
    x = [ZERO] * n
    for line, var in zip(tableau, basis):
        x[var] = Fraction(line[-1], d)
    return Fraction(-tableau[-1][-1], d * scale), x


def feasible(A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[list]:
    """A solution of A x = b, x >= 0, or None."""
    n = len(A[0]) if A else 0
    try:
        _, x = maximize([ZERO] * n, A, b)
    except Infeasible:
        return None
    return x


def min_cost_flow(
    supply: Sequence[int],
    demand: Sequence[int],
    edges: Sequence[tuple],
    costs: Sequence[tuple],
) -> list:
    """Integer flow on each (i, j) edge from supply i to demand j, all
    capacities integers on one scale: a maximum flow (no supply or demand
    exceeded) whose summed cost tuple is lexicographically least. The flow
    falls short of the total supply exactly when no routing meets every
    supply and demand."""
    ns = len(supply)
    source = ns + len(demand)
    sink = source + 1
    nodes = sink + 1
    # A simple path or cycle has at most `nodes` arcs, so a coordinate of
    # its cost, or of the difference of two such costs, stays below base
    # in size, and comparing the encoded integers compares the tuples.
    base = 2 * max((abs(v) for c in costs for v in c), default=0) * nodes + 1

    def encode(c):
        code = 0
        for v in c:
            code = code * base + v
        return code

    total = sum(supply)
    arcs = [(source, i, room, 0) for i, room in enumerate(supply)]
    arcs += [(ns + j, sink, room, 0) for j, room in enumerate(demand)]
    first = 2 * len(arcs)
    arcs += [(i, ns + j, total, encode(c)) for (i, j), c in zip(edges, costs)]
    # residual arcs in pairs: arc k runs to head[k], arc k ^ 1 is its reverse
    head, cap, cost, out = [], [], [], [[] for _ in range(nodes)]
    for u, v, room, w in arcs:
        out[u].append(len(head))
        out[v].append(len(head) + 1)
        head += v, u
        cap += room, 0
        cost += w, -w
    # first potentials: shortest distances over the three-layer DAG, so
    # the first admissible flow needs no Dijkstra
    pot = [0] * nodes
    low = {}
    for _, v, _, w in arcs[first // 2:]:
        low[v] = min(low.get(v, w), w)
    for v, w in low.items():
        pot[v] = w
    pot[sink] = min(low.values(), default=0)

    # a flow that fills every supply or every demand is a maximum flow
    left = min(total, sum(demand))
    while True:
        left -= _admissible_max_flow(source, sink, head, cap, cost, out, pot)
        if not left:
            break
        # Dijkstra over reduced costs, stopped once the sink is settled
        dist = [None] * nodes
        dist[source] = 0
        settled = [False] * nodes
        heap = [(0, source)]
        while heap:
            du, u = heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            if u == sink:
                break
            reach = du + pot[u]
            for k in out[u]:
                if cap[k]:
                    v = head[k]
                    dv = reach + cost[k] - pot[v]
                    if dist[v] is None or dv < dist[v]:
                        dist[v] = dv
                        heappush(heap, (dv, v))
        if not settled[sink]:
            break
        # every reduced cost stays >= 0 and each shortest path's drops to 0
        top = dist[sink]
        for v in range(nodes):
            pot[v] += dist[v] if settled[v] else top
    return [cap[k + 1] for k in range(first, len(head), 2)]


def _admissible_max_flow(source, sink, head, cap, cost, out, pot):
    """Dinic's maximum flow restricted to the admissible arcs (residual
    room, reduced cost 0): a breadth-first level graph, then a blocking
    flow found by an iterative depth-first walk with a current-arc pointer
    per node, until no admissible path reaches the sink. Returns the
    amount pushed."""
    nodes = len(out)
    pushed = 0
    while True:
        level = [None] * nodes
        level[source] = 0
        frontier = [source]
        while frontier and level[sink] is None:
            nxt = []
            for u in frontier:
                pu, lv = pot[u], level[u] + 1
                for k in out[u]:
                    v = head[k]
                    if cap[k] and level[v] is None and cost[k] + pu == pot[v]:
                        level[v] = lv
                        nxt.append(v)
            frontier = nxt
        if level[sink] is None:
            return pushed
        cursor = [0] * nodes
        path, u = [], source
        while True:
            if u == sink:
                push = min(cap[k] for k in path)
                pushed += push
                for k in path:
                    cap[k] -= push
                    cap[k ^ 1] += push
                # retreat to the tail of the first arc the push saturated
                del path[next(i for i, k in enumerate(path) if not cap[k]):]
                u = head[path[-1]] if path else source
                continue
            arcs, i, pu, lv = out[u], cursor[u], pot[u], level[u] + 1
            end = len(arcs)
            while i < end:
                k = arcs[i]
                if cap[k] and level[head[k]] == lv and cost[k] + pu == pot[head[k]]:
                    break
                i += 1
            cursor[u] = i
            if i < end:
                path.append(arcs[i])
                u = head[arcs[i]]
            elif u == source:
                break
            else:
                level[u] = None  # dead end for the rest of this phase
                u = head[path.pop() ^ 1]
                cursor[u] += 1

"""Exact solvers over Fractions.

``maximize`` solves  max c.x  subject to  A x = b, x >= 0  by the textbook
two-phase dense-tableau method with Bland's rule (anti-cycling); it serves
``linear_combination``. ``min_cost_flow`` solves transportation problems
over a sparse edge list by successive shortest paths (Busacker-Gowen),
each found by Bellman-Ford with a queue. Edge costs are integer tuples
compared lexicographically, so one flow optimizes several objectives in
order; ties go to the path with the fewest edges (Edmonds-Karp), and empty
costs give a plain maximum flow. All arithmetic is exact, so results are
bit-stable.
"""

from collections import deque
from fractions import Fraction
from math import lcm
from operator import add
from typing import Optional, Sequence

from .intervals import ONE, ZERO


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [v - factor * w for v, w in zip(line, tableau[row])]
    basis[row] = col


def _simplex(tableau, basis, cost, ncols):
    """Maximize over the current tableau; cost is the full objective row.
    Returns the optimal value."""
    m = len(tableau)
    # reduced costs: z_j = c_j - c_B . column_j, objective value in obj[-1]
    obj = list(cost) + [ZERO]
    for r in range(m):
        cb = cost[basis[r]]
        if cb != 0:
            obj = [v - cb * w for v, w in zip(obj, tableau[r])]
    while True:
        col = next((j for j in range(ncols) if obj[j] > 0), None)
        if col is None:
            return -obj[-1]
        row = None
        best = None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row is None:
            raise Unbounded("objective unbounded above")
        _pivot(tableau, basis, row, col)
        factor = obj[col]
        if factor != 0:
            obj = [v - factor * w for v, w in zip(obj, tableau[row])]


def maximize(
    c: Sequence[Fraction],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> tuple:
    """Return (optimal value, solution vector) or raise Infeasible/Unbounded."""
    n = len(c)
    m = len(A)
    # phase 1 tableau: [A | I | b] with artificial basis, rows flipped so b >= 0
    tableau = []
    for i in range(m):
        row = list(A[i])
        rhs = b[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [ONE if j == i else ZERO for j in range(m)]
        tableau.append(row + art + [rhs])
    basis = [n + i for i in range(m)]
    phase1_cost = [ZERO] * n + [-ONE] * m
    if _simplex(tableau, basis, phase1_cost, n + m) < 0:
        raise Infeasible("no feasible point")

    # drive remaining artificials out of the basis, drop redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is None:
                continue  # redundant constraint
            _pivot(tableau, basis, r, col)
        keep.append(r)
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]

    value = _simplex(tableau, basis, c, n)
    x = [ZERO] * n
    for r, var in enumerate(basis):
        x[var] = tableau[r][-1]
    return value, x


def feasible(
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    nvars: Optional[int] = None,
) -> Optional[list]:
    """A solution of A x = b, x >= 0, or None."""
    n = nvars if nvars is not None else (len(A[0]) if A else 0)
    try:
        _, x = maximize([ZERO] * n, A, b)
    except Infeasible:
        return None
    return x


def min_cost_flow(
    supply: Sequence[Fraction],
    demand: Sequence[Fraction],
    edges: Sequence[tuple],
    costs: Sequence[tuple],
) -> list:
    """Flow on each (i, j) edge from supply i to demand j: a maximum flow
    (no supply or demand exceeded) whose summed cost tuple is
    lexicographically least. The flow falls short of the total supply
    exactly when no routing meets every supply and demand."""
    source, sink = len(supply) + len(demand), len(supply) + len(demand) + 1
    zero = (0,) * len(costs[0]) if costs else ()
    # integer capacities over one common denominator keep every step exact
    scale = lcm(*(x.denominator for x in (*supply, *demand)))
    # residual arcs in pairs: arc k runs to head[k], arc k ^ 1 is its reverse
    head, cap, cost, out = [], [], [], [[] for _ in range(sink + 1)]

    def arc(u, v, capacity, c):
        for a, b, room, w in ((u, v, capacity, c), (v, u, 0, tuple(-x for x in c))):
            out[a].append(len(head))
            head.append(b)
            cap.append(room)
            cost.append(w)

    for i, s in enumerate(supply):
        arc(source, i, int(s * scale), zero)
    for j, d in enumerate(demand):
        arc(len(supply) + j, sink, int(d * scale), zero)
    total = int(sum(supply, ZERO) * scale)
    first = len(head)
    for (i, j), c in zip(edges, costs):
        arc(i, len(supply) + j, total, c)

    while True:
        # shortest path by (cost, edge count); no residual cycle is negative
        dist, via, queue = {source: (zero, 0)}, {}, deque([source])
        while queue:
            u = queue.popleft()
            du, hops = dist[u]
            for k in out[u]:
                if cap[k]:
                    v = head[k]
                    d = (tuple(map(add, du, cost[k])), hops + 1)
                    if v not in dist or d < dist[v]:
                        dist[v], via[v] = d, k
                        queue.append(v)
        if sink not in dist:
            return [Fraction(cap[k + 1], scale) for k in range(first, len(head), 2)]
        path, v = [], sink
        while v != source:
            path.append(via[v])
            v = head[via[v] ^ 1]
        push = min(cap[k] for k in path)
        for k in path:
            cap[k] -= push
            cap[k ^ 1] += push

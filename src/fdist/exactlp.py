"""Tiny exact simplex solver over Fractions.

Solves  max c.x  subject to  A x = b, x >= 0  by the textbook two-phase
dense-tableau method with Bland's rule (anti-cycling). Everything stays
in exact rational arithmetic, so results on desk-scale problems are
bit-stable. Dimensions here are a handful of variables and constraints;
no effort is spent on sparsity or scale.
"""

from fractions import Fraction
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
    """Maximize over the current tableau; cost is the full objective row."""
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
    value = _simplex(tableau, basis, phase1_cost, n + m)
    if value < 0:
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

    phase2_cost = list(c)
    value = _simplex(tableau, basis, phase2_cost, n)
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


def lex_maximize(
    objectives: Sequence[Sequence[Fraction]],
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> tuple:
    """Lexicographic maximization: optimize objectives in order, pinning
    each optimum as an equality before moving to the next. Returns
    (list of optimal values, a solution attaining them)."""
    rows = [list(r) for r in A]
    rhs = list(b)
    values = []
    x = None
    for obj in objectives:
        value, x = maximize(obj, rows, rhs)
        values.append(value)
        rows.append(list(obj))
        rhs.append(value)
    return values, x

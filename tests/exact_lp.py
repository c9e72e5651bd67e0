"""Exact-arithmetic oracle for the minmax analysis of a matrix game.

Standard library only, sharing no code with the library's HiGHS path: a
two-phase simplex with Bland's rule over `fractions.Fraction`. For a payoff
matrix A (n x m) the minmax polytope is P = {x on the simplex : x'A >= v},
v = Val(A). `exact_value` solves the value LP, and `exact_k` counts the
columns j whose maximum of x'Ae_j over P equals v: the columns that are best
responses at every minmax x, which a point in P's relative interior has and
no more.
"""

from fractions import Fraction


def _pivot(tab, basis, r, c):
    row = [v / tab[r][c] for v in tab[r]]
    tab[r] = row
    for i, other in enumerate(tab):
        if i != r and other[c]:
            f = other[c]
            tab[i] = [u - f * w for u, w in zip(other, row)]
    basis[r] = c


def _simplex(tab, basis, cost, columns):
    """Maximise cost'y over the tableau in place, entering only `columns`."""
    while True:
        reduced = [cost[j] - sum(cost[b] * row[j] for b, row in zip(basis, tab)) for j in columns]
        enter = next((j for j, d in zip(columns, reduced) if d > 0), None)
        if enter is None:
            return sum(cost[b] * row[-1] for b, row in zip(basis, tab))
        rows = [i for i, row in enumerate(tab) if row[enter] > 0]
        if not rows:
            raise ArithmeticError("unbounded LP")
        r = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
        _pivot(tab, basis, r, enter)


def maximize(cost, rows, rhs):
    """max cost'y subject to rows @ y = rhs and y >= 0, exactly; returns the optimum."""
    width = len(cost)
    tab = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        sign = -1 if b < 0 else 1
        artificial = [Fraction(int(k == i)) for k in range(len(rows))]
        tab.append([Fraction(sign * v) for v in row] + artificial + [Fraction(sign * b)])
    basis = [width + i for i in range(len(rows))]
    phase1 = [Fraction(0)] * width + [Fraction(-1)] * len(rows)
    if _simplex(tab, basis, phase1, range(width + len(rows))) < 0:
        raise ArithmeticError("infeasible LP")
    for r in reversed(range(len(tab))):  # drive zero artificials out, or drop redundant rows
        if basis[r] >= width:
            c = next((j for j in range(width) if tab[r][j]), None)
            if c is None:
                del tab[r], basis[r]
            else:
                _pivot(tab, basis, r, c)
    return _simplex(tab, basis, [Fraction(v) for v in cost] + [Fraction(0)] * len(rows), range(width))


def _polytope_rows(a, shift):
    """Rows of sum_i (a_ij + shift) x_i - v - s_j = 0 and sum_i x_i = 1 over (x, v, s)."""
    n, m = len(a), len(a[0])
    rows = [[a[i][j] + shift for i in range(n)] + [-1] + [-int(k == j) for k in range(m)]
            for j in range(m)]
    rows.append([1] * n + [0] * (m + 1))
    return rows


def exact_value(a) -> Fraction:
    """Val(A) of a matrix of exact numbers (ints or Fractions)."""
    a = [[Fraction(v) for v in row] for row in a]
    shift = 1 - min(min(row) for row in a)  # makes the shifted value positive, so v >= 0
    n, m = len(a), len(a[0])
    cost = [0] * n + [1] + [0] * m
    return maximize(cost, _polytope_rows(a, shift), [0] * m + [1]) - shift


def exact_k(a, value=None) -> int:
    """The number of columns tight on the whole minmax polytope of A."""
    a = [[Fraction(v) for v in row] for row in a]
    value = exact_value(a) if value is None else Fraction(value)
    n, m = len(a), len(a[0])
    rows = _polytope_rows(a, 0)
    for row in rows[:m]:  # pin v: move its column to the right-hand side
        row[n] = 0
    rhs = [value] * m + [1]
    k = 0
    for j in range(m):
        slack = [0] * (n + 1) + [int(i == j) for i in range(m)]
        k += maximize(slack, rows, rhs) == 0
    return k

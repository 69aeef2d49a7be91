"""Independent brute-force oracles used across the test suite.

Everything here is written from first principles with Fractions and
double loops, deliberately sharing no code with the package: the package
works in doubled integer coordinates, the oracles in literal rational
pivot coordinates.
"""

from fractions import Fraction

KNIGHT_DELTAS = [(-2, -1), (-2, 1), (-1, -2), (-1, 2), (1, -2), (1, 2), (2, -1), (2, 1)]


def board_cells(n):
    cells = [(i, j) for i in range(n) for j in range(n)]
    if n % 2 == 1:
        cells.remove(((n - 1) // 2, (n - 1) // 2))
    return cells


def ccw_oracle(n, u, v):
    p = Fraction(n - 1, 2)
    return (u[0] - p) * (v[1] - p) > (v[0] - p) * (u[1] - p)


def ray_cross_oracle(n, u, v, ray):
    """Open-segment vs open-axis-ray intersection, by rational interpolation.

    On odd boards a tail sitting on the north ray counts as a crossing
    (half-open convention); heads never do.
    """
    p = q = Fraction(n - 1, 2)
    if ray in ("north", "south"):
        if n % 2 == 1 and u[1] == q:
            return ray == "north" and u[0] < p
        if (u[1] - q) * (v[1] - q) >= 0:
            return False
        t = (q - u[1]) / (v[1] - u[1])
        height = u[0] + t * (v[0] - u[0])
        return height < p if ray == "north" else height > p
    if (u[0] - p) * (v[0] - p) >= 0:
        return False
    t = (p - u[0]) / (v[0] - u[0])
    col = u[1] + t * (v[1] - u[1])
    return col < q if ray == "west" else col > q


def weight_oracle(n, u, v):
    return 1 if ray_cross_oracle(n, u, v, "north") else 0


def arcs_oracle(n):
    """All CCW knight arcs by double-loop over ordered cell pairs."""
    cells = board_cells(n)
    members = set(cells)
    out = []
    for u in cells:
        for v in cells:
            if (u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 == 5 and ccw_oracle(n, u, v):
                out.append((u, v))
    assert all(u in members and v in members for u, v in out)
    return out


def step_arcs_oracle(n):
    """Every arc as (tail, head, w) in build order, one candidate per (cell, knight step).

    Tails go row-major, each tail's steps in KNIGHT_DELTAS order; a step is
    kept when its head is a cell and the pair is CCW.  Vertex indices are
    positions in board_cells(n).
    """
    cells = board_cells(n)
    index = {c: k for k, c in enumerate(cells)}
    out = []
    for u in cells:
        for di, dj in KNIGHT_DELTAS:
            v = (u[0] + di, u[1] + dj)
            if v in index and ccw_oracle(n, u, v):
                out.append((index[u], index[v], weight_oracle(n, u, v)))
    return out


def interval_oracle(n):
    """Extreme coil counts via scipy's assignment solver (the independent route)."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    cells = board_cells(n)
    idx = {c: k for k, c in enumerate(cells)}
    big = 1 << 30
    w = np.full((len(cells), len(cells)), big, dtype=np.int64)
    for u, v in arcs_oracle(n):
        w[idx[u], idx[v]] = weight_oracle(n, u, v)
    rows, cols = linear_sum_assignment(w)
    lo = int(w[rows, cols].sum())
    assert lo < big
    rows, cols = linear_sum_assignment(np.where(w >= big, big, -w))
    assert int(w[rows, cols].max()) < big
    hi = int(w[rows, cols].sum())
    return lo, hi


def lp_rows_oracle(n, weighted_steps, c):
    """Does an assignment meet every row of the cycle-cover LP at coil c?

    weighted_steps holds one ((tail cell, head cell, w), value) pair per arc
    with a value; arcs left out are 0.  Each value must lie in [0, 1], every
    cell of the board must have in- and out-sum 1, and the w-weighted sum
    must equal c, all summed in plain Fractions.
    """
    into = {v: Fraction(0) for v in board_cells(n)}
    out = dict(into)
    coil = Fraction(0)
    for (tail, head, w), value in weighted_steps:
        value = Fraction(value)
        if not 0 <= value <= 1:
            return False
        into[head] += value
        out[tail] += value
        coil += w * value
    return all(s == 1 for s in into.values()) and all(s == 1 for s in out.values()) and coil == c


def tour_coils_oracle(nv, arcs):
    """Coils of every Hamiltonian cycle through vertex 0 of a digraph on vertices 0..nv-1.

    arcs lists (tail, head, w) in arc-id order.  Each step counts the w of
    the first arc listed for its (tail, head) pair.  Paths from vertex 0 are
    grown one unvisited head at a time, and each full one is closed back to 0.
    """
    first = {}
    for t, h, w in arcs:
        first.setdefault((t, h), w)
    coils = set()

    def grow(path, coil):
        if len(path) == nv:
            if (path[-1], 0) in first:
                coils.add(coil + first[path[-1], 0])
            return
        for (t, h), w in first.items():
            if t == path[-1] and h not in path:
                grow(path + [h], coil + w)

    grow([0], 0)
    return coils

"""Sparse reference elimination for the tests: kernel dimensions and
nullspaces of systems of sparse rows (dicts column -> coefficient), built on
the pivots of ``linalg.echelon_pivots``, the rows of ad x on a module of
sparse matrices, and the exact ranks of the truncated powers of e.  The
oracle reads its kernels off the chains of e, and counts those ranks; the
tests check them against these."""

from math import lcm

from nilcomm import linalg


def kernel_dim(rows, ncols: int) -> int:
    return ncols - linalg.rank(rows)


def reduced(pivots):
    """Integer reduced echelon form of the rows of ``echelon_pivots``: pivot
    column -> primitive integer row that is zero in every other pivot column,
    in increasing column order."""
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        for c2, other in pivots.items():
            if c2 < c and c in other:
                pivots[c2] = linalg._combine(other, row, c)
    return {c: pivots[c] for c in cols}


def nullspace(rows, ncols: int):
    """Basis of the right kernel, one sparse vector per free column f in
    increasing order, scaled to coprime integers with a positive entry at f."""
    pivots = reduced(linalg.echelon_pivots(rows))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        hits = [(c, row) for c, row in pivots.items() if f in row]
        scale = lcm(*(row[c] for c, row in hits))
        vec = {f: scale}
        for c, row in hits:
            vec[c] = -row[f] * (scale // row[c])
        basis.append(linalg._primitive(vec))
    return basis


def bracket_rows(x: dict, module: list[dict]) -> list[dict]:
    """Rows of the linear map c -> [x, sum_k c_k module[k]] on sparse
    matrices {(r, c): value}, one row per matrix position."""
    eqs: dict[tuple[int, int], dict[int, int]] = {}
    for k, b in enumerate(module):
        comm: dict[tuple[int, int], int] = {}
        for (r, c), v in b.items():
            for (i, j), xv in x.items():
                if j == r:
                    comm[i, c] = comm.get((i, c), 0) + xv * v
                if i == c:
                    comm[r, j] = comm.get((r, j), 0) - v * xv
        for pos, v in comm.items():
            if v:
                eqs.setdefault(pos, {})[k] = v
    return [eqs[pos] for pos in sorted(eqs)]


def truncation_ranks(e: dict, d, n: int) -> tuple[int, ...]:
    """rank(P_a e^k) then rank(P_b e^k), or rank(e^k) without D, for k = 0
    .. n-1, by exact elimination of the rows of the sparse powers of e."""
    power, ranks = {(k, k): 1 for k in range(n)}, []
    for _k in range(n):
        for sign in (None,) if d is None else (1, -1):
            rows: dict[int, dict] = {}
            for (r, c), v in power.items():
                if sign is None or d[r, r] == sign:
                    rows.setdefault(r, {})[c] = v
            ranks.append(linalg.rank(list(rows.values())))
        step: dict[tuple[int, int], int] = {}
        for (r, k), v in e.items():
            for (k2, c), w in power.items():
                if k2 == k:
                    step[r, c] = step.get((r, c), 0) + v * w
        power = {pos: v for pos, v in step.items() if v}
    return tuple(ranks)

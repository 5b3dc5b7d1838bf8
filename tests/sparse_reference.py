"""Sparse reference elimination for the tests: kernel dimensions and
nullspaces of systems of sparse rows (dicts column -> coefficient), built on
the pivots of ``linalg.echelon_pivots``, the rows of ad x on a module of
sparse matrices, the exact ranks of the truncated powers of e, and the
chain read of the oracle's kernels on tuple-keyed dicts.  The oracle reads
its kernels off the chains of e on flat arrays, and counts those ranks; the
tests check them against these."""

from collections import Counter
from math import gcd, lcm

from nilcomm import linalg, oracle


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


def chain_kernel(real, degree, sigma):
    """``oracle._chain_kernel`` as it read the chains on tuple-keyed dicts:
    a dict per chain position for its chain and for the union-find of the
    form's ties.  The library kernel reads the same chains on flat cell
    arrays and must return exactly this: the same dims and the same basis
    vectors in the same order."""
    n, hd, succ = real.n, real.h_diagonal, oracle._successors(real)
    dd = None if real.d_map is None else [real.d_map[k, k] for k in range(n)]
    has_pred = set(succ.values())
    heads = [k for k in range(n) if k not in has_pred]
    chains, dead = [], []
    for r0 in range(n):
        for c0 in heads if r0 in has_pred else range(n):
            if degree is not None and hd[r0] - hd[c0] != degree or dd is not None and dd[r0] * dd[c0] != sigma:
                continue
            r, c, chain = r0, c0, [(r0, c0)]
            while r in succ and c in succ:
                r, c = succ[r], succ[c]
                chain.append((r, c))
            dead.append(r0 not in has_pred and c0 in has_pred or r in succ)
            chains.append(chain)
    cls = [(k, 1) for k in range(len(chains))]  # (root, s) with x_k = s x_root
    members = [[k] for k in range(len(chains))]
    if real.t_map is not None:
        s = 1 if real.d_map is not None else sigma
        perm = {r: (c, v) for (r, c), v in real.t_map.items()}
        where = {pos: k for k, chain in enumerate(chains) for pos in chain}
        for k, chain in enumerate(chains):
            for r, c in chain:
                (pc, tc), (pr, tr) = perm[c], perm[r]
                j = where.get((pc, pr))
                (a, sa), (b, sb) = cls[k], (cls[k][0], 0) if j is None else cls[j]
                link = -s * tr * tc * sa * sb  # x_a = link x_b
                if a != b:
                    for m in members[a]:
                        cls[m] = b, cls[m][1] * link
                    members[b] += members[a]
                    dead[b] = dead[a] or dead[b]
                elif link != 1:  # a sign conflict, or no partner
                    dead[a] = True
    dims, basis = Counter(), {}
    for k, ((r, c), *_rest) in enumerate(chains):
        root, s = cls[k]
        if not dead[root]:
            dims[hd[r] - hd[c]] += root == k  # each live class once, at its root chain
            if hd[r] == hd[c]:
                basis.setdefault(root, {}).update(dict.fromkeys(chains[k], s))
    basis = [{pos: x * v[top] for pos, x in v.items()} for top, v in sorted((max(v), v) for v in basis.values())]
    traced = [(t, k) for k, v in enumerate(basis) if real.pair_type in oracle.A_TYPES
              and (t := sum(x for (r, c), x in v.items() if r == c))]
    if traced:
        dims[0] -= 1
        (t0, k0), v0 = traced[0], basis[traced[0][1]]
        for t, k in traced[1:]:  # sgn(t0) (t0 v - t v0), primitive
            m = gcd(t0, t) * (t0 // abs(t0))
            basis[k] = oracle._add((t0 // m, basis[k]), (-t // m, v0))
        del basis[k0]
    return dims, basis

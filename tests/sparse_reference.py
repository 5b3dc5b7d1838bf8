"""Sparse reference elimination for the tests, the exact ranks that the
library no longer takes: fraction-free elimination of systems of sparse rows
(dicts column -> coefficient), their ranks, kernel dimensions and
nullspaces, the rows of ad x on a module of sparse matrices, the exact ranks
of the truncated powers of e and the Jordan type they give, and the chain
read of the oracle's kernels and the defect's certificate on tuple-keyed
dicts.  The oracle reads every exact rank off the chains of a monomial
matrix, reads its kernels off the chains of e on flat arrays and certifies
the defect on int positions with ranks mod a prime; the tests check them
against these.

Elimination is fraction-free: each row enters with its zero entries
dropped, its denominators cleared, its content (the gcd of its entries)
divided out and its leftmost entry made positive, and every row operation
is an integer combination followed by the same division, in the manner of
Bareiss.  A row equal to an earlier one up to sign is dropped on entry.  A
row with a single entry sets its column to zero, so it is settled first and
that column is removed from every other row; the other rows are eliminated
shortest first.  The pivot of a row is its leftmost column, so the pivot
columns do not depend on the order of the rows, and every rank is exact."""

import random
from collections import Counter
from math import gcd, lcm

from nilcomm import linalg, oracle
from nilcomm.errors import OracleCheckFailed


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a nonzero integer row by its content."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {k: v // g for k, v in row.items()}


def _integer_row(raw) -> dict[int, int]:
    """The primitive integer row with the same kernel as ``raw``, its
    leftmost entry positive."""
    row = {k: v for k, v in raw.items() if v}
    if not row:
        return row
    try:
        g = gcd(*row.values())
    except TypeError:  # Fraction entries: clear their denominators first
        den = lcm(*(v.denominator for v in row.values()))
        row = {k: int(v * den) for k, v in row.items()}
        g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _combine(cur: dict[int, int], piv: dict[int, int], c: int) -> dict[int, int]:
    """Integer combination of ``cur`` and ``piv`` that clears column ``c``,
    divided by its content; empty when nothing is left."""
    p, a = piv[c], cur[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    nxt = {k: p * v for k, v in cur.items()} if p != 1 else dict(cur)
    for k, v in piv.items():
        nv = nxt.get(k, 0) - a * v
        if nv:
            nxt[k] = nv
        else:
            del nxt[k]
    return _primitive(nxt) if nxt else nxt


def echelon_pivots(rows) -> dict[int, dict[int, int]]:
    """Forward elimination; returns pivot-column -> primitive integer row
    (not inter-reduced).  Rows repeated up to sign are eliminated once."""
    pivots: dict[int, dict[int, int]] = {}
    seen = set()
    rest = []
    for raw in rows:
        # a single nonzero entry sets its column c to zero: pivot {c: 1}
        row = {c: 1} if len(raw) == 1 and raw[c := next(iter(raw))] else _integer_row(raw)
        if len(row) == 1:
            (c,) = row
            pivots[c] = row
        elif row and (key := frozenset(row.items())) not in seen:
            seen.add(key)
            rest.append(row)
    settled = set(pivots)
    rest.sort(key=len)
    for cur in rest:
        if not settled.isdisjoint(cur):
            cur = {k: v for k, v in cur.items() if k not in settled}
            cur = _primitive(cur) if cur else cur
        while cur:
            c = min(cur)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = cur
                break
            cur = _combine(cur, piv, c)
    return pivots


def rank(rows) -> int:
    return len(echelon_pivots(rows))


def kernel_dim(rows, ncols: int) -> int:
    return ncols - rank(rows)


def reduced(pivots):
    """Integer reduced echelon form of the rows of ``echelon_pivots``: pivot
    column -> primitive integer row that is zero in every other pivot column,
    in increasing column order."""
    cols = sorted(pivots)
    for c in reversed(cols):
        row = pivots[c]
        for c2, other in pivots.items():
            if c2 < c and c in other:
                pivots[c2] = _combine(other, row, c)
    return {c: pivots[c] for c in cols}


def nullspace(rows, ncols: int):
    """Basis of the right kernel, one sparse vector per free column f in
    increasing order, scaled to coprime integers with a positive entry at f."""
    pivots = reduced(echelon_pivots(rows))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        hits = [(c, row) for c, row in pivots.items() if f in row]
        scale = lcm(*(row[c] for c, row in hits))
        vec = {f: scale}
        for c, row in hits:
            vec[c] = -row[f] * (scale // row[c])
        basis.append(_primitive(vec))
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
            ranks.append(rank(list(rows.values())))
        step: dict[tuple[int, int], int] = {}
        for (r, k), v in e.items():
            for (k2, c), w in power.items():
                if k2 == k:
                    step[r, c] = step.get((r, c), 0) + v * w
        power = {pos: v for pos, v in step.items() if v}
    return tuple(ranks)


def jordan_type(matrix) -> tuple[int, ...]:
    """The Jordan type of a nilpotent square matrix from the exact ranks of
    its powers: rank x^(k-1) - rank x^k blocks have size >= k."""
    n = len(matrix)
    ranks = truncation_ranks({(r, c): v for r, row in enumerate(matrix) for c, v in enumerate(row) if v}, None, n)
    at_least = [r - s for r, s in zip(ranks, [*ranks[1:], 0])] + [0]
    return tuple(k for k in range(len(ranks), 0, -1) for _ in range(at_least[k - 1] - at_least[k]))


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


def sample(rng, basis):
    """The oracle's sample of p(e,0) on tuple-keyed basis matrices."""
    return oracle._add(*[(rng.randint(-10, 10), b) for b in basis])


def brackets(x: dict, module: list[dict]) -> list[dict]:
    """[x, b] for each tuple-keyed sparse matrix b of ``module``, at every position."""
    x_col, x_row = oracle._rows(oracle._transpose(x)), oracle._rows(x)
    out = []
    for b in module:
        comm: dict[tuple[int, int], int] = {}
        for (r, c), v in b.items():
            for i, xv in x_col.get(r, ()):
                comm[i, c] = comm.get((i, c), 0) + xv * v
            for j, xv in x_row.get(c, ()):
                comm[r, j] = comm.get((r, j), 0) - v * xv
        out.append(comm)
    return out


def kept_powers(real, x: dict):
    """y_j = n x^j - tr(x^j) I for j = 1 .. n, in order, each kept when it
    lies in p: theta(y_j) = -y_j and, for the BD/C types, y_j^t T = -T y_j."""
    n, power, x_rows = real.n, x, oracle._rows(x)
    dd, perm = oracle._involution(real.d_map, real.t_map)
    eye = {(k, k): 1 for k in range(n)}
    for _j in range(n):
        y = oracle._add((n, power), (-sum(power.get((k, k), 0) for k in range(n)), eye))
        if oracle._theta_holds(y, -1, dd, perm) and (
                dd is None or perm is None or oracle._theta_holds(y, 1, None, perm)):
            yield y
        power = oracle._mul(power, x_rows)


def gram(kept: list[dict]) -> list[dict]:
    """tr(y_a y_b) for the kept powers, as k^2 traces of products."""
    return [{j: sum(v * b.get((c, r), 0) for (r, c), v in a.items()) for j, b in enumerate(kept)}
            for a in kept]


def defect_certificate(real):
    """(defect, samples drawn) of ``oracle.defect_oracle`` as it certified
    the defect on tuple-keyed dicts: the whole ad x system ranked mod the
    prime, and the Gram matrix of the kept powers built from products; or
    its OracleCheckFailed.  The library certificate runs on int positions
    and must decide exactly as this does."""
    oracle._graded_dims(real, -1)
    basis = oracle.p_e0_sparse(real)
    if not basis:
        return 0, 0
    rng = random.Random(0)
    for attempt in range(oracle._SAMPLES):
        x = sample(rng, basis)
        k, kept = len(basis) - linalg.rank_mod_p(brackets(x, basis)), []
        for y in kept_powers(real, x):
            kept.append(y)
            if len(kept) >= k and linalg.rank_mod_p(gram(kept)) == k:
                return k, attempt + 1
    raise OracleCheckFailed(f"no Cartan subspace certified in {oracle._SAMPLES} samples of p(e,0)")

"""Exact matrix realizations of diagrams and matrix-level verification.

Every diagram of a classical pair is realized by explicit integer matrices:
the standard triple (e, h, f) acting on the tagged basis e^a.v_i, the bilinear
form of the ambient algebra (or the form defining k in the A cases), and the
involution.  All invariant dimensions are then exact kernel dimensions of
integer linear systems, giving a verification route independent of the
combinatorial formulas.

Each system is graded: its unknowns are only the entries x_rc of the
requested ad h-weight h_r - h_c and, for a diagonal involution, of the
requested sign d_r d_c, since every commutation, form and trace row lies in
one weight and every other entry is zero by a single-entry condition.  The
unknowns keep their row-major order, so bases come out as from the full
system over all n^2 entries.

For the types whose involution J squares to -Id, J = sqrt(-1) * D with D an
integer diagonal sign matrix; conjugation by J equals conjugation by D, so the
whole computation stays rational.  The realization stores D and the sign xi.

Each of e, h, f, the form T and D has at most one nonzero entry in each row
and each column, and T is a signed permutation (one entry +-1 in each row and
column), so T^-1 = T^t.  They are built, checked and multiplied as sparse
matrices {(r, c): value} without zero entries, at O(n) per product; a
realization stores them as dense tuples for its callers.  ``certify`` checks
the formulas of ``invariants`` against them on every diagram up to a bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Optional

from . import invariants, linalg
from .diagrams import AbDiagram, PairParams, PairType, candidates, enumerate_diagrams, pairs_of_size
from .errors import (
    NoAdjacentLengths,
    NotAlmostDistinguished,
    NotNilpotent,
    OracleCheckFailed,
    SizeMismatch,
    UnrealizableDiagram,
    WrongType,
)

A_TYPES = (PairType.AI, PairType.AII, PairType.AIII)

Matrix = tuple[tuple, ...]


@dataclass(frozen=True)
class MatrixRealization:
    """Integer matrices realizing a diagram for a classical symmetric pair.

    ``basis[k] = (i, a)`` tags basis vector e^a.v_i (row i of the diagram,
    power a).  ``form`` is the Gram matrix of the bilinear form, a signed
    permutation (``realize`` checks it, and theta relies on it): for BD/C
    types it cuts out g, for AI/AII it cuts out k.  ``d_matrix`` is the
    diagonal sign matrix of the involution: the involution datum J is
    d_matrix itself when xi = +1 and sqrt(-1) * d_matrix when xi = -1;
    conjugation by J is conjugation by d_matrix either way.
    """

    pair_type: PairType
    params: PairParams
    diagram: AbDiagram
    n: int
    basis: tuple[tuple[int, int], ...]
    e: Matrix
    h: Matrix
    f: Matrix
    form: Optional[Matrix]
    d_matrix: Optional[Matrix]
    xi: Optional[int]
    partners: tuple[int, ...]
    alphas: Optional[tuple[int, ...]]

    @property
    def h_diagonal(self) -> tuple[int, ...]:
        return tuple(self.h[k][k] for k in range(self.n))

    def theta(self, x: Matrix) -> Matrix:
        """Apply the involution to a matrix."""
        return _dense(self.n, _theta(_sparse(x), _sparse(self.d_matrix), _sparse(self.form)))


# -- sparse matrices -------------------------------------------------------------


def _sparse(m: Optional[Matrix]) -> Optional[dict]:
    if m is None:
        return None
    return {(r, c): row[c] for r, row in enumerate(m) for c in compress(range(len(row)), row)}


def _dense(n: int, x: dict) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for (r, c), v in x.items():
        rows[r][c] = v
    return tuple(map(tuple, rows))


def _lines(x: dict):
    """Nonzero entries of a sparse matrix by column and by row: cols[k] lists
    (i, x_ik), rows[k] lists (j, x_kj)."""
    cols: dict[int, list] = {}
    rows: dict[int, list] = {}
    for (i, k), v in x.items():
        cols.setdefault(k, []).append((i, v))
        rows.setdefault(i, []).append((k, v))
    return cols, rows


def _mul(a: dict, b: dict) -> dict:
    b_rows: dict[int, list] = {}
    for (k, c), w in b.items():
        b_rows.setdefault(k, []).append((c, w))
    out: dict[tuple[int, int], int] = {}
    for (r, k), v in a.items():
        for c, w in b_rows.get(k, ()):
            out[r, c] = out.get((r, c), 0) + v * w
    return {pos: v for pos, v in out.items() if v}


def _add(*terms) -> dict:
    """The sum of c * x over the (c, x) terms."""
    out: dict[tuple[int, int], int] = {}
    for c, x in terms:
        for pos, v in x.items():
            out[pos] = out.get(pos, 0) + c * v
    return {pos: v for pos, v in out.items() if v}


def _transpose(x: dict) -> dict:
    return {(c, r): v for (r, c), v in x.items()}


def _bracket(a: dict, b: dict) -> dict:
    return _add((1, _mul(a, b)), (-1, _mul(b, a)))


def _theta(x: dict, d: Optional[dict], t: Optional[dict]) -> dict:
    """The involution: conjugation by D, or for AI/AII (no D) x -> -T^-1 x^t T
    with T^-1 = T^t, as T is a signed permutation."""
    if d is not None:
        return _mul(_mul(d, x), d)
    return _add((-1, _mul(_transpose(_mul(x, t)), t)))


def _is_signed_permutation(t: dict, n: int) -> bool:
    return (len(t) == n == len({r for r, _c in t}) == len({c for _r, c in t})
            and all(v in (1, -1) for v in t.values()))


def _identities(pair_type: PairType, n: int, xi, e, h, f, t, d):
    """Every identity of a realization, as lazily computed (holds, identity)
    pairs on sparse matrices; t or d is None where there is no form or no
    diagonal involution.  T comes first because theta inverts it as T^t."""
    if t is not None:
        yield _is_signed_permutation(t, n), "form T is a signed permutation"
    yield _bracket(h, e) == _add((2, e)), "[h, e] = 2e"
    yield _bracket(h, f) == _add((-2, f)), "[h, f] = -2f"
    yield _bracket(e, f) == h, "[e, f] = h"
    yield _theta(e, d, t) == _add((-1, e)), "theta(e) = -e"
    yield _theta(h, d, t) == h, "theta(h) = h"
    yield _theta(f, d, t) == _add((-1, f)), "theta(f) = -f"
    if t is not None:
        eta = 1 if d is not None else -1
        eps = pair_type.form_sign if d is not None else (1 if pair_type is PairType.AI else -1)
        yield _transpose(t) == _add((eps, t)), "T^t = eps T"
        # form compatibility: Phi(e.u, v) = -eta Phi(u, e.v), same for f; h skew
        yield not _add((1, _mul(_transpose(e), t)), (eta, _mul(t, e))), "e^t T = -eta T e"
        yield not _add((1, _mul(_transpose(f), t)), (eta, _mul(t, f))), "f^t T = -eta T f"
        yield not _add((1, _mul(_transpose(h), t)), (1, _mul(t, h))), "h^t T = -T h"
    if d is not None:
        yield _mul(d, d) == {(k, k): 1 for k in range(n)}, "D^2 = I"
        if t is not None:
            yield _mul(_mul(_transpose(d), t), d) == _add((xi, t)), "D^t T D = xi T"


# -- building the triple -------------------------------------------------------


def _triple_matrices(diagram: AbDiagram):
    """The basis tags, their positions, and the sparse standard triple."""
    basis = [(i, a) for i, (length, _s) in enumerate(diagram.rows) for a in range(length)]
    idx = {tag: k for k, tag in enumerate(basis)}
    e, h, f = {}, {}, {}
    for (i, a), k in idx.items():
        length = diagram.rows[i][0]
        if 2 * a + 1 != length:
            h[k, k] = 2 * a - length + 1
        if a + 1 < length:
            e[idx[(i, a + 1)], k] = 1
        if a > 0:
            f[idx[(i, a - 1)], k] = a * (length - a)
    return tuple(basis), idx, e, h, f


def _sign(start: Optional[str]) -> int:
    return 1 if start == "a" else -1


def _d_matrix(diagram: AbDiagram, idx) -> dict:
    return {(k, k): _sign(diagram.rows[i][1]) * (-1) ** a for (i, a), k in idx.items()}


def _couple(t: dict, idx, i, j, length, eps):
    """Write the standard coupling of rows i and j (equal length) into t."""
    for a in range(length):
        t[idx[(i, a)], idx[(j, length - 1 - a)]] = (-1) ** a
        if i != j:
            t[idx[(j, a)], idx[(i, length - 1 - a)]] = eps * (-1) ** (length - 1) * (-1) ** a


@lru_cache(maxsize=None)
def _pair_admissible(pair_type: PairType, length: int, s1: str, s2: str) -> bool:
    """Matrix test on a two-row (or one-row, when s2 is empty) template: does
    the standard coupling satisfy all the identities of a realization?"""
    rows = [(length, s1)] + ([(length, s2)] if s2 else [])
    diag = AbDiagram.from_rows(rows)
    basis, idx, e, h, f = _triple_matrices(diag)
    t: dict = {}
    _couple(t, idx, 0, 1 if s2 else 0, length, pair_type.form_sign)
    return all(holds for holds, _identity in _identities(
        pair_type, len(basis), pair_type.involution_square, e, h, f, t, _d_matrix(diag, idx)))


def _matchable(pair_type: PairType, length: int, na: int, nb: int, memo: dict) -> bool:
    """Can na rows starting with a and nb rows starting with b, all of one
    length, be paired up by admissible couplings?  Memoised on the counts."""
    if not na and not nb:
        return True
    key = (na, nb)
    if key not in memo:
        # some row must be coupled: take an a-row when there is one
        s = "a" if na else "b"
        na1, nb1 = (na - 1, nb) if na else (na, nb - 1)
        memo[key] = (
            (_pair_admissible(pair_type, length, s, "")
             and _matchable(pair_type, length, na1, nb1, memo))
            or (na1 > 0 and _pair_admissible(pair_type, length, s, "a")
                and _matchable(pair_type, length, na1 - 1, nb1, memo))
            or (nb1 > 0 and _pair_admissible(pair_type, length, s, "b")
                and _matchable(pair_type, length, na1, nb1 - 1, memo))
        )
    return memo[key]


def _match_rows(pair_type: PairType, length: int, row_ids, letters):
    """Pair up the rows of one length so each pair carries an admissible
    coupling; self-pairing is a one-row coupling.  Returns the matching or
    None.  Each row in turn takes the first admissible partner (itself, then
    the later rows in order) that leaves the other rows matchable.  The
    coupling test depends on the two start letters only through their
    product, so ``_matchable`` decides the rest from its letter counts."""
    count = {"a": 0, "b": 0}
    for i in row_ids:
        count[letters[i]] += 1
    memo: dict = {}
    matching = []
    rest = list(row_ids)
    while rest:
        first = rest.pop(0)
        count[letters[first]] -= 1
        for other in [first] + rest:
            s = "" if other == first else letters[other]
            left = (count["a"] - (s == "a"), count["b"] - (s == "b"))
            if (_pair_admissible(pair_type, length, letters[first], s)
                    and _matchable(pair_type, length, *left, memo)):
                break
        else:
            return None
        matching.append((first, other))
        if other != first:
            rest.remove(other)
        count["a"], count["b"] = left
    return matching


@lru_cache(maxsize=None)
def realize(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> MatrixRealization:
    """Build a matrix realization, or raise UnrealizableDiagram when no sign
    assignment satisfies the invariants (this certifies diagram validity).
    Every check that can reject the diagram runs before any matrix is built."""
    params.check(pair_type)
    if diagram.n != params.n:
        raise SizeMismatch(f"diagram has {diagram.n} cells, pair has n={params.n}")
    if diagram.rows and diagram.is_ab != pair_type.uses_letters:
        raise WrongType(f"representation does not match {pair_type.value}")
    by_length: dict[int, list[int]] = {}
    for i, (length, _s) in enumerate(diagram.rows):
        by_length.setdefault(length, []).append(i)
    matchings = {}
    if pair_type is PairType.AII:
        for length, ids in by_length.items():
            if len(ids) % 2 != 0:
                raise UnrealizableDiagram(
                    f"no symplectic pairing: odd number of rows of length {length}"
                )
    elif pair_type not in A_TYPES:
        letters = {i: s for i, (_d, s) in enumerate(diagram.rows)}
        for length, ids in sorted(by_length.items(), reverse=True):
            matching = _match_rows(pair_type, length, tuple(ids), letters)
            if matching is None:
                raise UnrealizableDiagram(
                    f"no admissible coupling of the rows of length {length}"
                )
            matchings[length] = matching
    if pair_type.has_signature and diagram.letter_counts() != params.signature:
        raise UnrealizableDiagram(
            f"involution eigenspace dimensions {diagram.letter_counts()} "
            f"do not match the signature {params.signature}"
        )

    basis, idx, e, h, f = _triple_matrices(diagram)
    n = len(basis)
    nrows = len(diagram.rows)
    t = d = alphas = None
    partners = list(range(nrows))
    if pair_type is PairType.AI:
        t = {}
        for i, (length, _s) in enumerate(diagram.rows):
            for a in range(length):
                t[idx[(i, a)], idx[(i, length - 1 - a)]] = 1
    elif pair_type is PairType.AII:
        alpha = [0] * nrows
        t = {}
        for length, ids in by_length.items():
            for i1, i2 in zip(ids[0::2], ids[1::2]):
                partners[i1], partners[i2] = i2, i1
                alpha[i1], alpha[i2] = 1, -1
                for a in range(length):
                    t[idx[(i1, a)], idx[(i2, length - 1 - a)]] = 1
                    t[idx[(i2, a)], idx[(i1, length - 1 - a)]] = -1
        alphas = tuple(alpha)
    else:
        d = _d_matrix(diagram, idx)
        if pair_type is not PairType.AIII:
            t = {}
            for length, matching in matchings.items():
                for i, j in matching:
                    partners[i], partners[j] = j, i
                    _couple(t, idx, i, j, length, pair_type.form_sign)

    real = MatrixRealization(
        pair_type=pair_type,
        params=params,
        diagram=diagram,
        n=n,
        basis=basis,
        e=_dense(n, e),
        h=_dense(n, h),
        f=_dense(n, f),
        form=None if t is None else _dense(n, t),
        d_matrix=None if d is None else _dense(n, d),
        xi=pair_type.involution_square,
        partners=tuple(partners),
        alphas=alphas,
    )
    _check_realization(real)
    return real


def _require(holds: bool, identity: str) -> None:
    """Soundness check that also runs under ``python -O``."""
    if not holds:
        raise OracleCheckFailed(f"identity fails: {identity}")


def _check_realization(real: MatrixRealization) -> None:
    """Check every identity on the stored matrices, read once each."""
    matrices = map(_sparse, (real.e, real.h, real.f, real.form, real.d_matrix))
    for holds, identity in _identities(real.pair_type, real.n, real.xi, *matrices):
        _require(holds, identity)


# -- graded linear systems ------------------------------------------------------


def _system(real: MatrixRealization, m: Matrix, degree: Optional[int], sigma: Optional[int]):
    """Linear system of the x in g with [m, x] = 0, ad h-weight ``degree`` and
    theta(x) = sigma x; no weight or involution condition when None.

    Only the unknowns x_rc that the grading (h_r - h_c = degree) and a
    diagonal involution (d_r d_c = sigma) leave free are kept; every other
    unknown would be pinned to zero by a row of its own.  Each commutation,
    form and trace row lies in a single ad h-weight, so the kept rows only
    meet kept unknowns, and the kernel dimension is len(unknowns) -
    rank(rows).  Returns (unknowns, rows): the free positions (r, c) in
    increasing r*n + c order, and sparse rows over their indices.
    """
    n, hd = real.n, real.h_diagonal
    dd = None
    if real.d_matrix is not None and sigma is not None:
        dd = [real.d_matrix[k][k] for k in range(n)]
    unknowns = [
        (r, c)
        for r in range(n)
        for c in range(n)
        if (degree is None or hd[r] - hd[c] == degree) and (dd is None or dd[r] * dd[c] == sigma)
    ]
    # form rows x^T T + form_sigma T x: membership in g for the BD/C types,
    # theta for AI/AII (AIII has no form); the A types carry the trace row
    form_sigma = 1 if real.d_matrix is not None else sigma
    t = real.form if form_sigma is not None else None
    trace_row = real.pair_type in A_TYPES
    m_col, m_row = _lines(_sparse(m))
    t_col, t_row = _lines(_sparse(t)) if t is not None else ({}, {})
    eqs: dict[int, dict[int, int]] = {}
    for u, (r, c) in enumerate(unknowns):
        # [m, x]_ic gains m_ir x_rc; [m, x]_rj gains -x_rc m_cj
        for i, v in m_col.get(r, ()):
            row = eqs.setdefault(i * n + c, {})
            row[u] = row.get(u, 0) + v
        for j, v in m_row.get(c, ()):
            row = eqs.setdefault(r * n + j, {})
            row[u] = row.get(u, 0) - v
        if t is not None:
            # (x^T T)_cj gains x_rc T_rj; (T x)_ic gains T_ir x_rc
            for j, v in t_row.get(r, ()):
                row = eqs.setdefault(n * n + c * n + j, {})
                row[u] = row.get(u, 0) + v
            for i, v in t_col.get(r, ()):
                row = eqs.setdefault(n * n + i * n + c, {})
                row[u] = row.get(u, 0) + form_sigma * v
        if trace_row and r == c:
            eqs.setdefault(2 * n * n, {})[u] = 1
    rows = [{u: v for u, v in row.items() if v} for row in eqs.values()]
    return unknowns, [row for row in rows if row]


def _kernel_dim(real: MatrixRealization, m: Matrix, degree: Optional[int], sigma: Optional[int]) -> int:
    unknowns, rows = _system(real, m, degree, sigma)
    return linalg.kernel_dim(rows, len(unknowns))


def _kernel(real: MatrixRealization, m: Matrix, degree: Optional[int], sigma: Optional[int]):
    """Basis of the solution space as sparse matrices {(r, c): value}."""
    unknowns, rows = _system(real, m, degree, sigma)
    return [
        {unknowns[u]: v for u, v in vec.items()}
        for vec in linalg.nullspace(rows, len(unknowns))
    ]


def _bracket_rows(x: dict, module: list[dict]) -> list[dict]:
    """Rows of the linear map c -> [x, sum_k c_k module[k]] on sparse
    matrices, one row per matrix position in row-major order."""
    x_col, x_row = _lines(x)
    eqs: dict[tuple[int, int], dict[int, int]] = {}
    for k, b in enumerate(module):
        comm: dict[tuple[int, int], int] = {}
        for (r, c), v in b.items():
            for i, xv in x_col.get(r, ()):
                comm[i, c] = comm.get((i, c), 0) + xv * v
            for j, xv in x_row.get(c, ()):
                comm[r, j] = comm.get((r, j), 0) - v * xv
        for pos, v in comm.items():
            if v:
                eqs.setdefault(pos, {})[k] = v
    return [eqs[pos] for pos in sorted(eqs)]


# -- centralizer dimensions -----------------------------------------------------


@dataclass(frozen=True)
class GradedDims:
    """Eigenspace dimensions of the centralizer: pieces[i] = (dim k(e,i),
    dim p(e,i)); plus dim g(f,-1) and the fixed space of p(e,0) acting on it."""

    pieces: tuple[tuple[int, int, int], ...]
    dim_g_f_minus1: int
    dim_fixed_f_minus1: int

    @property
    def dim_p_cent(self) -> int:
        return sum(p for _i, _k, p in self.pieces)

    @property
    def dim_k_cent(self) -> int:
        return sum(k for _i, k, _p in self.pieces)


def dim_p_cent_oracle(real: MatrixRealization) -> int:
    """dim p^e as an exact kernel dimension, over every ad h-weight."""
    return _kernel_dim(real, real.e, None, -1)


def dim_graded(real: MatrixRealization, degree: int, sigma: int) -> int:
    """dim of the theta-eigenspace of g(e, degree); sigma=+1 for k, -1 for p."""
    return _kernel_dim(real, real.e, degree, sigma)


def p_e0_basis(real: MatrixRealization) -> list[Matrix]:
    return [_dense(real.n, x) for x in _kernel(real, real.e, 0, -1)]


def g_f_minus1_basis(real: MatrixRealization) -> list[Matrix]:
    return [_dense(real.n, x) for x in _kernel(real, real.f, -1, None)]


def fixed_space_dim(acting: list[Matrix], module: list[Matrix]) -> int:
    """dim of the joint kernel of ad(b) for b in acting, inside span(module)."""
    if not module:
        return 0
    if not acting:
        return len(module)
    sparse_module = [_sparse(c) for c in module]
    rows = []
    for b in acting:
        rows.extend(_bracket_rows(_sparse(b), sparse_module))
    return linalg.kernel_dim(rows, len(module))


def centralizer_dims(real: MatrixRealization) -> GradedDims:
    """All graded centralizer dimensions plus the degree -1 data."""
    max_len = real.diagram.rows[0][0] if real.diagram.rows else 1
    pieces = []
    for i in range(0, 2 * max_len - 1):
        dk = dim_graded(real, i, 1)
        dp = dim_graded(real, i, -1)
        if dk or dp or i == 0:
            pieces.append((i, dk, dp))
    p0 = p_e0_basis(real)
    fm1 = g_f_minus1_basis(real)
    return GradedDims(
        pieces=tuple(pieces),
        dim_g_f_minus1=len(fm1),
        dim_fixed_f_minus1=fixed_space_dim(p0, fm1),
    )


# -- randomized defect ----------------------------------------------------------


def defect_oracle(real: MatrixRealization, seed: int = 0, coeff_bound: int = 10) -> int:
    """Rank of p(e,0): centralizer dimension in p(e,0) of a random element,
    with three agreeing seeded trials."""
    basis = _kernel(real, real.e, 0, -1)
    m = len(basis)
    if m == 0:
        return 0
    rng = random.Random(seed)
    values: list[int] = []
    for _attempt in range(60):
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(m)]
        if all(c == 0 for c in coeffs):
            continue
        x: dict[tuple[int, int], int] = {}
        for c, b in zip(coeffs, basis):
            if c:
                for pos, v in b.items():
                    x[pos] = x.get(pos, 0) + c * v
        rows = _bracket_rows({pos: v for pos, v in x.items() if v}, basis)
        values.append(linalg.kernel_dim(rows, m))
        if len(values) >= 3 and values[-1] == values[-2] == values[-3]:
            return values[-1]
    raise RuntimeError(f"defect sampling did not stabilize: {values}")


# -- Jordan type and witnesses ---------------------------------------------------


def jordan_type(matrix: Matrix) -> tuple[int, ...]:
    """Partition of a nilpotent matrix from the rank sequence of its powers."""
    n = len(matrix)
    if n == 0:
        return ()
    x = _sparse(matrix)
    ranks = [n]
    power = x
    while ranks[-1] > 0:
        if len(ranks) > n:
            raise NotNilpotent("matrix is not nilpotent")
        ranks.append(linalg.rank([dict(row) for row in _lines(power)[1].values()]))
        power = _mul(power, x)
    blocks = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    parts = []
    for size in range(len(blocks), 0, -1):
        count = blocks[size - 1] - (blocks[size] if size < len(blocks) else 0)
        parts.extend([size] * count)
    return tuple(sorted(parts, reverse=True))


def _dominates_strictly(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """lam > mu in dominance order of partitions of the same size."""
    if lam == mu or sum(lam) != sum(mu):
        return False
    acc_l = acc_m = 0
    for k in range(max(len(lam), len(mu))):
        acc_l += lam[k] if k < len(lam) else 0
        acc_m += mu[k] if k < len(mu) else 0
        if acc_l < acc_m:
            return False
    return True


def _partial_shift(real: MatrixRealization, idx, i1: int, i2: int) -> dict:
    """The elementary map sending row i1 into row i2 one step up and row i2
    back onto row i1 (lengths differing by one)."""
    m = {}
    for a in range(real.diagram.rows[i1][0]):
        m[idx[(i2, a + 1)], idx[(i1, a)]] = 1
        m[idx[(i1, a)], idx[(i2, a)]] = 1
    return m


def _row_restriction(real: MatrixRealization, idx, rows: set[int]) -> dict:
    m = {}
    for i in rows:
        for a in range(real.diagram.rows[i][0] - 1):
            m[idx[(i, a + 1)], idx[(i, a)]] = 1
    return m


def find_adjacent_rows(diagram: AbDiagram) -> Optional[tuple[int, int]]:
    """First pair of row indices (i1, i2) with len(i1) + 1 = len(i2)."""
    for i2, (d2, _s2) in enumerate(diagram.rows):
        for i1, (d1, _s1) in enumerate(diagram.rows):
            if d1 + 1 == d2:
                return i1, i2
    return None


def commuting_witness(
    real: MatrixRealization, i1: Optional[int] = None, i2: Optional[int] = None
) -> Matrix:
    """A nilpotent element of p^e with a strictly larger diagram, built from
    two rows of adjacent lengths (types AI and AII only)."""
    if real.pair_type not in (PairType.AI, PairType.AII):
        raise WrongType("witness construction applies to AI and AII")
    if i1 is None or i2 is None:
        found = find_adjacent_rows(real.diagram)
        if found is None:
            raise NoAdjacentLengths("no two rows with lengths differing by one")
        i1, i2 = found
    lam1 = real.diagram.rows[i1][0]
    lam2 = real.diagram.rows[i2][0]
    if lam1 + 1 != lam2:
        raise NoAdjacentLengths(f"rows have lengths {lam1}, {lam2}")
    pairs = [(i1, i2)]
    if real.pair_type is PairType.AII:
        if real.alphas[i1] != real.alphas[i2]:
            i1 = real.partners[i1]
        pairs = [(i1, i2), (real.partners[i1], real.partners[i2])]
    others = set(range(len(real.diagram.rows))) - {i for pair in pairs for i in pair}
    idx = {tag: k for k, tag in enumerate(real.basis)}
    w = _add(*[(1, _partial_shift(real, idx, *pair)) for pair in pairs],
             (1, _row_restriction(real, idx, others)))
    _require(not _bracket(_sparse(real.e), w), "[e, w] = 0")
    theta_w = _theta(w, _sparse(real.d_matrix), _sparse(real.form))
    _require(theta_w == _add((-1, w)), "theta(w) = -w")
    witness = _dense(real.n, w)
    _require(
        _dominates_strictly(jordan_type(witness), real.diagram.partition),
        "Jordan type of w strictly dominates the diagram",
    )
    return witness


# -- the self-large refutation test ----------------------------------------------


def selflarge_test_7_4(real: MatrixRealization, seed: int = 0) -> bool:
    """True when the refutation applies: p(e,0) acts on g(f,-1) without fixed
    vectors and p(e,1) is nonzero; then the orbit is not self-large.  The
    precondition (almost-distinguished, not distinguished) is checked with the
    oracle's own computations."""
    p0 = p_e0_basis(real)
    if not p0:
        raise NotAlmostDistinguished("orbit is distinguished")
    if defect_oracle(real, seed=seed) != len(p0):
        raise NotAlmostDistinguished("p(e,0) contains nonzero nilpotent elements")
    fm1 = g_f_minus1_basis(real)
    fixed = fixed_space_dim(p0, fm1)
    return fixed == 0 and dim_graded(real, 1, -1) > 0


# -- the certification sweep --------------------------------------------------------


def certify(bound: int, seed: int = 0) -> tuple[int, list[str]]:
    """Every candidate diagram of every pair with n <= bound is realizable
    exactly when it is valid, and on each realization the Jordan type of e,
    dim p^e, dim p(e,0) (descriptor and graded count), dim p(e,1) and the
    defect equal the oracle's.  Returns (realizations checked, failure lines)."""
    checked, failures = 0, []
    for n in range(bound + 1):
        for pt, prm in pairs_of_size(n):
            valid = set(enumerate_diagrams(pt, prm))
            for d in candidates(pt, n):
                try:
                    real = realize(d, pt, prm)
                except UnrealizableDiagram:
                    real = None
                if (real is not None) != (d in valid):
                    failures.append(f"{pt.value} {prm}: {d.text()!r} realizable={real is not None} "
                                    f"valid={d in valid}")
                if real is None or d not in valid:
                    continue
                checked += 1
                p0 = dim_graded(real, 0, -1)
                checks = [
                    ("jordan type", d.partition, jordan_type(real.e)),
                    ("dim p^e", invariants.dim_p_cent(d, pt, prm), dim_p_cent_oracle(real)),
                    ("dim p(e,0)", invariants.dim_p0(d, pt), p0),
                    ("graded dim p(e,0)", invariants.dim_p_graded(d, pt, 0), p0),
                    ("dim p(e,1)", invariants.dim_p_graded(d, pt, 1), dim_graded(real, 1, -1)),
                ]
                if d.rows:
                    checks.append(("defect", invariants.defect(d, pt), defect_oracle(real, seed)))
                failures.extend(f"{pt.value} {prm}: {what} mismatch {d.text()!r}"
                                for what, formula, matrix in checks if formula != matrix)
    return checked, failures

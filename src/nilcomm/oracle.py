"""Exact matrix realizations of diagrams and matrix-level verification.

Every diagram of a classical pair is realized by explicit integer matrices:
the standard triple (e, h, f) acting on the tagged basis e^a.v_i, the bilinear
form of the ambient algebra (or the form defining k in the A cases), and the
involution.  All invariant dimensions are then exact kernel dimensions of
integer linear systems, giving a verification route independent of the
combinatorial formulas.

For the types whose involution J squares to -Id, J = sqrt(-1) * D with D an
integer diagonal sign matrix; conjugation by J equals conjugation by D, so the
whole computation stays rational.  The realization stores D and the sign xi.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import linalg
from .diagrams import AbDiagram, PairParams, PairType
from .errors import (
    NoAdjacentLengths,
    NotAlmostDistinguished,
    NotNilpotent,
    OracleCheckFailed,
    SizeMismatch,
    UnrealizableDiagram,
    WrongType,
)
from .linalg import Matrix, commutator, freeze, mat_mul, mat_rank, mat_scale, mat_sub, transpose, zeros

A_TYPES = (PairType.AI, PairType.AII, PairType.AIII)


@dataclass(frozen=True)
class MatrixRealization:
    """Integer matrices realizing a diagram for a classical symmetric pair.

    ``basis[k] = (i, a)`` tags basis vector e^a.v_i (row i of the diagram,
    power a).  ``form`` is the Gram matrix of the bilinear form: for BD/C
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
        if self.d_matrix is not None:
            return mat_mul(mat_mul(self.d_matrix, x), self.d_matrix)
        t = self.form
        tinv = _integer_inverse(t)
        return mat_scale(-1, mat_mul(mat_mul(tinv, transpose(x)), t))


@lru_cache(maxsize=None)
def _integer_inverse(t: Matrix) -> Matrix:
    """Inverse of a Gram matrix; exact, entries become Fractions if needed."""
    n = len(t)
    rows = []
    for i in range(n):
        row = {j: Fraction(t[i][j]) for j in range(n) if t[i][j]}
        for j in range(n):
            if i == j:
                row[n + j] = Fraction(1)
        rows.append(row)
    pivots = linalg.rref_pivots(rows)
    inv = zeros(n)
    for c in range(n):
        row = pivots.get(c)
        if row is None:
            raise ValueError("form is degenerate")
        for j in range(n):
            inv[c][j] = row.get(n + j, Fraction(0))
    return freeze(inv)


# -- building the triple -------------------------------------------------------


def _triple_matrices(diagram: AbDiagram):
    basis = []
    for i, (length, _start) in enumerate(diagram.rows):
        for a in range(length):
            basis.append((i, a))
    idx = {tag: k for k, tag in enumerate(basis)}
    n = len(basis)
    e = zeros(n)
    h = zeros(n)
    f = zeros(n)
    for (i, a), k in idx.items():
        length = diagram.rows[i][0]
        h[k][k] = 2 * a - length + 1
        if a + 1 < length:
            e[idx[(i, a + 1)]][k] = 1
        if a > 0:
            f[idx[(i, a - 1)]][k] = a * (length - a)
    return tuple(basis), idx, freeze(e), freeze(h), freeze(f)


def _sign(start: Optional[str]) -> int:
    return 1 if start == "a" else -1


def _d_matrix(diagram: AbDiagram, basis, idx) -> Matrix:
    n = len(basis)
    d = zeros(n)
    for (i, a), k in idx.items():
        d[k][k] = _sign(diagram.rows[i][1]) * (-1) ** a
    return freeze(d)


def _couple(t, idx, i, j, length, eps):
    """Write the standard coupling of rows i and j (equal length) into t."""
    for a in range(length):
        t[idx[(i, a)]][idx[(j, length - 1 - a)]] += (-1) ** a
        if i != j:
            t[idx[(j, a)]][idx[(i, length - 1 - a)]] += eps * (-1) ** (length - 1) * (-1) ** a


@lru_cache(maxsize=None)
def _pair_admissible(pair_type: PairType, length: int, s1: str, s2: str) -> bool:
    """Matrix test on a two-row (or one-row, when s2 is empty) template: does
    the standard coupling satisfy all form and involution identities?"""
    rows = [(length, s1)] + ([(length, s2)] if s2 else [])
    diag = AbDiagram.from_rows(rows)
    basis, idx, e, h, _f = _triple_matrices(diag)
    d = _d_matrix(diag, basis, idx)
    eps = pair_type.form_sign
    xi = pair_type.involution_square
    t = zeros(len(basis))
    if s2:
        _couple(t, idx, 0, 1, length, eps)
    else:
        _couple(t, idx, 0, 0, length, eps)
    t = freeze(t)
    return _form_identities_hold(t, e, h, d, eps, xi, len(basis))


def _form_identities_hold(t, e, h, d, eps, xi, n) -> bool:
    if mat_rank(t) != n:
        return False
    if transpose(t) != mat_scale(eps, t):
        return False
    # e, f skew, h skew for the ambient algebra (eta = +1 convention)
    if mat_sub(mat_scale(-1, mat_mul(transpose(e), t)), mat_mul(t, e)) != freeze(zeros(n)):
        return False
    if mat_sub(mat_scale(-1, mat_mul(transpose(h), t)), mat_mul(t, h)) != freeze(zeros(n)):
        return False
    dtd = mat_mul(mat_mul(transpose(d), t), d)
    return dtd == mat_scale(xi, t)


def _match_rows(pair_type: PairType, length: int, row_ids, letters):
    """Pair up the rows of one length so each pair carries an admissible
    coupling; self-pairing is a one-row coupling.  Returns the matching or
    None."""
    if not row_ids:
        return []
    first, rest = row_ids[0], row_ids[1:]
    if _pair_admissible(pair_type, length, letters[first], ""):
        sub = _match_rows(pair_type, length, rest, letters)
        if sub is not None:
            return [(first, first)] + sub
    for k, other in enumerate(rest):
        if _pair_admissible(pair_type, length, letters[first], letters[other]):
            sub = _match_rows(pair_type, length, rest[:k] + rest[k + 1:], letters)
            if sub is not None:
                return [(first, other)] + sub
    return None


@lru_cache(maxsize=None)
def realize(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> MatrixRealization:
    """Build a matrix realization, or raise UnrealizableDiagram when no sign
    assignment satisfies the invariants (this certifies diagram validity)."""
    params.check(pair_type)
    if diagram.n != params.n:
        raise SizeMismatch(f"diagram has {diagram.n} cells, pair has n={params.n}")
    if diagram.rows and diagram.is_ab != pair_type.uses_letters:
        raise WrongType(f"representation does not match {pair_type.value}")
    basis, idx, e, h, f = _triple_matrices(diagram)
    n = len(basis)
    nrows = len(diagram.rows)

    form = None
    d_matrix = None
    alphas = None
    partners = list(range(nrows))

    if pair_type is PairType.AI:
        t = zeros(n)
        for i, (length, _s) in enumerate(diagram.rows):
            for a in range(length):
                t[idx[(i, a)]][idx[(i, length - 1 - a)]] = 1
        form = freeze(t)
    elif pair_type is PairType.AII:
        by_length: dict[int, list[int]] = {}
        for i, (length, _s) in enumerate(diagram.rows):
            by_length.setdefault(length, []).append(i)
        alpha = [0] * nrows
        t = zeros(n)
        for length, ids in by_length.items():
            if len(ids) % 2 != 0:
                raise UnrealizableDiagram(
                    f"no symplectic pairing: odd number of rows of length {length}"
                )
            for i1, i2 in zip(ids[0::2], ids[1::2]):
                partners[i1], partners[i2] = i2, i1
                alpha[i1], alpha[i2] = 1, -1
                for a in range(length):
                    t[idx[(i1, a)]][idx[(i2, length - 1 - a)]] = 1
                    t[idx[(i2, a)]][idx[(i1, length - 1 - a)]] = -1
        form = freeze(t)
        alphas = tuple(alpha)
    else:
        d_matrix = _d_matrix(diagram, basis, idx)
        if pair_type is not PairType.AIII:
            eps = pair_type.form_sign
            letters = {i: s for i, (_d, s) in enumerate(diagram.rows)}
            by_length = {}
            for i, (length, _s) in enumerate(diagram.rows):
                by_length.setdefault(length, []).append(i)
            t = zeros(n)
            for length, ids in sorted(by_length.items(), reverse=True):
                matching = _match_rows(pair_type, length, tuple(ids), letters)
                if matching is None:
                    raise UnrealizableDiagram(
                        f"no admissible coupling of the rows of length {length}"
                    )
                for i, j in matching:
                    partners[i], partners[j] = j, i
                    _couple(t, idx, i, j, length, eps)
            form = freeze(t)
        if pair_type.has_signature:
            if diagram.letter_counts() != params.signature:
                raise UnrealizableDiagram(
                    f"involution eigenspace dimensions {diagram.letter_counts()} "
                    f"do not match the signature {params.signature}"
                )

    real = MatrixRealization(
        pair_type=pair_type,
        params=params,
        diagram=diagram,
        n=n,
        basis=basis,
        e=e,
        h=h,
        f=f,
        form=form,
        d_matrix=d_matrix,
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
    e, h, f, n = real.e, real.h, real.f, real.n
    zero = freeze(zeros(n))
    _require(commutator(h, e) == mat_scale(2, e), "[h, e] = 2e")
    _require(commutator(h, f) == mat_scale(-2, f), "[h, f] = -2f")
    _require(commutator(e, f) == h or n == 0, "[e, f] = h")
    _require(real.theta(e) == mat_scale(-1, e), "theta(e) = -e")
    _require(real.theta(h) == h, "theta(h) = h")
    _require(real.theta(f) == mat_scale(-1, f), "theta(f) = -f")
    t = real.form
    if t is not None:
        _require(mat_rank(t) == n, "form T is nondegenerate")
        eta = 1 if real.d_matrix is not None else -1
        eps = real.pair_type.form_sign if real.d_matrix is not None else (
            1 if real.pair_type is PairType.AI else -1
        )
        _require(transpose(t) == mat_scale(eps, t), "T^t = eps T")
        # form compatibility: Phi(e.u, v) = -eta Phi(u, e.v), same for f; h skew
        _require(
            mat_sub(mat_mul(transpose(e), t), mat_scale(-eta, mat_mul(t, e))) == zero,
            "e^t T = -eta T e",
        )
        _require(
            mat_sub(mat_mul(transpose(f), t), mat_scale(-eta, mat_mul(t, f))) == zero,
            "f^t T = -eta T f",
        )
        _require(
            mat_sub(mat_mul(transpose(h), t), mat_scale(-1, mat_mul(t, h))) == zero,
            "h^t T = -T h",
        )
    if real.d_matrix is not None:
        d = real.d_matrix
        _require(mat_mul(d, d) == linalg.identity(n), "D^2 = I")
        if t is not None:
            _require(
                mat_mul(mat_mul(transpose(d), t), d) == mat_scale(real.xi, t),
                "D^t T D = xi T",
            )


# -- linear conditions ---------------------------------------------------------


def _commute_rows(m: Matrix, n: int, shift: int = 0) -> list[dict]:
    rows = []
    nz_row = [{k: m[i][k] for k in range(n) if m[i][k]} for i in range(n)]
    nz_col = [{k: m[k][j] for k in range(n) if m[k][j]} for j in range(n)]
    for i in range(n):
        for j in range(n):
            row: dict[int, int] = {}
            for k, v in nz_row[i].items():
                row[k * n + j + shift] = row.get(k * n + j + shift, 0) + v
            for k, v in nz_col[j].items():
                key = i * n + k + shift
                nv = row.get(key, 0) - v
                if nv:
                    row[key] = nv
                else:
                    row.pop(key, None)
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def _grading_rows(h_diag, degree: int, n: int) -> list[dict]:
    rows = []
    for r in range(n):
        for c in range(n):
            coeff = h_diag[r] - h_diag[c] - degree
            if coeff:
                rows.append({r * n + c: coeff})
    return rows


def _form_rows(t: Matrix, sigma: int, n: int) -> list[dict]:
    """Rows of x^T T + sigma T x = 0."""
    rows = []
    nz_col = [{k: t[k][j] for k in range(n) if t[k][j]} for j in range(n)]
    nz_row = [{k: t[i][k] for k in range(n) if t[i][k]} for i in range(n)]
    for i in range(n):
        for j in range(n):
            row: dict[int, int] = {}
            for k, v in nz_col[j].items():
                row[k * n + i] = row.get(k * n + i, 0) + v
            for k, v in nz_row[i].items():
                key = k * n + j
                nv = row.get(key, 0) + sigma * v
                if nv:
                    row[key] = nv
                else:
                    row.pop(key, None)
            row = {k: v for k, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


def _theta_rows(real: MatrixRealization, sigma: int) -> list[dict]:
    n = real.n
    if real.d_matrix is not None:
        dd = [real.d_matrix[k][k] for k in range(n)]
        rows = []
        for r in range(n):
            for c in range(n):
                coeff = dd[r] * dd[c] - sigma
                if coeff:
                    rows.append({r * n + c: coeff})
        return rows
    return _form_rows(real.form, sigma, n)


def _membership_rows(real: MatrixRealization) -> list[dict]:
    n = real.n
    if real.pair_type in A_TYPES:
        return [{k * n + k: 1 for k in range(n)}] if n else []
    return _form_rows(real.form, 1, n)


def _space_dim(real: MatrixRealization, conditions) -> int:
    rows = []
    for c in conditions:
        rows.extend(c)
    return linalg.kernel_dim(rows, real.n * real.n)


def _space_basis(real: MatrixRealization, conditions) -> list[Matrix]:
    rows = []
    for c in conditions:
        rows.extend(c)
    n = real.n
    vectors = linalg.nullspace(rows, n * n)
    out = []
    for vec in vectors:
        m = zeros(n)
        for key, v in vec.items():
            m[key // n][key % n] = v
        out.append(freeze(m))
    return out


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
    """dim p^e as an exact kernel dimension."""
    return _space_dim(
        real, [_commute_rows(real.e, real.n), _theta_rows(real, -1), _membership_rows(real)]
    )


def dim_graded(real: MatrixRealization, degree: int, sigma: int) -> int:
    """dim of the theta-eigenspace of g(e, degree); sigma=+1 for k, -1 for p."""
    return _space_dim(
        real,
        [
            _commute_rows(real.e, real.n),
            _grading_rows(real.h_diagonal, degree, real.n),
            _theta_rows(real, sigma),
            _membership_rows(real),
        ],
    )


def p_e0_basis(real: MatrixRealization) -> list[Matrix]:
    return _space_basis(
        real,
        [
            _commute_rows(real.e, real.n),
            _grading_rows(real.h_diagonal, 0, real.n),
            _theta_rows(real, -1),
            _membership_rows(real),
        ],
    )


def g_f_minus1_basis(real: MatrixRealization) -> list[Matrix]:
    return _space_basis(
        real,
        [
            _commute_rows(real.f, real.n),
            _grading_rows(real.h_diagonal, -1, real.n),
            _membership_rows(real),
        ],
    )


def fixed_space_dim(acting: list[Matrix], module: list[Matrix]) -> int:
    """dim of the joint kernel of ad(b) for b in acting, inside span(module)."""
    if not module:
        return 0
    if not acting:
        return len(module)
    rows = []
    for b in acting:
        comms = [commutator(b, c) for c in module]
        n = len(b)
        for r in range(n):
            for c in range(n):
                row = {k: comms[k][r][c] for k in range(len(module)) if comms[k][r][c]}
                if row:
                    rows.append(row)
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
    basis = p_e0_basis(real)
    m = len(basis)
    if m == 0:
        return 0
    rng = random.Random(seed)
    values: list[int] = []
    for _attempt in range(60):
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(m)]
        if all(c == 0 for c in coeffs):
            continue
        x = freeze(zeros(real.n))
        for c, b in zip(coeffs, basis):
            if c:
                x = linalg.mat_add(x, mat_scale(c, b))
        comms = [commutator(x, b) for b in basis]
        rows = []
        for r in range(real.n):
            for ccol in range(real.n):
                row = {k: comms[k][r][ccol] for k in range(m) if comms[k][r][ccol]}
                if row:
                    rows.append(row)
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
    ranks = [n]
    power = matrix
    while ranks[-1] > 0:
        if len(ranks) > n:
            raise NotNilpotent("matrix is not nilpotent")
        ranks.append(mat_rank(power))
        power = mat_mul(power, matrix)
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


def _partial_shift(real: MatrixRealization, i1: int, i2: int) -> Matrix:
    """The elementary map sending row i1 into row i2 one step up and row i2
    back onto row i1 (lengths differing by one)."""
    idx = {tag: k for k, tag in enumerate(real.basis)}
    lam1 = real.diagram.rows[i1][0]
    m = zeros(real.n)
    for a in range(lam1):
        m[idx[(i2, a + 1)]][idx[(i1, a)]] = 1
        m[idx[(i1, a)]][idx[(i2, a)]] = 1
    return freeze(m)


def _row_restriction(real: MatrixRealization, rows: set[int]) -> Matrix:
    idx = {tag: k for k, tag in enumerate(real.basis)}
    m = zeros(real.n)
    for i in rows:
        length = real.diagram.rows[i][0]
        for a in range(length - 1):
            m[idx[(i, a + 1)]][idx[(i, a)]] = 1
    return freeze(m)


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
    used = {i1, i2}
    if real.pair_type is PairType.AII:
        if real.alphas[i1] != real.alphas[i2]:
            i1 = real.partners[i1]
        b1, b2 = real.partners[i1], real.partners[i2]
        used = {i1, i2, b1, b2}
        witness = linalg.mat_add(_partial_shift(real, i1, i2), _partial_shift(real, b1, b2))
    else:
        witness = _partial_shift(real, i1, i2)
    others = set(range(len(real.diagram.rows))) - used
    witness = linalg.mat_add(witness, _row_restriction(real, others))
    _require(commutator(real.e, witness) == freeze(zeros(real.n)), "[e, w] = 0")
    _require(real.theta(witness) == mat_scale(-1, witness), "theta(w) = -w")
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

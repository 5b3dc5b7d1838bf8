"""Exact matrix realizations of diagrams and matrix-level verification.

Every diagram of a classical pair is realized by explicit integer matrices:
the standard triple (e, h, f) on the tagged basis e^a.v_i, the bilinear form
of the ambient algebra (or the form defining k in the A cases), and the
involution, which the realization stores as the integer diagonal sign
matrix D (J = D, or sqrt(-1) * D where J squares to -Id: conjugation by J
is conjugation by D), so every invariant is exact and rational.

Each of e, h, f, the form T and D has at most one nonzero entry in each row
and column, and none between two coupled row groups (a row and its partner
under T).  Each group's block is built and checked once per (pair type,
length, start letters).  ``realize`` reads what the rows alone decide once
per shape (``_plan``) and places the blocks as sparse matrices {(r, c):
value} without zero entries.  T is checked to be a signed permutation,
T[r, pi r] = t_r = +-1, and h and D to be diagonal, so every product with
them is a relabeling or a scaling: T is read once as (pi, t), and theta(x)
= +-x is tested in one pass over the entries of x.

e is a partial permutation with unit entries.  So e^k is one too, and a
truncation rank rank(P e^k) is a count of rows; and [e, x] = 0 makes x
constant along chains of positions (the Toeplitz shape of a centralizer in
gl_n), which ``_chain_kernel`` merges through the form's ties with a signed
union-find, reading each graded kernel dimension and the reduced echelon
basis of p(e,0) off the live classes, with no row built and no elimination.

``certify`` checks, once per row length, that a diagram is realizable
exactly when it is valid, and then the formulas of ``invariants`` on every
valid diagram up to a bound against the kernel dimensions (dim p^e, dim
p(e,i)), the Jordan type, the truncation ranks and the defect, dim
z_{p(e,0)}(x) for a sample x whose powers in p span that Cartan subspace.
The defect's two ranks are taken mod a prime, where a rank can only fall
short, so a sample that passes is certified exactly and an unlucky one
fails.  The oracle's form of the self-large criterion reads the sparse
basis of p(e,0), its torus test ``is_abelian`` and dim p(e,1).
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import accumulate
from math import gcd
from typing import Optional

from . import closure, invariants, linalg
from .diagrams import (
    AbDiagram,
    DEFAULT_BOUND,
    PairParams,
    PairType,
    _canonical,
    _frozen,
    _parity_rules,
    _set,
    enumerate_diagrams,
    pairs_of_size,
)
from .errors import (
    BoundExceeded,
    NoAdjacentLengths,
    NotNilpotent,
    OracleCheckFailed,
    SizeMismatch,
    UnrealizableDiagram,
    WrongType,
)

A_TYPES = (PairType.AI, PairType.AII, PairType.AIII)

Matrix = tuple[tuple, ...]


class MatrixRealization:
    """Integer matrices realizing a diagram for a classical symmetric pair.

    ``basis[k] = (i, a)`` tags basis vector e^a.v_i (row i of the diagram,
    power a).  e, h, f, T and D are the sparse matrices that ``realize``
    places from checked group blocks; ``e``, ``h``, ``f``, ``form`` and
    ``d_matrix`` are dense views built on each access.  T is the Gram matrix
    of the bilinear form, a signed permutation (checked on every block): for
    BD/C types it cuts out g, for AI/AII it cuts out k.  D is the diagonal
    sign matrix of the involution.  The fields cannot be reassigned; each
    realization starts with its own empty ``_graded``.
    """

    # _graded: sigma -> ({ad h-weight: kernel dimension}, basis of the weight-0
    # kernel, of p(e,0) for sigma = -1), filled by _graded_dims
    __slots__ = ("pair_type", "diagram", "n", "basis", "e_map", "h_map", "f_map", "t_map", "d_map",
                 "partners", "_graded")

    def __init__(self, pair_type: PairType, diagram: AbDiagram, n: int,
                 basis: tuple[tuple[int, int], ...], e_map: dict, h_map: dict, f_map: dict,
                 t_map: Optional[dict], d_map: Optional[dict], partners: tuple[int, ...]):
        values = (pair_type, diagram, n, basis, e_map, h_map, f_map, t_map, d_map, partners, {})
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:-1])
        return f"MatrixRealization({fields})"

    __setattr__ = __delattr__ = _frozen

    e = property(lambda self: _dense(self.n, self.e_map))
    h = property(lambda self: _dense(self.n, self.h_map))
    f = property(lambda self: _dense(self.n, self.f_map))
    form = property(lambda self: _dense(self.n, self.t_map))
    d_matrix = property(lambda self: _dense(self.n, self.d_map))

    @property
    def h_diagonal(self) -> tuple[int, ...]:
        return tuple(self.h_map.get((k, k), 0) for k in range(self.n))


# -- sparse matrices -------------------------------------------------------------


def _dense(n: int, x: Optional[dict]) -> Optional[Matrix]:
    if x is None:
        return None
    rows = [[0] * n for _ in range(n)]
    for (r, c), v in x.items():
        rows[r][c] = v
    return tuple(map(tuple, rows))


def _rows(x: dict) -> dict:
    """Nonzero entries of a sparse matrix by row: rows[k] lists (j, x_kj).
    Those of its transpose are its entries by column."""
    rows: dict[int, list] = {}
    for (i, k), v in x.items():
        rows.setdefault(i, []).append((k, v))
    return rows


def _indexed(*xs):
    """Each sparse matrix with the row index ``_mul`` takes of it."""
    return [(x, _rows(x)) for x in xs]


def _mul(a: dict, b_rows: dict) -> dict:
    """a times the sparse matrix whose row index is ``b_rows``."""
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


def _bracket(a, b) -> dict:
    """[a, b] of ``_indexed`` matrices."""
    return _add((1, _mul(a[0], b[1])), (-1, _mul(b[0], a[1])))


def _involution(d: Optional[dict], t: Optional[dict]):
    """D as {r: d_r} and T[r, pi r] = t_r as ({r: pi r}, {r: t_r}), or None."""
    return (None if d is None else {r: v for (r, _c), v in d.items()},
            None if t is None else ({r: c for r, c in t}, {r: v for (r, _c), v in t.items()}))


def _theta_holds(x: dict, sign: int, dd: Optional[dict], perm) -> bool:
    """Whether theta(x) = sign x, in one pass over the entries of x (none 0):
    conjugation by D puts d_r d_c x_rc at (r, c), so each needs d_r d_c =
    sign; for AI/AII (dd None) x -> -T^t x^t T puts -t_r t_c x_rc at (pi c,
    pi r), a bijection, so each needs x_(pi c, pi r) = -sign t_r t_c x_rc."""
    if dd is not None:
        return all(dd.get(r, 0) * dd.get(c, 0) == sign for r, c in x)
    pi, ts = perm
    return all(x.get((pi[c], pi[r]), 0) == -sign * ts[r] * ts[c] * v for (r, c), v in x.items())


def _identities(pair_type: PairType, n: int, e, h, f, t, d):
    """Every identity of a realization, as lazily computed (holds, identity)
    pairs on sparse matrices; t or d is None where there is no form or no
    diagonal involution.  The structure comes first, T a signed permutation
    and then h and D diagonal, so that every later product with T, h or D is
    read as a relabeling or a scaling of entries; only [e, f] = h multiplies."""
    if t is not None:
        rows, cols = tuple(zip(*t)) or ((), ())
        yield (len(t) == n and set(rows) == set(cols) == set(range(n))
               and set(t.values()) <= {1, -1}), "form T is a signed permutation"
    yield set(h) | set(d or ()) <= set(zip(range(n), range(n))), "h and D are diagonal"
    for x, w, identity in ((e, 2, "[h, e] = 2e"), (f, -2, "[h, f] = -2f")):
        yield all(h.get((r, r), 0) - h.get((c, c), 0) == w for r, c in x), identity
    yield _bracket(*_indexed(e, f)) == h, "[e, f] = h"
    dd, perm = _involution(d, t)
    for x, sign, identity in ((e, -1, "theta(e) = -e"), (h, 1, "theta(h) = h"),
                              (f, -1, "theta(f) = -f")):
        yield _theta_holds(x, sign, dd, perm), identity
    if t is not None:
        eta = 1 if d is not None else -1
        eps = pair_type.form_sign if d is not None else (1 if pair_type is PairType.AI else -1)
        yield _transpose(t) == _add((eps, t)), "T^t = eps T"
        # form compatibility: Phi(e.u, v) = -eta Phi(u, e.v), same for f; h skew.
        # x^t T = -sign T x is T^t x^t T = -sign x, that is theta_T(x) = sign x
        for x, sign, identity in ((e, eta, "e^t T = -eta T e"), (f, eta, "f^t T = -eta T f"),
                                  (h, 1, "h^t T = -T h")):
            yield _theta_holds(x, sign, None, perm), identity
    if d is not None:
        yield len(d) == n and set(d.values()) <= {1, -1}, "D^2 = I"
        if t is not None:
            xi = pair_type.involution_square
            yield all(d[r, r] * d[c, c] == xi for r, c in t), "D^t T D = xi T"


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


@lru_cache(maxsize=2048)
def _group_block(pair_type: PairType, length: int, letters: tuple):
    """The realization of one coupled row group: a row of the given length
    alone, or two such rows that T couples, with start letters ``letters``
    (None for plain rows).  Cell a of the group's row r has local index
    r * length + a.  Returns the sparse (e, h, f, T, D) on local indices, T
    None for AIII and D None for AI/AII, once every identity of a
    realization holds on it; None when one fails.

    T pairs cell a of the first row with cell length-1-a of its partner (the
    row itself when alone), at +1 for AI/AII, and at (-1)^a for the types
    with D; the partner's cells take -1 (AII) or eps (-1)^(length-1+a)
    (eps = ``form_sign``) back."""
    template = AbDiagram(tuple((length, s) for s in letters))
    basis, idx, e, h, f = _triple_matrices(template)
    j = len(letters) - 1  # the partner row
    t, d = None, ({(k, k): (-1) ** (a + (letters[i] != "a")) for (i, a), k in idx.items()}
                  if pair_type.uses_letters else None)
    if pair_type is not PairType.AIII:
        t = {}
        for a in range(length):
            first, second = (1, -1) if d is None else (
                (-1) ** a, pair_type.form_sign * (-1) ** (length - 1 + a))
            t[idx[0, a], idx[j, length - 1 - a]] = first
            if j:
                t[idx[j, a], idx[0, length - 1 - a]] = second
    if all(holds for holds, _identity in _identities(pair_type, len(basis), e, h, f, t, d)):
        return e, h, f, t, d
    return None


@lru_cache(maxsize=8192)
def _length_groups(pair_type: PairType, length: int, m: int, na: int, nb: int):
    """The coupled groups of the m rows of one length, na a-rows then nb
    b-rows, as (row, partner) pairs, or None: neighbours for AII (none for
    odd m), each row alone (a self-pair) for AI and AIII.  For the other
    types checked blocks decide, each built only when those before it have
    not, as a coupling depends on the start letters only through their
    product (a one-row one not at all): a row alone, two a-rows, an a-row
    with a b-row.  If a row may couple with itself, every row is a
    self-pair; else neighbours pair when rows of one letter couple and na
    and nb are even, or cross pairs also couple and m is even; else a-row k
    pairs with b-row na + k when cross pairs couple and na == nb; else there
    is no perfect matching.  Each is the matching in which every row in turn
    takes the first admissible partner (itself, then the later rows) that
    leaves the others matchable; ``realize`` checks every pair's block with
    its actual letters.  The cache holds the table of ``certify``."""
    if pair_type is PairType.AII:
        return None if m % 2 else _pairs(2, 1, m // 2)
    if pair_type in A_TYPES or _group_block(pair_type, length, ("a",)) is not None:
        return _pairs(1, 0, m)
    same = _group_block(pair_type, length, ("a", "a")) is not None
    if same and na % 2 == nb % 2 == 0:
        return _pairs(2, 1, m // 2)
    if m % 2 or _group_block(pair_type, length, ("a", "b")) is None:  # both rules left need cross pairs, m even
        return None
    return _pairs(2, 1, m // 2) if same else _pairs(1, na, na) if na == nb else None


@lru_cache(maxsize=1024)
def _pairs(step: int, offset: int, count: int) -> tuple:
    """(step k, step k + offset) for k < count, one tuple shared by every length that pairs so."""
    return tuple((step * k, step * k + offset) for k in range(count))


@lru_cache(maxsize=256)
def _partitions(groups: tuple, m: int) -> bool:
    """Whether the (row, partner) groups hold each of the rows 0 .. m-1 once."""
    return sorted(r for pair in groups for r in {*pair}) == list(range(m))


@lru_cache(maxsize=2048)
def _plan(pair_type: PairType, rows: tuple):
    """What ``realize`` reads off a diagram's rows alone: (n, wrong kind, the
    a-cells of ``letter_counts()`` where the type has a signature, the first
    length that ``_length_groups`` gives no groups or 0, and per length of
    one ``multiplicities()`` pass (length, first row, groups, whether they
    partition the rows)); the rows of one length are contiguous."""
    n, diagram, lengths, first = sum(length for length, _s in rows), _canonical(rows), [], 0
    if rows and diagram.is_ab != pair_type.uses_letters:
        return n, True, None, 0, ()
    for length, (m, na, nb) in diagram.multiplicities().items():
        groups = _length_groups(pair_type, length, m, na, nb)
        if groups is None:
            return n, False, None, length, ()
        lengths.append((length, first, groups, _partitions(groups, m)))
        first += m
    return n, False, diagram.letter_counts()[0] if pair_type.has_signature else None, 0, tuple(lengths)


@lru_cache(maxsize=128)
def realize(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> MatrixRealization:
    """Build a matrix realization, or raise UnrealizableDiagram when no sign
    assignment satisfies the invariants (this certifies diagram validity).
    The checks that can reject it, a length with no coupled groups and then
    the letter counts of ``validate``, read ``_plan`` before any placement.

    The realization is the block-diagonal sum of its coupled row groups,
    those of ``_length_groups`` for each length.  Each group's block comes
    from ``_group_block`` with the rows' actual letters and is placed at the
    rows' offsets.  Every identity of ``_identities`` is block-local: T a
    signed permutation and h, D diagonal on disjoint index sets that cover
    0 .. n-1 sum to the same on 0 .. n-1, and products, brackets, transposes
    and relabelings of block-diagonal matrices are taken block by block.  So
    a sum of checked blocks whose groups partition the rows satisfies every
    identity; ``realize`` requires both premises and does not check the sum
    again (``certify`` does, as a cross-check of the assembly)."""
    params.check(pair_type)
    n, wrong, a_cells, rejected, lengths = _plan(pair_type, diagram.rows)
    if n != params.n:
        raise SizeMismatch(f"diagram has {n} cells, pair has n={params.n}")
    if wrong:
        raise WrongType(f"representation does not match {pair_type.value}")
    if rejected:
        raise UnrealizableDiagram(
            f"no symplectic pairing: odd number of rows of length {rejected}" if pair_type is PairType.AII
            else f"no admissible coupling of the rows of length {rejected}")
    if pair_type.has_signature and a_cells != params.signature[0]:  # p + q = n cells
        raise UnrealizableDiagram(f"involution eigenspace dimensions {(a_cells, n - a_cells)} "
                                  f"do not match the signature {params.signature}")

    rows, starts = diagram.rows, [0, *accumulate(length for length, _s in diagram.rows)]
    maps = e, h, f, t, d = ({}, {}, {}, None if pair_type is PairType.AIII else {},
                            {} if pair_type.uses_letters else None)
    partners = list(range(len(rows)))
    for length, first, groups, partitioned in lengths:
        _require(partitioned, "the coupled groups partition the rows")
        for i, j in ((first + i, first + j) for i, j in groups):
            partners[i], partners[j] = j, i
            block = _group_block(pair_type, length, (rows[i][1],) if i == j else (rows[i][1], rows[j][1]))
            _require(block is not None, f"the group of rows {i} and {j} has a checked block")
            pos = [starts[r] + a for r in dict.fromkeys((i, j)) for a in range(length)]
            for out, x in zip(maps, block):
                if x is not None:
                    out.update({(pos[r], pos[c]): v for (r, c), v in x.items()})
    basis = tuple((i, a) for i, (length, _s) in enumerate(rows) for a in range(length))
    return MatrixRealization(pair_type=pair_type, diagram=diagram, n=n, basis=basis, e_map=e,
                             h_map=h, f_map=f, t_map=t, d_map=d, partners=tuple(partners))


def _require(holds: bool, identity: str) -> None:
    """Soundness check that also runs under ``python -O``."""
    if not holds:
        raise OracleCheckFailed(f"identity fails: {identity}")


def _check_realization(real: MatrixRealization) -> None:
    """Check every identity on the stored matrices."""
    for holds, identity in _identities(real.pair_type, real.n, real.e_map, real.h_map,
                                       real.f_map, real.t_map, real.d_map):
        _require(holds, identity)


# -- graded kernels read off the chains of e ---------------------------------------


def _chain_kernel(real: MatrixRealization, degree: Optional[int], sigma: int):
    """({ad h-weight: dim}, basis at weight 0) of the x in g with [e, x] = 0
    and theta(x) = sigma x, at weight ``degree`` or, for None, at every
    weight, read off the chains of e with no elimination.  e v_c = v_succ(c)
    is required to be a partial permutation with unit entries.
    1. [e, x] = 0 says x_(pred i, c) = x_(i, succ c), a missing term being 0:
       x is constant along each chain (r, c), (succ r, succ c), ..., and 0 on
       one that starts where r has no pred but c has one or ends where c has
       no succ but r has one.  As [h, e] = 2e and theta(e) = -e, its weight
       h_r - h_c and sign d_r d_c are constant; chains of another weight or
       sign are 0 and not read.
    2. The form rows x^t T + s T x = 0 (s = 1 with D, else sigma; none for
       AIII) tie x_rc = -s t_r t_c x_(pi c, pi r), T[r, pi r] = t_r.  A signed
       union-find merges the chains through every tie (T need not map chains
       onto chains).  A class is live unless it holds a dead chain, a tie to
       a chain not read or a sign conflict, as a self-tie with t_r + s t_c !=
       0 is; each live class is one dimension at its weight.
    3. Its vector, +-1 on its positions and +1 at its largest one r*n + c,
       taken in that order, is the reduced echelon nullspace vector of the
       system, whose pivots are its leftmost columns.
    4. For the A types, the trace row costs weight 0 a dimension when a live
       class there has trace t0 != 0: the first one's v0 leaves the basis and
       a later v of trace t != 0 becomes the primitive sgn(t0) (t0 v - t v0).
    It runs on flat arrays: succ, has-pred, h, D and T as (pi, t) per cell, each
    chain's positions r*n + c and weight, each position's chain, the union-find."""
    n, hd, succ, has_pred = real.n, real.h_diagonal, [-1] * real.n, [False] * real.n
    for c, r in _successors(real).items():
        succ[c], has_pred[r] = r, True
    dd = None if real.d_map is None else [real.d_map[k, k] for k in range(n)]
    heads = [k for k in range(n) if not has_pred[k]]
    chains, weights, dead = [], [], []
    for r0 in range(n):
        for c0 in heads if has_pred[r0] else range(n):
            w = hd[r0] - hd[c0]
            if degree is not None and w != degree or dd is not None and dd[r0] * dd[c0] != sigma:
                continue
            r, c, chain = succ[r0], succ[c0], [r0 * n + c0]
            while r >= 0 and c >= 0:
                chain.append(r * n + c)
                r, c = succ[r], succ[c]
            dead.append(not has_pred[r0] and has_pred[c0] or r >= 0)  # r: succ of the last row
            chains.append(chain)
            weights.append(w)
    roots, signs = list(range(len(chains))), [1] * len(chains)  # x_k = signs[k] x_roots[k]
    members = [[k] for k in range(len(chains))]
    if real.t_map is not None:
        s = 1 if real.d_map is not None else sigma
        pi, ts, where = [None] * n, [None] * n, [-1] * (n * n)  # where: the chain of each position
        for k, chain in enumerate(chains):
            for p in chain:
                where[p] = k
        for (r, c), v in real.t_map.items():
            pi[r], ts[r] = c, v
        for k, chain in enumerate(chains):
            for p in chain:
                r, c = p // n, p % n
                j, a = where[pi[c] * n + pi[r]], roots[k]
                b, sb = (a, 0) if j < 0 else (roots[j], signs[j])
                link = -s * ts[r] * ts[c] * signs[k] * sb  # x_a = link x_b
                if a != b:
                    for m in members[a]:
                        roots[m], signs[m] = b, signs[m] * link
                    members[b] += members[a]
                    dead[b] = dead[a] or dead[b]
                elif link != 1:  # a sign conflict, or no partner
                    dead[a] = True
    dims, basis = Counter(), {}
    for k, (chain, root) in enumerate(zip(chains, roots)):
        if not dead[root]:
            dims[weights[k]] += root == k  # each live class once, at its root chain
            if not weights[k]:
                basis.setdefault(root, {}).update(dict.fromkeys(chain, signs[k]))
    basis = [{divmod(p, n): x * v[top] for p, x in v.items()}
             for top, v in sorted((max(v), v) for v in basis.values())]
    traced = [(t, k) for k, v in enumerate(basis) if real.pair_type in A_TYPES
              and (t := sum(x for (r, c), x in v.items() if r == c))]
    if traced:
        dims[0] -= 1
        (t0, k0), v0 = traced[0], basis[traced[0][1]]
        for t, k in traced[1:]:  # sgn(t0) (t0 v - t v0), primitive
            m = gcd(t0, t) * (t0 // abs(t0))
            basis[k] = _add((t0 // m, basis[k]), (-t // m, v0))
        del basis[k0]
    return dims, basis


def _successors(real: MatrixRealization) -> dict:
    """{c: succ c}, e v_c = v_succ(c), once e is required to be a partial permutation."""
    e, succ = real.e_map, {c: r for r, c in real.e_map}
    _require(len(succ) == len(set(succ.values())) == len(e) and set(e.values()) <= {1}
             and {*succ, *succ.values()} <= set(range(real.n)), "e is a partial permutation with unit entries")
    return succ


def _graded_dims(real: MatrixRealization, sigma: int) -> dict[int, int]:
    """{ad h-weight w: dim of the sigma-eigenspace of g(e, w)}, from one
    ``_chain_kernel`` read over every weight, memoised on ``real`` with the
    basis of the weight-0 kernel (of p(e,0) for sigma = -1)."""
    if sigma not in real._graded:
        real._graded[sigma] = _chain_kernel(real, None, sigma)
    return real._graded[sigma][0]


def _brackets(x: dict, module: list[dict]) -> list[dict]:
    """[x, b] for each sparse matrix b of ``module``: the columns of ad x on
    the span of the module, as rows keyed by matrix position."""
    x_col, x_row = _rows(_transpose(x)), _rows(x)
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


# -- centralizer dimensions -----------------------------------------------------


def dim_p_cent_oracle(real: MatrixRealization) -> int:
    """dim p^e as an exact kernel dimension, over every ad h-weight."""
    return sum(_graded_dims(real, -1).values())


def dim_graded(real: MatrixRealization, degree: int, sigma: int) -> int:
    """dim of the theta-eigenspace of g(e, degree); sigma=+1 for k, -1 for p;
    kept from the chain read over every weight once that has run, else read
    off the chains of that weight alone."""
    return (real._graded.get(sigma) or _chain_kernel(real, degree, sigma))[0][degree]


def p_e0_sparse(real: MatrixRealization) -> list[dict]:
    """Basis of p(e,0) as sparse matrices {(r, c): value}, kept from the chain
    read over every weight once that has run, else read at weight 0 alone."""
    return (real._graded.get(-1) or _chain_kernel(real, 0, -1))[1]


def p_e0_basis(real: MatrixRealization) -> list[Matrix]:
    """Basis of p(e,0) as dense matrices."""
    return [_dense(real.n, x) for x in p_e0_sparse(real)]


# -- the defect: a Cartan subspace spanned by powers ------------------------------

_SAMPLES = 20  # 3 of the valid diagrams with n <= 12 need a second, none a third


def _sample(rng: random.Random, basis: list[dict]) -> dict:
    return _add(*[(rng.randint(-10, 10), b) for b in basis])


def _kept_powers(real: MatrixRealization, x: dict):
    """y_j = n x^j - tr(x^j) I for j = 1 .. n, in order, each kept when it lies
    in p: theta(y_j) = -y_j and, for the BD/C types, y_j^t T = -T y_j."""
    n, power, x_rows, (dd, perm) = real.n, x, _rows(x), _involution(real.d_map, real.t_map)
    eye = {(k, k): 1 for k in range(n)}
    for _j in range(n):
        y = _add((n, power), (-sum(power.get((k, k), 0) for k in range(n)), eye))
        if _theta_holds(y, -1, dd, perm) and (dd is None or perm is None or _theta_holds(y, 1, None, perm)):
            yield y
        power = _mul(power, x_rows)


def defect_oracle(real: MatrixRealization) -> int:
    """Rank of p(e,0), exactly (Kostant-Rallis): k = dim z for the first
    sample x whose kept powers y_j have a Gram matrix tr(y_i y_j) of rank k,
    z = z_{p(e,0)}(x); OracleCheckFailed when none has.  Each y_j lies in p
    and commutes with e, h and x, so it lies in z, and the y_j commute:
    rank(Gram) <= dim span(y) <= dim z = k.  Rank k forces z = span(y),
    abelian with a nondegenerate trace form, so a Cartan subspace: x is
    semisimple, its nilpotent part lying in z and trace-orthogonal to z, and
    z, an abelian ideal of the reductive z_{g(e,0)}(x), is central.  Abelian
    z is not enough: E_02 + E_13 on AIII a/a/b/b has one of dimension 4.

    Both ranks are taken mod p = ``linalg.PRIME``, on integer matrices: ad x
    on the integer basis, for an integer x, and the Gram matrix of integer
    y_j.  For an integer M, rank_p(M) <= rank_Q(M), as a minor nonzero mod p
    is nonzero over Z.  So k_p = len(basis) - rank_p(ad x) >= dim z, and
    rank_p(Gram) <= rank_Q(Gram) <= dim span(y) <= dim z <= k_p: a sample is
    accepted when rank_p(Gram) = k_p, which makes every step an equality,
    and the argument above holds with k = k_p.  A sample for which p is
    unlucky fails and the next one is drawn; the result is never a wrong
    defect."""
    _graded_dims(real, -1)  # the chain read over every weight keeps the basis
    basis = p_e0_sparse(real)
    if not basis:
        return 0
    rng = random.Random(0)
    for _attempt in range(_SAMPLES):
        x = _sample(rng, basis)
        k, kept = len(basis) - linalg.rank_mod_p(_brackets(x, basis)), []
        for y in _kept_powers(real, x):
            kept.append(y)
            if len(kept) >= k and linalg.rank_mod_p(
                    [{j: sum(v * b.get((c, r), 0) for (r, c), v in a.items()) for j, b in enumerate(kept)}
                     for a in kept]) == k:
                return k
    raise OracleCheckFailed(f"no Cartan subspace certified in {_SAMPLES} samples of p(e,0)")


# -- Jordan type and witnesses ---------------------------------------------------


def jordan_type(matrix: Matrix) -> tuple[int, ...]:
    """Partition of a nilpotent matrix from the rank sequence of its powers."""
    return _jordan_type(len(matrix), {(r, c): v for r, row in enumerate(matrix) for c, v in enumerate(row) if v})


def _jordan_type(n: int, x: dict) -> tuple[int, ...]:
    """``jordan_type`` of the n x n sparse matrix x."""
    ranks = [n]
    power, x_rows = x, _rows(x)
    while ranks[-1] > 0:
        if len(ranks) > n:
            raise NotNilpotent("matrix is not nilpotent")
        ranks.append(linalg.rank([dict(row) for row in _rows(power).values()]))
        power = _mul(power, x_rows)
    return _partition(ranks)


def _partition(ranks) -> tuple[int, ...]:
    """The Jordan type of a nilpotent x with rank x^k = ranks[k], k >= 0, and
    x^k = 0 past the end: ranks[k - 1] - ranks[k] blocks have size >= k."""
    at_least = [r - s for r, s in zip(ranks, [*ranks[1:], 0])] + [0]
    return tuple(k for k in range(len(ranks), 0, -1) for _ in range(at_least[k - 1] - at_least[k]))


def truncation_ranks(real: MatrixRealization) -> tuple[int, ...]:
    """rank(P_a e^k) then rank(P_b e^k) for k = 0 .. n-1, with P_a = (I + D)/2
    and P_b = (I - D)/2, or rank(e^k) for the types without D: the layout of
    ``closure._truncation_profile``, whose fields the closure order compares.
    e is required to be a partial permutation with unit entries, so e^k is
    one too, and rank(P e^k) counts the rows of its entries that P keeps."""
    succ, d, ranks, rows = _successors(real), real.d_map, [], range(real.n)  # rows: those of e^k's entries
    for _k in range(real.n):
        ranks += [len(rows)] if d is None else [sum(d[r, r] == sign for r in rows) for sign in (1, -1)]
        rows = [succ[r] for r in rows if r in succ]
    return tuple(ranks)


def _dominates_strictly(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """lam > mu in dominance order of partitions of the same size."""
    pad = (0,) * max(len(lam), len(mu))
    sums = zip(accumulate(lam + pad), accumulate(mu + pad))
    return lam != mu and sum(lam) == sum(mu) and all(a >= b for a, b in sums)


def commuting_witness(real: MatrixRealization) -> Matrix:
    """A nilpotent element of p^e with a strictly larger diagram, built from
    two rows of adjacent lengths (types AI and AII only): the first rows of
    the two lengths that ``AbDiagram.adjacent_lengths`` names."""
    if real.pair_type not in (PairType.AI, PairType.AII):
        raise WrongType("witness construction applies to AI and AII")
    lengths = real.diagram.adjacent_lengths()
    if lengths is None:
        raise NoAdjacentLengths("no two rows with lengths differing by one")
    row_lengths = [d for d, _s in real.diagram.rows]
    i1, i2 = (row_lengths.index(d) for d in lengths)
    pairs = [(i1, i2)]
    if real.pair_type is PairType.AII:
        # T pairs row i with partners[i] at sign +1 when partners[i] > i
        if (real.partners[i1] > i1) != (real.partners[i2] > i2):
            i1 = real.partners[i1]
        pairs = [(i1, i2), (real.partners[i1], real.partners[i2])]
    rows, idx, w = real.diagram.rows, {tag: k for k, tag in enumerate(real.basis)}, {}
    for i1, i2 in pairs:  # row i1 one step up into row i2, and row i2 back onto row i1
        for a in range(rows[i1][0]):
            w[idx[i2, a + 1], idx[i1, a]] = w[idx[i1, a], idx[i2, a]] = 1
    for i in set(range(len(rows))) - {i for pair in pairs for i in pair}:  # e on the other rows
        w.update({(idx[i, a + 1], idx[i, a]): 1 for a in range(rows[i][0] - 1)})
    _require(not _bracket(*_indexed(real.e_map, w)), "[e, w] = 0")
    _require(_theta_holds(w, -1, None, _involution(None, real.t_map)[1]), "theta(w) = -w")
    _require(_dominates_strictly(_jordan_type(real.n, w), real.diagram.partition),
             "Jordan type of w strictly dominates the diagram")
    return _dense(real.n, w)


# -- the torus test ---------------------------------------------------------------


def is_abelian(basis: list[dict]) -> bool:
    """Whether [x, y] = 0 for all x, y in the span of the sparse matrices,
    testing pairs of basis elements up to the first nonzero bracket.  On
    ``p_e0_sparse`` this decides exactly whether p(e,0) is a torus: an abelian
    p(e,0) is an abelian ideal of the reductive g(e,0) = k(e,0) + p(e,0), so
    it lies in its centre."""
    indexed = _indexed(*basis)
    return not any(_bracket(x, y) for i, x in enumerate(indexed) for y in indexed[:i])


# -- the certification sweep --------------------------------------------------------


def certify(bound: int) -> tuple[int, list[str]]:
    """A diagram is realizable exactly when it is valid, and on the
    realization of every valid diagram of every pair with n <= bound the
    Jordan type of e, the truncation profile of the closure order, dim p^e,
    dim p(e,0) (descriptor and graded count), dim p(e,1) and the defect
    equal the oracle's.  Returns (realizations checked, failure lines).  A
    negative bound raises ValueError, and one above DEFAULT_BOUND
    BoundExceeded, before any check.

    The first holds for n <= DEFAULT_BOUND by a lemma checked first, as a
    table over every type and (d, m, a, b) with d m <= DEFAULT_BOUND: the
    rows have coupled groups (``_length_groups``) exactly when
    ``_parity_rules`` passes, and for CI and DIII coupled rows have as many
    a-cells as b-cells.  ``realize`` rejects in exactly three places (an odd
    m for AII, a length with no groups, letter counts that miss the
    signature) and ``validate`` on the parity rules and on the same letter
    counts, which for CI and DIII must be (n/2, n/2), so the table decides
    both alike.  The sweep then realizes only the valid diagrams, after the
    blocks that the table builds for lengths above the bound are dropped."""
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    if bound > DEFAULT_BOUND:
        raise BoundExceeded(f"n={bound} exceeds bound {DEFAULT_BOUND}")
    checked, failures = 0, []
    table = [(pt, d, m, a, b) for pt in PairType for d in range(1, DEFAULT_BOUND + 1)
             for m in range(1, DEFAULT_BOUND // d + 1)
             for a, b in (((a, m - a) for a in range(m + 1)) if pt.uses_letters else [(0, 0)])]
    for entry in (entry for entry in table if entry[1] > bound):  # the lengths the sweep never places
        _length_groups(*entry)
    _group_block.cache_clear()
    for pt, d, m, a, b in table:
        coupled, rule = _length_groups(pt, d, m, a, b) is not None, _parity_rules(pt, d, m, a, b)
        cells = AbDiagram(((d, "a"),) * a + ((d, "b"),) * b).letter_counts()
        unbalanced = coupled and pt in (PairType.CI, PairType.DIII) and cells[0] != cells[1]
        if coupled == (rule is not None) or unbalanced:
            failures.append(f"{pt.value} (d, m, a, b) = {(d, m, a, b)}: coupled={coupled}, "
                            f"parity rule {rule!r}, letter counts {cells}")
    for n in range(bound + 1):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                real = realize(d, pt, prm)
                _check_realization(real)  # the assembly from blocks, checked whole
                checked += 1
                p_cent = dim_p_cent_oracle(real)  # reads every weight once
                p0 = dim_graded(real, 0, -1)
                trunc = truncation_ranks(real)  # rank e^k is the sum of its two sign blocks
                ranks = trunc if real.d_map is None else list(map(sum, zip(trunc[::2], trunc[1::2])))
                checks = [
                    ("jordan type", d.partition, _partition(ranks)),
                    ("truncation profile", closure._truncation_profile(d), trunc),
                    ("dim p^e", invariants.dim_p_cent(d, pt, prm), p_cent),
                    ("dim p(e,0)", invariants.dim_p0(d, pt), p0),
                    ("graded dim p(e,0)", invariants.dim_p_graded(d, pt, 0), p0),
                    ("dim p(e,1)", invariants.dim_p_graded(d, pt, 1), dim_graded(real, 1, -1)),
                ]
                if d.rows:
                    checks.append(("defect", invariants.defect(d, pt), defect_oracle(real)))
                failures.extend(f"{pt.value} {prm}: {what} mismatch {d.text()!r}"
                                for what, formula, matrix in checks if formula != matrix)
    return checked, failures

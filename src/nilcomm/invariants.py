"""Numerical invariants of a nilpotent orbit computed from its diagram.

The centralizer of the standard triple of an orbit decomposes, one reductive
symmetric pair per occupied row length; which pair occurs is dictated by the
pair type and the parity of the length (``diagrams.BLOCK_TYPE``).  Defect and
dim p(e,0) are sums over the occupied lengths of one cached term each, a
function of (pair type, d, m_d, a_d, b_d) only, and the two orbit classes of
the paper are stated by their definitions on them: an orbit is distinguished
when its defect is 0 (p(e,0) holds no nonzero semisimple element), and
almost-distinguished when p(e,0) is a torus, i.e. every block's p-part is as
large as its rank.  The ambient dim p is read off the zero orbit, whose cells
all have weight 0.

dim p^e = dim p - dim K.e, and dim K.e = dim G.e / 2 for e in p
(Kostant-Rallis), with dim G.e a closed form in the partition.  The graded
dimensions dim p(e,i) = dim p(i,h) - dim k(i+2,h), i >= 0, hold because ad e
maps p(i,h) onto k(i+2,h); the dimensions of p(j,h) and k(j,h) are counted
on ordered pairs of row kinds (length, start letter), so no matrix is built
here.  The test suite certifies every count against the exact matrix oracle.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .diagrams import (BLOCK_TYPE, DEFAULT_BOUND, AbDiagram, PairParams, PairType, _blocks,
                       _check_size, _expected_letters, _walk, validate)
from .errors import UnrealizableDiagram


@lru_cache(maxsize=4096)
def _length_term(pair_type: PairType, d: int, m: int, a: int, b: int) -> tuple[int, int]:
    """(rank, dim of the p-part) of the centralizer block of the m rows of
    length d, a_d = a of them starting with a and b_d = b with b; the block's
    pair type is ``BLOCK_TYPE[pair_type]`` at the parity of d.  The rank is
    the dimension of a maximal torus in the p-part."""
    kind = BLOCK_TYPE[pair_type][d % 2 == 0]
    if kind is PairType.AI:
        return m, m * (m + 1) // 2
    if kind is PairType.AII:
        return m // 2, m * (m - 1) // 2
    if kind is PairType.AIII:
        return min(a, b), 2 * a * b
    if kind is PairType.BDI:
        return min(a, b), a * b
    if kind is PairType.CI:
        return m // 2, m * m // 4 + m // 2
    if kind is PairType.DIII:
        return m // 4, m * m // 4 - m // 2
    return min(a, b) // 2, a * b  # CII


def _p0(diagram: AbDiagram, pair_type: PairType) -> tuple[int, int]:
    """(rank, dim) of p(e,0): the per-length terms summed over the occupied
    lengths, less 1 for AI/AII with rows, where the ambient gl-centralizer
    carries one extra central torus dimension inside p that the trace
    condition removes (the identity is theta-negative there).  For AIII the
    identity lies in k, and a diagram without rows has no gl-centre."""
    rank = dim = 0
    for d, (m, a, b) in diagram.multiplicities().items():
        r, p = _length_term(pair_type, d, m, a, b)
        rank += r
        dim += p
    cut = 1 if diagram.rows and pair_type in (PairType.AI, PairType.AII) else 0
    return rank - cut, dim - cut


def defect(diagram: AbDiagram, pair_type: PairType) -> int:
    """Rank of p(e,0); 0 for the empty diagram, the only orbit of a zero
    pair."""
    return _p0(diagram, pair_type)[0]


def dim_p0(diagram: AbDiagram, pair_type: PairType) -> int:
    """dim p(e,0), summed over the centralizer blocks."""
    return _p0(diagram, pair_type)[1]


def is_distinguished(diagram: AbDiagram, pair_type: PairType) -> bool:
    """Defect 0: p(e,0) holds no nonzero semisimple element."""
    return defect(diagram, pair_type) == 0


def orbit_class(diagram: AbDiagram, pair_type: PairType) -> tuple[int, bool]:
    """(defect, almost-distinguished); the orbit is distinguished when the
    defect is 0, and almost-distinguished when p(e,0) is a torus: every
    block's p-part is as large as its rank.  No p-part is smaller than its
    rank, so that is dim p(e,0) == defect."""
    rank, dim = _p0(diagram, pair_type)
    return rank, rank == dim


def is_almost_distinguished(diagram: AbDiagram, pair_type: PairType) -> bool:
    """p(e,0) is a torus."""
    return orbit_class(diagram, pair_type)[1]


@lru_cache(maxsize=1024)
def _torus_blocks(pair_type: PairType, d: int, m: int) -> tuple[tuple[tuple, int, int], ...]:
    """The row blocks of _blocks(pair_type, d, m) whose centralizer block is a
    torus (its p-part as large as its rank), weighted by that rank."""
    terms = ((rows, odd_a, _length_term(pair_type, d, m, a := rows.count((d, "a")), m - a))
             for rows, odd_a, _ in _blocks(pair_type, d, m))
    return tuple((rows, odd_a, rank) for rows, odd_a, (rank, dim) in terms if rank == dim)


def almost_distinguished(pair_type: PairType, params: PairParams,
                         bound: int = DEFAULT_BOUND) -> list[tuple[AbDiagram, int]]:
    """(diagram, defect) of the almost-distinguished orbits of the pair, in
    enumeration order: p(e,0) is a torus when every block is one (the trace
    cut takes 1 from both sums), so the enumeration walk over torus blocks
    builds them alone and sums their ranks.  Checked as enumerate_diagrams."""
    _check_size(pair_type, params, bound)
    cut = 1 if params.n and not pair_type.uses_letters else 0
    return [(g, rank - cut) for g, rank in _walk(pair_type, params, _torus_blocks)]


def _theta_dims(diagram: AbDiagram, pair_type: PairType, w: int) -> tuple[int, int]:
    """(dim k, dim p) of the ambient algebra at ad h-weight w, counted on
    ordered pairs of row kinds (length, start letter).  A row of length d has
    cells of weight 2i - d + 1 and sign b (-1)^i, i < d, where b = -1 for a
    row starting with b and 1 otherwise.  gl is spanned by the units of cell
    pairs (k, l), of weight mu_k - mu_l; rows of lengths d1, d2 meet at
    weight w in min(d1, d2, d1 - t, d2 + t) pairs with i1 - i2 = t =
    (w + d1 - d2)/2, all of sign b1 b2 (-1)^t.  so and sp are spanned by the
    unordered cell pairs (k < l, resp. k <= l) of weight mu_k + mu_l; reading
    the second row backwards turns this into the same count, with the sign
    times (-1)^(d2 - 1)."""
    return _kind_dims(Counter(diagram.rows), pair_type, w)


def _kind_dims(kinds: Counter, pair_type: PairType, w: int) -> tuple[int, int]:
    """``_theta_dims`` read off the counts of the row kinds (length, start letter)."""
    form = pair_type.form_sign
    same = other = 0  # ordered cell pairs of weight w whose signs agree, differ
    for (d1, s1), m1 in kinds.items():
        for (d2, s2), m2 in kinds.items():
            t, odd = divmod(w + d1 - d2, 2)
            count = min(d1, d2, d1 - t, d2 + t)
            if odd or count <= 0:
                continue
            if ((s1 == "b") + (s2 == "b") + t + (d2 - 1 if form else 0)) % 2:
                other += m1 * m2 * count
            else:
                same += m1 * m2 * count
    # the cells of weight w / 2: the theta-fixed units of AI/AII, the
    # diagonal pairs k = l of so/sp (all of sign +1)
    half, odd = divmod(w, 2)
    diag = 0 if odd else sum(m for (d, _), m in kinds.items() if abs(half) < d and (half + d) % 2)
    cut = 1 if (w == 0 and kinds) else 0  # remove the trace direction of gl
    if pair_type is PairType.AIII:
        return (same - cut, other)
    if pair_type in (PairType.AI, PairType.AII):
        # theta permutes the units; it fixes those of the cells of weight
        # w / 2, with sign -1 (AI) or +1 (AII)
        total, fixed = same + other, (diag if pair_type is PairType.AII else -diag)
        return ((total + fixed) // 2, (total - fixed) // 2 - cut)
    # the sign of a pair is xi~ d_k d_l, where xi~ = +1 when J^2 = Id and -1
    # when J^2 = -Id
    plus, minus = (same - form * diag) // 2, other // 2
    return (plus, minus) if pair_type.involution_square == 1 else (minus, plus)


def dim_p_graded(diagram: AbDiagram, pair_type: PairType, i: int) -> int:
    """dim p(e,i) for i >= 0: the raising map is onto, so the kernel dimension
    is dim p(i,h) - dim k(i+2,h), both read off one count of the row kinds."""
    kinds = Counter(diagram.rows)
    return _kind_dims(kinds, pair_type, i)[1] - _kind_dims(kinds, pair_type, i + 2)[0]


@lru_cache(maxsize=1024)
def dim_p(pair_type: PairType, params: PairParams) -> int:
    """dim p of the ambient symmetric pair, read off its zero orbit (n rows
    of length 1): every cell has weight 0, so the weight-0 count is (dim k,
    dim p)."""
    params.check(pair_type)
    if pair_type.uses_letters:
        a, b = _expected_letters(pair_type, params)
        zero = AbDiagram(((1, "a"),) * a + ((1, "b"),) * b)
    else:
        zero = AbDiagram(((1, None),) * params.n)
    return _theta_dims(zero, pair_type, 0)[1]


@lru_cache(maxsize=1024)
def dim_p_cent(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> int:
    """dim p^e (_dim_p_cent); UnrealizableDiagram, naming the violations,
    for an invalid diagram."""
    violations = validate(diagram, pair_type, params)
    if violations:
        raise UnrealizableDiagram("; ".join(str(v) for v in violations))
    return _dim_p_cent(diagram, pair_type, params)


@lru_cache(maxsize=4096)
def _dim_p_cent(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> int:
    """dim p^e = dim p - dim K.e, and dim K.e = dim G.e / 2 (Kostant-Rallis).
    For gl_n, dim G.e = n^2 - sum_j (2j + 1) lambda_j over the rows sorted by
    decreasing length, j >= 0; for so_n (sp_n) it is half of that after
    subtracting (adding) n - #odd rows (Collingwood-McGovern 6.1).  The
    diagram is not validated: the closure order reads it for enumerated
    diagrams only."""
    n, lengths = diagram.n, diagram.partition
    orbit = n * n - sum((2 * j + 1) * d for j, d in enumerate(lengths))
    if pair_type.form_sign:
        orbit = (orbit - pair_type.form_sign * (n - sum(d % 2 for d in lengths))) // 2
    return dim_p(pair_type, params) - orbit // 2


def component_dim(pair_type: PairType, params: PairParams, delta: int) -> int:
    """dim of the commuting-variety subvariety generated by an orbit of
    defect delta."""
    return dim_p(pair_type, params) - delta


class OrbitInvariants(NamedTuple):
    defect: int
    dim_p_cent: int
    dim_orbit: int
    dim_p0: int
    distinguished: bool
    almost: bool
    component_dim: int

    def to_json(self) -> dict:
        return self._asdict()


def orbit_invariants(
    diagram: AbDiagram, pair_type: PairType, params: PairParams
) -> OrbitInvariants:
    delta, p0 = _p0(diagram, pair_type)
    cent = dim_p_cent(diagram, pair_type, params)
    return OrbitInvariants(
        defect=delta,
        dim_p_cent=cent,
        dim_orbit=dim_p(pair_type, params) - cent,
        dim_p0=p0,
        distinguished=delta == 0,
        almost=delta == p0,
        component_dim=component_dim(pair_type, params, delta),
    )

"""Numerical invariants of a nilpotent orbit computed from its diagram.

The centralizer of the standard triple of an orbit decomposes, one reductive
symmetric pair per occupied row length; which pair occurs is dictated by the
pair type and the parity of the length (``diagrams.BLOCK_TYPE``).  Defect and
dim p(e,0) read off these descriptors, and the two orbit classes of the paper
are stated by their definitions on them: an orbit is distinguished when its
defect is 0 (p(e,0) holds no nonzero semisimple element), and
almost-distinguished when p(e,0) is a torus, i.e. every block's p-part is as
large as its rank.  The ambient dimensions are those of the zero orbit, whose
cells all have weight 0.

dim p^e = dim p - dim K.e, and dim K.e = dim G.e / 2 for e in p
(Kostant-Rallis), with dim G.e a closed form in the partition.  The graded
dimensions dim p(e,i) = dim p(i,h) - dim k(i+2,h), i >= 0, hold because ad e
maps p(i,h) onto k(i+2,h); the dimensions of p(j,h) and k(j,h) are counted
on ordered pairs of row kinds (length, start letter), so no matrix is built
here.  The test suite certifies every count against the exact matrix oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .diagrams import BLOCK_TYPE, AbDiagram, PairParams, PairType, _expected_letters, validate
from .errors import UnrealizableDiagram


class PairDescriptor(NamedTuple):
    """One reductive symmetric pair in the centralizer decomposition: the
    block attached to row length d, of pair type ``kind``
    (``diagrams.BLOCK_TYPE``), with sizes (m, a, b) taken from the diagram."""

    kind: PairType
    d: int
    m: int
    a: int = 0
    b: int = 0

    @property
    def rank(self) -> int:
        """Dimension of a maximal torus in the (-1)-eigenspace of the pair."""
        if self.kind is PairType.AI:
            return self.m
        if self.kind in (PairType.AII, PairType.CI):
            return self.m // 2
        if self.kind in (PairType.AIII, PairType.BDI):
            return min(self.a, self.b)
        if self.kind is PairType.DIII:
            return self.m // 4
        return min(self.a, self.b) // 2  # CII

    @property
    def dim_p_part(self) -> int:
        """Dimension of the (-1)-eigenspace of the pair."""
        m, a, b = self.m, self.a, self.b
        if self.kind is PairType.AI:
            return m * (m + 1) // 2
        if self.kind is PairType.AII:
            return m * (m - 1) // 2
        if self.kind is PairType.AIII:
            return 2 * a * b
        if self.kind is PairType.CI:
            return m * m // 4 + m // 2
        if self.kind is PairType.DIII:
            return m * m // 4 - m // 2
        return a * b  # BDI, CII


def centralizer_pairs(diagram: AbDiagram, pair_type: PairType) -> tuple[PairDescriptor, ...]:
    """The reductive symmetric pair attached to each occupied length."""
    return tuple(PairDescriptor(BLOCK_TYPE[pair_type][d % 2 == 0], d, m, a, b)
                 for d, (m, a, b) in diagram.multiplicities().items())


def _trace_cut(pairs: tuple[PairDescriptor, ...], pair_type: PairType) -> int:
    """1 where the ambient gl-centralizer carries one extra central torus
    dimension inside p, which the trace condition removes: AI/AII with rows
    (the identity is theta-negative there).  For AIII the identity lies in k,
    and a diagram without rows has no gl-centre."""
    return 1 if pairs and pair_type in (PairType.AI, PairType.AII) else 0


def _defect(pairs: tuple[PairDescriptor, ...], pair_type: PairType) -> int:
    return sum(desc.rank for desc in pairs) - _trace_cut(pairs, pair_type)


def _is_torus(pairs: tuple[PairDescriptor, ...]) -> bool:
    """Every descriptor block's p-part equals its rank.  This is dim p(e,0)
    == defect, as the AI/AII trace correction cancels."""
    return all(desc.dim_p_part == desc.rank for desc in pairs)


def defect(diagram: AbDiagram, pair_type: PairType) -> int:
    """Rank of p(e,0); 0 for the empty diagram, the only orbit of a zero
    pair."""
    return _defect(centralizer_pairs(diagram, pair_type), pair_type)


def dim_p0(diagram: AbDiagram, pair_type: PairType) -> int:
    """dim p(e,0), summed over the centralizer descriptors."""
    pairs = centralizer_pairs(diagram, pair_type)
    return sum(desc.dim_p_part for desc in pairs) - _trace_cut(pairs, pair_type)


def is_distinguished(diagram: AbDiagram, pair_type: PairType) -> bool:
    """Defect 0: p(e,0) holds no nonzero semisimple element."""
    return defect(diagram, pair_type) == 0


def is_almost_distinguished(diagram: AbDiagram, pair_type: PairType) -> bool:
    """p(e,0) is a torus."""
    return _is_torus(centralizer_pairs(diagram, pair_type))


def orbit_class(diagram: AbDiagram, pair_type: PairType) -> tuple[int, bool]:
    """(defect, almost-distinguished) from one build of the descriptors; the
    orbit is distinguished when the defect is 0."""
    pairs = centralizer_pairs(diagram, pair_type)
    return _defect(pairs, pair_type), _is_torus(pairs)


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
    kinds = Counter(diagram.rows)
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
    is dim p(i,h) - dim k(i+2,h)."""
    return _theta_dims(diagram, pair_type, i)[1] - _theta_dims(diagram, pair_type, i + 2)[0]


@dataclass(frozen=True)
class AmbientDims:
    dim_p: int
    rank_p: int
    dim_k: int


@lru_cache(maxsize=1024)
def ambient_dims(pair_type: PairType, params: PairParams) -> AmbientDims:
    """Dimensions of the ambient symmetric pair, read off its zero orbit (n
    rows of length 1): every cell has weight 0, so the weight-0 count is
    (dim k, dim p), and rank p is the defect of the zero orbit."""
    params.check(pair_type)
    if pair_type.uses_letters:
        a, b = _expected_letters(pair_type, params)
        zero = AbDiagram(((1, "a"),) * a + ((1, "b"),) * b)
    else:
        zero = AbDiagram(((1, None),) * params.n)
    dim_k, dim_p = _theta_dims(zero, pair_type, 0)
    return AmbientDims(dim_p, defect(zero, pair_type), dim_k)


@lru_cache(maxsize=4096)
def dim_p_cent(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> int:
    """dim p^e = dim p - dim K.e, and dim K.e = dim G.e / 2 (Kostant-Rallis).
    For gl_n, dim G.e = n^2 - sum_j (2j + 1) lambda_j over the rows sorted by
    decreasing length, j >= 0; for so_n (sp_n) it is half of that after
    subtracting (adding) n - #odd rows (Collingwood-McGovern 6.1).  Raises
    UnrealizableDiagram, naming the violations, for an invalid diagram."""
    violations = validate(diagram, pair_type, params)
    if violations:
        raise UnrealizableDiagram("; ".join(str(v) for v in violations))
    n, lengths = diagram.n, diagram.partition
    orbit = n * n - sum((2 * j + 1) * d for j, d in enumerate(lengths))
    if pair_type.form_sign:
        orbit = (orbit - pair_type.form_sign * (n - sum(d % 2 for d in lengths))) // 2
    return ambient_dims(pair_type, params).dim_p - orbit // 2


def dim_orbit(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> int:
    return ambient_dims(pair_type, params).dim_p - dim_p_cent(diagram, pair_type, params)


def component_dim(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> int:
    """dim of the commuting-variety subvariety generated by the orbit."""
    return ambient_dims(pair_type, params).dim_p - defect(diagram, pair_type)


@dataclass(frozen=True)
class OrbitInvariants:
    defect: int
    dim_p_cent: int
    dim_orbit: int
    dim_p0: int
    distinguished: bool
    almost: bool
    component_dim: int

    def to_json(self) -> dict:
        return {
            "defect": self.defect,
            "dim_p_cent": self.dim_p_cent,
            "dim_orbit": self.dim_orbit,
            "dim_p0": self.dim_p0,
            "distinguished": self.distinguished,
            "almost": self.almost,
            "component_dim": self.component_dim,
        }


def orbit_invariants(
    diagram: AbDiagram, pair_type: PairType, params: PairParams
) -> OrbitInvariants:
    return OrbitInvariants(
        defect=defect(diagram, pair_type),
        dim_p_cent=dim_p_cent(diagram, pair_type, params),
        dim_orbit=dim_orbit(diagram, pair_type, params),
        dim_p0=dim_p0(diagram, pair_type),
        distinguished=is_distinguished(diagram, pair_type),
        almost=is_almost_distinguished(diagram, pair_type),
        component_dim=component_dim(diagram, pair_type, params),
    )

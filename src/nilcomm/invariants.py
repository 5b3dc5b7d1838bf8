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

dim p^e is one graded count for every pair type: dim p^e = sum over i >= 0 of
dim p(e,i) = dim p(i,h) - dim k(i+2,h).  The centralizer g^e lies in the
nonnegative ad h-weights, and by sl2 theory ad e maps g(i,h) onto g(i+2,h) for
i >= -1; as e lies in p it maps p(i,h) onto k(i+2,h) (Kostant-Rallis).  The
dimensions of p(j,h) and k(j,h) are counted on the cells of the diagram, so
no matrix is built here; the test suite certifies every count against the
exact matrix oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .diagrams import BLOCK_TYPE, AbDiagram, PairParams, PairType, _expected_letters, validate
from .errors import UnrealizableDiagram


class PairDescriptor(NamedTuple):
    """One reductive symmetric pair in the centralizer decomposition: the
    block attached to row length d, with sizes (m, a, b) taken from the
    diagram."""

    kind: str  # 'gl_so' | 'gl_sp' | 'gl_glgl' | 'so_soso' | 'sp_gl' | 'so_gl' | 'sp_spsp'
    d: int
    m: int
    a: int = 0
    b: int = 0

    @property
    def rank(self) -> int:
        """Dimension of a maximal torus in the (-1)-eigenspace of the pair."""
        if self.kind == "gl_so":
            return self.m
        if self.kind in ("gl_sp", "sp_gl"):
            return self.m // 2
        if self.kind in ("gl_glgl", "so_soso"):
            return min(self.a, self.b)
        if self.kind == "so_gl":
            return self.m // 4
        if self.kind == "sp_spsp":
            return min(self.a, self.b) // 2
        raise ValueError(self.kind)

    @property
    def dim_p_part(self) -> int:
        """Dimension of the (-1)-eigenspace of the pair."""
        m, a, b = self.m, self.a, self.b
        if self.kind == "gl_so":
            return m * (m + 1) // 2
        if self.kind == "gl_sp":
            return m * (m - 1) // 2
        if self.kind == "gl_glgl":
            return 2 * a * b
        if self.kind == "so_soso":
            return a * b
        if self.kind == "sp_gl":
            return m * m // 4 + m // 2
        if self.kind == "so_gl":
            return m * m // 4 - m // 2
        if self.kind == "sp_spsp":
            return a * b
        raise ValueError(self.kind)


# the kind of the descriptor of each block pair type (diagrams.BLOCK_TYPE)
_KIND = {
    PairType.AI: "gl_so",
    PairType.AII: "gl_sp",
    PairType.AIII: "gl_glgl",
    PairType.BDI: "so_soso",
    PairType.CI: "sp_gl",
    PairType.DIII: "so_gl",
    PairType.CII: "sp_spsp",
}

# pair type -> (kind for odd d, kind for even d)
_DESCRIPTOR_KIND = {pt: tuple(_KIND[block] for block in blocks) for pt, blocks in BLOCK_TYPE.items()}


def centralizer_pairs(diagram: AbDiagram, pair_type: PairType) -> tuple[PairDescriptor, ...]:
    """The reductive symmetric pair attached to each occupied length."""
    out = []
    for d, (m, a, b) in diagram.multiplicities().items():
        kind = _DESCRIPTOR_KIND[pair_type][0 if d % 2 else 1]
        out.append(PairDescriptor(kind, d, m, a, b))
    return tuple(out)


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


def _cells(diagram: AbDiagram) -> list[tuple[int, int]]:
    """(weight, involution sign) of every basis cell; sign is 1 for plain rows."""
    out = []
    for d, s in diagram.rows:
        base = 1 if s in (None, "a") else -1
        for a in range(d):
            out.append((2 * a - d + 1, base * (-1) ** a))
    return out


def _theta_dims(diagram: AbDiagram, pair_type: PairType, lo: int, hi: int) -> tuple[int, int]:
    """(dim k, dim p) of the ambient algebra summed over the ad h-weights
    lo <= j <= hi, counted on cells of the diagram."""
    cells = _cells(diagram)
    cut = 1 if (lo <= 0 <= hi and cells) else 0  # remove the trace direction of gl
    if pair_type is PairType.AIII:
        nk = np = 0
        for mu_k, d_k in cells:
            for mu_l, d_l in cells:
                if lo <= mu_k - mu_l <= hi:
                    if d_k * d_l == 1:
                        nk += 1
                    else:
                        np += 1
        return (nk - cut, np)
    if pair_type in (PairType.AI, PairType.AII):
        # theta permutes the matrix-unit basis; its fixed elements are the
        # units E_{k, dual(k)}, of weight 2*mu_k, all with sign -1 (AI) or +1
        # (AII)
        total = 0
        for mu_k, _ in cells:
            for mu_l, _ in cells:
                if lo <= mu_k - mu_l <= hi:
                    total += 1
        fixed = sum(1 for mu, _ in cells if lo <= 2 * mu <= hi)
        if pair_type is PairType.AI:
            nk, np = (total - fixed) // 2, (total + fixed) // 2
        else:
            nk, np = (total + fixed) // 2, (total - fixed) // 2
        return (nk, np - cut)
    # orthogonal/symplectic: g is spanned by cell pairs (k < l, resp. k <= l)
    # of weight mu_k + mu_l; the involution sign of a pair is xi~ d_k d_l where
    # xi~ = +1 when J^2 = Id and -1 when J^2 = -Id
    sym = pair_type.form_sign == -1  # symplectic: pairs k <= l
    xi_tilde = pair_type.involution_square
    nk = np = 0
    for idx_k, (mu_k, d_k) in enumerate(cells):
        for idx_l, (mu_l, d_l) in enumerate(cells):
            if idx_l < idx_k or (idx_l == idx_k and not sym):
                continue
            if not lo <= mu_k + mu_l <= hi:
                continue
            if xi_tilde * d_k * d_l == 1:
                nk += 1
            else:
                np += 1
    return (nk, np)


def dim_p_graded(diagram: AbDiagram, pair_type: PairType, i: int) -> int:
    """dim p(e,i) for i >= 0: the raising map is onto, so the kernel dimension
    is dim p(i,h) - dim k(i+2,h)."""
    _k_i, p_i = _theta_dims(diagram, pair_type, i, i)
    k_next, _p_next = _theta_dims(diagram, pair_type, i + 2, i + 2)
    return p_i - k_next


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
    dim_k, dim_p = _theta_dims(zero, pair_type, 0, 0)
    return AmbientDims(dim_p, defect(zero, pair_type), dim_k)


@lru_cache(maxsize=4096)
def dim_p_cent(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> int:
    """dim p^e as one graded count: the sum over i >= 0 of dim p(e,i) =
    dim p(i,h) - dim k(i+2,h), since g^e has nonnegative weights and ad e maps
    p(i,h) onto k(i+2,h).  Weights never exceed 2n.  Raises
    UnrealizableDiagram, naming the violations, for an invalid diagram."""
    violations = validate(diagram, pair_type, params)
    if violations:
        raise UnrealizableDiagram("; ".join(str(v) for v in violations))
    top = 2 * diagram.n
    return _theta_dims(diagram, pair_type, 0, top)[1] - _theta_dims(diagram, pair_type, 2, top)[0]


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

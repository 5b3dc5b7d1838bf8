"""The classification engine for classical pairs.

Every irreducible component of the nilpotent commuting variety is generated
by an almost-distinguished orbit (p(e,0) a torus); distinguished orbits
(defect 0) give the components of full dimension.  A strange-component
candidate, almost-distinguished but not distinguished, is a component when no
valid diagram lies above it, as C_e in C_e' forces e <= e' and the C_e cover
the variety (the zero orbit of BDI (1,1)).  Otherwise it is eliminated by a
reduction (a larger orbit whose subvariety contains its own) or, in the A
cases, by a commuting witness that the nilpotent part of the centralizer
escapes the orbit closure.  What survives is reported unresolved, never hidden.
Only candidates are built: a walk over torus row blocks yields them with
their defects, and the closure order is read for those of positive defect.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .closure import first_reduction, minimal_degenerations
from .diagrams import (
    AbDiagram,
    PairParams,
    PairType,
    params_for,
    DEFAULT_BOUND,
)
from .errors import ClaimViolated
from .invariants import almost_distinguished, component_dim, dim_p

COMPONENT = "Component"
ELIMINATED_BY_REDUCTION = "EliminatedByReduction"
ELIMINATED_BY_WITNESS = "EliminatedByWitness"
UNRESOLVED = "Unresolved"


class CandidateStatus(NamedTuple):
    diagram: AbDiagram
    status: str
    component_dim: int
    reduction_target: Optional[AbDiagram] = None
    witness_lengths: Optional[tuple[int, int]] = None

    def to_json(self) -> dict:
        out = {
            "orbit": self.diagram.text(),
            "status": self.status,
            "component_dim": self.component_dim,
        }
        if self.reduction_target is not None:
            out["reduction_target"] = self.reduction_target.text()
        if self.witness_lengths is not None:
            out["witness_lengths"] = list(self.witness_lengths)
        return out


def candidate_status(
    diagram: AbDiagram,
    delta: int,
    pair_type: PairType,
    params: PairParams,
    bound: int = DEFAULT_BOUND,
) -> CandidateStatus:
    """Classify an almost-distinguished orbit of defect delta, as
    almost_distinguished yields it.  It is a component when delta is 0 or
    no valid diagram lies above it; otherwise its covers are searched for a
    reduction, then (AI, AII) a commuting witness, and it is unresolved when
    neither exists."""
    cdim = component_dim(pair_type, params, delta)
    covers = minimal_degenerations(diagram, pair_type, params, bound) if delta else []
    if not covers:
        return CandidateStatus(diagram, COMPONENT, cdim)
    target = first_reduction(diagram, covers, pair_type, params, delta)
    if target is not None:
        return CandidateStatus(
            diagram, ELIMINATED_BY_REDUCTION, cdim, reduction_target=target
        )
    if pair_type in (PairType.AI, PairType.AII):
        adj = diagram.adjacent_lengths()
        if adj is not None:
            return CandidateStatus(diagram, ELIMINATED_BY_WITNESS, cdim, witness_lengths=adj)
    return CandidateStatus(diagram, UNRESOLVED, cdim)


class ComponentsReport(NamedTuple):
    pair_type: PairType
    params: PairParams
    dim_p: int
    components: tuple[CandidateStatus, ...]
    eliminated: tuple[CandidateStatus, ...]
    unresolved: tuple[CandidateStatus, ...]

    @property
    def count_min(self) -> int:
        return len(self.components)

    @property
    def count_max(self) -> int:
        return len(self.components) + len(self.unresolved)

    def to_json(self) -> dict:
        return {
            "pair": self.pair_type.value,
            "n": self.params.n,
            "signature": list(self.params.signature) if self.params.signature else None,
            "dim_p": self.dim_p,
            "components": [c.to_json() for c in self.components],
            "eliminated": [c.to_json() for c in self.eliminated],
            "unresolved": [c.to_json() for c in self.unresolved],
            "count_min": self.count_min,
            "count_max": self.count_max,
        }

    def render_text(self) -> str:
        head = f"{self.pair_type.value} n={self.params.n}"
        if self.params.signature:
            head += f" signature={self.params.signature}"
        lines = [head, f"dim p = {self.dim_p}"]
        lines.append(f"components ({len(self.components)}):")
        for c in self.components:
            lines.append(f"  {c.diagram.text() or '(zero)'}  dim {c.component_dim}")
        if self.eliminated:
            lines.append(f"eliminated candidates ({len(self.eliminated)}):")
            for c in self.eliminated:
                if c.status == ELIMINATED_BY_REDUCTION:
                    lines.append(
                        f"  {c.diagram.text()}  reduction -> {c.reduction_target.text()}"
                    )
                else:
                    lines.append(
                        f"  {c.diagram.text()}  witness on lengths {c.witness_lengths}"
                    )
        if self.unresolved:
            lines.append(f"unresolved ({len(self.unresolved)}):")
            for c in self.unresolved:
                lines.append(f"  {c.diagram.text()}  dim {c.component_dim}")
        lines.append(
            f"component count: {self.count_min}"
            + (f" to {self.count_max}" if self.unresolved else "")
        )
        return "\n".join(lines)


def classify_components(
    pair_type: PairType, params: PairParams, bound: int = DEFAULT_BOUND
) -> ComponentsReport:
    """Classify the pair's candidates in enumeration order and assemble the
    report; only the candidates of positive defect read the closure order."""
    buckets = {COMPONENT: [], ELIMINATED_BY_REDUCTION: [], ELIMINATED_BY_WITNESS: [], UNRESOLVED: []}
    ambient = dim_p(pair_type, params)
    for diagram, delta in almost_distinguished(pair_type, params, bound):
        st = candidate_status(diagram, delta, pair_type, params, bound)
        buckets[st.status].append(st)
    eliminated = buckets[ELIMINATED_BY_REDUCTION] + buckets[ELIMINATED_BY_WITNESS]
    return ComponentsReport(pair_type, params, ambient, tuple(buckets[COMPONENT]),
                            tuple(eliminated), tuple(buckets[UNRESOLVED]))


# -- the verified parameter grids ------------------------------------------------


def verified_grid() -> list[tuple[PairType, PairParams]]:
    """The parameter grid on which zero unresolved candidates is asserted:
    AI up to n = 5, AII up to n = 6, BDI for p <= 4 or q <= 2 within n <= 12,
    CI up to n = 14."""
    grid: list[tuple[PairType, PairParams]] = []
    for n in range(2, 6):
        grid.append((PairType.AI, PairParams(n)))
    for n in range(2, 7, 2):
        grid.append((PairType.AII, PairParams(n)))
    for n in range(3, 13):
        for q in range(1, n // 2 + 1):
            p = n - q
            if q <= 2 or p <= 4:
                grid.append((PairType.BDI, params_for(PairType.BDI, n, p, q)))
    for n in range(2, 15, 2):
        grid.append((PairType.CI, PairParams(n)))
    return grid


def rank_bound_check() -> list[tuple[PairType, PairParams, int]]:
    """Run the classification over the verified grid; raise ClaimViolated on
    the first pair with an unresolved candidate.  Returns (pair, params,
    number of components)."""
    results = []
    for grid_type, params in verified_grid():
        report = classify_components(grid_type, params)
        if report.unresolved:
            raise ClaimViolated(f"{grid_type.value} {params} has unresolved candidate "
                                f"{report.unresolved[0].diagram.text()!r}")
        results.append((grid_type, params, report.count_min))
    return results

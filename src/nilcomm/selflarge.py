"""Self-large orbits of the classical pairs.

An orbit is self-large when every nilpotent element of p^e already lies in
the orbit closure; only such orbits can generate a component.  For the
classical families the verdict is combinatorial: distinguished orbits (defect
0) always qualify; for AI/AII the almost-distinguished orbits (p(e,0) a
torus) whose (paired) row lengths differ pairwise by at least two; for BDI/CI
exactly the almost-distinguished orbits.  For AIII/CII/DIII every
almost-distinguished orbit is distinguished.  The matrix oracle provides an
equivalent criterion (p(e,0) a torus, decided exactly by [p(e,0), p(e,0)] = 0,
and p(e,1) = 0) that the test suite checks against these rules pair by pair.
"""

from __future__ import annotations

from typing import NamedTuple

from . import oracle
from .diagrams import AbDiagram, PairParams, PairType
from .invariants import is_almost_distinguished, is_distinguished

DISTINGUISHED = "Distinguished"
TORUS_AND_NO_DEGREE_ONE = "TorusAndNoDegreeOne"
ADJACENT_LENGTH_WITNESS = "AdjacentLengthWitness"
DATA_TABLE = "DataTable"


class SelfLargeVerdict(NamedTuple):
    diagram: AbDiagram
    verdict: bool
    reason: str

    def to_json(self) -> dict:
        return {
            "orbit": self.diagram.text(),
            "self_large": self.verdict,
            "reason": self.reason,
        }


def is_self_large(diagram: AbDiagram, pair_type: PairType) -> SelfLargeVerdict:
    """Combinatorial verdict, with the reason recorded."""
    if is_distinguished(diagram, pair_type):
        return SelfLargeVerdict(diagram, True, DISTINGUISHED)
    if not is_almost_distinguished(diagram, pair_type):
        return SelfLargeVerdict(diagram, False, DATA_TABLE)
    if pair_type in (PairType.AI, PairType.AII):
        if diagram.adjacent_lengths() is None:
            return SelfLargeVerdict(diagram, True, TORUS_AND_NO_DEGREE_ONE)
        return SelfLargeVerdict(diagram, False, ADJACENT_LENGTH_WITNESS)
    # BDI or CI: for AIII, CII and DIII almost-distinguished is distinguished
    return SelfLargeVerdict(diagram, True, DATA_TABLE)


def verify_self_large_criterion(
    diagram: AbDiagram, pair_type: PairType, params: PairParams
) -> bool:
    """Oracle evaluation of the two-part criterion: p(e,0) = 0, or p(e,0) is a
    torus ([p(e,0), p(e,0)] = 0) and p(e,1) = 0."""
    real = oracle.realize(diagram, pair_type, params)
    p0 = oracle.p_e0_sparse(real)
    if not p0:
        return True
    if not oracle.is_abelian(p0):
        return False  # p(e,0) contains nonzero nilpotents
    return oracle.dim_graded(real, 1, -1) == 0

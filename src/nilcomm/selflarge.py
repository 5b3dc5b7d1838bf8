"""Self-large orbits of the classical pairs.

An orbit is self-large when every nilpotent element of p^e already lies in
the orbit closure; only such orbits can generate a component.  For the
classical families one criterion decides it: the defect is 0 (the orbit is
distinguished), or the orbit is almost-distinguished (p(e,0) a torus) and
dim p(e,1) = 0.  ``oracle.certify`` checks both terms, the defect and
dim p(e,1), against the exact matrix oracle; ``verify_self_large_criterion``
evaluates the criterion on the oracle itself.  The reason names the term
that decided: ``Distinguished`` for defect 0, ``DataTable`` for an orbit
that is not almost-distinguished, and for one that is, by dim p(e,1),
``TorusAndNoDegreeOne`` or ``AdjacentLengthWitness`` for AI/AII (a nonzero
p(e,1) there holds the witness of two adjacent lengths) and ``DataTable``
for BDI/CI; for AIII/CII/DIII every almost-distinguished orbit is
distinguished.
"""

from __future__ import annotations

from typing import NamedTuple

from . import oracle
from .diagrams import AbDiagram, PairParams, PairType
from .invariants import dim_p_graded, is_almost_distinguished, is_distinguished

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
    """The criterion's verdict, with the reason recorded."""
    if is_distinguished(diagram, pair_type):
        return SelfLargeVerdict(diagram, True, DISTINGUISHED)
    almost = is_almost_distinguished(diagram, pair_type)
    verdict = almost and dim_p_graded(diagram, pair_type, 1) == 0
    if almost and pair_type in (PairType.AI, PairType.AII):
        reason = TORUS_AND_NO_DEGREE_ONE if verdict else ADJACENT_LENGTH_WITNESS
        return SelfLargeVerdict(diagram, verdict, reason)
    return SelfLargeVerdict(diagram, verdict, DATA_TABLE)


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

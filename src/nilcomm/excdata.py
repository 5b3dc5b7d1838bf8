"""Embedded orbit data for the exceptional symmetric pairs.

The almost-distinguished orbits of each exceptional case, with the reductive
pair of their triple centralizer and their defect, are compiled in from the
published orbit tables (Djokovic numbering).  On top of that sit the known
reductions, the two commuting-witness facts, the component counts, and the
self-large lists.  Everything here is data; the only computation is assembling
reports and cross-checking internal consistency.

Table columns: orbit number, centralizer pair "(g^s, k^s)" (T_r is an
r-dimensional torus in k, V_r one in p; the pair string is rendered verbatim),
defect = dim of the torus part of the centralizer lying in p.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import UnknownCase

CASES = ("GI", "FI", "FII", "EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII", "EVIII", "EIX")

REAL_FORM = {
    "GI": "G2(2)",
    "FI": "F4(4)",
    "FII": "F4(-20)",
    "EI": "E6(6)",
    "EII": "E6(2)",
    "EIII": "E6(-14)",
    "EIV": "E6(-26)",
    "EV": "E7(7)",
    "EVI": "E7(-5)",
    "EVII": "E7(-25)",
    "EVIII": "E8(8)",
    "EIX": "E8(-24)",
}


class ExceptionalOrbitRecord(NamedTuple):
    """One orbit of a table; the tables list exactly the almost-distinguished orbits."""

    case: str
    orbit: int
    pair: str
    defect: int
    note: str = ""

    @property
    def distinguished(self) -> bool:
        return self.defect == 0


# orbit, centralizer pair, defect, optional note
_TABLES: dict[str, tuple] = {
    "GI": (
        (3, "(0, 0)", 0),
        (4, "(0, 0)", 0),
        (5, "(0, 0)", 0),
    ),
    "FI": (
        (6, "(sl3, sl3)", 0),
        (16, "(0, 0)", 0),
        (17, "(0, 0)", 0),
        (18, "(0, 0)", 0),
        (19, "(sl2, sl2)", 0),
        (22, "(0, 0)", 0),
        (23, "(0, 0)", 0),
        (24, "(0, 0)", 0),
        (25, "(0, 0)", 0),
        (26, "(0, 0)", 0),
    ),
    "FII": (
        (1, "(sl4, sl4)", 0),
        (2, "(G2, G2)", 0),
    ),
    "EI": (
        (12, "(T2, T1)", 1),
        (16, "(T1, 0)", 1),
        (17, "(T1, 0)", 1),
        (18, "(0, 0)", 0),
        (19, "(0, 0)", 0),
        (20, "(0, 0)", 0),
        (21, "(T1, 0)", 1),
        (22, "(0, 0)", 0),
        (23, "(T2, 0)", 2),
    ),
    "EII": (
        (6, "(2sl2, 2sl2)", 0),
        (12, "(sl2 + T1, sl2 + T1)", 0),
        (13, "(sl2 + T1, sl2 + T1)", 0),
        (20, "(T2, T2)", 0),
        (21, "(T2, T2)", 0),
        (22, "(T2, T1)", 1),
        (23, "(sl3, sl3)", 0),
        (25, "(sl2 + T1, sl2 + T1)", 0),
        (27, "(T1, T1)", 0),
        (28, "(T1, T1)", 0),
        (29, "(T1, T1)", 0),
        (30, "(T1, T1)", 0),
        (32, "(0, 0)", 0),
        (33, "(0, 0)", 0),
        (34, "(T1, T1)", 0),
        (35, "(T1, T1)", 0),
        (36, "(0, 0)", 0),
        (37, "(0, 0)", 0),
    ),
    "EIII": (
        (3, "(so7 + T1, so7 + T1)", 0),
        (4, "(so7 + T1, so7 + T1)", 0),
        (7, "(sl3 + T1, sl3 + T1)", 0),
        (8, "(sl3 + T1, sl3 + T1)", 0),
        (9, "(G2, G2)", 0),
        (10, "(so5 + T1, so5 + T1)", 0),
        (11, "(so5 + T1, so5 + T1)", 0),
        (12, "(sl2 + T1, sl5 + T1)", 0, "pair string as printed in the source table"),
    ),
    "EIV": (
        (1, "(so7 + T1, so7)", 1,
         "listed as distinguished in the original real-form table by mistake; "
         "the corrected defect is 1"),
        (2, "(G2, G2)", 0),
    ),
    "EV": (
        (16, "(G2, G2)", 0),
        (17, "(G2, G2)", 0),
        (39, "(sl2, sl2)", 0),
        (40, "(sl2, sl2)", 0),
        (48, "(T2, T2)", 0),
        (49, "(T2, T2)", 0),
        (50, "(T2, 0)", 2),
        (55, "(sl2, sl2)", 0),
        (56, "(sl2, sl2)", 0),
        (67, "(0, 0)", 0),
        (68, "(0, 0)", 0),
        (69, "(0, 0)", 0),
        (70, "(0, 0)", 0),
        (76, "(0, 0)", 0),
        (77, "(0, 0)", 0),
        (78, "(0, 0)", 0),
        (79, "(0, 0)", 0),
        (80, "(T1, T1)", 0),
        (81, "(T1, 0)", 1),
        (85, "(0, 0)", 0),
        (86, "(0, 0)", 0),
        (87, "(0, 0)", 0),
        (88, "(0, 0)", 0),
        (89, "(0, 0)", 0),
        (90, "(0, 0)", 0),
        (91, "(0, 0)", 0),
        (92, "(0, 0)", 0),
        (93, "(0, 0)", 0),
        (94, "(0, 0)", 0),
    ),
    "EVI": (
        (6, "(sl6, sl6)", 0),
        (14, "(G2 + sl2, G2 + sl2)", 0),
        (19, "(3sl2, 3sl2)", 0),
        (20, "(3sl2, 3sl2)", 0),
        (22, "(sp6, sp6)", 0),
        (24, "(sl2 + T1, sl2 + T1)", 0),
        (25, "(sl3 + T1, sl3 + T1)", 0),
        (27, "(T2, T2)", 0),
        (28, "(sl2 + T1, sl2 + T1)", 0),
        (29, "(sl2, sl2)", 0),
        (31, "(sl2, sl2)", 0),
        (32, "(sl2, sl2)", 0),
        (33, "(2sl2, 2sl2)", 0),
        (34, "(2sl2, 2sl2)", 0),
        (35, "(sl2, sl2)", 0),
        (36, "(T1, T1)", 0),
        (37, "(sl2, sl2)", 0),
    ),
    "EVII": (
        (6, "(F4, F4)", 0),
        (7, "(F4, F4)", 0),
        (11, "(sl4 + T1, sl4 + T1)", 0),
        (12, "(sl4 + T1, sl4 + T1)", 0),
        (16, "(so7, so7)", 0),
        (17, "(so7, so7)", 0),
        (18, "(so7, so7)", 0),
        (19, "(so7, so7)", 0),
        (20, "(sl3 + T1, sl3 + T1)", 0),
        (21, "(G2, G2)", 0),
        (22, "(G2, G2)", 0),
    ),
    "EVIII": (
        (14, "(G2, G2)", 0),
        (15, "(G2, G2)", 0, "distinguished although absent from the compact-element list"),
        (34, "(sl3, sl3)", 0),
        (42, "(sl2 + T1, sl2 + T1)", 0),
        (45, "(2sl2, 2sl2)", 0),
        (51, "(sl3, sl3)", 0),
        (67, "(0, 0)", 0),
        (68, "(0, 0)", 0),
        (69, "(0, 0)", 0),
        (70, "(2sl2, 2sl2)", 0),
        (79, "(T1, T1)", 0),
        (80, "(T1, T1)", 0),
        (81, "(T1, 0)", 1),
        (84, "(T1, T1)", 0),
        (85, "(T1, 0)", 1),
        (87, "(T1, T1)", 0),
        (88, "(T1, 0)", 1),
        (91, "(0, 0)", 0),
        (92, "(0, 0)", 0),
        (93, "(T1, T1)", 0),
        (94, "(T1, T1)", 0),
        (95, "(T1, 0)", 1),
        (98, "(0, 0)", 0),
        (99, "(0, 0)", 0),
        (101, "(0, 0)", 0),
        (102, "(0, 0)", 0),
        (104, "(0, 0)", 0),
        (105, "(0, 0)", 0),
        (106, "(0, 0)", 0),
        (107, "(0, 0)", 0),
        (109, "(0, 0)", 0),
        (110, "(0, 0)", 0),
        (111, "(0, 0)", 0),
        (112, "(0, 0)", 0),
        (113, "(0, 0)", 0),
        (114, "(0, 0)", 0),
        (115, "(0, 0)", 0),
    ),
    "EIX": (
        (6, "(E6, E6)", 0),
        (18, "(so8, so8)", 0),
        (19, "(so8, so8)", 0),
        (21, "(F4, F4)", 0),
        (23, "(so5 + T1, so5 + T1)", 0),
        (24, "(sl5, sl5)", 0),
        (26, "(sl3 + T1, sl3 + T1)", 0),
        (27, "(sl4, sl4)", 0),
        (28, "(2sl2, 2sl2)", 0),
        (30, "(G2, G2)", 0),
        (31, "(G2, G2)", 0),
        (32, "(so7, so7)", 0),
        (33, "(so7, so7)", 0),
        (34, "(2sl2, 2sl2)", 0),
        (35, "(sl3, sl3)", 0),
        (36, "(G2, G2)", 0),
    ),
}


class ExceptionalReduction(NamedTuple):
    """A source orbit together with a larger orbit witnessing a reduction:
    the defect drop equals the orbit-dimension gain."""

    case: str
    source: int
    source_dim: int
    source_defect: int
    target: int
    target_dim: int
    target_defect: int
    note: str = ""


_REDUCTIONS = (
    ExceptionalReduction("EII", 22, 29, 1, 24, 30, 0,
                         note="target absent from the almost-distinguished table of EII"),
    ExceptionalReduction("EV", 50, 52, 2, 54, 53, 1,
                         note="target absent from the almost-distinguished table of EV"),
    ExceptionalReduction("EV", 81, 59, 1, 85, 60, 0),
    ExceptionalReduction("EVIII", 81, 107, 1, 84, 108, 0),
    ExceptionalReduction("EVIII", 88, 109, 1, 91, 110, 0),
    ExceptionalReduction("EVIII", 95, 111, 1, 98, 112, 0),
    ExceptionalReduction("EI", 21, 34, 1, 18, 35, 0),
    ExceptionalReduction("EI", 17, 32, 1, 22, 33, 0),
)


class ExceptionalWitnessFact(NamedTuple):
    """An explicit commuting pair: an element of the larger orbit commutes
    with one of the source orbit, so the source generates no component."""

    case: str
    source: int
    larger: int


_WITNESS_FACTS = (
    ExceptionalWitnessFact("EIV", 1, 2),
    ExceptionalWitnessFact("EI", 16, 18),
    ExceptionalWitnessFact("EVIII", 85, 109),
)

# number of irreducible components per case, as (min, max)
COMPONENT_COUNTS = {
    "GI": (3, 3),
    "FI": (10, 10),
    "FII": (2, 2),
    "EI": (4, 6),
    "EII": (17, 17),
    "EIII": (8, 8),
    "EIV": (1, 1),
    "EV": (27, 27),
    "EVI": (17, 17),
    "EVII": (11, 11),
    "EVIII": (33, 33),
    "EIX": (16, 16),
}

# self-large orbits beyond the distinguished ones
SELFLARGE_EXTRAS = {
    "EI": (12, 21, 23),
    "EII": (22,),
    "EV": (81,),
    "EVIII": (81, 95),
}

# almost-distinguished orbits shown NOT self-large by the fixed-space test
NOT_SELFLARGE = {
    "EI": (16, 17),
    "EV": (50,),
    "EVIII": (85, 88),
    "EIV": (1,),
}


def _check_case(case: str) -> str:
    if case not in CASES:
        raise UnknownCase(f"unknown exceptional case {case!r}; expected one of {CASES}")
    return case


def load_case(case: str) -> tuple[ExceptionalOrbitRecord, ...]:
    """The almost-distinguished orbit records of one case."""
    _check_case(case)
    out = []
    for row in _TABLES[case]:
        orbit, pair, dft = row[:3]
        note = row[3] if len(row) > 3 else ""
        out.append(ExceptionalOrbitRecord(case, orbit, pair, dft, note))
    return tuple(out)


def reductions(case: Optional[str] = None) -> tuple[ExceptionalReduction, ...]:
    if case is None:
        return _REDUCTIONS
    _check_case(case)
    return tuple(r for r in _REDUCTIONS if r.case == case)


def witness_facts(case: Optional[str] = None) -> tuple[ExceptionalWitnessFact, ...]:
    if case is None:
        return _WITNESS_FACTS
    _check_case(case)
    return tuple(w for w in _WITNESS_FACTS if w.case == case)


class ExceptionalReport(NamedTuple):
    case: str
    real_form: str
    components: tuple[int, ...]
    eliminated: tuple[tuple[int, str, int], ...]  # (orbit, 'reduction'|'witness', other)
    unresolved: tuple[int, ...]

    @property
    def count_min(self) -> int:
        return len(self.components)

    @property
    def count_max(self) -> int:
        return len(self.components) + len(self.unresolved)

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "real_form": self.real_form,
            "components": list(self.components),
            "eliminated": [
                {"orbit": o, "by": how, "via": other} for o, how, other in self.eliminated
            ],
            "unresolved": list(self.unresolved),
            "count_min": self.count_min,
            "count_max": self.count_max,
        }

    def render_text(self) -> str:
        lines = [f"{self.case} ({self.real_form})"]
        lines.append(f"components ({len(self.components)}): orbits "
                     + ", ".join(str(o) for o in self.components))
        for orbit, how, other in self.eliminated:
            what = "reduces to" if how == "reduction" else "commutes into"
            lines.append(f"orbit {orbit}: eliminated, {what} orbit {other}")
        for orbit in self.unresolved:
            lines.append(f"orbit {orbit}: unresolved")
        lines.append(
            f"component count: {self.count_min}"
            + (f" to {self.count_max}" if self.unresolved else "")
        )
        return "\n".join(lines)


def exceptional_components(case: str) -> ExceptionalReport:
    """Data-driven classification: distinguished records are components;
    positive-defect records are eliminated by a reduction, then by a witness
    fact, and otherwise reported unresolved."""
    records = load_case(case)
    red_by_source = {r.source: r for r in reductions(case)}
    wit_by_source = {w.source: w for w in witness_facts(case)}
    components = []
    eliminated = []
    unresolved = []
    for rec in records:
        if rec.distinguished:
            components.append(rec.orbit)
        elif rec.orbit in red_by_source:
            eliminated.append((rec.orbit, "reduction", red_by_source[rec.orbit].target))
        elif rec.orbit in wit_by_source:
            eliminated.append((rec.orbit, "witness", wit_by_source[rec.orbit].larger))
        else:
            unresolved.append(rec.orbit)
    return ExceptionalReport(
        case=case,
        real_form=REAL_FORM[case],
        components=tuple(components),
        eliminated=tuple(eliminated),
        unresolved=tuple(unresolved),
    )


def exceptional_selflarge(case: str) -> tuple[int, ...]:
    """Self-large orbits of the case: the distinguished ones plus the listed
    extras."""
    records = load_case(case)
    extras = SELFLARGE_EXTRAS.get(case, ())
    out = [rec.orbit for rec in records if rec.distinguished]
    out.extend(extras)
    return tuple(sorted(out))


def consistency_report() -> list[str]:
    """Internal cross-checks between the embedded tables; returns a list of
    problem strings (known discrepancies are not problems)."""
    problems = []
    for case in CASES:
        rep = exceptional_components(case)
        lo, hi = COMPONENT_COUNTS[case]
        if (rep.count_min, rep.count_max) != (lo, hi):
            problems.append(
                f"{case}: component count {rep.count_min}..{rep.count_max}, tables say {lo}..{hi}"
            )
        records = load_case(case)
        ndist = sum(1 for r in records if r.distinguished)
        if lo == hi and ndist != lo:
            problems.append(f"{case}: {ndist} defect-0 rows vs component count {lo}")
        extras, nots = SELFLARGE_EXTRAS.get(case, ()), NOT_SELFLARGE.get(case, ())
        positive = sorted(r.orbit for r in records if not r.distinguished)
        if sorted(extras + nots) != positive:
            problems.append(f"{case}: self-large {extras} and not {nots} "
                            f"do not split the positive-defect orbits {tuple(positive)}")
    for red in _REDUCTIONS:
        if red.source_defect - red.target_defect != red.target_dim - red.source_dim:
            problems.append(f"{red.case} {red.source}->{red.target}: reduction equality fails")
    sources = {(r.case, r.source) for r in _REDUCTIONS}
    for w in _WITNESS_FACTS:
        if (w.case, w.source) in sources:
            problems.append(f"{w.case} {w.source}: witness overlaps a reduction source")
    return problems

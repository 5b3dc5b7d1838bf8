"""Degeneration (closure) order on diagrams, minimal degenerations, reductions.

The order is tested column by column: Gamma1 <= Gamma2 when every truncation
Gamma1^(k) has at most as many cells (plain case) or at most as many a's and
b's (ab case) as Gamma2^(k).  These counts form one flat truncation profile
per diagram, and the order is the componentwise order of profiles.  A row's
counts depend only on its length and start letter and are cached as one
integer with a fixed-width field per entry; a diagram's profile is the sum
of its rows' integers, unpacked once.

Covers are computed poset-theoretically inside the full enumeration of valid
diagrams, never from local move tables.  Each pair gets one cached index:
for each profile field k and value v >= 1 the bitset ge[k][v] of the
diagrams whose field k is at least v, made at C level from the field's byte
column, so the diagrams at or above a profile are the AND of the slices of
its nonzero fields.  The profiles come from the enumeration walk itself, over
row blocks weighted by their packed profiles, in walk order; each byte
column is cut reversed, so bit j of its numeral is diagram j.  Enumeration
order is a linear extension of the order, larger diagrams first: a strict
profile inequality forces dominance of the partitions, hence an earlier
partition in reverse-lexicographic order, and two diagrams of one partition
have equal totals at every depth, so, the profile being injective, they are
never strictly comparable.  So the last diagram above a diagram is a cover,
and one scan finds all covers: take the last diagram left, clear what lies
at or above it; one AND per cover.

A cover (or any degeneration) Gamma1 < Gamma2 is a *reduction* when the drop
in defect equals the drop in centralizer dimension; finding one eliminates
Gamma1 as a strange-component candidate.
"""

from __future__ import annotations

import json
import operator
import struct
from functools import lru_cache
from typing import NamedTuple, Optional

from .diagrams import (DEFAULT_BOUND, AbDiagram, PairParams, PairType, _blocks, _check_size,
                       _row_profile, _walk)
from .errors import NotComparable, ShapeMismatch, WrongType
from .invariants import _dim_p_cent, defect, dim_p, dim_p_cent


@lru_cache(maxsize=256)
def _layout(n: int, width: int) -> tuple[int, struct.Struct]:
    """(field bytes, unpacker) of n-cell profiles, with count i the field at
    byte size * i, little-endian; 1, 2, 4 or 8 bytes hold any count <= n."""
    size = next(size for size in (1, 2, 4, 8) if n >> 8 * size == 0)
    return size, struct.Struct(f"<{width * n}{'BHIQ'[size.bit_length() - 1]}")


def _truncation_profile(diagram: AbDiagram) -> tuple[int, ...]:
    """Flat counts of the truncations Gamma^(k) for k = 0 .. n-1: the cell
    count per depth for plain rows, the a-count then the b-count per depth
    for ab rows.  Depths past the longest row are zero, so diagrams of one
    size have profiles of one length."""
    rows = diagram.rows
    size, codec = _layout(sum(d for d, _ in rows), 2 if rows and rows[0][1] else 1)
    return codec.unpack(sum(_row_profile(d, s, size) for d, s in rows).to_bytes(codec.size, "little"))


def _check_comparable(g1: AbDiagram, g2: AbDiagram, pair_type: PairType) -> None:
    if g1.n != g2.n:
        raise ShapeMismatch(f"sizes differ: {g1.n} vs {g2.n}")
    if g1.rows and g2.rows and g1.is_ab != g2.is_ab:
        raise ShapeMismatch("mixed plain and ab diagrams")
    if pair_type.uses_letters and g1.rows and g1.letter_counts() != g2.letter_counts():
        raise ShapeMismatch(
            f"signatures differ: {g1.letter_counts()} vs {g2.letter_counts()}"
        )


def leq(g1: AbDiagram, g2: AbDiagram, pair_type: PairType) -> bool:
    """g1 <= g2 in the degeneration order."""
    _check_comparable(g1, g2, pair_type)
    return all(map(operator.le, _truncation_profile(g1), _truncation_profile(g2)))


class _ClosureIndex:
    """The closure order on the valid diagrams of one pair, bit-sliced.

    ``blob`` holds the packed profiles in one-byte fields, in enumeration
    order, so field k's byte column is ``blob[k::width]``; reversed, it
    lists the last diagram first, so bit j of its numeral is diagram j.
    ``ge[k][v]`` is the bitset of the diagrams whose field k is at least v;
    a value above the column's top matches none.  Bit j of ``up(i)`` is set
    when diagram j lies strictly above diagram i."""

    def __init__(self, pair_type: PairType, diagrams: list[AbDiagram], blob: bytearray, width: int):
        self.pair_type = pair_type
        self.diagrams = diagrams
        self.position = {g: i for i, g in enumerate(diagrams)}
        self._all = (1 << len(diagrams)) - 1
        self.width = width
        self.blob = blob
        self.ge: list[list[int]] = [
            [self._all] + [int(column.translate(b"0" * v + b"1" * (256 - v)), 2)
                           for v in range(1, max(column) + 1)]
            for column in (blob[k::width][::-1] for k in range(width))]

    def _at_or_above(self, profile, mask: int) -> int:
        for slices, v in zip(self.ge, profile):
            if v:
                if v >= len(slices):
                    return 0
                mask &= slices[v]
        return mask

    def up(self, i: int) -> int:
        # enumeration order lists larger diagrams first: those above i come before it
        start = i * self.width
        return self._at_or_above(self.blob[start:start + self.width], (1 << i) - 1)

    def minimal(self, up: int) -> list[int]:
        """Positions of the minimal diagrams of the set up, increasing: the
        highest position left is minimal (enumeration order lists larger
        diagrams first), and what lies at or above it is no longer minimal."""
        found = []
        while up:
            j = up.bit_length() - 1
            found.append(j)
            up &= ~(self.up(j) | 1 << j)
        return found[::-1]

    def covers(self, diagram: AbDiagram) -> list[AbDiagram]:
        i = self.position.get(diagram)
        if i is None and self.diagrams:
            _check_comparable(diagram, self.diagrams[0], self.pair_type)
        up = self.up(i) if i is not None else self._at_or_above(_truncation_profile(diagram), self._all)
        return [self.diagrams[j] for j in self.minimal(up)]


@lru_cache(maxsize=4)
def _closure_index(pair_type: PairType, params: PairParams, bound: int) -> _ClosureIndex:
    """The index of a pair, checked as enumerate_diagrams: one walk over
    blocks weighted by their profiles lists the diagrams and writes each
    profile into the blob as it comes.  A pair whose diagrams can be listed
    has n < 256, so a count fits one byte."""
    _check_size(pair_type, params, bound)
    width = (2 if pair_type.uses_letters else 1) * params.n
    diagrams, blob = [], bytearray()
    for g, profile in _walk(pair_type, params, _blocks):
        diagrams.append(g)
        blob += profile.to_bytes(width, "little")
    return _ClosureIndex(pair_type, diagrams, blob, width)


def minimal_degenerations(
    diagram: AbDiagram,
    pair_type: PairType,
    params: PairParams,
    bound: int = DEFAULT_BOUND,
) -> list[AbDiagram]:
    """Covers of the diagram in the poset of valid diagrams of the pair, in
    enumeration order.  The diagram itself need not be valid, but it must
    have the pair's size and signature."""
    return _closure_index(pair_type, params, bound).covers(diagram)


def is_reduction(
    g1: AbDiagram, g2: AbDiagram, pair_type: PairType, params: PairParams
) -> bool:
    """g1 < g2 with defect drop equal to centralizer drop: s = dim p^{g1} -
    dim p^{g2} equals delta = defect(g1) - defect(g2)."""
    if not (g1 != g2 and leq(g1, g2, pair_type)):
        raise NotComparable(f"{g1.text()!r} is not strictly below {g2.text()!r}")
    return (dim_p_cent(g1, pair_type, params) - dim_p_cent(g2, pair_type, params)
            == defect(g1, pair_type) - defect(g2, pair_type))


def first_reduction(
    diagram: AbDiagram,
    covers: list[AbDiagram],
    pair_type: PairType,
    params: PairParams,
    delta: int,
) -> Optional[AbDiagram]:
    """The first of the covers of a valid diagram of defect delta that is a
    reduction: its centralizer drop equals its defect drop.  The diagram's
    own dim p^e is computed once, not once per cover."""
    cent = _dim_p_cent(diagram, pair_type, params)
    for g2 in covers:
        if cent - _dim_p_cent(g2, pair_type, params) == delta - defect(g2, pair_type):
            return g2
    return None


def find_reduction(
    diagram: AbDiagram,
    pair_type: PairType,
    params: PairParams,
    bound: int = DEFAULT_BOUND,
) -> Optional[AbDiagram]:
    """A minimal degeneration that is a reduction, if one exists.  When any
    reduction exists, one exists among the covers, so this search is complete.
    Raises UnrealizableDiagram for an invalid diagram of the pair's shape."""
    covers = minimal_degenerations(diagram, pair_type, params, bound)
    dim_p_cent(diagram, pair_type, params)  # validates the caller's diagram
    return first_reduction(diagram, covers, pair_type, params, defect(diagram, pair_type))


# -- the non-reducible motifs (BDI and CI) ------------------------------------


def matches_irreducible_motif(diagram: AbDiagram, pair_type: PairType) -> bool:
    """True when every defect-carrying length of an almost-distinguished
    diagram is blocked inside a non-reducible motif, i.e. no reduction exists.

    A defect length d (one a-row plus one b-row of length d) can shed its
    defect in two ways.  Growing one row of the pair by two and shrinking the
    other is defect-tight unless both neighbour lengths d-2 and d+2 are
    occupied, single-lettered and carry the same letter.  The innermost pair
    cannot shrink: for CI (d = 2) the two rows of the pair instead merge into
    one row of length 4 whose letter can be chosen freely, which always
    works; for BDI (d = 1) the pair must absorb the next occupied row, which
    fails when that row is not unique at its length, or when the merged row
    lands on a length occupied entirely by the opposite letter.
    """
    if pair_type not in (PairType.BDI, PairType.CI):
        raise WrongType("motifs are defined for BDI and CI only")
    mults = diagram.multiplicities()

    def mono_letter(d: int) -> Optional[str]:
        _m, a, b = mults.get(d, (0, 0, 0))
        return "a" if a and not b else "b" if b and not a else None

    for d, (m, a, b) in mults.items():
        if min(a, b) == 0:
            continue  # no defect at this length
        if pair_type is PairType.CI and d == 2:
            return False
        if pair_type is PairType.BDI and d == 1:
            above = [d2 for d2 in mults if d2 > d]
            if not above:
                continue  # nothing to absorb: blocked
            t = min(above)
            if mults[t][0] >= 2:
                continue  # a defect pair at t unblocks via t itself
            letter = mono_letter(t)
            landing = mono_letter(t + 2)
            if landing is not None and landing != letter:
                continue  # merging would create a new pair at t + 2
            return False
        lo, hi = mono_letter(d - 2), mono_letter(d + 2)
        if lo is not None and lo == hi:
            continue
        return False
    return True


# -- Hasse diagram --------------------------------------------------------------


class DegenerationEdge(NamedTuple):
    """A cover g1 < g2 annotated with s = dim p^{g1} - dim p^{g2} and
    delta = defect(g1) - defect(g2); the edge is a reduction when s = delta."""

    lower: AbDiagram
    upper: AbDiagram
    s: int
    delta: int

    @property
    def is_reduction(self) -> bool:
        return self.s == self.delta


class ClosureGraph(NamedTuple):
    """The Hasse diagram of a pair: its valid diagrams in enumeration order,
    each vertex's (dim of orbit, defect) at the same position, and its
    covers.  The renderings read these values and name each vertex once."""

    vertices: tuple[AbDiagram, ...]
    values: tuple[tuple[int, int], ...]
    edges: tuple[DegenerationEdge, ...]

    def to_dot(self) -> str:
        names = {v: v.text() for v in self.vertices}
        lines = ["digraph closure {", "  rankdir=BT;"]
        for v, (dim, delta) in zip(self.vertices, self.values):
            label = f"{names[v] or 'zero'}\\n(dim {dim}, delta {delta})"
            lines.append(f'  "{names[v]}" [label="{label}"];')
        for e in self.edges:
            style = ' [color=red, penwidth=2, label="reduction"]' if e.is_reduction else ""
            lines.append(f'  "{names[e.lower]}" -> "{names[e.upper]}"{style};')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """The text of ``json.dumps(..., indent=2)`` of the vertex names and
        the edges, written line by line rather than by the indented encoder."""
        names = {v: json.dumps(v.text()) for v in self.vertices}
        vertices = ",\n".join(f"    {name}" for name in names.values())
        edges = ",\n".join(
            f'    {{\n      "lower": {names[e.lower]},\n      "upper": {names[e.upper]},\n'
            f'      "s": {e.s},\n      "delta": {e.delta},\n'
            f'      "reduction": {"true" if e.is_reduction else "false"}\n    }}'
            for e in self.edges)
        vertices, edges = (f"[\n{text}\n  ]" if text else "[]" for text in (vertices, edges))
        return f'{{\n  "vertices": {vertices},\n  "edges": {edges}\n}}'


def closure_hasse(
    pair_type: PairType, params: PairParams, bound: int = DEFAULT_BOUND
) -> ClosureGraph:
    """Vertices are all valid diagrams, edges the covers with (s, delta);
    each vertex's (dim p^e, defect) is computed once, by its position, and
    kept as (dim of orbit, defect)."""
    index = _closure_index(pair_type, params, bound)
    diagrams = index.diagrams
    values = [(_dim_p_cent(g, pair_type, params), defect(g, pair_type)) for g in diagrams]
    edges = []
    for i, (cent, delta) in enumerate(values):
        for j in index.minimal(index.up(i)):
            edges.append(DegenerationEdge(diagrams[i], diagrams[j], cent - values[j][0],
                                          delta - values[j][1]))
    ambient = dim_p(pair_type, params)
    return ClosureGraph(tuple(diagrams), tuple((ambient - cent, delta) for cent, delta in values),
                        tuple(edges))

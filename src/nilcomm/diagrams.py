"""(ab)-Young diagrams of nilpotent K-orbits for the seven classical symmetric pairs.

A nilpotent orbit of a classical symmetric pair is encoded by a Young diagram
whose rows may carry a starting letter:

* ``AI``, ``AII`` -- plain partitions (no letters);
* ``AIII``, ``BDI``, ``CI``, ``CII``, ``DIII`` -- ab-diagrams: each row starts
  with ``a`` or ``b`` and the letters alternate along the row.  Only the start
  letter is stored because the alternation is forced.

Text grammar: ab-diagrams are rows joined by ``/`` (``"aba/a/b"``), plain
partitions are comma lists (``"4,2,1"``).  The empty string is the empty
diagram.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from .errors import (
    AlternationError,
    BoundExceeded,
    DiagramSyntaxError,
    WrongType,
)

DEFAULT_BOUND = 30


class PairType(Enum):
    """The seven classical symmetric pair families."""

    AI = "AI"      # (sl_n, so_n)
    AII = "AII"    # (sl_n, sp_n), n even
    AIII = "AIII"  # (sl_n, s(gl_p + gl_q))
    BDI = "BDI"    # (so_n, so_p x so_q)
    CI = "CI"      # (sp_n, gl_{n/2}), n even
    CII = "CII"    # (sp_n, sp_p x sp_q), n, p, q even
    DIII = "DIII"  # (so_n, gl_{n/2}), n even

    @property
    def uses_letters(self) -> bool:
        return self not in (PairType.AI, PairType.AII)

    @property
    def has_signature(self) -> bool:
        return self in (PairType.AIII, PairType.BDI, PairType.CII)

    @property
    def needs_even_n(self) -> bool:
        return self in (PairType.AII, PairType.CI, PairType.CII, PairType.DIII)

    @property
    def form_sign(self) -> Optional[int]:
        """Symmetry of the ambient bilinear form: +1 orthogonal, -1 symplectic."""
        if self in (PairType.BDI, PairType.DIII):
            return 1
        if self in (PairType.CI, PairType.CII):
            return -1
        return None

    @property
    def involution_square(self) -> Optional[int]:
        """Sign xi with J^2 = xi * Id for the types defined by a matrix J."""
        if self in (PairType.AIII, PairType.BDI, PairType.CII):
            return 1
        if self in (PairType.CI, PairType.DIII):
            return -1
        return None


@dataclass(frozen=True)
class PairParams:
    """Size parameters of a symmetric pair: matrix size n, plus (p, q) when the
    type carries a signature."""

    n: int
    signature: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.signature is not None:
            p, q = self.signature
            if p < 0 or q < 0 or p + q != self.n:
                raise ValueError(f"signature {self.signature} incompatible with n={self.n}")

    def check(self, pair_type: PairType) -> None:
        """Raise ValueError unless the parameters fit the pair type."""
        if pair_type.has_signature:
            if self.signature is None:
                raise ValueError(f"{pair_type.value} needs a signature (p, q)")
        elif self.signature is not None:
            raise ValueError(f"{pair_type.value} does not take a signature")
        if pair_type.needs_even_n and self.n % 2 != 0:
            raise ValueError(f"{pair_type.value} needs even n, got {self.n}")
        if pair_type is PairType.CII:
            p, q = self.signature
            if p % 2 != 0 or q % 2 != 0:
                raise ValueError(f"CII needs even p and q, got {self.signature}")


def params_for(pair_type: PairType, n: int, p: Optional[int] = None, q: Optional[int] = None) -> PairParams:
    """Build and check PairParams from raw numbers."""
    sig = (p, q) if pair_type.has_signature else None
    if pair_type.has_signature and (p is None or q is None):
        raise ValueError(f"{pair_type.value} needs p and q")
    params = PairParams(n, sig)
    params.check(pair_type)
    return params


Row = tuple[int, Optional[str]]


def _row_letters(length: int, start: Optional[str]) -> str:
    if start is None:
        return ""
    other = "b" if start == "a" else "a"
    return "".join(start if i % 2 == 0 else other for i in range(length))


def row_letter_counts(length: int, start: str) -> tuple[int, int]:
    """Number of (a, b) cells in one alternating row."""
    half, odd = divmod(length, 2)
    if start == "a":
        return half + odd, half
    return half, half + odd


@dataclass(frozen=True)
class AbDiagram:
    """An (ab)-Young diagram in canonical form.

    ``rows`` is a tuple of ``(length, start)`` pairs, sorted by decreasing
    length with ``a``-rows before ``b``-rows; ``start`` is None for all rows of
    a plain partition and a letter for all rows of an ab-diagram.
    """

    rows: tuple[Row, ...]

    def __post_init__(self):
        for length, start in self.rows:
            if length <= 0:
                raise ValueError(f"row lengths must be positive, got {length}")
            if start not in (None, "a", "b"):
                raise ValueError(f"bad start letter {start!r}")
        kinds = {start is None for _, start in self.rows}
        if len(kinds) > 1:
            raise ValueError("cannot mix plain and lettered rows")
        object.__setattr__(
            self, "rows", tuple(sorted(self.rows, key=lambda r: (-r[0], r[1] or "")))
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_partition(cls, parts) -> "AbDiagram":
        return cls(tuple((int(d), None) for d in parts))

    @classmethod
    def from_rows(cls, pairs) -> "AbDiagram":
        return cls(tuple((int(d), s) for d, s in pairs))

    @classmethod
    def from_json(cls, obj: dict) -> "AbDiagram":
        if "partition" in obj:
            return cls.from_partition(obj["partition"])
        return cls.from_rows((r["len"], r["start"]) for r in obj["rows"])

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return sum(d for d, _ in self.rows)

    @property
    def is_ab(self) -> bool:
        return bool(self.rows) and self.rows[0][1] is not None

    @property
    def partition(self) -> tuple[int, ...]:
        """Underlying partition (row lengths, decreasing)."""
        return tuple(d for d, _ in self.rows)

    def multiplicities(self) -> dict[int, tuple[int, int, int]]:
        """Map occupied length d to (m_d, a_d, b_d); for plain rows a_d=b_d=0."""
        out: dict[int, list[int]] = {}
        for d, s in self.rows:
            m = out.setdefault(d, [0, 0, 0])
            m[0] += 1
            if s == "a":
                m[1] += 1
            elif s == "b":
                m[2] += 1
        return {d: tuple(v) for d, v in sorted(out.items(), reverse=True)}

    def letter_counts(self) -> tuple[int, int]:
        """Total (a, b) cell counts; (0, 0) for plain diagrams."""
        na = nb = 0
        for d, s in self.rows:
            if s is not None:
                ca, cb = row_letter_counts(d, s)
                na += ca
                nb += cb
        return na, nb

    def signature(self) -> tuple[int, int]:
        if not self.is_ab:
            raise WrongType("signature is only defined for ab-diagrams")
        return self.letter_counts()

    # -- text and JSON -----------------------------------------------------

    def text(self) -> str:
        if not self.rows:
            return ""
        if self.is_ab:
            return "/".join(_row_letters(d, s) for d, s in self.rows)
        return ",".join(str(d) for d, _ in self.rows)

    def to_json(self) -> dict:
        if self.is_ab:
            return {"rows": [{"len": d, "start": s} for d, s in self.rows]}
        return {"partition": [d for d, _ in self.rows]}

    def __str__(self) -> str:
        return self.text()


def parse(text: str) -> AbDiagram:
    """Parse diagram text: ``"aba/a/b"`` (ab rows) or ``"4,2,1"`` (partition)."""
    text = text.strip()
    if not text:
        return AbDiagram(())
    if any(c in "ab" for c in text):
        rows = []
        pos = 0
        for chunk in text.split("/"):
            if not chunk:
                raise DiagramSyntaxError("empty row", pos)
            for i, c in enumerate(chunk):
                if c not in "ab":
                    raise DiagramSyntaxError(f"unexpected character {c!r}", pos + i)
                if i > 0 and c == chunk[i - 1]:
                    raise AlternationError("letters must alternate", pos + i)
            rows.append((len(chunk), chunk[0]))
            pos += len(chunk) + 1
        return AbDiagram.from_rows(rows)
    try:
        parts = [int(chunk) for chunk in text.split(",")]
    except ValueError as exc:
        raise DiagramSyntaxError(f"not a partition: {text!r}") from exc
    if any(d <= 0 for d in parts):
        raise DiagramSyntaxError(f"row lengths must be positive: {text!r}")
    return AbDiagram.from_partition(parts)


def diagram_text(diagram: AbDiagram) -> str:
    """Inverse of parse on canonical text."""
    return diagram.text()


# -- validity ---------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One reason a diagram is not valid for a pair: kind is ``SizeMismatch``,
    ``SignatureMismatch`` or ``ParityViolation`` (then ``length`` is set)."""

    kind: str
    message: str
    length: Optional[int] = None

    def __str__(self):
        return f"{self.kind}: {self.message}"


def _parity_rules(pair_type: PairType, d: int, m: int, a: int, b: int) -> Optional[str]:
    """Return the violated per-length rule, or None.

    The rules mirror which reductive pair the length-d block of the
    centralizer must carry: a length with J-square -1 on its block forces
    a_d = b_d, a symplectic block with J-square +1 forces a_d, b_d even,
    and AII forces even multiplicities.
    """
    odd = d % 2 == 1
    if pair_type is PairType.AII:
        if m % 2 != 0:
            return f"m_{d}={m} must be even"
    elif pair_type is PairType.BDI:
        if not odd and a != b:
            return f"even length needs a_{d}=b_{d}, got ({a},{b})"
    elif pair_type is PairType.CI:
        if odd and a != b:
            return f"odd length needs a_{d}=b_{d}, got ({a},{b})"
    elif pair_type is PairType.DIII:
        if odd and a != b:
            return f"odd length needs a_{d}=b_{d}, got ({a},{b})"
        if not odd and (a % 2 != 0 or b % 2 != 0):
            return f"even length needs even a_{d} and b_{d}, got ({a},{b})"
    elif pair_type is PairType.CII:
        if odd and (a % 2 != 0 or b % 2 != 0):
            return f"odd length needs even a_{d} and b_{d}, got ({a},{b})"
        if not odd and a != b:
            return f"even length needs a_{d}=b_{d}, got ({a},{b})"
    return None


def _expected_letters(pair_type: PairType, params: PairParams) -> tuple[int, int]:
    """The (a, b) cell counts every ab-diagram of the pair has."""
    return params.signature if pair_type.has_signature else (params.n // 2, params.n // 2)


def validate(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> list[Violation]:
    """Return the list of violations; an empty list means the diagram is a
    valid orbit diagram for (pair_type, params)."""
    params.check(pair_type)
    if diagram.rows and diagram.is_ab != pair_type.uses_letters:
        raise WrongType(
            f"{'ab' if diagram.is_ab else 'plain'} diagram given for {pair_type.value}"
        )
    violations = []
    if diagram.n != params.n:
        violations.append(
            Violation("SizeMismatch", f"diagram has {diagram.n} cells, pair has n={params.n}")
        )
    if pair_type.uses_letters and diagram.rows:
        want = _expected_letters(pair_type, params)
        got = diagram.letter_counts()
        if got != want:
            violations.append(
                Violation("SignatureMismatch", f"letter counts {got}, expected {want}")
            )
    for d, (m, a, b) in diagram.multiplicities().items():
        rule = _parity_rules(pair_type, d, m, a, b)
        if rule is not None:
            violations.append(Violation("ParityViolation", rule, length=d))
    return violations


def is_valid(diagram: AbDiagram, pair_type: PairType, params: PairParams) -> bool:
    return not validate(diagram, pair_type, params)


# -- enumeration -------------------------------------------------------------


def partitions(n: int, max_part: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """All partitions of n in decreasing parts, reverse-lexicographic order."""
    if n == 0:
        yield ()
        return
    first = n if max_part is None else min(n, max_part)
    for head in range(first, 0, -1):
        for tail in partitions(n - head, head):
            yield (head, *tail)


def _letter_choices(pair_type: PairType, d: int, m: int) -> list[tuple[int, int]]:
    """Admissible (a_d, b_d) splits of m rows of length d, a-count decreasing."""
    odd = d % 2 == 1
    allowed = []
    for a in range(m, -1, -1):
        b = m - a
        if _parity_rules(pair_type, d, m, a, b) is None:
            allowed.append((a, b))
    return allowed


def enumerate_diagrams(
    pair_type: PairType, params: PairParams, bound: int = DEFAULT_BOUND
) -> list[AbDiagram]:
    """All valid diagrams for (pair_type, params), canonical, deterministic
    graded-lexicographic order (partition first, then letters)."""
    params.check(pair_type)
    if params.n > bound:
        raise BoundExceeded(f"n={params.n} exceeds bound {bound}")
    return list(_enumerate_cached(pair_type, params))


@functools.lru_cache(maxsize=None)
def _enumerate_cached(pair_type: PairType, params: PairParams) -> tuple[AbDiagram, ...]:
    out = []
    want = _expected_letters(pair_type, params) if pair_type.uses_letters else None
    for part in partitions(params.n):
        mults = {}
        for d in part:
            mults[d] = mults.get(d, 0) + 1
        if not pair_type.uses_letters:
            diag = AbDiagram.from_partition(part)
            if is_valid(diag, pair_type, params):
                out.append(diag)
            continue
        lengths = sorted(mults, reverse=True)
        per_length = [_letter_choices(pair_type, d, mults[d]) for d in lengths]
        if any(not ch for ch in per_length):
            continue
        # the size holds by construction and _letter_choices applies the
        # parity rules, so only the letter counts remain to be checked
        for combo in itertools.product(*per_length):
            rows = []
            for d, (a, b) in zip(lengths, combo):
                rows.extend([(d, "a")] * a + [(d, "b")] * b)
            diag = AbDiagram.from_rows(rows)
            if diag.letter_counts() == want:
                out.append(diag)
    return tuple(out)


# -- column truncation and common rows ---------------------------------------


def flip(letter: str) -> str:
    return "b" if letter == "a" else "a"


def truncate_columns(diagram: AbDiagram, k: int) -> AbDiagram:
    """Remove the first k columns.  Rows shorter than k disappear; a surviving
    row keeps its alternation, so its start letter flips when k is odd."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return diagram
    rows = []
    for d, s in diagram.rows:
        if d > k:
            rows.append((d - k, s if s is None or k % 2 == 0 else flip(s)))
    return AbDiagram(tuple(rows))


def strip_common_rows(d1: AbDiagram, d2: AbDiagram) -> tuple[AbDiagram, AbDiagram]:
    """Remove the maximal multiset of rows common to both diagrams (equal
    length, and equal start letter for ab-diagrams)."""
    rows2 = list(d2.rows)
    keep1 = []
    for row in d1.rows:
        if row in rows2:
            rows2.remove(row)
        else:
            keep1.append(row)
    return AbDiagram(tuple(keep1)), AbDiagram(tuple(rows2))

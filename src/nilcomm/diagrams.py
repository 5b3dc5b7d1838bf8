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

Enumeration builds only the diagrams it keeps.  An even row has as many a's
as b's and an odd row one extra cell of its start letter, so a diagram of
shape ``part`` has sum_d floor(d/2) m_d + (odd rows starting with a) cells a.
The pair's a-count thus fixes how many odd rows start with a.  The walk
visits only the partitions that can carry a diagram: one cached table per
(pair type, n, block table) lists the partitions whose every length has a
block, each with its reach, the set of odd a-cell counts its blocks add up
to (one bit mask), and the reach of the shorter lengths at each length.  A
partition whose reach misses the pair's a-count is skipped before any
letter is chosen, and the walk over its lengths drops a choice of letters
as soon as the shorter lengths' reach cannot complete it, so every
partition visited yields a diagram.  Each block of rows also carries their
packed truncation profile, so the walk that lists a pair's diagrams gives
the closure index their profiles too.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from itertools import repeat, starmap
from operator import index
from typing import Iterator, NamedTuple, Optional

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

    __hash__ = object.__hash__  # members are singletons compared by identity: a C-level hash

    @property
    def uses_letters(self) -> bool:
        return self not in _PLAIN

    @property
    def has_signature(self) -> bool:
        return self in _SIGNED

    @property
    def needs_even_n(self) -> bool:
        return self in _EVEN_N

    @property
    def form_sign(self) -> Optional[int]:
        """Symmetry of the ambient bilinear form: +1 orthogonal, -1 symplectic."""
        return _FORM_SIGN.get(self)

    @property
    def involution_square(self) -> Optional[int]:
        """Sign xi with J^2 = xi * Id for the types defined by a matrix J."""
        return _INVOLUTION_SQUARE.get(self)


# the traits of the pair types, read by the properties above as data
_PLAIN = frozenset({PairType.AI, PairType.AII})
_SIGNED = frozenset({PairType.AIII, PairType.BDI, PairType.CII})
_EVEN_N = frozenset({PairType.AII, PairType.CI, PairType.CII, PairType.DIII})
_FORM_SIGN = {PairType.BDI: 1, PairType.DIII: 1, PairType.CI: -1, PairType.CII: -1}
_INVOLUTION_SQUARE = {PairType.AIII: 1, PairType.BDI: 1, PairType.CII: 1, PairType.CI: -1,
                      PairType.DIII: -1}


_set = object.__setattr__


def _frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable value types."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class PairParams:
    """Size parameters of a symmetric pair: matrix size n, plus (p, q) when the
    type carries a signature.  An immutable value, compared and hashed by
    (n, signature).  The constructor stores n, p and q as ints
    (``operator.index``) and the signature as a tuple; it raises ValueError,
    also under ``python -O``, on a value that is not an integer or is
    negative, and on p + q != n."""

    __slots__ = ("n", "signature")

    def __init__(self, n: int, signature: Optional[tuple[int, int]] = None):
        try:
            n = index(n)
        except TypeError:
            raise ValueError(f"n must be an integer, got {n!r}") from None
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if signature is not None:
            try:
                p, q = signature = tuple(map(index, signature))
            except (TypeError, ValueError):
                raise ValueError(f"signature must be two integers, got {signature!r}") from None
            if p < 0 or q < 0 or p + q != n:
                raise ValueError(f"signature {signature} incompatible with n={n}")
        _set(self, "n", n)
        _set(self, "signature", signature)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.signature == other.signature
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.signature))

    def __repr__(self):
        return f"PairParams(n={self.n!r}, signature={self.signature!r})"

    def __reduce__(self):
        return PairParams, (self.n, self.signature)

    __setattr__ = __delattr__ = _frozen

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


@functools.lru_cache(maxsize=1024)
def _row_letters(length: int, start: Optional[str]) -> str:
    if start is None:
        return ""
    pair = "ab" if start == "a" else "ba"
    return pair * (length // 2) + start * (length % 2)


class AbDiagram:
    """An (ab)-Young diagram in canonical form.

    ``rows`` is a tuple of ``(length, start)`` pairs, sorted by decreasing
    length with ``a``-rows before ``b``-rows; ``start`` is None for all rows of
    a plain partition and a letter for all rows of an ab-diagram.  An
    immutable value, compared and hashed by its rows.

    The constructor is the one boundary check, in one scan, and raises
    ValueError, also under ``python -O``: it accepts any iterable of rows,
    turns a row that is not a tuple into one and an integral length that is
    not an int into an int (``operator.index``), and rejects a length that
    is not integral (``3.0``, ``3.7``, ``"3"``) or not positive, a start
    letter other than None, ``a`` or ``b``, and plain rows mixed with
    lettered ones.  A tuple of canonical ``(int, letter)`` tuples is kept
    as it is; rows out of order are sorted.  The enumeration walk builds
    its rows canonical from its blocks, so it sets them unchecked
    (``_canonical``).
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[Row, ...]):
        """One scan checks the rows and whether they are in canonical order
        already.  A tuple of canonical (int, letter) tuples is kept as it
        is; a row that is not a tuple, or whose length is not an int, is
        rebuilt as one; only rows out of order are sorted."""
        if rows.__class__ is not tuple:
            rows = tuple(rows)
        plain = lettered = rebuild = False
        canonical = True
        last, last_start = math.inf, None
        for row in rows:
            length, start = row
            if length.__class__ is not int or row.__class__ is not tuple:
                try:
                    length = index(length)
                except TypeError:
                    raise ValueError(f"row lengths must be integers, got {row!r}") from None
                rebuild = True
            if length <= 0:
                raise ValueError(f"row lengths must be positive, got {length}")
            if start is None:
                plain = True
            elif start == "a" or start == "b":
                lettered = True
            else:
                raise ValueError(f"bad start letter {start!r}")
            if length > last or (length == last and start == "a" and last_start == "b"):
                canonical = False
            last, last_start = length, start
        if plain and lettered:
            raise ValueError("cannot mix plain and lettered rows")
        if rebuild:
            rows = tuple((index(length), start) for length, start in rows)
        if not canonical:
            rows = tuple(sorted(rows, key=lambda r: (-r[0], r[1] or "")))
        _set(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.rows,))

    def __repr__(self):
        return f"AbDiagram(rows={self.rows!r})"

    def __reduce__(self):
        return AbDiagram, (self.rows,)

    __setattr__ = __delattr__ = _frozen

    # -- construction ------------------------------------------------------

    @classmethod
    def from_partition(cls, parts) -> "AbDiagram":
        return cls(zip(parts, repeat(None)))

    @classmethod
    def from_rows(cls, pairs) -> "AbDiagram":
        return cls(pairs)

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
        """Map occupied length d to (m_d, a_d, b_d), by decreasing d; for
        plain rows a_d=b_d=0."""
        out: dict[int, tuple[int, int, int]] = {}
        for d, s in self.rows:
            m, a, b = out.get(d, (0, 0, 0))
            out[d] = (m + 1, a + (s == "a"), b + (s == "b"))
        return out

    def adjacent_lengths(self) -> Optional[tuple[int, int]]:
        """The smallest two row lengths that differ by one, or None."""
        lengths = sorted({d for d, _s in self.rows})
        return next(((lo, hi) for lo, hi in zip(lengths, lengths[1:]) if hi - lo == 1), None)

    def letter_counts(self) -> tuple[int, int]:
        """Total (a, b) cell counts; (0, 0) for plain diagrams.  An
        alternating row of length d holds ceil(d/2) cells of its start
        letter and floor(d/2) of the other."""
        na = cells = 0
        for d, s in self.rows:
            if s is not None:
                cells += d
                na += (d + (s == "a")) // 2
        return na, cells - na

    def signature(self) -> tuple[int, int]:
        if not self.is_ab:
            raise WrongType("signature is only defined for ab-diagrams")
        return self.letter_counts()

    # -- text --------------------------------------------------------------

    def text(self) -> str:
        if self.is_ab:
            return "/".join(starmap(_row_letters, self.rows))
        return ",".join(str(d) for d, _ in self.rows)

    def __str__(self) -> str:
        return self.text()


def _canonical(rows: tuple[Row, ...]) -> AbDiagram:
    """The diagram of rows that are canonical (int, letter) tuples by
    construction, without the scan of __init__: the walk's constructor
    (_lettered), whose blocks (_blocks) are built canonical."""
    g = object.__new__(AbDiagram)
    _set(g, "rows", rows)
    return g


def parse(text: str) -> AbDiagram:
    """Parse diagram text: ``"aba/a/b"`` (ab rows) or ``"4,2,1"`` (partition).
    A partition may end in one comma, so ``"4,"`` is the one-row diagram 4."""
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
        parts = [int(chunk) for chunk in text.removesuffix(",").split(",")]
    except ValueError as exc:
        raise DiagramSyntaxError(f"not a partition: {text!r}") from exc
    if any(d <= 0 for d in parts):
        raise DiagramSyntaxError(f"row lengths must be positive: {text!r}")
    return AbDiagram.from_partition(parts)


# -- validity ---------------------------------------------------------------


class Violation(NamedTuple):
    """One reason a diagram is not valid for a pair: kind is ``SizeMismatch``,
    ``SignatureMismatch`` or ``ParityViolation`` (then ``length`` is set)."""

    kind: str
    message: str
    length: Optional[int] = None

    def __str__(self):
        return f"{self.kind}: {self.message}"


# The pair type of the centralizer block that the rows of one length d carry,
# by the pair's type: (block for odd d, block for even d).
BLOCK_TYPE = {
    PairType.AI: (PairType.AI, PairType.AI),
    PairType.AII: (PairType.AII, PairType.AII),
    PairType.AIII: (PairType.AIII, PairType.AIII),
    PairType.BDI: (PairType.BDI, PairType.CI),
    PairType.CI: (PairType.CI, PairType.BDI),
    PairType.DIII: (PairType.DIII, PairType.CII),
    PairType.CII: (PairType.CII, PairType.DIII),
}


def _parity_rules(pair_type: PairType, d: int, m: int, a: int, b: int) -> Optional[str]:
    """Return the violated per-length rule, or None.

    The rule is that of the length-d block of the centralizer (BLOCK_TYPE):
    an AII block needs m_d even, a block with J-square -1 (CI, DIII) needs
    a_d = b_d, and a symplectic block with J-square +1 (CII) needs a_d and
    b_d even.
    """
    block = BLOCK_TYPE[pair_type][d % 2 == 0]
    parity = "odd" if d % 2 else "even"
    if block is PairType.AII and m % 2 != 0:
        return f"m_{d}={m} must be even"
    if block in (PairType.CI, PairType.DIII) and a != b:
        return f"{parity} length needs a_{d}=b_{d}, got ({a},{b})"
    if block is PairType.CII and (a % 2 != 0 or b % 2 != 0):
        return f"{parity} length needs even a_{d} and b_{d}, got ({a},{b})"
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


def pairs_of_size(n: int, types=PairType) -> Iterator[tuple[PairType, PairParams]]:
    """Every (type, params) with matrix size n: types in the given order,
    signatures (p, n - p) by increasing p."""
    for pt in types:
        if pt.needs_even_n and n % 2:
            continue
        if pt.has_signature:
            step = 2 if pt is PairType.CII else 1
            for p in range(0, n + 1, step):
                if (n - p) % step == 0:
                    yield pt, PairParams(n, (p, n - p))
        else:
            yield pt, PairParams(n)


@functools.lru_cache(maxsize=1024)
def _row_profile(length: int, start: Optional[str], size: int) -> int:
    """One row's truncation profile (closure._truncation_profile): the cell
    count per depth for a plain row, the a-count then the b-count per depth
    for a lettered one, packed in fields of size bytes (closure._layout)."""
    width = 1 if start is None else 2
    counts = [0] * (width * length + width)
    for k in range(length - 1, -1, -1):
        # depth k counts what depth k + 1 counts plus the cell in column k,
        # a b when k is even for a b-row and odd for an a-row
        counts[width * k:width * k + width] = counts[width * k + width:width * k + 2 * width]
        counts[width * k + (start is not None and (start == "a") != (k % 2 == 0))] += 1
    return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in counts), "little")


@functools.lru_cache(maxsize=1024)
def _blocks(pair_type: PairType, d: int, m: int) -> tuple[tuple[tuple, int, int], ...]:
    """The m rows of length d for each (a_d, b_d) split that the pair type
    admits, a-count decreasing, with the a-count of their odd cells and, as
    weight, their packed profile in one-byte fields, so that a walk sums
    each diagram's profile as it builds it (the closure index reads it; a
    count fits one byte below n = 256); plain rows, once, for AI and AII.
    Cached, as every partition of every pair asks again."""
    a_row, b_row = _row_profile(d, "a", 1), _row_profile(d, "b", 1)
    splits = tuple((((d, "a"),) * a + ((d, "b"),) * (m - a), d % 2 * a, a * a_row + (m - a) * b_row)
                   for a in range(m, -1, -1)
                   if _parity_rules(pair_type, d, m, a, m - a) is None)
    plain = splits and not pair_type.uses_letters
    return ((((d, None),) * m, 0, m * _row_profile(d, None, 1)),) if plain else splits


@functools.lru_cache(maxsize=1024)
def _viable(kind: PairType, n: int, table) -> tuple[tuple, ...]:
    """The partitions of n whose every length d, taken m_d times, has a block
    in table(kind, d, m_d), in reverse-lexicographic order (the closure
    index relies on it: enumeration order is a linear extension of the
    closure order); only these can carry a diagram.  An entry is (largest
    part, sum of floor(d/2) m_d, reach, steps), with one step (reach of the
    shorter lengths, blocks) per length by decreasing d; a reach is the set
    of odd a-cell counts that one block per length adds up to, as a bit
    mask.  Built like the partitions: a head of m rows of length d before
    each entry of n - d m whose largest part is below d, d and then m
    decreasing.  The cache holds every (kind, n <= 30, table) of the two
    tables."""
    if n == 0:
        return ((0, 0, 1, ()),)
    out = []
    for d in range(n, 0, -1):
        for m in range(n // d, 0, -1):
            blocks = table(kind, d, m)
            if not blocks:
                continue
            for head, count, tail, steps in _viable(kind, n - d * m, table):
                if head < d:
                    reach = 0
                    for _, a, _ in blocks:
                        reach |= tail << a
                    out.append((d, d // 2 * m + count, reach, ((tail, blocks), *steps)))
    return tuple(out)


def _lettered(steps: tuple, count: int, window: int):
    """(diagram, weight) for each diagram whose rows of each length are one
    of that length's blocks in steps and whose a-cell count is in window (a
    bit mask), in the order of the blocks (the shortest length varying
    fastest); a block is (rows, a-count of their odd cells, weight), and a
    diagram's weight is the sum of its blocks' weights.

    The steps are taken in order, carrying an a-count that starts at count
    (floor(d/2) for every row) and adds the odd a-cells of each block
    chosen; a prefix is dropped as soon as no sum in the reach of the
    shorter lengths brings that count into the window, so only the diagrams
    that are kept are built, by the walk's constructor (_canonical), and a
    call whose partition is in reach yields at least one.  The walk asks
    only for the viable partitions (_viable)."""
    prefixes = [((), count, 0)]
    for reach, blocks in steps:
        prefixes = [(rows + block, k + a, w + t) for rows, k, w in prefixes for block, a, t in blocks
                    if reach << (k + a) & window]
    return [(_canonical(rows), w) for rows, _, w in prefixes]


def _check_size(pair_type: PairType, params: PairParams, bound: int) -> None:
    """ValueError unless the parameters fit the type, BoundExceeded past the bound."""
    params.check(pair_type)
    if params.n > bound:
        raise BoundExceeded(f"n={params.n} exceeds bound {bound}")


def _walk(pair_type: PairType, params: PairParams, table) -> Iterator[tuple[AbDiagram, int]]:
    """_lettered over the viable partitions of n (_viable), in order, with
    the pair's a-count (any for plain rows) as window, skipping a partition
    whose reach misses it: with _blocks, every valid diagram of the pair."""
    want_a = _expected_letters(pair_type, params)[0]
    window = 1 << want_a if pair_type.uses_letters else (2 << params.n) - 1
    for _, count, reach, steps in _viable(pair_type, params.n, table):
        if reach << count & window:
            yield from _lettered(steps, count, window)


def enumerate_diagrams(
    pair_type: PairType, params: PairParams, bound: int = DEFAULT_BOUND
) -> list[AbDiagram]:
    """All valid diagrams for (pair_type, params), canonical, deterministic
    graded-lexicographic order (partition first, then letters)."""
    _check_size(pair_type, params, bound)
    return list(_enumerate_cached(pair_type, params))


@functools.lru_cache(maxsize=1024)
def _enumerate_cached(pair_type: PairType, params: PairParams) -> tuple[AbDiagram, ...]:
    """The valid diagrams of one pair.  The cache holds 1,024 pairs: every
    pair with n <= 27."""
    return tuple(g for g, _ in _walk(pair_type, params, _blocks))

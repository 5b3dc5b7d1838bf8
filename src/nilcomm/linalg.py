"""Exact ranks over the rationals, and ranks modulo a prime that bound them
from below.

Linear systems are lists of sparse rows (dicts column -> coefficient) with int
or Fraction values.  Elimination is fraction-free: each row enters with its
zero entries dropped, its denominators cleared, its content (the gcd of its
entries) divided out and its leftmost entry made positive, and every row
operation is an integer combination followed by the same division, in the
manner of Bareiss.  A row equal to an earlier one up to sign is dropped on
entry.  A row with a single entry sets its column to zero, so it is settled
first and that column is removed from every other row; the other rows are
eliminated shortest first.  The pivot of a row is its leftmost column, so
the pivot columns do not depend on the order of the rows, and every rank is
exact.  The oracle's Jordan types rank powers of a matrix here; its
truncation ranks are counts of rows of powers of e, and its kernels are read
off the chains of e, with no elimination.

``rank_mod_p`` ranks integer rows over GF(PRIME), packing each vector into
one int with a 64-bit field per entry, so that a row operation is one
multiply-add on ints, done in C.  A minor that is nonzero mod PRIME is
nonzero over Z, so this rank never exceeds the rank over Q.  The defect's
certificate uses its two ranks only as such lower bounds and ranks them
here.
"""

from __future__ import annotations

from math import gcd, lcm
from struct import pack as _pack, unpack as _unpack

PRIME = 33_554_393  # the largest prime below 2**25, so 2**64 // PRIME**2 > 16,000
_MASK = (1 << 64) - 1


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide a nonzero integer row by its content."""
    g = gcd(*row.values())
    if g == 1:
        return row
    return {k: v // g for k, v in row.items()}


def _integer_row(raw) -> dict[int, int]:
    """The primitive integer row with the same kernel as ``raw``, its
    leftmost entry positive."""
    row = {k: v for k, v in raw.items() if v}
    if not row:
        return row
    try:
        g = gcd(*row.values())
    except TypeError:  # Fraction entries: clear their denominators first
        den = lcm(*(v.denominator for v in row.values()))
        row = {k: int(v * den) for k, v in row.items()}
        g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {k: v // g for k, v in row.items()}


def _combine(cur: dict[int, int], piv: dict[int, int], c: int) -> dict[int, int]:
    """Integer combination of ``cur`` and ``piv`` that clears column ``c``,
    divided by its content; empty when nothing is left."""
    p, a = piv[c], cur[c]
    g = gcd(p, a)
    p, a = p // g, a // g
    nxt = {k: p * v for k, v in cur.items()} if p != 1 else dict(cur)
    for k, v in piv.items():
        nv = nxt.get(k, 0) - a * v
        if nv:
            nxt[k] = nv
        else:
            del nxt[k]
    return _primitive(nxt) if nxt else nxt


def echelon_pivots(rows) -> dict[int, dict[int, int]]:
    """Forward elimination; returns pivot-column -> primitive integer row
    (not inter-reduced).  Rows repeated up to sign are eliminated once."""
    pivots: dict[int, dict[int, int]] = {}
    seen = set()
    rest = []
    for raw in rows:
        # a single nonzero entry sets its column c to zero: pivot {c: 1}
        row = {c: 1} if len(raw) == 1 and raw[c := next(iter(raw))] else _integer_row(raw)
        if len(row) == 1:
            (c,) = row
            pivots[c] = row
        elif row and (key := frozenset(row.items())) not in seen:
            seen.add(key)
            rest.append(row)
    settled = set(pivots)
    rest.sort(key=len)
    for cur in rest:
        if not settled.isdisjoint(cur):
            cur = {k: v for k, v in cur.items() if k not in settled}
            cur = _primitive(cur) if cur else cur
        while cur:
            c = min(cur)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = cur
                break
            cur = _combine(cur, piv, c)
    return pivots


def rank(rows) -> int:
    return len(echelon_pivots(rows))


def rank_mod_p(rows) -> int:
    """Rank over GF(PRIME) of sparse integer rows, as the rank of their
    transpose: each column of the rows is packed into one int, the entry of
    row k reduced into [0, PRIME) in bits 64k .. 64k + 63, and the packed
    columns are eliminated.

    A packed row is read from its lowest field up and shifted down past
    each field it reads.  One whose leading entry v meets no pivot becomes
    one: its fields past v, scaled by -1/v and reduced, once.  Any other r
    takes r + v * pivot, with no reduction, so each operation adds less than
    PRIME**2 to a field, and a field stays below (1 + len(rows)) * PRIME**2.
    ValueError when that could pass 2**64."""
    if (1 + len(rows)) * PRIME**2 > 1 << 64:
        raise ValueError(f"{len(rows)} rows overflow a 64-bit field mod {PRIME}")
    packed: dict = {}
    for k, row in enumerate(rows):
        for c, v in row.items():
            packed[c] = packed.get(c, 0) + (v % PRIME << 64 * k)
    pivots: dict[int, int] = {}
    for r in packed.values():
        col = 0  # the field that bit 0 of r holds
        while r:
            low = (r & -r).bit_length() - 1 >> 6
            col += low
            v = (r >> 64 * low & _MASK) % PRIME
            r >>= 64 * low + 64
            if v:
                piv = pivots.get(col)
                if piv is None:
                    n, inv = (r.bit_length() + 63) // 64, PRIME - pow(v, -1, PRIME)
                    fields = _unpack(f"<{n}Q", r.to_bytes(8 * n, "little"))
                    pivots[col] = int.from_bytes(_pack(f"<{n}Q", *[f * inv % PRIME for f in fields]), "little")
                    break
                r += v * piv
            col += 1
    return len(pivots)

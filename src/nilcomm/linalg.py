"""Ranks modulo a prime, which bound the ranks over the rationals from below.

``rank_mod_p`` ranks integer rows over GF(PRIME), packing each vector into
one int with a 64-bit field per entry, so that a row operation is one
multiply-add on ints, done in C.  A minor that is nonzero mod PRIME is
nonzero over Z, so this rank never exceeds the rank over Q.  The defect's
certificate uses its two ranks only as such lower bounds and ranks them
here.  Every exact rank the oracle takes is of a monomial matrix, at most
one entry in each row and column, and is read off its chains; nothing in
the library eliminates exactly.
"""

from __future__ import annotations

from struct import pack as _pack, unpack as _unpack

PRIME = 33_554_393  # the largest prime below 2**25, so 2**64 // PRIME**2 > 16,000
_MASK = (1 << 64) - 1


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

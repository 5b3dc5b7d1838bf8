"""Exact ranks over the rationals.

Linear systems are lists of sparse rows (dicts column -> coefficient) with int
or Fraction values.  Elimination is fraction-free: each row enters with its
zero entries dropped, its denominators cleared, its content (the gcd of its
entries) divided out and its leftmost entry made positive, and every row
operation is an integer combination followed by the same division, in the
manner of Bareiss.  A row equal to an earlier one (as the rows of a
commutator often are, up to sign) is dropped on entry.  A row with a single
entry sets its column to zero, so it is settled first and that column is
removed from every other row; the other rows are eliminated shortest first.
The pivot of a row is its leftmost column, so the pivot columns do not
depend on the order of the rows, and every rank is exact.  The oracle ranks
the powers of e and the defect's brackets and Gram matrices here; its
kernels are read off the chains of e, with no elimination.
"""

from __future__ import annotations

from math import gcd, lcm


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

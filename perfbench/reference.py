"""Reference computations for the benchmark's checks, written apart from
nilcomm: partitions and their counts, the textbook parity rules for signed
Young diagrams, the closure order by truncation counts, ambient dimensions
and exact integer matrix arithmetic.  Diagrams are tuples of (length, start)
rows, start None for plain partitions, in nilcomm's canonical order."""

from __future__ import annotations

import itertools
from fractions import Fraction

SIGNATURE_TYPES = ("AIII", "BDI", "CII")
EVEN_N_TYPES = ("AII", "CI", "CII", "DIII")
TYPES = ("AI", "AII", "AIII", "BDI", "CI", "CII", "DIII")


def pairs_of_size(n: int, types=TYPES):
    """All (type, n, signature) of one size, signature None when the type has
    none; the order of nilcomm's certification sweep."""
    out = []
    for t in types:
        if t in EVEN_N_TYPES and n % 2:
            continue
        if t in SIGNATURE_TYPES:
            step = 2 if t == "CII" else 1
            out.extend((t, n, (p, n - p)) for p in range(0, n + 1, step) if (n - p) % step == 0)
        else:
            out.append((t, n, None))
    return out


def partitions(n: int, largest: int | None = None):
    if n == 0:
        yield ()
        return
    for head in range(min(n, largest or n), 0, -1):
        for tail in partitions(n - head, head):
            yield (head,) + tail


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * (p[m - g1] + (p[m - g2] if g2 <= m else 0))
            k += 1
        p[m] = total
    return p[n]


def overpartition_count(m: int) -> int:
    """Coefficient of x^m in prod_k (1 + x^k) / (1 - x^k): partitions of m in
    which each distinct part carries one of two colours."""
    poly = [1] + [0] * m
    for k in range(1, m + 1):
        # multiply by 1 + 2 x^k + 2 x^2k + ...
        new = poly[:]
        for i in range(k, m + 1):
            new[i] += 2 * sum(poly[i - j * k] for j in range(1, i // k + 1))
        poly = new
    return poly[m]


def canonical(rows) -> tuple:
    return tuple(sorted(rows, key=lambda r: (-r[0], r[1] or "")))


def text(rows) -> str:
    if not rows:
        return ""
    if rows[0][1] is None:
        return ",".join(str(d) for d, _ in rows)
    return "/".join("".join(s if i % 2 == 0 else ("b" if s == "a" else "a") for i in range(d))
                    for d, s in rows)


def from_text(txt: str) -> tuple:
    if not txt:
        return ()
    if txt[0] in "ab":
        return canonical((len(r), r[0]) for r in txt.split("/"))
    return canonical((int(x), None) for x in txt.split(","))


def letters(rows) -> tuple[int, int]:
    a = b = 0
    for d, s in rows:
        first, second = (d + 1) // 2, d // 2
        if s == "a":
            a, b = a + first, b + second
        elif s == "b":
            a, b = a + second, b + first
    return a, b


def is_valid(t: str, n: int, sig, rows) -> bool:
    """Signed Young diagram rules (Collingwood-McGovern 9.3): AI any
    partition; AII even multiplicities; AIII any signing; BDI (so_{p,q}) even
    rows signed in +/- pairs; CI (sp_{2n}(R)) odd rows in pairs; CII
    (sp_{p,q}) odd rows of each sign in even number, even rows in pairs;
    DIII (so*_{2n}) odd rows in pairs, even rows of each sign in even
    number.  Letter counts must give the signature."""
    if sum(d for d, _ in rows) != n:
        return False
    mult: dict[int, list[int]] = {}
    for d, s in rows:
        m = mult.setdefault(d, [0, 0, 0])
        m[0] += 1
        m[1] += s == "a"
        m[2] += s == "b"
    for d, (m, a, b) in mult.items():
        odd = d % 2 == 1
        if t == "AII" and m % 2:
            return False
        if t == "BDI" and not odd and a != b:
            return False
        if t in ("CI", "DIII") and odd and a != b:
            return False
        if t == "DIII" and not odd and (a % 2 or b % 2):
            return False
        if t == "CII" and (a % 2 or b % 2 if odd else a != b):
            return False
    if t in ("AI", "AII"):
        return True
    want = sig if sig is not None else (n // 2, n // 2)
    return letters(rows) == want


def all_signings(part, plain: bool):
    """Every distinct diagram on a partition: one per choice, for each
    length, of how many of its rows start with a."""
    if plain:
        return [tuple((d, None) for d in part)]
    lengths = sorted(set(part), reverse=True)
    choices = [range(part.count(d), -1, -1) for d in lengths]
    return [tuple(row for d, a in zip(lengths, counts)
                  for row in [(d, "a")] * a + [(d, "b")] * (part.count(d) - a))
            for counts in itertools.product(*choices)]


def valid_diagrams(t: str, n: int, sig) -> list[tuple]:
    plain = t in ("AI", "AII")
    out = []
    for part in partitions(n):
        out.extend(rows for rows in all_signings(part, plain) if is_valid(t, n, sig, rows))
    return out


def dim_p(t: str, n: int, sig) -> int:
    """Dimension of p for the symmetric pair."""
    if t == "AI":
        return n * (n + 1) // 2 - 1 if n else 0
    if t == "AII":
        return n * (n - 1) // 2 - 1 if n else 0
    if t == "AIII":
        return 2 * sig[0] * sig[1]
    if t in ("BDI", "CII"):
        return sig[0] * sig[1]
    if t == "CI":
        return n * n // 4 + n // 2
    return n * n // 4 - n // 2  # DIII


# -- the closure order by truncation counts ---------------------------------


def truncation_counts(rows, k: int) -> tuple:
    """Cells (plain) or (a, b) cells of the diagram without its first k
    columns."""
    if rows and rows[0][1] is None:
        return (sum(d - k for d, _ in rows if d > k),)
    kept = [(d - k, s if k % 2 == 0 else ("b" if s == "a" else "a")) for d, s in rows if d > k]
    return letters(kept)


def leq(r1, r2) -> bool:
    depth = max([d for d, _ in r1] + [d for d, _ in r2] + [0])
    for k in range(depth + 1):
        if any(x > y for x, y in zip(truncation_counts(r1, k), truncation_counts(r2, k))):
            return False
    return True


def covers_above(rows, diagrams) -> set[str]:
    """Texts of the covers of rows in the poset on diagrams."""
    ups = [g for g in diagrams if g != rows and leq(rows, g)]
    return {text(g) for g in ups if not any(o != g and leq(o, g) for o in ups)}


def transitive_reduction(nodes, less) -> set[tuple]:
    """Edges (x, y) with x < y and nothing strictly between; less is a set of
    pairs of a strict partial order."""
    above = {x: {y for (u, y) in less if u == x} for x in nodes}
    return {(x, y) for x in nodes for y in above[x]
            if not any(y in above[z] for z in above[x] if z != y)}


# -- exact integer matrices --------------------------------------------------


def mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col) if x and y) for col in bt) for row in a)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(a):
    return tuple(zip(*a))


def scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def rank(rows) -> int:
    """Rank of a list of equal-length integer vectors, by exact elimination."""
    work = [[Fraction(x) for x in r] for r in rows if any(r)]
    rk, col, ncols = 0, 0, len(work[0]) if work else 0
    while rk < len(work) and col < ncols:
        piv = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[rk], work[piv] = work[piv], work[rk]
        for i in range(rk + 1, len(work)):
            if work[i][col]:
                f = work[i][col] / work[rk][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rk])]
        rk += 1
        col += 1
    return rk


def jordan_type(m) -> tuple:
    """Partition of a nilpotent matrix, from the ranks of its powers; None if
    it is not nilpotent."""
    n = len(m)
    ranks, power = [n], m
    while ranks[-1]:
        if len(ranks) > n:
            return None
        ranks.append(rank(power))
        power = mat_mul(power, m)
    blocks = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]  # blocks of size >= k
    parts = []
    for k in range(len(blocks), 0, -1):
        parts += [k] * (blocks[k - 1] - (blocks[k] if k < len(blocks) else 0))
    return tuple(sorted(parts, reverse=True))


def dominates_strictly(lam, mu) -> bool:
    if lam == mu or sum(lam) != sum(mu):
        return False
    sl = sm = 0
    for k in range(max(len(lam), len(mu))):
        sl += lam[k] if k < len(lam) else 0
        sm += mu[k] if k < len(mu) else 0
        if sl < sm:
            return False
    return True

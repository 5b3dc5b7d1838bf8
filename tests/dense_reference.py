"""Dense reference arithmetic for the tests, written apart from nilcomm: n x n
matrices as tuples of tuples, products row by row (row i of ab is the sum of
a_it times row t of b), and rank by Gaussian elimination over Fraction.  The
oracle multiplies sparse matrices, or relabels and scales entries; the tests
check it against these."""

from fractions import Fraction


def zeros(n, m=None):
    m = n if m is None else m
    return [[0] * m for _ in range(n)]


def freeze(mat):
    return tuple(tuple(row) for row in mat)


def identity(n):
    return freeze([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def mat_mul(a, b):
    m = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * m
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(acc)
    return freeze(out)


def mat_add(a, b):
    return freeze([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def mat_sub(a, b):
    return freeze([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])


def mat_scale(c, a):
    return freeze([[c * x for x in row] for row in a])


def transpose(a):
    return freeze(zip(*a)) if a else ()


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def mat_rank(a):
    mat = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        sel = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col]:
                fac = mat[r][col] / mat[rank][col]
                mat[r] = [x - fac * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def jordan_type(a):
    """Partition of a nilpotent matrix: the number of blocks of size > k is
    rank(a^k) - rank(a^(k+1)), and the partition is the conjugate of those
    counts.  None when a is not nilpotent."""
    n = len(a)
    ranks, power = [n], identity(n)
    while ranks[-1]:
        if len(ranks) > n:
            return None
        power = mat_mul(power, a)
        ranks.append(mat_rank(power))
    longer = [ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)]
    return tuple(sum(1 for c in longer if c > i) for i in range(longer[0] if longer else 0))


def theta(real, x):
    """The involution of an oracle realization applied to x: conjugation by
    its sign matrix D, or for AI/AII (no D) x -> -T^-1 x^t T, where T^-1 = T^t
    since the form T is a signed permutation."""
    if real.d_matrix is not None:
        return mat_mul(mat_mul(real.d_matrix, x), real.d_matrix)
    return mat_scale(-1, mat_mul(mat_mul(transpose(real.form), transpose(x)), real.form))

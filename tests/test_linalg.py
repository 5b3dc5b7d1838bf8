import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

import dense_reference as dense
import sparse_reference as sparse
from nilcomm import linalg


def dense_rank_reference(rows, ncols):
    """Textbook dense Gaussian elimination over Fraction."""
    return dense.mat_rank([[r.get(j, 0) for j in range(ncols)] for r in rows])


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_matches_dense_reference(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 10), rng.randint(1, 10)
    rows = []
    for _ in range(m):
        row = {j: rng.choice([-2, -1, 1, 2]) for j in range(n) if rng.random() < 0.4}
        rows.append(row)
    assert sparse.rank(rows) == dense_rank_reference(rows, n)


def rref(rows):
    """The integer reduced echelon form that ``sparse.nullspace`` reads, each
    row divided by its pivot entry."""
    return {c: {k: Fraction(v, row[c]) for k, v in row.items()}
            for c, row in sparse.reduced(sparse.echelon_pivots(rows)).items()}


def dense_rref_reference(rows, ncols):
    """Textbook dense Gauss-Jordan over Fraction: pivot column -> reduced row
    with pivot coefficient 1."""
    mat = [[Fraction(r.get(j, 0)) for j in range(ncols)] for r in rows]
    pivot_rows = {}
    row_at = 0
    for col in range(ncols):
        sel = next((r for r in range(row_at, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[row_at], mat[sel] = mat[sel], mat[row_at]
        lead = mat[row_at][col]
        mat[row_at] = [x / lead for x in mat[row_at]]
        for r in range(len(mat)):
            if r != row_at and mat[r][col]:
                fac = mat[r][col]
                mat[r] = [x - fac * y for x, y in zip(mat[r], mat[row_at])]
        pivot_rows[col] = row_at
        row_at += 1
    return {c: {j: v for j, v in enumerate(mat[r]) if v} for c, r in pivot_rows.items()}


def nullspace_from_reference(rref, ncols):
    """One kernel vector per free column, scaled to coprime integers."""
    basis = []
    for f in range(ncols):
        if f in rref:
            continue
        vec = {f: Fraction(1)}
        vec.update({c: -row[f] for c, row in rref.items() if f in row})
        den = lcm(*(v.denominator for v in vec.values()))
        ints = {k: int(v * den) for k, v in vec.items()}
        g = gcd(*ints.values())
        basis.append({k: v // g for k, v in ints.items()})
    return basis


ENTRIES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
)


@st.composite
def sparse_systems(draw):
    """Sparse rows with explicit zeros, Fraction entries, single-entry rows,
    duplicate rows and coefficients up to 10^6 in absolute value."""
    ncols = draw(st.integers(min_value=1, max_value=8))
    col = st.integers(min_value=0, max_value=ncols - 1)
    row = st.one_of(
        st.dictionaries(col, ENTRIES, max_size=ncols),
        st.builds(lambda c, v: {c: v}, col, ENTRIES),
    )
    rows = draw(st.lists(row, min_size=1, max_size=10))
    repeats = draw(st.lists(st.sampled_from(range(len(rows))), max_size=3))
    return rows + [dict(rows[i]) for i in repeats], ncols


@given(sparse_systems())
def test_rref_and_nullspace_match_dense_reference(system):
    rows, ncols = system
    reference = dense_rref_reference(rows, ncols)
    reduced = rref(rows)
    assert reduced == reference and list(reduced) == list(reference)
    assert sparse.nullspace(rows, ncols) == nullspace_from_reference(reference, ncols)
    echelon = sparse.echelon_pivots(rows)
    assert set(echelon) == set(reference)
    for c, row in echelon.items():
        assert min(row) == c
        assert all(type(v) is int and v for v in row.values())
        assert gcd(*row.values()) == 1


def test_rows_with_explicit_zero_coefficients():
    rows = [{0: 0, 1: 1}, {0: 0, 1: 0}, {1: 1, 2: 0}]
    assert sparse.rank(rows) == 1


def test_nullspace_vectors_are_in_kernel():
    rng = random.Random(7)
    for _ in range(25):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = [
            {j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.5}
            for _ in range(m)
        ]
        basis = sparse.nullspace(rows, n)
        assert len(basis) == n - sparse.rank(rows)
        for vec in basis:
            for row in rows:
                assert sum(Fraction(c) * vec.get(j, 0) for j, c in row.items()) == 0


@given(sparse_systems(), st.randoms(use_true_random=False), st.integers(min_value=1, max_value=3))
def test_row_order_repeats_and_signs_do_not_matter(system, rng, copies):
    """Shuffled, repeated and negated rows give the same rank, reduced rows
    and kernel basis, and the basis has int entries."""
    rows, ncols = system
    varied = [{k: sign * v for k, v in row.items()}
              for row in rows for _ in range(rng.randint(1, copies))
              for sign in [rng.choice((1, -1))]]
    rng.shuffle(varied)
    assert sparse.rank(varied) == sparse.rank(rows)
    reduced = rref(varied)
    assert reduced == rref(rows) and list(reduced) == list(rref(rows))
    basis = sparse.nullspace(varied, ncols)
    assert basis == sparse.nullspace(rows, ncols)
    assert all(type(v) is int for vec in basis for v in vec.values())


def test_repeated_rows_are_not_eliminated_again(monkeypatch):
    calls = []
    combine = sparse._combine
    monkeypatch.setattr(sparse, "_combine", lambda *args: calls.append(args) or combine(*args))

    def combine_calls(rows) -> int:
        calls.clear()
        sparse.rank(rows)
        return len(calls)

    rng = random.Random(3)
    rows = [{j: rng.randint(-4, 4) for j in range(9) if rng.random() < 0.5} for _ in range(12)]
    alone = combine_calls(rows)
    assert alone > 0
    for k in (2, 5):
        repeated = [dict(row) for row in rows for _ in range(k)]
        negated = rows + [{c: -v for c, v in row.items()} for row in rows for _ in range(k - 1)]
        assert combine_calls(repeated) == alone
        assert combine_calls(negated) == alone


def test_single_entry_rows_pin_their_column():
    """A row with one nonzero entry, negative, Fraction or repeated up to
    sign, is the pivot {c: 1}; a lone zero entry is no row at all.  Rank and
    kernel agree with the dense reference."""
    single = [{0: -3}, {2: Fraction(-5, 7)}, {2: Fraction(5, 7)}, {4: 0}, {0: 3}, {0: -3},
              {5: 10**6}, {1: 0, 5: Fraction(1, 3)}]
    other = [{1: 2, 3: -4}, {0: 1, 1: 1, 4: -1}]
    ncols = 6
    assert sparse.echelon_pivots(single) == {c: {c: 1} for c in (0, 2, 5)}
    for rows in (single, single + other, other + single[::-1]):
        pivots = sparse.echelon_pivots(rows)
        assert all(pivots[c] == {c: 1} for c in (0, 2, 5))
        assert sparse.rank(rows) == dense_rank_reference(rows, ncols)
        reference = dense_rref_reference(rows, ncols)
        assert rref(rows) == reference
        assert sparse.nullspace(rows, ncols) == nullspace_from_reference(reference, ncols)
    assert sparse.echelon_pivots([{3: 0}, {}]) == {}


@st.composite
def integer_systems(draw):
    """Sparse integer rows with negative, zero and very large entries, empty
    rows and column ids far apart."""
    cols = draw(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8, unique=True))
    entry = st.one_of(st.integers(min_value=-3, max_value=3),
                      st.integers(min_value=-10**40, max_value=10**40),
                      st.sampled_from([linalg.PRIME, -linalg.PRIME, 2 * linalg.PRIME + 1]))
    return draw(st.lists(st.dictionaries(st.sampled_from(cols), entry, max_size=len(cols)), max_size=10))


@given(integer_systems())
def test_rank_mod_p_is_at_most_the_rank(rows):
    assert linalg.rank_mod_p(rows) <= sparse.rank(rows)


def test_rank_mod_p_of_a_row_through_every_column():
    """464 columns, the widest system at the default bound.  The rows are the
    columns of 463 pivots, upper triangular with every entry p - 1, and of
    one more column that meets each pivot at v = p - 1, so that each of its
    unreduced packed fields grows by (p - 1)**2 at every read before its
    own; its last entry decides the rank."""
    p, n = linalg.PRIME, 464
    pivots = [{j: p - 1 for j in range(i, n)} for i in range(n - 1)]
    for last, want in ((p - (n - 1), n - 1), (p - n, n)):
        deepest = {j: p - 1 - j for j in range(n - 1)} | {n - 1: last}
        columns = pivots + [deepest]
        rows = [{k: col[j] for k, col in enumerate(columns) if j in col} for j in range(n)]
        assert linalg.rank_mod_p(rows) == want


def test_rank_mod_p_checks_its_headroom():
    assert linalg.rank_mod_p([{}] * 16383) == 0
    with pytest.raises(ValueError, match="16384 rows overflow a 64-bit field mod 33554393"):
        linalg.rank_mod_p([{}] * 16384)

import dataclasses
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import dense_reference as dense
import nilcomm

from nilcomm import linalg, oracle
from nilcomm.diagrams import (
    AbDiagram,
    PairParams,
    PairType,
    enumerate_diagrams,
    pairs_of_size,
    params_for,
    parse,
    partitions,
)
from nilcomm.errors import (
    NoAdjacentLengths,
    NotAlmostDistinguished,
    NotNilpotent,
    OracleCheckFailed,
    SizeMismatch,
    UnrealizableDiagram,
    WrongType,
)


def test_realize_ai_21_frozen_dims():
    real = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
    assert oracle.dim_p_cent_oracle(real) == 3
    assert oracle.dim_graded(real, 0, -1) == 1
    assert oracle.dim_graded(real, 1, -1) == 1
    assert oracle.defect_oracle(real) == 1
    gd = oracle.centralizer_dims(real)
    assert gd.dim_p_cent == 3
    assert gd.dim_g_f_minus1 == 2
    assert gd.dim_fixed_f_minus1 == 0


def test_realize_bdi_gamma5():
    real = oracle.realize(parse("aba/a/b"), PairType.BDI, params_for(PairType.BDI, 5, 3, 2))
    assert oracle.dim_p_cent_oracle(real) == 3
    assert oracle.dim_graded(real, 0, -1) == 1
    assert oracle.defect_oracle(real) == 1
    # trace of the involution sign matrix is p - q
    assert dense.trace(real.d_matrix) == 1


def test_realize_rejects_single_even_bdi_row():
    with pytest.raises(UnrealizableDiagram):
        oracle.realize(parse("abab"), PairType.BDI, params_for(PairType.BDI, 4, 2, 2))


def test_realize_rejects_wrong_signature():
    with pytest.raises(UnrealizableDiagram):
        oracle.realize(parse("aba/a/b"), PairType.BDI, params_for(PairType.BDI, 5, 2, 3))


def test_realize_size_and_type_errors():
    with pytest.raises(SizeMismatch):
        oracle.realize(parse("2,1"), PairType.AI, PairParams(4))
    with pytest.raises(WrongType):
        oracle.realize(parse("2,1"), PairType.BDI, params_for(PairType.BDI, 3, 2, 1))


def test_realize_rejects_odd_multiplicity_aii():
    with pytest.raises(UnrealizableDiagram):
        oracle.realize(parse("2,1,1"), PairType.AII, PairParams(4))


def test_jordan_type_round_trip():
    for n in range(0, 11):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                real = oracle.realize(diagram, pt, prm)
                assert oracle.jordan_type(real.e) == diagram.partition


def test_jordan_type_zero_and_errors():
    assert oracle.jordan_type(dense.freeze(dense.zeros(3))) == (1, 1, 1)
    assert oracle.jordan_type(()) == ()
    with pytest.raises(NotNilpotent):
        oracle.jordan_type(dense.identity(2))


def test_jordan_type_matches_dense_reference():
    """On e, f and every witness of every valid diagram with n <= 8."""
    for n in range(0, 9):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                real = oracle.realize(diagram, pt, prm)
                matrices = [real.e, real.f]
                if pt in (PairType.AI, PairType.AII) and oracle.find_adjacent_rows(diagram):
                    matrices.append(oracle.commuting_witness(real))
                for m in matrices:
                    assert oracle.jordan_type(m) == dense.jordan_type(m), (pt, prm, diagram.text())


@st.composite
def strictly_upper_triangular(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))
    return tuple(tuple(draw(entry) if c > r else 0 for c in range(n)) for r in range(n))


@given(strictly_upper_triangular())
def test_jordan_type_of_triangular_matrices_matches_dense_reference(m):
    assert oracle.jordan_type(m) == dense.jordan_type(m)


def test_ab_label_recovery():
    """The involution eigenvalue of each lowest-weight vector is the row's
    start letter, for every lettered realization with n <= 8."""
    for n in range(1, 9):
        for pt, prm in pairs_of_size(n):
            if not pt.uses_letters:
                continue
            for diagram in enumerate_diagrams(pt, prm):
                real = oracle.realize(diagram, pt, prm)
                for k, (row, power) in enumerate(real.basis):
                    if power == 0:
                        want = 1 if diagram.rows[row][1] == "a" else -1
                        assert real.d_matrix[k][k] == want


def test_form_weights_pair_to_zero():
    """The form couples only h-weight spaces of opposite weights."""
    for n in range(1, 9):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                real = oracle.realize(diagram, pt, prm)
                if real.form is None:
                    continue
                for k in range(real.n):
                    for l in range(real.n):
                        if real.form[k][l]:
                            assert real.h[k][k] + real.h[l][l] == 0


def test_witness_ai_21():
    real = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
    w = oracle.commuting_witness(real)
    assert oracle.jordan_type(w) == (3,)
    assert dense.commutator(real.e, w) == dense.freeze(dense.zeros(3))
    assert real.theta(w) == dense.mat_scale(-1, w)


def test_witness_aii_2211():
    real = oracle.realize(parse("2,2,1,1"), PairType.AII, PairParams(6))
    w = oracle.commuting_witness(real)
    assert oracle.jordan_type(w) == (3, 3)


# one realization of each type, and the identity that fails first when one of
# its matrices is doubled
TAMPER_CASES = [
    ("2,1", PairType.AI, PairParams(3)),
    ("2,2,1,1", PairType.AII, PairParams(6)),
    ("ab/a", PairType.AIII, PairParams(3, (2, 1))),
    ("aba/a/b", PairType.BDI, PairParams(5, (3, 2))),
    ("abab/ba", PairType.CI, PairParams(6)),
    ("ab/ab/ba/ba", PairType.CII, PairParams(8, (4, 4))),
    ("aba/bab", PairType.DIII, PairParams(6)),
]
FIRST_FAILURE = {
    "e": "[e, f] = h",
    "h": "[h, e] = 2e",
    "f": "[e, f] = h",
    "form": "form T is a signed permutation",
    "d_matrix": "theta(e) = -e",
}


def test_tampered_realization_fails_its_checks():
    real = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
    bad_h = dataclasses.replace(real, h=dense.mat_scale(2, real.h))
    with pytest.raises(OracleCheckFailed, match=r"\[h, e\] = 2e"):
        oracle._check_realization(bad_h)
    bad_e = dataclasses.replace(real, e=dense.transpose(real.e))
    with pytest.raises(OracleCheckFailed, match=r"\[e, w\] = 0"):
        oracle.commuting_witness(bad_e)
    tampered = 0
    for text, pt, prm in TAMPER_CASES:
        real = oracle.realize(parse(text), pt, prm)
        oracle._check_realization(real)
        for field, identity in FIRST_FAILURE.items():
            m = getattr(real, field)
            if m is None:
                continue
            bad = dataclasses.replace(real, **{field: dense.mat_scale(2, m)})
            with pytest.raises(OracleCheckFailed) as exc:
                oracle._check_realization(bad)
            assert str(exc.value) == f"identity fails: {identity}", (pt, field)
            tampered += 1
    assert tampered == 7 * 3 + 6 + 5


def test_form_checks_name_their_identity():
    """Signed permutations T that break only the symmetry of the form, its
    compatibility with the triple, or with the involution."""
    real = oracle.realize(parse("aba/a/b"), PairType.BDI, PairParams(5, (3, 2)))
    t = real.form
    assert t[3][3] == t[4][4] == 1  # rows a and b of length 1 are self-coupled
    cross = t[:3] + ((0, 0, 0, 0, 1), (0, 0, 0, 1, 0))
    for form, identity in [
        (t[::-1], "T^t = eps T"),
        (dense.identity(5), "e^t T = -eta T e"),
        (cross, "D^t T D = xi T"),
    ]:
        with pytest.raises(OracleCheckFailed) as exc:
            oracle._check_realization(dataclasses.replace(real, form=form))
        assert str(exc.value) == f"identity fails: {identity}"


def test_every_form_is_a_signed_permutation():
    """T has one entry +-1 in each row and column, so T T^t = I, for every
    valid diagram with n <= 8 of every type with a form."""
    checked = 0
    for n in range(1, 9):
        for pt, prm in pairs_of_size(n):
            if pt is PairType.AIII:
                continue
            for d in enumerate_diagrams(pt, prm):
                t = oracle.realize(d, pt, prm).form
                assert all(sum(1 for v in row if v) == 1 for row in t)
                assert all(v in (0, 1, -1) for row in t for v in row)
                assert dense.mat_mul(t, dense.transpose(t)) == dense.identity(n)
                checked += 1
    assert checked == 350


OPTIMIZED_CHECKS = """
import dataclasses
from nilcomm import oracle
from nilcomm.diagrams import PairParams, PairType, parse
from nilcomm.errors import OracleCheckFailed

if __debug__:
    raise SystemExit("expected python -O")
real = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
for tampered, check in [
    (dataclasses.replace(real, h=tuple(tuple(2 * v for v in row) for row in real.h)),
     oracle._check_realization),
    (dataclasses.replace(real, form=tuple(tuple(2 * v for v in row) for row in real.form)),
     oracle._check_realization),
    (dataclasses.replace(real, e=tuple(zip(*real.e))), oracle.commuting_witness),
]:
    try:
        check(tampered)
    except OracleCheckFailed as exc:
        print(exc)
    else:
        raise SystemExit("tampered realization passed")
"""


def test_oracle_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(nilcomm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "identity fails: [h, e] = 2e",
        "identity fails: form T is a signed permutation",
        "identity fails: [e, w] = 0",
    ]


def test_witness_gap_two_fails():
    real = oracle.realize(parse("3,1"), PairType.AI, PairParams(4))
    with pytest.raises(NoAdjacentLengths):
        oracle.commuting_witness(real)


def test_witness_wrong_type():
    real = oracle.realize(parse("ab/a/b"), PairType.AIII, PairParams(4, (2, 2)))
    with pytest.raises(WrongType):
        oracle.commuting_witness(real)


def test_degree_one_vanishes_iff_no_adjacent_lengths_spot():
    r31 = oracle.realize(parse("3,1"), PairType.AI, PairParams(4))
    assert oracle.dim_graded(r31, 1, -1) == 0
    assert oracle.dim_graded(r31, 1, 1) == 0
    r21 = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
    assert oracle.dim_graded(r21, 1, -1) + oracle.dim_graded(r21, 1, 1) > 0


def test_selflarge_test_applies():
    r21 = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
    assert oracle.selflarge_test_7_4(r21) is True
    r31 = oracle.realize(parse("3,1"), PairType.AI, PairParams(4))
    assert oracle.selflarge_test_7_4(r31) is False
    regular = oracle.realize(parse("3"), PairType.AI, PairParams(3))
    with pytest.raises(NotAlmostDistinguished):
        oracle.selflarge_test_7_4(regular)
    zero_orbit = oracle.realize(parse("1,1,1"), PairType.AI, PairParams(3))
    with pytest.raises(NotAlmostDistinguished):
        oracle.selflarge_test_7_4(zero_orbit)


def test_defect_oracle_deterministic():
    real = oracle.realize(parse("aba/a/b"), PairType.BDI, params_for(PairType.BDI, 5, 3, 2))
    assert oracle.defect_oracle(real, seed=5) == oracle.defect_oracle(real, seed=5)
    assert oracle.defect_oracle(real, seed=1) == oracle.defect_oracle(real, seed=2) == 1


def test_graded_pieces_sum_to_centralizer():
    for text, pt, prm in [
        ("3,1", PairType.AI, PairParams(4)),
        ("2,2", PairType.AII, PairParams(4)),
        ("abab/ba", PairType.CI, PairParams(6)),
        ("ab/ab/a/b", PairType.AIII, PairParams(6, (3, 3))),
        ("aba/bab/ab/ab", PairType.DIII, PairParams(10)),
    ]:
        d = parse(text)
        real = oracle.realize(d, pt, prm)
        gd = oracle.centralizer_dims(real)
        assert gd.dim_p_cent == oracle.dim_p_cent_oracle(real)


def test_realizability_matches_validity_exhaustive_n6():
    """Independent certification of the validity rules at n <= 6: a letter
    assignment is realizable exactly when validate accepts it."""
    for n in range(0, 7):
        for pt, prm in pairs_of_size(n):
            if not pt.uses_letters:
                continue
            valid = set(enumerate_diagrams(pt, prm))
            seen = set()
            for part in partitions(n):
                for letters in itertools.product("ab", repeat=len(part)):
                    d = AbDiagram.from_rows(zip(part, letters))
                    if d in seen:
                        continue
                    seen.add(d)
                    try:
                        oracle.realize(d, pt, prm)
                        ok = True
                    except UnrealizableDiagram:
                        ok = False
                    assert ok == (d in valid), (pt, prm, d.text())


# -- the graded systems against the full n^2 system ---------------------------------


def _reference_maps(real):
    """Each linear condition on the full space of n x n matrices x, as rows
    indexed by the output position: [e, x], [f, x], [h, x], theta(x), and
    membership in g (x^T T + T x for the BD/C types, the trace for the A
    types).  Unknown k is the entry x_rc with k = r*n + c."""
    n = real.n
    units = []
    for r in range(n):
        for c in range(n):
            u = dense.zeros(n)
            u[r][c] = 1
            units.append(dense.freeze(u))

    def rows_of(image):
        imgs = [image(u) for u in units]
        if not imgs:
            return []
        return [{k: img[i][j] for k, img in enumerate(imgs) if img[i][j]}
                for i in range(len(imgs[0])) for j in range(len(imgs[0][0]))]

    maps = {
        "e": rows_of(lambda x: dense.commutator(real.e, x)),
        "f": rows_of(lambda x: dense.commutator(real.f, x)),
        "h": rows_of(lambda x: dense.commutator(real.h, x)),
        "theta": rows_of(real.theta),
    }
    if real.pair_type in oracle.A_TYPES:
        maps["g"] = rows_of(lambda x: ((dense.trace(x),),))
    else:
        t = real.form
        maps["g"] = rows_of(lambda x: dense.mat_add(dense.mat_mul(dense.transpose(x), t),
                                                    dense.mat_mul(t, x)))
    return maps


def _reference_rows(maps, m, degree, sigma):
    """Rows of the full system: [m, x] = 0, x in g, [h, x] = degree x unless
    degree is None, theta(x) = sigma x unless sigma is None."""
    rows = maps[m] + maps["g"]
    for name, scalar in (("h", degree), ("theta", sigma)):
        if scalar is None:
            continue
        for k, row in enumerate(maps[name]):
            row = dict(row)
            row[k] = row.get(k, 0) - scalar
            rows.append({c: v for c, v in row.items() if v})
    return [row for row in rows if row]


def _reference_basis(rows, n):
    basis = []
    for vec in linalg.nullspace(rows, n * n):
        m = dense.zeros(n)
        for k, v in vec.items():
            m[k // n][k % n] = v
        basis.append(dense.freeze(m))
    return basis


def test_graded_systems_match_full_reference():
    """Every kernel dimension and basis of the restricted systems equals the
    one of the full n^2 system, on every valid diagram with n <= 6."""
    for n in range(0, 7):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                real = oracle.realize(diagram, pt, prm)
                maps = _reference_maps(real)
                label = (pt, prm, diagram.text())
                span = 2 * (diagram.rows[0][0] if diagram.rows else 1)
                for degree in range(-span, span + 1):
                    for sigma in (1, -1):
                        rows = _reference_rows(maps, "e", degree, sigma)
                        assert oracle.dim_graded(real, degree, sigma) == \
                            linalg.kernel_dim(rows, n * n), (label, degree, sigma)
                rows = _reference_rows(maps, "e", None, -1)
                assert oracle.dim_p_cent_oracle(real) == linalg.kernel_dim(rows, n * n), label
                rows = _reference_rows(maps, "e", 0, -1)
                assert oracle.p_e0_basis(real) == _reference_basis(rows, n), label
                rows = _reference_rows(maps, "f", -1, None)
                assert oracle.g_f_minus1_basis(real) == _reference_basis(rows, n), label


# -- row matching --------------------------------------------------------------------

FORM_TYPES = (PairType.BDI, PairType.CI, PairType.CII, PairType.DIII)


def _backtracking_match(pair_type, length, row_ids, letters):
    """Depth-first search over partners: the first row takes itself, then
    each later row in order, and recurses on the rest."""
    if not row_ids:
        return []
    first, rest = row_ids[0], row_ids[1:]
    if oracle._pair_admissible(pair_type, length, letters[first], ""):
        sub = _backtracking_match(pair_type, length, rest, letters)
        if sub is not None:
            return [(first, first)] + sub
    for k, other in enumerate(rest):
        if oracle._pair_admissible(pair_type, length, letters[first], letters[other]):
            sub = _backtracking_match(pair_type, length, rest[:k] + rest[k + 1:], letters)
            if sub is not None:
                return [(first, other)] + sub
    return None


def test_pair_admissible_symmetric_in_letters():
    for pt in FORM_TYPES:
        for length in range(1, 13):
            assert oracle._pair_admissible(pt, length, "a", "b") == \
                oracle._pair_admissible(pt, length, "b", "a"), (pt, length)


def test_match_rows_equals_backtracking_search():
    """Same matching, or None, on every ab-diagram with n <= 8."""
    checked = 0
    for pt in FORM_TYPES:
        for n in range(1, 9):
            for part in partitions(n):
                for letters in itertools.product("ab", repeat=len(part)):
                    by_length = {}
                    for i, length in enumerate(part):
                        by_length.setdefault(length, []).append(i)
                    named = dict(enumerate(letters))
                    for length, ids in by_length.items():
                        want = _backtracking_match(pt, length, tuple(ids), named)
                        assert oracle._match_rows(pt, length, tuple(ids), named) == want, \
                            (pt, part, letters, length)
                        checked += 1
    assert checked > 9000


def test_match_rows_polynomial_on_unmatchable_rows(monkeypatch):
    """CI with k+2 a-rows and k b-rows of length 1 has no matching; the
    count recursion decides it in O(k^2) calls."""
    calls = []
    matchable = oracle._matchable

    def counted(*args):
        calls.append(args[2:4])
        return matchable(*args)

    monkeypatch.setattr(oracle, "_matchable", counted)
    k = 12
    letters = {i: "a" if i < k + 2 else "b" for i in range(2 * k + 2)}
    assert oracle._match_rows(PairType.CI, 1, tuple(letters), letters) is None
    assert 0 < len(calls) <= 3 * (k + 3) ** 2
    diagram = AbDiagram.from_rows([(1, letters[i]) for i in letters])
    with pytest.raises(UnrealizableDiagram, match="rows of length 1"):
        oracle.realize(diagram, PairType.CI, PairParams(2 * k + 2))


def test_realize_rejects_before_building_matrices(monkeypatch):
    def no_matrices(_diagram):
        raise AssertionError("matrices built for an unrealizable diagram")

    monkeypatch.setattr(oracle, "_triple_matrices", no_matrices)
    for text, pt, prm, message in [
        ("2,1,1", PairType.AII, PairParams(4), "odd number of rows of length 2"),
        ("abab", PairType.BDI, params_for(PairType.BDI, 4, 2, 2), "rows of length 4"),
        ("ab/ab", PairType.BDI, params_for(PairType.BDI, 4, 3, 1), "rows of length 2"),
        ("aba/a/b", PairType.BDI, params_for(PairType.BDI, 5, 2, 3), "signature"),
        ("ab/a/b", PairType.AIII, PairParams(4, (3, 1)), "signature"),
    ]:
        with pytest.raises(UnrealizableDiagram, match=message):
            oracle.realize(parse(text), pt, prm)

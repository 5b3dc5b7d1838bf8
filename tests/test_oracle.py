import functools
import itertools
import os
import random
import subprocess
import sys
import types
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import dense_reference as dense
import nilcomm
import sparse_reference as sparse
from partition_reference import candidates, partitions

from nilcomm import closure, invariants, linalg, oracle
from nilcomm.diagrams import (
    AbDiagram,
    PairParams,
    PairType,
    DEFAULT_BOUND,
    enumerate_diagrams,
    is_valid,
    pairs_of_size,
    params_for,
    parse,
)
from nilcomm.errors import (
    NilcommError,
    NoAdjacentLengths,
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
    assert _graded_sum(real, -1) == 3
    assert len(_g_f_minus1_basis(real)) == 2
    assert _fixed_space_dim(oracle.p_e0_basis(real), _g_f_minus1_basis(real)) == 0


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
                if pt in (PairType.AI, PairType.AII) and diagram.adjacent_lengths():
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
    assert dense.theta(real, w) == dense.mat_scale(-1, w)


def test_witness_aii_2211():
    real = oracle.realize(parse("2,2,1,1"), PairType.AII, PairParams(6))
    w = oracle.commuting_witness(real)
    assert oracle.jordan_type(w) == (3, 3)


def test_witness_uses_the_rows_the_report_names():
    """The witness takes the first rows of the two lengths that
    adjacent_lengths names (the report's witness lengths), not the longest
    adjacent pair."""
    real = oracle.realize(parse("4,3,2"), PairType.AI, PairParams(9))
    assert real.diagram.adjacent_lengths() == (2, 3)
    witness = oracle.commuting_witness(real)
    assert witness == oracle._dense(real.n, _shift_map(real, 2, 1))
    assert witness != oracle._dense(real.n, _shift_map(real, 1, 0))


def _shift_map(real, low, high):
    """Row ``low`` one step up into row ``high`` (one longer), row ``high``
    back onto row ``low``, and e on every other row."""
    idx = {tag: k for k, tag in enumerate(real.basis)}
    w = {}
    for i, (length, _s) in enumerate(real.diagram.rows):
        if i not in (low, high):
            w.update({(idx[i, a + 1], idx[i, a]): 1 for a in range(length - 1)})
    for a in range(real.diagram.rows[low][0]):
        w[idx[high, a + 1], idx[low, a]] = 1
        w[idx[low, a], idx[high, a]] = 1
    return w


def _theta(x, d, t):
    """The involution on a sparse matrix, built as a matrix: conjugation by
    the diagonal D, d_r d_c x_rc at (r, c); for AI/AII (d None) x -> -T^t x^t
    T, which puts -t_r t_c x_rc at (pi c, pi r) for T[r, pi r] = t_r."""
    if d is not None:
        return {(r, c): w for (r, c), v in x.items() if (w := d.get((r, r), 0) * d.get((c, c), 0) * v)}
    perm = {r: (c, v) for (r, c), v in t.items()}
    return {(perm[c][0], perm[r][0]): -perm[r][1] * perm[c][1] * v for (r, c), v in x.items()}


def _scaled(c, x):
    return {pos: c * v for pos, v in x.items()}


def _rebuilt(real, **changes):
    """A realization with the fields of ``real``, some of them changed, and
    its own empty memo, so that it reads the chains of its own e."""
    fields = {name: getattr(real, name) for name in oracle.MatrixRealization.__slots__
              if not name.startswith("_")}
    return oracle.MatrixRealization(**{**fields, **changes})


# one realization of each type, and the identity that fails first when one of
# its stored matrices is doubled
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
    "e_map": "[e, f] = h",
    "h_map": "[h, e] = 2e",
    "f_map": "[e, f] = h",
    "t_map": "form T is a signed permutation",
    "d_map": "theta(e) = -e",
}


def test_tampered_realization_fails_its_checks():
    real = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
    bad_h = _rebuilt(real, h_map=_scaled(2, real.h_map))
    with pytest.raises(OracleCheckFailed, match=r"\[h, e\] = 2e"):
        oracle._check_realization(bad_h)
    bad_e = _rebuilt(real, e_map={(c, r): v for (r, c), v in real.e_map.items()})
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
            bad = _rebuilt(real, **{field: _scaled(2, m)})
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
            t_map = {(r, c): v for r, row in enumerate(form) for c, v in enumerate(row) if v}
            oracle._check_realization(_rebuilt(real, t_map=t_map))
        assert str(exc.value) == f"identity fails: {identity}"


def test_form_indices_outside_the_basis_fail_the_permutation_check():
    """A T with n entries +-1 in distinct rows and columns is no signed
    permutation when an index lies outside range(n)."""
    real = oracle.realize(parse("aba/a/b"), PairType.BDI, PairParams(5, (3, 2)))
    t_map = dict(real.t_map)
    t_map[9, 9] = t_map.pop((4, 4))
    with pytest.raises(OracleCheckFailed) as exc:
        oracle._check_realization(_rebuilt(real, t_map=t_map))
    assert str(exc.value) == "identity fails: form T is a signed permutation"


def test_non_diagonal_h_or_d_fails_the_structure_check():
    ai = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
    bdi = oracle.realize(parse("aba/a/b"), PairType.BDI, PairParams(5, (3, 2)))
    for tampered in [_rebuilt(ai, h_map={**ai.h_map, (0, 1): 1}),
                     _rebuilt(ai, h_map={**ai.h_map, (3, 3): 1}),
                     _rebuilt(bdi, h_map={**bdi.h_map, (2, 0): -1}),
                     _rebuilt(bdi, d_map={**bdi.d_map, (0, 1): 1}),
                     _rebuilt(bdi, d_map={**bdi.d_map, (9, 9): 1})]:
        with pytest.raises(OracleCheckFailed) as exc:
            oracle._check_realization(tampered)
        assert str(exc.value) == "identity fails: h and D are diagonal"


def _dense_identities(real):
    """(holds, identity) for the identities of a realization in the oracle's
    order, computed from its dense views by generic dense products, without
    the oracle's check that h and D are diagonal."""
    e, h, f, t, d, n = real.e, real.h, real.f, real.form, real.d_matrix, real.n
    mul, scale, tr = dense.mat_mul, dense.mat_scale, dense.transpose
    if t is not None:
        yield all(sorted(map(abs, line)) == [0] * (n - 1) + [1]
                  for line in t + tr(t)), "form T is a signed permutation"
    yield dense.commutator(h, e) == scale(2, e), "[h, e] = 2e"
    yield dense.commutator(h, f) == scale(-2, f), "[h, f] = -2f"
    yield dense.commutator(e, f) == h, "[e, f] = h"
    yield dense.theta(real, e) == scale(-1, e), "theta(e) = -e"
    yield dense.theta(real, h) == h, "theta(h) = h"
    yield dense.theta(real, f) == scale(-1, f), "theta(f) = -f"
    if t is not None:
        eta = 1 if d is not None else -1
        eps = real.pair_type.form_sign if d is not None else (
            1 if real.pair_type is PairType.AI else -1)
        yield tr(t) == scale(eps, t), "T^t = eps T"
        for x, sign, identity in ((e, eta, "e^t T = -eta T e"), (f, eta, "f^t T = -eta T f"),
                                  (h, 1, "h^t T = -T h")):
            yield dense.is_zero_matrix(
                dense.mat_add(mul(tr(x), t), scale(sign, mul(t, x)))), identity
    if d is not None:
        yield mul(d, d) == dense.identity(n), "D^2 = I"
        if t is not None:
            yield mul(mul(tr(d), t), d) == scale(real.pair_type.involution_square, t), "D^t T D = xi T"


TAMPERINGS = {
    "doubled": lambda x: {(r, c): 2 * v for (r, c), v in x.items()},
    "transposed": lambda x: {(c, r): v for (r, c), v in x.items()},
    "negated": lambda x: {(r, c): -v for (r, c), v in x.items()},
    "off-diagonal negated": lambda x: {(r, c): v if r == c else -v for (r, c), v in x.items()},
}


def test_tampered_realizations_fail_first_where_the_dense_reference_does():
    """Each stored map of every valid diagram with n <= 8, tampered each way:
    the first identity the oracle finds failing (or none) is the first that
    fails in generic dense arithmetic.  The tamperings keep h and D diagonal,
    so the oracle's structure check never decides."""
    tampered = failing = 0
    for n in range(9):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                real = oracle.realize(diagram, pt, prm)
                for field in ("e_map", "h_map", "f_map", "t_map", "d_map"):
                    if getattr(real, field) is None:
                        continue
                    for how, tamper in TAMPERINGS.items():
                        bad = _rebuilt(real, **{field: tamper(getattr(real, field))})
                        want = next((identity for holds, identity in _dense_identities(bad)
                                     if not holds), None)
                        try:
                            oracle._check_realization(bad)
                            got = None
                        except OracleCheckFailed as exc:
                            got = str(exc).removeprefix("identity fails: ")
                        assert got == want, (pt, prm, diagram.text(), field, how)
                        tampered += 1
                        failing += got is not None
    assert (tampered, failing) == (13748, 7789)


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
from nilcomm import linalg, oracle
from nilcomm.diagrams import AbDiagram, PairParams, PairType, params_for, parse
from nilcomm.errors import OracleCheckFailed, UnrealizableDiagram

if __debug__:
    raise SystemExit("expected python -O")


def _rebuilt(real, **changes):
    fields = {name: getattr(real, name) for name in oracle.MatrixRealization.__slots__
              if not name.startswith("_")}
    return oracle.MatrixRealization(**{**fields, **changes})


real = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
two = oracle.realize(parse("2,2"), PairType.AI, PairParams(4))
bdi = oracle.realize(parse("aba/a/b"), PairType.BDI, PairParams(5, (3, 2)))
oracle._sample = lambda rng, basis: {(0, 2): 1, (1, 3): 1}
block = oracle._group_block
oracle._group_block = lambda pt, length, letters: (
    None if letters == ("b", "b") else block(pt, length, letters))
for tampered, check in [
    (_rebuilt(real, h_map={pos: 2 * v for pos, v in real.h_map.items()}),
     oracle._check_realization),
    (_rebuilt(real, t_map={pos: 2 * v for pos, v in real.t_map.items()}),
     oracle._check_realization),
    (_rebuilt(real, h_map={**real.h_map, (0, 1): 1}), oracle._check_realization),
    (_rebuilt(bdi, d_map={pos: 2 * v for pos, v in bdi.d_map.items()}),
     oracle._check_realization),
    (_rebuilt(real, e_map={(c, r): v for (r, c), v in real.e_map.items()}),
     oracle.commuting_witness),
    # e with an entry 2, then with two entries in column 0 (and in row 3)
    (_rebuilt(two, e_map={**two.e_map, (1, 0): 2}), oracle.dim_p_cent_oracle),
    (_rebuilt(two, e_map={**two.e_map, (3, 0): 1}), oracle.dim_p_cent_oracle),
    # the two BDI rows abab of length 4 have no admissible coupling
    (parse("abab/abab"),
     lambda d: oracle.realize(d, PairType.BDI, params_for(PairType.BDI, 8, 4, 4))),
    # a sampler that only draws a nilpotent with an abelian centralizer
    (oracle.realize(parse("a/a/b/b"), PairType.AIII, PairParams(4, (2, 2))),
     oracle.defect_oracle),
    # a b/b coupling that fails while the a/a one that _length_groups tests passes
    (parse("a/a/b/b"), lambda d: oracle.realize(d, PairType.CII, params_for(PairType.CII, 4, 2, 2))),
    # the value types check their fields in __init__, with no assert
    ((-1,), lambda args: PairParams(*args)),
    ((3, (1, 1)), lambda args: PairParams(*args)),
    ((4.0,), lambda args: PairParams(*args)),
    ((4, (2.0, 2.0)), lambda args: PairParams(*args)),
    (((2, None), (0, None)), AbDiagram),
    (((2, None), (1, "a")), AbDiagram),
    (((3.0, "a"),), AbDiagram),
    ([(2, "a"), [3.7, "b"]], AbDiagram.from_rows),
    # one row more than a 64-bit field holds mod the prime
    ([{}] * 16384, linalg.rank_mod_p),
]:
    try:
        check(tampered)
    except (OracleCheckFailed, UnrealizableDiagram, ValueError) as exc:
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
        "identity fails: h and D are diagonal",
        "identity fails: theta(e) = -e",
        "identity fails: [e, w] = 0",
        "identity fails: e is a partial permutation with unit entries",
        "identity fails: e is a partial permutation with unit entries",
        "no admissible coupling of the rows of length 4",
        "no Cartan subspace certified in 20 samples of p(e,0)",
        "identity fails: the group of rows 2 and 3 has a checked block",
        "n must be non-negative, got -1",
        "signature (1, 1) incompatible with n=3",
        "n must be an integer, got 4.0",
        "signature must be two integers, got (2.0, 2.0)",
        "row lengths must be positive, got 0",
        "cannot mix plain and lettered rows",
        "row lengths must be integers, got (3.0, 'a')",
        "row lengths must be integers, got [3.7, 'b']",
        "16384 rows overflow a 64-bit field mod 33554393",
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


def _graded_sum(real, sigma):
    """dim k^e (sigma = 1) or dim p^e (sigma = -1), summed over the ad
    h-weights 0 .. 2 (longest row - 1) of the centralizer."""
    max_len = real.diagram.rows[0][0] if real.diagram.rows else 1
    return sum(oracle.dim_graded(real, i, sigma) for i in range(2 * max_len - 1))


def _g_f_minus1_basis(real):
    """Basis of g(f,-1), from the full n^2 system."""
    return _reference_basis(_reference_rows(_reference_maps(real), "f", -1, None), real.n)


def _fixed_space_dim(acting, module):
    """dim of the joint kernel of ad(b) for b in acting, inside span(module),
    in dense arithmetic."""
    if not module or not acting:
        return len(module)
    n = len(module[0])
    images = [[dense.commutator(b, c) for c in module] for b in acting]
    rows = [[img[i][j] for img in imgs] for imgs in images for i in range(n) for j in range(n)]
    return len(module) - dense.mat_rank(rows)


def _selflarge_test_7_4(real):
    """Lemma 7.4: True when p(e,0) acts on g(f,-1) without fixed vectors and
    p(e,1) is nonzero; then the orbit is not self-large.  It applies only to
    orbits that are almost-distinguished and not distinguished."""
    p0 = oracle.p_e0_basis(real)
    if not p0:
        raise ValueError("orbit is distinguished")
    if not all(dense.is_zero_matrix(dense.commutator(x, y)) for x in p0 for y in p0):
        raise ValueError("p(e,0) contains nonzero nilpotent elements")
    return _fixed_space_dim(p0, _g_f_minus1_basis(real)) == 0 and oracle.dim_graded(real, 1, -1) > 0


def test_selflarge_test_applies():
    r21 = oracle.realize(parse("2,1"), PairType.AI, PairParams(3))
    assert _selflarge_test_7_4(r21) is True
    r31 = oracle.realize(parse("3,1"), PairType.AI, PairParams(4))
    assert _selflarge_test_7_4(r31) is False
    regular = oracle.realize(parse("3"), PairType.AI, PairParams(3))
    with pytest.raises(ValueError, match="distinguished"):
        _selflarge_test_7_4(regular)
    zero_orbit = oracle.realize(parse("1,1,1"), PairType.AI, PairParams(3))
    with pytest.raises(ValueError, match="nilpotent"):
        _selflarge_test_7_4(zero_orbit)


def test_torus_test_matches_sampled_rank_and_combinatorics():
    """The certified rank of p(e,0) is the defect, [p(e,0), p(e,0)] = 0
    exactly when that rank is dim p(e,0), and exactly when the orbit is
    almost-distinguished, on every valid diagram with n <= 10."""
    for n in range(11):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                real = oracle.realize(d, pt, prm)
                p0 = oracle.p_e0_sparse(real)
                torus = oracle.is_abelian(p0)
                rank = oracle.defect_oracle(real)
                assert rank == invariants.defect(d, pt), (pt, prm, d.text())
                assert torus == (rank == len(p0)), (pt, prm, d.text())
                assert torus == invariants.is_almost_distinguished(d, pt), (pt, prm, d.text())


def test_certify_checks_the_truncation_profile(monkeypatch):
    profile = closure._truncation_profile

    def last_field_raised(diagram):
        fields = profile(diagram)
        return fields[:-1] + (fields[-1] + 1,) if fields else fields

    monkeypatch.setattr(closure, "_truncation_profile", last_field_raised)
    checked, failures = oracle.certify(4)
    assert checked > 0 and failures
    assert all("truncation profile mismatch" in line for line in failures)
    assert "AI PairParams(n=3, signature=None): truncation profile mismatch '2,1'" in failures


def test_defect_oracle_deterministic():
    real = oracle.realize(parse("aba/a/b"), PairType.BDI, params_for(PairType.BDI, 5, 3, 2))
    assert oracle.defect_oracle(real) == oracle.defect_oracle(real) == 1


def test_power_certificate_rejects_an_abelian_centralizer_of_a_nilpotent():
    """On AIII a/a/b/b, p(e,0) is all of p, and x = E_02 + E_13 has an
    abelian centralizer of dimension 4, but its kept powers have Gram rank 0,
    so x is not certified; the rank is 2."""
    real = oracle.realize(parse("a/a/b/b"), PairType.AIII, PairParams(4, (2, 2)))
    basis = oracle.p_e0_sparse(real)
    x = {(0, 2): 1, (1, 3): 1}
    z = [oracle._add(*[(c, basis[k]) for k, c in vec.items()])
         for vec in sparse.nullspace(sparse.bracket_rows(x, basis), len(basis))]
    assert len(z) == 4 and oracle.is_abelian(z)
    kept = [oracle._dense(4, y) for y in oracle._kept_powers(real, x)]
    assert kept and dense.mat_rank([[dense.trace(dense.mat_mul(a, b)) for b in kept] for a in kept]) == 0
    assert oracle.defect_oracle(real) == 2


def test_defect_ranks_mod_p_are_exact_on_the_first_sample():
    """On every valid diagram with n <= 8, the first sample's ad x system
    and the Gram matrix of all its kept powers have the same rank mod the
    prime as over Q; the ad x rows are built independently on the tests' side."""
    systems = 0
    for n in range(1, 9):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                real = oracle.realize(d, pt, prm)
                basis = oracle.p_e0_sparse(real)
                if not basis:
                    continue
                x = oracle._sample(random.Random(0), basis)
                assert linalg.rank_mod_p(oracle._brackets(x, basis)) == linalg.rank(sparse.bracket_rows(x, basis))
                kept = [oracle._dense(n, y) for y in oracle._kept_powers(real, x)]
                gram = [{j: dense.trace(dense.mat_mul(a, b)) for j, b in enumerate(kept)} for a in kept]
                assert linalg.rank_mod_p(gram) == linalg.rank(gram), (pt, prm, d.text())
                systems += 1
    assert systems == 384


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_an_unlucky_prime_never_gives_a_wrong_defect(monkeypatch, prime):
    """Both ranks mod the prime are lower bounds, so a small prime can only
    fail samples: on every valid diagram with 1 <= n <= 7 the oracle returns
    the defect or raises OracleCheckFailed, and each prime does both."""
    monkeypatch.setattr(linalg, "PRIME", prime)
    outcomes = Counter()
    for n in range(1, 8):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                try:
                    got = oracle.defect_oracle(oracle.realize.__wrapped__(d, pt, prm))
                except OracleCheckFailed:
                    outcomes["failed"] += 1
                    continue
                assert got == invariants.defect(d, pt), (pt, prm, d.text())
                outcomes["exact"] += 1
    assert outcomes["exact"] and outcomes["failed"], outcomes


def test_kept_powers_are_the_trace_corrected_powers_in_p():
    """y_j = n x^j - tr(x^j) I for the first sample x of p(e,0), against dense
    products on every valid diagram with 1 <= n <= 6: AI and AII keep every
    power; the types with a sign matrix D, BDI and CI among them, keep the odd
    powers and an even one only when it vanishes.  Every kept power lies in
    p: theta(y) = -y and, with both D and a form T, y^t T = -T y."""
    dropped = Counter()
    for n in range(1, 7):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                real = oracle.realize(d, pt, prm)
                basis = oracle.p_e0_sparse(real)
                if not basis:
                    continue
                x = oracle._sample(random.Random(0), basis)
                kept = [oracle._dense(n, y) for y in oracle._kept_powers(real, x)]
                power, expected = dense.identity(n), []
                for j in range(1, n + 1):
                    power = dense.mat_mul(power, oracle._dense(n, x))
                    y = dense.mat_sub(dense.mat_scale(n, power), dense.mat_scale(dense.trace(power), dense.identity(n)))
                    if real.d_map is None or j % 2 or dense.is_zero_matrix(y):
                        expected.append(y)
                    else:
                        dropped[pt] += 1
                assert kept == expected, (pt, prm, d.text())
                for y in kept:
                    assert dense.theta(real, y) == dense.mat_scale(-1, y)
                    if real.d_map is not None and real.form is not None:
                        assert dense.mat_mul(dense.transpose(y), real.form) == dense.mat_scale(
                            -1, dense.mat_mul(real.form, y))
    assert {PairType.BDI, PairType.CI} <= set(dropped)


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
        assert _graded_sum(real, -1) == oracle.dim_p_cent_oracle(real)


def test_realizable_exactly_when_valid_to_n10():
    """The cross-check of the per-length lemma that ``certify`` checks:
    every candidate of every pair with n <= 10, valid or not, is realizable
    exactly when it is valid."""
    checked = 0
    for n in range(0, 11):
        for pt, prm in pairs_of_size(n):
            for d in candidates(pt, n):
                try:
                    oracle.realize(d, pt, prm)
                    realizable = True
                except UnrealizableDiagram:
                    realizable = False
                assert realizable == is_valid(d, pt, prm), (pt, prm, d.text())
                checked += 1
    assert checked == 29212


@pytest.mark.parametrize("entry, flipped, line", [
    # a coupled length that the parity rules reject
    (("CI", 3, 2, 1, 1), {"_parity_rules": "flipped"},
     "coupled=True, parity rule 'flipped', letter counts (3, 3)"),
    # an uncoupled length that the parity rules pass
    (("BDI", 2, 1, 1, 0), {"_parity_rules": None},
     "coupled=False, parity rule None, letter counts (1, 1)"),
    # two a-rows of length 1 coupled for CI, with more a-cells than b-cells
    (("CI", 1, 2, 2, 0), {"_parity_rules": None, "_length_groups": ((0, 1),)},
     "coupled=True, parity rule None, letter counts (2, 0)"),
])
def test_certify_reports_a_flipped_length_entry(monkeypatch, entry, flipped, line):
    """Flipping one entry of the per-length table, on the side of the
    parity rules or of the couplings, makes ``certify`` report exactly that
    entry; the sweep of the valid diagrams, none of which has this entry's
    rows, is unchanged."""
    key = (PairType[entry[0]], *entry[1:])
    for name, value in flipped.items():
        kept = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args, kept=kept, value=value:
                            value if args == key else kept(*args))
    checked, failures = oracle.certify(4)
    assert checked == 100
    assert failures == [f"{entry[0]} (d, m, a, b) = {entry[1:]}: {line}"]


def test_length_groups_cache_holds_the_certified_table():
    """One key per type and (d, m, a, b) with d m <= DEFAULT_BOUND, every
    split for the lettered types and none for the plain ones."""
    keys = sum(m + 1 if pt.uses_letters else 1 for pt in PairType
               for d in range(1, DEFAULT_BOUND + 1) for m in range(1, DEFAULT_BOUND // d + 1))
    assert keys == 4587 and keys <= oracle._length_groups.cache_info().maxsize


# -- the graded systems against the full n^2 system ---------------------------------


def _reference_maps(real, acting="ef"):
    """Each linear condition on the full space of n x n matrices x, as rows
    indexed by the output position: [e, x] and [f, x] (those ``acting``
    names), [h, x], theta(x), and membership in g (x^T T + T x for the BD/C
    types, the trace for the A types).  Unknown k is the entry x_rc with
    k = r*n + c."""
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

    maps = {m: rows_of(lambda x, b=getattr(real, m): dense.commutator(b, x)) for m in acting + "h"}
    views = types.SimpleNamespace(d_matrix=real.d_matrix, form=real.form)  # built once
    maps["theta"] = rows_of(lambda x: dense.theta(views, x))
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
    for vec in sparse.nullspace(rows, n * n):
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
                # a copy starts with an empty memo, so each weight is first
                # read alone
                real = _rebuilt(oracle.realize(diagram, pt, prm))
                maps = _reference_maps(real)
                label = (pt, prm, diagram.text())
                span = 2 * (diagram.rows[0][0] if diagram.rows else 1)
                graded = {
                    (degree, sigma): sparse.kernel_dim(
                        _reference_rows(maps, "e", degree, sigma), n * n)
                    for degree in range(-span, span + 1) for sigma in (1, -1)
                }
                for (degree, sigma), dim in graded.items():
                    assert oracle.dim_graded(real, degree, sigma) == dim, (label, degree, sigma)
                rows = _reference_rows(maps, "e", None, -1)
                assert oracle.dim_p_cent_oracle(real) == sparse.kernel_dim(rows, n * n), label
                oracle._graded_dims(real, 1)
                # now kept from the chain read over every weight
                for (degree, sigma), dim in graded.items():
                    assert oracle.dim_graded(real, degree, sigma) == dim, (label, degree, sigma)
                rows = _reference_rows(maps, "e", 0, -1)
                assert oracle.p_e0_basis(real) == _reference_basis(rows, n), label


def _tied_system(real, degree, sigma):
    """The system of the x in g with [e, x] = 0, theta(x) = sigma x and ad
    h-weight ``degree`` (None: every weight), as rows to eliminate, over only
    the unknowns x_rc that the grading and a diagonal involution leave free.
    The form rows x^t T + s T x = 0 (s = 1 with D, else sigma) are solved:
    the one at (c, pi r) reads t_r x_rc + s t_c x_p = 0, p = (pi c, pi r), so
    the larger of each pair of partners is kept, x_small = -s t_r t_c
    x_large, and x_rc = 0 when p = (r, c) and t_r + s t_c != 0, or p is not an
    unknown.  The commutation rows and the A types' trace row are written
    over the kept unknowns.  Returns (columns, rows): for each kept unknown,
    in increasing r*n + c order, the (position, coefficient) pairs of the
    entries it stands for, itself first with coefficient 1; and sparse rows
    over the column indices."""
    n, hd = real.n, real.h_diagonal
    dd = None if real.d_map is None else [real.d_map[k, k] for k in range(n)]
    unknowns = [(r, c) for r in range(n) for c in range(n)
                if (degree is None or hd[r] - hd[c] == degree) and (dd is None or dd[r] * dd[c] == sigma)]
    if real.t_map is None:
        columns = [[(pos, 1)] for pos in unknowns]
    else:
        s = 1 if real.d_map is not None else sigma
        perm = {r: (c, v) for (r, c), v in real.t_map.items()}
        index = {pos: u for u, pos in enumerate(unknowns)}
        columns, tied = [], {}
        for u, (r, c) in enumerate(unknowns):
            (pc, tc), (pr, tr) = perm[c], perm[r]
            k = index.get((pc, pr))
            if k is None or k == u and tr + s * tc:
                continue
            if k > u:
                tied[k] = ((r, c), -s * tr * tc)
            else:
                columns.append([((r, c), 1)] + ([tied.pop(u)] if k < u else []))
    e_col, e_row = oracle._rows(oracle._transpose(real.e_map)), oracle._rows(real.e_map)
    eqs = {}
    for k, column in enumerate(columns):
        for (r, c), coef in column:
            # [e, x]_ic gains e_ir x_rc; [e, x]_rj gains -x_rc e_cj
            for i, v in e_col.get(r, ()):
                row = eqs.setdefault(i * n + c, {})
                row[k] = row.get(k, 0) + coef * v
            for j, v in e_row.get(c, ()):
                row = eqs.setdefault(r * n + j, {})
                row[k] = row.get(k, 0) - coef * v
            if real.pair_type in oracle.A_TYPES and r == c:
                row = eqs.setdefault(n * n, {})
                row[k] = row.get(k, 0) + coef
    rows = [{k: v for k, v in row.items() if v} for row in eqs.values()]
    return columns, [row for row in rows if row]


def test_graded_dims_match_each_weight_block():
    """The chain read over every weight gives the kernel dimension of each
    weight block of the tied system, eliminated, and they sum to the kernel
    dimension of the whole system, for both signs on every valid diagram
    with n <= 8.  Each column of a system is one kept unknown with the
    entries tied to it: distinct positions, of one weight, with coefficients
    +-1."""
    for n in range(0, 9):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                real = oracle.realize(diagram, pt, prm)
                hd = real.h_diagonal
                weights = {a - b for a in hd for b in hd}
                for sigma in (1, -1):
                    label = (pt, prm, diagram.text(), sigma)
                    dims = oracle._graded_dims(real, sigma)
                    for w in weights | set(dims):
                        columns, rows = _tied_system(real, w, sigma)
                        assert dims[w] == sparse.kernel_dim(rows, len(columns)), (label, w)
                    columns, rows = _tied_system(real, None, sigma)
                    assert sum(dims.values()) == sparse.kernel_dim(rows, len(columns)), label
                    tied = [pos for column in columns for pos, _coef in column]
                    assert len(tied) == len(set(tied)), label
                    for column in columns:
                        assert len({hd[r] - hd[c] for (r, c), _coef in column}) == 1, label
                        assert {coef for _pos, coef in column[1:]} <= {1, -1}, label


def test_tied_p_systems_match_full_reference_at_n_7_and_8():
    """The chains and the form's ties give the kernel: for sigma = -1 on
    every valid diagram with n = 7 and 8 (n <= 6 is checked above, for both
    signs), the kernel dimension of each ad h-weight and the basis of p(e,0)
    equal those of the full n^2 system, vector for vector."""
    checked = 0
    for n in (7, 8):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                real = _rebuilt(oracle.realize(diagram, pt, prm))
                maps = _reference_maps(real, acting="e")
                dims = oracle._graded_dims(real, -1)
                hd = real.h_diagonal
                for w in {a - b for a in hd for b in hd}:
                    rows = _reference_rows(maps, "e", w, -1)
                    assert dims[w] == sparse.kernel_dim(rows, n * n), (pt, prm, diagram.text(), w)
                rows = _reference_rows(maps, "e", 0, -1)
                assert oracle.p_e0_basis(real) == _reference_basis(rows, n), (pt, prm, diagram.text())
                checked += 1
    assert checked == 496


def _partial_permutation_copies():
    """(label, realization, its copy with e replaced by a random subset of
    its entries) on every valid diagram with n <= 6, from a fixed seed."""
    rng = random.Random(28)
    for n in range(7):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                real = oracle.realize(diagram, pt, prm)
                entries = sorted(real.e_map)
                sub = dict.fromkeys(rng.sample(entries, rng.randint(0, len(entries))), 1)
                yield (pt, prm, diagram.text(), sorted(sub)), real, _rebuilt(real, e_map=sub)


def test_chain_reading_of_any_partial_permutation_matches_full_reference():
    """Beyond the shapes of ``realize``: with e replaced by a random subset of
    its entries, chains die at both ends where no realization's do, and T no
    longer maps chains onto chains (e^t T = -eta T e fails).  For both signs
    the kernel dimension of each ad h-weight, read over every weight and
    alone, and the basis of p(e,0), read both ways, still equal those of the
    full n^2 system, on every valid diagram with n <= 6."""
    broken = checked = 0
    for label, real, copy in _partial_permutation_copies():
        n, sub = copy.n, copy.e_map
        if real.t_map is not None:
            broken += _theta(sub, None, real.t_map) not in (sub, oracle._add((-1, sub)))
        maps = _reference_maps(copy, acting="e")
        hd = copy.h_diagonal
        for sigma in (1, -1):
            dims = oracle._graded_dims(copy, sigma)
            for w in {a - b for a in hd for b in hd}:
                want = sparse.kernel_dim(_reference_rows(maps, "e", w, sigma), n * n)
                lone = oracle.dim_graded(_rebuilt(copy), w, sigma)
                assert dims[w] == lone == want, (label, w, sigma)
        want = _reference_basis(_reference_rows(maps, "e", 0, -1), n)
        lone = oracle.p_e0_basis(_rebuilt(copy))
        assert oracle.p_e0_basis(copy) == lone == want, label
        checked += 1
    assert checked == 294 and broken >= 20, (checked, broken)


KERNEL_MODES = [(None, -1), (None, 1), (0, -1), (1, -1), (2, 1)]


def _same_kernel(real, label):
    """The flat-array chain read returns exactly what the tuple-keyed one of
    ``sparse_reference`` returns in every mode: the same dims as plain dicts
    and the same basis vectors in the same order."""
    for degree, sigma in KERNEL_MODES:
        dims, basis = oracle._chain_kernel(real, degree, sigma)
        want_dims, want_basis = sparse.chain_kernel(real, degree, sigma)
        assert dict(dims) == dict(want_dims), (label, degree, sigma)
        assert basis == want_basis, (label, degree, sigma)


def test_chain_kernel_equals_the_tuple_keyed_reference():
    """On every valid realization with n <= 10, and on the partial
    permutations of the test above."""
    checked = 0
    for n in range(11):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                _same_kernel(oracle.realize(diagram, pt, prm), (pt, prm, diagram.text()))
                checked += 1
    for label, _real, copy in _partial_permutation_copies():
        _same_kernel(copy, label)
        checked += 1
    assert checked == 1974 + 294


def test_replaced_realization_starts_with_an_empty_memo():
    """A copy made after the memo is filled computes its dimensions and its
    p(e,0) basis from its own matrices: with e = 0 its centralizer is all of
    p."""
    real = _rebuilt(oracle.realize(parse("2,1"), PairType.AI, PairParams(3)))
    assert oracle.dim_p_cent_oracle(real) == 3
    assert set(real._graded) == {-1}
    dims, basis = real._graded[-1]
    assert sum(dims.values()) == 3 and oracle.p_e0_sparse(real) is basis
    copy = _rebuilt(real, e_map={})
    assert copy.e == dense.freeze(dense.zeros(3))
    assert copy._graded == {}
    with pytest.raises(AttributeError):
        real.e_map = {}  # a field set in place would leave the memo stale
    rows = _reference_rows(_reference_maps(copy), "e", None, -1)
    assert oracle.dim_p_cent_oracle(copy) == sparse.kernel_dim(rows, 9) == 5
    assert oracle.dim_graded(copy, 0, -1) == len(oracle.p_e0_sparse(copy)) == 1
    assert oracle.dim_p_cent_oracle(real) == 3


def _chain_reads(monkeypatch):
    """Record (degree, sigma) of every chain read the oracle makes."""
    built = []
    read = oracle._chain_kernel

    def counted(real, degree, sigma):
        built.append((degree, sigma))
        return read(real, degree, sigma)

    monkeypatch.setattr(oracle, "_chain_kernel", counted)
    return built


def test_the_p_system_over_every_weight_is_built_once(monkeypatch):
    """The defect and dim p^e, asked in either order, and every realization
    of certify read the sigma = -1 chains over every weight once and no
    weight-0 chains of their own; a lone p_e0_sparse or dim_graded reads
    only the chains of its weight."""
    built = _chain_reads(monkeypatch)
    args = (parse("aba/a/b"), PairType.BDI, PairParams(5, (3, 2)))
    for first, second in [(oracle.defect_oracle, oracle.dim_p_cent_oracle),
                          (oracle.dim_p_cent_oracle, oracle.defect_oracle)]:
        real = _rebuilt(oracle.realize(*args))
        built.clear()
        first(real)
        second(real)
        oracle.dim_graded(real, 0, -1)
        oracle.dim_graded(real, 1, -1)
        oracle.p_e0_sparse(real)
        assert built == [(None, -1)], first
    oracle.realize.cache_clear()
    built.clear()
    checked, failures = oracle.certify(6)
    assert not failures
    assert built == [(None, -1)] * checked
    for lone, want in [(oracle.p_e0_sparse, (0, -1)),
                       (lambda real: oracle.dim_graded(real, 1, -1), (1, -1))]:
        built.clear()
        lone(_rebuilt(oracle.realize(*args)))
        assert built == [want]


def test_p_e0_basis_of_the_full_pass_equals_the_lone_one():
    """Same vectors in the same order on every valid diagram with n <= 8."""
    checked = 0
    for n in range(9):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                lone = oracle.p_e0_sparse(_rebuilt(oracle.realize(diagram, pt, prm)))
                real = _rebuilt(oracle.realize(diagram, pt, prm))
                oracle.dim_p_cent_oracle(real)
                assert oracle.p_e0_sparse(real) == lone, (pt, prm, diagram.text())
                checked += 1
    assert checked == 790


# -- row matching --------------------------------------------------------------------

FORM_TYPES = (PairType.BDI, PairType.CI, PairType.CII, PairType.DIII)


def _admissible(pair_type, length, *letters):
    """Whether the group of rows of the given length with these start
    letters (one row for an empty second letter) has a checked block."""
    return oracle._group_block(pair_type, length, tuple(s for s in letters if s)) is not None


def _backtracking_match(pair_type, length, row_ids, letters):
    """Depth-first search over partners: the first row takes itself, then
    each later row in order, and recurses on the rest."""
    if not row_ids:
        return []
    first, rest = row_ids[0], row_ids[1:]
    if _admissible(pair_type, length, letters[first], ""):
        sub = _backtracking_match(pair_type, length, rest, letters)
        if sub is not None:
            return [(first, first)] + sub
    for k, other in enumerate(rest):
        if _admissible(pair_type, length, letters[first], letters[other]):
            sub = _backtracking_match(pair_type, length, rest[:k] + rest[k + 1:], letters)
            if sub is not None:
                return [(first, other)] + sub
    return None


def test_pair_admissible_symmetric_in_letters():
    """The premise of ``_length_groups``: a two-row coupling depends on the
    start letters only through their product, a one-row one not at all."""
    for pt in FORM_TYPES:
        for length in range(1, 25):
            admissible = functools.partial(_admissible, pt, length)
            assert admissible("a", "a") == admissible("b", "b"), (pt, length)
            assert admissible("a", "b") == admissible("b", "a"), (pt, length)
            assert admissible("a", "") == admissible("b", ""), (pt, length)


def test_match_rows_equals_backtracking_search():
    """Same matching, or None, on every ab-diagram with n <= 8, given in every
    letter order: the matching of the rows of one length, offset by the
    block's first row, is the search's on the canonical rows.  Then on every
    block of na a-rows and nb b-rows with 1 <= na + nb <= 10 and length <= 16."""
    checked = 0
    for pt in FORM_TYPES:
        for n in range(1, 9):
            for part in partitions(n):
                for letters in itertools.product("ab", repeat=len(part)):
                    diagram = AbDiagram.from_rows(zip(part, letters))
                    named = {i: s for i, (_d, s) in enumerate(diagram.rows)}
                    for length, (m, na, nb) in diagram.multiplicities().items():
                        ids = tuple(i for i, (d, _s) in enumerate(diagram.rows) if d == length)
                        want = _backtracking_match(pt, length, ids, named)
                        got = oracle._length_groups(pt, length, m, na, nb)
                        if got is not None:
                            got = [(ids[0] + i, ids[0] + j) for i, j in got]
                        assert got == want, (pt, part, letters, length)
                        checked += 1
    assert checked > 9000
    for pt in FORM_TYPES:
        for length in range(1, 17):
            for na in range(11):
                for nb in range(max(1 - na, 0), 11 - na):
                    letters = "a" * na + "b" * nb
                    want = _backtracking_match(pt, length, tuple(range(na + nb)), letters)
                    got = oracle._length_groups(pt, length, na + nb, na, nb)
                    assert (None if got is None else list(got)) == want, (pt, length, na, nb)
                    checked += 1
    assert checked > 9000 + 4 * 16 * 65


def _eager_length_groups(pair_type, length, m, na, nb):
    """``_length_groups`` as it built all three probe blocks up front."""
    if pair_type is PairType.AII:
        return None if m % 2 else oracle._pairs(2, 1, m // 2)
    alone, same, cross = (pair_type in oracle.A_TYPES or oracle._group_block(pair_type, length, letters) is not None
                          for letters in (("a",), ("a", "a"), ("a", "b")))
    if alone:
        return oracle._pairs(1, 0, m)
    if same and (na % 2 == nb % 2 == 0 or cross and m % 2 == 0):
        return oracle._pairs(2, 1, m // 2)
    if cross and na == nb:
        return oracle._pairs(1, na, na)
    return None


def test_lazy_probes_give_the_eager_groups_on_the_table(monkeypatch):
    """``_length_groups`` builds a probe block only when the ones before it
    have not decided; it returns the groups of the eager version on every
    entry of the table of ``certify``, and builds fewer blocks for it."""
    table = [(pt, d, m, a, m - a) if pt.uses_letters else (pt, d, m, 0, 0)
             for pt in PairType for d in range(1, DEFAULT_BOUND + 1) for m in range(1, DEFAULT_BOUND // d + 1)
             for a in (range(m + 1) if pt.uses_letters else [0])]
    built, block = set(), oracle._group_block

    def counted(*args):
        built.add(args)
        return block(*args)

    monkeypatch.setattr(oracle, "_group_block", counted)
    lazy = [oracle._length_groups.__wrapped__(*entry) for entry in table]
    lazy_blocks = len(built)
    built.clear()
    assert lazy == [_eager_length_groups(*entry) for entry in table]
    assert len(table) == 4587 and (lazy_blocks, len(built)) == (255, 360)


def test_match_rows_polynomial_on_unmatchable_rows(monkeypatch):
    """CI with k+2 a-rows and k b-rows of length 1 has no matching;
    ``_length_groups`` decides it from at most three coupling tests."""
    calls = []
    block = oracle._group_block

    def counted(*args):
        calls.append(args)
        return block(*args)

    monkeypatch.setattr(oracle, "_group_block", counted)
    for k in (12, 500):
        calls.clear()
        oracle._length_groups.cache_clear()
        assert oracle._length_groups(PairType.CI, 1, 2 * k + 2, k + 2, k) is None
        assert 0 < len(calls) <= 3, k
    k = 12
    diagram = AbDiagram.from_rows([(1, "a")] * (k + 2) + [(1, "b")] * k)
    with pytest.raises(UnrealizableDiagram, match="rows of length 1"):
        oracle.realize(diagram, PairType.CI, PairParams(2 * k + 2))


def _realize_inline(diagram, pt, prm):
    """The checks and the placement of ``realize`` as it read them off the
    diagram on every call, before the per-shape plan: (maps, partners,
    basis) of the realization, or the exception it raised."""
    prm.check(pt)
    if diagram.n != prm.n:
        raise SizeMismatch(f"diagram has {diagram.n} cells, pair has n={prm.n}")
    if diagram.rows and diagram.is_ab != pt.uses_letters:
        raise WrongType(f"representation does not match {pt.value}")
    lengths, nrows = [], 0
    for length, (m, na, nb) in diagram.multiplicities().items():
        groups = oracle._length_groups(pt, length, m, na, nb)
        if groups is None:
            raise UnrealizableDiagram(
                f"no symplectic pairing: odd number of rows of length {length}" if pt is PairType.AII
                else f"no admissible coupling of the rows of length {length}")
        lengths.append((length, nrows, m, groups))
        nrows += m
    if pt.has_signature and (cells := diagram.letter_counts()) != prm.signature:
        raise UnrealizableDiagram(f"involution eigenspace dimensions {cells} "
                                  f"do not match the signature {prm.signature}")
    rows = diagram.rows
    starts = [0, *itertools.accumulate(length for length, _s in rows)]
    maps = ({}, {}, {}, None if pt is PairType.AIII else {}, {} if pt.uses_letters else None)
    partners = list(range(nrows))
    for length, first, m, groups in lengths:
        if sorted(r for pair in groups for r in {*pair}) != list(range(m)):
            raise OracleCheckFailed("identity fails: the coupled groups partition the rows")
        for i, j in ((first + i, first + j) for i, j in groups):
            partners[i], partners[j] = j, i
            block = oracle._group_block(pt, length, (rows[i][1],) if i == j else (rows[i][1], rows[j][1]))
            if block is None:
                raise OracleCheckFailed(f"identity fails: the group of rows {i} and {j} has a checked block")
            pos = [*range(starts[i], starts[i] + length), *(range(starts[j], starts[j] + length) if j != i else ())]
            for out, x in zip(maps, block):
                if x is not None:
                    out.update({(pos[r], pos[c]): v for (r, c), v in x.items()})
    basis = tuple((i, a) for i, (length, _s) in enumerate(rows) for a in range(length))
    return maps, tuple(partners), basis


def _outcome(realize, diagram, pt, prm):
    try:
        return realize(diagram, pt, prm)
    except (ValueError, NilcommError) as exc:
        return type(exc), str(exc)


def test_realize_equals_the_inline_checks_on_every_candidate():
    """Every candidate of every type with n <= 8, under every signature of
    its size and none, plus a diagram of the wrong size and one of the
    wrong representation: ``realize`` gives the maps, partners and basis of
    the inline checks, or the same exception class and message."""
    def planned(diagram, pt, prm):
        real = oracle.realize(diagram, pt, prm)
        maps = (real.e_map, real.h_map, real.f_map, real.t_map, real.d_map)
        assert real.n == prm.n
        return maps, real.partners, real.basis

    outcomes = Counter()
    for pt in PairType:
        for n in range(9):
            for diagram in candidates(pt, n):
                for prm in [PairParams(n), *(PairParams(n, (p, n - p)) for p in range(n + 1))]:
                    got = _outcome(planned, diagram, pt, prm)
                    assert got == _outcome(_realize_inline, diagram, pt, prm), (pt, prm, diagram.text())
                    outcomes[got[0] if isinstance(got[0], type) else "realized"] += 1
    for text, pt, prm, error in [("aba/a/b", PairType.BDI, PairParams(6, (3, 3)), SizeMismatch),
                                 ("2,1", PairType.BDI, PairParams(3, (2, 1)), WrongType),
                                 ("ab/a", PairType.AI, PairParams(3), WrongType)]:
        got = _outcome(planned, parse(text), pt, prm)
        assert got[0] is error and got == _outcome(_realize_inline, parse(text), pt, prm), (pt, text)
    assert set(outcomes) == {"realized", ValueError, UnrealizableDiagram}, outcomes


def test_kept_powers_equal_the_filter_on_built_theta():
    """``_kept_powers`` tests theta(y) = -y and y^t T = -T y in one pass over
    y; it keeps the same powers as a filter that builds theta(y) and -y as
    matrices, for the first sample on every valid diagram with n <= 8 and
    p(e,0) != 0."""
    checked = 0
    for n in range(1, 9):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                real = oracle.realize(d, pt, prm)
                basis = oracle.p_e0_sparse(real)
                if not basis:
                    continue
                x = oracle._sample(random.Random(0), basis)
                dm, tm, power, want = real.d_map, real.t_map, x, []
                for _j in range(n):
                    trace = sum(power.get((k, k), 0) for k in range(n))
                    y = oracle._add((n, power), (-trace, {(k, k): 1 for k in range(n)}))
                    if _theta(y, dm, tm) == oracle._add((-1, y)) and (
                            dm is None or tm is None or _theta(y, None, tm) == y):
                        want.append(y)
                    power = oracle._mul(power, oracle._rows(x))
                assert list(oracle._kept_powers(real, x)) == want, (pt, prm, d.text())
                checked += 1
    assert checked == 384


def test_plan_cache_is_bounded_and_holds_a_round_of_shapes():
    """The per-shape plan of ``realize`` is an LRU cache with a maxsize, one
    that holds the 1,804 shapes of every candidate of every pair with n <= 8
    that the certification workload realizes."""
    shapes = {(pt, d.rows) for n in range(9) for pt, _prm in pairs_of_size(n) for d in candidates(pt, n)}
    assert len(shapes) == 1804 <= oracle._plan.cache_info().maxsize


def test_length_groups_share_their_pairs():
    """Lengths that pair their rows alike return one shared tuple, so the
    certified table keeps a few dozen of them, not one per entry."""
    assert oracle._length_groups(PairType.AI, 1, 5, 0, 0) is oracle._length_groups(PairType.AI, 2, 5, 0, 0)
    assert oracle._length_groups(PairType.AII, 1, 4, 0, 0) == ((0, 1), (2, 3))
    assert oracle._length_groups(PairType.CI, 1, 4, 2, 2) is oracle._length_groups(PairType.CI, 3, 4, 2, 2)


def test_certify_keeps_only_the_blocks_its_sweep_places():
    """The table of ``certify`` builds blocks of every length up to the
    default bound; those longer than the certified bound are not kept, and
    those the sweep places are."""
    oracle.certify(4)
    before = oracle._group_block.cache_info()
    oracle._group_block(PairType.BDI, 30, ("a",))
    oracle._group_block(PairType.BDI, 3, ("a",))
    after = oracle._group_block.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)


def test_truncation_ranks_are_the_exact_ranks_to_n10():
    """Counted off the successors of e, the ranks of P e^k equal the exact
    ranks of the sparse products on every valid diagram with n <= 10."""
    checked = 0
    for n in range(11):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                real = oracle.realize(d, pt, prm)
                assert oracle.truncation_ranks(real) == sparse.truncation_ranks(real.e_map, real.d_map, n), (
                    pt, prm, d.text())
                checked += 1
    assert checked == 1974


def test_realize_rejects_before_building_matrices(monkeypatch):
    def no_matrices(*_args):
        raise AssertionError("matrices built for an unrealizable diagram")

    cases = [
        ("2,1,1", PairType.AII, PairParams(4), "odd number of rows of length 2"),
        ("abab", PairType.BDI, params_for(PairType.BDI, 4, 2, 2), "rows of length 4"),
        ("ab/ab", PairType.BDI, params_for(PairType.BDI, 4, 3, 1), "rows of length 2"),
        ("aba/a/b", PairType.BDI, params_for(PairType.BDI, 5, 2, 3), "signature"),
        ("ab/a/b", PairType.AIII, PairParams(4, (3, 1)), "signature"),
    ]
    # the coupling decisions of the tested lengths, which _length_groups
    # caches, are taken first, so that the test passes alone and in any order
    for text, pt, _prm, _message in cases:
        for length, counts in parse(text).multiplicities().items():
            oracle._length_groups(pt, length, *counts)
    monkeypatch.setattr(oracle, "_triple_matrices", no_matrices)
    monkeypatch.setattr(oracle, "_group_block", no_matrices)
    for text, pt, prm, message in cases:
        with pytest.raises(UnrealizableDiagram, match=message):
            oracle.realize(parse(text), pt, prm)


# -- assembly from group blocks ----------------------------------------------------


def test_assembled_realizations_pass_the_whole_check_at_n_9_to_12():
    """``realize`` places checked group blocks without checking the sum; the
    sum passes every identity on every valid diagram with 9 <= n <= 12,
    beyond the n <= 8 of the golden digest."""
    checked = 0
    for n in range(9, 13):
        for pt, prm in pairs_of_size(n):
            for diagram in enumerate_diagrams(pt, prm):
                oracle._check_realization(oracle.realize.__wrapped__(diagram, pt, prm))
                checked += 1
    assert checked == 3884


def test_a_block_failing_for_untested_letters_is_caught(monkeypatch):
    """A b/b coupling that fails while a/a passes: letters that the
    ``_length_groups`` templates do not test."""
    block = oracle._group_block
    monkeypatch.setattr(oracle, "_group_block", lambda pt, length, letters: (
        None if letters == ("b", "b") else block(pt, length, letters)))
    prm = params_for(PairType.CII, 4, 2, 2)
    assert oracle._length_groups(PairType.CII, 1, 4, 2, 2) == ((0, 1), (2, 3))
    with pytest.raises(OracleCheckFailed) as exc:
        oracle.realize.__wrapped__(parse("a/a/b/b"), PairType.CII, prm)
    assert str(exc.value) == "identity fails: the group of rows 2 and 3 has a checked block"
    oracle.realize.__wrapped__(parse("a/a/a/a"), PairType.CII, params_for(PairType.CII, 4, 4, 0))


def test_groups_that_miss_or_share_a_row_fail_the_partition_check(monkeypatch):
    prm = params_for(PairType.CII, 4, 2, 2)
    # the shape's plan, which holds its groups, is built afresh on each call
    monkeypatch.setattr(oracle, "_plan", oracle._plan.__wrapped__)
    for groups in [((0, 1),), ((0, 1), (1, 2), (3, 3)), ((0, 1), (2, 3), (4, 5))]:
        monkeypatch.setattr(oracle, "_length_groups", lambda *_args, groups=groups: groups)
        with pytest.raises(OracleCheckFailed) as exc:
            oracle.realize.__wrapped__(parse("a/a/b/b"), PairType.CII, prm)
        assert str(exc.value) == "identity fails: the coupled groups partition the rows"


def test_certify_checks_every_assembled_realization(monkeypatch):
    """A block that passes its own check but is placed wrongly, here with h
    doubled, is caught by the whole check that ``certify`` runs.  A group
    with no block keeps none, as the coupling decisions read it."""
    block = oracle._group_block

    def doubled_h(pt, length, letters):
        if (found := block(pt, length, letters)) is None:
            return None
        e, h, f, t, d = found
        return e, _scaled(2, h), f, t, d

    doubled_h.cache_clear = block.cache_clear  # certify drops the blocks its table builds
    monkeypatch.setattr(oracle, "_group_block", doubled_h)
    monkeypatch.setattr(oracle, "realize", oracle.realize.__wrapped__)
    with pytest.raises(OracleCheckFailed, match=r"\[h, e\] = 2e"):
        oracle.certify(2)

import os
import subprocess
import sys

import pytest

import nilcomm
from nilcomm import closure, components, invariants, oracle
from nilcomm.closure import find_reduction
from nilcomm.diagrams import (
    BLOCK_TYPE,
    AbDiagram,
    PairParams,
    PairType,
    enumerate_diagrams,
    pairs_of_size,
    params_for,
    parse,
    validate,
)
from nilcomm.errors import UnrealizableDiagram
from nilcomm.invariants import (
    _theta_dims,
    almost_distinguished,
    component_dim,
    defect,
    dim_p,
    dim_p0,
    dim_p_cent,
    dim_p_graded,
    is_almost_distinguished,
    is_distinguished,
    orbit_class,
    orbit_invariants,
)

BDI_5 = params_for(PairType.BDI, 5, 3, 2)
G5 = parse("aba/a/b")


def test_defect_examples():
    assert defect(parse("2,1"), PairType.AI) == 1
    assert defect(parse("7"), PairType.AI) == 0
    assert defect(parse("ababa/aba/bab/b"), PairType.BDI) == 1
    assert defect(parse("ababa/aba/bab/a"), PairType.BDI) == 1
    assert defect(parse("2,2,1,1"), PairType.AII) == 1
    assert defect(AbDiagram(()), PairType.AI) == 0


def test_length_terms_bdi():
    """G5 = aba/a/b: the length-3 block (one a-row) is a BDI block without
    rank, the length-1 block (one a-row, one b-row) a BDI block of rank 1."""
    assert BLOCK_TYPE[PairType.BDI] == (PairType.BDI, PairType.CI)
    assert G5.multiplicities() == {3: (1, 1, 0), 1: (2, 1, 1)}
    assert invariants._length_term(PairType.BDI, 3, 1, 1, 0) == (0, 0)
    assert invariants._length_term(PairType.BDI, 1, 2, 1, 1) == (1, 1)


def test_length_terms_ai_and_ci():
    """AI 2,1: two AI blocks with m = 1; CI abab: one BDI block (even length)
    with a_4 = 1, b_4 = 0."""
    assert parse("2,1").multiplicities() == {2: (1, 0, 0), 1: (1, 0, 0)}
    assert [invariants._length_term(PairType.AI, d, 1, 0, 0) for d in (2, 1)] == [(1, 1)] * 2
    assert BLOCK_TYPE[PairType.CI][True] is PairType.BDI
    assert parse("abab").multiplicities() == {4: (1, 1, 0)}
    assert invariants._length_term(PairType.CI, 4, 1, 1, 0) == (0, 0)


def test_dim_p0_examples():
    assert dim_p0(parse("2,1"), PairType.AI) == 1
    assert dim_p0(parse("5"), PairType.AI) == 0
    assert dim_p0(G5, PairType.BDI) == 1


def test_distinguished_examples():
    assert is_distinguished(parse("ab/ab/a"), PairType.AIII)
    assert not is_distinguished(parse("ababa/aba/bab/a"), PairType.BDI)
    assert is_almost_distinguished(parse("ababa/aba/bab/a"), PairType.BDI)
    # a mixed-letter odd length kills almost-distinguishedness for CII
    assert not is_almost_distinguished(parse("aba/aba/bab/bab/ab/ab"), PairType.CII)


def test_dim_p_cent_closed_forms():
    """Kostant-Rallis on every pair with n <= 30, beyond certify's reach: the
    zero orbit has dim p^e = dim p, AI (n) has n - 1 and the one-row CI
    diagram abab... has n / 2."""
    assert dim_p_cent(parse("2,1"), PairType.AI, PairParams(3)) == 3
    assert dim_p_cent(G5, PairType.BDI, BDI_5) == 3
    for n in range(0, 31):
        for pt, prm in pairs_of_size(n):
            zero = _zero_orbit(pt, prm)
            assert dim_p_cent(zero, pt, prm) == _textbook_ambient_dims(pt, prm)[0], (pt, prm)
        if n:
            assert dim_p_cent(parse(str(n)), PairType.AI, PairParams(n)) == n - 1
        if n and n % 2 == 0:
            assert dim_p_cent(parse("ab" * (n // 2)), PairType.CI, PairParams(n)) == n // 2


def test_dim_p_cent_rejects_invalid_diagrams():
    bdi_22 = PairParams(4, (2, 2))
    with pytest.raises(UnrealizableDiagram, match="^SizeMismatch: diagram has 3 cells"):
        dim_p_cent(parse("2,1"), PairType.AI, PairParams(4))
    with pytest.raises(UnrealizableDiagram, match=r"^SignatureMismatch: letter counts \(3, 1\)"):
        dim_p_cent(parse("aba/a"), PairType.BDI, bdi_22)
    with pytest.raises(UnrealizableDiagram) as exc:
        dim_p_cent(parse("ab/ab"), PairType.BDI, bdi_22)
    assert str(exc.value) == "ParityViolation: even length needs a_2=b_2, got (2,0)"


def test_find_reduction_rejects_invalid_diagrams_with_the_reasons():
    """The reduction search on the caller's own diagram raises what
    dim_p_cent raises: the validator's reasons."""
    bdi_22 = PairParams(4, (2, 2))
    with pytest.raises(UnrealizableDiagram) as exc:
        find_reduction(parse("ab/ab"), PairType.BDI, bdi_22)
    assert str(exc.value) == "ParityViolation: even length needs a_2=b_2, got (2,0)"
    g, aii_6 = parse("3,2,1"), PairParams(6)
    reasons = "; ".join(str(v) for v in validate(g, PairType.AII, aii_6))
    assert reasons.count("ParityViolation") == 3
    for search in (dim_p_cent, find_reduction):
        with pytest.raises(UnrealizableDiagram) as exc:
            search(g, PairType.AII, aii_6)
        assert str(exc.value) == reasons


def test_classification_never_validates_enumerated_diagrams(monkeypatch):
    """Covers in the reduction search and the vertices of the Hasse diagram
    are enumerated, so they read the closed form of dim p^e unvalidated, and
    the Hasse diagram renders from its own vertex values."""
    pairs = [(pt, prm) for n in range(1, 9) for pt, prm in pairs_of_size(n)]
    want = [(components.classify_components(pt, prm), closure.closure_hasse(pt, prm))
            for pt, prm in pairs]
    renders = [(graph.to_dot(), graph.to_json()) for _, graph in want]
    invariants._dim_p_cent.cache_clear()
    invariants.dim_p_cent.cache_clear()

    def refuse(*args):
        raise AssertionError("an enumerated diagram was validated again")

    monkeypatch.setattr(invariants, "validate", refuse)
    got = [(components.classify_components(pt, prm), closure.closure_hasse(pt, prm))
           for pt, prm in pairs]
    assert got == want
    assert [(graph.to_dot(), graph.to_json()) for _, graph in got] == renders
    assert invariants._dim_p_cent.cache_info().currsize > 0


def test_candidate_walk_equals_filtered_enumeration():
    """The walk over torus blocks builds exactly the almost-distinguished
    diagrams of every pair with n <= 16, in enumeration order, each with its
    defect."""
    for n in range(0, 17):
        for pt, prm in pairs_of_size(n):
            want = [(d, delta) for d in enumerate_diagrams(pt, prm)
                    for delta, almost in [orbit_class(d, pt)] if almost]
            assert almost_distinguished(pt, prm) == want, (pt, prm)


def test_dim_p_cent_matches_oracle_n9_n10():
    """The graded count equals the oracle's kernel dimension at n = 9 and
    10, the top of the sweep of acceptance criterion 4."""
    checked = 0
    for n in (9, 10):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                real = oracle.realize(d, pt, prm)
                assert dim_p_cent(d, pt, prm) == oracle.dim_p_cent_oracle(real), (pt, d)
                checked += 1
    assert checked == 1184


def test_classification_layers_do_not_import_oracle():
    src = os.path.dirname(os.path.dirname(nilcomm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, nilcomm.components; "
        "print(sorted(m for m in ('nilcomm.oracle', 'nilcomm.linalg') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_ambient_dims_certified_against_oracle():
    """dim p equals the kernel dimension of the theta-negative part of g on a
    zero-orbit realization; rank p, the zero orbit's defect, equals its
    randomized defect, and dim k, its weight-0 count, the kernel of the
    theta-positive part."""
    cases = [
        (PairType.AI, PairParams(4)),
        (PairType.AII, PairParams(6)),
        (PairType.AIII, PairParams(5, (3, 2))),
        (PairType.BDI, PairParams(6, (4, 2))),
        (PairType.CI, PairParams(6)),
        (PairType.CII, PairParams(6, (4, 2))),
        (PairType.DIII, PairParams(8)),
    ]
    for pt, prm in cases:
        zero = enumerate_diagrams(pt, prm)[-1]  # the all-ones diagram is last
        assert zero.partition == (1,) * prm.n
        real = oracle.realize(zero, pt, prm)
        assert oracle.dim_p_cent_oracle(real) == dim_p(pt, prm)
        assert oracle.defect_oracle(real) == defect(zero, pt)
        # dim k^e summed over the centralizer's weights 0 .. 2 (longest row - 1)
        dim_k = _theta_dims(zero, pt, 0)[0]
        assert sum(oracle.dim_graded(real, i, 1) for i in range(2 * zero.rows[0][0] - 1)) == dim_k


def test_dim_orbit_and_component_dim():
    assert dim_p(PairType.BDI, BDI_5) == 6
    assert orbit_invariants(G5, PairType.BDI, BDI_5).dim_orbit == 3
    assert component_dim(PairType.BDI, BDI_5, defect(G5, PairType.BDI)) == 5
    assert component_dim(PairType.AI, PairParams(3), defect(parse("2,1"), PairType.AI)) == 4
    assert orbit_invariants(AbDiagram(()), PairType.AI, PairParams(0)).dim_orbit == 0
    n = 6
    assert orbit_invariants(parse("6"), PairType.AI, PairParams(n)).dim_orbit == dim_p(
        PairType.AI, PairParams(n)) - (n - 1)
    # distinguished orbits generate full-dimensional subvarieties
    assert component_dim(PairType.CI, PairParams(4), defect(parse("abab"), PairType.CI)) == dim_p(
        PairType.CI, PairParams(4))


def _distinguished_by_type(diagram, pair_type):
    """The paper's characterization of distinguished orbits, type by type."""
    if not diagram.rows:
        return True
    mults = diagram.multiplicities()
    if pair_type is PairType.AI:
        return len(diagram.rows) == 1
    if pair_type is PairType.AII:
        return len(diagram.rows) == 2 and len(mults) == 1
    if pair_type is PairType.AIII:
        return all(a == 0 or b == 0 for _m, a, b in mults.values())
    if pair_type is PairType.BDI:
        return all(d % 2 == 1 and (a == 0 or b == 0) for d, (_m, a, b) in mults.items())
    if pair_type is PairType.CI:
        return all(d % 2 == 0 and (a == 0 or b == 0) for d, (_m, a, b) in mults.items())
    if pair_type is PairType.CII:
        return all((a == 0 or b == 0) if d % 2 else m <= 2 for d, (m, a, b) in mults.items())
    return all(m <= 2 if d % 2 else (a == 0 or b == 0) for d, (m, a, b) in mults.items())


def _almost_distinguished_by_type(diagram, pair_type):
    """The paper's characterization of almost-distinguished orbits."""
    mults = diagram.multiplicities()
    if pair_type is PairType.AI:
        return all(m == 1 for m, _a, _b in mults.values())
    if pair_type is PairType.AII:
        return all(m == 2 for m, _a, _b in mults.values())
    if pair_type is PairType.BDI:
        return all(d % 2 == 1 and a * b <= 1 for d, (_m, a, b) in mults.items())
    if pair_type is PairType.CI:
        return all(d % 2 == 0 and a * b <= 1 for d, (_m, a, b) in mults.items())
    return _distinguished_by_type(diagram, pair_type)


def test_distinguished_iff_zero_defect_enumerations():
    """Distinguished (defect 0) and almost-distinguished (p(e,0) a torus), as
    summed from the per-length terms and as orbit_class reads them off one sum,
    agree with the paper's per-type characterizations on every valid diagram
    with n <= 12, the empty diagram of each zero pair included."""
    checked = 0
    for n in range(0, 13):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                assert is_distinguished(d, pt) == _distinguished_by_type(d, pt), (pt, d)
                assert is_almost_distinguished(d, pt) == _almost_distinguished_by_type(d, pt), (
                    pt, d)
                assert is_almost_distinguished(d, pt) == (defect(d, pt) == dim_p0(d, pt))
                assert orbit_class(d, pt) == (defect(d, pt), is_almost_distinguished(d, pt))
                if pt in (PairType.AIII, PairType.CII, PairType.DIII):
                    assert is_almost_distinguished(d, pt) == is_distinguished(d, pt)
                checked += 1
    assert checked == 4674


def _zero_orbit(pair_type, params):
    """The zero orbit of the pair: n rows of length 1."""
    if pair_type.uses_letters:
        a, b = params.signature or (params.n // 2, params.n // 2)
        return AbDiagram(((1, "a"),) * a + ((1, "b"),) * b)
    return AbDiagram(((1, None),) * params.n)


def _textbook_ambient_dims(pair_type, params):
    """(dim p, rank p, dim k) of each classical pair in closed form."""
    n, (p, q) = params.n, params.signature or (0, 0)
    return {
        PairType.AI: (n * (n + 1) // 2 - 1 if n else 0, max(n - 1, 0), n * (n - 1) // 2),
        PairType.AII: (n * (n - 1) // 2 - 1 if n else 0, max(n // 2 - 1, 0), n * (n + 1) // 2),
        PairType.AIII: (2 * p * q, min(p, q), p * p + q * q - 1 if n else 0),
        PairType.BDI: (p * q, min(p, q), p * (p - 1) // 2 + q * (q - 1) // 2),
        PairType.CI: (n * n // 4 + n // 2, n // 2, n * n // 4),
        PairType.CII: (p * q, min(p, q) // 2, p * (p + 1) // 2 + q * (q + 1) // 2),
        PairType.DIII: (n * n // 4 - n // 2, n // 4, n * n // 4),
    }[pair_type]


def test_ambient_dims_equal_textbook_closed_forms():
    """The zero-orbit count equals the closed forms on every pair, n <= 30:
    dim p, rank p (the zero orbit's defect) and dim k (its weight-0 count)."""
    for n in range(0, 31):
        for pt, prm in pairs_of_size(n):
            zero = _zero_orbit(pt, prm)
            got = (dim_p(pt, prm), defect(zero, pt), _theta_dims(zero, pt, 0)[0])
            assert got == _textbook_ambient_dims(pt, prm), (pt, prm)


def test_graded_dims_match_oracle_to_n7():
    """The row-kind count of dim p(e,i), i <= 4, equals the oracle's on every
    valid diagram with n <= 7: weights up to i + 2 = 6, beyond the i <= 1
    that certify checks."""
    checked = 0
    for n in range(0, 8):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                real = oracle.realize(d, pt, prm)
                oracle.dim_p_cent_oracle(real)  # eliminates every weight once
                for i in range(0, 5):
                    assert dim_p_graded(d, pt, i) == oracle.dim_graded(real, i, -1), (pt, d, i)
                checked += 1
    assert checked == 457


def test_graded_dims_count_the_row_kinds_once():
    """``dim_p_graded`` counts the row kinds once for both of its weights;
    it equals the difference of the two ``_theta_dims`` counts, i <= 3, on
    every valid diagram with n <= 10."""
    checked = 0
    for n in range(0, 11):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                for i in range(0, 4):
                    want = _theta_dims(d, pt, i)[1] - _theta_dims(d, pt, i + 2)[0]
                    assert dim_p_graded(d, pt, i) == want, (pt, prm, d.text(), i)
                checked += 1
    assert checked == 1974


def test_orbit_invariants_json():
    inv = orbit_invariants(G5, PairType.BDI, BDI_5)
    assert inv.to_json() == {
        "defect": 1,
        "dim_p_cent": 3,
        "dim_orbit": 3,
        "dim_p0": 1,
        "distinguished": False,
        "almost": True,
        "component_dim": 5,
    }

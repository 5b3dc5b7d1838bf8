import os
import subprocess
import sys

import pytest

import nilcomm
from nilcomm import oracle
from nilcomm.diagrams import (
    AbDiagram,
    PairParams,
    PairType,
    enumerate_diagrams,
    pairs_of_size,
    params_for,
    parse,
)
from nilcomm.errors import EmptyDiagram, UnrealizableDiagram
from nilcomm.invariants import (
    ambient_dims,
    centralizer_pairs,
    component_dim,
    defect,
    defect_per_length,
    dim_k_graded,
    dim_orbit,
    dim_p0,
    dim_p_cent,
    dim_p_graded,
    is_almost_distinguished,
    is_distinguished,
    is_even,
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
    with pytest.raises(EmptyDiagram):
        defect(AbDiagram(()), PairType.AI)


def test_defect_per_length_examples():
    assert defect_per_length(G5, PairType.BDI, 1) == 1
    assert defect_per_length(G5, PairType.BDI, 3) == 0
    assert defect_per_length(parse("2,1"), PairType.AI, 2) == 1
    assert defect_per_length(parse("2,2"), PairType.AII, 2) == 1
    assert defect_per_length(parse("2,1"), PairType.AI, 5) == 0


def test_centralizer_pairs_bdi():
    desc = {d.d: d for d in centralizer_pairs(G5, PairType.BDI)}
    assert desc[3].kind == "so_soso" and (desc[3].m, desc[3].a, desc[3].b) == (1, 1, 0)
    assert desc[1].kind == "so_soso" and (desc[1].a, desc[1].b) == (1, 1)
    assert desc[3].label() == "(so_1, so_1 x so_0)"
    assert desc[1].label() == "(so_2, so_1 x so_1)"


def test_centralizer_pairs_ai_and_ci():
    desc = centralizer_pairs(parse("2,1"), PairType.AI)
    assert [(x.kind, x.m) for x in desc] == [("gl_so", 1), ("gl_so", 1)]
    desc = centralizer_pairs(parse("abab"), PairType.CI)
    assert [(x.kind, x.d, x.m) for x in desc] == [("so_soso", 4, 1)]


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
    assert dim_p_cent(parse("2,1"), PairType.AI, PairParams(3)) == 3
    for n in (1, 4, 7):
        assert dim_p_cent(parse(str(n)), PairType.AI, PairParams(n)) == n - 1
    assert dim_p_cent(G5, PairType.BDI, BDI_5) == 3


def test_dim_p_cent_rejects_invalid_diagrams():
    bdi_22 = PairParams(4, (2, 2))
    with pytest.raises(UnrealizableDiagram, match="^SizeMismatch: diagram has 3 cells"):
        dim_p_cent(parse("2,1"), PairType.AI, PairParams(4))
    with pytest.raises(UnrealizableDiagram, match=r"^SignatureMismatch: letter counts \(3, 1\)"):
        dim_p_cent(parse("aba/a"), PairType.BDI, bdi_22)
    with pytest.raises(UnrealizableDiagram) as exc:
        dim_p_cent(parse("ab/ab"), PairType.BDI, bdi_22)
    assert str(exc.value) == "ParityViolation: even length needs a_2=b_2, got (2,0)"


def test_dim_p_cent_matches_oracle_n9_n10():
    """The graded count equals the oracle's kernel dimension beyond the
    n <= 8 sweep of the acceptance criteria."""
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
    zero-orbit realization; rank p equals its randomized defect."""
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
        amb = ambient_dims(pt, prm)
        zero = enumerate_diagrams(pt, prm)[-1]  # the all-ones diagram is last
        assert zero.partition == (1,) * prm.n
        real = oracle.realize(zero, pt, prm)
        assert oracle.dim_p_cent_oracle(real) == amb.dim_p
        assert oracle.defect_oracle(real) == amb.rank_p
        gd = oracle.centralizer_dims(real)
        assert gd.dim_k_cent == amb.dim_k


def test_dim_orbit_and_component_dim():
    assert ambient_dims(PairType.BDI, BDI_5).dim_p == 6
    assert dim_orbit(G5, PairType.BDI, BDI_5) == 3
    assert component_dim(G5, PairType.BDI, BDI_5) == 5
    assert component_dim(parse("2,1"), PairType.AI, PairParams(3)) == 4
    assert dim_orbit(AbDiagram(()), PairType.AI, PairParams(0)) == 0
    n = 6
    assert dim_orbit(parse("6"), PairType.AI, PairParams(n)) == ambient_dims(
        PairType.AI, PairParams(n)
    ).dim_p - (n - 1)
    # distinguished orbits generate full-dimensional subvarieties
    assert component_dim(parse("abab"), PairType.CI, PairParams(4)) == ambient_dims(
        PairType.CI, PairParams(4)
    ).dim_p


def test_even_orbits():
    assert is_even(G5)
    assert is_even(parse("abab/ab"))
    assert not is_even(parse("2,1"))


def test_distinguished_iff_zero_defect_enumerations():
    for n in range(1, 11):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                dft = defect(d, pt)
                assert is_distinguished(d, pt) == (dft == 0)
                assert is_almost_distinguished(d, pt) == (dft == dim_p0(d, pt))
                if pt in (PairType.AIII, PairType.CII, PairType.DIII):
                    assert is_almost_distinguished(d, pt) == is_distinguished(d, pt)


def test_graded_dims_match_oracle_spot():
    cases = [
        ("2,1", PairType.AI, PairParams(3)),
        ("3,1", PairType.AI, PairParams(4)),
        ("2,2,1,1", PairType.AII, PairParams(6)),
        ("aba/a/b", PairType.BDI, BDI_5),
        ("abab/ba", PairType.CI, PairParams(6)),
        ("ab/ba/a/b", PairType.AIII, PairParams(6, (3, 3))),
    ]
    for text, pt, prm in cases:
        d = parse(text)
        real = oracle.realize(d, pt, prm)
        for i in range(0, 5):
            assert dim_p_graded(d, pt, i) == oracle.dim_graded(real, i, -1)
            assert dim_k_graded(d, pt, i) == oracle.dim_graded(real, i, 1)


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
    assert inv.even is True

import itertools

import pytest
from hypothesis import given, strategies as st

from nilcomm import closure
from nilcomm.closure import (
    closure_hasse,
    centralizer_drop,
    find_reduction,
    is_reduction,
    leq,
    lt,
    matches_irreducible_motif,
    minimal_degenerations,
    reduction_order,
)
from nilcomm.diagrams import (
    AbDiagram,
    PairParams,
    PairType,
    enumerate_diagrams,
    is_valid,
    pairs_of_size,
    params_for,
    parse,
    truncate_columns,
)
from nilcomm.errors import NotComparable, ShapeMismatch, WrongType
from nilcomm.invariants import dim_orbit, is_almost_distinguished, is_distinguished

BDI_66 = params_for(PairType.BDI, 12, 6, 6)
BDI_75 = params_for(PairType.BDI, 12, 7, 5)


def dominance_prefix(p1, p2):
    """Independent characterization for plain partitions: prefix sums."""
    acc1 = acc2 = 0
    for k in range(max(len(p1), len(p2))):
        acc1 += p1[k] if k < len(p1) else 0
        acc2 += p2[k] if k < len(p2) else 0
        if acc1 > acc2:
            return False
    return True


def test_leq_examples():
    assert leq(parse("2,1"), parse("3"), PairType.AI)
    assert leq(parse("ab/a/b"), parse("abab"), PairType.CI)
    assert leq(parse("aba/a/b"), parse("ababa"), PairType.BDI)
    assert not leq(parse("ababa"), parse("aba/a/b"), PairType.BDI)


def test_leq_errors():
    with pytest.raises(ShapeMismatch):
        leq(parse("2,1"), parse("4"), PairType.AI)
    with pytest.raises(ShapeMismatch):
        leq(parse("aba/a"), parse("bab/b"), PairType.BDI)  # signatures (3,1) vs (1,3)


@given(st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
       st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6))
def test_leq_matches_prefix_sum_dominance(l1, l2):
    p1 = tuple(sorted(l1, reverse=True))
    p2 = tuple(sorted(l2, reverse=True))
    if sum(p1) != sum(p2):
        return
    d1, d2 = AbDiagram.from_partition(p1), AbDiagram.from_partition(p2)
    assert leq(d1, d2, PairType.AI) == dominance_prefix(p1, p2)


def test_order_properties_small():
    for pt, prm in [
        (PairType.AI, PairParams(7)),
        (PairType.BDI, params_for(PairType.BDI, 7, 4, 3)),
        (PairType.CI, PairParams(6)),
    ]:
        diags = enumerate_diagrams(pt, prm)
        for a in diags:
            assert leq(a, a, pt)
        for a, b in itertools.permutations(diags, 2):
            if leq(a, b, pt) and leq(b, a, pt):
                pytest.fail(f"antisymmetry fails: {a.text()} {b.text()}")
        for a, b, c in itertools.permutations(diags, 3):
            if leq(a, b, pt) and leq(b, c, pt):
                assert leq(a, c, pt)


def truncation_leq(g1, g2):
    """The order straight from its definition: every truncation of g1 has at
    most the cells (plain) or the a's and b's (ab) of that of g2."""
    for k in range(max(g1.n, g2.n)):
        t1, t2 = truncate_columns(g1, k), truncate_columns(g2, k)
        if t1.n > t2.n or any(x > y for x, y in zip(t1.letter_counts(), t2.letter_counts())):
            return False
    return True


def brute_force_covers(g1, diags):
    ups = [g for g in diags if g != g1 and truncation_leq(g1, g)]
    return [g for g in ups if not any(h != g and truncation_leq(h, g) for h in ups)]


def test_truncation_profiles_injective():
    """The profile determines the diagram, which gives antisymmetry on every
    enumeration up to n = 10."""
    for n in range(1, 11):
        for pt, prm in pairs_of_size(n):
            diags = enumerate_diagrams(pt, prm)
            profiles = {closure._truncation_profile(d) for d in diags}
            assert len(profiles) == len(diags)


def test_minimal_degenerations_ai():
    assert [d.partition for d in minimal_degenerations(parse("2,1"), PairType.AI, PairParams(3))] == [(3,)]
    covers = {d.partition for d in minimal_degenerations(parse("3,2,1"), PairType.AI, PairParams(6))}
    assert covers == {(3, 3), (4, 1, 1)}


def test_minimal_degenerations_against_brute_force():
    """Covers = strictly-larger diagrams with empty open interval, computed
    here directly from truncations, in enumeration order, for every pair of
    every type and signature up to n = 8."""
    for n in range(0, 9):
        for pt, prm in pairs_of_size(n):
            diags = enumerate_diagrams(pt, prm)
            for g1 in diags:
                assert minimal_degenerations(g1, pt, prm) == brute_force_covers(g1, diags), (
                    pt, prm, g1.text())


def test_minimal_degenerations_of_invalid_diagram():
    """A diagram of the pair's size and signature that breaks a parity rule
    gets the covers the brute-force order gives."""
    for pt, prm, text in [
        (PairType.BDI, params_for(PairType.BDI, 6, 3, 3), "ab/ab/a/b"),
        (PairType.BDI, params_for(PairType.BDI, 7, 4, 3), "abab/aba"),
        (PairType.CI, PairParams(6), "aba/a/b/b"),
        (PairType.CII, PairParams(8, (4, 4)), "abab/ab/ba"),
        (PairType.AII, PairParams(6), "3,2,1"),
    ]:
        g = parse(text)
        assert not is_valid(g, pt, prm)
        diags = enumerate_diagrams(pt, prm)
        covers = minimal_degenerations(g, pt, prm)
        assert covers and covers == brute_force_covers(g, diags), text


def test_minimal_degenerations_shape_mismatch():
    prm = params_for(PairType.BDI, 5, 3, 2)
    for text in ("aba/a", "aba/a/a", "bab/b/a", "3,2"):
        with pytest.raises(ShapeMismatch):
            minimal_degenerations(parse(text), PairType.BDI, prm)
    with pytest.raises(ShapeMismatch):
        minimal_degenerations(parse("2,1"), PairType.AI, PairParams(4))
    with pytest.raises(ShapeMismatch):
        minimal_degenerations(parse("aba/a"), PairType.CI, PairParams(4))


def test_bdi_gamma5_cover_includes_regular():
    covers = minimal_degenerations(parse("aba/a/b"), PairType.BDI, params_for(PairType.BDI, 5, 3, 2))
    assert parse("ababa") in covers


def test_reduction_examples():
    g5 = parse("aba/a/b")
    assert is_reduction(g5, parse("ababa"), PairType.BDI, params_for(PairType.BDI, 5, 3, 2))
    assert reduction_order(g5, parse("ababa"), PairType.BDI) == 1
    # s = 1 but no defect drop
    assert not is_reduction(parse("3,2"), parse("4,1"), PairType.AI, PairParams(5))
    # s = 4 while the defect drops by 1
    assert not is_reduction(parse("2,2,1,1"), parse("3,3"), PairType.AII, PairParams(6))
    assert centralizer_drop(parse("2,2,1,1"), parse("3,3"), PairType.AII, PairParams(6)) == 4
    with pytest.raises(NotComparable):
        is_reduction(parse("3"), parse("2,1"), PairType.AI, PairParams(3))


def test_find_reduction_examples():
    g6 = parse("ababa/aba/bab/b")
    target = find_reduction(g6, PairType.BDI, BDI_66)
    assert target is not None
    assert is_reduction(g6, parse("ababa/ababa/b/b"), PairType.BDI, BDI_66)
    assert find_reduction(parse("ababa/aba/bab/a"), PairType.BDI, BDI_75) is None
    assert find_reduction(parse("3,1"), PairType.AI, PairParams(4)) is not None
    assert find_reduction(parse("aba/a/b"), PairType.BDI,
                          params_for(PairType.BDI, 5, 3, 2)) == parse("ababa")


def test_find_reduction_ci_examples():
    assert find_reduction(parse("baba/ba/ab"), PairType.CI, PairParams(8)) is not None
    assert find_reduction(parse("bababa/baba/abab/ab"), PairType.CI, PairParams(16)) is not None
    assert find_reduction(parse("bababa/baba/abab/ba"), PairType.CI, PairParams(16)) is None


def test_find_reduction_does_not_recheck_the_order(monkeypatch):
    """Covers already lie strictly above, so find_reduction needs no lt."""
    cases = []
    for n in range(1, 9):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                covers = minimal_degenerations(d, pt, prm)
                tight = [c for c in covers if is_reduction(d, c, pt, prm)]
                cases.append((d, pt, prm, tight[0] if tight else None))
    assert any(target is None for *_, target in cases)
    assert any(target is not None for *_, target in cases)

    def refuse(*args):
        raise AssertionError("the order was compared again")

    monkeypatch.setattr(closure, "lt", refuse)
    monkeypatch.setattr(closure, "leq", refuse)
    for d, pt, prm, target in cases:
        assert find_reduction(d, pt, prm) == target, (pt, prm, d.text())


def test_motif_examples():
    assert matches_irreducible_motif(parse("ababa/aba/bab/a"), PairType.BDI)
    assert not matches_irreducible_motif(parse("aba/a/b"), PairType.BDI)
    assert matches_irreducible_motif(parse("bababa/baba/abab/ba"), PairType.CI)
    assert matches_irreducible_motif(parse("aba/aba/a/b"), PairType.BDI)
    with pytest.raises(WrongType):
        matches_irreducible_motif(parse("2,1"), PairType.AI)


def test_motif_innermost_length_cases():
    # a CI defect pair at length 2 always merges into a length-4 row
    assert not matches_irreducible_motif(parse("ab/ba"), PairType.CI)
    assert find_reduction(parse("ab/ba"), PairType.CI, PairParams(4)) == parse("abab")
    # a BDI pair at length 1 absorbing its unique neighbour is blocked when
    # the merged row would land on an opposite-letter length
    g = parse("ababa/bab/a/b")
    prm = params_for(PairType.BDI, 10, 5, 5)
    assert matches_irreducible_motif(g, PairType.BDI)
    assert find_reduction(g, PairType.BDI, prm) is None
    # with the same-letter landing the merge is defect-tight
    g2 = parse("ababa/aba/a/b")
    prm2 = params_for(PairType.BDI, 10, 6, 4)
    assert not matches_irreducible_motif(g2, PairType.BDI)
    assert find_reduction(g2, PairType.BDI, prm2) is not None


def test_ai_reduction_iff_row_of_length_one():
    """Distinct-row non-regular diagrams reduce exactly when a length-1 row
    is present (n <= 10)."""
    for n in range(2, 11):
        for d in enumerate_diagrams(PairType.AI, PairParams(n)):
            if not is_almost_distinguished(d, PairType.AI):
                continue
            if is_distinguished(d, PairType.AI):
                continue
            found = find_reduction(d, PairType.AI, PairParams(n)) is not None
            assert found == (d.partition[-1] == 1), d.text()


def test_hasse_ai_small():
    g = closure_hasse(PairType.AI, PairParams(3))
    assert [v.partition for v in g.vertices] == [(3,), (2, 1), (1, 1, 1)]
    assert len(g.edges) == 2
    g4 = closure_hasse(PairType.AI, PairParams(4))
    assert len(g4.vertices) == 5
    assert len(g4.edges) == 4  # the dominance order on 4 is a chain


def test_hasse_bdi_acyclic_unique_max():
    g = closure_hasse(PairType.BDI, params_for(PairType.BDI, 5, 3, 2))
    below_something = {e.lower for e in g.edges}
    maxima = [v for v in g.vertices if v not in below_something]
    assert maxima == [parse("ababa")]
    for e in g.edges:
        assert lt(e.lower, e.upper, PairType.BDI)


def test_motif_equivalent_to_search_beyond_small_sizes():
    """The motif predicate agrees with exhaustive reduction search well past
    the sizes where the non-reducible patterns first appear."""
    grids = [(PairType.CI, PairParams(14)), (PairType.CI, PairParams(16))]
    for n in (11, 12, 13, 14):
        for q in range(1, n // 2 + 1):
            grids.append((PairType.BDI, params_for(PairType.BDI, n, n - q, q)))
    checked = 0
    for pt, prm in grids:
        for d in enumerate_diagrams(pt, prm):
            if not is_almost_distinguished(d, pt) or is_distinguished(d, pt):
                continue
            checked += 1
            irreducible = find_reduction(d, pt, prm) is None
            assert irreducible == matches_irreducible_motif(d, pt), (prm, d.text())
    assert checked > 60


def test_hasse_outputs():
    g = closure_hasse(PairType.AI, PairParams(3))
    dot = g.to_dot()
    assert "digraph" in dot and '"2,1" -> "3"' in dot
    assert "reduction" in dot  # (2,1) -> (3) is a reduction
    js = g.to_json()
    assert '"2,1"' in js


def test_delta_bounded_by_s_on_covers():
    """On every cover edge the defect drop never exceeds the centralizer
    drop (with s computed through the oracle-backed dimension)."""
    for pt, prm in [
        (PairType.AI, PairParams(6)),
        (PairType.AII, PairParams(8)),
        (PairType.BDI, params_for(PairType.BDI, 6, 3, 3)),
        (PairType.CI, PairParams(8)),
        (PairType.AIII, PairParams(6, (3, 3))),
    ]:
        for e in closure_hasse(pt, prm).edges:
            assert e.delta <= e.s, (pt, e.lower.text(), e.upper.text())


def test_dim_orbit_monotone_along_order():
    for pt, prm in [
        (PairType.AI, PairParams(10)),
        (PairType.CI, PairParams(10)),
        (PairType.BDI, params_for(PairType.BDI, 10, 5, 5)),
        (PairType.BDI, params_for(PairType.BDI, 7, 4, 3)),
        (PairType.CII, PairParams(10, (6, 4))),
        (PairType.DIII, PairParams(10)),
        (PairType.AIII, PairParams(10, (5, 5))),
        (PairType.AII, PairParams(10)),
    ]:
        diags = enumerate_diagrams(pt, prm)
        for g1 in diags:
            for g2 in diags:
                if g1 != g2 and leq(g1, g2, pt):
                    assert dim_orbit(g1, pt, prm) < dim_orbit(g2, pt, prm)

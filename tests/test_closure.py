import functools
import itertools
import json
import operator

import pytest
from hypothesis import given, strategies as st

from nilcomm import closure
from nilcomm.closure import (
    closure_hasse,
    find_reduction,
    is_reduction,
    leq,
    matches_irreducible_motif,
    minimal_degenerations,
)
from nilcomm.diagrams import (
    DEFAULT_BOUND,
    AbDiagram,
    PairParams,
    PairType,
    enumerate_diagrams,
    is_valid,
    pairs_of_size,
    params_for,
    parse,
)
from nilcomm.errors import NotComparable, ShapeMismatch, WrongType
from nilcomm.invariants import (defect, dim_p_cent, is_almost_distinguished, is_distinguished,
                                orbit_invariants)
from partition_reference import candidates

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


def flip(letter):
    return "b" if letter == "a" else "a"


def truncate_columns(diagram, k):
    """Remove the first k columns.  Rows shorter than k disappear; a surviving
    row keeps its alternation, so its start letter flips when k is odd."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return diagram
    rows = []
    for d, s in diagram.rows:
        if d > k:
            rows.append((d - k, s if s is None or k % 2 == 0 else flip(s)))
    return AbDiagram(tuple(rows))


def test_truncate_plain():
    assert truncate_columns(parse("3,1"), 1).n == 2
    g = parse("4,2,1")
    assert truncate_columns(g, 0) == g


def test_truncate_ab_letters_shift():
    t = truncate_columns(parse("abab/a/b"), 1)
    assert t.letter_counts() == (1, 2)
    assert t.rows == ((3, "b"),)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=6),
       st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5),
       st.data())
def test_truncate_composition(lengths, j, k, data):
    letters = data.draw(st.lists(st.sampled_from("ab"), min_size=len(lengths), max_size=len(lengths)))
    d = AbDiagram.from_rows(zip(lengths, letters))
    once = truncate_columns(d, j + k)
    twice = truncate_columns(truncate_columns(d, j), k)
    assert once.letter_counts() == twice.letter_counts()
    assert once.n == twice.n


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


def per_cell_profile(diagram):
    """The truncation profile cell by cell: the cell in column c, of letter
    a or b, counts in every truncation Gamma^(k) with k <= c."""
    width = 2 if diagram.is_ab else 1
    counts = [0] * (width * diagram.n)
    for d, s in diagram.rows:
        for c in range(d):
            letter = 0 if s is None else ("ab".index(s) + c) % 2
            for k in range(c + 1):
                counts[width * k + letter] += 1
    return tuple(counts)


def test_truncation_profile_matches_per_cell_loop():
    """Every candidate of every type with n <= 10, valid or not."""
    checked = 0
    for n in range(0, 11):
        for pt in PairType:
            for d in candidates(pt, n):
                assert closure._truncation_profile(d) == per_cell_profile(d), (pt, d.text())
                checked += 1
    assert checked == 6353


def test_profile_and_leq_exact_past_one_byte_fields():
    """With n >= 256 a count no longer fits one byte, and with n >= 65536 not
    two: the fields widen, and neither the profile nor the order wraps a
    count around."""
    plain = PairType.AI
    for pt, low, high in [
        (plain, AbDiagram.from_partition([1] * 300), AbDiagram.from_partition([300])),
        (PairType.AIII, AbDiagram.from_rows([(1, "a")] * 150 + [(1, "b")] * 150),
         AbDiagram.from_rows([(300, "a")])),
        (plain, AbDiagram.from_partition([1] * 70_000), AbDiagram.from_partition([2] * 35_000)),
    ]:
        for d in (low, high):
            assert closure._truncation_profile(d) == per_cell_profile(d), (d.n, d.rows[0])
        assert leq(low, high, pt) and not leq(high, low, pt)
    assert closure._truncation_profile(AbDiagram.from_partition([300]))[:3] == (300, 299, 298)
    assert closure._truncation_profile(AbDiagram.from_partition([2] * 35_000))[:3] == (
        70_000, 35_000, 0)


def bucket_slices(profiles):
    """ge[k][v], built per field from the diagrams holding each value."""
    everything = (1 << len(profiles)) - 1
    slices = []
    for column in zip(*profiles):
        ge = [everything]
        for v in range(1, max(column) + 1):
            ge.append(sum(1 << j for j, value in enumerate(column) if value >= v))
        slices.append(ge)
    return slices


def test_index_slices_match_bucket_build():
    """The index of every pair with n <= 10 lists the enumeration, and its
    byte-column slices equal a plain per-value build from the diagrams'
    profiles."""
    for n in range(0, 11):
        for pt, prm in pairs_of_size(n):
            diags = enumerate_diagrams(pt, prm)
            index = closure._closure_index(pt, prm, DEFAULT_BOUND)
            assert index.diagrams == diags, (pt, prm)
            profiles = [closure._truncation_profile(d) for d in diags]
            assert index.ge == bucket_slices(profiles), (pt, prm)


def test_index_profiles_are_the_row_sums():
    """The profiles the walk writes into the blob, in enumeration order, are
    the sums of the diagrams' packed row profiles (every pair, n <= 10)."""
    for n in range(0, 11):
        for pt, prm in pairs_of_size(n):
            index = closure._closure_index(pt, prm, DEFAULT_BOUND)
            w = index.width
            assert w == (2 if pt.uses_letters else 1) * n
            assert bytes(index.blob) == b"".join(
                sum(closure._row_profile(d, s, 1) for d, s in g.rows).to_bytes(w, "little")
                for g in enumerate_diagrams(pt, prm)), (pt, prm)


@functools.lru_cache(maxsize=None)
def pairwise_above(pt, prm):
    """Bit j of entry i is set when diagram j's profile is at least diagram
    i's, j != i: the order taken pair by pair."""
    profiles = [closure._truncation_profile(d) for d in enumerate_diagrams(pt, prm)]
    return tuple(sum(1 << j for j, q in enumerate(profiles) if j != i and all(map(operator.le, p, q)))
                 for i, p in enumerate(profiles))


PAIRS_TO_14 = [pair for n in range(0, 15) for pair in pairs_of_size(n)]


def test_covers_equal_reference_transitive_reduction():
    """On every pair with n <= 14 the covers of each diagram are what lies
    above it and above nothing else above it, in the pairwise order, listed
    in enumeration order."""
    for pt, prm in PAIRS_TO_14:
        diags = enumerate_diagrams(pt, prm)
        above = pairwise_above(pt, prm)
        for i, g in enumerate(diags):
            through = 0
            for j in range(len(diags)):
                if above[i] >> j & 1:
                    through |= above[j]
            want = [diags[j] for j in range(len(diags)) if (above[i] & ~through) >> j & 1]
            assert minimal_degenerations(g, pt, prm) == want, (pt, prm, g.text())


def test_enumeration_order_is_a_linear_extension():
    """On every pair with n <= 14 the profile is injective, and everything
    above a diagram is listed before it: the order the cover scan relies on."""
    for pt, prm in PAIRS_TO_14:
        diags = enumerate_diagrams(pt, prm)
        assert len(set(map(closure._truncation_profile, diags))) == len(diags), (pt, prm)
        for i, bits in enumerate(pairwise_above(pt, prm)):
            assert bits >> i == 0, (pt, prm, diags[i].text())


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


def test_invalid_diagram_above_every_valid_one_has_no_covers():
    """An invalid diagram with a profile field above its column's top in the
    index lies below no valid diagram: the AND of its slices is empty."""
    for pt, prm, text in [
        (PairType.AII, PairParams(6), "6"),
        (PairType.BDI, params_for(PairType.BDI, 6, 3, 3), "ababab"),
    ]:
        g = parse(text)
        assert not is_valid(g, pt, prm)
        diags = enumerate_diagrams(pt, prm)
        profile = closure._truncation_profile(g)
        tops = [max(column) for column in zip(*map(closure._truncation_profile, diags))]
        assert any(v > top for v, top in zip(profile, tops)), text
        assert minimal_degenerations(g, pt, prm) == [] == brute_force_covers(g, diags), text


def test_up_sets_of_earlier_positions_equal_the_full_mask():
    """``up(i)`` tests only the diagrams before position i, since every
    diagram above i comes earlier in enumeration order: the same set as the
    full mask less i itself, on every pair with n <= 12 and on AIII 20
    (10, 10)."""
    pairs = [*(pair for n in range(13) for pair in pairs_of_size(n)),
             (PairType.AIII, params_for(PairType.AIII, 20, 10, 10))]
    checked = 0
    for pt, prm in pairs:
        index = closure._closure_index(pt, prm, DEFAULT_BOUND)
        for i in range(len(index.diagrams)):
            profile = index.blob[i * index.width:(i + 1) * index.width]
            assert index.up(i) == index._at_or_above(profile, index._all) & ~(1 << i), (pt, prm, i)
            checked += 1
    assert checked == 10738


def test_index_of_zero_pair_and_single_orbit_pair():
    """Profiles of width 0 (the zero pair) and a pair with one orbit: the
    only diagram has nothing above it."""
    for pt, prm in [
        (PairType.AI, PairParams(0)),
        (PairType.BDI, params_for(PairType.BDI, 0, 0, 0)),
        (PairType.AI, PairParams(1)),
        (PairType.BDI, params_for(PairType.BDI, 2, 1, 1)),
    ]:
        (only,) = enumerate_diagrams(pt, prm)
        index = closure._closure_index(pt, prm, DEFAULT_BOUND)
        assert index.up(0) == 0
        assert minimal_degenerations(only, pt, prm) == []
        assert closure_hasse(pt, prm).edges == ()
    assert closure._truncation_profile(AbDiagram(())) == ()


def test_hasse_over_several_machine_words():
    """CI 10 has more than 64 orbits, so every bitset spans several words;
    its Hasse edges are the transitive reduction of leq taken pair by pair."""
    pt, prm = PairType.CI, PairParams(10)
    diags = enumerate_diagrams(pt, prm)
    assert len(diags) > 64
    less = {(x, y) for x in diags for y in diags if x != y and leq(x, y, pt)}
    reduction = {(x, y) for x, y in less
                 if not any((x, z) in less and (z, y) in less for z in diags)}
    assert {(e.lower, e.upper) for e in closure_hasse(pt, prm).edges} == reduction


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
    assert defect(g5, PairType.BDI) - defect(parse("ababa"), PairType.BDI) == 1
    # s = 1 but no defect drop
    assert not is_reduction(parse("3,2"), parse("4,1"), PairType.AI, PairParams(5))
    # s = 4 while the defect drops by 1
    assert not is_reduction(parse("2,2,1,1"), parse("3,3"), PairType.AII, PairParams(6))
    assert (dim_p_cent(parse("2,2,1,1"), PairType.AII, PairParams(6))
            - dim_p_cent(parse("3,3"), PairType.AII, PairParams(6))) == 4
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
    """Covers already lie strictly above, so find_reduction needs no leq."""
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
        assert e.lower != e.upper and leq(e.lower, e.upper, PairType.BDI)


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


def test_hasse_json_equals_the_indented_dump():
    """``to_json`` writes, line by line, the text of ``json.dumps(obj,
    indent=2)`` of the vertex names and the edges, on every pair with n <= 8
    (those of a single orbit have no edges) and on a graph without vertices."""
    def dumped(graph):
        names = {v: v.text() for v in graph.vertices}
        return json.dumps({"vertices": list(names.values()), "edges": [
            {"lower": names[e.lower], "upper": names[e.upper], "s": e.s, "delta": e.delta,
             "reduction": e.is_reduction} for e in graph.edges]}, indent=2)

    graphs = [closure_hasse(pt, prm) for n in range(9) for pt, prm in pairs_of_size(n)]
    assert sum(not graph.edges for graph in graphs) > 0
    for graph in graphs + [closure.ClosureGraph((), (), ())]:
        assert graph.to_json() == dumped(graph)


def test_hasse_labels_are_the_orbit_invariants():
    """Every vertex label of the rendered Hasse diagram names the orbit's
    dimension and defect as orbit_invariants computes them (n <= 8)."""
    for n in range(0, 9):
        for pt, prm in pairs_of_size(n):
            graph = closure_hasse(pt, prm)
            labels = [line for line in graph.to_dot().splitlines() if "[label=" in line]
            want = []
            for v in graph.vertices:
                inv = orbit_invariants(v, pt, prm)
                label = f"{v.text() or 'zero'}\\n(dim {inv.dim_orbit}, delta {inv.defect})"
                want.append(f'  "{v.text()}" [label="{label}"];')
            assert labels == want, (pt, prm)


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
                    assert (orbit_invariants(g1, pt, prm).dim_orbit
                            < orbit_invariants(g2, pt, prm).dim_orbit)

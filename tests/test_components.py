from nilcomm import oracle
from nilcomm.closure import is_reduction
from nilcomm.components import (
    COMPONENT,
    ELIMINATED_BY_REDUCTION,
    ELIMINATED_BY_WITNESS,
    NON_CANDIDATE,
    UNRESOLVED,
    candidate_status,
    classify_components,
    rank_bound_check,
    verified_grid,
)
from nilcomm.diagrams import (
    PairParams,
    PairType,
    enumerate_diagrams,
    pairs_of_size,
    params_for,
    parse,
)
from nilcomm.invariants import ambient_dims, is_distinguished


def test_ai_n5_report():
    report = classify_components(PairType.AI, PairParams(5))
    assert [c.diagram.partition for c in report.components] == [(5,)]
    by_status = {c.diagram.partition: c for c in report.eliminated}
    assert by_status[(4, 1)].status == ELIMINATED_BY_REDUCTION
    assert by_status[(4, 1)].reduction_target == parse("5")
    assert by_status[(3, 2)].status == ELIMINATED_BY_WITNESS
    assert not report.unresolved
    assert (report.count_min, report.count_max) == (1, 1)


def test_ai_n6_has_unresolved():
    report = classify_components(PairType.AI, PairParams(6))
    assert [c.diagram.partition for c in report.unresolved] == [(4, 2)]
    assert report.count_max == report.count_min + 1


def test_candidate_status_examples():
    assert candidate_status(parse("4,2"), PairType.AI, PairParams(6)).status == UNRESOLVED
    st = candidate_status(parse("3,1"), PairType.AI, PairParams(4))
    assert st.status == ELIMINATED_BY_REDUCTION
    st = candidate_status(parse("2,2,1,1"), PairType.AII, PairParams(6))
    assert st.status == ELIMINATED_BY_WITNESS and st.witness_lengths == (1, 2)
    assert candidate_status(parse("2,2,2,2"), PairType.AII, PairParams(8)).status == NON_CANDIDATE
    assert candidate_status(parse("abab"), PairType.CI, PairParams(4)).status == COMPONENT


def test_zero_pair():
    report = classify_components(PairType.AI, PairParams(0))
    assert len(report.components) == 1
    assert report.components[0].component_dim == 0


def test_every_orbit_reported_once():
    for pt, prm in [
        (PairType.AI, PairParams(7)),
        (PairType.BDI, params_for(PairType.BDI, 7, 4, 3)),
        (PairType.CI, PairParams(8)),
        (PairType.AIII, PairParams(6, (4, 2))),
    ]:
        report = classify_components(pt, prm)
        assert report.orbit_count == len(enumerate_diagrams(pt, prm))


def test_component_dims():
    for pt, prm in [
        (PairType.AI, PairParams(6)),
        (PairType.CI, PairParams(8)),
        (PairType.BDI, params_for(PairType.BDI, 8, 4, 4)),
    ]:
        report = classify_components(pt, prm)
        dim_p = ambient_dims(pt, prm).dim_p
        for c in report.components:
            assert c.component_dim == dim_p
        for c in report.eliminated + report.unresolved:
            assert c.component_dim < dim_p


def test_eliminations_are_sound():
    """Reduction targets satisfy the reduction equality; witness evidence is
    realizable as an actual commuting matrix pair."""
    for pt, prm in [
        (PairType.AI, PairParams(6)),
        (PairType.AII, PairParams(8)),
        (PairType.BDI, params_for(PairType.BDI, 6, 3, 3)),
        (PairType.CI, PairParams(8)),
    ]:
        report = classify_components(pt, prm)
        for c in report.eliminated:
            if c.status == ELIMINATED_BY_REDUCTION:
                assert is_reduction(c.diagram, c.reduction_target, pt, prm)
            else:
                real = oracle.realize(c.diagram, pt, prm)
                witness = oracle.commuting_witness(real)
                assert oracle.jordan_type(witness) != c.diagram.partition


def test_no_candidates_beyond_components_aiii_cii_diii():
    for n in range(1, 9):
        for pt, prm in pairs_of_size(n, (PairType.AIII, PairType.CII, PairType.DIII)):
            report = classify_components(pt, prm)
            assert not report.eliminated
            assert not report.unresolved
            for c in report.components:
                assert not c.diagram.rows or is_distinguished(c.diagram, pt)


def test_reports_deterministic():
    a = classify_components(PairType.BDI, params_for(PairType.BDI, 7, 4, 3))
    b = classify_components(PairType.BDI, params_for(PairType.BDI, 7, 4, 3))
    assert a == b


def test_verified_grid_contents():
    grid = verified_grid()
    pairs = {(pt.value, prm.n, prm.signature) for pt, prm in grid}
    assert ("AI", 5, None) in pairs
    assert ("AII", 6, None) in pairs
    assert ("CI", 14, None) in pairs
    assert ("BDI", 12, (10, 2)) in pairs
    assert ("BDI", 8, (4, 4)) in pairs
    assert ("AI", 6, None) not in pairs
    assert ("BDI", 10, (5, 5)) not in pairs


def test_rank_bound_check_passes():
    results = rank_bound_check()
    assert len(results) == len(verified_grid())
    as_map = {(pt, prm): count for pt, prm, count in results}
    assert as_map[(PairType.AI, PairParams(5))] == 1
    assert as_map[(PairType.CI, PairParams(14))] == 64


def test_report_json_and_text():
    report = classify_components(PairType.AI, PairParams(5))
    js = report.to_json()
    assert js["count_min"] == 1 and js["dim_p"] == 14
    text = report.render_text()
    assert "reduction -> 5" in text
    assert "witness on lengths" in text

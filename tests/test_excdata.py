import pytest

from nilcomm import excdata
from nilcomm.errors import UnknownCase


def test_load_case_gi():
    records = excdata.load_case("GI")
    assert [(r.orbit, r.pair, r.defect) for r in records] == [
        (3, "(0, 0)", 0),
        (4, "(0, 0)", 0),
        (5, "(0, 0)", 0),
    ]


def test_load_case_ei():
    records = excdata.load_case("EI")
    assert [r.orbit for r in records] == [12, 16, 17, 18, 19, 20, 21, 22, 23]
    assert [r.defect for r in records] == [1, 1, 1, 0, 0, 0, 1, 0, 2]


def test_load_case_eviii_orbit85():
    rec = next(r for r in excdata.load_case("EVIII") if r.orbit == 85)
    assert rec.pair == "(T1, 0)" and rec.defect == 1
    assert not rec.distinguished


def test_eiv_erratum_note():
    rec = next(r for r in excdata.load_case("EIV") if r.orbit == 1)
    assert rec.defect == 1 and "mistake" in rec.note


def test_unknown_case():
    with pytest.raises(UnknownCase):
        excdata.load_case("EX")
    with pytest.raises(UnknownCase):
        excdata.exceptional_components("AI")


def test_component_counts():
    expected = {
        "GI": (3, 3), "FI": (10, 10), "FII": (2, 2), "EI": (4, 6),
        "EII": (17, 17), "EIII": (8, 8), "EIV": (1, 1), "EV": (27, 27),
        "EVI": (17, 17), "EVII": (11, 11), "EVIII": (33, 33), "EIX": (16, 16),
    }
    for case, (lo, hi) in expected.items():
        report = excdata.exceptional_components(case)
        assert (report.count_min, report.count_max) == (lo, hi), case


def test_eiv_report():
    report = excdata.exceptional_components("EIV")
    assert report.components == (2,)
    assert report.eliminated == ((1, "witness", 2),)
    assert not report.unresolved


def test_ev_report():
    report = excdata.exceptional_components("EV")
    assert len(report.components) == 27
    assert set(report.eliminated) == {(50, "reduction", 54), (81, "reduction", 85)}


def test_ei_report():
    report = excdata.exceptional_components("EI")
    assert report.components == (18, 19, 20, 22)
    assert report.unresolved == (12, 23)
    assert (16, "witness", 18) in report.eliminated
    assert (17, "reduction", 22) in report.eliminated
    assert (21, "reduction", 18) in report.eliminated


def test_reduction_equality_invariant():
    for red in excdata.reductions():
        assert red.source_defect - red.target_defect == red.target_dim - red.source_dim
    ev50 = next(r for r in excdata.reductions("EV") if r.source == 50)
    assert (ev50.source_dim, ev50.source_defect) == (52, 2)
    assert (ev50.target, ev50.target_dim, ev50.target_defect) == (54, 53, 1)


def test_witnesses_dont_overlap_reductions():
    sources = {(r.case, r.source) for r in excdata.reductions()}
    for w in excdata.witness_facts():
        assert (w.case, w.source) not in sources
    assert {(w.case, w.source, w.larger) for w in excdata.witness_facts()} == {
        ("EIV", 1, 2), ("EI", 16, 18), ("EVIII", 85, 109),
    }


def test_components_equal_zero_defect_rows_when_resolved():
    for case in excdata.CASES:
        report = excdata.exceptional_components(case)
        ndist = sum(1 for r in excdata.load_case(case) if r.distinguished)
        if report.count_min == report.count_max:
            assert report.count_min == ndist


def test_selflarge_lists():
    ev = excdata.exceptional_selflarge("EV")
    assert 81 in ev and 50 not in ev
    assert len(ev) == 28  # 27 distinguished + orbit 81
    eviii = excdata.exceptional_selflarge("EVIII")
    assert {81, 95} <= set(eviii)
    assert 85 not in eviii and 88 not in eviii
    ei = excdata.exceptional_selflarge("EI")
    assert {12, 21, 23} <= set(ei) and not {16, 17} & set(ei)
    eii = excdata.exceptional_selflarge("EII")
    assert 22 in eii and len(eii) == 18
    assert excdata.exceptional_selflarge("EIV") == (2,)
    # the cases where only the distinguished orbits qualify
    for case in ("GI", "FI", "FII", "EIII", "EVI", "EVII", "EIX"):
        records = excdata.load_case(case)
        assert excdata.exceptional_selflarge(case) == tuple(
            sorted(r.orbit for r in records if r.distinguished)
        )


def test_consistency_report_clean():
    assert excdata.consistency_report() == []


def test_consistency_report_checks_the_selflarge_split(monkeypatch):
    """SELFLARGE_EXTRAS and NOT_SELFLARGE split each case's positive-defect
    orbits: an orbit in both lists, or in neither, is a problem."""
    monkeypatch.setitem(excdata.NOT_SELFLARGE, "EV", (50, 81))
    monkeypatch.delitem(excdata.NOT_SELFLARGE, "EIV")
    assert excdata.consistency_report() == [
        "EIV: self-large () and not () do not split the positive-defect orbits (1,)",
        "EV: self-large (81,) and not (50, 81) do not split the positive-defect orbits (50, 81)",
    ]


def test_known_discrepancy_notes_present():
    assert any("absent" in r.note for r in excdata.reductions("EII"))
    assert any("absent" in r.note for r in excdata.reductions("EV") if r.source == 50)


def test_reports_render():
    rep = excdata.exceptional_components("EI")
    text = rep.render_text()
    assert "4 to 6" in text
    js = rep.to_json()
    assert js["count_min"] == 4 and js["count_max"] == 6

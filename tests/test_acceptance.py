"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact (integer equality); the only tolerances are the
stated runtime ceilings.
"""

import time

import dense_reference as dense
from nilcomm import closure, components, excdata, invariants, oracle, selflarge
from nilcomm.diagrams import (
    AbDiagram,
    PairParams,
    PairType,
    enumerate_diagrams,
    pairs_of_size,
    params_for,
    parse,
)

def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_exceptional_component_counts():
    expected = {
        "GI": (3, 3), "FI": (10, 10), "FII": (2, 2), "EII": (17, 17),
        "EIII": (8, 8), "EIV": (1, 1), "EV": (27, 27), "EVI": (17, 17),
        "EVII": (11, 11), "EVIII": (33, 33), "EIX": (16, 16), "EI": (4, 6),
    }
    start = time.perf_counter()
    got = {}
    for case in excdata.CASES:
        rep = excdata.exceptional_components(case)
        got[case] = (rep.count_min, rep.count_max)
    elapsed = time.perf_counter() - start
    ei = excdata.exceptional_components("EI")
    ok = got == expected and len(ei.components) == 4 and len(ei.unresolved) == 2
    ok = ok and elapsed < 1.0
    report(1, "exceptional component counts", ok, f"{elapsed:.3f}s")


def test_criterion_2_exceptional_internal_consistency():
    problems = excdata.consistency_report()
    ev50 = next(r for r in excdata.reductions("EV") if r.source == 50)
    ok = (
        not problems
        and (ev50.source_dim, ev50.source_defect) == (52, 2)
        and (ev50.target_dim, ev50.target_defect) == (53, 1)
        and all(
            r.source_defect - r.target_defect == r.target_dim - r.source_dim
            for r in excdata.reductions()
        )
    )
    report(2, "exceptional internal consistency", ok, "; ".join(problems))


def test_criterion_3_rank_bounds_zero_unresolved():
    start = time.perf_counter()
    results = components.rank_bound_check()
    elapsed = time.perf_counter() - start
    grid = {(pt, prm) for pt, prm, _ in results}
    ok = (
        (PairType.AI, PairParams(5)) in grid
        and (PairType.AII, PairParams(6)) in grid
        and (PairType.CI, PairParams(14)) in grid
        and (PairType.BDI, PairParams(12, (10, 2))) in grid
        and elapsed < 300
    )
    report(3, "verified rank bounds, zero unresolved", ok,
           f"{len(results)} pairs, {elapsed:.2f}s")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    checked, failures = oracle.certify(8)
    elapsed = time.perf_counter() - start
    ok = not failures and checked > 700 and elapsed < 300
    report(4, "combinatorics equals matrix oracle (n <= 8)", ok,
           f"{checked} diagrams, {elapsed:.1f}s" + (f"; {failures[:3]}" if failures else ""))


def test_criterion_5_type_a_minimal_degenerations():
    failures = []
    # AI: covers between distinct-row diagrams always have s = 1
    for n in range(2, 11):
        prm = PairParams(n)
        for g1 in enumerate_diagrams(PairType.AI, prm):
            if not invariants.is_almost_distinguished(g1, PairType.AI):
                continue
            for g2 in closure.minimal_degenerations(g1, PairType.AI, prm):
                if not invariants.is_almost_distinguished(g2, PairType.AI):
                    continue
                s = closure.centralizer_drop(g1, g2, PairType.AI, prm)
                if s != 1:
                    failures.append(("AI", g1.text(), g2.text(), s))
    # AII: covers between almost-distinguished diagrams always have s = 4
    # while the defect drops by at most 1 (1 exactly when a doubled length-1
    # row disappears), so no almost-distinguished AII orbit has a reduction
    for n in range(2, 13, 2):
        prm = PairParams(n)
        for g1 in enumerate_diagrams(PairType.AII, prm):
            if not invariants.is_almost_distinguished(g1, PairType.AII):
                continue
            for g2 in closure.minimal_degenerations(g1, PairType.AII, prm):
                if invariants.is_almost_distinguished(g2, PairType.AII):
                    s = closure.centralizer_drop(g1, g2, PairType.AII, prm)
                    delta = closure.reduction_order(g1, g2, PairType.AII)
                    if s != 4 or delta > 1:
                        failures.append(("AII", g1.text(), g2.text(), s, delta))
            if closure.find_reduction(g1, PairType.AII, prm) is not None:
                failures.append(("AII reduction exists", g1.text()))
    # the displayed doubled-move example attains (s, delta) = (4, 1) exactly
    prm6 = PairParams(6)
    s = closure.centralizer_drop(parse("2,2,1,1"), parse("3,3"), PairType.AII, prm6)
    delta = closure.reduction_order(parse("2,2,1,1"), parse("3,3"), PairType.AII)
    if (s, delta) != (4, 1):
        failures.append(("AII displayed example", s, delta))
    report(5, "type A minimal degeneration structure", not failures, str(failures[:3]))


def test_criterion_6_reduction_examples_and_motifs():
    failures = []
    bdi5 = params_for(PairType.BDI, 5, 3, 2)
    bdi66 = params_for(PairType.BDI, 12, 6, 6)
    bdi75 = params_for(PairType.BDI, 12, 7, 5)
    if not closure.is_reduction(parse("aba/a/b"), parse("ababa"), PairType.BDI, bdi5):
        failures.append("displayed reduction of aba/a/b")
    if not closure.is_reduction(
        parse("ababa/aba/bab/b"), parse("ababa/ababa/b/b"), PairType.BDI, bdi66
    ):
        failures.append("displayed reduction target of ababa/aba/bab/b")
    if closure.find_reduction(parse("ababa/aba/bab/a"), PairType.BDI, bdi75) is not None:
        failures.append("blocked BDI example has a reduction")
    if closure.find_reduction(parse("bababa/baba/abab/ba"), PairType.CI, PairParams(16)) is not None:
        failures.append("blocked CI example has a reduction")
    # motif matcher is equivalent to the exhaustive no-reduction search
    for n in range(2, 11):
        for pt, prm in pairs_of_size(n, (PairType.BDI, PairType.CI)):
            for d in enumerate_diagrams(pt, prm):
                if not invariants.is_almost_distinguished(d, pt):
                    continue
                if invariants.is_distinguished(d, pt):
                    continue
                irreducible = closure.find_reduction(d, pt, prm) is None
                if irreducible != closure.matches_irreducible_motif(d, pt):
                    failures.append(("motif mismatch", pt.value, prm.signature, d.text()))
    report(6, "reductions and non-reducible motifs", not failures, str(failures[:3]))


def test_criterion_7_witness_suite():
    failures = []
    zero = lambda n: tuple(tuple(0 for _ in range(n)) for _ in range(n))
    for n in range(2, 9):
        for pt in (PairType.AI, PairType.AII):
            if pt.needs_even_n and n % 2:
                continue
            prm = PairParams(n)
            for d in enumerate_diagrams(pt, prm):
                if not invariants.is_almost_distinguished(d, pt):
                    continue
                if oracle.find_adjacent_rows(d) is None:
                    continue
                real = oracle.realize(d, pt, prm)
                w = oracle.commuting_witness(real)
                if dense.commutator(real.e, w) != zero(real.n):
                    failures.append(("commutation", pt.value, d.text()))
                if real.theta(w) != dense.mat_scale(-1, w):
                    failures.append(("theta sign", pt.value, d.text()))
                wt = AbDiagram.from_partition(oracle.jordan_type(w))
                if not closure.lt(d if not d.is_ab else d, wt, PairType.AI):
                    failures.append(("dominance", pt.value, d.text()))
    # explicit examples
    for text, pt, prm, want in [
        ("2,1", PairType.AI, PairParams(3), (3,)),
        ("2,2,1,1", PairType.AII, PairParams(6), (3, 3)),
    ]:
        w = oracle.commuting_witness(oracle.realize(parse(text), pt, prm))
        if oracle.jordan_type(w) != want:
            failures.append(("example", text))
    # degree-one part vanishes when no two lengths are adjacent (type A)
    for n in range(1, 11):
        for pt, prm in pairs_of_size(n, (PairType.AI, PairType.AII, PairType.AIII)):
            if pt is PairType.AIII and n > 8:
                continue
            for d in enumerate_diagrams(pt, prm):
                lengths = sorted({x for x, _s in d.rows})
                if any(b - a == 1 for a, b in zip(lengths, lengths[1:])):
                    continue
                real = oracle.realize(d, pt, prm)
                g1 = oracle.dim_graded(real, 1, -1) + oracle.dim_graded(real, 1, 1)
                if g1 != 0:
                    failures.append(("degree one nonzero", pt.value, d.text()))
    report(7, "commuting witnesses and degree-one vanishing", not failures,
           str(failures[:3]))


def test_criterion_8_self_large():
    failures = []
    for n in range(0, 9):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                table = selflarge.is_self_large(d, pt).verdict
                via_oracle = selflarge.verify_self_large_criterion(d, pt, prm)
                if table != via_oracle:
                    failures.append((pt.value, prm.signature, d.text(), table, via_oracle))
    ei = set(excdata.exceptional_selflarge("EI"))
    ev = set(excdata.exceptional_selflarge("EV"))
    eviii = set(excdata.exceptional_selflarge("EVIII"))
    eii = set(excdata.exceptional_selflarge("EII"))
    if not {12, 21, 23} <= ei or {16, 17} & ei:
        failures.append("EI extras/exclusions")
    if 81 not in ev or 50 in ev:
        failures.append("EV extras/exclusions")
    if not {81, 95} <= eviii or {85, 88} & eviii:
        failures.append("EVIII extras/exclusions")
    if 22 not in eii:
        failures.append("EII orbit 22")
    report(8, "self-large classification", not failures, str(failures[:3]))

from nilcomm.closure import find_reduction
from nilcomm.diagrams import (
    PairParams,
    PairType,
    enumerate_diagrams,
    pairs_of_size,
    params_for,
    parse,
)
from nilcomm.invariants import is_almost_distinguished, is_distinguished
from nilcomm.selflarge import (
    ADJACENT_LENGTH_WITNESS,
    DATA_TABLE,
    DISTINGUISHED,
    TORUS_AND_NO_DEGREE_ONE,
    is_self_large,
    verify_self_large_criterion,
)


def test_table_examples():
    v = is_self_large(parse("3,1"), PairType.AI)
    assert v.verdict and v.reason == TORUS_AND_NO_DEGREE_ONE
    v = is_self_large(parse("3,2"), PairType.AI)
    assert not v.verdict and v.reason == ADJACENT_LENGTH_WITNESS
    v = is_self_large(parse("ababa/aba/bab/a"), PairType.BDI)
    assert v.verdict and v.reason == DATA_TABLE
    v = is_self_large(parse("5"), PairType.AI)
    assert v.verdict and v.reason == DISTINGUISHED
    v = is_self_large(parse("2,2,1,1"), PairType.AII)
    assert not v.verdict and v.reason == ADJACENT_LENGTH_WITNESS
    v = is_self_large(parse("3,3,1,1"), PairType.AII)
    assert v.verdict
    # not almost-distinguished: never self-large
    v = is_self_large(parse("2,2,2,2"), PairType.AII)
    assert not v.verdict and v.reason == DATA_TABLE


def test_criterion_examples():
    assert verify_self_large_criterion(parse("3,1"), PairType.AI, PairParams(4))
    assert not verify_self_large_criterion(parse("2,1"), PairType.AI, PairParams(3))
    assert verify_self_large_criterion(parse("7"), PairType.AI, PairParams(7))


def test_verdicts_match_oracle_criterion_small():
    for n in range(1, 7):
        for pt, prm in pairs_of_size(n):
            for d in enumerate_diagrams(pt, prm):
                assert is_self_large(d, pt).verdict == verify_self_large_criterion(
                    d, pt, prm
                ), (pt, prm, d.text())


def test_implication_chain():
    """distinguished => self-large => almost-distinguished, on enumerations."""
    for n in range(1, 11):
        for pt in PairType:
            if pt.needs_even_n and n % 2:
                continue
            if pt.has_signature:
                q = n // 2
                paramss = [PairParams(n, (n - q, q))]
                if pt is PairType.CII and (q % 2 or (n - q) % 2):
                    continue
            else:
                paramss = [PairParams(n)]
            for prm in paramss:
                for d in enumerate_diagrams(pt, prm):
                    v = is_self_large(d, pt).verdict
                    if is_distinguished(d, pt):
                        assert v
                    if v:
                        assert is_almost_distinguished(d, pt)


def test_self_large_and_reducible_are_independent():
    """A BDI orbit can be self-large yet still reduce to a larger orbit."""
    g5 = parse("aba/a/b")
    prm = params_for(PairType.BDI, 5, 3, 2)
    assert is_self_large(g5, PairType.BDI).verdict
    assert find_reduction(g5, PairType.BDI, prm) is not None

import itertools

import pytest
from hypothesis import given, strategies as st

from nilcomm.diagrams import (
    AbDiagram,
    PairParams,
    PairType,
    candidates,
    enumerate_diagrams,
    pairs_of_size,
    params_for,
    parse,
    partitions,
    strip_common_rows,
    truncate_columns,
    validate,
    is_valid,
)
from nilcomm.errors import AlternationError, BoundExceeded, DiagramSyntaxError


def test_parse_ab_rows():
    d = parse("aba/a/b")
    assert d.rows == ((3, "a"), (1, "a"), (1, "b"))
    assert d.n == 5
    assert d.letter_counts() == (3, 2)


def test_parse_partition():
    d = parse("4,2,1")
    assert d.partition == (4, 2, 1)
    assert not d.is_ab


def test_parse_rejects_non_alternating():
    with pytest.raises(AlternationError):
        parse("aab")


def test_parse_rejects_garbage():
    with pytest.raises(DiagramSyntaxError):
        parse("abc")
    with pytest.raises(DiagramSyntaxError):
        parse("3,x")
    with pytest.raises(DiagramSyntaxError):
        parse("0,1")
    with pytest.raises(DiagramSyntaxError):
        parse("ab//a")


def test_empty_diagram():
    d = parse("")
    assert d.rows == ()
    assert d.n == 0
    assert d.text() == ""
    assert is_valid(d, PairType.AI, PairParams(0))
    assert is_valid(d, PairType.BDI, PairParams(0, (0, 0)))


def test_canonical_row_order():
    d = AbDiagram.from_rows([(1, "b"), (3, "a"), (1, "a")])
    assert d.rows == ((3, "a"), (1, "a"), (1, "b"))
    assert d.text() == "aba/a/b"


def test_json_round_trip():
    for text in ["aba/a/b", "4,2,1", "abab/ba"]:
        d = parse(text)
        assert AbDiagram.from_json(d.to_json()) == d
    assert parse("aba/a/b").to_json() == {
        "rows": [
            {"len": 3, "start": "a"},
            {"len": 1, "start": "a"},
            {"len": 1, "start": "b"},
        ]
    }
    assert parse("4,2,1").to_json() == {"partition": [4, 2, 1]}


def test_validate_bdi_example():
    # Legal degenerate-looking BDI diagram with an a/b pair at length 1.
    d = parse("aba/a/b")
    assert validate(d, PairType.BDI, params_for(PairType.BDI, 5, 3, 2)) == []


def test_validate_bdi_single_even_row_invalid():
    d = parse("abab")
    violations = validate(d, PairType.BDI, params_for(PairType.BDI, 4, 2, 2))
    kinds = {v.kind for v in violations}
    assert "ParityViolation" in kinds
    parity = [v for v in violations if v.kind == "ParityViolation"]
    assert parity[0].length == 4


def test_validate_size_mismatch():
    d = parse("3,1")
    v = validate(d, PairType.AI, PairParams(5))
    assert [x.kind for x in v] == ["SizeMismatch"]


def test_validate_signature_mismatch():
    d = parse("ab/a")  # counts (2, 1)
    v = validate(d, PairType.AIII, params_for(PairType.AIII, 3, 1, 2))
    assert [x.kind for x in v] == ["SignatureMismatch"]


def test_partitions_of_small_n():
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions(0)) == [()]
    assert len(list(partitions(8))) == 22


def test_enumerate_ai():
    diags = enumerate_diagrams(PairType.AI, PairParams(3))
    assert [d.partition for d in diags] == [(3,), (2, 1), (1, 1, 1)]


def test_enumerate_aii():
    diags = enumerate_diagrams(PairType.AII, PairParams(4))
    assert [d.partition for d in diags] == [(2, 2), (1, 1, 1, 1)]


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_diagrams(PairType.AI, PairParams(31))


def brute_force_enumerate(pair_type, params):
    """Independent oracle: every partition, every per-row letter assignment,
    canonicalize, deduplicate, filter through validate."""
    found = set()
    for part in partitions(params.n):
        if not pair_type.uses_letters:
            d = AbDiagram.from_partition(part)
            if is_valid(d, pair_type, params):
                found.add(d)
            continue
        for letters in itertools.product("ab", repeat=len(part)):
            d = AbDiagram.from_rows(zip(part, letters))
            if is_valid(d, pair_type, params):
                found.add(d)
    return found


@pytest.mark.parametrize(
    "pair_type,n_values",
    [
        (PairType.AI, range(0, 11)),
        (PairType.AII, range(0, 11, 2)),
        (PairType.CI, range(0, 11, 2)),
        (PairType.DIII, range(0, 11, 2)),
    ],
)
def test_enumeration_matches_brute_force_unsigned(pair_type, n_values):
    for n in n_values:
        params = PairParams(n)
        got = enumerate_diagrams(pair_type, params)
        assert len(got) == len(set(got)), "duplicates"
        assert set(got) == brute_force_enumerate(pair_type, params)


@pytest.mark.parametrize("pair_type", [PairType.AIII, PairType.BDI, PairType.CII])
def test_enumeration_matches_brute_force_signed(pair_type):
    """All letter assignments bucketed by signature, against the enumeration
    of every signature at once (n <= 10)."""
    step = 2 if pair_type is PairType.CII else 1
    for n in range(0, 11):
        buckets = {}
        for part in partitions(n):
            for letters in itertools.product("ab", repeat=len(part)):
                d = AbDiagram.from_rows(zip(part, letters))
                buckets.setdefault(d.letter_counts(), set()).add(d)
        for p in range(0, n + 1, step):
            q = n - p
            try:
                params = params_for(pair_type, n, p, q)
            except ValueError:
                continue
            got = enumerate_diagrams(pair_type, params)
            assert len(got) == len(set(got))
            expected = {
                d for d in buckets.get((p, q), set()) if is_valid(d, pair_type, params)
            } if n else {AbDiagram(())}
            assert set(got) == expected


def test_candidates_each_diagram_once_against_brute_force():
    """Every diagram of each size exactly once, against every partition times
    every per-row letter assignment (n <= 8)."""
    total = 0
    for n in range(0, 9):
        plain = {AbDiagram.from_partition(part) for part in partitions(n)}
        lettered = {
            AbDiagram.from_rows(zip(part, letters))
            for part in partitions(n)
            for letters in itertools.product("ab", repeat=len(part))
        }
        for pair_type, _params in pairs_of_size(n):
            got = list(candidates(pair_type, n))
            assert len(got) == len(set(got)), (pair_type, n)
            assert set(got) == (lettered if pair_type.uses_letters else plain)
            total += len(got)
    assert total == 8668


def test_pairs_of_size_counts():
    for n in range(0, 13):
        got = {}
        for pair_type, params in pairs_of_size(n):
            params.check(pair_type)
            assert params.n == n
            got[pair_type] = got.get(pair_type, 0) + 1
        want = {PairType.AI: 1, PairType.AIII: n + 1, PairType.BDI: n + 1}
        if n % 2 == 0:
            want.update({PairType.AII: 1, PairType.CI: 1, PairType.DIII: 1,
                         PairType.CII: n // 2 + 1})
        assert got == want


def test_enumerated_diagrams_all_validate():
    for n in range(0, 11):
        for pair_type, params in pairs_of_size(n):
            sig = params.signature
            for d in enumerate_diagrams(pair_type, params):
                assert validate(d, pair_type, params) == []
                if pair_type.uses_letters and d.rows:
                    want = sig if sig else (n // 2, n // 2)
                    assert d.letter_counts() == want


def test_enumeration_counts_monotone_in_n():
    ai = [len(enumerate_diagrams(PairType.AI, PairParams(n))) for n in range(1, 11)]
    assert ai == sorted(ai)
    ci = [len(enumerate_diagrams(PairType.CI, PairParams(n))) for n in range(2, 11, 2)]
    assert ci == sorted(ci)
    # signed types: total over all signatures
    bdi = [
        sum(
            len(enumerate_diagrams(PairType.BDI, PairParams(n, (p, n - p))))
            for p in range(n + 1)
        )
        for n in range(1, 9)
    ]
    assert bdi == sorted(bdi)


def test_print_parse_round_trip_on_enumerations():
    for n in range(0, 13):
        for pair_type, params in pairs_of_size(n):
            for d in enumerate_diagrams(pair_type, params):
                assert parse(d.text()) == d


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


def test_strip_common_rows_plain():
    g1, g2 = strip_common_rows(parse("3,2,1"), parse("3,3"))
    assert (g1.partition, g2.partition) == ((2, 1), (3,))


def test_strip_common_rows_none_common():
    g1, g2 = strip_common_rows(parse("aba/a/b"), parse("ababa"))
    assert g1 == parse("aba/a/b")
    assert g2 == parse("ababa")


def test_strip_common_rows_ab():
    g1, g2 = strip_common_rows(parse("ababa/aba/bab/b"), parse("ababa/ababa/b/b"))
    assert g1 == parse("aba/bab")
    assert g2 == parse("ababa/b")


@given(st.text(max_size=12))
def test_parse_fuzz_only_raises_syntax_errors(text):
    try:
        parse(text)
    except DiagramSyntaxError:
        pass

import copy
import importlib
import itertools
import pickle
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import nilcomm
from nilcomm import closure, diagrams, invariants
from nilcomm.diagrams import (
    DEFAULT_BOUND,
    AbDiagram,
    PairParams,
    PairType,
    _blocks,
    _enumerate_cached,
    _parity_rules,
    _viable,
    enumerate_diagrams,
    pairs_of_size,
    params_for,
    parse,
    validate,
    is_valid,
)
from nilcomm.errors import AlternationError, BoundExceeded, DiagramSyntaxError
from partition_reference import candidates, partitions


def test_parse_ab_rows():
    d = parse("aba/a/b")
    assert d.rows == ((3, "a"), (1, "a"), (1, "b"))
    assert d.n == 5
    assert d.letter_counts() == (3, 2)


def test_parse_partition():
    d = parse("4,2,1")
    assert d.partition == (4, 2, 1)
    assert not d.is_ab
    assert parse("4,") == parse("4") and parse("4,2,1,") == d


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
    for text in ("4,,", ",", ",4", "ab,"):
        with pytest.raises(DiagramSyntaxError):
            parse(text)


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


def test_every_row_order_builds_the_canonical_diagram():
    """Every permutation of the rows of every candidate with n <= 6 builds a
    diagram equal to the candidate, with the candidate's canonical rows."""
    checked = 0
    for n in range(0, 7):
        for pair_type in (PairType.AI, PairType.AIII):
            for d in candidates(pair_type, n):
                assert d.rows == tuple(sorted(d.rows, key=lambda r: (-r[0], r[1] or "")))
                for rows in set(itertools.permutations(d.rows)):
                    built = AbDiagram(rows)
                    assert built == d and built.rows == d.rows, rows
                    checked += 1
    assert checked == 793


class Three:
    """An integral length that is not an int."""

    def __index__(self):
        return 3


def test_rows_given_as_a_list_are_stored_as_a_tuple():
    """Rows given as a list, a row given as a list, or a length that is
    integral but not an int, are stored as (int, letter) tuples, so the
    diagram hashes and cannot be changed through its rows."""
    d = AbDiagram([(1, "b"), (3, "a")])
    assert d.rows == ((3, "a"), (1, "b")) and isinstance(d.rows, tuple)
    d = AbDiagram([(3, None), (1, None)])
    assert d.rows == ((3, None), (1, None)) and isinstance(d.rows, tuple)
    assert hash(d) == hash(parse("3,1"))
    assert AbDiagram.from_partition([Three(), 1]) == d
    for d in (AbDiagram([[3, "a"], [1, "b"]]), AbDiagram(([1, "b"], (Three(), "a"))),
              AbDiagram.from_rows([[1, "b"], [3, "a"]])):
        assert d.rows == ((3, "a"), (1, "b")) and hash(d) == hash(parse("aba/b"))
        assert all(row.__class__ is tuple and row[0].__class__ is int for row in d.rows)
        with pytest.raises(TypeError):
            d.rows[0][0] = 7


def test_canonical_rows_are_kept_without_a_copy():
    """A tuple of canonical (int, letter) tuples becomes the diagram's rows
    as it is; from_partition pairs each part with None."""
    for rows in (((3, "a"), (1, "a"), (1, "b")), ((4, None), (2, None)), ()):
        assert AbDiagram.from_rows(rows).rows is rows and AbDiagram(rows).rows is rows
    assert AbDiagram.from_partition([2, 4, 1, 1]).rows == ((4, None), (2, None), (1, None), (1, None))
    assert AbDiagram.from_partition(d for d in (3, 1)).rows == ((3, None), (1, None))
    assert AbDiagram.from_partition([]).rows == ()


@pytest.mark.parametrize("rows, message", [
    ([(0, None)], "row lengths must be positive, got 0"),
    ([(2, "a"), (-1, "b")], "row lengths must be positive, got -1"),
    ([(2, "c")], "bad start letter 'c'"),
    ([(1, "b"), (3, "ab")], "bad start letter 'ab'"),
    ([(1, "a"), (1, None)], "cannot mix plain and lettered rows"),
    ([(2, None), (3, "b")], "cannot mix plain and lettered rows"),
    # every row's length and letter are checked before the kinds are compared
    ([(1, "a"), (1, None), (0, "b")], "row lengths must be positive, got 0"),
    ([(1, None), (1, "a"), (2, "x")], "bad start letter 'x'"),
    # a length is an integer, never kept as given nor truncated
    ([(3.0, "a")], "row lengths must be integers, got (3.0, 'a')"),
    ([(2, "a"), [3.7, "b"]], "row lengths must be integers, got [3.7, 'b']"),
    ([("3", None)], "row lengths must be integers, got ('3', None)"),
    ([(2, None), (3.7, None)], "row lengths must be integers, got (3.7, None)"),
])
def test_bad_rows_are_rejected_with_their_reason(rows, message):
    """By the constructor, by from_rows and, for plain rows, by
    from_partition."""
    with pytest.raises(ValueError) as info:
        AbDiagram(rows)
    assert str(info.value) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AbDiagram.from_rows(rows)
    if all(start is None for _, start in rows):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AbDiagram.from_partition(length for length, _ in rows)


@pytest.mark.parametrize("args, message", [
    ((-1,), "n must be non-negative, got -1"),
    ((3, (1, 1)), "signature (1, 1) incompatible with n=3"),
    ((2, (-1, 3)), "signature (-1, 3) incompatible with n=2"),
    ((4.0,), "n must be an integer, got 4.0"),
    (("4",), "n must be an integer, got '4'"),
    ((4, (2.0, 2.0)), "signature must be two integers, got (2.0, 2.0)"),
    ((4, (1, 2, 1)), "signature must be two integers, got (1, 2, 1)"),
    ((4, 4), "signature must be two integers, got 4"),
])
def test_bad_params_are_rejected_with_their_reason(args, message):
    with pytest.raises(ValueError) as info:
        PairParams(*args)
    assert str(info.value) == message


def test_params_store_ints_and_a_tuple():
    """An integral n, p or q that is not an int is stored as an int, and a
    signature given as a list as a tuple, so the parameters hash and walk
    like the canonical ones."""
    prm, want = PairParams(Three(), [0, Three()]), PairParams(3, (0, 3))
    assert prm.signature.__class__ is tuple and {x.__class__ for x in (prm.n, *prm.signature)} == {int}
    assert prm == want and hash(prm) == hash(want) and repr(prm) == repr(want)
    assert enumerate_diagrams(PairType.AIII, prm) == enumerate_diagrams(PairType.AIII, want)


def test_diagrams_and_params_are_immutable_values():
    """Equal fields give equal objects with equal hashes, whatever the order
    of the rows given; another type is never equal; no field can be set or
    deleted; the reprs name the fields; copies and pickles are equal."""
    d = AbDiagram([(1, "b"), (3, "a"), (1, "a")])
    same = parse("aba/a/b")
    assert d == same and not d != same and hash(d) == hash(same) == hash((same.rows,))
    assert len({d, same}) == 1 and d != parse("ab/ab/a") and d != d.rows and d != "aba/a/b"
    prm = PairParams(4, (2, 2))
    assert prm == PairParams(n=4, signature=(2, 2)) and hash(prm) == hash((4, (2, 2)))
    assert PairParams(3) == PairParams(3, None) and hash(PairParams(3)) == hash((3, None))
    assert prm != PairParams(4, (3, 1)) and prm != PairParams(4) and prm != (4, (2, 2))
    for obj, name in ((d, "rows"), (prm, "n"), (prm, "signature"), (d, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert d.rows == ((3, "a"), (1, "a"), (1, "b")) and (prm.n, prm.signature) == (4, (2, 2))
    assert repr(d) == "AbDiagram(rows=((3, 'a'), (1, 'a'), (1, 'b')))"
    assert repr(parse("")) == "AbDiagram(rows=())"
    assert f"{prm}" == repr(prm) == "PairParams(n=4, signature=(2, 2))"
    assert repr(PairParams(3)) == "PairParams(n=3, signature=None)"
    for obj in (d, prm, PairParams(0)):
        assert copy.copy(obj) == obj == pickle.loads(pickle.dumps(obj))


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


def _parity_rules_by_type(pair_type, d, m, a, b):
    """The per-length rules stated type by type, one branch per pair type
    and parity of d."""
    odd = d % 2 == 1
    if pair_type is PairType.AII:
        if m % 2 != 0:
            return f"m_{d}={m} must be even"
    elif pair_type is PairType.BDI:
        if not odd and a != b:
            return f"even length needs a_{d}=b_{d}, got ({a},{b})"
    elif pair_type is PairType.CI:
        if odd and a != b:
            return f"odd length needs a_{d}=b_{d}, got ({a},{b})"
    elif pair_type is PairType.DIII:
        if odd and a != b:
            return f"odd length needs a_{d}=b_{d}, got ({a},{b})"
        if not odd and (a % 2 != 0 or b % 2 != 0):
            return f"even length needs even a_{d} and b_{d}, got ({a},{b})"
    elif pair_type is PairType.CII:
        if odd and (a % 2 != 0 or b % 2 != 0):
            return f"odd length needs even a_{d} and b_{d}, got ({a},{b})"
        if not odd and a != b:
            return f"even length needs a_{d}=b_{d}, got ({a},{b})"
    return None


def test_block_rules_match_the_rules_by_type():
    """The rule of each length's centralizer block (BLOCK_TYPE) is the
    type-by-type rule, message for message, for d, m <= 8 and every split."""
    checked = 0
    for pt in PairType:
        for d in range(1, 9):
            for m in range(1, 9):
                for a in range(m + 1):
                    want = _parity_rules_by_type(pt, d, m, a, m - a)
                    assert _parity_rules(pt, d, m, a, m - a) == want, (pt, d, m, a)
                    checked += want is not None
    assert checked > 0


def test_partitions_of_small_n():
    """The reference partitions of n, which the brute-force tests walk, are
    every composition of n sorted into decreasing parts, deduplicated, in
    reverse-lexicographic order (n <= 12)."""
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert list(partitions(0)) == [()]
    assert len(list(partitions(8))) == 22
    for n in range(1, 13):
        compositions = set()
        for cuts in itertools.product((False, True), repeat=n - 1):
            parts, size = [], 1
            for cut in cuts:
                if cut:
                    parts.append(size)
                    size = 0
                size += 1
            compositions.add(tuple(sorted(parts + [size], reverse=True)))
        assert partitions(n) == tuple(sorted(compositions, reverse=True))


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


def reference_letterings(n):
    """The lettered candidates of n cells in order, bucketed by letter
    counts."""
    buckets = {}
    for d in candidates(PairType.AIII, n):
        buckets.setdefault(d.letter_counts(), []).append(d)
    return buckets


def test_enumeration_unchanged_to_n14():
    """Every pair with n <= 14 enumerates, in order, the valid diagrams of a
    reference walk over all partitions and letterings."""
    pairs = 0
    for n in range(0, 15):
        buckets = reference_letterings(n)
        for pair_type, params in pairs_of_size(n):
            if pair_type.uses_letters:
                signature = params.signature or (n // 2, n // 2)
                walk = buckets.get(signature, [])
            else:
                walk = [AbDiagram.from_partition(part) for part in partitions(n)]
            want = [d for d in walk if is_valid(d, pair_type, params)]
            assert enumerate_diagrams(pair_type, params) == want, (pair_type, params)
            pairs += 1
    assert pairs == 315


def test_enumeration_builds_only_the_diagrams_it_keeps(monkeypatch):
    """On a cold cache, every diagram the walk's constructor builds while
    enumerating a pair is one of the diagrams returned (every pair, n <= 10)."""
    built = 0
    canonical = diagrams._canonical

    def counted(rows):
        nonlocal built
        built += 1
        return canonical(rows)

    monkeypatch.setattr(diagrams, "_canonical", counted)
    for n in range(0, 11):
        for pair_type, params in pairs_of_size(n):
            _enumerate_cached.cache_clear()
            built = 0
            got = enumerate_diagrams(pair_type, params)
            assert built == len(got), (pair_type, params)


def test_walks_build_canonical_rows():
    """Every diagram that a walk builds without the boundary check, for
    every pair with n <= 12 (the enumeration, the closure index, the
    almost-distinguished orbits), has the rows that AbDiagram gives it:
    canonical (int, letter) tuples."""
    def walks(pt, prm):
        yield from enumerate_diagrams(pt, prm)
        yield from closure._closure_index(pt, prm, DEFAULT_BOUND).diagrams
        yield from (g for g, _ in invariants.almost_distinguished(pt, prm))

    checked = 0
    for n in range(0, 13):
        for pt, prm in pairs_of_size(n):
            for g in walks(pt, prm):
                assert AbDiagram(g.rows).rows == g.rows and g.rows.__class__ is tuple, g
                assert all(row.__class__ is tuple and len(row) == 2 and row[0].__class__ is int
                           and row[1] in (("a", "b") if pt.uses_letters else (None,))
                           for row in g.rows), g
                checked += 1
    assert checked > 0


TABLES = (_blocks, invariants._torus_blocks)


def test_enumeration_caches_are_bounded():
    """Every cache of the walk is bounded, and large enough to hold every
    key of the pairs with n <= DEFAULT_BOUND: each (kind, d, m) with
    d m <= n for the block tables, each (kind, n, table) for _viable."""
    lengths = sum(DEFAULT_BOUND // d for d in range(1, DEFAULT_BOUND + 1))
    for cache, keys in [(_enumerate_cached, None), (_blocks, len(PairType) * lengths),
                        (invariants._torus_blocks, len(PairType) * lengths),
                        (_viable, len(PairType) * (DEFAULT_BOUND + 1) * len(TABLES))]:
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and (keys is None or keys <= maxsize), cache


def test_viable_table_is_the_partitions_whose_lengths_have_blocks():
    """For every kind, each table and n <= 14, the table lists, in
    reverse-lexicographic order, exactly the reference partitions whose
    every length d, taken m_d times, has a block; each entry's counts,
    steps and reaches are those of its blocks, a reach being the set (a bit
    mask) of odd a-cell counts over every choice of one block per length,
    of all lengths for the entry and of the shorter lengths for a step."""
    def reach_of(table, kind, lengths):
        choices = itertools.product(*(table(kind, d, m) for d, m in lengths))
        return sum(1 << a for a in {sum(a for _, a, _ in choice) for choice in choices})

    checked = 0
    for kind in PairType:
        for table in TABLES:
            for n in range(0, 15):
                want = []
                for part in partitions(n):
                    lengths = [(d, part.count(d)) for d in sorted(set(part), reverse=True)]
                    if all(table(kind, d, m) for d, m in lengths):
                        want.append((part, lengths))
                got = _viable(kind, n, table)
                assert len(got) == len(want), (kind, table, n)
                for (part, lengths), (head, count, reach, steps) in zip(want, got):
                    assert head == (part[0] if part else 0)
                    assert count == sum(d // 2 for d in part)
                    assert [blocks for _, blocks in steps] == [table(kind, d, m) for d, m in lengths]
                    assert reach == reach_of(table, kind, lengths), (kind, part)
                    assert [tail for tail, _ in steps] == [
                        reach_of(table, kind, lengths[i + 1:]) for i in range(len(lengths))]
                    checked += 1
    assert checked > 0


def test_walks_visit_only_partitions_whose_lengths_have_blocks(monkeypatch):
    """With the enumeration and index caches cleared, no walk of a pair with
    n <= 12 (enumeration, the closure index, the almost-distinguished
    orbits) asks _lettered for a partition with a length that has no block:
    every length d, taken m times, admits a valid split, and on the torus
    walk a valid split whose centralizer block is a torus.  Every visit
    yields a diagram."""
    visits = []
    lettered = diagrams._lettered

    def recorded(steps, count, window):
        visits.append(tuple(d for _, blocks in steps for d, _ in blocks[0][0]))
        found = lettered(steps, count, window)
        assert found, "a walk asked _lettered for a partition with no diagram"
        return found

    def admits(pt, d, m, torus):
        for a in range(m + 1):
            rank, dim = invariants._length_term(pt, d, m, a, m - a)
            if _parity_rules(pt, d, m, a, m - a) is None and (rank == dim or not torus):
                return True
        return False

    monkeypatch.setattr(diagrams, "_lettered", recorded)
    walks = [(enumerate_diagrams, False),
             (lambda pt, prm: closure._closure_index(pt, prm, DEFAULT_BOUND), False),
             (invariants.almost_distinguished, True)]
    total = 0
    for n in range(0, 13):
        for pt, prm in pairs_of_size(n):
            for walk, torus in walks:
                _enumerate_cached.cache_clear()
                closure._closure_index.cache_clear()
                visits.clear()
                walk(pt, prm)
                for part in visits:
                    assert all(admits(pt, d, part.count(d), torus) for d in part), (pt, prm, part)
                total += len(visits)
    assert total > 0


@pytest.mark.parametrize("walk, message", [
    (lambda: enumerate_diagrams(PairType.AI, PairParams(31)), "n=31 exceeds bound 30"),
    (lambda: invariants.almost_distinguished(PairType.BDI, params_for(PairType.BDI, 12, 6, 6), 10),
     "n=12 exceeds bound 10"),
    (lambda: closure._closure_index(PairType.AIII, PairParams(31, (15, 16)), DEFAULT_BOUND),
     "n=31 exceeds bound 30"),
])
def test_walks_check_the_bound_before_any_table(monkeypatch, walk, message):
    """Past the bound every walk raises, on the call itself, before a table
    is built or a partition walked."""
    def refuse(*args):
        raise AssertionError("a table was built or a partition walked")

    monkeypatch.setattr(diagrams, "_viable", refuse)
    monkeypatch.setattr(diagrams, "_lettered", refuse)
    with pytest.raises(BoundExceeded, match=f"^{message}$"):
        walk()


def test_library_has_no_unbounded_cache():
    """No cache in the library grows for the life of the process: no
    unbounded cache decorator in the source, and every LRU cache of every
    module, the oracle's per-shape plan and partition check among them, has
    a maxsize."""
    src = Path(nilcomm.__file__).parent
    unbounded = re.compile(r"lru_cache\(\s*(maxsize\s*=\s*)?None|@(functools\.)?cache\b")
    found = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if unbounded.search(line)
    ]
    assert found == []
    modules = [importlib.import_module(f"nilcomm.{path.stem}") for path in sorted(src.glob("*.py"))
               if path.stem != "__main__"]
    sizes = {f"{module.__name__}.{name}": cache.cache_info().maxsize for module in modules
             for name, cache in vars(module).items() if hasattr(cache, "cache_info")}
    assert {"nilcomm.oracle._plan", "nilcomm.oracle._partitions"} <= set(sizes), sizes
    assert None not in sizes.values(), sizes


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


def test_text_joins_the_row_words():
    """``text`` equals a join of each row's word, built letter by letter
    here, on every candidate of every type with n <= 8 and on the empty
    diagram."""
    def word(length, start):
        other = "b" if start == "a" else "a"
        return "".join(start if i % 2 == 0 else other for i in range(length))

    checked = 0
    for pt in PairType:
        for n in range(0, 9):
            for d in candidates(pt, n):
                want = ("/".join(word(*row) for row in d.rows) if pt.uses_letters and d.rows
                        else ",".join(str(length) for length, _s in d.rows))
                assert d.text() == want, d.rows
                checked += 1
    assert AbDiagram(()).text() == "" and checked == 2304, checked


@given(st.text(max_size=12))
def test_parse_fuzz_only_raises_syntax_errors(text):
    try:
        parse(text)
    except DiagramSyntaxError:
        pass

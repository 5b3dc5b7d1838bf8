"""The partitions of n and the candidate diagrams for the tests, written
apart from nilcomm's walk: decreasing parts, in reverse-lexicographic order,
by recursion on the largest part, and every letter split of each length."""

import itertools

from nilcomm.diagrams import AbDiagram


def partitions(n, largest=None):
    """Every partition of n with parts at most largest (default n)."""
    largest = n if largest is None else largest
    if n == 0:
        return ((),)
    return tuple((head, *tail) for head in range(min(n, largest), 0, -1)
                 for tail in partitions(n - head, head))


def candidates(pair_type, n):
    """Every diagram with n cells of the kind the pair type uses, valid or
    not, each once: each partition in turn, plain for AI and AII, else with
    every count of a-rows per length, decreasing, the shortest length
    varying fastest (the order of the enumeration)."""
    for part in partitions(n):
        if not pair_type.uses_letters:
            yield AbDiagram.from_partition(part)
            continue
        lengths = sorted(set(part), reverse=True)
        for counts in itertools.product(*(range(part.count(d), -1, -1) for d in lengths)):
            yield AbDiagram(tuple(row for d, a in zip(lengths, counts)
                                  for row in [(d, "a")] * a + [(d, "b")] * (part.count(d) - a)))

"""The partitions of n for the tests, written apart from nilcomm: decreasing
parts, in reverse-lexicographic order, by recursion on the largest part."""


def partitions(n, largest=None):
    """Every partition of n with parts at most largest (default n)."""
    largest = n if largest is None else largest
    if n == 0:
        return ((),)
    return tuple((head, *tail) for head in range(min(n, largest), 0, -1)
                 for tail in partitions(n - head, head))

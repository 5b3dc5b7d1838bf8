import dense_reference as dense


def test_matrix_helpers():
    a = ((0, 1), (0, 0))
    b = ((0, 0), (1, 0))
    assert dense.commutator(a, b) == ((1, 0), (0, -1))
    assert dense.mat_rank(a) == 1
    assert dense.transpose(a) == ((0, 0), (1, 0))
    assert dense.trace(dense.identity(3)) == 3
    assert dense.is_zero_matrix(dense.mat_sub(a, a))


def test_jordan_type_reference():
    assert dense.jordan_type(((0, 1), (0, 0))) == (2,)
    assert dense.jordan_type(dense.freeze(dense.zeros(3))) == (1, 1, 1)
    assert dense.jordan_type(((0, 1, 0), (0, 0, 1), (0, 0, 0))) == (3,)
    assert dense.jordan_type(()) == ()
    assert dense.jordan_type(dense.identity(2)) is None

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import (
    LogicalMatrix,
    bool_tuple_index,
    delta,
    from_dense,
    from_truth_table,
    identity,
    index_to_bool_tuple,
    logical_stp,
    reorder_columns,
    stp,
    swap_matrix,
    to_dense,
)


def logical_matrices(max_rows=6, max_cols=8):
    return st.integers(1, max_rows).flatmap(
        lambda rows: st.lists(st.integers(1, rows), min_size=1, max_size=max_cols).map(
            lambda idx: LogicalMatrix(rows, tuple(idx))
        )
    )


class TestLogicalMatrix:
    def test_identity(self):
        eye = identity(3)
        assert eye.col_index == (1, 2, 3)
        assert np.array_equal(to_dense(eye), np.eye(3, dtype=np.int64))

    def test_delta_column(self):
        col = delta(4, 3)
        assert col.rows == 4 and col.cols == 1
        assert to_dense(col)[:, 0].tolist() == [0, 0, 1, 0]

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            LogicalMatrix(2, (1, 3))
        with pytest.raises(ValueError):
            LogicalMatrix(2, (0,))

    def test_rejects_non_int_index(self):
        with pytest.raises(ValueError):
            LogicalMatrix(2, (True, 2))

    @given(logical_matrices())
    def test_dense_round_trip(self, matrix):
        assert from_dense(to_dense(matrix)) == matrix

    def test_from_dense_rejects_non_logical(self):
        with pytest.raises(ValueError):
            from_dense(np.array([[1, 0], [1, 0]]))
        with pytest.raises(ValueError):
            from_dense(np.array([[2, 0], [0, 1]]))


class TestStp:
    def test_matches_matmul_on_conformable_shapes(self):
        a = np.arange(6).reshape(2, 3)
        b = np.arange(12).reshape(3, 4)
        assert np.array_equal(stp(a, b), a @ b)

    def test_column_stacking(self):
        # stacking delta_2^u onto delta_4^x gives delta_8^{(u-1)*4 + x}
        for u in (1, 2):
            for x in (1, 2, 3, 4):
                got = stp(
                    to_dense(delta(2, u)),
                    to_dense(delta(4, x)),
                )
                expected = to_dense(delta(8, (u - 1) * 4 + x))
                assert np.array_equal(got, expected)

    def test_shapes_follow_lcm(self):
        a = np.ones((2, 3), dtype=np.int64)
        b = np.ones((2, 5), dtype=np.int64)
        assert stp(a, b).shape == (2 * 2, 5 * 3)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            stp(np.ones(3), np.ones((3, 1)))

    def test_integer_inputs_stay_integer(self):
        a = to_dense(delta(2, 1))
        b = to_dense(delta(4, 2))
        assert stp(a, b).dtype == np.int64

    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.data(),
    )
    def test_associative(self, ra, ca, rb, cb, data):
        rc = data.draw(st.integers(1, 3))
        cc = data.draw(st.integers(1, 3))
        ints = st.integers(-3, 3)
        a = np.array(data.draw(st.lists(ints, min_size=ra * ca, max_size=ra * ca))).reshape(ra, ca)
        b = np.array(data.draw(st.lists(ints, min_size=rb * cb, max_size=rb * cb))).reshape(rb, cb)
        c = np.array(data.draw(st.lists(ints, min_size=rc * cc, max_size=rc * cc))).reshape(rc, cc)
        assert np.array_equal(stp(stp(a, b), c), stp(a, stp(b, c)))


def _divisible_pairs():
    """(a, b) logical matrices where one inner dimension divides the other."""

    @st.composite
    def pairs(draw):
        if draw(st.booleans()):
            p = draw(st.integers(1, 4))
            k = draw(st.integers(1, 3))
            n = p * k
        else:
            n = draw(st.integers(1, 4))
            k = draw(st.integers(1, 3))
            p = n * k
        m = draw(st.integers(1, 4))
        q = draw(st.integers(1, 4))
        a = LogicalMatrix(m, tuple(draw(st.lists(st.integers(1, m), min_size=n, max_size=n))))
        b = LogicalMatrix(p, tuple(draw(st.lists(st.integers(1, p), min_size=q, max_size=q))))
        return a, b

    return pairs()


class TestLogicalStp:
    @given(_divisible_pairs())
    def test_agrees_with_dense(self, pair):
        a, b = pair
        product = logical_stp(a, b)
        assert np.array_equal(to_dense(product), stp(to_dense(a), to_dense(b)))

    def test_transition_column_lookup(self):
        # L stacked with delta_8^3 picks transition column 3
        transition = LogicalMatrix(4, (1, 1, 2, 1, 2, 4, 1, 1))
        assert logical_stp(transition, delta(8, 3)) == delta(4, 2)
        assert logical_stp(transition, delta(8, 6)) == delta(4, 4)

    def test_rejects_incompatible_dims(self):
        with pytest.raises(ValueError):
            logical_stp(LogicalMatrix(2, (1, 1, 2)), LogicalMatrix(2, (1, 2)))


class TestSwapMatrix:
    def test_swap_2_2(self):
        assert swap_matrix(2, 2) == LogicalMatrix(4, (1, 3, 2, 4))

    def test_identity_factors(self):
        assert swap_matrix(1, 5) == identity(5)
        assert swap_matrix(5, 1) == identity(5)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (4, 2), (3, 5)])
    def test_defining_property(self, m, n):
        w = to_dense(swap_matrix(m, n))
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                stacked = stp(
                    to_dense(delta(m, i)),
                    to_dense(delta(n, j)),
                )
                swapped = stp(
                    to_dense(delta(n, j)),
                    to_dense(delta(m, i)),
                )
                assert np.array_equal(w @ stacked, swapped)

    def test_is_permutation(self):
        w = swap_matrix(3, 4)
        assert sorted(w.col_index) == list(range(1, 13))


class TestBoolIndexing:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ((True,), 1),
            ((False,), 2),
            ((True, True), 1),
            ((True, False), 2),
            ((False, True), 3),
            ((False, False), 4),
        ],
    )
    def test_frozen_values(self, values, expected):
        assert bool_tuple_index(values) == expected

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_round_trip(self, width):
        for index in range(1, 2 ** width + 1):
            assert bool_tuple_index(index_to_bool_tuple(index, width)) == index

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_bool_tuple(5, 2)


def _table(fn, arity):
    return {
        index_to_bool_tuple(i, arity): (fn(*index_to_bool_tuple(i, arity)),)
        for i in range(1, 2 ** arity + 1)
    }


class TestFromTruthTable:
    def test_negation(self):
        matrix = from_truth_table(1, 1, _table(lambda a: not a, 1))
        assert matrix == LogicalMatrix(2, (2, 1))

    def test_conjunction(self):
        matrix = from_truth_table(2, 1, _table(lambda a, b: a and b, 2))
        assert matrix == LogicalMatrix(2, (1, 2, 2, 2))

    def test_disjunction(self):
        matrix = from_truth_table(2, 1, _table(lambda a, b: a or b, 2))
        assert matrix == LogicalMatrix(2, (1, 1, 1, 2))

    def test_defining_property_exhaustive(self):
        matrix = from_truth_table(2, 1, _table(lambda a, b: a and b, 2))
        for a in (True, False):
            for b in (True, False):
                product = stp(
                    stp(to_dense(matrix), to_dense(delta(2, 1 if a else 2))),
                    to_dense(delta(2, 1 if b else 2)),
                )
                expected = to_dense(delta(2, 1 if (a and b) else 2))
                assert np.array_equal(product, expected)

    def test_two_bit_outputs(self):
        # (a, b) -> (b, a) is the swap, column by column
        table = {
            index_to_bool_tuple(i, 2): tuple(reversed(index_to_bool_tuple(i, 2)))
            for i in range(1, 5)
        }
        assert from_truth_table(2, 2, table) == swap_matrix(2, 2)

    def test_rejects_partial_table(self):
        table = _table(lambda a: not a, 1)
        del table[(False,)]
        with pytest.raises(ValueError, match="not total"):
            from_truth_table(1, 1, table)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            from_truth_table(2, 1, {(True,): (True,)})

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            from_truth_table(1, 1, {(2,): (True,), (False,): (True,)})


L5_STATE_FIRST = LogicalMatrix(4, (1, 1, 2, 1, 2, 4, 1, 1))
L5_INPUT_FIRST = LogicalMatrix(4, (1, 2, 2, 1, 1, 1, 4, 1))


class TestReorderColumns:
    def test_frozen_fixture(self):
        got = reorder_columns(L5_STATE_FIRST, 4, 2, "state-first", "input-first")
        assert got == L5_INPUT_FIRST

    def test_matches_swap_matrix_route(self):
        # reordering is the same as multiplying by the input/state swap
        swapped = to_dense(L5_STATE_FIRST) @ to_dense(swap_matrix(2, 4))
        got = reorder_columns(L5_STATE_FIRST, 4, 2, "state-first", "input-first")
        assert np.array_equal(to_dense(got), swapped)

    def test_same_order_is_identity(self):
        assert reorder_columns(L5_STATE_FIRST, 4, 2, "state-first", "state-first") == L5_STATE_FIRST

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_round_trip(self, n_vars, m_vars, data):
        n_states, n_inputs = 2 ** n_vars, 2 ** m_vars
        count = n_states * n_inputs
        cols = tuple(data.draw(st.lists(st.integers(1, n_states), min_size=count, max_size=count)))
        matrix = LogicalMatrix(n_states, cols)
        there = reorder_columns(matrix, n_states, n_inputs, "state-first", "input-first")
        back = reorder_columns(there, n_states, n_inputs, "input-first", "state-first")
        assert back == matrix

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError, match="unknown column ordering"):
            reorder_columns(L5_STATE_FIRST, 4, 2, "state-first", "rowwise")

    def test_rejects_wrong_column_count(self):
        with pytest.raises(ValueError, match="columns"):
            reorder_columns(L5_STATE_FIRST, 4, 4, "state-first", "input-first")

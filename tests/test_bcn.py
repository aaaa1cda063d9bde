import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bcnobs.bcn import Bcn
from bcnobs.bcnio import gen_random_bcn

from reference import (
    LogicalMatrix,
    bcn_from_columns,
    delta,
    output,
    step,
    stp,
    to_dense,
    trajectory,
)

# Successor tables keyed by (state, input), worked out from the fixture
# transition matrices by hand.
STEPS_5 = {
    (1, 1): 1, (1, 2): 1, (2, 1): 2, (2, 2): 1,
    (3, 1): 2, (3, 2): 4, (4, 1): 1, (4, 2): 1,
}
STEPS_6 = {
    (1, 1): 1, (1, 2): 1, (2, 1): 3, (2, 2): 3,
    (3, 1): 1, (3, 2): 2, (4, 1): 3, (4, 2): 2,
}
STEPS_7 = {
    (1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 3,
    (3, 1): 1, (3, 2): 2, (4, 1): 3, (4, 2): 2,
}
OUTPUTS_5 = {1: 1, 2: 2, 3: 2, 4: 2}
OUTPUTS_67 = {1: 1, 2: 1, 3: 2, 4: 2}


@pytest.mark.parametrize("fixture,table", [
    ("bcn5", STEPS_5), ("bcn6", STEPS_6), ("bcn7", STEPS_7),
])
def test_step_tables(fixture, table, request):
    network = request.getfixturevalue(fixture)
    for (state, control), successor in table.items():
        assert step(network, state, control) == successor


@pytest.mark.parametrize("fixture,table", [
    ("bcn5", OUTPUTS_5), ("bcn6", OUTPUTS_67), ("bcn7", OUTPUTS_67),
])
def test_output_tables(fixture, table, request):
    network = request.getfixturevalue(fixture)
    for state, value in table.items():
        assert output(network, state) == value


def test_step_matches_dense_semantics(bcn5):
    # x(t+1) = L u x through the dense semi-tensor product
    dense_l = to_dense(LogicalMatrix(4, bcn5.transition))
    for control in (1, 2):
        for state in (1, 2, 3, 4):
            column = stp(
                stp(dense_l, to_dense(delta(2, control))),
                to_dense(delta(4, state)),
            )
            assert int(np.argmax(column[:, 0])) + 1 == step(bcn5, state, control)


def test_trajectory_example(bcn5):
    states, outputs = trajectory(bcn5, 3, (2, 1))
    assert states == (4, 1)
    assert outputs == (2, 1)


def test_trajectory_outputs_consistent(bcn5):
    states, outputs = trajectory(bcn5, 2, (1, 2, 1, 2))
    assert outputs == tuple(output(bcn5, x) for x in states)


def test_trajectory_rejects_empty_word(bcn5):
    with pytest.raises(ValueError, match="at least one"):
        trajectory(bcn5, 1, ())


@given(st.integers(0, 2 ** 32), st.integers(1, 4), st.data())
def test_trajectory_splits_like_a_semigroup(seed, start_raw, data):
    network = gen_random_bcn(seed, 2, 1, 1)
    start = min(start_raw, network.n_states)
    word = tuple(data.draw(st.lists(st.integers(1, 2), min_size=2, max_size=6)))
    cut = data.draw(st.integers(1, len(word) - 1))
    states, outputs = trajectory(network, start, word)
    head_states, head_outputs = trajectory(network, start, word[:cut])
    tail_states, tail_outputs = trajectory(network, head_states[-1], word[cut:])
    assert states == head_states + tail_states
    assert outputs == head_outputs + tail_outputs


def test_step_range_checks(bcn5):
    with pytest.raises(ValueError, match="state"):
        step(bcn5, 5, 1)
    with pytest.raises(ValueError, match="input"):
        step(bcn5, 1, 3)
    with pytest.raises(ValueError, match="state"):
        output(bcn5, 0)


def test_bcn_from_columns_requires_known_ordering():
    with pytest.raises(ValueError, match="ordering"):
        bcn_from_columns(1, 1, 1, (1, 2, 2, 1), (1, 2), "mystery")


def test_bcn_validates_shapes():
    ok = (1, 2, 2, 1)
    out = (1, 2)
    for sizes in ((3, 2, 2), (True, 2, 2), (2, True, 2), (2, 2, True), (4.0, 2, 2), ("2", 2, 2)):
        with pytest.raises(ValueError, match="power of two"):
            Bcn(*sizes, ok, out)
    with pytest.raises(ValueError, match="n must be an int"):
        gen_random_bcn(0, True, 1, 1)
    with pytest.raises(ValueError, match="columns"):
        Bcn(2, 2, 2, (1, 2), out)
    with pytest.raises(ValueError, match="output map column 2 is 3"):
        Bcn(2, 2, 2, ok, (1, 3))


# Bcn(2, 2, 4, ...): the transition map has 4 columns over rows 1..2, the
# output map 2 columns over rows 1..4.
TRANSITION_OK, OUTPUT_OK = (1, 2, 2, 1), (4, 1)


@pytest.mark.parametrize("field,entries,match", [
    ("transition", (1, 2, 0, 1), "transition map column 3 is 0"),
    ("transition", (1, 2, 3, 1), "transition map column 3 is 3"),
    ("transition", (1, True, 2, 1), "transition map column 2 is True"),
    ("transition", (1, 2, 1.0, 1), "transition map column 3 is 1.0"),
    ("transition", (1, "1", 2, 1), "transition map column 2 is '1'"),
    ("transition", (1, 2, 2), "transition map has 3 columns, expected 4"),
    ("transition", (1, 2, 2, 1, 1), "transition map has 5 columns, expected 4"),
    ("output_map", (0, 1), "output map column 1 is 0"),
    ("output_map", (4, 5), "output map column 2 is 5"),
    ("output_map", (True, 1), "output map column 1 is True"),
    ("output_map", (4, 1.0), "output map column 2 is 1.0"),
    ("output_map", ("1", 1), "output map column 1 is '1'"),
    ("output_map", (4,), "output map has 1 columns, expected 2"),
])
def test_bcn_rejects_bad_map_entries(field, entries, match):
    maps = {"transition": TRANSITION_OK, "output_map": OUTPUT_OK, field: entries}
    with pytest.raises(ValueError, match=match):
        Bcn(2, 2, 4, maps["transition"], maps["output_map"])


def test_bcn_coerces_lists_to_tuples():
    from_lists = Bcn(2, 2, 4, list(TRANSITION_OK), list(OUTPUT_OK))
    from_tuples = Bcn(2, 2, 4, TRANSITION_OK, OUTPUT_OK)
    assert type(from_lists.transition) is tuple and type(from_lists.output_map) is tuple
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)


def test_classes_list_only_outputs_some_state_has():
    network = Bcn(4, 2, 4, (1, 2, 3, 4) * 2, (3, 1, 3, 3))
    assert dict(network.classes) == {1: (2,), 3: (1, 3, 4)}
    assert list(network.classes) == [1, 3]


@given(st.integers(0, 2 ** 32), st.integers(1, 5), st.integers(1, 4))
def test_classes_partition_the_states(seed, n, q):
    network = gen_random_bcn(seed, n, 1, q)
    classes = network.classes
    assert list(classes) == sorted(classes)
    assert sorted(x for members in classes.values() for x in members) == list(range(1, 2 ** n + 1))
    for value, members in classes.items():
        assert members == tuple(sorted(members))
        assert all(network.output_map[x - 1] == value for x in members)


def test_classes_are_read_only(bcn5):
    with pytest.raises(TypeError):
        bcn5.classes[1] = (1,)
    with pytest.raises(AttributeError):
        bcn5.classes = {}
    assert dict(bcn5.classes) == {1: (1,), 2: (2, 3, 4)}


def test_classes_leave_equality_and_hash_alone():
    read, unread = Bcn(2, 2, 4, TRANSITION_OK, OUTPUT_OK), Bcn(2, 2, 4, TRANSITION_OK, OUTPUT_OK)
    assert read.classes == {1: (2,), 4: (1,)}
    assert read == unread and unread == read
    assert len({read, unread}) == 1
    # the cached view is left out of pickles and copies
    assert pickle.loads(pickle.dumps(read)) == read == copy.deepcopy(read)


def test_input_first_storage(bcn5):
    # state-first fixture columns land input-first internally
    assert bcn5.transition == (1, 2, 2, 1, 1, 1, 4, 1)

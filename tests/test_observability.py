import pytest
from hypothesis import given, strategies as st

from bcnobs.automata import Lasso
from bcnobs.bcn import bcn_from_columns
from bcnobs.bcnio import gen_random_bcn
from bcnobs.observability import (
    DECIDERS,
    AutomatonStat,
    ObservabilityType,
    decide_type_i,
    decide_type_ii,
    decide_type_iii,
    decide_type_iv,
    exact_oracle_horizon,
    implication_matrix,
    type_automata,
)
from bcnobs.pairgraph import build

from pairviews import PairVertex

T_I = ObservabilityType.TYPE_I
T_II = ObservabilityType.TYPE_II
T_III = ObservabilityType.TYPE_III
T_IV = ObservabilityType.TYPE_IV


def v(a, b):
    return PairVertex(a, b)


# (fixture, expected observability of types I..IV)
VERDICT_TABLE = [
    ("bcn5", (False, True, False, False)),
    ("bcn6", (True, True, True, False)),
    ("bcn7", (True, True, False, False)),
]


@pytest.mark.parametrize("fixture,expected", VERDICT_TABLE)
def test_verdict_table(fixture, expected, request):
    network = request.getfixturevalue(fixture)
    graph = build(network)
    got = tuple(DECIDERS[kind](network, graph).observable for kind in ObservabilityType)
    assert got == expected


class TestTypeI:
    def test_bcn5_offending_state(self, bcn5, graph5):
        verdict = decide_type_i(bcn5, graph5)
        assert not verdict.observable
        assert verdict.offending_state == 2
        assert verdict.automaton_stats == (AutomatonStat("state 2", 1, True),)

    def test_bcn7_witnesses(self, bcn7, graph7):
        verdict = decide_type_i(bcn7, graph7)
        assert verdict.observable
        assert dict(verdict.determining) == {1: (2,), 2: (2,), 3: (1,), 4: (1,)}
        assert verdict.any_word_states == frozenset()

    def test_injective_output_map_is_trivially_observable(self):
        network = bcn_from_columns(1, 1, 1, (2, 1, 1, 2), (1, 2), "input-first")
        verdict = decide_type_i(network, build(network))
        assert verdict.observable
        assert dict(verdict.determining) == {}
        assert verdict.any_word_states == frozenset([1, 2])
        assert verdict.automaton_stats == ()


class TestTypeII:
    def test_bcn5_witnesses_exact(self, bcn5, graph5):
        verdict = decide_type_ii(bcn5, graph5)
        assert verdict.observable
        assert dict(verdict.distinguishing) == {
            v(2, 3): (2,),
            v(2, 4): (1,),
            v(3, 4): (1,),
        }
        assert verdict.automaton_stats == (AutomatonStat("pair graph", 7, False),)

    def test_constant_output_not_observable(self):
        network = bcn_from_columns(1, 1, 1, (1, 2, 2, 1), (1, 1), "input-first")
        verdict = decide_type_ii(network, build(network))
        assert not verdict.observable
        assert verdict.offending_pair == v(1, 2)
        assert verdict.automaton_stats == (AutomatonStat("pair graph", 3, True),)


class TestTypeIII:
    def test_bcn6_universal_word(self, bcn6, graph6):
        verdict = decide_type_iii(bcn6, graph6)
        assert verdict.observable
        assert verdict.universal_word == (1,)
        assert verdict.automaton_stats == (
            AutomatonStat("all confusable pairs", 1, False),
        )

    def test_bcn5_and_bcn7_complete_machines(self, bcn5, graph5, bcn7, graph7):
        for network, graph, size in ((bcn5, graph5, 1), (bcn7, graph7, 1)):
            verdict = decide_type_iii(network, graph)
            assert not verdict.observable
            assert verdict.automaton_stats == (
                AutomatonStat("all confusable pairs", size, True),
            )

    def test_no_confusable_pairs(self):
        network = bcn_from_columns(1, 1, 1, (2, 1, 1, 2), (1, 2), "input-first")
        verdict = decide_type_iii(network, build(network))
        assert verdict.observable
        assert verdict.universal_word == (1,)


class TestTypeIV:
    def test_bcn5_lasso(self, bcn5, graph5):
        verdict = decide_type_iv(bcn5, graph5)
        assert not verdict.observable
        assert verdict.offending_pair == v(2, 3)
        assert verdict.lasso == Lasso(v(2, 3), (1, 2), (1,))

    def test_observable_when_pairs_die_immediately(self):
        network = bcn_from_columns(
            2, 1, 1, (1, 1, 3, 3, 1, 1, 3, 3), (1, 1, 2, 2), "state-first"
        )
        report = implication_matrix(network)
        assert all(verdict.observable for verdict in report.verdicts.values())

    def test_no_confusable_pairs(self):
        network = bcn_from_columns(1, 1, 1, (2, 1, 1, 2), (1, 2), "input-first")
        assert decide_type_iv(network, build(network)).observable


class TestImplications:
    @pytest.mark.parametrize("fixture", ["bcn5", "bcn6", "bcn7"])
    def test_fixtures_consistent(self, fixture, request):
        report = implication_matrix(request.getfixturevalue(fixture))
        assert report.consistent
        assert report.violations == ()

    def test_strictness_witnesses(self, bcn5, bcn6, bcn7):
        # II holds without I, III without IV, I without III
        for network, held, failed in ((bcn5, T_II, T_I), (bcn6, T_III, T_IV), (bcn7, T_I, T_III)):
            verdicts = implication_matrix(network).verdicts
            assert verdicts[held].observable and not verdicts[failed].observable

    @given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2))
    def test_random_networks_consistent(self, seed, n, m, q):
        report = implication_matrix(gen_random_bcn(seed, n, m, q))
        assert report.consistent


class TestExactHorizon:
    def test_fixture_values(self, bcn5, graph5, bcn6, graph6, bcn7, graph7):
        assert exact_oracle_horizon(bcn5, T_II, graph5) == 3
        assert exact_oracle_horizon(bcn5, T_IV, graph5) == 3
        assert exact_oracle_horizon(bcn5, T_III, graph5) == 3
        assert exact_oracle_horizon(bcn5, T_I, graph5) == 3
        assert exact_oracle_horizon(bcn6, T_II, graph6) == 2
        assert exact_oracle_horizon(bcn6, T_III, graph6) == 4
        assert exact_oracle_horizon(bcn7, T_I, graph7) == 4

    def test_trivial_network_floor(self):
        network = bcn_from_columns(1, 1, 1, (2, 1, 1, 2), (1, 2), "input-first")
        graph = build(network)
        for kind in ObservabilityType:
            assert exact_oracle_horizon(network, kind, graph) == 1


class TestTypeAutomata:
    def test_bcn7_labels(self, bcn7, graph7):
        labels_i = [label for label, _ in type_automata(bcn7, T_I, graph7)]
        assert labels_i == ["state_1", "state_2", "state_3", "state_4"]
        labels_ii = [label for label, _ in type_automata(bcn7, T_II, graph7)]
        assert labels_ii == ["pair_1_2", "pair_3_4"]
        assert labels_ii == [label for label, _ in type_automata(bcn7, T_IV, graph7)]
        (label_iii, dfa_iii), = type_automata(bcn7, T_III, graph7)
        assert label_iii == "all_pairs"
        assert len(dfa_iii.states) == 4

    def test_no_machines_without_confusable_pairs(self):
        network = bcn_from_columns(1, 1, 1, (2, 1, 1, 2), (1, 2), "input-first")
        graph = build(network)
        for kind in ObservabilityType:
            assert list(type_automata(network, kind, graph)) == []

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from bcnobs.bcnio import gen_random_bcn
from bcnobs.observability import DECIDERS, ObservabilityType, exact_oracle_horizon
from bcnobs.oracle import OracleVerdict, brute_force, confusable_pairs, _fit_horizon, verify_witness
from bcnobs.pairgraph import build

import reference
from reference import bcn_from_columns, distinguishes

T_I = ObservabilityType.TYPE_I
T_II = ObservabilityType.TYPE_II
T_III = ObservabilityType.TYPE_III
T_IV = ObservabilityType.TYPE_IV


def test_confusable_pairs(bcn5, bcn6, bcn7):
    assert confusable_pairs(bcn5) == ((2, 3), (2, 4), (3, 4))
    assert confusable_pairs(bcn6) == ((1, 2), (3, 4))
    assert confusable_pairs(bcn7) == ((1, 2), (3, 4))


@pytest.mark.parametrize("n,m,q", [(1, 1, 1), (3, 1, 1), (4, 2, 2), (6, 1, 3), (7, 1, 1)])
def test_confusable_pairs_match_all_pairs_compared(n, m, q):
    for seed in range(4):
        network = gen_random_bcn(seed, n, m, q)
        out = network.output_map
        expected = tuple(
            (a, b)
            for a in range(1, network.n_states + 1)
            for b in range(a + 1, network.n_states + 1)
            if out[a - 1] == out[b - 1]
        )
        assert confusable_pairs(network) == expected, (seed, n, m, q)


class TestBruteForce:
    def test_bcn5_type_ii(self, bcn5):
        verdict = brute_force(bcn5, T_II, 3)
        assert verdict.observable
        assert verdict.exact
        assert verdict.horizon == 3
        assert not verdict.budget_limited

    def test_bcn5_type_iv(self, bcn5):
        verdict = brute_force(bcn5, T_IV, 3)
        assert not verdict.observable
        assert verdict.exact

    def test_bcn5_universal_types(self, bcn5):
        assert not brute_force(bcn5, T_I, 3, sufficient_horizon=3).observable
        assert not brute_force(bcn5, T_III, 3, sufficient_horizon=3).observable

    def test_bcn6_type_iii_exactness_depends_on_horizon(self, bcn6):
        shallow = brute_force(bcn6, T_III, 2, sufficient_horizon=4)
        assert shallow.observable and not shallow.exact
        deep = brute_force(bcn6, T_III, 4, sufficient_horizon=4)
        assert deep.observable and deep.exact

    def test_type_ii_exact_at_moore_bound(self, bcn5):
        # 4 states in 2 output classes: 2 letters settle every pair, though
        # there are 3 confusable pairs
        assert brute_force(bcn5, T_II, 2).exact
        assert not brute_force(bcn5, T_II, 1).exact

    def test_types_i_and_iii_need_caller_horizon_for_exactness(self, bcn6):
        assert not brute_force(bcn6, T_I, 4).exact
        assert brute_force(bcn6, T_II, 4).exact

    def test_budget_clamps_horizon(self, bcn5):
        verdict = brute_force(bcn5, T_II, 10, budget=6)
        assert verdict.horizon == 2  # 2 + 4 words fit, the next level does not
        assert verdict.budget_limited
        assert verdict.observable  # every distinguishing word here has length 1

    def test_huge_horizon_is_fitted_to_budget_at_once(self, bcn5):
        started = time.perf_counter()
        verdict = brute_force(bcn5, T_II, 10 ** 6)
        elapsed = time.perf_counter() - started
        assert verdict.horizon == 19  # 2 + 4 + ... + 2**19 words fit the 2**20 default
        assert verdict.budget_limited and verdict.observable
        assert elapsed < 2.0

    def test_walk_deeper_than_the_call_stack(self):
        # one pair that never separates: the walk goes 1,500 letters deep
        network = bcn_from_columns(1, 1, 1, (1, 2, 1, 2), (1, 1), "input-first")
        verdict = brute_force(network, T_IV, 1500, budget=2 ** 1500)
        assert verdict.horizon == 1500 and verdict.exact and not verdict.observable

    def test_budget_too_small(self, bcn5):
        with pytest.raises(ValueError, match="budget"):
            brute_force(bcn5, T_II, 3, budget=1)

    @pytest.mark.parametrize("kind", list(ObservabilityType))
    def test_fit_horizon_matches_count_down(self, kind):
        budgets = (1, 2, 5, 6, 64, 1000, 2 ** 14, 2 ** 20)
        for n_inputs, budget, horizon in itertools.product((2, 4), budgets, range(1, 31)):
            case = (n_inputs, kind, horizon, budget)
            try:
                expected = reference.fit_horizon(*case)
            except ValueError:
                with pytest.raises(ValueError, match="budget"):
                    _fit_horizon(*case)
            else:
                assert _fit_horizon(*case) == expected, case

    def test_fit_horizon_counts_up_in_linear_steps(self):
        # conclusive horizons of shift (12,1,7) under a budget that covers them
        started = time.perf_counter()
        assert _fit_horizon(2, T_II, 3968, 2 ** 3970) == 3968
        assert _fit_horizon(2, T_IV, 63488, 2 ** 63490) == 63488
        assert time.perf_counter() - started < 2.0

    def test_rejects_bad_horizon(self, bcn5):
        with pytest.raises(ValueError, match="horizon"):
            brute_force(bcn5, T_II, 0)

    @pytest.mark.parametrize("fixture", ["bcn5", "bcn6", "bcn7"])
    @pytest.mark.parametrize("kind", list(ObservabilityType))
    def test_agrees_with_deciders_on_fixtures(self, fixture, kind, request):
        network = request.getfixturevalue(fixture)
        graph = build(network)
        horizon = exact_oracle_horizon(network, kind, graph)
        oracle = brute_force(network, kind, horizon, sufficient_horizon=horizon)
        assert oracle.exact
        assert oracle.observable == DECIDERS[kind](network, graph).observable


@pytest.mark.parametrize("oracle_observable,exact,decided,refutes", [
    (True, True, True, False),
    (True, False, True, False),
    (False, True, False, False),
    (False, False, False, False),
    # words found refute "not observable" at any horizon
    (True, True, False, True),
    (True, False, False, True),
    # finding none refutes "observable" only at a conclusive horizon
    (False, True, True, True),
    (False, False, True, False),
])
def test_refutes(oracle_observable, exact, decided, refutes):
    for kind in ObservabilityType:
        result = OracleVerdict(kind, 1, oracle_observable, exact, budget_limited=not exact)
        assert result.refutes(decided) is refutes


class TestVerifyWitness:
    def test_type_i(self, bcn7):
        assert verify_witness(bcn7, T_I, (1, (2,)))
        assert verify_witness(bcn7, T_I, (3, (1,)))
        assert not verify_witness(bcn7, T_I, (3, (2,)))

    def test_type_i_vacuous_for_unconfusable_state(self):
        network = bcn_from_columns(1, 1, 1, (2, 1, 1, 2), (1, 2), "input-first")
        assert verify_witness(network, T_I, (1, (1,)))

    def test_type_ii(self, bcn5):
        assert verify_witness(bcn5, T_II, ((2, 3), (2,)))
        assert verify_witness(bcn5, T_II, ((2, 4), (1,)))
        assert not verify_witness(bcn5, T_II, ((2, 4), (2,)))

    def test_type_iii(self, bcn6):
        assert verify_witness(bcn6, T_III, (1,))
        assert not verify_witness(bcn6, T_III, (2,))

    def test_type_iv(self, bcn5):
        assert verify_witness(bcn5, T_IV, ((2, 4), (2,), (1,)))
        assert verify_witness(bcn5, T_IV, ((2, 3), (1, 2), (1,)))
        assert not verify_witness(bcn5, T_IV, ((2, 3), (2,), (1,)))

    def test_type_iv_unroll_depth_matters(self):
        # pair (1,2) survives one lap of the claimed cycle but separates on
        # the second
        network = bcn_from_columns(
            2, 1, 1, (3, 4, 1, 3, 1, 1, 1, 1), (1, 1, 2, 2), "input-first"
        )
        assert not verify_witness(network, T_IV, ((1, 2), (), (1,)))

    def test_type_iv_lasso_must_close(self):
        # input 1 walks 1 -> 2 -> ... -> 7 and only state 7 shows output 2:
        # pair (1,2) stays output-equal for four laps of the cycle (1,),
        # which a three-lap unroll accepts, then separates on the fifth;
        # input 2 fixes every state, a lasso that does close
        network = bcn_from_columns(
            3, 1, 1,
            (2, 3, 4, 5, 6, 7, 7, 8) + tuple(range(1, 9)),
            (1, 1, 1, 1, 1, 1, 2, 1),
            "input-first",
        )
        assert not distinguishes(network, 1, 2, (1,) * 4)
        assert distinguishes(network, 1, 2, (1,) * 5)
        assert not verify_witness(network, T_IV, ((1, 2), (), (1,)))
        assert verify_witness(network, T_IV, ((1, 2), (), (2,)))
        assert verify_witness(network, T_IV, ((1, 2), (1, 1), (2,)))

    def test_malformed_payloads(self, bcn5):
        with pytest.raises(ValueError):
            verify_witness(bcn5, T_I, (2,))
        with pytest.raises(ValueError):
            verify_witness(bcn5, T_I, (2, ()))
        with pytest.raises(ValueError):
            verify_witness(bcn5, T_II, ((2, 2), (1,)))
        with pytest.raises(ValueError):
            verify_witness(bcn5, T_III, ())
        with pytest.raises(ValueError):
            verify_witness(bcn5, T_IV, ((2, 3), (1,), ()))
        with pytest.raises(ValueError):
            verify_witness(bcn5, T_IV, ((2, 3), (1,)))
        with pytest.raises(ValueError):
            verify_witness(bcn5, T_I, (True, (1,)))

    @pytest.mark.parametrize("kind,payload", [
        # letters past the separating one
        (T_II, ((2, 3), (2, 99))),
        (T_II, ((2, 3), (2, 0))),
        (T_IV, ((2, 3), (2,), (1, 3))),
        # letters no rival ever steps on
        (T_I, (1, (5,))),
        # pairs that need no separating
        (T_II, ((1, 2), (7,))),
        (T_II, ((1, 2), (1,))),
        (T_IV, ((1, 2), (), (1,))),
        # states outside 1..4, which would index the maps from the end
        (T_I, (0, (1,))),
        (T_I, (5, (1,))),
        (T_II, ((0, 2), (1,))),
        (T_IV, ((2, 5), (), (1,))),
        # letters that are not ints, bools included
        (T_III, (True,)),
        (T_III, (1.0,)),
        (T_II, ((2, 3), "1")),
        (T_IV, ((2, 3), ("1",), (1,))),
    ])
    def test_every_letter_and_state_checked(self, bcn5, kind, payload):
        with pytest.raises(ValueError):
            verify_witness(bcn5, kind, payload)


@settings(deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([T_II, T_IV]))
def test_oracle_matches_decider_at_pair_count_horizon(seed, kind):
    network = gen_random_bcn(seed, 2, 1, 1)
    horizon = max(len(confusable_pairs(network)), 1)
    oracle = brute_force(network, kind, horizon)
    assert oracle.exact
    assert oracle.observable == DECIDERS[kind](network, build(network)).observable


def test_type_iv_exact_length_only(bcn5):
    # the type IV search walks words of exactly the horizon length;
    # spot-check the count it would see
    words = list(itertools.product((1, 2), repeat=3))
    assert len(words) == 8
    failing = [
        word
        for word in words
        if any(not distinguishes(bcn5, a, b, word) for a, b in confusable_pairs(bcn5))
    ]
    assert failing  # matches the not-observable verdict

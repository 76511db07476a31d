"""Game tuple invariants, builders, classification, and the file format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgl.games import (
    Average,
    Discounted,
    JointPolicy,
    MalformedInputError,
    Policy,
    StochasticGame,
    bach_stravinsky,
    blotto_4_3,
    classify,
    fact5_game,
    game_from_dict,
    game_to_dict,
    joint_policy_from_list,
    joint_policy_to_list,
    load_game,
    matrix_game,
    policy_from_dict,
    policy_to_dict,
    rps,
    save_game,
    validate,
)
from util import random_game, random_joint_policy


class TestValidate:
    def test_builders_emit_valid_games(self):
        for game in (rps(), bach_stravinsky(), blotto_4_3(), fact5_game()):
            assert validate(game) == []

    def test_rescaled_transition_row_is_named(self, rps_game):
        t = np.array(rps_game.transition)
        t[0, 4, :] *= 0.9
        broken = StochasticGame(
            rps_game.states,
            rps_game.action_sets,
            t,
            rps_game.rewards,
            rps_game.initial_state,
            rps_game.formulation,
        )
        problems = validate(broken)
        assert len(problems) == 1
        assert "'s0'" in problems[0]
        assert "(1, 1)" in problems[0]  # flat index 4 = (Paper, Paper)

    def test_nonfinite_reward_rejected(self, rps_game):
        r = np.array(rps_game.rewards)
        r[0, 0, 0] = np.inf
        broken = StochasticGame(
            rps_game.states,
            rps_game.action_sets,
            rps_game.transition,
            r,
            rps_game.initial_state,
            rps_game.formulation,
        )
        assert any("finite" in p for p in validate(broken))

    def test_nonfinite_transition_reported(self, rps_game):
        t = np.array(rps_game.transition)
        t[0, 2, 0] = np.nan
        broken = StochasticGame(
            rps_game.states,
            rps_game.action_sets,
            t,
            rps_game.rewards,
            rps_game.initial_state,
            rps_game.formulation,
        )
        assert "non-finite transition entries" in validate(broken)
        with pytest.raises(MalformedInputError, match="non-finite transition"):
            broken.require_finite()

    def test_initial_state_must_exist(self, rps_game):
        broken = StochasticGame(
            rps_game.states,
            rps_game.action_sets,
            rps_game.transition,
            rps_game.rewards,
            "nowhere",
            rps_game.formulation,
        )
        assert any("initial state" in p for p in validate(broken))

    def test_discount_factor_bounds(self):
        with pytest.raises(MalformedInputError):
            Discounted(1.0)
        with pytest.raises(MalformedInputError):
            Discounted(0.0)


class TestBuilders:
    def test_rps_payoffs(self, rps_game):
        expected = np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]], dtype=float)
        assert np.array_equal(rps_game.payoff_matrix(0), expected)
        assert np.array_equal(rps_game.payoff_matrix(1), -expected)

    def test_bos_payoffs(self, bos_game):
        assert np.array_equal(bos_game.payoff_matrix(0), [[2, 0], [0, 1]])
        assert np.array_equal(bos_game.payoff_matrix(1), [[1, 0], [0, 2]])

    def test_blotto_payoffs(self, blotto_game):
        expected = np.array(
            [
                [4, 2, 1, 0],
                [1, 3, 0, -1],
                [-2, 2, 2, -2],
                [-1, 0, 3, 1],
                [0, 1, 2, 4],
            ],
            dtype=float,
        )
        assert np.array_equal(blotto_game.payoff_matrix(0), expected)
        assert blotto_game.action_sets[0] == ("4-0", "3-1", "2-2", "1-3", "0-4")

    def test_fact5_structure(self):
        eps = 0.2
        game = fact5_game(eps=eps, gamma=0.9)
        assert game.states == ("s0", "left", "right")
        s0 = game.state_index("s0")
        assert np.all(game.rewards[:, s0, :] == 0.0)
        for r in range(2):
            j_l = game.joint_index((r, 0))
            j_r = game.joint_index((r, 1))
            assert game.transition[s0, j_l, 1] == pytest.approx(1 - eps)
            assert game.transition[s0, j_l, 2] == pytest.approx(eps)
            assert game.transition[s0, j_r, 2] == pytest.approx(1 - eps)
            for j in (j_l, j_r):
                assert game.transition[1, j, 0] == 1.0
                assert game.transition[2, j, 0] == 1.0
        assert np.all(game.rewards.sum(axis=0) == 0.0)

    def test_fact5_rejects_bad_shapes(self):
        with pytest.raises(MalformedInputError):
            fact5_game(left=[[1.0, 0.0]])
        with pytest.raises(MalformedInputError):
            fact5_game(eps=1.0)


class TestClassify:
    def test_rps(self, rps_game):
        c = classify(rps_game)
        assert c.is_zero_sum and c.is_no_control and not c.is_team
        # A single state makes transitions trivially action-independent.
        assert all(c.is_single_controller)

    def test_bos_general_sum(self, bos_game):
        c = classify(bos_game)
        assert not c.is_zero_sum and not c.is_team

    def test_fact5_column_controls(self, fact5):
        c = classify(fact5)
        assert c.is_zero_sum
        assert not c.is_no_control
        assert c.is_single_controller == (False, True)

    def test_team_by_construction(self):
        rng = np.random.default_rng(3)
        game = random_game(rng, team=True)
        c = classify(game)
        assert c.is_team

    def test_no_control(self):
        rng = np.random.default_rng(4)
        game = random_game(rng, no_control=True)
        assert classify(game).is_no_control

    def test_three_player_single_controller(self):
        rng = np.random.default_rng(5)
        game = random_game(rng, action_counts=(2, 3, 2), controller=1)
        c = classify(game)
        assert not c.is_no_control
        assert c.is_single_controller == (False, True, False)


class TestFileFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for game in (rps(), fact5_game(), random_game(rng, action_counts=(2, 3))):
            path = tmp_path / "game.json"
            save_game(game, path)
            loaded = load_game(path)
            assert loaded.states == game.states
            assert loaded.action_sets == game.action_sets
            assert loaded.initial_state == game.initial_state
            assert loaded.formulation == game.formulation
            assert np.max(np.abs(loaded.transition - game.transition)) <= 1e-12
            assert np.max(np.abs(loaded.rewards - game.rewards)) <= 1e-12

    def test_schema_shape(self, rps_game):
        data = game_to_dict(rps_game)
        assert data["players"] == 2
        assert data["formulation"] == "average"
        assert set(data["transitions"]["s0"]) == {
            f"{i},{j}" for i in range(3) for j in range(3)
        }
        assert data["transitions"]["s0"]["0,0"] == {"s0": 1.0}
        assert data["rewards"][0]["s0"]["0,1"] == -1.0

    def test_bad_probability_sum_rejected(self, rps_game):
        data = game_to_dict(rps_game)
        data["transitions"]["s0"]["0,0"] = {"s0": 0.9999}
        with pytest.raises(MalformedInputError):
            game_from_dict(data)

    def test_nan_probability_rejected(self, rps_game):
        data = game_to_dict(rps_game)
        data["transitions"]["s0"]["0,0"] = {"s0": float("nan")}
        with pytest.raises(MalformedInputError, match="non-finite transition"):
            game_from_dict(data)

    def test_near_one_probability_tolerated(self, rps_game):
        data = game_to_dict(rps_game)
        data["transitions"]["s0"]["0,0"] = {"s0": 1.0 + 5e-10}
        game_from_dict(data)

    def test_missing_row_rejected(self, rps_game):
        data = game_to_dict(rps_game)
        del data["transitions"]["s0"]["2,2"]
        with pytest.raises(MalformedInputError):
            game_from_dict(data)

    def test_unknown_state_rejected(self, rps_game):
        data = game_to_dict(rps_game)
        data["transitions"]["s0"]["0,0"] = {"elsewhere": 1.0}
        with pytest.raises(MalformedInputError):
            game_from_dict(data)

    def test_bad_joint_key_rejected(self, rps_game):
        data = game_to_dict(rps_game)
        data["transitions"]["s0"]["0,9"] = {"s0": 1.0}
        with pytest.raises(MalformedInputError):
            game_from_dict(data)

    def test_bad_formulation_rejected(self, rps_game):
        data = game_to_dict(rps_game)
        data["formulation"] = "sometimes"
        with pytest.raises(MalformedInputError):
            game_from_dict(data)

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MalformedInputError):
            load_game(path)


class TestPolicies:
    def test_policy_rows_validated(self):
        with pytest.raises(MalformedInputError):
            Policy([[0.5, 0.6]])
        with pytest.raises(MalformedInputError):
            Policy([[-0.1, 1.1]])

    @pytest.mark.parametrize("row", [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 1.0],
                                     [np.nan, np.nan]])
    def test_non_finite_policy_rows_rejected(self, row):
        with pytest.raises(MalformedInputError):
            Policy([row])

    def test_policy_round_trip(self, fact5):
        rng = np.random.default_rng(1)
        joint = random_joint_policy(rng, fact5)
        data = joint_policy_to_list(joint, fact5.states)
        back = joint_policy_from_list(data, fact5)
        for a, b in zip(joint.policies, back.policies):
            assert np.max(np.abs(a.probs - b.probs)) <= 1e-12

    def test_policy_dict_requires_all_states(self, fact5):
        data = policy_to_dict(Policy.uniform(3, 2), fact5.states)
        del data["left"]
        with pytest.raises(MalformedInputError):
            policy_from_dict(data, fact5.states, 2)

    def test_equality_and_hash_are_identity(self):
        # Their array fields have no single truth value, so == and hash
        # would raise; they compare by identity instead.
        first, second = Policy([[0.5, 0.5]]), Policy([[0.5, 0.5]])
        pairs = [
            (first, second),
            (JointPolicy((first, second)), JointPolicy((first, second))),
            (rps(), rps()),
        ]
        for a, b in pairs:
            assert a == a and a != b
            assert len({a, b}) == 2 and hash(a) == hash(a)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_policies_valid(self, n_states, n_actions, seed):
        rng = np.random.default_rng(seed)
        policy = Policy(rng.dirichlet(np.ones(n_actions), size=n_states))
        assert np.all(policy.probs >= 0)
        assert np.allclose(policy.probs.sum(axis=1), 1.0, atol=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_random_games_validate_and_round_trip(seed):
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(1, 4))
    counts = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
    game = random_game(rng, n_states=n_states, action_counts=counts)
    assert validate(game) == []
    back = game_from_dict(json.loads(json.dumps(game_to_dict(game))))
    assert np.max(np.abs(back.transition - game.transition)) <= 1e-12
    assert np.max(np.abs(back.rewards - game.rewards)) <= 1e-12

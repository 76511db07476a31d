"""Learner update rules, self-play determinism, and trajectory logs."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgl.games import (
    JointPolicy,
    MalformedInputError,
    Policy,
    fact5_game,
    matrix_game,
    rps,
)
from sgl.learners import (
    CheckpointRow,
    LearnerState,
    PlayerSpec,
    WolfPhcConfig,
    final_joint_policy,
    fresh_learner,
    load_trajectory_rows,
    q_learner_step,
    self_play,
    wolf_phc_step,
)
from sgl.restrictions import ConvexHullGlobal, FullSpace, StateUniform
from sgl.solvers import check_equilibrium
from util import random_game, reference_stabilization_iteration

RPS_COLUMN_HULL = ConvexHullGlobal(
    (Policy([[0.5, 0.5, 0.0]]), Policy([[0.0, 0.5, 0.5]]))
)
FACT5_HULL = StateUniform(3, 2).as_hull()
GAMMA_95 = WolfPhcConfig(gamma=0.95)


class TestConfig:
    def test_defaults_satisfy_rate_invariants(self):
        cfg = WolfPhcConfig()
        for t in (0, 10, 10**4, 10**6):
            assert 0 < cfg.alpha(t) <= 1
            assert 0 < cfg.delta_win(t) <= 1
            assert cfg.delta_lose(t) > cfg.delta_win(t)
        explores = [cfg.explore(t) for t in range(0, 10**6, 10**4)]
        assert all(a >= b for a, b in zip(explores, explores[1:]))
        assert explores[-1] < explores[0]

    def test_invalid_configs_rejected(self):
        with pytest.raises(MalformedInputError):
            WolfPhcConfig(lose_ratio=1.0)
        with pytest.raises(MalformedInputError):
            WolfPhcConfig(alpha_offset=0.5)
        with pytest.raises(MalformedInputError):
            WolfPhcConfig(explore_base=1.0)

    def test_json_round_trip(self):
        cfg = WolfPhcConfig(gamma=0.4, lose_ratio=2.0)
        assert WolfPhcConfig.from_dict(cfg.to_dict()) == cfg

    def test_bad_json_rejected(self):
        with pytest.raises(MalformedInputError):
            WolfPhcConfig.from_dict({"alpha": {}})


class TestWolfPhcStep:
    def test_first_update_arithmetic(self):
        # alpha(0) = 1/10 with defaults; gamma = 0, so the target is r alone.
        learner = fresh_learner(1, 2, WolfPhcConfig())
        wolf_phc_step(learner, 0, 0, 1.0, 0, 0)
        assert learner.q[0][0] == pytest.approx(0.1, abs=1e-15)
        assert learner.q[0][1] == 0.0

    def test_losing_branch_on_equal_expectations(self):
        cfg = WolfPhcConfig()
        learner = fresh_learner(1, 2, cfg)
        learner.q[0] = [1.0, 0.0]
        # Playing arm 0 with reward 1 keeps Q at (1, 0); policy and average
        # stay equal so the strict winning test fails and the losing step
        # pulls toward arm 0.
        wolf_phc_step(learner, 0, 0, 1.0, 0, 0)
        assert learner.last_delta_was_lose
        delta = cfg.delta_lose(0)
        assert learner.policy[0][0] == pytest.approx(0.5 + delta, abs=1e-15)
        assert learner.policy[0][1] == pytest.approx(0.5 - delta, abs=1e-15)

    def test_winning_branch_uses_small_step(self):
        cfg = WolfPhcConfig()
        learner = fresh_learner(1, 2, cfg)
        learner.q[0] = [1.0, 0.0]
        learner.policy[0] = [0.9, 0.1]
        learner.avg_policy[0] = [0.1, 0.9]
        # avg_policy moves toward the current policy by 1/count = 1; force a
        # second visit so the average lags and the winning test passes.
        learner.counts[0] = 1
        wolf_phc_step(learner, 0, 0, 1.0, 0, 0)
        assert not learner.last_delta_was_lose
        assert learner.policy[0][0] == pytest.approx(0.9 + cfg.delta_win(0))

    def test_pure_at_greedy_stays_pure(self):
        learner = fresh_learner(1, 3, WolfPhcConfig())
        learner.q[0] = [1.0, 0.0, 0.0]
        learner.policy[0] = [1.0, 0.0, 0.0]
        wolf_phc_step(learner, 0, 0, 1.0, 0, 0)
        assert learner.policy[0] == [1.0, 0.0, 0.0]

    def test_discounted_target_uses_next_state(self):
        cfg = WolfPhcConfig(gamma=0.5)
        learner = fresh_learner(2, 2, cfg)
        learner.q[1] = [0.0, 2.0]
        wolf_phc_step(learner, 0, 0, 1.0, 1, 0)
        # target = 1 + 0.5 * max Q(s') = 2; alpha(0) = 0.1.
        assert learner.q[0][0] == pytest.approx(0.2, abs=1e-15)

    def test_arm_range_checked(self):
        learner = fresh_learner(1, 2, WolfPhcConfig())
        with pytest.raises(MalformedInputError):
            wolf_phc_step(learner, 0, 5, 1.0, 0, 0)

    @given(st.integers(0, 10**6), st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_simplex_preserved_under_random_steps(self, seed, n_steps):
        rng = np.random.default_rng(seed)
        n_arms = int(rng.integers(2, 5))
        learner = fresh_learner(2, n_arms, WolfPhcConfig())
        for t in range(n_steps):
            s = int(rng.integers(0, 2))
            a = int(rng.integers(0, n_arms))
            wolf_phc_step(learner, s, a, float(rng.normal()), int(rng.integers(0, 2)), t)
        for s in range(2):
            for row in (learner.policy[s], learner.avg_policy[s]):
                assert abs(sum(row) - 1.0) <= 1e-12
                assert all(p >= 0.0 for p in row)

    def test_average_policy_is_mean_of_visited_policies(self):
        rng = np.random.default_rng(3)
        learner = fresh_learner(1, 3, WolfPhcConfig())
        snapshots = []
        for t in range(40):
            # The rule averages the policy as it stands after the Q update
            # but before the hill-climb of that visit.
            snapshots.append(list(learner.policy[0]))
            wolf_phc_step(learner, 0, int(rng.integers(0, 3)), float(rng.normal()), 0, t)
        expected = np.mean(snapshots, axis=0)
        assert np.allclose(learner.avg_policy[0], expected, atol=1e-10)

    def test_wolf_ordering_observable(self):
        rng = np.random.default_rng(5)
        learner = fresh_learner(1, 2, WolfPhcConfig())
        for t in range(60):
            before_policy = list(learner.policy[0])
            wolf_phc_step(learner, 0, int(rng.integers(0, 2)), float(rng.normal()), 0, t)
            q = learner.q[0]
            expected_lose = not (
                sum(p * v for p, v in zip(before_policy, q))
                > sum(p * v for p, v in zip(learner.avg_policy[0], q))
            )
            assert learner.last_delta_was_lose == expected_lose


class TestRestrictedStep:
    def test_explicit_policy_is_weight_blend(self, rps_column_hull):
        gens = np.stack([g.probs for g in rps_column_hull.generators])
        learner = fresh_learner(1, 2, WolfPhcConfig(), generators=gens)
        learner.policy[0] = [1.0, 0.0]
        assert np.allclose(learner.explicit_row(0), [0.5, 0.5, 0.0])
        learner.policy[0] = [2 / 3, 1 / 3]
        assert np.allclose(learner.explicit_row(0), [1 / 3, 0.5, 1 / 6])
        assert all(type(x) is float for x in learner.explicit_row(0))

    def test_same_arithmetic_as_unrestricted(self, rps_column_hull):
        gens = np.stack([g.probs for g in rps_column_hull.generators])
        restricted = fresh_learner(1, 2, WolfPhcConfig(), generators=gens)
        plain = fresh_learner(1, 2, WolfPhcConfig())
        rng = np.random.default_rng(7)
        for t in range(30):
            g = int(rng.integers(0, 2))
            r = float(rng.normal())
            wolf_phc_step(restricted, 0, g, r, 0, t)
            wolf_phc_step(plain, 0, g, r, 0, t)
        assert restricted.policy == plain.policy
        assert restricted.q == plain.q

    def test_feasibility_throughout_self_play(self, rps_game, rps_column_hull):
        log = self_play(
            rps_game,
            [PlayerSpec(), PlayerSpec(space=rps_column_hull)],
            iterations=4000,
            seed=11,
        )
        for row in log.player_rows(1):
            policy = Policy(np.asarray(row.explicit)[np.newaxis, :])
            assert rps_column_hull.contains(policy, tol=1e-9)
            assert all(type(x) is float for x in row.explicit)


class TestQLearner:
    def test_same_first_update(self):
        learner = fresh_learner(1, 2, WolfPhcConfig())
        q_learner_step(learner, 0, 0, 1.0, 0, 0)
        assert learner.q[0][0] == pytest.approx(0.1, abs=1e-15)

    def test_policy_is_greedy_pure_lowest_index(self):
        learner = fresh_learner(1, 3, WolfPhcConfig())
        learner.q[0] = [0.5, 0.5, 0.1]
        q_learner_step(learner, 0, 2, 0.0, 0, 0)
        assert learner.policy[0] == [1.0, 0.0, 0.0]

    def test_singleton_action_game_converges(self):
        game = matrix_game([np.array([[1.0]]), np.array([[1.0]])])
        log = self_play(
            game, [PlayerSpec(algo="q"), PlayerSpec(algo="q")], iterations=500, seed=0
        )
        assert log.player_rows(0)[-1].explicit == (1.0,)

    def test_rps_greedy_joint_never_an_equilibrium(self, rps_game):
        log = self_play(
            rps_game,
            [PlayerSpec(algo="q"), PlayerSpec(algo="q")],
            iterations=20_000,
            seed=13,
        )
        full = [FullSpace(1, 3), FullSpace(1, 3)]
        rows0 = log.player_rows(0)
        rows1 = log.player_rows(1)
        for k in range(0, len(rows0), 7):
            joint = JointPolicy(
                (
                    Policy(np.asarray(rows0[k].explicit)[np.newaxis, :]),
                    Policy(np.asarray(rows1[k].explicit)[np.newaxis, :]),
                )
            )
            assert set(map(float, rows0[k].explicit)) <= {0.0, 1.0}
            cert = check_equilibrium(rps_game, joint, full, epsilon=1e-6)
            assert not cert.verdict


class TestSelfPlay:
    def test_bit_identical_logs_for_same_seed(self, rps_game):
        specs = [PlayerSpec(), PlayerSpec()]
        a = self_play(rps_game, specs, iterations=3000, seed=42)
        b = self_play(rps_game, specs, iterations=3000, seed=42)
        assert a.rows == b.rows

    def test_different_seeds_differ(self, rps_game):
        specs = [PlayerSpec(), PlayerSpec()]
        a = self_play(rps_game, specs, iterations=3000, seed=1)
        b = self_play(rps_game, specs, iterations=3000, seed=2)
        assert a.rows != b.rows

    def test_checkpoint_cadence(self, rps_game):
        log = self_play(rps_game, [PlayerSpec(), PlayerSpec()], 4000, seed=0)
        assert log.checkpoint_every == 2
        assert len(log.player_rows(0)) == 2000

    def test_multi_state_runs_and_logs_every_state(self, fact5):
        cfg = WolfPhcConfig(gamma=0.95)
        log = self_play(
            fact5, [PlayerSpec(config=cfg), PlayerSpec(config=cfg)],
            iterations=2000, seed=3,
        )
        for state in fact5.states:
            rows = log.player_rows(0, state)
            assert rows
            for row in rows[-5:]:
                assert abs(sum(row.explicit) - 1.0) <= 1e-12

    def test_csv_round_trip(self, tmp_path, rps_game):
        log = self_play(rps_game, [PlayerSpec(), PlayerSpec()], 1000, seed=9)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        rows = load_trajectory_rows(path)
        assert rows == log.rows

    def test_final_joint_policy_matches_last_checkpoint(self, rps_game):
        log = self_play(rps_game, [PlayerSpec(), PlayerSpec()], 1000, seed=9)
        joint = final_joint_policy(rps_game, log)
        assert tuple(joint[0].probs[0]) == log.player_rows(0)[-1].explicit

    def test_window_average_reward_matches_recount(self, rps_game):
        log = self_play(rps_game, [PlayerSpec(), PlayerSpec()], 2000, seed=5)
        # Zero-sum play: the two window averages must cancel.
        assert log.window_average_reward(0, 0.1) == pytest.approx(
            -log.window_average_reward(1, 0.1), abs=1e-12
        )

    def test_player_spec_validation(self):
        with pytest.raises(MalformedInputError):
            PlayerSpec(algo="sarsa")
        with pytest.raises(MalformedInputError):
            PlayerSpec(algo="q", space=ConvexHullGlobal((Policy([[1.0]]),)))

    def test_wrong_hull_shape_rejected(self, rps_game):
        bad = ConvexHullGlobal((Policy([[0.5, 0.5]]),))
        with pytest.raises(MalformedInputError):
            self_play(rps_game, [PlayerSpec(), PlayerSpec(space=bad)], 10, seed=0)

    def test_stabilization_iteration_monotone_tail(self, rps_game):
        log = self_play(rps_game, [PlayerSpec(), PlayerSpec()], 50_000, seed=2)
        # With an impossible-to-violate threshold, stability is declared at
        # the first checkpoint with a full movement window behind it.
        stab = log.stabilization_iteration(threshold=10.0, window=10_000)
        assert 10_000 <= stab <= 10_000 + log.checkpoint_every
        stab_hard = log.stabilization_iteration(threshold=0.0)  # never stable
        assert stab_hard == log.iterations


@pytest.fixture(scope="module")
def stabilization_logs():
    """WoLF RPS, RPS against the column hull, and 3-state Fact 5 play."""
    return {
        "rps": self_play(rps(), [PlayerSpec(), PlayerSpec()], 20_000, seed=31,
                         checkpoint_every=25),
        "rps-column-hull": self_play(
            rps(), [PlayerSpec(), PlayerSpec(space=RPS_COLUMN_HULL)], 20_000,
            seed=32, checkpoint_every=25,
        ),
        "fact5": self_play(
            fact5_game(), [PlayerSpec(config=GAMMA_95), PlayerSpec(config=GAMMA_95)],
            20_000, seed=33, checkpoint_every=25,
        ),
    }


class TestStabilization:
    @pytest.mark.parametrize("name", ["rps", "rps-column-hull", "fact5"])
    @pytest.mark.parametrize("threshold", [0.0, 0.01, 10.0])
    @pytest.mark.parametrize("window", [1, 5_000, 10_000, 20_001])
    def test_matches_quadratic_reference(self, stabilization_logs, name, threshold, window):
        log = stabilization_logs[name]
        got = log.stabilization_iteration(threshold=threshold, window=window)
        assert got == reference_stabilization_iteration(log, threshold, window)
        assert type(got) is int

    def test_window_longer_than_run_has_no_movement(self, stabilization_logs):
        log = stabilization_logs["rps"]
        assert log.stabilization_iteration(threshold=10.0, window=20_001) == 20_000

    def test_single_checkpoint(self, rps_game):
        log = self_play(rps_game, [PlayerSpec(), PlayerSpec()], 10, seed=4,
                        checkpoint_every=10)
        assert len(log.player_rows(0)) == 1
        for window in (1, 5):
            assert log.stabilization_iteration(0.01, window) == 10
            assert reference_stabilization_iteration(log, 0.01, window) == 10

    def test_window_must_be_positive(self, rps_game):
        log = self_play(rps_game, [PlayerSpec(), PlayerSpec()], 100, seed=4)
        with pytest.raises(ValueError):
            log.stabilization_iteration(0.01, 0)


def _rows_digest(rows) -> str:
    # Every float goes through float() so the text is the same whichever
    # way numpy prints its scalars; repr of a float round-trips exactly.
    text = repr([
        (r.iteration, r.player, r.state, tuple(map(float, r.probs)),
         tuple(map(float, r.explicit)), float(r.inst_reward), float(r.avg_reward))
        for r in rows
    ])
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of 5,000-iteration self-play logs, pinned from the scalar update
# path; any change to a single trajectory float changes them.
GOLDEN_TRAJECTORIES = {
    "wolf-rps": (
        rps, [PlayerSpec(), PlayerSpec()], 21,
        "428e974c4cdc9daa6f81f5a334b48aba89a5ec28c319aff1d64e8e34ac1a6cf5",
    ),
    "rps-column-hull": (
        rps, [PlayerSpec(), PlayerSpec(space=RPS_COLUMN_HULL)], 22,
        "c236e07c87743f4ec8befd71fff4401d3ca7e9bbd4b53f926d6e09f300334475",
    ),
    "q-rps": (
        rps, [PlayerSpec(algo="q"), PlayerSpec(algo="q")], 23,
        "0bac3dec14cf862813cff9148f9fa86ab6aa6cedd56f1233f1efa3f20d4c5430",
    ),
    "fact5-state-uniform-hull": (
        fact5_game, [PlayerSpec(space=FACT5_HULL), PlayerSpec(space=FACT5_HULL)], 24,
        "db5caec6bc7e883e2a691b65a3677374690e64ec19524948052900f47fd7fb01",
    ),
    "fact5-gamma-0.95": (
        fact5_game, [PlayerSpec(config=GAMMA_95), PlayerSpec(config=GAMMA_95)], 25,
        "ee055ec9a92cd8cdcfac1d427d9e18bfa4366c87b1cdf4c9e9243daa56f067a6",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRAJECTORIES))
def test_golden_trajectory_digest(name):
    make_game, specs, seed, expected = GOLDEN_TRAJECTORIES[name]
    log = self_play(make_game(), specs, 5_000, seed)
    assert _rows_digest(log.rows) == expected

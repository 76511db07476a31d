"""Learner update rules, self-play determinism, and trajectory logs."""

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgl.experiments import ReproductionSpec, _run_stats, _write_plot_files, reproduce
from sgl.games import (
    JointPolicy,
    MalformedInputError,
    Policy,
    UnsupportedOperationError,
    _repr_rows,
    blotto_4_3,
    fact5_game,
    matrix_game,
    rps,
)
from sgl.learners import (
    _BLOCK,
    CheckpointRow,
    LearnerState,
    PlayerSpec,
    WolfPhcConfig,
    _uniform_stream,
    final_joint_policy,
    fresh_learner,
    q_learner_step,
    self_play,
    wolf_phc_step,
)
from sgl.restrictions import (
    ConvexHullGlobal,
    ConvexHullStatewise,
    DeterministicOnly,
    FullSpace,
    StateUniform,
    broken_actuator,
    epsilon_exploration,
)
from sgl.solvers import check_equilibrium
from util import (
    load_trajectory_rows,
    player_rows,
    random_game,
    random_global_hull,
    reference_grouped_stabilization_iteration,
    reference_mean_final_policy,
    reference_plot_data,
    reference_run_stats,
    reference_self_play,
    reference_stabilization_iteration,
    reference_to_csv,
    reference_window_average_reward,
)

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
        log = self_play(rps(), [PlayerSpec(), PlayerSpec(space=rps_column_hull)], 300, seed=4)
        assert log.explicit[0] is log.probs[0]
        assert log.probs[1].shape == (300, 1, 2) and log.explicit[1].shape == (300, 1, 3)
        assert np.allclose(log.explicit[1][:, 0], log.probs[1][:, 0] @ gens[:, 0])
        for row in player_rows(log, 1):
            assert list(row.explicit) == (np.asarray(row.probs) @ gens[:, 0]).tolist()
            assert all(type(x) is float for x in row.explicit)

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
        for row in player_rows(log, 1):
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
        assert player_rows(log, 0)[-1].explicit == (1.0,)

    def test_rps_greedy_joint_never_an_equilibrium(self, rps_game):
        log = self_play(
            rps_game,
            [PlayerSpec(algo="q"), PlayerSpec(algo="q")],
            iterations=20_000,
            seed=13,
        )
        full = [FullSpace(1, 3), FullSpace(1, 3)]
        rows0 = player_rows(log, 0)
        rows1 = player_rows(log, 1)
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
        assert len(player_rows(log, 0)) == 2000

    def test_multi_state_runs_and_logs_every_state(self, fact5):
        cfg = WolfPhcConfig(gamma=0.95)
        log = self_play(
            fact5, [PlayerSpec(config=cfg), PlayerSpec(config=cfg)],
            iterations=2000, seed=3,
        )
        for state in fact5.states:
            rows = player_rows(log, 0, state)
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
        joint = final_joint_policy(log)
        assert tuple(joint[0].probs[0]) == player_rows(log, 0)[-1].explicit

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

    @pytest.mark.parametrize("every", [0, -3])
    def test_checkpoint_interval_must_be_positive(self, rps_game, every):
        with pytest.raises(MalformedInputError):
            self_play(rps_game, [PlayerSpec(), PlayerSpec()], 10, seed=0, checkpoint_every=every)

    def test_seats_other_than_full_or_one_block_refused(self):
        game = fact5_game()
        statewise = ConvexHullStatewise([np.eye(2)] * 3)
        for space in (statewise, DeterministicOnly(3, 2)):
            with pytest.raises(UnsupportedOperationError):
                self_play(game, [PlayerSpec(space=space), PlayerSpec()], 10, seed=0)

    def test_full_space_plays_its_actions(self, rps_game):
        specs = [PlayerSpec(algo="q", space=FullSpace(1, 3)), PlayerSpec(space=FullSpace(1, 3))]
        log = self_play(rps_game, specs, 300, seed=4)
        want = self_play(rps_game, [PlayerSpec(algo="q"), PlayerSpec()], 300, seed=4)
        assert log.rows == want.rows

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
        assert len(player_rows(log, 0)) == 1
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


def _one_arm_game():
    """Row has one action, column three: the row seat never hill-climbs."""
    return matrix_game([np.array([[1.0, 0.0, -1.0]]), np.array([[-1.0, 0.5, 1.0]])])


def _three_player_game():
    rng = np.random.default_rng(41)
    game = random_game(rng, n_states=3, action_counts=(2, 3, 2))
    return game, random_global_hull(rng, 3, 3, k=3)


def _oracle_cases():
    three, three_hull = _three_player_game()
    blotto_row_hull = ConvexHullGlobal((
        Policy([[0.25, 0.5, 0.25, 0.0, 0.0]]),
        Policy([[0.0, 0.25, 0.5, 0.25, 0.0]]),
        Policy([[0.0, 0.0, 0.25, 0.5, 0.25]]),
    ))
    one_generator = ConvexHullGlobal((Policy([[0.2, 0.3, 0.5]]),))
    one_player = random_game(np.random.default_rng(42), n_states=2, action_counts=(3,))
    # On a random hull over five actions one (N, arms) @ (arms, actions)
    # product differs from the per-row products.
    five_action_hull = random_global_hull(np.random.default_rng(48), 1, 5, k=3)
    # Wider than the kernel's 32-term sum chunks and picks.
    wide = random_game(np.random.default_rng(44), n_states=34, action_counts=(35, 3))
    wide_matrix = matrix_game(list(np.random.default_rng(45).uniform(-1, 1, (2, 33, 34))))
    return {
        "wolf-rps": (rps(), [PlayerSpec(), PlayerSpec()]),
        "q-rps": (rps(), [PlayerSpec(algo="q"), PlayerSpec(algo="q")]),
        "hull-rps": (rps(), [PlayerSpec(), PlayerSpec(space=RPS_COLUMN_HULL)]),
        "wolf-vs-q-discounted": (rps(), [PlayerSpec(), PlayerSpec(algo="q", config=GAMMA_95)]),
        "blotto-row-hull": (blotto_4_3(), [PlayerSpec(space=blotto_row_hull), PlayerSpec()]),
        "blotto-random-hull": (blotto_4_3(), [PlayerSpec(space=five_action_hull), PlayerSpec()]),
        "one-arm-wolf": (_one_arm_game(), [PlayerSpec(), PlayerSpec()]),
        "one-arm-q": (_one_arm_game(), [PlayerSpec(algo="q"), PlayerSpec(algo="q")]),
        "one-generator-hull": (rps(), [PlayerSpec(space=one_generator), PlayerSpec()]),
        # The paper's two limitations: one-state statewise hulls, one block each.
        "limitation-hulls-rps": (rps(), [PlayerSpec(space=broken_actuator(1, 3, 2, 0)),
                                         PlayerSpec(space=epsilon_exploration(1, 3, 0.3))]),
        "fact5-gamma-0.95": (fact5_game(), [PlayerSpec(config=GAMMA_95)] * 2),
        "fact5-hull": (fact5_game(), [PlayerSpec(space=FACT5_HULL)] * 2),
        "fact5-wolf-vs-q": (fact5_game(), [PlayerSpec(config=GAMMA_95),
                                          PlayerSpec(algo="q", config=GAMMA_95)]),
        "one-player": (one_player, [PlayerSpec(config=GAMMA_95)]),
        "three-players": (three, [PlayerSpec(config=GAMMA_95), PlayerSpec(space=three_hull),
                                  PlayerSpec(algo="q")]),
        "wide-rows": (wide, [PlayerSpec(config=GAMMA_95), PlayerSpec(algo="q", config=GAMMA_95)]),
        "wide-matrix": (wide_matrix, [PlayerSpec(config=GAMMA_95), PlayerSpec(algo="q")]),
    }


ORACLE_CASES = _oracle_cases()
# Runs of one step, less than one draw block, and three blocks and a bit,
# with checkpoint intervals that do not divide the run.
ORACLE_RUNS = [(1, None), (100, 7), (3 * _BLOCK + 7, None), (3 * _BLOCK + 7, 5)]


class TestKernelMatchesScalarLoop:
    @pytest.mark.parametrize("iterations, every", ORACLE_RUNS)
    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_rows_equal_reference(self, name, iterations, every):
        game, specs = ORACLE_CASES[name]
        got = self_play(game, specs, iterations, seed=17, checkpoint_every=every)
        want = reference_self_play(game, specs, iterations, seed=17, checkpoint_every=every)
        assert got.checkpoint_every == want.checkpoint_every
        assert got.rows == want.rows
        assert got.rows is got.rows  # built once, then cached

        def types(rows):
            return [tuple(map(type, (r.iteration, r.player, r.state, r.inst_reward,
                                     r.avg_reward, *r.probs, *r.explicit)))
                    for r in rows]

        assert types(got.rows) == types(want.rows)

    def test_hostile_names_run_and_match(self, tmp_path):
        # Names reach the rows and the CSV, never the generated source.
        names = ['"', "'\n", "); import os", 'a,"b']
        base = random_game(np.random.default_rng(43), n_states=4, action_counts=(2, 2))
        game = replace(base, states=tuple(names), initial_state=names[0],
                       action_sets=((names[2], names[1]), (names[0], names[3])))
        specs = [PlayerSpec(config=GAMMA_95), PlayerSpec(algo="q")]
        got = self_play(game, specs, 500, seed=3)
        assert got.rows == reference_self_play(game, specs, 500, seed=3).rows
        assert {r.state for r in got.rows} == set(names)
        got.to_csv(tmp_path / "log.csv")
        assert load_trajectory_rows(tmp_path / "log.csv") == got.rows

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3, 123456789])
    def test_block_draws_continue_python_random(self, seed):
        rng = random.Random(seed)
        stream = _uniform_stream(random.Random(seed))
        assert stream.random_sample(5000).tolist() == [rng.random() for _ in range(5000)]
        # Mid-stream, after an odd number of words, and in (n, 2) blocks.
        rng.getrandbits(32)
        stream = _uniform_stream(rng)
        pairs = stream.random_sample((700, 2)).tolist()
        assert [x for pair in pairs for x in pair] == [rng.random() for _ in range(1400)]

    def test_reproduce_with_two_workers_writes_the_same_files(self, tmp_path):
        trees = []
        for workers in (1, 2):
            spec = ReproductionSpec(name="rps-restricted", seed=5, iterations=3000,
                                    n_seeds=3, workers=workers, outdir=tmp_path / str(workers))
            reproduce(spec)
            trees.append({p.relative_to(spec.outdir): p.read_bytes()
                          for p in sorted(spec.outdir.rglob("*")) if p.is_file()})
        assert sorted(trees[0]) == sorted(trees[1])
        assert len(trees[0]) > 3
        for name, data in trees[0].items():
            assert trees[1][name] == data, name


def test_to_csv_matches_csv_writer(tmp_path):
    game = replace(rps(), states=('a,"b',), initial_state='a,"b')
    log = self_play(game, [PlayerSpec(), PlayerSpec(space=RPS_COLUMN_HULL)], 400, seed=8)
    log.to_csv(tmp_path / "fast.csv")
    reference_to_csv(log, tmp_path / "writer.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()
    assert b'"a,""b"' in (tmp_path / "fast.csv").read_bytes()


def _quoted_names_game():
    base = random_game(np.random.default_rng(46), n_states=3, action_counts=(2, 3))
    names = ('a,"b', "c d", "'e\n")
    return replace(base, states=names, initial_state=names[0])


# (game, specs, iterations, checkpoint_every): the golden setups, a Q seat, a
# 1-arm seat, state names that need CSV quoting, a checkpoint interval that
# does not divide the run, and a random hull over five actions.
COLUMNAR_CASES = {
    **{name: (make_game(), specs, 5_000, None)
       for name, (make_game, specs, _, _) in GOLDEN_TRAJECTORIES.items()},
    "q-seat": (rps(), [PlayerSpec(), PlayerSpec(algo="q", config=GAMMA_95)], 3_000, None),
    "one-arm": (_one_arm_game(), [PlayerSpec(), PlayerSpec()], 3_000, None),
    "quoted-names": (_quoted_names_game(), [PlayerSpec(config=GAMMA_95),
                                            PlayerSpec(space=random_global_hull(
                                                np.random.default_rng(47), 3, 3, k=2))],
                     3_000, None),
    "uneven-checkpoints": (blotto_4_3(), [PlayerSpec(), PlayerSpec()], 1_000, 7),
    "blotto-random-hull": (*ORACLE_CASES["blotto-random-hull"], 3_000, None),
}


@pytest.fixture(scope="module")
def columnar_logs():
    """Each case's columnar log beside the row log of the scalar oracle loop."""
    return {
        name: (self_play(game, specs, iterations, 19, every),
               reference_self_play(game, specs, iterations, 19, every))
        for name, (game, specs, iterations, every) in COLUMNAR_CASES.items()
    }


class TestColumnarLog:
    @pytest.mark.parametrize("name", sorted(COLUMNAR_CASES))
    def test_writers_match_rowwise_oracles(self, columnar_logs, name, tmp_path):
        got, want = columnar_logs[name]
        game, specs = COLUMNAR_CASES[name][:2]
        explicit_texts = got.to_csv(tmp_path / "got.csv")
        reference_to_csv(want, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        action_names = [list(names) for names in game.action_sets]
        (tmp_path / "got").mkdir()
        (tmp_path / "want").mkdir()
        _write_plot_files(tmp_path / "got", got.checkpoints, explicit_texts,
                          [[0.5]] * game.n_players, action_names)
        reference_plot_data(tmp_path / "want", want, action_names)
        for i in range(game.n_players):
            data = f"plot_player{i}.dat"
            assert (tmp_path / "got" / data).read_bytes() == (tmp_path / "want" / data).read_bytes()

    @pytest.mark.parametrize("name", sorted(COLUMNAR_CASES))
    def test_statistics_match_rowwise_oracles(self, columnar_logs, name):
        got, want = columnar_logs[name]
        specs = COLUMNAR_CASES[name][1]
        hull_seats = [i for i, spec in enumerate(specs) if spec.space is not None]
        restricted = hull_seats[0] if hull_seats else None
        # repr also tells a Python float from a NumPy scalar.
        assert repr(_run_stats(got, restricted)) == repr(reference_run_stats(want, restricted))
        for threshold, window in ((0.0, 1), (0.01, 10_000), (10.0, 500), (0.5, 50)):
            assert got.stabilization_iteration(threshold, window) == \
                reference_grouped_stabilization_iteration(want, threshold, window)
        for i in range(got.n_players):
            for fraction in (0.1, 0.5, 1.0):
                assert got.window_average_reward(i, fraction) == \
                    reference_window_average_reward(want, i, fraction)
                for state in got.states:
                    for explicit in (True, False):
                        assert np.array_equal(
                            got.mean_final_policy(i, fraction, explicit, state),
                            reference_mean_final_policy(want, i, fraction, explicit, state),
                        )
        final = [Policy(np.asarray([player_rows(want, i, state)[-1].explicit
                                    for state in want.states]))
                 for i in range(want.n_players)]
        assert all(np.array_equal(a.probs, b.probs)
                   for a, b in zip(final_joint_policy(got), final))

    def test_reproduce_builds_no_checkpoint_rows(self, monkeypatch, tmp_path):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a CheckpointRow was built")

        monkeypatch.setattr(CheckpointRow, "__init__", refuse)
        spec = ReproductionSpec(name="rps-restricted", seed=2, iterations=2_000, n_seeds=2,
                                outdir=tmp_path)
        summary = reproduce(spec)
        assert len(summary["runs"]) == 2
        for name in ("trajectory_seed2.csv", "trajectory_seed3.csv", "plot_player0.dat",
                     "plot_player1.dat", "plot.gp", "summary.json"):
            assert (tmp_path / name).stat().st_size > 0
        with pytest.raises(AssertionError, match="CheckpointRow"):
            self_play(rps(), [PlayerSpec(), PlayerSpec()], 10, seed=0).rows


def test_repr_rows_matches_float_repr():
    mat = np.array([[0.1, -0.0, 1e-300, 2.0 / 3.0], [np.nan, np.inf, -np.inf, -1.5]])
    for sep in (";", ",", " "):
        assert _repr_rows(mat, sep) == [sep.join(repr(float(x)) for x in row) for row in mat]
    assert _repr_rows(mat[:, 0]) == ["0.1", "nan"]
    assert _repr_rows(mat[:1, 0]) == ["0.1"]
    assert _repr_rows(mat[:0]) == [] and _repr_rows(mat[:0, 0]) == []

"""Exact value computation against hand-solved and simulation oracles."""

from dataclasses import replace

import numpy as np
import pytest

from sgl.games import (
    Average,
    Discounted,
    ErgodicityError,
    JointPolicy,
    MalformedInputError,
    Policy,
    StochasticGame,
    fact5_game,
    matrix_game,
    rps,
)
from sgl import values
from sgl.values import (
    check_ergodic,
    induce_mdp,
    mdp_policy_value,
    mdp_policy_values,
    mdp_run_values,
    policy_value,
    policy_values,
)
from util import (
    random_game,
    random_joint_policy,
    random_policy,
    reference_run_values,
    simulate_average_reward,
)


def two_state_cycle(formulation) -> StochasticGame:
    """Deterministic alternation s0 <-> s1; player 0 earns 1 only in s1."""
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 1] = 1.0
    transition[1, 0, 0] = 1.0
    rewards = np.zeros((1, 2, 1))
    rewards[0, 1, 0] = 1.0
    return StochasticGame(
        ("s0", "s1"), (("go",),), transition, rewards, "s0", formulation
    )


CYCLE_POLICY = JointPolicy((Policy([[1.0], [1.0]]),))


def stationary_by_indicators(game: StochasticGame, joint: JointPolicy) -> np.ndarray:
    """The stationary law of a one-player average-reward game's chain.

    The gain of a reward paying 1 in state s alone is the chain's long-run
    share of time in s, so each entry is one `policy_value` call.
    """
    d = np.zeros(game.n_states)
    for s in range(game.n_states):
        rewards = np.zeros_like(game.rewards)
        rewards[0, s, :] = 1.0
        d[s] = policy_value(replace(game, rewards=rewards), joint)[0]
    return d


class TestDiscounted:
    def test_constant_reward_geometric_series(self):
        c = 3.0
        game = matrix_game(
            [np.full((2, 2), c), np.full((2, 2), c)], formulation=Discounted(0.5)
        )
        joint = JointPolicy((Policy([[0.3, 0.7]]), Policy([[0.9, 0.1]])))
        assert np.allclose(policy_value(game, joint), 2 * c, atol=1e-12)

    def test_two_state_cycle_hand_solved(self):
        # V(s0) = 0.5 V(s1), V(s1) = 1 + 0.5 V(s0)  =>  (2/3, 4/3).
        game = two_state_cycle(Discounted(0.5))
        values = mdp_policy_value(induce_mdp(game, 0, []), CYCLE_POLICY[0].probs)
        assert values[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert values[1] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_matrix_game_scales_one_shot_payoff(self):
        rng = np.random.default_rng(5)
        game = rps(formulation=Discounted(0.7))
        joint = random_joint_policy(rng, game)
        direct = policy_value(game, joint)
        x, y = joint[0].probs[0], joint[1].probs[0]
        one_shot = [x @ game.payoff_matrix(i) @ y for i in range(2)]
        assert np.allclose(direct, np.array(one_shot) / (1 - 0.7), atol=1e-12)

    def test_bellman_residual_property(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n_states = int(rng.integers(1, 6))
            counts = tuple(
                int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))
            )
            game = random_game(
                rng, n_states=n_states, action_counts=counts,
                gamma=float(rng.uniform(0.2, 0.97)),
            )
            joint = random_joint_policy(rng, game)
            for i, own in enumerate(joint.policies):
                others = [pol for j, pol in enumerate(joint.policies) if j != i]
                mdp = induce_mdp(game, i, [p.probs for p in others])
                values = mdp_policy_value(mdp, own.probs)
                p = np.einsum("sa,sat->st", own.probs, mdp.transition)
                r = np.einsum("sa,sa->s", own.probs, mdp.reward)
                residual = values - (r + game.formulation.gamma * p @ values)
                assert np.max(np.abs(residual)) <= 1e-10


class TestAverage:
    def test_constant_reward(self):
        c = -1.5
        game = matrix_game([np.full((2, 2), c), np.full((2, 2), c)])
        values = policy_value(game, JointPolicy.uniform(game))
        assert np.allclose(values, c, atol=1e-12)

    def test_two_state_cycle_half(self):
        game = two_state_cycle(Average())
        values = policy_value(game, CYCLE_POLICY)
        assert values[0] == pytest.approx(0.5, abs=1e-12)

    def test_reducible_chain_raises(self):
        # Two disconnected self-loop states.
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 0] = 1.0
        transition[1, 0, 1] = 1.0
        rewards = np.zeros((1, 2, 1))
        game = StochasticGame(
            ("a", "b"), (("x",),), transition, rewards, "a", Average()
        )
        joint = JointPolicy((Policy([[1.0], [1.0]]),))
        with pytest.raises(ErgodicityError):
            policy_value(game, joint)

    def test_unichain_policy_matches_simulation(self):
        # Action 0 never enters s2, so under it s2 is transient; action 1
        # reaches s2, so the game still passes the support-union check.
        transition = np.zeros((3, 2, 3))
        transition[0, 0] = [0.3, 0.7, 0.0]
        transition[1, 0] = [0.6, 0.4, 0.0]
        transition[2, 0] = [0.5, 0.5, 0.0]
        transition[:, 1] = [0.0, 0.0, 1.0]
        rewards = np.zeros((1, 3, 2))
        rewards[0, :, 0] = [1.0, -0.5, 4.0]
        game = StochasticGame(
            ("s0", "s1", "s2"), (("a", "b"),), transition, rewards, "s0", Average()
        )
        assert check_ergodic(game)
        joint = JointPolicy((Policy.pure(3, 2, [0, 0, 0]),))
        exact = policy_value(game, joint)
        # Stationary law of the s0/s1 class: d0 = 0.6 / 1.3.
        assert exact[0] == pytest.approx((0.6 - 0.35) / 1.3, abs=1e-12)
        assert stationary_by_indicators(game, joint)[2] <= 1e-15
        sim = simulate_average_reward(game, joint, steps=200_000, seed=5, start_state=2)
        assert abs(sim[0] - exact[0]) <= 1e-2

    def test_matches_simulation_from_any_start(self):
        rng = np.random.default_rng(7)
        game = random_game(rng, n_states=4, action_counts=(2, 2), average=True)
        joint = random_joint_policy(rng, game)
        exact = policy_value(game, joint)
        for start, seed in ((None, 123), (2, 124)):
            sim = simulate_average_reward(
                game, joint, steps=10**7, seed=seed, start_state=start
            )
            assert np.max(np.abs(sim - exact)) <= 1e-3

    def test_stationary_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            game = random_game(rng, n_states=4, action_counts=(2,), average=True)
            joint = random_joint_policy(rng, game)
            p = np.einsum("sa,sat->st", joint[0].probs, game.transition)
            d = stationary_by_indicators(game, joint)
            assert np.abs(d - d @ p).sum() <= 1e-10
            assert abs(d.sum() - 1.0) <= 1e-12


class TestErgodicity:
    def test_cycle_is_ergodic(self):
        assert check_ergodic(two_state_cycle(Average()))

    def test_absorbing_state_is_not(self):
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 1] = 1.0
        transition[1, 0, 1] = 1.0  # absorbing, never returns
        game = StochasticGame(
            ("a", "b"), (("x",),), transition, np.zeros((1, 2, 1)), "a", Average()
        )
        assert not check_ergodic(game)

    def test_fact5_is_ergodic(self, fact5):
        assert check_ergodic(fact5)


class TestInducedMDP:
    def test_rps_vs_uniform_all_zero(self, rps_game):
        mdp = induce_mdp(rps_game, 0, [Policy([[1 / 3, 1 / 3, 1 / 3]]).probs])
        assert np.allclose(mdp.reward, 0.0, atol=1e-15)

    def test_pure_opponent_gives_matrix_column(self, rps_game):
        mdp = induce_mdp(rps_game, 0, [Policy([[0.0, 1.0, 0.0]]).probs])
        assert np.allclose(mdp.reward[0], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_fact5_row_mdp_action_independent(self, fact5):
        rng = np.random.default_rng(2)
        column = Policy(rng.dirichlet(np.ones(2), size=3))
        mdp = induce_mdp(fact5, 0, [column.probs])
        assert np.max(np.abs(mdp.transition[:, 0, :] - mdp.transition[:, 1, :])) == 0.0

    def test_value_equivalence_discounted_and_average(self):
        rng = np.random.default_rng(21)
        for k in range(100):
            average = k % 3 == 2
            game = random_game(
                rng,
                n_states=int(rng.integers(1, 5)),
                action_counts=(2, int(rng.integers(2, 4))),
                average=average,
            )
            joint = random_joint_policy(rng, game)
            i = int(rng.integers(0, 2))
            others = [p for j, p in enumerate(joint.policies) if j != i]
            mdp = induce_mdp(game, i, [p.probs for p in others])
            in_mdp = mdp_policy_value(mdp, joint[i].probs)
            if average:
                in_game = policy_value(game, joint)[i]
                assert abs(in_mdp[0] - in_game) <= 1e-10
            else:
                # The game started from each state in turn gives the whole table.
                in_game = [
                    policy_value(replace(game, initial_state=state), joint)[i]
                    for state in game.states
                ]
                assert np.max(np.abs(in_mdp - in_game)) <= 1e-10

    def test_as_game_round_trip(self, fact5):
        """The MDP written as a one-player game has the same values."""
        rng = np.random.default_rng(3)
        column = Policy(rng.dirichlet(np.ones(2), size=3))
        mdp = induce_mdp(fact5, 0, [column.probs])
        row = Policy(rng.dirichlet(np.ones(2), size=3))
        direct = mdp_policy_value(mdp, row.probs)
        for start, state in enumerate(mdp.states):
            wrapped = StochasticGame(
                mdp.states, (mdp.actions,), mdp.transition, mdp.reward[np.newaxis],
                state, mdp.formulation,
            )
            via_game = policy_value(wrapped, JointPolicy((row,)))[0]
            assert via_game == pytest.approx(direct[start], abs=1e-12)


class TestMatrixValue:
    def test_rps_examples(self, rps_game):
        uniform = JointPolicy.uniform(rps_game)
        assert np.allclose(policy_value(rps_game, uniform), 0.0, atol=1e-15)
        rock_paper = JointPolicy((Policy([[1, 0, 0]]), Policy([[0, 1, 0]])))
        assert np.allclose(policy_value(rps_game, rock_paper), [-1.0, 1.0])

    def test_blotto_pure_profile(self, blotto_game):
        joint = JointPolicy((Policy([[1, 0, 0, 0, 0]]), Policy([[1, 0, 0, 0]])))
        assert np.allclose(policy_value(blotto_game, joint), [4.0, -4.0])

    def test_multilinearity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            game = random_game(
                rng, n_states=1, action_counts=(3, 2),
                average=bool(rng.integers(0, 2)),
            )
            base = random_joint_policy(rng, game)
            other = random_joint_policy(rng, game)
            alpha = float(rng.uniform())
            for i in range(2):
                blend = base.replace(
                    i, Policy(alpha * base[i].probs + (1 - alpha) * other[i].probs)
                )
                swapped = base.replace(i, other[i])
                lhs = policy_value(game, blend)
                rhs = alpha * policy_value(game, base) + (1 - alpha) * policy_value(
                    game, swapped
                )
                assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_zero_sum_conservation():
    rng = np.random.default_rng(17)
    for _ in range(30):
        game = random_game(
            rng,
            n_states=int(rng.integers(1, 4)),
            action_counts=(2, 3),
            zero_sum=True,
            average=bool(rng.integers(0, 2)),
        )
        joint = random_joint_policy(rng, game)
        total = policy_value(game, joint).sum()
        assert abs(total) <= 1e-10


def test_policy_value_at_initial_state(fact5):
    rng = np.random.default_rng(19)
    joint = random_joint_policy(rng, fact5)
    at_start = policy_value(fact5, joint)
    for i in range(2):
        table = mdp_policy_value(induce_mdp(fact5, i, [joint[1 - i].probs]), joint[i].probs)
        assert at_start[i] == pytest.approx(table[fact5.initial_index], abs=1e-12)


@pytest.mark.parametrize(
    "formulation, table, index, value, error",
    [
        (None, "rewards", (0, 0, 0), np.inf, ArithmeticError),
        (Average(), "rewards", (0, 0, 0), np.nan, ArithmeticError),
        (None, "transition", (0, 0, 0), np.nan, ArithmeticError),
        (Average(), "transition", (1, 0, 0), np.inf, MalformedInputError),
    ],
    ids=[
        "discounted-inf-reward",
        "average-nan-reward",
        "discounted-nan-transition",
        "average-inf-transition",
    ],
)
def test_non_finite_data_raises(formulation, table, index, value, error):
    """An infinite or NaN entry never comes back as a value."""
    game = fact5_game(formulation=formulation)
    bad = np.array(getattr(game, table))
    bad[index] = value
    game = replace(game, **{table: bad})
    joint = JointPolicy.uniform(game)
    with np.errstate(all="ignore"):
        with pytest.raises(error):
            policy_value(game, joint)
        with pytest.raises(error):
            mdp_policy_value(induce_mdp(game, 0, [joint[1].probs]), joint[0].probs)


class TestBatched:
    """The batched evaluators against a per-policy loop."""

    @pytest.mark.parametrize("average", [False, True])
    def test_mdp_policy_values_match_loop(self, average):
        rng = np.random.default_rng(31 + average)
        for _ in range(5):
            game = random_game(rng, n_states=4, action_counts=(3, 2), average=average)
            mdp = induce_mdp(game, 0, [random_policy(rng, 4, 2).probs])
            stack = np.stack([random_policy(rng, 4, 3).probs for _ in range(9)])
            batched = mdp_policy_values(mdp, stack)
            assert batched.shape == (9, 4)
            for b in range(9):
                single = mdp_policy_value(mdp, stack[b])
                assert np.max(np.abs(batched[b] - single)) <= 1e-12
                if not average:
                    # Direct Bellman solve, independent of the batch code.
                    p = np.einsum("sa,sat->st", stack[b], mdp.transition)
                    r = np.einsum("sa,sa->s", stack[b], mdp.reward)
                    direct = np.linalg.solve(np.eye(4) - game.formulation.gamma * p, r)
                    assert np.max(np.abs(batched[b] - direct)) <= 1e-12

    @pytest.mark.parametrize("average", [False, True])
    def test_policy_values_match_loop(self, average):
        rng = np.random.default_rng(41 + average)
        for _ in range(5):
            game = random_game(rng, n_states=3, action_counts=(2, 3), average=average)
            joints = [random_joint_policy(rng, game) for _ in range(7)]
            stacks = [np.stack([j[i].probs for j in joints]) for i in range(2)]
            batched = policy_values(game, stacks)
            assert batched.shape == (7, 2)
            for b, joint in enumerate(joints):
                assert np.max(np.abs(batched[b] - policy_value(game, joint))) <= 1e-12

    @pytest.mark.parametrize("average", [False, True], ids=["discounted", "average"])
    def test_run_values_match_per_run_loop(self, average):
        # Runs of uneven length, one to 39 rows, each in its own induced MDP;
        # one run (every mdp_policy_values call) on up to 71 states; every
        # other row pure, with exact zeros.
        rng = np.random.default_rng(51 + average)
        shapes = [(1, 1, 1), (1, 3, 2), (3, 2, 62), (4, 5, 1), (6, 16, 9), (30, 4, 3), (2, 7, 40),
                  (71, 3, 1), (30, 8, 1)]
        for n_states, n_actions, n_runs in shapes:
            game = random_game(rng, n_states, (n_actions, 2), average=average)
            mdps = [induce_mdp(game, 0, [random_policy(rng, n_states, 2).probs])
                    for _ in range(n_runs)]
            lengths = rng.integers(1, 40, size=n_runs)
            cuts = np.cumsum(lengths)[:-1].tolist()
            probs = np.stack([random_policy(rng, n_states, n_actions).probs
                              for _ in range(lengths.sum())])
            pure = rng.integers(n_actions, size=(len(probs[::2]), n_states))
            probs[::2] = np.eye(n_actions)[pure]
            got = mdp_run_values(mdps, cuts, probs)
            assert np.array_equal(got, reference_run_values(mdps, cuts, probs))

    def test_gathered_slices_split_without_changing_bits(self, monkeypatch):
        # 37 rows of 5 actions are gathered 37 // 5 = 7 rows at a time: six
        # slices, which the runs cross anywhere.  No slice's gathered
        # transitions outgrow the (37, |S|, |S|) Markov stack, and the stack
        # is bit-identical to one unsplit gather and to the per-run loop.
        rng = np.random.default_rng(57)
        game = random_game(rng, n_states=4, action_counts=(5, 2))
        lengths = [1, 9, 3, 1, 8, 7, 2, 6]
        mdps = [induce_mdp(game, 0, [random_policy(rng, 4, 2).probs]) for _ in lengths]
        cuts = np.cumsum(lengths)[:-1].tolist()
        probs = np.stack([random_policy(rng, 4, 5).probs for _ in range(sum(lengths))])
        gathered, stacks = [], []
        einsum, solve = np.einsum, values._discounted_values

        def spy_einsum(spec, *operands, **kwargs):
            if spec == "bsa,bsat->bst":
                gathered.append(operands[1].size)
            return einsum(spec, *operands, **kwargs)

        def spy_solve(p, r, gamma):
            stacks.append(p)
            return solve(p, r, gamma)

        monkeypatch.setattr(np, "einsum", spy_einsum)
        monkeypatch.setattr(values, "_discounted_values", spy_solve)
        got = mdp_run_values(mdps, cuts, probs)
        monkeypatch.undo()
        assert len(gathered) == 6 and max(gathered) <= 37 * 4 * 4
        run = np.repeat(np.arange(len(lengths)), lengths)
        whole = np.einsum("bsa,bsat->bst", probs, np.stack([m.transition for m in mdps])[run])
        assert np.array_equal(stacks[0], whole)
        assert np.array_equal(got, reference_run_values(mdps, cuts, probs))

    def test_mismatched_stacks_rejected(self):
        rng = np.random.default_rng(43)
        game = random_game(rng, n_states=3, action_counts=(2, 2))
        stacks = [np.full((4, 3, 2), 0.5), np.full((5, 3, 2), 0.5)]
        with pytest.raises(MalformedInputError):
            policy_values(game, stacks)
        with pytest.raises(MalformedInputError):
            policy_values(game, stacks[:1])

    def test_residual_checked_for_every_member(self, monkeypatch):
        rng = np.random.default_rng(47)
        game = random_game(rng, n_states=3, action_counts=(2, 2))
        joints = [random_joint_policy(rng, game) for _ in range(5)]
        stacks = [np.stack([j[i].probs for j in joints]) for i in range(2)]
        mdp = induce_mdp(game, 0, [joints[0][1].probs])
        solve = np.linalg.solve

        def perturb_last_member(a, b):
            x = solve(a, b)
            x[-1] += 1e-6
            return x

        monkeypatch.setattr(np.linalg, "solve", perturb_last_member)
        with pytest.raises(ArithmeticError):
            policy_values(game, stacks)
        with pytest.raises(ArithmeticError):
            mdp_policy_values(mdp, stacks[0])
        monkeypatch.setattr(np.linalg, "solve", solve)
        policy_values(game, stacks)
        mdp_policy_values(mdp, stacks[0])


def test_nan_transition_refused_before_the_stationary_solve():
    game = fact5_game(formulation=Average())
    bad = np.array(game.transition)
    bad[0, 0, 0] = np.nan
    game = replace(game, transition=bad)
    joint = JointPolicy.uniform(game)
    with pytest.raises(MalformedInputError, match="NaN"):
        policy_value(game, joint)
    with pytest.raises(MalformedInputError, match="NaN"):
        mdp_policy_value(induce_mdp(game, 0, [joint[1].probs]), joint[0].probs)
    with pytest.raises(MalformedInputError, match="NaN"):
        policy_values(game, [np.repeat(pol.probs[np.newaxis], 5, axis=0) for pol in joint])

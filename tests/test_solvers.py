"""Equilibrium solvers against hand-derived and brute-force oracles."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from sgl import solvers
from sgl.games import (
    Average,
    Discounted,
    StochasticGame,
    JointPolicy,
    MalformedInputError,
    Policy,
    UnsupportedOperationError,
    bach_stravinsky,
    fact5_game,
    matrix_game,
    rps,
)
from sgl.restrictions import (
    ConvexHullGlobal,
    ConvexHullStatewise,
    DeterministicOnly,
    FixedCoordinates,
    FullSpace,
    Singleton,
    StateUniform,
)
from sgl.solvers import (
    alternating_best_response,
    best_response_convexity_test,
    certificate_to_dict,
    check_equilibrium,
    enumerate_deterministic,
    minimax_zero_sum_matrix,
    restricted_best_response,
    restricted_equilibrium_via_implicit,
    support_enumeration_bimatrix,
    sweep_existence,
)
from sgl.values import mdp_policy_value, induce_mdp, policy_value
from util import (
    grid_minimax_value,
    hull_grid_max,
    pure_policy_values,
    random_game,
    random_global_hull,
    random_joint_policy,
    random_policy,
    random_statewise_hull,
    reference_minimax,
    reference_support_enumeration,
    reference_sweep_rows,
)


class TestMinimax:
    def test_rps_uniform_value_zero(self, rps_game):
        value, row, col = minimax_zero_sum_matrix(rps_game)
        assert abs(value) <= 1e-9
        assert np.allclose(row, 1 / 3, atol=1e-9)
        assert np.allclose(col, 1 / 3, atol=1e-9)

    def test_blotto_value_and_unique_row(self, blotto_game):
        value, row, col = minimax_zero_sum_matrix(blotto_game)
        assert value == pytest.approx(14 / 9, abs=1e-9)
        assert np.allclose(row, [4 / 9, 0, 1 / 9, 0, 4 / 9], atol=1e-9)
        # Column optima form a segment; the lexicographically-least vertex is
        # y = (1/30, 8/15, 16/45, 7/90), solved by hand from the tight rows.
        assert np.allclose(col, [1 / 30, 8 / 15, 16 / 45, 7 / 90], atol=1e-9)

    def test_trivial_single_entry(self):
        game = matrix_game([np.array([[2.5]]), np.array([[-2.5]])])
        value, row, col = minimax_zero_sum_matrix(game)
        assert value == pytest.approx(2.5, abs=1e-12)
        assert row[0] == 1.0 and col[0] == 1.0

    def test_rejects_general_sum(self, bos_game):
        with pytest.raises(UnsupportedOperationError):
            minimax_zero_sum_matrix(bos_game)

    def test_rejects_multi_state(self, fact5):
        with pytest.raises(UnsupportedOperationError):
            minimax_zero_sum_matrix(fact5)

    def test_discounted_matrix_game_scales(self):
        game = rps(formulation=Discounted(0.5))
        m = np.array([[1.0, -1.0], [-1.0, 1.0]])
        pennies = matrix_game([m, -m], formulation=Discounted(0.5))
        value, _, _ = minimax_zero_sum_matrix(pennies)
        assert value == pytest.approx(0.0, abs=1e-9)
        shifted = matrix_game([m + 1.0, -(m + 1.0)], formulation=Discounted(0.5))
        value, _, _ = minimax_zero_sum_matrix(shifted)
        assert value == pytest.approx(2.0, abs=1e-9)  # one-shot value 1, scaled by 2

    def test_pure_deviation_regret(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            m = rng.uniform(-1, 1, size=shape)
            game = matrix_game([m, -m])
            value, row, col = minimax_zero_sum_matrix(game)
            assert (row @ m).min() >= value - 1e-9
            assert (m @ col).max() <= value + 1e-9

    def test_against_grid_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            m = rng.uniform(-1, 1, size=shape)
            game = matrix_game([m, -m])
            value, _, _ = minimax_zero_sum_matrix(game)
            oracle = grid_minimax_value(m, resolution=1e-3)
            assert abs(value - oracle) <= 2e-3


def _integer_games() -> list[np.ndarray]:
    """A degenerate integer game, then 24 drawn from default_rng(3): 3-8 actions
    each side, payoffs in -3..3 (several have an optimal set wider than a point)."""
    rng = np.random.default_rng(3)
    games = [np.array([[2, -2, -1], [1, 1, -2], [1, 1, 3], [1, 3, 3], [-3, -3, 0]], float)]
    for _ in range(24):
        m, n = rng.integers(3, 9, size=2)
        games.append(rng.integers(-3, 4, size=(m, n)).astype(float))
    return games


def _lp_value(m: np.ndarray) -> float:
    """The game's value from one row LP, apart from the library."""
    k, other = m.shape
    c = np.zeros(k + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([-m.T, np.ones((other, 1))]), b_ub=np.zeros(other),
                  A_eq=[[1.0] * k + [0.0]], b_eq=[1.0],
                  bounds=[(0.0, None)] * k + [(None, None)], method="highs")
    return float(res.x[-1])


@pytest.fixture
def linprog_calls(monkeypatch):
    """Counts the LPs that the solvers module hands to scipy."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(solvers, "linprog", counting)
    return calls


class TestExactMinimax:
    def test_degenerate_game_exact(self):
        m = _integer_games()[0]
        value, row, col = minimax_zero_sum_matrix(matrix_game([m, -m]))
        assert row.tolist() == [1 / 3, 0.0, 0.0, 2 / 3, 0.0]
        assert value == float(Fraction(4, 3))
        assert (col >= 0).all()

    def test_uniform_games_sign_clean(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            m = rng.uniform(-1.0, 1.0, size=tuple(rng.integers(3, 9, size=2)))
            value, row, col = minimax_zero_sum_matrix(matrix_game([m, -m]))
            assert (row >= 0).all() and (col >= 0).all()
            assert abs((row @ m).min() - value) <= 1e-12
            assert abs((m @ col).max() - value) <= 1e-12
            assert abs(value - _lp_value(m)) <= 1e-9

    def test_matches_reference_pipeline_on_integer_games(self):
        # The tie-break must pick the same lexicographically least vertex
        # as the full lexmin pipeline, wide optimal sets included.
        for m in _integer_games():
            value, row, col = minimax_zero_sum_matrix(matrix_game([m, -m]))
            ref_value, ref_row, ref_col = reference_minimax(m)
            assert value == pytest.approx(ref_value, abs=1e-9)
            assert np.allclose(row, ref_row, rtol=0.0, atol=1e-9)
            assert np.allclose(col, ref_col, rtol=0.0, atol=1e-9)

    def test_completely_mixed_game_takes_one_lp(self, linprog_calls):
        # The recipe of a planted game: x^T A = v 1^T and A y = v 1.
        rng = np.random.default_rng(7)
        x, y = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        v = float(rng.uniform(-0.5, 0.5))
        one = np.ones(6)
        b = rng.uniform(-1.0, 1.0, size=(6, 6))
        a = (np.eye(6) - np.outer(one, x)) @ b @ (np.eye(6) - np.outer(y, one)) + v
        value, row, col = minimax_zero_sum_matrix(matrix_game([a, -a]))
        assert len(linprog_calls) == 1
        assert value == pytest.approx(v, abs=1e-12)
        assert np.allclose(row, x, atol=1e-12) and np.allclose(col, y, atol=1e-12)

    def test_blotto_lexmin_only_on_the_wide_side(self, blotto_game, linprog_calls):
        # The row optimum is unique; the column optima form a segment.
        minimax_zero_sum_matrix(blotto_game)
        assert len(linprog_calls) <= 1 + 4

    def test_tampered_lp_never_passes_unchecked(self, monkeypatch):
        rng = np.random.default_rng(11)

        def tampered(*args, **kwargs):
            res = linprog(*args, **kwargs)
            if res.success:
                res.x = res.x + 1e-7 * rng.uniform(-1.0, 1.0, size=res.x.shape)
            return res

        monkeypatch.setattr(solvers, "linprog", tampered)
        games = _integer_games()[:8] + [rng.uniform(-1, 1, size=(5, 6)) for _ in range(8)]
        for m in games:
            try:
                value, row, col = minimax_zero_sum_matrix(matrix_game([m, -m]))
            except ArithmeticError:
                continue
            assert (row >= 0).all() and (col >= 0).all()
            assert abs(row.sum() - 1.0) <= 1e-15 and abs(col.sum() - 1.0) <= 1e-15
            assert abs((row @ m).min() - value) <= 1e-12
            assert abs((m @ col).max() - value) <= 1e-12


class TestSupportEnumeration:
    def test_bos_three_equilibria(self, bos_game):
        result = support_enumeration_bimatrix(bos_game)
        assert len(result.equilibria) == 3
        assert not result.degenerate
        profiles = sorted(
            (tuple(np.round(eq[0].probs[0], 9)), tuple(np.round(eq[1].probs[0], 9)))
            for eq in result.equilibria
        )
        assert profiles[0] == ((0.0, 1.0), (0.0, 1.0))
        assert profiles[1][0] == pytest.approx((2 / 3, 1 / 3), abs=1e-9)
        assert profiles[1][1] == pytest.approx((1 / 3, 2 / 3), abs=1e-9)
        assert profiles[2] == ((1.0, 0.0), (1.0, 0.0))

    def test_rps_unique_uniform(self, rps_game):
        result = support_enumeration_bimatrix(rps_game)
        assert len(result.equilibria) == 1
        eq = result.equilibria[0]
        assert np.allclose(eq[0].probs[0], 1 / 3, atol=1e-9)
        assert np.allclose(eq[1].probs[0], 1 / 3, atol=1e-9)

    def test_strict_dominance_single_pure(self):
        a = np.array([[3.0, 2.0], [1.0, 0.0]])  # row 0 strictly dominant
        b = np.array([[2.0, 0.0], [3.0, 1.0]])  # column 0 strictly dominant
        result = support_enumeration_bimatrix(matrix_game([a, b]))
        assert len(result.equilibria) == 1
        eq = result.equilibria[0]
        assert np.allclose(eq[0].probs[0], [1, 0])
        assert np.allclose(eq[1].probs[0], [1, 0])

    def test_every_profile_passes_equilibrium_check(self, bos_game):
        result = support_enumeration_bimatrix(bos_game)
        full = [FullSpace(1, 2), FullSpace(1, 2)]
        for eq in result.equilibria:
            cert = check_equilibrium(bos_game, eq, full, epsilon=1e-9)
            assert cert.verdict

    def test_degenerate_flagged(self):
        constant = matrix_game([np.ones((2, 2)), np.ones((2, 2))])
        result = support_enumeration_bimatrix(constant)
        assert result.degenerate

    def test_size_bound(self):
        m = np.zeros((6, 2))
        with pytest.raises(UnsupportedOperationError):
            support_enumeration_bimatrix(matrix_game([m, -m]))

    @pytest.mark.parametrize("kind", ["integer", "uniform"])
    def test_matches_reference_pipeline(self, kind):
        # 400 games of 2-5 actions a side: payoffs in -3..3 (many degenerate)
        # or uniform on (-1, 1).
        rng = np.random.default_rng(17)
        for _ in range(400):
            shape = tuple(rng.integers(2, 6, size=2))
            if kind == "integer":
                a, b = (rng.integers(-3, 4, size=shape).astype(float) for _ in "ab")
            else:
                a, b = (rng.uniform(-1.0, 1.0, size=shape) for _ in "ab")
            result = support_enumeration_bimatrix(matrix_game([a, b]))
            ref, ref_degenerate = reference_support_enumeration(a, b)
            assert result.degenerate == ref_degenerate
            assert len(result.equilibria) == len(ref)
            for eq, (x, y) in zip(result.equilibria, ref):
                assert np.allclose(eq[0].probs[0], x, rtol=0.0, atol=1e-9)
                assert np.allclose(eq[1].probs[0], y, rtol=0.0, atol=1e-9)

    def test_near_tie_is_not_an_equilibrium(self):
        # Row 2 pays c = 2/3 - 2^-40 whatever the column does.  On rows {0, 2}
        # and both columns, x = (2/7, 0, 5/7) and y_0 = c/2; row 1 then pays
        # 1 - c/2, more than c by 1.5 * 2^-40, so that profile is no
        # equilibrium, though a 1e-9 tolerance would keep it.
        c = 2 / 3 - 2.0**-40
        a = np.array([[2.0, 0.0], [0.0, 1.0], [c, c]])
        b = np.array([[1.0, 0.0], [0.0, 2.0], [0.3, 0.7]])
        result = support_enumeration_bimatrix(matrix_game([a, b]))
        assert not result.degenerate
        assert [(eq[0].probs[0].tolist(), eq[1].probs[0].tolist())
                for eq in result.equilibria] == [
            ([1.0, 0.0, 0.0], [1.0, 0.0]),
            ([0.0, 1.0, 0.0], [0.0, 1.0]),
            ([2 / 3, 1 / 3, 0.0], [1 / 3, 2 / 3]),
        ]

    def test_planted_zero_sum_matches_minimax(self):
        # x^T A = v 1^T and A y = v 1 with x, y completely mixed: the single
        # equilibrium is the same exact pair that minimax certifies.
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            x, y = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            one = np.ones(n)
            left, right = np.eye(n) - np.outer(one, x), np.eye(n) - np.outer(y, one)
            b = rng.uniform(-1.0, 1.0, size=(n, n))
            a = left @ b @ right + float(rng.uniform(-0.5, 0.5))
            game = matrix_game([a, -a])
            result = support_enumeration_bimatrix(game)
            _, row, col = minimax_zero_sum_matrix(game)
            assert len(result.equilibria) == 1 and not result.degenerate
            eq = result.equilibria[0]
            assert eq[0].probs[0].tolist() == row.tolist()
            assert eq[1].probs[0].tolist() == col.tolist()


class TestRestrictedBestResponse:
    def test_rps_vs_uniform_everything_optimal(self, rps_game):
        br = restricted_best_response(
            rps_game, 0, [Policy.uniform(1, 3)], FullSpace(1, 3)
        )
        assert br.value == pytest.approx(0.0, abs=1e-12)

    def test_rps_vs_skewed_face(self, rps_game):
        # Against (1/3, 1/2, 1/6) the per-action payoffs are (-1/3, 1/6, 1/6).
        opponent = Policy([[1 / 3, 0.5, 1 / 6]])
        br = restricted_best_response(rps_game, 0, [opponent], FullSpace(1, 3))
        assert br.value == pytest.approx(1 / 6, abs=1e-12)
        assert np.allclose(br.policy.probs[0], [0, 1, 0])  # lowest-index optimum
        assert "[1, 2]" in br.description

    def test_singleton(self, rps_game):
        pol = Policy([[0.2, 0.5, 0.3]])
        br = restricted_best_response(
            rps_game, 0, [Policy.uniform(1, 3)], Singleton(pol)
        )
        assert br.value == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(br.policy.probs, pol.probs)

    def test_hull_vertex_exact(self, rps_game, rps_column_hull):
        # Column's generators against a uniform row both score 0; against a
        # rock-heavy row the scissors-leaning generator loses more.
        rocky = Policy([[0.8, 0.1, 0.1]])
        br = restricted_best_response(rps_game, 1, [rocky], rps_column_hull)
        values = [
            float(g.probs[0] @ (rocky.probs[0] @ -rps_game.payoff_matrix(0)).T)
            for g in rps_column_hull.generators
        ]
        assert br.value == pytest.approx(max(values), abs=1e-12)

    def test_statewise_hull_dominates_samples(self, fact5):
        rng = np.random.default_rng(41)
        space = random_statewise_hull(rng, 3, 2, k=2)
        opponent = random_policy(rng, 3, 2)
        br = restricted_best_response(fact5, 0, [opponent], space)
        mdp = induce_mdp(fact5, 0, [opponent])
        best = mdp_policy_value(mdp, br.policy.probs)
        for _ in range(100):
            feasible = space.random_member(rng)
            values = mdp_policy_value(mdp, feasible.probs)
            assert np.all(values <= best + 1e-10)

    def test_full_space_multistate_policy_iteration(self, fact5):
        rng = np.random.default_rng(43)
        opponent = random_policy(rng, 3, 2)
        br = restricted_best_response(fact5, 0, [opponent], FullSpace(3, 2))
        mdp = induce_mdp(fact5, 0, [opponent])
        best = mdp_policy_value(mdp, br.policy.probs)
        for _ in range(50):
            other = random_policy(rng, 3, 2)
            assert np.all(mdp_policy_value(mdp, other.probs) <= best + 1e-10)

    def test_state_uniform_linear_row_is_exact(self, fact5):
        # The row player does not control transitions, so its tied-weight
        # value is linear and the optimum sits at a pure vertex.
        column = Policy.state_uniform(3, [0.7, 0.3])
        br = restricted_best_response(fact5, 0, [column], StateUniform(3, 2))
        mdp = induce_mdp(fact5, 0, [column])
        vertex_values = [
            mdp_policy_value(mdp, Policy.state_uniform(3, onehot).probs)[0]
            for onehot in ([1.0, 0.0], [0.0, 1.0])
        ]
        assert br.value == pytest.approx(max(vertex_values), abs=1e-10)

    def test_deterministic_only_enumeration(self, rps_game):
        opponent = Policy([[1 / 3, 0.5, 1 / 6]])
        br = restricted_best_response(rps_game, 0, [opponent], DeterministicOnly(1, 3))
        assert br.value == pytest.approx(1 / 6, abs=1e-12)

    @pytest.mark.parametrize("average", [False, True])
    def test_deterministic_multistate_matches_pure_enumeration(self, average):
        # Route (b) over the unit vectors against all |A|^|S| pure policies.
        rng = np.random.default_rng(83 if average else 79)
        for n_states in (2, 3, 4):
            game = random_game(
                rng, n_states=n_states, action_counts=(3, 2), average=average
            )
            opponent = [random_policy(rng, n_states, 2)]
            br = restricted_best_response(
                game, 0, opponent, DeterministicOnly(n_states, 3)
            )
            oracle = pure_policy_values(game, 0, opponent)
            assert set(br.policy.probs.ravel().tolist()) == {0.0, 1.0}
            choice = tuple(int(a) for a in br.policy.probs.argmax(axis=1))
            assert br.value == pytest.approx(max(oracle.values()), abs=1e-12)
            assert oracle[choice] == pytest.approx(br.value, abs=1e-12)

    def test_average_reward_statewise(self):
        rng = np.random.default_rng(47)
        game = random_game(rng, n_states=3, action_counts=(2, 2), average=True)
        opponent = random_policy(rng, 3, 2)
        br = restricted_best_response(game, 0, [opponent], FullSpace(3, 2))
        mdp = induce_mdp(game, 0, [opponent])
        for _ in range(50):
            other = random_policy(rng, 3, 2)
            assert mdp_policy_value(mdp, other.probs)[0] <= br.value + 1e-8

    def test_average_reward_response_with_transient_state(self):
        # Staying in s0 pays 1; going leads to s1, which returns to s0.  The
        # optimal response (always stay) leaves s1 transient.
        transition = np.zeros((2, 2, 2))
        transition[0, 0, 0] = 1.0
        transition[0, 1, 1] = 1.0
        transition[1, :, 0] = 1.0
        rewards = np.zeros((1, 2, 2))
        rewards[0, 0, 0] = 1.0
        game = StochasticGame(
            ("s0", "s1"), (("stay", "go"),), transition, rewards, "s0", Average()
        )
        br = restricted_best_response(game, 0, [], FullSpace(2, 2))
        assert br.value == pytest.approx(1.0, abs=1e-12)
        assert br.policy.probs[0].tolist() == [1.0, 0.0]

    def test_global_hull_beats_weight_grid(self):
        rng = np.random.default_rng(71)
        for _ in range(3):
            game = random_game(rng, n_states=4, action_counts=(3, 2), gamma=0.9)
            hull = random_global_hull(rng, 4, 3, k=3)
            opponent = [random_policy(rng, 4, 2)]
            br = restricted_best_response(game, 0, opponent, hull)
            assert br.value >= hull_grid_max(game, 0, opponent, hull, 0.02) - 1e-12
            mdp = induce_mdp(game, 0, opponent)
            own = mdp_policy_value(mdp, br.policy.probs)[mdp.initial_index]
            assert br.value == pytest.approx(own, abs=1e-10)
            assert br.tolerance > 0.0

    def test_global_hull_zoom_beats_fine_segment(self):
        # Two generators: the pairwise zoom must reach the maximum over a
        # 20,001-point segment, well below the 0.01 search grid.
        rng = np.random.default_rng(73)
        for _ in range(4):
            game = random_game(rng, n_states=3, action_counts=(2, 2), gamma=0.95)
            hull = random_global_hull(rng, 3, 2, k=2)
            opponent = [random_policy(rng, 3, 2)]
            br = restricted_best_response(game, 0, opponent, hull)
            assert br.value >= hull_grid_max(game, 0, opponent, hull, 5e-5) - 1e-12

    def test_pinned_space_multistate(self):
        rng = np.random.default_rng(53)
        game = random_game(rng, n_states=2, action_counts=(3, 2))
        space = FixedCoordinates(2, 3, ((0, 1, 0.5),))
        opponent = random_policy(rng, 2, 2)
        br = restricted_best_response(game, 0, [opponent], space)
        assert space.contains(br.policy, tol=1e-9)
        mdp = induce_mdp(game, 0, [opponent])
        for _ in range(50):
            other = space.random_member(rng)
            assert mdp_policy_value(mdp, other.probs)[0] <= br.value + 1e-10


class TestCheckEquilibrium:
    def test_rps_uniform_passes(self, rps_game):
        cert = check_equilibrium(
            rps_game,
            JointPolicy.uniform(rps_game),
            [FullSpace(1, 3), FullSpace(1, 3)],
            epsilon=1e-9,
        )
        assert cert.verdict
        assert max(cert.gaps) <= 1e-12

    def test_rock_rock_fails_with_unit_gaps(self, rps_game):
        joint = JointPolicy((Policy.pure(1, 3, [0]), Policy.pure(1, 3, [0])))
        cert = check_equilibrium(
            rps_game, joint, [FullSpace(1, 3), FullSpace(1, 3)], epsilon=1e-9
        )
        assert not cert.verdict
        assert cert.gaps == (1.0, 1.0)

    def test_singleton_spaces_always_pass(self, rps_game):
        rng = np.random.default_rng(59)
        for _ in range(5):
            joint = random_joint_policy(rng, rps_game)
            spaces = [Singleton(joint[0]), Singleton(joint[1])]
            cert = check_equilibrium(rps_game, joint, spaces, epsilon=1e-12)
            assert cert.verdict and max(cert.gaps) <= 1e-12

    def test_membership_precondition(self, rps_game, rps_column_hull):
        joint = JointPolicy.uniform(rps_game)
        with pytest.raises(MalformedInputError):
            check_equilibrium(
                rps_game, joint, [FullSpace(1, 3), rps_column_hull], epsilon=1e-9
            )

    def test_fact3_nash_inside_space_stays_equilibrium(self, rps_game, bos_game):
        """A Nash profile inside the restricted spaces is a restricted equilibrium."""
        uniform = JointPolicy.uniform(rps_game)
        containing = [
            [StateUniform(1, 3), StateUniform(1, 3)],
            [FixedCoordinates(1, 3, ((0, 0, 1 / 3),)), FullSpace(1, 3)],
            [
                ConvexHullGlobal((Policy([[1 / 3, 1 / 3, 1 / 3]]), Policy([[1, 0, 0]]))),
                FullSpace(1, 3),
            ],
        ]
        for spaces in containing:
            cert = check_equilibrium(rps_game, uniform, spaces, epsilon=1e-8)
            assert cert.verdict
        pure = JointPolicy((Policy.pure(1, 2, [0]), Policy.pure(1, 2, [0])))
        cert = check_equilibrium(
            bos_game, pure, [DeterministicOnly(1, 2), DeterministicOnly(1, 2)],
            epsilon=1e-9,
        )
        assert cert.verdict

    def test_certificate_serialization(self, rps_game):
        cert = check_equilibrium(
            rps_game,
            JointPolicy.uniform(rps_game),
            [FullSpace(1, 3), FullSpace(1, 3)],
            epsilon=1e-9,
        )
        data = certificate_to_dict(cert, rps_game)
        assert data["verdict"] is True
        assert data["epsilon"] == 1e-9
        assert len(data["gaps"]) == 2
        assert data["policy"][0]["s0"] == pytest.approx([1 / 3] * 3)


class TestEnumerateDeterministic:
    def test_rps_nine_failures_min_gap_one(self, rps_game):
        certs = enumerate_deterministic(rps_game, epsilon=0.5)
        assert len(certs) == 9
        assert all(not c.verdict for c in certs)
        assert min(c.max_gap for c in certs) == pytest.approx(1.0, abs=1e-9)

    def test_bos_two_pure_equilibria(self, bos_game):
        certs = enumerate_deterministic(bos_game, epsilon=1e-9)
        assert len(certs) == 4
        assert sum(1 for c in certs if c.verdict) == 2

    def test_single_action_trivial(self):
        game = matrix_game([np.zeros((1, 1)), np.zeros((1, 1))])
        certs = enumerate_deterministic(game, epsilon=1e-9)
        assert len(certs) == 1 and certs[0].verdict

    def test_size_bound(self):
        game = matrix_game([np.zeros((60, 60)), np.zeros((60, 60))])
        with pytest.raises(UnsupportedOperationError):
            enumerate_deterministic(game, epsilon=1e-9, max_profiles=1000)


class TestImplicitRoute:
    def test_restricted_rps(self, rps_game, rps_column_hull):
        sol = restricted_equilibrium_via_implicit(
            rps_game, [FullSpace(1, 3), rps_column_hull]
        )
        assert sol.value == pytest.approx(1 / 6, abs=1e-9)
        assert np.allclose(sol.explicit_joint[0].probs[0], [0, 1 / 3, 2 / 3], atol=1e-9)
        assert np.allclose(
            sol.explicit_joint[1].probs[0], [1 / 3, 0.5, 1 / 6], atol=1e-9
        )
        assert sol.certificate.verdict

    def test_restricted_blotto(self, blotto_game, blotto_row_hull):
        sol = restricted_equilibrium_via_implicit(
            blotto_game, [blotto_row_hull, FullSpace(1, 4)]
        )
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.weights[0], [0.5, 0.0, 0.5], atol=1e-9)
        assert np.allclose(sol.weights[1], [0.5, 0.0, 0.0, 0.5], atol=1e-9)
        assert sol.certificate.verdict

    def test_blotto_readings_share_value_zero(self):
        # Both readings of the restricted Blotto hull have value 0, so the
        # oracle recorded in the blotto-restricted summary cannot pick one.
        from sgl.experiments import blotto_interpretation_oracle

        readings = blotto_interpretation_oracle()
        assert sorted(readings) == ["independent_uniform", "uniform_over_splits"]
        for value in readings.values():
            assert abs(value) <= 1e-12

    def test_full_spaces_reduce_to_minimax(self, rps_game):
        sol = restricted_equilibrium_via_implicit(
            rps_game, [FullSpace(1, 3), FullSpace(1, 3)]
        )
        value, row, col = minimax_zero_sum_matrix(rps_game)
        assert sol.value == pytest.approx(value, abs=1e-12)
        assert np.allclose(sol.explicit_joint[0].probs[0], row, atol=1e-12)
        assert np.allclose(sol.explicit_joint[1].probs[0], col, atol=1e-12)

    def test_quarter_lattice_hulls_solve(self):
        # Integer games with lattice generators have degenerate implicit
        # games; every weight must come back sign-clean and certified.
        rng = np.random.default_rng(3)
        for _ in range(12):
            m, n = rng.integers(3, 9, size=2)
            a = rng.integers(-3, 4, size=(m, n)).astype(float)
            k = int(rng.integers(2, 5))
            gens = [rng.multinomial(4, np.ones(m) / m) / 4.0 for _ in range(k)]
            hull = ConvexHullGlobal(tuple(Policy(g[np.newaxis, :]) for g in gens))
            sol = restricted_equilibrium_via_implicit(
                matrix_game([a, -a]), [hull, FullSpace(1, int(n))]
            )
            assert sol.certificate.verdict
            assert all((w >= 0).all() for w in sol.weights)

    def test_rejects_general_sum(self, bos_game):
        with pytest.raises(UnsupportedOperationError):
            restricted_equilibrium_via_implicit(
                bos_game, [FullSpace(1, 2), FullSpace(1, 2)]
            )

    def test_rejects_nonconvex_space(self, rps_game):
        # Mixing the pure actions would leave the deterministic space.
        with pytest.raises(UnsupportedOperationError):
            restricted_equilibrium_via_implicit(
                rps_game, [DeterministicOnly(1, 3), FullSpace(1, 3)]
            )


class TestSweep:
    def test_rps_deterministic_min_gap_one(self, rps_game):
        spaces = [DeterministicOnly(1, 3), DeterministicOnly(1, 3)]
        result = sweep_existence(rps_game, spaces, resolution=1.0, epsilon=1e-9)
        assert len(result.rows) == 9
        assert result.min_max_gap == pytest.approx(1.0, abs=1e-9)
        assert not result.epsilon_equilibrium_found

    def test_fact4_hull_sweep_finds_equilibrium(self, rps_game, rps_column_hull):
        # The restricted equilibrium has lattice coordinates at thirds, so a
        # resolution-1/3 sweep lands on it exactly.
        spaces = [FullSpace(1, 3), rps_column_hull]
        result = sweep_existence(rps_game, spaces, resolution=1 / 3, epsilon=1e-6)
        assert result.min_max_gap <= 1e-6
        assert result.epsilon_equilibrium_found

    def test_fact5_positive_margin_at_coarse_resolution(self, fact5):
        spaces = [StateUniform(3, 2), StateUniform(3, 2)]
        result = sweep_existence(fact5, spaces, resolution=0.05, epsilon=1e-8)
        assert result.min_max_gap > 0
        assert result.margin > 0
        assert not result.epsilon_equilibrium_found

    @pytest.mark.parametrize("batch", [16, 2048])
    def test_fact5_rows_match_pointwise_loop(self, fact5, monkeypatch, batch):
        # A small batch size makes lattice chunks split mid-row.
        monkeypatch.setattr(solvers, "_BATCH", batch)
        spaces = [StateUniform(3, 2), StateUniform(3, 2)]
        result = sweep_existence(fact5, spaces, resolution=0.1, epsilon=1e-8)
        assert result.rows == reference_sweep_rows(fact5, spaces, 0.1)

    def test_hull_rows_match_pointwise_loop(self, rps_game, rps_column_hull):
        spaces = [FullSpace(1, 3), rps_column_hull]
        result = sweep_existence(rps_game, spaces, resolution=0.25, epsilon=1e-6)
        assert result.rows == reference_sweep_rows(rps_game, spaces, 0.25)

    def test_dimension_guard(self, fact5):
        spaces = [FullSpace(3, 2), FullSpace(3, 2)]  # 3 + 3 parameters
        with pytest.raises(UnsupportedOperationError):
            sweep_existence(fact5, spaces, resolution=0.5, epsilon=1e-9)

    def test_csv_round_trip(self, tmp_path, rps_game):
        from sgl.solvers import sweep_to_csv
        import csv as csv_mod

        spaces = [DeterministicOnly(1, 3), DeterministicOnly(1, 3)]
        result = sweep_existence(rps_game, spaces, resolution=1.0, epsilon=1e-9)
        path = tmp_path / "sweep.csv"
        sweep_to_csv(result, path)
        with open(path) as fh:
            rows = list(csv_mod.reader(fh))
        assert rows[0] == list(result.header)
        assert len(rows) == 10
        recovered = [float(r[-1]) for r in rows[1:]]
        assert min(recovered) == pytest.approx(result.min_max_gap, abs=0)


class TestBestResponseConvexity:
    def test_no_control_games_true(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            game = random_game(
                rng, n_states=3, action_counts=(2, 2), no_control=True,
                average=bool(rng.integers(0, 2)),
            )
            space = random_global_hull(rng, 3, 2, k=int(rng.integers(2, 4)))
            opponent = [random_policy(rng, 3, 2)]
            assert best_response_convexity_test(game, 0, opponent, space, seed=1)

    def test_matrix_games_true(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            game = random_game(rng, n_states=1, action_counts=(3, 2))
            space = random_global_hull(rng, 1, 3, k=2)
            opponent = [random_policy(rng, 1, 2)]
            assert best_response_convexity_test(game, 0, opponent, space, seed=1)

    def test_fact5_column_nonconvex(self, fact5):
        row_half = Policy.state_uniform(3, [0.5, 0.5])
        assert not best_response_convexity_test(
            fact5, 1, [row_half], StateUniform(3, 2), seed=1
        )

    def test_fact5_row_convex(self, fact5):
        col_half = Policy.state_uniform(3, [0.5, 0.5])
        assert best_response_convexity_test(
            fact5, 0, [col_half], StateUniform(3, 2), seed=1
        )

    def test_rejects_nonconvex_space(self, rps_game):
        with pytest.raises(UnsupportedOperationError):
            best_response_convexity_test(
                rps_game, 0, [Policy.uniform(1, 3)], DeterministicOnly(1, 3)
            )


class TestTeamAndControllerProperties:
    def test_team_grid_argmax_is_equilibrium(self):
        """Grid-maximizing one player's value certifies a team equilibrium."""
        rng = np.random.default_rng(71)
        for _ in range(6):
            game = random_game(rng, n_states=2, action_counts=(2, 2), team=True)
            spaces = [random_global_hull(rng, 2, 2, k=2) for _ in range(2)]
            grids = [sp.param_points(0.05) for sp in spaces]
            best_value, best_joint = -np.inf, None
            lattice = np.zeros((len(grids[0]), len(grids[1])))
            for a, (_, pa) in enumerate(grids[0]):
                for b, (_, pb) in enumerate(grids[1]):
                    joint = JointPolicy((pa, pb))
                    value = float(policy_value(game, joint)[0])
                    lattice[a, b] = value
                    if value > best_value:
                        best_value, best_joint = value, joint
            bound = max(
                np.abs(np.diff(lattice, axis=0)).max(),
                np.abs(np.diff(lattice, axis=1)).max(),
            )
            cert = check_equilibrium(game, best_joint, spaces, epsilon=bound + 1e-9)
            assert cert.verdict

    def test_single_controller_alternating_best_responses(self):
        """Alternating exact best responses reach an equilibrium from some start."""
        rng = np.random.default_rng(73)
        found = 0
        for k in range(8):
            game = random_game(rng, n_states=2, action_counts=(2, 2), controller=0)
            spaces = [
                random_statewise_hull(rng, 2, 2, k=2),
                random_global_hull(rng, 2, 2, k=2),
            ]
            for start in range(10):
                cert = alternating_best_response(
                    game, spaces, epsilon=1e-6, seed=1000 * k + start, max_rounds=60
                )
                if cert.verdict:
                    found += 1
                    break
        assert found == 8

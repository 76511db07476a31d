"""Equilibrium solvers against hand-derived and brute-force oracles."""

import hashlib
import itertools
import sys
import weakref
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
    blotto_4_3,
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
    random_average_mdp,
    random_game,
    random_global_hull,
    random_joint_policy,
    random_policy,
    random_statewise_hull,
    reference_best_gains,
    reference_exact_lexmin,
    reference_gain_bias_lp,
    reference_gains,
    reference_minimax,
    reference_support_enumeration,
    reference_sweep_rows,
    reference_weight_best_response,
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


def _count_lps(monkeypatch, record) -> None:
    """Replaces every binding of scipy's linprog in an sgl module by one that
    calls ``record`` with the module's short name first."""
    for name, module in list(sys.modules.items()):
        if name.startswith("sgl.") and getattr(module, "linprog", None) is linprog:
            def counting(*args, _name=name.removeprefix("sgl."), **kwargs):
                record(_name)
                return linprog(*args, **kwargs)
            monkeypatch.setattr(module, "linprog", counting)


@pytest.fixture
def linprog_calls(monkeypatch):
    """Counts the LPs that any sgl module hands to scipy."""
    calls = []
    _count_lps(monkeypatch, calls.append)
    return calls


def _pinned_games() -> list[StochasticGame]:
    """The 25 integer games, 1,500 uniform games from default_rng(41), 400
    integer games in -2..2 from default_rng(2024), Blotto and RPS."""
    out = [matrix_game([m, -m]) for m in _integer_games()]
    rng = np.random.default_rng(41)
    for _ in range(1500):
        m = rng.uniform(-1.0, 1.0, size=tuple(rng.integers(3, 9, size=2)))
        out.append(matrix_game([m, -m]))
    rng = np.random.default_rng(2024)
    for _ in range(400):
        m = rng.integers(-2, 3, size=tuple(rng.integers(2, 9, size=2))).astype(float)
        out.append(matrix_game([m, -m]))
    return out + [blotto_4_3(), rps()]


def _floats(strategy) -> list[float]:
    return [float(p) for p in strategy]


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
        # The recipe of a planted game: x^T A = v 1^T and A y = v 1.  The
        # exact simplex takes no LP, and its answer is the exact one.
        rng = np.random.default_rng(7)
        x, y = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        v = float(rng.uniform(-0.5, 0.5))
        one = np.ones(6)
        b = rng.uniform(-1.0, 1.0, size=(6, 6))
        a = (np.eye(6) - np.outer(one, x)) @ b @ (np.eye(6) - np.outer(y, one)) + v
        value, row, col = minimax_zero_sum_matrix(matrix_game([a, -a]))
        assert linprog_calls == []
        ref_value, ref_row, ref_col = reference_exact_lexmin(a)
        assert value == float(ref_value)
        assert row.tolist() == _floats(ref_row) and col.tolist() == _floats(ref_col)
        assert value == pytest.approx(v, abs=1e-12)
        assert np.allclose(row, x, atol=1e-12) and np.allclose(col, y, atol=1e-12)

    def test_blotto_lexmin_only_on_the_wide_side(self, blotto_game, linprog_calls):
        # The row optimum is unique; the column optima form a segment, whose
        # lexicographically least vertex the simplex returns exactly, and
        # without an LP.
        value, row, col = minimax_zero_sum_matrix(blotto_game)
        assert linprog_calls == []
        assert value == float(Fraction(14, 9))
        assert row.tolist() == _floats([Fraction(4, 9), 0, Fraction(1, 9), 0, Fraction(4, 9)])
        assert col.tolist() == _floats(
            [Fraction(1, 30), Fraction(8, 15), Fraction(16, 45), Fraction(7, 90)]
        )

    def test_lexmin_lps_only_on_tight_rows(self):
        # By complementary slackness every optimal strategy is zero off the
        # rows tight against an optimal opponent strategy, so the returned
        # strategies are zero there; they are the exact oracle's
        # lexicographically least optimal strategies, wide optimal sets
        # included.
        for m in _integer_games():
            value, row, col = minimax_zero_sum_matrix(matrix_game([m, -m]))
            ref_value, ref_row, ref_col = reference_exact_lexmin(m)
            a = m.astype(int).tolist()
            row_pay = [sum(e * q for e, q in zip(r, ref_col)) for r in a]
            col_pay = [sum(p * r[j] for p, r in zip(ref_row, a)) for j in range(m.shape[1])]
            assert max(row_pay) == ref_value == min(col_pay)
            assert all(p == 0.0 for p, u in zip(row, row_pay) if u < ref_value)
            assert all(q == 0.0 for q, u in zip(col, col_pay) if u > ref_value)
            assert value == float(ref_value)
            assert row.tolist() == _floats(ref_row) and col.tolist() == _floats(ref_col)

    def test_tampered_lp_never_passes_unchecked(self, monkeypatch):
        # Tampered simplex numerators must fail the exact certificate: off
        # the simplex on integer games, and moved by one unit, so still on
        # it, on uniform games, whose optimal strategies are unique.
        lexmin = solvers._lexmin_minimizer

        def off_simplex(p):
            w, total = lexmin(p)
            return [w[0] + 1] + w[1:], total

        def moved(p):
            w, total = lexmin(p)
            i = w.index(max(w))
            w[i] -= 1
            w[(i + 1) % len(w)] += 1
            return w, total

        rng = np.random.default_rng(11)
        uniform = [rng.uniform(-1, 1, size=(5, 6)) for _ in range(8)]
        for tamper, games in ((off_simplex, _integer_games()[:8]), (moved, uniform)):
            monkeypatch.setattr(solvers, "_lexmin_minimizer", tamper)
            for m in games:
                with pytest.raises(ArithmeticError):
                    minimax_zero_sum_matrix(matrix_game([m, -m]))

    def test_extreme_magnitudes_solved_exactly(self):
        # Payoffs near the ends of the float range: exact integers scale them
        # without loss, where a float LP's tolerances or model checks fail.
        pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
        eps, big = Fraction(1e-300), Fraction(10**10)
        mixed = (big + 1) / (big + 2 - eps)
        cases = [
            (pennies * 1e-300, Fraction(0), [Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2),
            (pennies * 1e300, Fraction(0), [Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2),
            (np.array([[1e-300, 1.0], [1.0, -1e10]]), (1 + big * eps) / (big + 2 - eps),
             [mixed, 1 - mixed], [mixed, 1 - mixed]),
        ]
        for m, want_value, want_row, want_col in cases:
            value, row, col = minimax_zero_sum_matrix(matrix_game([m, -m]))
            assert value == float(want_value)
            assert row.tolist() == _floats(want_row) and col.tolist() == _floats(want_col)
            a, scale = solvers._integer_matrix(m)
            b = [[-e for e in column] for column in zip(*a)]
            cert = solvers._certify(
                a, b, solvers._lexmin_minimizer(b), solvers._lexmin_minimizer(a)
            )
            assert cert is not None and cert[0] / scale == want_value

    def test_outputs_pinned(self):
        # Value and strategy bytes of 1,927 games, pinned to those of the
        # LP-based solver the exact simplex replaced.
        digest = hashlib.sha256()
        for game in _pinned_games():
            value, row, col = minimax_zero_sum_matrix(game)
            digest.update(np.float64(value).tobytes() + row.tobytes() + col.tobytes())
        assert digest.hexdigest() == (
            "c71ee96e680691b0d57e49312ea1286c6bc8951c2cabda1264749677409ca59a"
        )

    def test_matches_exact_oracle_on_small_integer_games(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            m = rng.integers(-2, 3, size=tuple(rng.integers(1, 5, size=2))).astype(float)
            value, row, col = minimax_zero_sum_matrix(matrix_game([m, -m]))
            ref_value, ref_row, ref_col = reference_exact_lexmin(m)
            assert value == float(ref_value)
            assert row.tolist() == _floats(ref_row) and col.tolist() == _floats(ref_col)


class TestNonFiniteRewards:
    """A game built directly with an infinite payoff reaches the matrix
    solvers unchecked; both must name the fault, not fail on it."""

    @staticmethod
    def _game(m):
        return StochasticGame(("s0",), (("a0", "a1"), ("b0", "b1")), np.ones((1, 4, 1)),
                              np.stack([m.reshape(1, 4), -m.reshape(1, 4)]), "s0",
                              Average())

    def test_support_enumeration(self):
        game = self._game(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(MalformedInputError, match="non-finite reward entries"):
            support_enumeration_bimatrix(game)

    def test_minimax(self):
        game = self._game(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(MalformedInputError, match="non-finite reward entries"):
            minimax_zero_sum_matrix(game)

    def test_matrix_game_rejects_at_build(self):
        m = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(MalformedInputError, match="non-finite reward entries"):
            matrix_game([m, np.zeros((2, 2))])
        with pytest.raises(MalformedInputError, match="non-finite reward entries"):
            matrix_game([np.array([[np.nan, 0.0], [0.0, 1.0]]), -m])


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

    def test_outputs_pinned(self):
        # Equilibria bytes and degenerate flags of 300 seeded games of 1-5
        # actions a side, with integer and with real payoffs.
        rng = np.random.default_rng(31)
        digest = hashlib.sha256()
        for g in range(300):
            shape = tuple(int(x) for x in rng.integers(1, 6, size=2))
            if g % 2:
                a, b = (rng.integers(-3, 4, size=shape).astype(float) for _ in "ab")
            else:
                a, b = (rng.uniform(-1.0, 1.0, size=shape) for _ in "ab")
            result = support_enumeration_bimatrix(matrix_game([a, b]))
            for eq in result.equilibria:
                digest.update(eq[0].probs.tobytes() + eq[1].probs.tobytes())
            digest.update(bytes([len(result.equilibria), result.degenerate]))
        assert digest.hexdigest() == (
            "fd8009a7b2d3a6f0a11e3dd24c91d120295c6601148602fad4e6485d08b0ec7c"
        )


class TestRestrictedBestResponse:
    def test_route_b_outputs_pinned(self):
        # Value, policy bytes and description of 360 seeded route-(b)
        # queries on 2-7 states, discounted and average reward (a quarter of
        # them one-player MDPs whose chains may split), each with the full
        # space, a statewise hull and the deterministic space.
        rng = np.random.default_rng(27)
        digest = hashlib.sha256()
        for q in range(360):
            n, k = int(rng.integers(2, 8)), int(rng.integers(2, 4))
            if q % 4 == 3:
                game, others = random_average_mdp(rng, n, k), []
            else:
                gamma = float(rng.uniform(0.5, 0.99))
                game = random_game(rng, n, (k, 2), gamma=gamma, average=q % 4 == 2)
                others = [random_policy(rng, n, 2)]
            if q % 3 == 0:
                space = FullSpace(n, k)
            elif q % 3 == 1:
                space = random_statewise_hull(rng, n, k, int(rng.integers(1, 4)))
            else:
                space = DeterministicOnly(n, k)
            br = restricted_best_response(game, 0, others, space)
            digest.update(np.float64(br.value).tobytes() + br.policy.probs.tobytes())
            digest.update(br.description.encode())
        assert digest.hexdigest() == (
            "0a4d9db7e5078c4beb01ea59e1b9a7af2d0d4f59e0fc111d134b83dd4b26be1c"
        )

    def test_route_b_refuses_what_policy_value_refuses(self):
        # At gamma = 1 - 1e-13 the Bellman residual of a 4-state solve is
        # above VALUE_TOL: route (b)'s evaluations are values' checked ones,
        # so it refuses the games policy_value refuses, and answers at 0.9.
        for gamma, refused in ((1 - 1e-13, True), (0.9, False)):
            rng = np.random.default_rng(53)
            for _ in range(20):
                game = random_game(rng, 4, (2, 2), gamma=gamma)
                joint = random_joint_policy(rng, game)
                if refused:
                    with pytest.raises(ArithmeticError):
                        policy_value(game, joint)
                    with pytest.raises(ArithmeticError):
                        restricted_best_response(game, 0, [joint[1]], FullSpace(4, 2))
                else:
                    br = restricted_best_response(game, 0, [joint[1]], FullSpace(4, 2))
                    assert br.value >= policy_value(game, joint)[0] - 1e-9

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
        mdp = induce_mdp(fact5, 0, [opponent.probs])
        best = mdp_policy_value(mdp, br.policy.probs)
        for _ in range(100):
            feasible = space.random_member(rng)
            values = mdp_policy_value(mdp, feasible.probs)
            assert np.all(values <= best + 1e-10)

    def test_full_space_multistate_policy_iteration(self, fact5):
        rng = np.random.default_rng(43)
        opponent = random_policy(rng, 3, 2)
        br = restricted_best_response(fact5, 0, [opponent], FullSpace(3, 2))
        mdp = induce_mdp(fact5, 0, [opponent.probs])
        best = mdp_policy_value(mdp, br.policy.probs)
        for _ in range(50):
            other = random_policy(rng, 3, 2)
            assert np.all(mdp_policy_value(mdp, other.probs) <= best + 1e-10)

    def test_state_uniform_linear_row_is_exact(self, fact5):
        # The row player does not control transitions, so its tied-weight
        # value is linear and the optimum sits at a pure vertex.
        column = Policy.state_uniform(3, [0.7, 0.3])
        br = restricted_best_response(fact5, 0, [column], StateUniform(3, 2))
        mdp = induce_mdp(fact5, 0, [column.probs])
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
        mdp = induce_mdp(game, 0, [opponent.probs])
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
            mdp = induce_mdp(game, 0, [p.probs for p in opponent])
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
        mdp = induce_mdp(game, 0, [opponent.probs])
        for _ in range(50):
            other = space.random_member(rng)
            assert mdp_policy_value(mdp, other.probs)[0] <= br.value + 1e-10


def _two_state_game(moves: dict) -> StochasticGame:
    """One player, states s0 and s1, actions 0 and 1, average reward:
    ``moves[(state, action)]`` is (next state, reward)."""
    transition = np.zeros((2, 2, 2))
    rewards = np.zeros((1, 2, 2))
    for (s, a), (dst, reward) in moves.items():
        transition[s, a, dst] = 1.0
        rewards[0, s, a] = reward
    return StochasticGame(("s0", "s1"), (("a0", "a1"),), transition, rewards, "s0", Average())


@pytest.fixture
def module_lp_calls(monkeypatch):
    """Counts the LPs that each sgl module hands to scipy, by module; the
    solvers and restrictions entries are always there."""
    calls = {"solvers": [], "restrictions": []}
    _count_lps(monkeypatch, lambda name: calls.setdefault(name, []).append(1))
    return calls


class TestAverageRouteB:
    """Average-reward route (b) is Howard's policy iteration: it takes no LP,
    a choice whose chain has several closed classes takes the multichain
    step instead of failing, and the value it reports is the chosen chain's
    gain at the initial state, from the iteration's own last evaluation."""

    @staticmethod
    def _mdps() -> list[StochasticGame]:
        rng = np.random.default_rng(61)
        return [
            random_average_mdp(rng, int(rng.integers(2, 7)), int(rng.integers(2, 4)))
            for _ in range(240)
        ]

    def test_never_below_gain_bias_lp(self):
        # The unichain gain/bias LP that route (b) used before is exact only
        # when its lowest-index tie-break lands on an optimal choice; at an
        # absorbing or transient state it can pick a worse one.  Policy
        # iteration must equal its choice when that is optimal and beat it
        # when it is not, and reach the best gain.
        agree = short = state_dependent = 0
        for game in self._mdps():
            n, k = game.n_states, game.action_counts[0]
            mdp = induce_mdp(game, 0, [])
            choice = reference_gain_bias_lp(list(mdp.reward), list(mdp.transition))
            want = mdp_policy_value(mdp, np.eye(k)[choice])[game.initial_index]
            best = reference_best_gains(game)
            # Where the best gain depends on the state, only a choice with
            # several closed classes is optimal at every state; the value is
            # still the initial state's best gain.
            state_dependent += np.ptp(best) > 1e-9
            best = best[game.initial_index]
            br = restricted_best_response(game, 0, [], FullSpace(n, k))
            assert br.value == pytest.approx(best, abs=1e-9)
            if abs(want - best) <= 1e-9:
                assert br.value == pytest.approx(want, abs=1e-9)
                agree += 1
            else:
                assert want < br.value
                short += 1
        assert agree >= 100 and short >= 1 and state_dependent >= 30

    def test_attains_every_state_best_gain(self):
        # Multichain MDPs too, where no unichain LP applies: the choice and
        # the gains returned with it are optimal at every state.
        multichain = 0
        for game in self._mdps():
            n = game.n_states
            t, r = game.transition, game.rewards[0]
            choice, gains = solvers._policy_iteration(Average(), list(r), list(t))
            rows = np.arange(n)
            got = reference_gains(t[rows, choice][np.newaxis], r[rows, choice][np.newaxis])[0]
            best = reference_best_gains(game)
            assert np.allclose(got, best, rtol=0.0, atol=1e-9)
            assert np.allclose(gains, best, rtol=0.0, atol=1e-9)
            multichain += np.ptp(best) > 1e-6
        assert multichain >= 20

    def test_go_stay_game(self):
        # (stay, stay), the first choice visited, has two closed classes.
        game = _two_state_game({(0, 0): (0, 0.0), (0, 1): (1, 0.0),
                                (1, 0): (1, 0.0), (1, 1): (0, 1.0)})
        br = restricted_best_response(game, 0, [], FullSpace(2, 2))
        assert br.value == 0.5
        assert br.policy.probs.tolist() == [[0.0, 1.0], [0.0, 1.0]]

    def test_stay_switch_game(self):
        # Staying in s0 pays 1.  Both (stay, stay) and (stay, switch) have
        # gain 1 from s0, but only the second is unichain; the gain/bias LP
        # picked the first, whose value then failed the unichain check.
        game = _two_state_game({(0, 0): (0, 1.0), (0, 1): (1, 0.0),
                                (1, 0): (1, 0.0), (1, 1): (0, 0.0)})
        br = restricted_best_response(game, 0, [], FullSpace(2, 2))
        assert br.value == 1.0
        assert br.policy.probs.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_takes_no_lp(self, module_lp_calls):
        rng = np.random.default_rng(67)
        game = random_game(rng, n_states=4, action_counts=(3, 2), average=True)
        opponent = [random_policy(rng, 4, 2)]
        for space in (FullSpace(4, 3), random_statewise_hull(rng, 4, 3),
                      DeterministicOnly(4, 3)):
            restricted_best_response(game, 0, opponent, space)
        assert module_lp_calls == {"solvers": [], "restrictions": []}


class TestLockstepRouteC:
    """Route (c) answers many opponent profiles in lockstep; every answer must
    be bit-identical to asking it alone and to the one-query reference."""

    @staticmethod
    def _key(br):
        return (br.value, br.tolerance, br.description, br.policy.probs.tobytes())

    @staticmethod
    def _tables(profiles):
        return [[policy.probs for policy in others] for others in profiles]

    def _check(self, game, hull, profiles):
        together = solvers._best_responses(game, 0, self._tables(profiles), hull)
        alone = [restricted_best_response(game, 0, others, hull) for others in profiles]
        assert [self._key(br) for br in together] == [self._key(br) for br in alone]
        for br, others in zip(together, profiles):
            value, tolerance, w = reference_weight_best_response(game, 0, others, hull)
            assert (br.value, br.tolerance) == (value, tolerance)
            assert br.policy.probs.tobytes() == hull.policy_of_weights(w).probs.tobytes()
        return together

    @pytest.mark.parametrize("batch", [16, 2048])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("average", [False, True], ids=["discounted", "average"])
    def test_together_matches_alone_and_reference(self, monkeypatch, batch, k, average):
        monkeypatch.setattr(solvers, "_BATCH", batch)
        if batch == 16:
            # Solves then split a query's grid and its zoom levels, and the
            # queries' grids are taken one or two queries at a time.
            monkeypatch.setattr(solvers, "_GRID_VALUES", 50)
        if batch == 16 or k == 4:
            # A coarser grid keeps the test fast: 1,771 points for k = 4
            # instead of 176,851.
            monkeypatch.setattr(solvers, "_GRID_STEP", 0.05)
        rng = np.random.default_rng(80 + k + 10 * average)
        game = random_game(rng, n_states=4, action_counts=(3, 2), average=average)
        hull = random_global_hull(rng, 4, 3, k=k)
        profiles = [[random_policy(rng, 4, 2)] for _ in range(5)]
        self._check(game, hull, profiles)

    def test_row_values_do_not_depend_on_chunking(self, monkeypatch):
        # With 16 policies per solve, chunks split queries' runs anywhere and
        # runs of one row occur; no chunk may hold a single row, which numpy
        # would blend on another BLAS path.  Each row must match its value
        # in a solve of that row twice over.
        monkeypatch.setattr(solvers, "_BATCH", 16)
        rng = np.random.default_rng(87)
        game = random_game(rng, n_states=4, action_counts=(3, 2))
        hull = random_global_hull(rng, 4, 3, k=3)
        mdps = [induce_mdp(game, 0, [random_policy(rng, 4, 2).probs]) for _ in range(2)]
        value_of = solvers._hull_values(hull, mdps)
        weights = rng.dirichlet(np.ones(3), size=(3, 49))

        def alone(q, w):
            return value_of(np.array([q]), np.stack([w, w])[np.newaxis])[0, 0]

        for owner in ([0, 1], [1, 0, 1], [1]):
            for n in (1, 8, 17, 33, 49):
                got = value_of(np.array(owner), weights[:len(owner), :n])
                want = [[alone(q, w) for w in weights[r, :n]] for r, q in enumerate(owner)]
                assert got.tobytes() == np.array(want).tobytes()

    def test_massless_pair_and_early_stop(self, monkeypatch):
        # Against an opponent that always plays its action 0, the pure
        # generator g0 earns 10 per step and wins outright: that query's grid
        # optimum is the vertex (1, 0, 0), its pair (1, 2) has no mass, and
        # its first pass improves nothing, so it stops while queries against
        # opponents that mostly play action 1 go on to later passes.
        rng = np.random.default_rng(98)
        game = random_game(rng, n_states=4, action_counts=(3, 2))
        rewards = np.array(game.rewards)
        rewards[0, :, 0] = 10.0  # flat joint action 0 = (action 0, action 0)
        game = StochasticGame(game.states, game.action_sets, game.transition,
                              rewards, game.initial_state, game.formulation)
        pure = Policy(np.tile([1.0, 0.0, 0.0], (4, 1)))
        hull = ConvexHullGlobal((pure, random_policy(rng, 4, 3), random_policy(rng, 4, 3)))
        profiles = [[Policy.pure(4, 2, [0, 0, 0, 0])]]
        profiles += [[Policy(rng.dirichlet([0.1, 5.0], size=4))] for _ in range(3)]
        zoomed = []
        real = solvers._pair_zooms

        def spy(value_of, owner, w, i, j):
            zoomed.append(owner.tolist())
            return real(value_of, owner, w, i, j)

        monkeypatch.setattr(solvers, "_pair_zooms", spy)
        solvers._best_responses(game, 0, self._tables(profiles), hull)
        monkeypatch.setattr(solvers, "_pair_zooms", real)
        together = self._check(game, hull, profiles)
        assert together[0].description == "shared weights [1.0, 0.0, 0.0] over 3 generators"
        # Query 0 zooms pairs (0, 1) and (0, 2) of pass 1 only; some other
        # query zooms in a later pass.
        assert sum(0 in call for call in zoomed) == 2
        assert any(sum(q in call for call in zoomed) > 3 for q in (1, 2, 3))


    def test_many_states_hold_bounded_memory(self, monkeypatch):
        # Route (c) takes its queries in groups and contracts each query's
        # run of rows with that query's own MDP: no solve holds more than
        # _BATCH policies, and at most two groups of _BATCH // |A| induced
        # MDPs are alive at once, however many queries there are.
        monkeypatch.setattr(solvers, "_BATCH", 32)
        rng = np.random.default_rng(91)
        game = random_game(rng, n_states=12, action_counts=(3, 2))
        hull = random_global_hull(rng, 12, 3, k=2)
        profiles = [[random_policy(rng, 12, 2)] for _ in range(40)]
        alive, peak, solved = set(), [0], []
        real_induce, real_run = solvers.induce_mdp, solvers.mdp_run_values

        def induce(*args):
            mdp = real_induce(*args)
            alive.add(id(mdp))
            peak[0] = max(peak[0], len(alive))
            weakref.finalize(mdp, alive.discard, id(mdp))
            return mdp

        def run_values(mdps, cuts, probs):
            solved.append(len(probs))
            return real_run(mdps, cuts, probs)

        monkeypatch.setattr(solvers, "induce_mdp", induce)
        monkeypatch.setattr(solvers, "mdp_run_values", run_values)
        solvers._best_responses(game, 0, self._tables(profiles), hull)
        assert max(solved) <= 32
        assert 32 // 3 < peak[0] <= 2 * (32 // 3)
        monkeypatch.setattr(solvers, "induce_mdp", real_induce)
        monkeypatch.setattr(solvers, "mdp_run_values", real_run)
        self._check(game, hull, profiles)

    def test_many_state_sweep_matches_pointwise_loop(self, monkeypatch):
        # Eleven opponent keys per player in groups of 16 // 2 = 8 queries.
        monkeypatch.setattr(solvers, "_BATCH", 16)
        rng = np.random.default_rng(92)
        game = random_game(rng, n_states=12, action_counts=(2, 2))
        spaces = [StateUniform(12, 2), StateUniform(12, 2)]
        result = sweep_existence(game, spaces, resolution=0.1, epsilon=1e-8)
        assert result.rows == reference_sweep_rows(game, spaces, 0.1)


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

    def test_takes_no_membership_lp(self, rps_game, rps_column_hull, module_lp_calls):
        # The explicit joint is a blend of each space's own vertices, so the
        # certificate needs no membership LP: every LP is the implicit
        # game's minimax, and the gaps are check_equilibrium's.
        spaces = [FullSpace(1, 3), rps_column_hull]
        sol = restricted_equilibrium_via_implicit(rps_game, spaces)
        assert module_lp_calls["restrictions"] == []
        taken = len(module_lp_calls["solvers"])
        minimax_zero_sum_matrix(sol.implicit)
        assert len(module_lp_calls["solvers"]) == 2 * taken
        checked = check_equilibrium(rps_game, sol.explicit_joint, spaces, 1e-8)
        assert len(module_lp_calls["restrictions"]) == 1
        assert checked.gaps == sol.certificate.gaps

    def test_outputs_pinned(self):
        # Value, weight and explicit strategy bytes of 200 seeded one-state
        # games: global or statewise row hulls against the full column space
        # or a statewise column hull, with real and with integer payoffs.
        rng = np.random.default_rng(26)
        digest = hashlib.sha256()
        for k in range(200):
            m, n = (int(x) for x in rng.integers(2, 7, size=2))
            if k % 3 == 0:
                a = rng.integers(-3, 4, size=(m, n)).astype(float)
            else:
                a = rng.uniform(-1.0, 1.0, size=(m, n))
            row_hull = random_global_hull if k % 2 else random_statewise_hull
            rows = row_hull(rng, 1, m, int(rng.integers(1, 5)))
            cols = (
                FullSpace(1, n) if k % 4 < 2
                else random_statewise_hull(rng, 1, n, int(rng.integers(1, 5)))
            )
            sol = restricted_equilibrium_via_implicit(matrix_game([a, -a]), [rows, cols])
            digest.update(np.float64(sol.value).tobytes())
            for w, policy in zip(sol.weights, sol.explicit_joint.policies):
                digest.update(w.tobytes() + policy.probs.tobytes())
        assert digest.hexdigest() == (
            "d79d5efbea25f6414e68d167dca236b8bf26852a1c0a50425c4c34e4d77bfbe1"
        )

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

    @staticmethod
    def _assert_only_argmin_policies_built(monkeypatch, game, spaces):
        built = []
        validate = Policy.__post_init__

        def counted(policy):
            built.append(policy)
            validate(policy)

        monkeypatch.setattr(Policy, "__post_init__", counted)
        result = sweep_existence(game, spaces, 0.05, 1e-8)
        assert len(built) <= 2
        assert result.argmin_joint.policies == tuple(built)

    def test_sweep_builds_only_the_argmin_policies(self, monkeypatch):
        # The lattice, the opponent profiles and route (c)'s answers stay
        # arrays; only the argmin's joint policy is a validated Policy.
        self._assert_only_argmin_policies_built(
            monkeypatch, fact5_game(), [StateUniform(3, 2)] * 2
        )

    def test_full_space_sweep_builds_only_the_argmin_policies(self, monkeypatch):
        # Route (a)'s vertex array stays an array too.
        self._assert_only_argmin_policies_built(
            monkeypatch, rps(), [FullSpace(1, 3)] * 2
        )

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

    @pytest.mark.parametrize("resolution", [0.0, -0.5, 1.5, float("nan")])
    def test_resolution_outside_unit_interval_rejected(self, rps_game, resolution):
        spaces = [DeterministicOnly(1, 3), DeterministicOnly(1, 3)]
        with pytest.raises(MalformedInputError):
            sweep_existence(rps_game, spaces, resolution=resolution, epsilon=1e-9)

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

    def test_csv_bytes_match_csv_writer(self, tmp_path, fact5):
        import csv as csv_mod
        import dataclasses

        from sgl.solvers import sweep_to_csv

        spaces = [StateUniform(3, 2), StateUniform(3, 2)]
        result = sweep_existence(fact5, spaces, resolution=0.25, epsilon=1e-8)
        # Two more lattice points per player and 24 more gap rows beside the
        # real ones: signed zeros, small and huge exponents, the least
        # subnormal, and ties between the two gaps whose texts differ.
        params = (np.vstack([result.params[0], [[-0.0], [1e-05]]]),
                  np.vstack([result.params[1], [[2.5e-07], [1e300]]]))
        special = [(-0.0, 0.0), (0.0, -0.0), (1e-05, 1e-05), (5e-324, 0.0),
                   (1e300, 5e-324), (-0.0, -0.0), (0.0, 1e-05), (1e300, 1e300)]
        gaps = np.vstack([result.gaps, special * 3])
        result = dataclasses.replace(result, params=params, gaps=gaps)
        # The rows built here from the columns, max(g) being g's first maximum.
        points = list(itertools.product(params[0].tolist(), params[1].tolist()))
        rows = [(*p0, *p1, *g, max(g)) for (p0, p1), g in zip(points, gaps.tolist())]
        assert len(rows) == 49 and result.rows == rows
        path = tmp_path / "sweep.csv"
        sweep_to_csv(result, path)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            writer = csv_mod.writer(fh)
            writer.writerow(result.header)
            for row in rows:
                writer.writerow([repr(float(x)) for x in row])
        assert path.read_bytes() == reference.read_bytes()
        text = path.read_bytes()
        for line in (b"\r\n-0.0,1e+300,", b"\r\n1e-05,2.5e-07,", b",-0.0,0.0,-0.0\r\n",
                     b",0.0,-0.0,0.0\r\n", b",5e-324,0.0,5e-324\r\n"):
            assert line in text

    def test_rows_are_cached_python_floats(self, fact5):
        result = sweep_existence(fact5, [StateUniform(3, 2)] * 2, resolution=0.25, epsilon=1e-8)
        assert "rows" not in vars(result)
        rows = result.rows
        assert rows is result.rows  # built once, then cached
        assert len(rows) == len(result.gaps) == 25
        assert {type(x) for row in rows for x in row} == {float}

    def test_three_player_rows_match_pointwise_loop(self):
        # Every lattice axis repeats differently in the row view; a player
        # without parameters contributes one 0.0 column.
        rng = np.random.default_rng(94)
        game = random_game(rng, n_states=1, action_counts=(2, 3, 2))
        spaces = [DeterministicOnly(1, 2), FullSpace(1, 3), Singleton(random_policy(rng, 1, 2))]
        result = sweep_existence(game, spaces, resolution=0.5, epsilon=1e-9)
        assert result.header == ("p0_param0", "p1_param0", "p1_param1", "p2_param0",
                                 "gap_0", "gap_1", "gap_2", "max_gap")
        assert result.rows == reference_sweep_rows(game, spaces, 0.5)

    def test_reproduce_builds_no_row_view(self, monkeypatch, tmp_path):
        from sgl.experiments import ReproductionSpec, reproduce

        def refuse(self):
            raise AssertionError("the sweep's row view was built")

        monkeypatch.setattr(solvers.SweepResult, "rows", property(refuse))
        summary = reproduce(ReproductionSpec(name="fact5", outdir=tmp_path))
        assert summary["sweep"]["grid_points"] == 201 * 201
        assert (tmp_path / "sweep.csv").stat().st_size > 0
        result = sweep_existence(fact5_game(), [StateUniform(3, 2)] * 2, 0.5, 1e-8)
        with pytest.raises(AssertionError, match="row view"):
            result.rows


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
            tables = [sp.param_points(0.05)[1] for sp in spaces]
            best_value, best_joint = -np.inf, None
            lattice = np.zeros((len(tables[0]), len(tables[1])))
            for a, pa in enumerate(tables[0]):
                for b, pb in enumerate(tables[1]):
                    joint = JointPolicy((Policy(pa), Policy(pb)))
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

"""The benchmark's oracles against values worked out by hand.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def test_rps_value_is_zero_with_uniform_play():
    value, x, y = oracles.matrix_value(oracles.RPS_ROW)
    assert value == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(x, [1 / 3] * 3, atol=1e-9)
    np.testing.assert_allclose(y, [1 / 3] * 3, atol=1e-9)


def test_restricted_rps_value_and_column_weights():
    # Column weight w on the first generator plays (w/2, 1/2, (1-w)/2); the
    # row's best payoffs are -w/2, w - 1/2 and (1-w)/2, minimised at w = 2/3.
    value, _, weights = oracles.matrix_value(oracles.RPS_ROW @ oracles.RPS_COLUMN_HULL.T)
    assert value == pytest.approx(1 / 6, abs=1e-9)
    np.testing.assert_allclose(weights, [2 / 3, 1 / 3], atol=1e-9)


def test_blotto_value():
    value, x, y = oracles.matrix_value(oracles.BLOTTO_ROW)
    assert value == pytest.approx(14 / 9, abs=1e-9)
    row_sec, col_sec = oracles.securities(oracles.BLOTTO_ROW, x, y)
    assert row_sec == pytest.approx(14 / 9, abs=1e-9)
    assert col_sec == pytest.approx(14 / 9, abs=1e-9)


def test_restricted_blotto_value_is_zero():
    value, _, _ = oracles.matrix_value(oracles.BLOTTO_ROW_HULL @ oracles.BLOTTO_ROW)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_blotto_hull_rows_are_distributions():
    np.testing.assert_allclose(oracles.BLOTTO_ROW_HULL.sum(axis=1), 1.0)


def test_fact1_pure_profiles():
    gaps = oracles.pure_profile_gaps(oracles.RPS_ROW, -oracles.RPS_ROW)
    assert gaps.size == 9
    assert int((gaps <= 0.5).sum()) == 0
    assert gaps.min() == 1.0


def test_bach_stravinsky_equilibria():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, 2.0]])
    for x, y in (([1, 0], [1, 0]), ([0, 1], [0, 1]), ([2 / 3, 1 / 3], [1 / 3, 2 / 3])):
        assert oracles.is_nash(a, b, np.array(x, float), np.array(y, float), 1e-12)
    assert not oracles.is_nash(a, b, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1e-12)


def test_exploitability():
    uniform = np.full(3, 1 / 3)
    assert oracles.exploitability(oracles.RPS_ROW, uniform, uniform) == pytest.approx(0.0)
    rock = np.array([1.0, 0.0, 0.0])
    # Against Rock the column gains 1 by Paper; the row cannot gain on uniform.
    assert oracles.exploitability(oracles.RPS_ROW, rock, uniform) == pytest.approx(1.0)


def test_simplex_violation():
    assert oracles.simplex_violation([0.5, 0.5]) == 0.0
    assert oracles.simplex_violation([1.0 + 1e-10, -1e-10]) == pytest.approx(1e-10)


def test_stationary_distribution():
    d = oracles.stationary(np.array([[0.9, 0.1], [0.5, 0.5]]))
    np.testing.assert_allclose(d, [5 / 6, 1 / 6], atol=1e-12)


def test_fact5_pure_profile_value():
    # (U, L): from the start, left w.p. 0.9 pays 1, right w.p. 0.1 pays 2, and
    # both return; V0 = gamma (1.1 + gamma V0).
    gamma = oracles.FACT5_GAMMA
    value = oracles.fact5_row_values(np.array([1.0]), np.array([1.0]))[0, 0]
    assert value == pytest.approx(1.1 * gamma / (1 - gamma**2), abs=1e-12)


def test_fact5_column_best_responses_are_pure():
    # Below u = 1/2 the column's best reply is L (v = 1), above it R (v = 0),
    # and at 1/2 both pure replies tie above every mixture.
    v = np.linspace(0.0, 1.0, 101)
    for u, best in ((0.25, 100), (0.75, 0)):
        col = -oracles.fact5_row_values(np.array([u]), v)[0]
        assert int(np.argmax(col)) == best
    col = -oracles.fact5_row_values(np.array([0.5]), v)[0]
    assert col[0] == pytest.approx(col[-1], abs=1e-12)
    assert col[50] < col[0] - 1e-6


def test_fact5_lattice_has_no_equilibrium():
    lattice = oracles.fact5_gap_lattice(0.05, 0.005)
    assert lattice.shape == (21, 21)
    assert lattice.min() > 1.0


def test_transient_state_gain_is_one():
    # Staying in s0 pays 1 forever; the route-(b) reproducer's answer.
    t = np.zeros((2, 2, 2))
    t[0, 0, 0] = 1.0
    t[0, 1, 1] = 1.0
    t[1, :, 0] = 1.0
    r = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert oracles.optimal_gain_rvi(t, r, [np.eye(2)] * 2) == pytest.approx(1.0, abs=1e-10)


def test_bellman_residual_vanishes_only_at_the_optimum():
    # One state, two self-loops paying 1 and 0: always taking the first is optimal.
    t = np.ones((1, 2, 1))
    r = np.array([[1.0, 0.0]])
    gens = [np.eye(2)]
    assert oracles.bellman_residual(t, r, gens, np.array([[1.0, 0.0]]), 0.9) < 1e-12
    assert oracles.bellman_residual(t, r, gens, np.array([[0.0, 1.0]]), 0.9) == pytest.approx(1.0)


def test_hull_weights_and_grid():
    gens = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    w, resid = oracles.hull_weights(gens, np.array([0.2, 0.3, 0.5]))
    np.testing.assert_allclose(w, [0.2, 0.3, 0.5], atol=1e-9)
    assert resid < 1e-9
    assert len(oracles.simplex_points(3, 0.01)) == 5151


def test_hull_grid_max_reaches_the_best_generator():
    # One state, self-loop; the value is reward / (1 - gamma), linear in the weights.
    t = np.ones((1, 2, 1))
    r = np.array([[1.0, 3.0]])
    gens = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[0.5, 0.5]]])
    assert oracles.hull_grid_max(t, r, gens, 0.5, 0, 0.1) == pytest.approx(6.0)


def test_induced_mdp_marginalises_the_opponent():
    # Two players, one state, 2 x 2 joint actions; the column mixes (0.25, 0.75).
    transition = np.ones((1, 4, 1))
    rewards = np.zeros((2, 1, 4))
    rewards[0, 0] = [1.0, 2.0, 3.0, 4.0]
    own, column = np.array([[0.5, 0.5]]), np.array([[0.25, 0.75]])
    t, r = oracles.induced_mdp(transition, rewards, 0, [own, column])
    np.testing.assert_allclose(r, [[1.75, 3.75]])
    np.testing.assert_allclose(t, np.ones((1, 2, 1)))

"""Shared test helpers: random game generators and independent oracles.

The oracles here deliberately avoid the library's solution paths: the
minimax oracle is a brute-force grid search over row strategies (with a
concavity-justified local refinement for larger action counts), and
expected values asserted in the test modules were computed by hand or by
these oracles, never by the code under test.  ``reference_self_play`` is
the per-iteration self-play loop over the public single-step rules, the
oracle for ``self_play``'s generated kernel; it logs ``CheckpointRow``s,
and the row-wise writers and statistics here are the oracles for the
columnar ``TrajectoryLog``.  ``reference_gain_bias_lp`` is the unichain
LP that average-reward route (b) used before policy iteration, and
``reference_best_gains`` the brute-force optimum both are checked against.
``reference_minimax`` solves a matrix game by float LPs;
``reference_exact_lexmin`` enumerates every vertex of each player's
optimal set in rationals, the exact oracle for minimax's tie-break.
"""

from __future__ import annotations

import csv
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from sgl.games import (
    Average,
    Discounted,
    JointPolicy,
    MalformedInputError,
    Policy,
    StochasticGame,
)
from sgl.learners import (
    CheckpointRow,
    LearnerState,
    PlayerSpec,
    fresh_learner,
    q_learner_step,
    wolf_phc_step,
)
from sgl.restrictions import (
    MEMBERSHIP_TOL,
    ConvexHullGlobal,
    ConvexHullStatewise,
    RestrictedPolicySpace,
    simplex_grid,
)


def random_game(
    rng: np.random.Generator,
    n_states: int = 3,
    action_counts: tuple[int, ...] = (2, 2),
    gamma: float = 0.9,
    average: bool = False,
    zero_sum: bool = False,
    team: bool = False,
    no_control: bool = False,
    controller: int | None = None,
) -> StochasticGame:
    """A dense random game (full-support transitions, so always ergodic)."""
    n = len(action_counts)
    n_joint = int(np.prod(action_counts))
    if no_control:
        per_state = rng.dirichlet(np.ones(n_states), size=n_states)
        transition = np.repeat(per_state[:, None, :], n_joint, axis=1)
    elif controller is not None:
        k = action_counts[controller]
        rows = rng.dirichlet(np.ones(n_states), size=(n_states, k))
        transition = np.zeros((n_states, n_joint, n_states))
        for j, actions in enumerate(
            itertools.product(*(range(c) for c in action_counts))
        ):
            transition[:, j, :] = rows[np.arange(n_states), actions[controller]]
    else:
        transition = rng.dirichlet(np.ones(n_states), size=(n_states, n_joint))
    rewards = rng.uniform(-1.0, 1.0, size=(n, n_states, n_joint))
    if zero_sum:
        assert n == 2
        rewards[1] = -rewards[0]
    if team:
        rewards = np.repeat(rewards[:1], n, axis=0)
    return StochasticGame(
        states=tuple(f"s{i}" for i in range(n_states)),
        action_sets=tuple(
            tuple(f"p{i}a{k}" for k in range(c)) for i, c in enumerate(action_counts)
        ),
        transition=transition,
        rewards=rewards,
        initial_state="s0",
        formulation=Average() if average else Discounted(gamma),
    )


def random_policy(rng: np.random.Generator, n_states: int, n_actions: int) -> Policy:
    return Policy(rng.dirichlet(np.ones(n_actions), size=n_states))


def random_joint_policy(rng: np.random.Generator, game: StochasticGame) -> JointPolicy:
    return JointPolicy(
        tuple(
            random_policy(rng, game.n_states, k) for k in game.action_counts
        )
    )


def random_global_hull(
    rng: np.random.Generator, n_states: int, n_actions: int, k: int = 2
) -> ConvexHullGlobal:
    return ConvexHullGlobal(
        tuple(random_policy(rng, n_states, n_actions) for _ in range(k))
    )


def random_statewise_hull(
    rng: np.random.Generator, n_states: int, n_actions: int, k: int = 2
) -> ConvexHullStatewise:
    return ConvexHullStatewise(
        tuple(
            tuple(rng.dirichlet(np.ones(n_actions)) for _ in range(k))
            for _ in range(n_states)
        )
    )


def reference_hull_contains(
    space: ConvexHullGlobal | ConvexHullStatewise, policy: Policy, tol: float = MEMBERSHIP_TOL
) -> bool:
    """Hull membership as each hull class tested it on its own: one weight
    fit over every state's row for a global hull; one per state for a
    statewise hull, skipping a state whose generators include every unit
    vector."""
    from sgl.restrictions import _recover_weights_lp

    if isinstance(space, ConvexHullGlobal):
        stacked = np.stack([g.probs for g in space.generators]).reshape(len(space.generators), -1)
        return _recover_weights_lp(policy.probs.ravel(), stacked)[0] <= tol
    for s, stacked in enumerate(space.generators):
        n_actions = stacked.shape[1]
        unit = ((stacked == 1.0).sum(axis=1) == 1) & ((stacked == 0.0).sum(axis=1) == n_actions - 1)
        if np.unique(stacked[unit].argmax(axis=1)).size == n_actions:
            continue
        if _recover_weights_lp(policy.probs[s], stacked)[0] > tol:
            return False
    return True


def reference_hull_vertices(space: ConvexHullGlobal | ConvexHullStatewise) -> np.ndarray:
    """Vertex tables as each hull class listed them: a global hull's
    generators, or every per-state generator choice in ``itertools.product``
    order."""
    if isinstance(space, ConvexHullGlobal):
        return np.stack([g.probs for g in space.generators])
    return np.array([np.vstack(choice) for choice in itertools.product(*space.generators)])


def reference_param_dim(space: ConvexHullGlobal | ConvexHullStatewise) -> int:
    if isinstance(space, ConvexHullGlobal):
        return len(space.generators) - 1
    return sum(len(per_state) - 1 for per_state in space.generators)


def convexity_probe(
    space: RestrictedPolicySpace, trials: int = 200, seed: int = 0
) -> bool:
    """Sample member pairs and check the midpoint; False on any counterexample."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        a = space.random_member(rng)
        b = space.random_member(rng)
        mid = Policy(0.5 * a.probs + 0.5 * b.probs)
        if not space.contains(mid, tol=MEMBERSHIP_TOL):
            return False
    return True


# ---------------------------------------------------------------------------
# Brute-force minimax oracle
# ---------------------------------------------------------------------------


def _security(m: np.ndarray, points: np.ndarray) -> np.ndarray:
    return (points @ m).min(axis=1)


def _local_composition_grid(
    center: np.ndarray, n_units: int, radius_units: int
) -> np.ndarray:
    """Simplex lattice points at granularity 1/n_units near ``center``."""
    k = center.size
    target = np.rint(center * n_units).astype(int)
    ranges = [
        range(max(0, target[i] - radius_units), min(n_units, target[i] + radius_units) + 1)
        for i in range(k - 1)
    ]
    points = []
    for combo in itertools.product(*ranges):
        rest = n_units - sum(combo)
        if rest < 0 or abs(rest - target[k - 1]) > radius_units:
            continue
        points.append(tuple(combo) + (rest,))
    if not points:
        points.append(tuple(target[:-1]) + (n_units - int(target[:-1].sum()),))
    return np.asarray(points, dtype=float) / n_units


def grid_minimax_value(m: np.ndarray, resolution: float = 1e-3) -> float:
    """max over row strategies of min over pure columns, by grid search.

    The row security level min_j (x^T M)_j is concave in x, so a coarse
    global grid localizes the maximizer and local lattice refinement down
    to the requested resolution is exact up to one lattice step.
    """
    m = np.asarray(m, dtype=float)
    k = m.shape[0]
    if k == 1:
        return float(m[0].min())
    coarse_units = 20
    points = np.asarray(simplex_grid(k, 1.0 / coarse_units), dtype=float)
    values = _security(m, points)
    best = points[int(np.argmax(values))]
    best_value = float(values.max())
    units = coarse_units
    while 1.0 / units > resolution:
        next_units = min(units * 5, int(round(1.0 / resolution)))
        radius = max(2, int(np.ceil(2 * next_units / units)))
        points = _local_composition_grid(best, next_units, radius)
        values = _security(m, points)
        if values.max() > best_value:
            best_value = float(values.max())
            best = points[int(np.argmax(values))]
        units = next_units
    return best_value


# ---------------------------------------------------------------------------
# Reference minimax: two security LPs, full lexmin and a vertex polish
# ---------------------------------------------------------------------------

_REFERENCE_LEX_SLACK = 1e-10
_REFERENCE_TIGHT_TOL = 1e-6


def _reference_security_lp(mat: np.ndarray):
    """max v subject to x^T mat >= v columnwise, x on the simplex."""
    k, other = mat.shape
    c = np.zeros(k + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-mat.T, np.ones((other, 1))])
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(other), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * k + [(None, None)], method="highs")
    assert res.success, res.message
    return float(res.x[-1]), a_ub, a_eq


def _reference_lexmin(mat: np.ndarray, v_star: float, a_ub, a_eq) -> np.ndarray:
    """Sequential coordinate LPs over the optimal set, each pinned with a slack."""
    k = mat.shape[0]
    rows = [a_ub]
    rhs = [np.zeros(a_ub.shape[0])]
    pin_v = np.zeros((1, k + 1))
    pin_v[0, -1] = -1.0
    rows.append(pin_v)
    rhs.append(np.array([-(v_star - _REFERENCE_LEX_SLACK)]))
    x = None
    for coord in range(k):
        c = np.zeros(k + 1)
        c[coord] = 1.0
        res = linprog(c, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs), A_eq=a_eq,
                      b_eq=[1.0], bounds=[(0.0, None)] * k + [(None, None)],
                      method="highs")
        if not res.success:
            break
        x = np.asarray(res.x)
        pin = np.zeros((1, k + 1))
        pin[0, coord] = 1.0
        rows.append(pin)
        rhs.append(np.array([x[coord] + _REFERENCE_LEX_SLACK]))
    assert x is not None
    return x[:k]


def _reference_polish(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Least-squares re-solve of the active constraints, kept if no worse."""
    payoff = x @ mat
    tight = np.where(payoff - payoff.min() <= _REFERENCE_TIGHT_TOL)[0]
    support = np.where(x > _REFERENCE_TIGHT_TOL)[0]
    rows = [np.concatenate([mat[support, j], [-1.0]]) for j in tight]
    rows.append(np.concatenate([np.ones(support.size), [0.0]]))
    rhs = np.zeros(len(rows))
    rhs[-1] = 1.0
    sol, *_ = np.linalg.lstsq(np.asarray(rows), rhs, rcond=None)
    candidate = np.zeros(mat.shape[0])
    candidate[support] = sol[:-1]
    candidate = np.clip(candidate, 0.0, None)
    if candidate.sum() <= 0.5:
        return x
    candidate /= candidate.sum()
    return candidate if (candidate @ mat).min() >= payoff.min() - 1e-11 else x


def reference_minimax(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, row, column) of the zero-sum matrix game ``m`` by a float pipeline:
    both security LPs, the lexicographically least optimal vertex of each side
    by sequential LPs, then a vertex polish.  Entries can be off by about
    1e-10, negative ones included."""
    m = np.asarray(m, dtype=float)
    v_row, a_ub_r, a_eq_r = _reference_security_lp(m)
    v_col, a_ub_c, a_eq_c = _reference_security_lp(-m.T)
    row = _reference_polish(m, _reference_lexmin(m, v_row, a_ub_r, a_eq_r))
    col = _reference_polish(-m.T, _reference_lexmin(-m.T, v_col, a_ub_c, a_eq_c))
    return float((row @ m).min()), row, col


# ---------------------------------------------------------------------------
# Reference exact minimax: every vertex of each optimal set, in rationals
# ---------------------------------------------------------------------------


def _reference_exact_solve(system: list[list[int]]) -> list[Fraction] | None:
    """The solution of a square integer system (augmented rows) in Fractions,
    or None when it is singular; the elimination keeps each row in lowest
    integer terms."""
    rows = [list(r) for r in system]
    size = len(rows)
    for col in range(size):
        pick = next((r for r in range(col, size) if rows[r][col]), None)
        if pick is None:
            return None
        rows[col], rows[pick] = rows[pick], rows[col]
        pivot = rows[col]
        for r in range(size):
            f = rows[r][col]
            if r != col and f:
                row = [pivot[col] * e - f * p for e, p in zip(rows[r], pivot)]
                g = math.gcd(*row) or 1
                rows[r] = [e // g for e in row]
    return [Fraction(rows[i][-1], rows[i][i]) for i in range(size)]


def _reference_lexmin_row(a: list[list[int]]) -> tuple[Fraction, list[Fraction]]:
    """(value, lexicographically least optimal strategy) of the row player of
    the integer matrix ``a``.

    A vertex of {(x, v): x >= 0, sum(x) = 1, (x^T a)_j >= v} has x_i = 0
    active off its support S and |S| of the column constraints active, so
    every pair of S and |S| columns is solved; the feasible solutions of
    largest v are the optimal set's vertices, and the least of them in
    list order is the least of the set, a polytope.
    """
    k, n = len(a), len(a[0])
    best = None
    for s in range(1, min(k, n) + 1):
        for support in itertools.combinations(range(k), s):
            for tight in itertools.combinations(range(n), s):
                sol = _reference_exact_solve(
                    [[1] * s + [0, 1]]
                    + [[a[i][j] for i in support] + [-1, 0] for j in tight]
                )
                if sol is None or min(sol[:s]) < 0:
                    continue
                x = [Fraction(0)] * k
                for i, p in zip(support, sol):
                    x[i] = p
                v = sol[s]
                if best is not None and v < best[0]:
                    continue
                if any(sum(p * row[j] for p, row in zip(x, a) if p) < v for j in range(n)):
                    continue
                if best is None or v > best[0] or x < best[1]:
                    best = (v, x)
    return best


def reference_exact_lexmin(m: np.ndarray) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """(value, row, column) of the zero-sum matrix game ``m`` in Fractions:
    each side's lexicographically least optimal strategy, by enumerating
    every vertex of its optimal set.  The work grows as the binomial
    coefficient C(rows + columns, rows), so keep games to a few actions."""
    exact = [[Fraction(e) for e in row] for row in np.asarray(m, dtype=float).tolist()]
    den = math.lcm(*(e.denominator for row in exact for e in row))
    a = [[int(e * den) for e in row] for row in exact]
    value, row = _reference_lexmin_row(a)
    col = _reference_lexmin_row([[-e for e in c] for c in zip(*a)])[1]
    return value / den, row, col


# ---------------------------------------------------------------------------
# Reference support enumeration: float indifference systems behind tolerances
# ---------------------------------------------------------------------------


def _reference_indifference(payoff: np.ndarray, rows, cols):
    """Opponent mixture over ``cols`` equalizing ``rows`` of ``payoff``, and the
    common payoff, by one float solve; None when the system is singular."""
    k = len(rows)
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = payoff[np.ix_(rows, cols)]
    system[:k, k] = -1.0
    system[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        return None
    return sol[:k], sol[k]


def reference_support_enumeration(
    a: np.ndarray, b: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], bool]:
    """(equilibria as (row, column) arrays, degenerate flag) of the bimatrix
    game (a, b) by a float pipeline: each equal-cardinality support pair's
    indifference systems are solved in floats, clipped, renormalised and
    kept when the best-response check passes within 1e-9; profiles within
    1e-8 of an earlier one count as duplicates.  Near ties can admit a
    profile that is not an equilibrium of the stored game."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    tol = 1e-9
    found: list[tuple[np.ndarray, np.ndarray]] = []
    degenerate = False
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                col_sol = _reference_indifference(a, list(rows), list(cols))
                if col_sol is None:
                    continue
                y_s, u = col_sol
                row_sol = _reference_indifference(b.T, list(cols), list(rows))
                if row_sol is None:
                    continue
                x_s, w = row_sol
                if np.any(y_s < -tol) or np.any(x_s < -tol):
                    continue
                if k > 1 and (np.any(y_s <= tol) or np.any(x_s <= tol)):
                    degenerate = True
                    continue
                x = np.zeros(m)
                x[list(rows)] = np.clip(x_s, 0.0, None)
                y = np.zeros(n)
                y[list(cols)] = np.clip(y_s, 0.0, None)
                x /= x.sum()
                y /= y.sum()
                row_payoffs = a @ y
                col_payoffs = x @ b
                if row_payoffs.max() > u + tol or col_payoffs.max() > w + tol:
                    continue
                off_rows = [i for i in range(m) if i not in rows]
                off_cols = [j for j in range(n) if j not in cols]
                if any(row_payoffs[i] > u - tol for i in off_rows) or any(
                    col_payoffs[j] > w - tol for j in off_cols
                ):
                    degenerate = True
                duplicate = any(
                    np.max(np.abs(x - px)) <= 1e-8 and np.max(np.abs(y - py)) <= 1e-8
                    for px, py in found
                )
                if duplicate:
                    degenerate = True
                    continue
                found.append((x, y))
    return found, degenerate


# ---------------------------------------------------------------------------
# References for the batched evaluators
# ---------------------------------------------------------------------------


def reference_simplex_grid(k: int, resolution: float) -> list[tuple[float, ...]]:
    """``restrictions.simplex_grid`` as a recursion over the entries, one
    point at a time, with each entry p / N for N = round(1/resolution)."""
    n = max(1, round(1.0 / resolution))
    points: list[tuple[float, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            points.append(tuple(p / n for p in prefix + [remaining]))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c, slots - 1)

    rec([], n, k)
    return points


def reference_sweep_rows(game, spaces, resolution: float) -> list[tuple]:
    """Existence-sweep rows computed one lattice point at a time.

    Calls the single-policy ``policy_value`` and ``restricted_best_response``
    at every point, in lattice order, so a batched sweep can be compared
    with the plain loop it replaces.
    """
    from sgl.solvers import restricted_best_response
    from sgl.values import policy_value

    lattices = [space.param_points(resolution) for space in spaces]
    rows = []
    for idx in itertools.product(*(range(len(probs)) for _, probs in lattices)):
        points = [(tuple(p[k].tolist()), Policy(probs[k])) for (p, probs), k in zip(lattices, idx)]
        joint = JointPolicy(tuple(policy for _, policy in points))
        current = policy_value(game, joint)
        gaps = []
        for i in range(game.n_players):
            others = [p for j, p in enumerate(joint.policies) if j != i]
            best = restricted_best_response(game, i, others, spaces[i]).value
            gaps.append(max(best - float(current[i]), 0.0))
        params = tuple(x for params, _ in points for x in (params if params else (0.0,)))
        rows.append(params + tuple(gaps) + (max(gaps),))
    return rows


def reference_run_values(mdps, cuts, probs: np.ndarray) -> np.ndarray:
    """``values.mdp_run_values`` with one ``einsum`` pair per run.

    The per-run contraction that the gathered one replaced: each run's rows
    against its own MDP's arrays, then the same batched solve.
    """
    from sgl import values

    mdp = mdps[0]
    p = np.empty((probs.shape[0], mdp.n_states, mdp.n_states))
    r = np.empty((probs.shape[0], mdp.n_states))
    bounds = [0, *cuts, probs.shape[0]]
    for run_mdp, start, stop in zip(mdps, bounds[:-1], bounds[1:]):
        np.einsum("bsa,sat->bst", probs[start:stop], run_mdp.transition, out=p[start:stop])
        np.einsum("bsa,sa->bs", probs[start:stop], run_mdp.reward, out=r[start:stop])
    if isinstance(mdp.formulation, Discounted):
        return values._discounted_values(p, r[:, np.newaxis, :], mdp.formulation.gamma)[:, 0, :]
    return values._gain_and_bias(p, r[:, np.newaxis, :])[0][:, 0, :]


def reference_weight_best_response(game, i, others, hull):
    """Route (c) for one opponent profile, one step and one query at a time.

    The per-query search that the lockstep route replaced: the grid, then
    up to 3 passes of a zoom over each coordinate pair, every evaluation a
    ``mdp_policy_values`` call on the query's own induced MDP over all of
    that step's weights.  It reads the search constants from ``solvers`` at
    call time, so a monkeypatched constant applies to both.  Returns
    (value, tolerance, weights).
    """
    from sgl import solvers
    from sgl.values import induce_mdp, mdp_policy_values

    mdp = induce_mdp(game, i, [p.probs for p in others])
    stacked = np.stack([g.probs for g in hull.generators])
    flat = stacked.reshape(stacked.shape[0], -1)

    def value_of(weights):
        probs = (weights @ flat).reshape((weights.shape[0], *stacked.shape[1:]))
        np.clip(probs, 0.0, None, out=probs)
        probs /= probs.sum(axis=2, keepdims=True)
        return mdp_policy_values(mdp, probs)[:, mdp.initial_index]

    def pair_zoom(w, i, j):
        mass = w[i] + w[j]
        lo, hi = 0.0, mass
        candidates = np.repeat(w[np.newaxis, :], solvers._ZOOM_POINTS, axis=0)
        ends = None
        best_t, best_val = 0.0, -np.inf
        for _ in range(solvers._ZOOM_LEVELS):
            t = lo + (hi - lo) * solvers._ZOOM_FRACTIONS
            candidates[:, i] = t
            candidates[:, j] = mass - t
            vals = value_of(candidates)
            if ends is None:
                ends = (vals[0], vals[-1])
            at = int(np.argmax(vals))
            if vals[at] > best_val:
                best_t, best_val = float(t[at]), float(vals[at])
            lo = t[max(at - 1, 0)]
            hi = t[min(at + 1, solvers._ZOOM_POINTS - 1)]
            if hi - lo < solvers._ZOOM_WIDTH:
                break
        return [(0.0, ends[0]), (mass, ends[1]), (best_t, best_val)]

    k = hull.k
    if k == 1:
        return float(value_of(np.ones((1, 1)))[0]), 0.0, np.ones(1)
    grid = simplex_grid(k, solvers._GRID_STEP)
    values = value_of(grid)
    step_gap = np.max(np.abs(np.diff(grid, axis=0)), axis=1)
    adjacent = (step_gap > 0) & (step_gap <= 2.0 * solvers._GRID_STEP + 1e-12)
    slopes = np.abs(np.diff(values))[adjacent] / step_gap[adjacent]
    tolerance = float(slopes.max()) * solvers._GRID_STEP if slopes.size else 0.0
    best_at = int(np.argmax(values))
    w = grid[best_at].copy()
    best_value = values[best_at]
    for _ in range(3):
        improved = False
        for a, b in itertools.combinations(range(k), 2):
            mass = w[a] + w[b]
            if mass <= 1e-14:
                continue
            for t_candidate, val_c in pair_zoom(w, a, b):
                if val_c > best_value + 1e-13:
                    w[a] = t_candidate
                    w[b] = mass - t_candidate
                    best_value = val_c
                    improved = True
        if not improved:
            break
    return float(best_value), tolerance, w


def _marginal_mdp(
    game: StochasticGame, i: int, others: list[Policy]
) -> tuple[np.ndarray, np.ndarray]:
    """Player i's (S, A, S) transitions and (S, A) rewards with the opponents
    marginalized out, by numpy einsum rather than the library's value code."""
    n_s = game.n_states
    shaped_t = game.transition.reshape((n_s, *game.action_counts, n_s))
    shaped_r = game.rewards[i].reshape((n_s, *game.action_counts))
    letters = "abcdefgh"[: game.n_players]
    factors = [p.probs for p in others]
    opp = [letters[j] for j in range(game.n_players) if j != i]
    mine = letters[i]
    spec = ",".join(f"s{x}" for x in opp)
    t = np.einsum(f"s{letters}t,{spec}->s{mine}t", shaped_t, *factors)
    r = np.einsum(f"s{letters},{spec}->s{mine}", shaped_r, *factors)
    return t, r


def pure_policy_values(
    game: StochasticGame, i: int, others: list[Policy]
) -> dict[tuple[int, ...], float]:
    """Initial-state value of every pure stationary policy of player i.

    Enumerates all |A|^|S| per-state action choices and solves each chain
    exactly with numpy: the Bellman system when discounted, the stationary
    distribution when average-reward (the chains must be irreducible, as
    ``random_game``'s full-support transitions make them).
    """
    n_s = game.n_states
    t, r = _marginal_mdp(game, i, others)
    choices = list(itertools.product(range(game.action_counts[i]), repeat=n_s))
    rows = np.arange(n_s)
    chain = np.stack([t[rows, list(c)] for c in choices])
    reward = np.stack([r[rows, list(c)] for c in choices])
    if isinstance(game.formulation, Discounted):
        system = np.eye(n_s) - game.formulation.gamma * chain
        solved = np.linalg.solve(system, reward[:, :, np.newaxis])
        values = solved[:, game.initial_index, 0]
    else:
        # pi (P - I) = 0 with the last equation replaced by sum(pi) = 1.
        system = np.transpose(chain, (0, 2, 1)) - np.eye(n_s)
        system[:, -1, :] = 1.0
        rhs = np.zeros((len(choices), n_s, 1))
        rhs[:, -1, 0] = 1.0
        values = np.einsum("bs,bs->b", np.linalg.solve(system, rhs)[:, :, 0], reward)
    return dict(zip(choices, values.tolist()))


def random_average_mdp(rng: np.random.Generator, n_states: int, n_actions: int) -> StochasticGame:
    """A one-player average-reward game whose chains need not be unichain.

    Each (state, action) row is, with equal odds, a self-loop (absorbing),
    a jump to one state, a Dirichlet draw over a random subset of states
    (sparse), or a Dirichlet draw over all states.  Many policies leave
    states transient or split the chain into several closed classes.
    """
    transition = np.zeros((n_states, n_actions, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            kind = rng.integers(0, 4)
            if kind == 0:
                transition[s, a, s] = 1.0
            elif kind == 1:
                transition[s, a, rng.integers(0, n_states)] = 1.0
            elif kind == 2:
                size = int(rng.integers(1, n_states + 1))
                targets = rng.choice(n_states, size=size, replace=False)
                transition[s, a, targets] = rng.dirichlet(np.ones(size))
            else:
                transition[s, a] = rng.dirichlet(np.ones(n_states))
    rewards = rng.uniform(-1.0, 1.0, size=(1, n_states, n_actions))
    return StochasticGame(
        tuple(f"s{s}" for s in range(n_states)),
        (tuple(f"a{a}" for a in range(n_actions)),),
        transition, rewards, "s0", Average(),
    )


def reference_gains(chains: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """Every state's long-run average reward under a stack of chains.

    (B, |S|, |S|) chains and (B, |S|) rewards give (B, |S|) gains, for any
    chain, unichain or not: the Cesaro limit P* of P equals the limit of
    the powers of the aperiodic lazy chain (I + P) / 2, taken here by 64
    squarings with the rows renormalized after each.
    """
    lazy = 0.5 * (np.eye(chains.shape[-1]) + chains)
    for _ in range(64):
        lazy = lazy @ lazy
        lazy /= lazy.sum(axis=2, keepdims=True)
    return np.einsum("bst,bt->bs", lazy, rewards)


def reference_best_gains(game: StochasticGame) -> np.ndarray:
    """Every state's best long-run average reward in a one-player game.

    The maximum, state by state, of ``reference_gains`` over all |A|^|S|
    pure stationary policies, one of which is optimal at every state.
    """
    rows = np.arange(game.n_states)
    pure = np.array(list(itertools.product(range(game.action_counts[0]), repeat=game.n_states)))
    return reference_gains(game.transition[rows, pure], game.rewards[0][rows, pure]).max(axis=0)


def reference_gain_bias_lp(meta_r: list[np.ndarray], meta_p: list[np.ndarray]) -> list[int]:
    """Average-reward optimal per-state generator choice (unichain LP).

    Minimizes the gain g subject to g + h(s) >= r(s, k) + P(s, k) h for all
    meta-actions k, with one bias coordinate pinned to zero, then picks the
    lowest-index maximizer of r(s, k) + P(s, k) h at each state.
    """
    s_count = len(meta_r)
    # Variables: g, h_0 .. h_{S-2} (h_{S-1} = 0).
    n_vars = s_count  # 1 gain + (S - 1) bias coordinates
    rows = []
    rhs = []
    for s in range(s_count):
        for k in range(meta_r[s].shape[0]):
            row = np.zeros(n_vars)
            row[0] = -1.0
            if s < s_count - 1:
                row[1 + s] -= 1.0
            row[1:] += meta_p[s][k][: s_count - 1]
            rows.append(row)
            rhs.append(-meta_r[s][k])
    res = linprog(
        c=np.eye(n_vars)[0],
        A_ub=np.asarray(rows),
        b_ub=np.asarray(rhs),
        bounds=[(None, None)] * n_vars,
        method="highs",
    )
    if not res.success:
        raise ArithmeticError(f"average-reward LP failed: {res.message}")
    h = np.zeros(s_count)
    h[: s_count - 1] = res.x[1:]
    choice = []
    for s in range(s_count):
        q = meta_r[s] + meta_p[s] @ h
        best = float(q.max())
        choice.append(min(k for k in range(q.shape[0]) if q[k] >= best - 1e-8))
    return choice


def hull_grid_max(
    game: StochasticGame,
    i: int,
    others: list[Policy],
    hull: ConvexHullGlobal,
    step: float,
) -> float:
    """Largest initial-state value over a weight grid of a global hull.

    Discounted games only.  Marginalizes the opponents and solves every
    grid policy's Bellman system in one batched ``np.linalg.solve``, using
    only numpy, not the library's value code.
    """
    gamma = game.formulation.gamma
    n_s = game.n_states
    t, r = _marginal_mdp(game, i, others)
    weights = np.asarray(simplex_grid(hull.k, step))
    generators = np.stack([g.probs for g in hull.generators])
    probs = np.einsum("bk,ksa->bsa", weights, generators)
    chain = np.einsum("bsa,sat->bst", probs, t)
    reward = np.einsum("bsa,sa->bs", probs, r)
    values = np.linalg.solve(np.eye(n_s) - gamma * chain, reward[:, :, np.newaxis])
    return float(values[:, game.initial_index, 0].max())


@dataclass
class ReferenceLog:
    """A self-play log as the list of rows the columnar ``TrajectoryLog`` replaced."""

    states: tuple[str, ...]
    n_players: int
    iterations: int
    seed: int
    checkpoint_every: int
    rows: list[CheckpointRow]


def player_rows(log, player: int, state: str | None = None) -> list[CheckpointRow]:
    """One player's rows in one state (the first by default), in checkpoint order."""
    state = state if state is not None else log.states[0]
    return [r for r in log.rows if r.player == player and r.state == state]


def load_trajectory_rows(path) -> list[CheckpointRow]:
    """The rows of a trajectory CSV written by ``TrajectoryLog.to_csv``."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return [
            CheckpointRow(
                iteration=int(record["iteration"]),
                player=int(record["player"]),
                state=record["state"],
                probs=tuple(float(x) for x in record["action_or_generator_probs"].split(";")),
                explicit=tuple(float(x) for x in record["explicit_policy_probs"].split(";")),
                inst_reward=float(record["inst_reward"]),
                avg_reward=float(record["avg_reward"]),
            )
            for record in csv.DictReader(fh)
        ]


# The row-wise readers and writers the columnar log replaced, kept as its
# oracles: each takes any log with ``rows`` and reads nothing else of it.


def reference_to_csv(log, path) -> None:
    """``TrajectoryLog.to_csv`` as ``csv.writer`` over the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "player", "state", "action_or_generator_probs",
                         "explicit_policy_probs", "inst_reward", "avg_reward"])
        for r in log.rows:
            writer.writerow([r.iteration, r.player, r.state,
                             ";".join(repr(float(p)) for p in r.probs),
                             ";".join(repr(float(p)) for p in r.explicit),
                             repr(float(r.inst_reward)), repr(float(r.avg_reward))])


def reference_plot_data(outdir, log, action_names) -> None:
    """The ``plot_player<i>.dat`` files of ``experiments._write_plot_files``, row by row."""
    for i in range(log.n_players):
        with open(outdir / f"plot_player{i}.dat", "w", encoding="utf-8") as fh:
            fh.write("# iteration " + " ".join(action_names[i]) + "\n")
            for r in player_rows(log, i):
                fh.write(f"{r.iteration} " + " ".join(repr(float(p)) for p in r.explicit) + "\n")


def reference_mean_final_policy(
    log, player: int, fraction: float = 0.1, explicit: bool = True, state: str | None = None
) -> np.ndarray:
    cutoff = log.iterations * (1.0 - fraction)
    rows = [r for r in player_rows(log, player, state) if r.iteration > cutoff]
    if not rows:
        raise ValueError("no checkpoints in the requested window")
    return np.mean(np.asarray([r.explicit if explicit else r.probs for r in rows]), axis=0)


def reference_window_average_reward(log, player: int, fraction: float = 0.1) -> float:
    rows = player_rows(log, player)
    cutoff = log.iterations * (1.0 - fraction)
    before = [r for r in rows if r.iteration <= cutoff]
    last = rows[-1]
    if not before:
        return last.avg_reward
    edge = before[-1]
    span = last.iteration - edge.iteration
    if span <= 0:
        return last.avg_reward
    return (last.avg_reward * last.iteration - edge.avg_reward * edge.iteration) / span


def reference_grouped_stabilization_iteration(
    log, threshold: float = 0.01, window: int = 10_000
) -> int:
    """``TrajectoryLog.stabilization_iteration`` over rows grouped by checkpoint."""
    order = {state: k for k, state in enumerate(log.states)}
    grouped: list[dict[int, list]] = [{} for _ in range(log.n_players)]
    for r in log.rows:
        grouped[r.player].setdefault(r.iteration, []).append((order[r.state], r.explicit))
    iters = sorted(grouped[0])
    its = np.asarray(iters, dtype=np.int64)
    prev = np.searchsorted(its, its - window, side="right") - 1
    cur = np.flatnonzero(prev >= 0)
    if cur.size == 0:
        return log.iterations
    prev = prev[cur]
    move = np.zeros(cur.size)
    for by_iter in grouped:
        series = np.array([
            [p for _, explicit in sorted(by_iter[it], key=itemgetter(0)) for p in explicit]
            for it in iters
        ])
        np.maximum(move, np.abs(series[cur] - series[prev]).sum(axis=1), out=move)
    rates = move * (window / (its[cur] - its[prev]))
    unstable = np.flatnonzero(~(rates < threshold))
    start = int(unstable[-1]) + 1 if unstable.size else 0
    return int(its[cur[start]]) if start < cur.size else log.iterations


def reference_run_stats(log, restricted_player: int | None) -> dict:
    """``experiments._run_stats`` over the rows."""
    n = log.n_players
    stats = {
        "seed": log.seed,
        "final_policies": [list(player_rows(log, i)[-1].explicit) for i in range(n)],
        "mean_final_policies": [
            [float(x) for x in reference_mean_final_policy(log, i, 0.1)] for i in range(n)
        ],
        "window_avg_rewards": [reference_window_average_reward(log, i, 0.1) for i in range(n)],
        "running_avg_rewards": [player_rows(log, i)[-1].avg_reward for i in range(n)],
        "stabilization_iteration": reference_grouped_stabilization_iteration(log),
    }
    if restricted_player is not None:
        stats["mean_final_weights"] = [
            float(x)
            for x in reference_mean_final_policy(log, restricted_player, 0.1, explicit=False)
        ]
    return stats


def reference_stabilization_iteration(
    log, threshold: float = 0.01, window: int = 10_000
) -> int:
    """``TrajectoryLog.stabilization_iteration`` as a direct quadratic scan.

    For every checkpoint it searches all earlier checkpoints for the latest
    one at least ``window`` iterations back, and takes each player's L1
    movement with its own numpy call.
    """
    per_player_series: list[list[tuple[int, np.ndarray]]] = []
    for i in range(log.n_players):
        series: dict[int, list] = {}
        for state in log.states:
            for r in player_rows(log, i, state):
                series.setdefault(r.iteration, []).append(np.asarray(r.explicit))
        per_player_series.append(
            [(it, np.concatenate(series[it])) for it in sorted(series)]
        )
    iters = [it for it, _ in per_player_series[0]]
    movements: list[tuple[int, float]] = []
    for idx, it in enumerate(iters):
        back = it - window
        prev_idx = max(
            (k for k in range(idx + 1) if iters[k] <= back), default=None
        )
        if prev_idx is None:
            continue
        span = it - iters[prev_idx]
        move = max(
            float(np.abs(per_player_series[i][idx][1]
                         - per_player_series[i][prev_idx][1]).sum())
            for i in range(log.n_players)
        )
        movements.append((it, move * (window / span)))
    stable_from = log.iterations
    for k in range(len(movements) - 1, -1, -1):
        if movements[k][1] < threshold:
            stable_from = movements[k][0]
        else:
            break
    return stable_from


def simulate_average_reward(
    game: StochasticGame,
    joint: JointPolicy,
    steps: int,
    seed: int,
    start_state: int | None = None,
) -> np.ndarray:
    """Monte-Carlo long-run average reward per player along one trajectory.

    An independent oracle for average-reward `policy_value`: it builds the
    chain P_pi with its own joint-action loop, walks it step by step and
    averages the per-state expected rewards, rather than solving for the
    stationary distribution.
    """
    # weights[s, j]: probability of flat (row-major) joint action j in state s.
    weights = np.array([
        [
            np.prod([joint[i].probs[s, a] for i, a in enumerate(actions)])
            for actions in itertools.product(*(range(k) for k in game.action_counts))
        ]
        for s in range(game.n_states)
    ])
    p = np.einsum("sj,sjt->st", weights, game.transition)
    r = np.einsum("sj,isj->is", weights, game.rewards)
    rng = np.random.default_rng(seed)
    cumulative = [row.tolist() for row in np.cumsum(p, axis=1)]
    reward_rows = [r[:, s].tolist() for s in range(game.n_states)]
    totals = [0.0] * game.n_players
    n = game.n_players
    s = game.initial_index if start_state is None else start_state
    visits = [0] * game.n_states
    chunk = 10**6
    remaining = steps
    while remaining > 0:
        block = min(chunk, remaining)
        draws = rng.random(block).tolist()
        for u in draws:
            visits[s] += 1
            row = cumulative[s]
            nxt = len(row) - 1
            for idx, threshold in enumerate(row):
                if u < threshold:
                    nxt = idx
                    break
            s = nxt
        remaining -= block
    for state, count in enumerate(visits):
        if count:
            rr = reward_rows[state]
            for i in range(n):
                totals[i] += rr[i] * count
    return np.asarray(totals) / steps


def _reference_cumulative(rows: np.ndarray) -> list[list[float]]:
    return [list(np.cumsum(row)) for row in rows]


def reference_self_play(
    game: StochasticGame,
    specs: Sequence[PlayerSpec],
    iterations: int,
    seed: int,
    checkpoint_every: int | None = None,
) -> TrajectoryLog:
    """``learners.self_play`` as the per-iteration scalar loop it replaced.

    Each seat draws from its own ``random.Random`` one call at a time and
    updates through the public single-step rules (``wolf_phc_step``,
    ``q_learner_step``), and logs one ``CheckpointRow`` per (checkpoint,
    player, state) as it goes, a hull seat's explicit play one vector-matrix
    product per row; the generated kernel and the columnar log must
    reproduce every row of this log bit for bit.
    """
    if len(specs) != game.n_players:
        raise MalformedInputError("need one player spec per player")
    if iterations < 1:
        raise MalformedInputError("iterations must be positive")
    if checkpoint_every is None:
        checkpoint_every = max(1, iterations // 2000)
    master = random.Random(seed)
    player_rngs = [random.Random(master.getrandbits(63)) for _ in specs]
    env_rng = random.Random(master.getrandbits(63))

    n = game.n_players
    n_states = game.n_states
    single_state = n_states == 1
    counts = game.action_counts
    strides = [int(np.prod(counts[i + 1 :])) for i in range(n)]
    rewards = [
        [[float(game.rewards[i, s, j]) for j in range(game.n_joint_actions)]
         for s in range(n_states)]
        for i in range(n)
    ]
    cum_t = None
    if not single_state:
        cum_t = [_reference_cumulative(game.transition[s]) for s in range(n_states)]

    learners: list[LearnerState] = []
    arm_cumulative: list[list[list[list[float]]] | None] = []
    for i, spec in enumerate(specs):
        if spec.space is not None:
            if spec.space.n_states != n_states or spec.space.n_actions != counts[i]:
                raise MalformedInputError(f"player {i} hull does not match the game")
            gens = spec.space.tables[0]
            learners.append(fresh_learner(n_states, gens.shape[0], spec.config, gens))
            arm_cumulative.append([_reference_cumulative(gens[:, s]) for s in range(n_states)])
        else:
            learners.append(fresh_learner(n_states, counts[i], spec.config))
            arm_cumulative.append(None)

    steps = [q_learner_step if spec.algo == "q" else wolf_phc_step for spec in specs]
    # Per-player constants of the sampling loop, bound once.
    seats = [
        (learner.policy, rng.random, learner.config.explore_base,
         learner.config.explore_scale, arm_cum, stride)
        for learner, rng, arm_cum, stride
        in zip(learners, player_rngs, arm_cumulative, strides)
    ]
    env_random = env_rng.random

    totals = [0.0] * n
    rows: list[CheckpointRow] = []
    s = game.initial_index
    arms = [0] * n
    for t in range(iterations):
        j = 0
        for i, seat in enumerate(seats):
            policy, rand, explore_base, explore_scale, arm_cum, stride = seat
            e = explore_base / (1.0 + t / explore_scale)
            pol = policy[s]
            k = len(pol)
            u = rand()
            acc = 0.0
            arm = k - 1
            uniform = e / k
            keep = 1.0 - e
            for b in range(k):
                acc += keep * pol[b] + uniform
                if u < acc:
                    arm = b
                    break
            arms[i] = arm
            if arm_cum is None:
                action = arm
            else:
                cum = arm_cum[s][arm]
                v = rand()
                action = len(cum) - 1
                for b, threshold in enumerate(cum):
                    if v < threshold:
                        action = b
                        break
            j += stride * action
        if single_state:
            s2 = 0
        else:
            cum = cum_t[s][j]
            v = env_random()
            s2 = len(cum) - 1
            for b, threshold in enumerate(cum):
                if v < threshold:
                    s2 = b
                    break
        for i in range(n):
            r = rewards[i][s][j]
            totals[i] += r
            steps[i](learners[i], s, arms[i], r, s2, t)
        if (t + 1) % checkpoint_every == 0:
            for i in range(n):
                inst = rewards[i][s][j]
                avg = totals[i] / (t + 1)
                for state_idx in range(n_states):
                    w = learners[i].policy[state_idx]
                    generators = learners[i].generators
                    explicit = tuple(w) if generators is None else tuple(
                        (np.asarray(w) @ generators[:, state_idx, :]).tolist()
                    )
                    rows.append(
                        CheckpointRow(
                            iteration=t + 1,
                            player=i,
                            state=game.states[state_idx],
                            probs=tuple(w),
                            explicit=explicit,
                            inst_reward=inst,
                            avg_reward=avg,
                        )
                    )
        s = s2
    return ReferenceLog(
        states=game.states,
        n_players=n,
        iterations=iterations,
        seed=seed,
        checkpoint_every=checkpoint_every,
        rows=rows,
    )

"""Shared test helpers: random game generators and independent oracles.

The oracles here deliberately avoid the library's solution paths: the
minimax oracle is a brute-force grid search over row strategies (with a
concavity-justified local refinement for larger action counts), and
expected values asserted in the test modules were computed by hand or by
these oracles, never by the code under test.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog

from sgl.games import (
    Average,
    Discounted,
    JointPolicy,
    Policy,
    StochasticGame,
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

    grids = [space.param_points(resolution) for space in spaces]
    rows = []
    for idx in itertools.product(*(range(len(g)) for g in grids)):
        points = [grids[i][idx[i]] for i in range(len(spaces))]
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

    mdp = induce_mdp(game, i, others)
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
            for r in log.player_rows(i, state):
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

"""Independent computations the benchmark checks `sgl`'s outputs against.

Nothing here imports `sgl`.  Games arrive as plain arrays in the program's
layout: ``transition[s, j, t]`` and ``rewards[i, s, j]`` with the flat joint
action index ``j`` growing fastest in the last player.  Each routine takes
a different path from the library's: LPs are posed here directly on
scipy, exact values come from batched dense solves, optimal MDP values
from value iteration, and the Fact 5 lattice from a vectorised sweep over
a finer grid than the library searches.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog, nnls

# ---------------------------------------------------------------------------
# Matrix games
# ---------------------------------------------------------------------------

RPS_ROW = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
# Column player forced to play Paper exactly half the time.
RPS_COLUMN_HULL = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
# Colonel Blotto, 4 row regiments (splits 4-0 .. 0-4) against 3 (3-0 .. 0-3).
BLOTTO_ROW = np.array([
    [4.0, 2.0, 1.0, 0.0],
    [1.0, 3.0, 0.0, -1.0],
    [-2.0, 2.0, 2.0, -2.0],
    [-1.0, 0.0, 3.0, 1.0],
    [0.0, 1.0, 2.0, 4.0],
])
# Row allots two regiments deliberately (2-0, 1-1, 0-2); the other two land
# independently and uniformly, adding 0, 1 or 2 to the first battlefield
# with probabilities 1/4, 1/2, 1/4.
BLOTTO_ROW_HULL = np.array([
    [0.25, 0.5, 0.25, 0.0, 0.0],
    [0.0, 0.25, 0.5, 0.25, 0.0],
    [0.0, 0.0, 0.25, 0.5, 0.25],
])


def matrix_value(a: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and one optimal strategy pair of the zero-sum game with row payoff ``a``.

    Each side is its own LP: max v subject to x^T A >= v, and min w
    subject to A y <= w.
    """
    a = np.asarray(a, dtype=float)

    def side(mat: np.ndarray) -> tuple[float, np.ndarray]:
        k, other = mat.shape
        c = np.zeros(k + 1)
        c[-1] = -1.0
        res = linprog(
            c,
            A_ub=np.hstack([-mat.T, np.ones((other, 1))]),
            b_ub=np.zeros(other),
            A_eq=np.hstack([np.ones((1, k)), np.zeros((1, 1))]),
            b_eq=[1.0],
            bounds=[(0.0, None)] * k + [(None, None)],
            method="highs",
        )
        if not res.success:
            raise ArithmeticError(res.message)
        return float(res.x[-1]), np.asarray(res.x[:k])

    v_row, x = side(a)
    v_col, y = side(-a.T)
    if abs(v_row + v_col) > 1e-7:
        raise ArithmeticError(f"oracle LP sides disagree: {v_row} vs {-v_col}")
    return v_row, x, y


def securities(a: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Row security min_j (x^T A)_j and column security max_i (A y)_i."""
    return float((x @ a).min()), float((a @ y).max())


def simplex_violation(p: np.ndarray) -> float:
    """How far ``p`` lies from the probability simplex (0 when on it)."""
    p = np.asarray(p, dtype=float)
    return float(max(-p.min(initial=0.0), abs(p.sum() - 1.0)))


def is_nash(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """No pure deviation gains more than ``tol`` for either player."""
    return bool(
        (a @ y).max() <= x @ a @ y + tol and (x @ b).max() <= x @ b @ y + tol
    )


def pure_profile_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest unilateral gain at every pure profile of a bimatrix game, shape (m, n)."""
    row_gap = a.max(axis=0, keepdims=True) - a
    col_gap = b.max(axis=1, keepdims=True) - b
    return np.maximum(row_gap, col_gap)


def exploitability(
    a: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    row_generators: np.ndarray | None = None,
    col_generators: np.ndarray | None = None,
) -> float:
    """Sum of both players' best-response gains against (x, y) in a zero-sum game.

    A restricted player deviates only to its hull's generators (rows of
    the given arrays), which suffices because its payoff is linear.
    """
    rows = np.eye(a.shape[0]) if row_generators is None else row_generators
    cols = np.eye(a.shape[1]) if col_generators is None else col_generators
    current = float(x @ a @ y)
    row_best = float((rows @ a @ y).max())
    col_best = float((-(x @ a @ cols.T)).max())
    return (row_best - current) + (col_best + current)


# ---------------------------------------------------------------------------
# Stochastic games as arrays
# ---------------------------------------------------------------------------


def joint_weights(policies: list[np.ndarray]) -> np.ndarray:
    """Per-state joint action probabilities in row-major order, shape (..., S, J)."""
    w = policies[0]
    for p in policies[1:]:
        w = (w[..., :, None] * p[..., None, :]).reshape(*w.shape[:-1], -1)
    return w


def induced_mdp(
    transition: np.ndarray, rewards: np.ndarray, player: int, policies: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(T_i, R_i) of player ``player`` against fixed opponents, shapes (S, A, S), (S, A).

    ``policies`` holds every player's policy; only the shape of the entry
    of ``player`` is used.
    """
    s_count = transition.shape[0]
    counts = [p.shape[1] for p in policies]
    t = transition.reshape(s_count, *counts, s_count)
    r = rewards[player].reshape(s_count, *counts)
    t = np.moveaxis(t, 1 + player, 1)
    r = np.moveaxis(r, 1 + player, 1)
    others = [p for k, p in enumerate(policies) if k != player]
    for p in others:
        # The next opponent axis sits right after the player's own axis.
        t = np.einsum("sa...,sa->s...", np.moveaxis(t, 2, 1), p)
        r = np.einsum("sa...,sa->s...", np.moveaxis(r, 2, 1), p)
    return t, r


def discounted_values(p: np.ndarray, r: np.ndarray, gamma: float) -> np.ndarray:
    """Solve (I - gamma P) V = r for a stack of chains: p (..., S, S), r (..., S)."""
    eye = np.eye(p.shape[-1])
    return np.linalg.solve(eye - gamma * p, r[..., None])[..., 0]


def stationary(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible chain, via least squares."""
    n = p.shape[0]
    system = np.vstack([p.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    d, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return d


def policy_values(
    transition: np.ndarray, rewards: np.ndarray, policies: list[np.ndarray],
    gamma: float | None, initial: int = 0,
) -> np.ndarray:
    """Every player's value of a joint policy: at ``initial`` when discounted, gain otherwise."""
    w = joint_weights(policies)
    p = np.einsum("sj,sjt->st", w, transition)
    r = np.einsum("sj,isj->is", w, rewards)
    if gamma is not None:
        return np.array([discounted_values(p, ri, gamma)[initial] for ri in r])
    d = stationary(p)
    return r @ d


def mdp_value(t: np.ndarray, r: np.ndarray, probs: np.ndarray, gamma: float) -> np.ndarray:
    """State values of a stationary policy ``probs`` (S, A) in an MDP."""
    p = np.einsum("sa,sat->st", probs, t)
    rr = np.einsum("sa,sa->s", probs, r)
    return discounted_values(p, rr, gamma)


def optimal_values_discounted(t: np.ndarray, r: np.ndarray, gamma: float) -> np.ndarray:
    """Optimal state values of an MDP by value iteration to 1e-13."""
    v = np.zeros(t.shape[0])
    for _ in range(100_000):
        new = (r + gamma * np.einsum("sat,t->sa", t, v)).max(axis=1)
        if np.abs(new - v).max() < 1e-13:
            return new
        v = new
    raise ArithmeticError("value iteration did not converge")


def meta_mdp(
    t: np.ndarray, r: np.ndarray, generators: list[np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-state generator choices as actions: rewards (K_s,) and rows (K_s, S)."""
    meta_r = [g @ r[s] for s, g in enumerate(generators)]
    meta_p = [g @ t[s] for s, g in enumerate(generators)]
    return meta_r, meta_p


def bellman_residual(
    t: np.ndarray, r: np.ndarray, generators: list[np.ndarray], probs: np.ndarray,
    gamma: float,
) -> float:
    """max_s |max_k Q(s, k) - V(s)| for the policy ``probs``; 0 exactly at an optimum."""
    v = mdp_value(t, r, probs, gamma)
    meta_r, meta_p = meta_mdp(t, r, generators)
    return float(max(abs((meta_r[s] + gamma * meta_p[s] @ v).max() - v[s])
                     for s in range(len(v))))


def optimal_gain_rvi(
    t: np.ndarray, r: np.ndarray, generators: list[np.ndarray],
    tol: float = 1e-12, max_iter: int = 100_000,
) -> float:
    """Optimal average reward over per-state generator choices by relative value iteration.

    The update uses the aperiodic transform h <- (T h + h) / 2, which has
    the same optimal gain (halved, so it is doubled back) and converges
    for every unichain model.
    """
    meta_r, meta_p = meta_mdp(t, r, generators)
    width = max(len(x) for x in meta_r)
    s_count = len(meta_r)
    big_r = np.full((s_count, width), -np.inf)
    big_p = np.zeros((s_count, width, s_count))
    for s in range(s_count):
        big_r[s, : len(meta_r[s])] = meta_r[s]
        big_p[s, : len(meta_r[s])] = meta_p[s]
    h = np.zeros(s_count)
    for _ in range(max_iter):
        q = big_r + np.einsum("skt,t->sk", big_p, h)
        th = q.max(axis=1)
        new = 0.5 * (th + h)
        diff = new - h
        if diff.max() - diff.min() < tol:
            return float(2.0 * 0.5 * (diff.max() + diff.min()))
        h = new - new[0]
    raise ArithmeticError("relative value iteration did not converge")


def hull_weights(generators: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Simplex weights w minimising |G^T w - p| by NNLS; returns (w, residual).

    ``generators`` is (k, D) and ``target`` is (D,); the sum-to-one row is
    weighted heavily so the fit respects it.
    """
    k = generators.shape[0]
    big = 1e3
    system = np.vstack([generators.T, big * np.ones((1, k))])
    rhs = np.concatenate([target, [big]])
    w, _ = nnls(system, rhs)
    return w, float(np.abs(generators.T @ w - target).max())


def simplex_points(k: int, step: float) -> np.ndarray:
    """All length-k weight vectors on the grid of the given step, shape (N, k)."""
    n = int(round(1.0 / step))
    pts = [c + (n - sum(c),) for c in itertools.product(range(n + 1), repeat=k - 1)
           if sum(c) <= n]
    return np.asarray(pts, dtype=float) / n


def hull_grid_max(
    t: np.ndarray, r: np.ndarray, generators: np.ndarray, gamma: float,
    initial: int, step: float,
) -> float:
    """Largest value at ``initial`` over hull members whose weights lie on a grid.

    ``generators`` is (k, S, A); every grid member is evaluated in one
    batched solve.
    """
    w = simplex_points(generators.shape[0], step)
    probs = np.einsum("nk,ksa->nsa", w, generators)
    p = np.einsum("nsa,sat->nst", probs, t)
    rr = np.einsum("nsa,sa->ns", probs, r)
    return float(discounted_values(p, rr, gamma)[:, initial].max())


# ---------------------------------------------------------------------------
# The Fact 5 game
# ---------------------------------------------------------------------------

FACT5_LEFT = np.array([[1.0, 0.0], [0.0, 2.0]])
FACT5_RIGHT = np.array([[2.0, 0.0], [0.0, 1.0]])
FACT5_EPS = 0.1
FACT5_GAMMA = 0.95


def fact5_arrays() -> tuple[np.ndarray, np.ndarray]:
    """Transitions (3, 4, 3) and rewards (2, 3, 4) of the paper's Fact 5 game.

    From the start state the column action picks the branch it reaches
    with probability 1 - eps; each branch pays its 2x2 stage payoff to the
    row player and returns to the start.
    """
    transition = np.zeros((3, 4, 3))
    rewards = np.zeros((2, 3, 4))
    for row in range(2):
        for col in range(2):
            j = 2 * row + col
            aimed, other = (1, 2) if col == 0 else (2, 1)
            transition[0, j, aimed] = 1.0 - FACT5_EPS
            transition[0, j, other] = FACT5_EPS
            transition[1:, j, 0] = 1.0
            rewards[0, 1, j] = FACT5_LEFT[row, col]
            rewards[0, 2, j] = FACT5_RIGHT[row, col]
    rewards[1] = -rewards[0]
    return transition, rewards


def fact5_row_values(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row player's start-state value when row plays (u, 1-u) and column (v, 1-v) everywhere.

    Shape (len(u), len(v)); one batched 3x3 solve per pair, in blocks of
    about 20,000 pairs so that the check stays small next to the
    program's own memory.
    """
    transition, rewards = fact5_arrays()
    block = max(1, 20_000 // len(v))
    out = []
    for k in range(0, len(u), block):
        uu, vv = np.meshgrid(u[k:k + block], v, indexing="ij")
        w = np.stack([uu * vv, uu * (1 - vv), (1 - uu) * vv, (1 - uu) * (1 - vv)], axis=-1)
        p = np.einsum("abj,sjt->abst", w, transition)
        r = np.einsum("abj,sj->abs", w, rewards[0])
        out.append(discounted_values(p, r, FACT5_GAMMA)[..., 0])
    return np.concatenate(out)


def fact5_gap_lattice(resolution: float, fine_step: float) -> np.ndarray:
    """Max-gap at every lattice point, best responses taken over a finer 1-D grid.

    Returns an array of shape (N, N) indexed by (row weight index, column
    weight index) on the lattice of the given resolution; gaps are clamped
    at zero as the library does.
    """
    n = int(round(1.0 / resolution))
    fine_n = int(round(1.0 / fine_step))
    lattice = np.linspace(0.0, 1.0, n + 1)
    fine = np.linspace(0.0, 1.0, fine_n + 1)
    at_lattice = fact5_row_values(lattice, lattice)
    row_best = fact5_row_values(fine, lattice).max(axis=0)  # per column weight
    col_best = (-fact5_row_values(lattice, fine)).max(axis=1)  # per row weight
    row_gap = np.maximum(row_best[None, :] - at_lattice, 0.0)
    col_gap = np.maximum(col_best[:, None] + at_lattice, 0.0)
    return np.maximum(row_gap, col_gap)

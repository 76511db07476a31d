"""Equilibrium computation and certification.

Matrix-game minimax solves one LP with HiGHS: the row strategy is its
primal, the column strategy its dual.  Both are then re-solved exactly (the
payoffs times one power of two are integers, and fraction-free elimination
on each strategy's support and tight columns gives rationals) and checked
exactly: both lie on the simplex and the row security equals the column
security.  The value and entries returned are the correctly rounded exact
ones for the game as stored, so none is negative.  Ties go to the
lexicographically least optimal strategy: an exact test decides whether
each side's optimal set is a single point, and only a side whose set is
wider takes sequential lexicographic LPs, whose vertex is re-solved and
checked the same way.

Restricted best responses take one route per input:

(a) single-state games, whatever the space, reduce to maximizing a linear
    function of the strategy over ``space.vertices()``, exact at a vertex;
(b) multi-state games with a ``ConvexHullStatewise`` space (``FullSpace``
    and ``FixedCoordinates`` build these) reduce to an MDP over per-state
    generator choices, solved by exact policy iteration (discounted) or a
    gain/bias LP (average reward), which maximizes every state's value
    simultaneously;
(c) multi-state games with a ``ConvexHullGlobal`` space (``StateUniform``
    and ``Singleton`` build these) tie the weights across states, making
    the value generally non-concave in the weights; these are searched by
    a dense grid over the weight simplex, evaluated in one batched solve,
    then polished by a batched zoom over each coordinate pair.  The result
    carries a Lipschitz-style tolerance estimate from adjacent grid values,
    which is not a proof, instead of an exactness claim.

Multi-state games with a ``DeterministicOnly`` space take route (b) over the
unit vectors (``FullSpace``): an optimal pure stationary policy always
exists (Puterman, *Markov Decision Processes*, 1994), and route (b)'s
per-state generator choice is pure.

Equilibrium certificates report per-player regret gaps at the initial
state: the restricted-best-response value minus the value of the candidate
joint policy.  A grid sweep reports the smallest maximal gap over a product
parameter lattice together with a refinement bound estimated from adjacent
lattice differences; a strictly positive minimum exceeding that bound is
numerical evidence (never an unconditional proof) that no epsilon-
equilibrium exists in the sweep domain.

Tie-breaking everywhere is by lowest index, so results are reproducible
across runs and evaluation orders.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .games import (
    Discounted,
    JointPolicy,
    MalformedInputError,
    Policy,
    StochasticGame,
    UnsupportedOperationError,
    classify,
)
from .restrictions import (
    ConvexHullGlobal,
    ConvexHullStatewise,
    DeterministicOnly,
    FullSpace,
    ImplicitGame,
    MEMBERSHIP_TOL,
    RestrictedPolicySpace,
    TauMapping,
    build_implicit,
    map_policy,
    simplex_grid,
)
from .values import (
    InducedMDP,
    induce_mdp,
    mdp_policy_value,
    mdp_policy_values,
    policy_value,
    policy_values,
)

_LEX_SLACK = 1e-10
_SUPPORT_TOL = 1e-9
_MAX_FACE_SUBSETS = 4096


@dataclass(frozen=True)
class EquilibriumCertificate:
    """Per-player regret gaps for a candidate joint policy.

    verdict is true exactly when the largest gap is within epsilon.
    """

    joint: JointPolicy
    gaps: tuple[float, ...]
    epsilon: float
    verdict: bool

    @property
    def max_gap(self) -> float:
        return max(self.gaps)


@dataclass(frozen=True)
class BestResponseResult:
    """A representative optimal policy within a restricted space.

    ``tolerance`` is 0 for the exact routes (a)/(b) and a conservative
    accuracy estimate for the grid-searched route (c); ``description``
    sketches the optimal set when it is known (e.g. the optimal face of a
    matrix-game polytope).
    """

    policy: Policy
    value: float
    description: str | None = None
    tolerance: float = 0.0


@dataclass(frozen=True)
class SupportEnumerationResult:
    equilibria: list[JointPolicy]
    degenerate: bool


@dataclass(frozen=True)
class RestrictedMatrixEquilibrium:
    """Output of the implicit-game route for restricted zero-sum matrix games."""

    value: float
    weights: tuple[np.ndarray, np.ndarray]
    explicit_joint: JointPolicy
    certificate: EquilibriumCertificate
    implicit: ImplicitGame


@dataclass(frozen=True)
class SweepResult:
    min_max_gap: float
    argmin_params: tuple[tuple[float, ...], ...]
    argmin_joint: JointPolicy
    refinement_bound: float
    epsilon: float
    rows: list[tuple]
    header: tuple[str, ...]

    @property
    def margin(self) -> float:
        """How far the sweep minimum clears the lattice refinement bound."""
        return self.min_max_gap - self.refinement_bound

    @property
    def epsilon_equilibrium_found(self) -> bool:
        return self.min_max_gap <= self.epsilon


# ---------------------------------------------------------------------------
# Zero-sum matrix games: minimax LP
# ---------------------------------------------------------------------------


def _zero_sum_matrix(game: StochasticGame) -> np.ndarray:
    if game.n_players != 2 or not game.is_matrix_game:
        raise UnsupportedOperationError("minimax needs a 2-player matrix game")
    if not classify(game).is_zero_sum:
        raise UnsupportedOperationError("minimax needs a zero-sum game")
    return game.payoff_matrix(0)


def _security_constraints(mat: np.ndarray):
    """Constraints of the row player's security LP over (x, v), in linprog form.

    max v subject to x^T M >= v columnwise, x on the simplex; the column
    player's program is the same on -M^T.  Returns (A_ub, b_ub, A_eq, bounds).
    """
    k, other = mat.shape
    a_ub = np.hstack([-mat.T, np.ones((other, 1))])
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    return a_ub, np.zeros(other), a_eq, [(0.0, None)] * k + [(None, None)]


def _minimax_lp(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """One HiGHS solve of the row LP: (row strategy, column strategy, value).

    The row strategy is the primal; the column strategy is the dual of the
    security constraints, an optimal vertex of the column player's LP.
    """
    a_ub, b_ub, a_eq, bounds = _security_constraints(m)
    c = np.zeros(m.shape[0] + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds,
                  method="highs")
    if not res.success:
        raise ArithmeticError(f"minimax LP failed: {res.message}")
    return np.asarray(res.x[:-1]), -np.asarray(res.ineqlin.marginals), float(res.x[-1])


def _lexmin_strategy(mat: np.ndarray, v_star: float) -> np.ndarray:
    """Lexicographically-least optimal strategy of the row player of ``mat``
    (value ``v_star``), via sequential coordinate LPs."""
    k = mat.shape[0]
    a_ub, b_ub, a_eq, bounds = _security_constraints(mat)
    rows = [a_ub]
    rhs = [b_ub]
    # Pin optimality: v >= v_star - slack.
    pin_v = np.zeros((1, k + 1))
    pin_v[0, -1] = -1.0
    rows.append(pin_v)
    rhs.append(np.array([-(v_star - _LEX_SLACK)]))
    x = None
    for coord in range(k):
        c = np.zeros(k + 1)
        c[coord] = 1.0
        res = linprog(
            c,
            A_ub=np.vstack(rows),
            b_ub=np.concatenate(rhs),
            A_eq=a_eq,
            b_eq=[1.0],
            bounds=bounds,
            method="highs",
        )
        if not res.success:
            break
        x = np.asarray(res.x)
        pin = np.zeros((1, k + 1))
        pin[0, coord] = 1.0
        rows.append(pin)
        rhs.append(np.array([x[coord] + _LEX_SLACK]))
    if x is None:
        raise ArithmeticError("lexicographic refinement failed")
    return x[:k]


# An exact strategy is (numerators, common positive denominator); a value is
# a Fraction in the units of the integer matrix.


def _integer_matrix(m: np.ndarray) -> tuple[list[list[int]], int]:
    """M times one power of two, as Python integers: (rows, that power).

    Every float is a dyadic rational, so the scaling is exact.
    """
    ratios = [[e.as_integer_ratio() for e in row] for row in m.tolist()]
    scale = max(d for row in ratios for _, d in row)
    return [[n * (scale // d) for n, d in row] for row in ratios], scale


def _eliminate(rows: list[list[int]], n: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss) on the first n columns.

    Each column's pivot is the first remaining row, in the given order,
    with a nonzero entry there, so the pivot rows are the earliest rows of
    full rank; every division is exact.  Returns (rows, pivot columns, last
    pivot): the pivot rows come first, each holding the last pivot in its
    pivot column and zero in the other pivot columns.
    """
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(n):
        top = len(pivots)
        pick = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pick is None:
            continue
        rows.insert(top, rows.pop(pick))
        pivot_row = rows[top]
        pivot = pivot_row[col]
        for r, row in enumerate(rows):
            if r != top:
                f = row[col]
                rows[r] = [(pivot * e - f * p) // prev for e, p in zip(row, pivot_row)]
        prev = pivot
        pivots.append(col)
    return rows, pivots, prev


def _exact_strategy(
    a: list[list[int]], x: np.ndarray, payoff: np.ndarray, value: Fraction | None
) -> tuple[list[int], int] | None:
    """Exact re-solve of an optimal vertex x of the row player of ``a``.

    The unknowns are x on its support (entries above _SUPPORT_TOL) and,
    when ``value`` is None, the value.  The equations are the simplex sum,
    then "payoff equals the value" for the columns from the tightest
    ``payoff`` (the float x^T a) up, as many as are independent.  Returns
    (numerators, positive common denominator), or None when those
    equations have rank below the number of unknowns.
    """
    support = [i for i in range(len(a)) if x[i] > _SUPPORT_TOL]
    order = np.argsort(payoff, kind="stable").tolist()
    if value is None:
        rows = [[1] * len(support) + [0, 1]]
        rows += [[a[i][j] for i in support] + [-1, 0] for j in order]
    else:
        p, q = value.numerator, value.denominator
        rows = [[1] * len(support) + [1]]
        rows += [[q * a[i][j] for i in support] + [p] for j in order]
    n = len(rows[0]) - 1
    rows, pivots, det = _eliminate(rows, n)
    if len(pivots) < n:
        return None
    sign = 1 if det > 0 else -1
    full = [0] * len(a)
    for i, row in zip(support, rows):
        full[i] = sign * row[n]
    return full, sign * det


def _certify(a: list[list[int]], row, col):
    """Exact certificate of an optimal pair of the integer game ``a``.

    Both strategies must lie on the simplex, and the row security
    min_j (x^T a)_j must equal the column security max_i (a y)_i; weak
    duality then makes both optimal.  Returns (value, columns tight against
    x, rows tight against y), or None.
    """
    (xn, xd), (yn, yd) = row, col
    if min(xn) < 0 or min(yn) < 0 or sum(xn) != xd or sum(yn) != yd:
        return None
    row_pay = [sum(p * e for p, e in zip(xn, column) if p) for column in zip(*a)]
    col_pay = [sum(q * e for q, e in zip(yn, r) if q) for r in a]
    low, high = min(row_pay), max(col_pay)
    if low * yd != high * xd:
        return None
    return (
        Fraction(low, xd),
        [j for j, p in enumerate(row_pay) if p == low],
        [i for i, q in enumerate(col_pay) if q == high],
    )


def _certified_pair(m, a, b, x, y, value=None):
    """Exact re-solve of float optimal vertices (x, y) and their certificate.

    ``b`` is the integer -a^T; ``value`` is the exact value when known.
    Returns (row, column, value, columns tight against x, rows tight
    against y), or None.
    """
    row = _exact_strategy(a, x, x @ m, value)
    col = _exact_strategy(b, y, -(m @ y), None if value is None else -value)
    if row is None or col is None:
        return None
    cert = _certify(a, row, col)
    return None if cert is None else (row, col, *cert)


def _is_point(p, support, tight_rows, other_support, tight_cols) -> bool:
    """Whether the optimal set of the row player of ``p`` is a single point.

    Exact, for a certified optimal pair (x, z) with x on rows of ``p``:
    ``support`` is x's, ``tight_rows`` are the rows tight against z,
    ``other_support`` is z's and ``tight_cols`` are the columns tight
    against x.  A direction d keeps x optimal iff d is zero off the tight
    rows, sums to 0 and keeps (x^T p)_j equal to the value on z's support
    (complementary slackness), d_i >= 0 where x_i = 0, and (d^T p)_j >= 0
    on the other tight columns.  The set is a point when the equalities
    alone have full column rank; otherwise when no extreme ray of that cone
    exists, found among the null vectors of the equalities plus
    rank-deficiency-minus-one of the inequalities (up to
    _MAX_FACE_SUBSETS of them; beyond that, the answer is no).
    """
    n = len(tight_rows)
    base = [[p[i][j] for i in tight_rows] for j in other_support] + [[1] * n]
    rank = len(_eliminate(base, n)[1])
    if rank == n:
        return True
    faces = [[int(i == k) for i in tight_rows] for k in tight_rows if k not in support]
    faces += [[p[i][j] for i in tight_rows] for j in tight_cols if j not in other_support]
    if len(_eliminate(base + faces, n)[1]) < n:
        return False  # a line of optimal directions
    size = n - rank - 1
    if math.comb(len(faces), size) > _MAX_FACE_SUBSETS:
        return False
    for subset in itertools.combinations(faces, size):
        rows, pivots, det = _eliminate(base + list(subset), n)
        if len(pivots) != n - 1:
            continue
        free = next(c for c in range(n) if c not in pivots)
        ray = [0] * n
        ray[free] = det
        for r, c in enumerate(pivots):
            ray[c] = -rows[r][free]
        dots = [sum(f * e for f, e in zip(face, ray)) for face in faces]
        if min(dots) >= 0 or max(dots) <= 0:
            return False
    return True


def minimax_zero_sum_matrix(
    game: StochasticGame,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and an optimal strategy pair for a zero-sum matrix game.

    Returns (value to the row player, row strategy, column strategy).  One
    HiGHS LP gives an optimal vertex pair (primal and dual); it is re-solved
    exactly in integers and certified exactly: both strategies lie on the
    simplex and the row security equals the column security.  The returned
    entries and value are the correctly rounded exact ones, so no entry is
    negative.  Ties among optimal strategies resolve to the
    lexicographically least one: a side whose optimal set is provably a
    single point keeps it, and any other side is re-solved by sequential
    lexicographic LPs, then re-solved and certified exactly in the same
    way.  Raises ArithmeticError rather than return an unchecked pair.
    The value follows the game's reward criterion: the one-shot payoff
    under averaging, scaled by 1/(1-gamma) under discounting.
    """
    m = _zero_sum_matrix(game)
    a, scale = _integer_matrix(m)
    b = [[-e for e in column] for column in zip(*a)]
    x, y, v_lp = _minimax_lp(m)
    pair = _certified_pair(m, a, b, x, y)
    if pair is not None:
        row, col, v, tight_cols, tight_rows = pair
        support_x = [i for i, p in enumerate(row[0]) if p]
        support_y = [j for j, q in enumerate(col[0]) if q]
        row_wide = not _is_point(a, support_x, tight_rows, support_y, tight_cols)
        col_wide = not _is_point(b, support_y, tight_cols, support_x, tight_rows)
        if row_wide or col_wide:
            v_float = float(v / scale)
            if row_wide:
                x = _lexmin_strategy(m, v_float)
            if col_wide:
                y = _lexmin_strategy(-m.T, -v_float)
            pair = _certified_pair(m, a, b, x, y, v)
    if pair is None:
        pair = _certified_pair(
            m, a, b, _lexmin_strategy(m, v_lp), _lexmin_strategy(-m.T, -v_lp)
        )
    if pair is None:
        raise ArithmeticError("the minimax LP's solution failed its exact certificate")
    (xn, xd), (yn, yd), v = pair[:3]
    row = np.array([p / xd for p in xn])
    col = np.array([q / yd for q in yn])
    return float(v / scale) * _value_scale(game), row, col


# ---------------------------------------------------------------------------
# Support enumeration for bimatrix games
# ---------------------------------------------------------------------------


def support_enumeration_bimatrix(
    game: StochasticGame, max_actions: int = 5
) -> SupportEnumerationResult:
    """All Nash equilibria of a small bimatrix game via support enumeration.

    Considers equal-cardinality support pairs, solves the indifference
    systems, and keeps solutions that survive the best-response check.
    Games showing support ties (an unused action exactly indifferent, or a
    support coordinate at zero) are flagged degenerate; for such games a
    continuum of equilibria may exist beyond the listed ones.
    """
    if game.n_players != 2 or not game.is_matrix_game:
        raise UnsupportedOperationError("support enumeration needs a 2-player matrix game")
    a = game.payoff_matrix(0)
    b = game.payoff_matrix(1)
    m, n = a.shape
    if m > max_actions or n > max_actions:
        raise UnsupportedOperationError(
            f"action counts {(m, n)} exceed the bound {max_actions}"
        )
    tol = 1e-9
    found: list[tuple[np.ndarray, np.ndarray]] = []
    degenerate = False

    def solve_support(payoff: np.ndarray, rows, cols):
        """Opponent mixture over ``cols`` equalizing ``rows`` of ``payoff``."""
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

    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                col_sol = solve_support(a, list(rows), list(cols))
                if col_sol is None:
                    continue
                y_s, u = col_sol
                row_sol = solve_support(b.T, list(cols), list(rows))
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
    equilibria = [
        JointPolicy((Policy(x[np.newaxis, :]), Policy(y[np.newaxis, :])))
        for x, y in found
    ]
    return SupportEnumerationResult(equilibria=equilibria, degenerate=degenerate)


# ---------------------------------------------------------------------------
# Restricted best responses
# ---------------------------------------------------------------------------


def _value_scale(game: StochasticGame) -> float:
    if isinstance(game.formulation, Discounted):
        return 1.0 / (1.0 - game.formulation.gamma)
    return 1.0


def _matrix_best_response(
    game: StochasticGame, mdp: InducedMDP, space: RestrictedPolicySpace
) -> BestResponseResult:
    """Route (a): the value is linear in the strategy, so a vertex is exact."""
    per_action = mdp.reward[0]
    scale = _value_scale(game)
    vertices = space.vertices()
    values = [scale * float(v.probs[0] @ per_action) for v in vertices]
    best = max(values)
    best_idx = min(i for i, val in enumerate(values) if val >= best - 1e-12)
    face = [i for i, val in enumerate(values) if val >= best - 1e-12]
    description = f"optimal vertex face: indices {face} of {len(vertices)} vertices"
    return BestResponseResult(
        policy=vertices[best_idx], value=values[best_idx], description=description
    )


def _policy_iteration_discounted(
    mdp: InducedMDP, generators: list[np.ndarray]
) -> tuple[list[int], np.ndarray]:
    """Exact policy iteration over per-state generator choices.

    Switches only on strict improvement and breaks ties toward the lowest
    index, so the iteration terminates at a simultaneous per-state optimum.
    """
    gamma = mdp.formulation.gamma
    s_count = mdp.n_states
    meta_r = [g @ mdp.reward[s] for s, g in enumerate(generators)]
    meta_p = [g @ mdp.transition[s] for s, g in enumerate(generators)]
    choice = [0] * s_count
    for _ in range(200 * sum(len(r) for r in meta_r) + 50):
        p = np.vstack([meta_p[s][choice[s]] for s in range(s_count)])
        r = np.array([meta_r[s][choice[s]] for s in range(s_count)])
        v = np.linalg.solve(np.eye(s_count) - gamma * p, r)
        improved = False
        for s in range(s_count):
            q = meta_r[s] + gamma * meta_p[s] @ v
            best = int(np.argmax(q))
            if q[best] > q[choice[s]] + 1e-12:
                choice[s] = best
                improved = True
        if not improved:
            return choice, v
    raise ArithmeticError("policy iteration failed to terminate")


def _gain_bias_lp(
    mdp: InducedMDP, generators: list[np.ndarray]
) -> tuple[list[int], float]:
    """Average-reward optimum over per-state generator choices (unichain LP).

    Minimizes the gain g subject to g + h(s) >= r(s, k) + P(s, k) h for all
    meta-actions k, with one bias coordinate pinned to zero.
    """
    s_count = mdp.n_states
    meta_r = [g @ mdp.reward[s] for s, g in enumerate(generators)]
    meta_p = [g @ mdp.transition[s] for s, g in enumerate(generators)]
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
    gain = float(res.x[0])
    h = np.zeros(s_count)
    h[: s_count - 1] = res.x[1:]
    choice = []
    for s in range(s_count):
        q = meta_r[s] + meta_p[s] @ h
        best = float(q.max())
        choice.append(min(k for k in range(q.shape[0]) if q[k] >= best - 1e-8))
    return choice, gain


def _statewise_best_response(
    game: StochasticGame,
    mdp: InducedMDP,
    space: ConvexHullStatewise,
) -> BestResponseResult:
    """Route (b): optimal per-state generator choice in the induced MDP."""
    generators = [space.generators_at(s) for s in range(mdp.n_states)]
    if isinstance(mdp.formulation, Discounted):
        choice, v = _policy_iteration_discounted(mdp, generators)
        value = float(v[mdp.initial_index])
    else:
        choice, value = _gain_bias_lp(mdp, generators)
        probs = np.vstack([generators[s][choice[s]] for s in range(mdp.n_states)])
        value = float(mdp_policy_value(mdp, probs)[mdp.initial_index])
    probs = np.vstack([generators[s][choice[s]] for s in range(mdp.n_states)])
    return BestResponseResult(
        policy=Policy(probs),
        value=value,
        description=f"per-state generator choice {choice}",
    )


# Policies per batched solve in route (c) and the existence sweep; bounds the
# working memory whatever the grid or lattice size.
_BATCH = 2048
_GRID_STEP = 0.01
_ZOOM_POINTS = 33
_ZOOM_LEVELS = 12
_ZOOM_WIDTH = 1e-13
_ZOOM_FRACTIONS = np.linspace(0.0, 1.0, _ZOOM_POINTS)


def _weight_values(
    mdp: InducedMDP, stacked: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Initial-state values of the hull policies for a (B, k) array of weights,
    _BATCH weight vectors per solve."""
    flat = stacked.reshape(stacked.shape[0], -1)
    values = np.empty(weights.shape[0])
    for start in range(0, weights.shape[0], _BATCH):
        chunk = weights[start:start + _BATCH]
        probs = (chunk @ flat).reshape((chunk.shape[0], *stacked.shape[1:]))
        # Blends of valid rows can drift at machine scale; renormalize exactly.
        np.clip(probs, 0.0, None, out=probs)
        probs /= probs.sum(axis=2, keepdims=True)
        values[start:start + _BATCH] = mdp_policy_values(mdp, probs)[:, mdp.initial_index]
    return values


def _pair_zoom(
    value_of, w: np.ndarray, i: int, j: int
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate splits of the mass on coordinates i, j and their values.

    Returns the two endpoints (all mass on j, all mass on i) followed by the
    best split found by a batched zoom: each level evaluates _ZOOM_POINTS
    evenly spaced splits across [lo, hi] in one call and narrows to the
    neighbours of the best one, until the bracket is narrower than
    _ZOOM_WIDTH or _ZOOM_LEVELS levels have run.
    """
    mass = w[i] + w[j]
    lo, hi = 0.0, mass
    candidates = np.repeat(w[np.newaxis, :], _ZOOM_POINTS, axis=0)
    ends = None
    best_t, best_val = 0.0, -np.inf
    for _ in range(_ZOOM_LEVELS):
        t = lo + (hi - lo) * _ZOOM_FRACTIONS
        candidates[:, i] = t
        candidates[:, j] = mass - t
        vals = value_of(candidates)
        if ends is None:
            ends = (vals[0], vals[-1])
        at = int(np.argmax(vals))
        if vals[at] > best_val:
            best_t, best_val = float(t[at]), float(vals[at])
        lo = t[max(at - 1, 0)]
        hi = t[min(at + 1, _ZOOM_POINTS - 1)]
        if hi - lo < _ZOOM_WIDTH:
            break
    return np.array([0.0, mass, best_t]), np.array([ends[0], ends[1], best_val])


def _weight_best_response(
    game: StochasticGame,
    mdp: InducedMDP,
    hull: ConvexHullGlobal,
    grid_step: float = _GRID_STEP,
) -> BestResponseResult:
    """Route (c): search the shared-weight simplex; value need not be concave.

    The whole simplex grid is evaluated in one batched solve; the best grid
    point is then polished by a batched zoom over each coordinate pair,
    accepting a split only when it beats the incumbent by more than 1e-13.
    The returned tolerance is a Lipschitz-style estimate, not a proof: the
    largest value change per step between adjacent grid points, times the
    step.
    """
    k = hull.k
    stacked = np.stack([g.probs for g in hull.generators])

    def value_of(weights: np.ndarray) -> np.ndarray:
        return _weight_values(mdp, stacked, weights)

    if k == 1:
        w = np.ones(1)
        value = float(value_of(w[np.newaxis])[0])
        return BestResponseResult(hull.policy_of_weights(w), value)
    grid = simplex_grid(k, grid_step)
    values = value_of(grid)
    best_at = int(np.argmax(values))
    # Largest change per step between grid neighbours bounds what refinement
    # could still uncover.
    step_gap = np.max(np.abs(np.diff(grid, axis=0)), axis=1)
    adjacent = (step_gap > 0) & (step_gap <= 2.0 * grid_step + 1e-12)
    slopes = np.abs(np.diff(values))[adjacent] / step_gap[adjacent]
    tolerance = float(slopes.max()) * grid_step if slopes.size else 0.0
    w = grid[best_at].copy()
    best_value = values[best_at]
    for _ in range(3):
        improved = False
        for i, j in itertools.combinations(range(k), 2):
            mass = w[i] + w[j]
            if mass <= 1e-14:
                continue
            for t_candidate, val_c in zip(*_pair_zoom(value_of, w, i, j)):
                if val_c > best_value + 1e-13:
                    w[i] = t_candidate
                    w[j] = mass - t_candidate
                    best_value = val_c
                    improved = True
        if not improved:
            break
    return BestResponseResult(
        policy=hull.policy_of_weights(w),
        value=float(best_value),
        description=f"shared weights {np.round(w, 6).tolist()} over {k} generators",
        tolerance=float(tolerance),
    )


def restricted_best_response(
    game: StochasticGame,
    i: int,
    others: Sequence[Policy],
    space: RestrictedPolicySpace,
) -> BestResponseResult:
    """Optimal policy for player i within ``space``, against fixed opponents."""
    mdp = induce_mdp(game, i, others)
    if space.n_states != game.n_states or space.n_actions != game.action_counts[i]:
        raise MalformedInputError("space shape does not match the player")
    if game.is_matrix_game:
        return _matrix_best_response(game, mdp, space)
    if isinstance(space, DeterministicOnly):
        space = FullSpace(space.n_states, space.n_actions)
    if isinstance(space, ConvexHullStatewise):
        return _statewise_best_response(game, mdp, space)
    if isinstance(space, ConvexHullGlobal):
        return _weight_best_response(game, mdp, space)
    raise UnsupportedOperationError(f"unsupported space {type(space).__name__}")


# ---------------------------------------------------------------------------
# Equilibrium checks
# ---------------------------------------------------------------------------


def _others(joint: JointPolicy, i: int) -> list[Policy]:
    return [p for j, p in enumerate(joint.policies) if j != i]


def check_equilibrium(
    game: StochasticGame,
    joint: JointPolicy,
    spaces: Sequence[RestrictedPolicySpace],
    epsilon: float,
    membership_tol: float = MEMBERSHIP_TOL,
) -> EquilibriumCertificate:
    """Certify whether ``joint`` is an epsilon-equilibrium within the spaces.

    Each player's gap is its restricted-best-response value minus its value
    under ``joint``, evaluated at the initial state.  The candidate itself
    is a feasible deviation, so gaps are clamped at zero.
    """
    if len(spaces) != game.n_players:
        raise MalformedInputError("need one restricted space per player")
    for i, space in enumerate(spaces):
        if not space.contains(joint[i], tol=membership_tol):
            raise MalformedInputError(
                f"player {i} policy lies outside its restricted space"
            )
    current = policy_value(game, joint)
    gaps = []
    for i, space in enumerate(spaces):
        br = restricted_best_response(game, i, _others(joint, i), space)
        gaps.append(float(max(br.value - float(current[i]), 0.0)))
    verdict = bool(max(gaps) <= epsilon)
    return EquilibriumCertificate(joint=joint, gaps=tuple(gaps), epsilon=epsilon,
                                  verdict=verdict)


def enumerate_deterministic(
    game: StochasticGame, epsilon: float, max_profiles: int = 10**5
) -> list[EquilibriumCertificate]:
    """One certificate per pure joint policy, against unrestricted deviations.

    In matrix games unrestricted best responses are attained at pure
    actions, so a pure profile failing here also fails against the
    deterministic-only deviation set.
    """
    per_player = [k**game.n_states for k in game.action_counts]
    total = int(np.prod(per_player))
    if total > max_profiles:
        raise UnsupportedOperationError(
            f"{total} pure joint policies exceeds the bound {max_profiles}"
        )
    full = [FullSpace(game.n_states, k) for k in game.action_counts]
    return [
        check_equilibrium(game, JointPolicy(combo), full, epsilon)
        for combo in itertools.product(*(space.vertices() for space in full))
    ]


def restricted_equilibrium_via_implicit(
    game: StochasticGame,
    spaces: Sequence[RestrictedPolicySpace],
    epsilon: float = 1e-8,
) -> RestrictedMatrixEquilibrium:
    """Solve a restricted zero-sum matrix game through its implicit game.

    Each space's vertices become the implicit actions (the full space
    contributes its pure actions), the implicit matrix game is solved by
    minimax LP, and the optimal implicit mixtures map back to explicit
    strategies.  Non-convex spaces are refused: the mixtures would lie
    outside them.
    """
    if game.n_players != 2 or not game.is_matrix_game:
        raise UnsupportedOperationError("implicit route needs a 2-player matrix game")
    if not classify(game).is_zero_sum:
        raise UnsupportedOperationError("implicit route needs a zero-sum game")
    if not all(space.is_convex for space in spaces):
        raise UnsupportedOperationError("implicit route needs convex spaces")
    taus = []
    names = []
    for space in spaces:
        gens = space.vertices()
        tau = np.stack([g.probs[0] for g in gens])[np.newaxis, :, :]
        taus.append(tau)
        names.append(tuple(f"g{k}" for k in range(len(gens))))
    ig = build_implicit(game, TauMapping(tuple(taus), tuple(names)))
    value, row_w, col_w = minimax_zero_sum_matrix(ig.game)
    implicit_joint = JointPolicy(
        (Policy(row_w[np.newaxis, :]), Policy(col_w[np.newaxis, :]))
    )
    explicit_joint = map_policy(ig, implicit_joint)
    certificate = check_equilibrium(game, explicit_joint, spaces, epsilon)
    return RestrictedMatrixEquilibrium(
        value=value,
        weights=(row_w, col_w),
        explicit_joint=explicit_joint,
        certificate=certificate,
        implicit=ig,
    )


# ---------------------------------------------------------------------------
# Existence sweeps
# ---------------------------------------------------------------------------


def sweep_existence(
    game: StochasticGame,
    spaces: Sequence[RestrictedPolicySpace],
    resolution: float,
    epsilon: float,
) -> SweepResult:
    """Exhaustive lattice sweep of the joint parameter space.

    At every lattice point the per-player gaps are computed against the
    *full* restricted spaces (best responses search off-lattice), and the
    smallest maximal gap is reported together with a refinement bound: the
    largest gap change between adjacent lattice points.  A minimum that
    stays above the bound is evidence that refinement would not uncover an
    epsilon-equilibrium.
    """
    if len(spaces) != game.n_players:
        raise MalformedInputError("need one restricted space per player")
    dims = [space.param_dim() for space in spaces]
    if sum(dims) > 4:
        raise UnsupportedOperationError(
            f"joint parameterization dimension {sum(dims)} exceeds 4"
        )
    grids = [space.param_points(resolution) for space in spaces]
    sizes = tuple(len(g) for g in grids)
    br_cache: list[dict[tuple[int, ...], float]] = [dict() for _ in spaces]
    param_widths = [max(1, len(grids[i][0][0])) for i in range(len(spaces))]
    header = tuple(
        [f"p{i}_param{d}" for i in range(len(spaces)) for d in range(param_widths[i])]
        + [f"gap_{i}" for i in range(game.n_players)]
        + ["max_gap"]
    )
    policy_tables = [np.stack([policy.probs for _, policy in grid]) for grid in grids]
    # Row entries reuse the lattice's own float objects, as a per-point loop
    # would, so the rows cost no more memory than the tuples holding them.
    param_lists = [
        [params if params else (0.0,) for params, _ in grid] for grid in grids
    ]
    total = int(np.prod(sizes))
    rows: list[tuple] = []
    gap_lattice = np.zeros(total)
    best_gap = np.inf
    best_flat: int | None = None
    for start in range(0, total, _BATCH):
        stop = min(start + _BATCH, total)
        lattice_idx = np.unravel_index(np.arange(start, stop), sizes)
        point_idx = [ix.tolist() for ix in lattice_idx]
        current = policy_values(
            game, [policy_tables[i][lattice_idx[i]] for i in range(len(spaces))]
        )
        responses = np.empty_like(current)
        for i in range(game.n_players):
            rest = [j for j in range(len(spaces)) if j != i]
            if rest:
                keys = list(zip(*(point_idx[j] for j in rest)))
            else:
                keys = [()] * (stop - start)
            for key in dict.fromkeys(keys):
                if key not in br_cache[i]:
                    others = [grids[j][k][1] for j, k in zip(rest, key)]
                    br = restricted_best_response(game, i, others, spaces[i])
                    br_cache[i][key] = br.value
            responses[:, i] = [br_cache[i][key] for key in keys]
        gaps = np.maximum(responses - current, 0.0)
        gap_lattice[start:stop] = gaps.max(axis=1)
        param_columns = [
            [param_lists[i][k][d] for k in point_idx[i]]
            for i in range(len(spaces))
            for d in range(param_widths[i])
        ]
        gap_columns = [column.tolist() for column in gaps.T]
        first_max = np.argmax(gaps, axis=1).tolist()
        max_column = [gap_columns[at][row] for row, at in enumerate(first_max)]
        rows.extend(zip(*param_columns, *gap_columns, max_column))
        for offset, max_gap in enumerate(max_column):
            if max_gap < best_gap - 1e-15:
                best_gap = max_gap
                best_flat = start + offset
    assert best_flat is not None
    best_idx = tuple(int(x) for x in np.unravel_index(best_flat, sizes))
    gap_lattice = gap_lattice.reshape(sizes)
    refinement = 0.0
    for axis in range(len(sizes)):
        if sizes[axis] > 1:
            diffs = np.abs(np.diff(gap_lattice, axis=axis))
            refinement = max(refinement, float(diffs.max()))
    argmin_joint = JointPolicy(
        tuple(grids[i][best_idx[i]][1] for i in range(len(spaces)))
    )
    argmin_params = tuple(grids[i][best_idx[i]][0] for i in range(len(spaces)))
    return SweepResult(
        min_max_gap=float(best_gap),
        argmin_params=argmin_params,
        argmin_joint=argmin_joint,
        refinement_bound=refinement,
        epsilon=epsilon,
        rows=rows,
        header=header,
    )


# ---------------------------------------------------------------------------
# Best-response convexity probe
# ---------------------------------------------------------------------------


def best_response_convexity_test(
    game: StochasticGame,
    i: int,
    others: Sequence[Policy],
    space: RestrictedPolicySpace,
    trials: int = 20,
    seed: int = 0,
) -> bool:
    """Probe whether the optimal set within ``space`` is closed under blending.

    Finds distinct optimal policies (searching the space's extreme points
    and the computed best response), blends random pairs, and reports False
    when any blend loses value beyond 1e-8.  Candidates and blends are each
    evaluated in one batched solve.  Returns True vacuously when only one
    optimum is found.
    """
    if not space.is_convex:
        raise UnsupportedOperationError("convexity test expects a convex space")
    mdp = induce_mdp(game, i, others)
    br = restricted_best_response(game, i, others, space)
    value_tol = max(1e-9, br.tolerance)
    try:
        extremes = space.vertices()
    except UnsupportedOperationError:
        extremes = []
    candidates = [br.policy] + extremes
    values = mdp_policy_values(mdp, np.stack([c.probs for c in candidates]))[
        :, mdp.initial_index
    ]
    v_star = max([br.value, *values[1:]])
    distinct: list[Policy] = []
    for cand, val in zip(candidates, values):
        if val < v_star - value_tol:
            continue
        if not any(np.max(np.abs(cand.probs - d.probs)) <= 1e-9 for d in distinct):
            distinct.append(cand)
    if len(distinct) < 2:
        return True
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(len(distinct)), 2))
    blends = []
    for trial in range(trials):
        a_idx, b_idx = pairs[trial % len(pairs)]
        alpha = 0.5 if trial < len(pairs) else float(rng.uniform(0.05, 0.95))
        blends.append(
            alpha * distinct[a_idx].probs + (1.0 - alpha) * distinct[b_idx].probs
        )
    if not blends:
        return True
    blend_values = mdp_policy_values(mdp, np.stack(blends))[:, mdp.initial_index]
    return bool(np.all(blend_values >= v_star - max(1e-8, br.tolerance)))


def alternating_best_response(
    game: StochasticGame,
    spaces: Sequence[RestrictedPolicySpace],
    epsilon: float,
    seed: int = 0,
    max_rounds: int = 100,
) -> EquilibriumCertificate:
    """Iterate exact best responses from a random start until gaps close.

    Players update sequentially and keep their current policy when it is
    already within 1e-10 of optimal, so equilibria are absorbing.  Returns
    the final certificate whether or not it passes.
    """
    rng = np.random.default_rng(seed)
    joint = JointPolicy(tuple(space.random_member(rng) for space in spaces))
    best_cert = None
    for _ in range(max_rounds):
        for i in range(game.n_players):
            current = float(policy_value(game, joint)[i])
            br = restricted_best_response(game, i, _others(joint, i), spaces[i])
            if br.value > current + 1e-10:
                joint = joint.replace(i, br.policy)
        cert = check_equilibrium(game, joint, spaces, epsilon)
        if best_cert is None or cert.max_gap < best_cert.max_gap:
            best_cert = cert
        if cert.verdict:
            return cert
    assert best_cert is not None
    return best_cert


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def certificate_to_dict(cert: EquilibriumCertificate, game: StochasticGame) -> dict:
    from .games import joint_policy_to_list

    return {
        "gaps": [float(g) for g in cert.gaps],
        "epsilon": float(cert.epsilon),
        "verdict": bool(cert.verdict),
        "policy": joint_policy_to_list(cert.joint, game.states),
    }


def sweep_to_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.header)
        for row in result.rows:
            writer.writerow([repr(float(x)) for x in row])

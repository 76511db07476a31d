"""Equilibrium computation and certification.

Both matrix-game solvers, minimax and bimatrix support enumeration, share
one exact core.  The payoffs times one power of two are integers, and one
Nash certificate checks a pair exactly: both lie on the simplex and each
support lies inside that player's best-response set.  Entries and values
returned are the correctly rounded exact ones for the game as stored, so
none is negative.

Minimax runs one exact simplex per side on those integers (Edmonds'
integer-preserving pivots, so every division is exact): from the slack
basis to the optimum of the shifted game's LP, then down to the
lexicographically least optimal strategy over the columns whose reduced
costs are zero.  It calls no LP solver, and the pair is certified before
it is returned.  Support enumeration solves each equal-cardinality support
pair's indifference systems by fraction-free elimination in rationals and
certifies the pair.

Restricted best responses take one route per input, chosen from the game
and from the block structure of the space's convex hull (``as_hull``):

(a) single-state games, whatever the space, reduce to maximizing a linear
    function of the strategy over the hull's vertex array, exact at a
    vertex;
(b) multi-state games whose hull has one block per state (``FullSpace``,
    ``FixedCoordinates`` and ``ConvexHullStatewise``) reduce to an MDP over
    per-state generator choices, solved by Howard's policy iteration under
    both criteria (the multichain form for the average reward), which
    maximizes every state's value simultaneously and takes no LP;
(c) multi-state games whose hull is one block (``StateUniform``,
    ``Singleton`` and ``ConvexHullGlobal``) tie the weights across states,
    making the value generally non-concave in the weights; these are
    searched by a dense grid over the weight simplex, evaluated in batched
    solves of at most ``_BATCH`` policies, then polished by a batched zoom
    over each coordinate pair.  Many opponent profiles are answered in
    lockstep, each step's solves shared by every query.  The result carries
    a Lipschitz-style tolerance estimate from adjacent grid values, which is
    not a proof, instead of an exactness claim.  A hull with several blocks,
    some of more than one state, has no route yet and is refused.

A ``DeterministicOnly`` space's hull is the whole polytope, so multi-state
games take route (b) over the unit vectors: an optimal pure stationary
policy always exists (Puterman, *Markov Decision Processes*, 1994), and
route (b)'s per-state generator choice is pure.

Equilibrium certificates report per-player regret gaps at the initial
state: the restricted-best-response value minus the value of the candidate
joint policy.  A grid sweep reports the smallest maximal gap over a product
parameter lattice together with a refinement bound estimated from adjacent
lattice differences; a strictly positive minimum exceeding that bound is
numerical evidence (never an unconditional proof) that no epsilon-
equilibrium exists in the sweep domain.  The sweep works on the arrays
``param_points`` returns: the opponents' lattice tables are the best-
response profiles as they are, the joint tables are evaluated in batches,
and the only ``Policy`` objects it builds are the argmin's.

Public entry points take and return ``Policy`` and ``JointPolicy``;
inside, profiles, lattices and blends are (|S|, |A|) tables and stacks.

Tie-breaking everywhere is by lowest index, so results are reproducible
across runs and evaluation orders.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .games import (
    Discounted,
    JointPolicy,
    MalformedInputError,
    Policy,
    StochasticGame,
    UnsupportedOperationError,
    _repr_rows,
    classify,
)
from .restrictions import (
    ConvexHull,
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
    _gain_and_bias,
    induce_mdp,
    mdp_policy_values,
    mdp_run_values,
    policy_value,
    policy_values,
)

_MAX_SUPPORT_ACTIONS = 5


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

    ``policy`` is built on first read, by ``build_policy``: routes (a) and
    (b) hand over the table they chose, route (c) its weights for
    ``ConvexHull.policy_of_weights``.  A caller that reads only
    ``value``, as the existence sweep does, builds no ``Policy``.
    ``tolerance`` is 0 for the exact routes (a)/(b) and a conservative
    accuracy estimate for the grid-searched route (c); ``description``
    sketches the optimal set when it is known (e.g. the optimal face of a
    matrix-game polytope).
    """

    build_policy: Callable[[], Policy] = field(repr=False)
    value: float
    description: str | None = None
    tolerance: float = 0.0

    @functools.cached_property
    def policy(self) -> Policy:
        return self.build_policy()


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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """An existence sweep's summary and its lattice, by column.

    ``params[i]`` (n_i, w_i) holds player i's lattice parameters, one row
    per lattice point, as ``param_points`` returns them (possibly a
    read-only view); a player without parameters has one 0.0 column.
    ``gaps`` (N, n_players) holds every joint lattice point's gaps, the
    points in row-major order over the players' lattices, the last player
    fastest.  A point's ``max_gap`` is its gap of the first maximum.
    ``rows`` builds the row view only when asked.
    """

    min_max_gap: float
    argmin_params: tuple[tuple[float, ...], ...]
    argmin_joint: JointPolicy
    refinement_bound: float
    epsilon: float
    params: tuple[np.ndarray, ...]
    gaps: np.ndarray

    @property
    def header(self) -> tuple[str, ...]:
        return tuple(
            [f"p{i}_param{d}" for i, table in enumerate(self.params)
             for d in range(table.shape[1])]
            + [f"gap_{i}" for i in range(self.gaps.shape[1])]
            + ["max_gap"]
        )

    @functools.cached_property
    def rows(self) -> list[tuple]:
        """One tuple of Python floats per lattice point, in header order.

        Built column by column on first use: each lattice parameter's
        floats are made once and repeated, as the lattice orders them.
        """
        sizes = [len(table) for table in self.params]
        columns = []
        for i, table in enumerate(self.params):
            inner, outer = math.prod(sizes[i + 1:]), math.prod(sizes[:i])
            for values in table.T.tolist():
                repeated = itertools.chain.from_iterable(
                    itertools.repeat(v, inner) for v in values
                )
                columns.append(list(repeated) * outer)
        columns.extend(self.gaps.T.tolist())
        columns.append(_first_max(self.gaps).tolist())
        return list(zip(*columns))

    @property
    def margin(self) -> float:
        """How far the sweep minimum clears the lattice refinement bound."""
        return self.min_max_gap - self.refinement_bound

    @property
    def epsilon_equilibrium_found(self) -> bool:
        return self.min_max_gap <= self.epsilon


# ---------------------------------------------------------------------------
# Zero-sum matrix games: exact minimax simplex
# ---------------------------------------------------------------------------


def _zero_sum_matrix(game: StochasticGame) -> np.ndarray:
    if game.n_players != 2 or not game.is_matrix_game:
        raise UnsupportedOperationError("minimax needs a 2-player matrix game")
    game.require_finite()
    if not classify(game).is_zero_sum:
        raise UnsupportedOperationError("minimax needs a zero-sum game")
    return game.payoff_matrix(0)


# An exact strategy is (numerators, common positive denominator); a value is
# a Fraction in the units of the integer matrix.


def _integer_matrix(m: np.ndarray) -> tuple[list[list[int]], int]:
    """M times one power of two, as Python integers: (rows, that power).

    Every float is a dyadic rational, so the scaling is exact.
    """
    ratios = [[e.as_integer_ratio() for e in row] for row in m.tolist()]
    scale = max(d for row in ratios for _, d in row)
    return [[n * (scale // d) for n, d in row] for row in ratios], scale


def _pivot(t: list[list[int]], basis: list[int], r: int, k: int, d: int) -> int:
    """Edmonds' integer-preserving pivot of tableau t on row r, column k.

    t holds the true tableau times d, the previous pivot; every other row
    becomes (p * row - f * pivot row) // d, each division exact, and row r
    stays as it is.  Returns the new multiplier, the pivot p.
    """
    pivot_row = t[r]
    p = pivot_row[k]
    for i, row in enumerate(t):
        f = row[k]
        if i != r:
            t[i] = [(p * e - f * q) // d for e, q in zip(row, pivot_row)]
    basis[r] = k
    return p


def _optimize(
    t: list[list[int]], basis: list[int], d: int, fixed: set[int], target: int | None
) -> int:
    """Simplex pivots on t until no free column improves the objective.

    The objective is the last row of t, to maximize, when ``target`` is
    None, else the variable ``target``, to minimize; a column is free when
    it is neither basic nor in ``fixed``.  Dantzig's rule picks the column
    of steepest improvement until a pivot is degenerate, Bland's rule
    (lowest index) after it, so the method cannot cycle; the ratio test
    breaks ties by the lowest basic variable.  Returns the multiplier d.
    """
    rhs = len(t[0]) - 1
    bland = False
    while True:
        if target is None:
            gains = t[-1]
        elif target in basis:
            gains = [-e for e in t[basis.index(target)]]
        else:
            return d
        candidates = [j for j in range(rhs) if gains[j] < 0 and j not in fixed
                      and j not in basis]
        if not candidates:
            return d
        k = candidates[0] if bland else min(candidates, key=gains.__getitem__)
        r = None
        for i, row in enumerate(t[:-1]):
            if row[k] > 0 and (r is None or row[rhs] * t[r][k] < t[r][rhs] * row[k]
                               or row[rhs] * t[r][k] == t[r][rhs] * row[k]
                               and basis[i] < basis[r]):
                r = i
        bland = bland or t[r][rhs] == 0
        d = _pivot(t, basis, r, k, d)


def _lexmin_minimizer(p: list[list[int]]) -> tuple[list[int], int]:
    """The column player's lexicographically least optimal strategy in p.

    With c an integer that makes every entry of p + c at least 1, the
    optimal strategies are w / sum(w) for the optimal w of: maximize
    sum(w) subject to (p + c) w <= 1, w >= 0, whose slack basis is
    feasible.  After that optimum, w_0, w_1, ... are minimized in turn, each
    over the columns that leave every earlier objective at its optimum.
    Returns (numerators, their sum).
    """
    m, n = len(p), len(p[0])
    c = 1 - min(map(min, p))
    t = [[e + c for e in row] + [int(i == r) for i in range(m)] + [1]
         for r, row in enumerate(p)]
    t.append([-1] * n + [0] * (m + 1))
    basis = list(range(n, n + m))
    d = _optimize(t, basis, 1, set(), None)
    fixed = {j for j, e in enumerate(t[-1][:-1]) if e}
    for k in range(n):
        if len(fixed) == n:  # every nonbasic column is fixed: one optimum
            break
        d = _optimize(t, basis, d, fixed, k)
        if k in basis:
            fixed.update(j for j, e in enumerate(t[basis.index(k)][:-1]) if e < 0)
        else:
            fixed.add(k)
    w = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            w[j] = t[i][-1]
    return w, sum(w)


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
    a: list[list[int]],
    support: Sequence[int],
    order: Sequence[int],
    value: Fraction | None,
) -> tuple[list[int], int] | None:
    """Exact solution x, on ``support``, of an indifference system of ``a``.

    x is a strategy over the rows of ``a``.  The unknowns are x on
    ``support`` and, when ``value`` is None, the value.  The equations are
    the simplex sum, then (x^T a)_j = value for the columns j in ``order``,
    earliest first, as many as are independent.  Returns (numerators,
    positive common denominator), or None when those equations have rank
    below the number of unknowns.
    """
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


def _certify(a: list[list[int]], b: list[list[int]], row, col):
    """Exact Nash certificate of a strategy pair of the integer game (a, b).

    Each player's payoffs have its own actions as rows: ``a`` is the row
    player's, ``b`` the column player's transposed (a zero-sum game has
    b = -a^T).  Both strategies must lie on the simplex, and each support
    must lie inside that player's best-response set against the other
    strategy.  In a zero-sum game this holds exactly when the row security
    equals the column security.  Returns (the row player's value, its
    best-response rows, the column player's best-response columns), or None.
    """
    (xn, xd), (yn, yd) = row, col
    if min(xn) < 0 or min(yn) < 0 or sum(xn) != xd or sum(yn) != yd:
        return None
    row_pay = [sum(q * e for q, e in zip(yn, r) if q) for r in a]
    col_pay = [sum(p * e for p, e in zip(xn, r) if p) for r in b]
    u, w = max(row_pay), max(col_pay)
    if any(p and pay < u for p, pay in zip(xn, row_pay)):
        return None
    if any(q and pay < w for q, pay in zip(yn, col_pay)):
        return None
    return (
        Fraction(u, yd),
        [i for i, pay in enumerate(row_pay) if pay == u],
        [j for j, pay in enumerate(col_pay) if pay == w],
    )


def minimax_zero_sum_matrix(
    game: StochasticGame,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and an optimal strategy pair for a zero-sum matrix game.

    Returns (value to the row player, row strategy, column strategy), each
    strategy the lexicographically least optimal one.  Both come from
    ``_lexmin_minimizer`` on the integer matrix, the row strategy as the
    minimizer of -M^T, in exact integers with no LP; the pair is certified
    exactly before it is returned (both strategies lie on the simplex and
    the row security equals the column security), and ArithmeticError is
    raised rather than return an unchecked pair.  The returned entries and
    value are the correctly rounded exact ones, so no entry is negative,
    whatever the magnitudes of the payoffs.  The integer pivots cost more
    than a float LP on large games: on uniform games, one call took about
    0.001 s at 8x8, 0.012 s at 15x15, 0.13 s at 25x25 and 1.4 s at 40x40,
    against 0.002, 0.004, 0.012 and 0.08 s with HiGHS (one core, Python
    3.11).  The value follows the game's reward criterion: the one-shot
    payoff under averaging, scaled by 1/(1-gamma) under discounting.
    """
    a, scale = _integer_matrix(_zero_sum_matrix(game))
    b = [[-e for e in column] for column in zip(*a)]
    row, col = _lexmin_minimizer(b), _lexmin_minimizer(a)
    cert = _certify(a, b, row, col)
    if cert is None:
        raise ArithmeticError("the minimax simplex's solution failed its exact certificate")
    (xn, xd), (yn, yd) = row, col
    return (
        float(cert[0] / scale) * _value_scale(game),
        np.array([p / xd for p in xn]),
        np.array([q / yd for q in yn]),
    )


# ---------------------------------------------------------------------------
# Support enumeration for bimatrix games
# ---------------------------------------------------------------------------


def support_enumeration_bimatrix(game: StochasticGame) -> SupportEnumerationResult:
    """All Nash equilibria of a small bimatrix game via support enumeration.

    Considers equal-cardinality support pairs (von Stengel, *Computing
    equilibria for two-person games*, 2002).  For each pair the column
    mixture that makes the row support indifferent is solved first, and the
    pair is dropped as soon as an entry is negative; then the row mixture,
    and the pair is kept when the exact Nash certificate holds.  The
    indifference systems and the certificate are solved exactly for the game
    as stored, with the same core as minimax, so the listed equilibria are
    exact and their entries correctly rounded.  A game is flagged degenerate
    on an exact zero inside a support or an exact tie (a best-response set
    larger than the support); for such games a continuum of equilibria may
    exist beyond the listed ones.  Games with more than _MAX_SUPPORT_ACTIONS
    actions for a player are refused.
    """
    if game.n_players != 2 or not game.is_matrix_game:
        raise UnsupportedOperationError("support enumeration needs a 2-player matrix game")
    game.require_finite()
    m, n = game.action_counts
    if m > _MAX_SUPPORT_ACTIONS or n > _MAX_SUPPORT_ACTIONS:
        raise UnsupportedOperationError(
            f"action counts {(m, n)} exceed the bound {_MAX_SUPPORT_ACTIONS}"
        )
    # Each player's payoffs with its own actions as rows, and their
    # transposes, over which the opponent's mixture is solved.
    a = _integer_matrix(game.payoff_matrix(0))[0]
    b = _integer_matrix(game.payoff_matrix(1).T)[0]
    a_t, b_t = [list(c) for c in zip(*a)], [list(c) for c in zip(*b)]
    found = []
    degenerate = False
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                col = _exact_strategy(a_t, cols, rows, None)
                if col is None or min(col[0]) < 0:
                    continue
                row = _exact_strategy(b_t, rows, cols, None)
                if row is None or min(row[0]) < 0:
                    continue
                if 0 in [row[0][i] for i in rows] + [col[0][j] for j in cols]:
                    degenerate = True
                    continue
                cert = _certify(a, b, row, col)
                if cert is None:
                    continue
                degenerate |= len(cert[1]) > k or len(cert[2]) > k
                found.append((row, col))
    equilibria = [
        JointPolicy((Policy([[p / xd for p in xn]]), Policy([[q / yd for q in yn]])))
        for (xn, xd), (yn, yd) in found
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
    game: StochasticGame, mdp: InducedMDP, vertices: np.ndarray
) -> BestResponseResult:
    """Route (a): the value is linear in the strategy, so a vertex is exact.

    ``vertices`` is the hull's vertex array.  Each vertex's value is its own
    dot product: a batched product can round the last bit differently."""
    per_action = mdp.reward[0]
    scale = _value_scale(game)
    values = [scale * float(row @ per_action) for row in vertices[:, 0]]
    best = max(values)
    face = [i for i, val in enumerate(values) if val >= best - 1e-12]
    description = f"optimal vertex face: indices {face} of {len(vertices)} vertices"
    return BestResponseResult(
        functools.partial(Policy, vertices[face[0]]), values[face[0]], description
    )


def _improve(choice: list[int], scores: Iterable[np.ndarray]) -> bool:
    """One improvement step of policy iteration, in place; whether it moved.

    ``scores`` yields each state's score of every generator.  A state
    switches only on strict improvement, to the lowest-index maximizer.
    """
    improved = False
    for s, q in enumerate(scores):
        best = int(np.argmax(q))
        if q[best] > q[choice[s]] + 1e-12:
            choice[s] = best
            improved = True
    return improved


def _max_iterations(meta_r: list[np.ndarray]) -> int:
    return 200 * sum(len(r) for r in meta_r) + 50


def _policy_iteration_discounted(
    gamma: float, meta_r: list[np.ndarray], meta_p: list[np.ndarray]
) -> tuple[list[int], np.ndarray]:
    """Exact policy iteration over per-state generator choices.

    ``meta_r[s]`` and ``meta_p[s]`` hold each generator's reward and
    transition row at state s.  Each step evaluates the choice and improves
    it by ``_improve``, so the iteration terminates at a simultaneous
    per-state optimum.
    """
    s_count = len(meta_r)
    choice = [0] * s_count
    for _ in range(_max_iterations(meta_r)):
        p = np.vstack([meta_p[s][choice[s]] for s in range(s_count)])
        r = np.array([meta_r[s][choice[s]] for s in range(s_count)])
        v = np.linalg.solve(np.eye(s_count) - gamma * p, r)
        if not _improve(choice, (meta_r[s] + gamma * meta_p[s] @ v for s in range(s_count))):
            return choice, v
    raise ArithmeticError("policy iteration failed to terminate")


def _policy_iteration_average(
    meta_r: list[np.ndarray], meta_p: list[np.ndarray]
) -> tuple[list[int], np.ndarray]:
    """Howard's policy iteration for the average reward, multichain form.

    Arguments as for ``_policy_iteration_discounted``, and the same rule
    improves the choice.  Each step evaluates the choice's chain by
    ``values._gain_and_bias``.  A chain with several closed classes first
    improves P g, each state's gain; only when no state can, it improves
    r + P h among the generators that keep P g at its best.  A unichain
    chain's gain is constant, so there it improves r + P h alone.  Which
    step is taken follows from the chain's closed classes, not from the
    values of g.  The iteration ends at a choice that maximizes every
    state's gain, and returns it with each state's gain under it.
    """
    s_count = len(meta_r)
    choice = [0] * s_count
    for _ in range(_max_iterations(meta_r)):
        p = np.vstack([meta_p[s][choice[s]] for s in range(s_count)])
        r = np.array([meta_r[s][choice[s]] for s in range(s_count)])
        g, h, classes = _gain_and_bias(p[np.newaxis], r[np.newaxis, np.newaxis])
        g, h = g[0, 0], h[0, 0]
        if classes[0] == 1:
            scores = (meta_r[s] + meta_p[s] @ h for s in range(s_count))
        else:
            gains = [meta_p[s] @ g for s in range(s_count)]
            if _improve(choice, gains):
                continue
            scores = (
                np.where(q >= q.max() - 1e-12, meta_r[s] + meta_p[s] @ h, -np.inf)
                for s, q in enumerate(gains)
            )
        if not _improve(choice, scores):
            return choice, g
    raise ArithmeticError("policy iteration failed to terminate")


def _statewise_best_response(mdp: InducedMDP, hull: ConvexHull) -> BestResponseResult:
    """Route (b): optimal per-state generator choice in the induced MDP, for a
    hull whose blocks are single states.

    Policy iteration finds the choice, discounted or average reward, and
    the value is the chosen table's, from the iteration's last solve.  An
    average-reward choice optimal at every state may need several closed
    classes; its value is then the initial state's gain, as for any other
    chain.
    """
    generators = [table[:, 0] for table in hull.tables]
    meta_r = [g @ mdp.reward[s] for s, g in enumerate(generators)]
    meta_p = [g @ mdp.transition[s] for s, g in enumerate(generators)]
    if isinstance(mdp.formulation, Discounted):
        choice, v = _policy_iteration_discounted(mdp.formulation.gamma, meta_r, meta_p)
    else:
        choice, v = _policy_iteration_average(meta_r, meta_p)
    probs = np.vstack([generators[s][choice[s]] for s in range(mdp.n_states)])
    return BestResponseResult(
        functools.partial(Policy, probs),
        float(v[mdp.initial_index]),
        description=f"per-state generator choice {choice}",
    )


# Policies per batched solve in route (c) and the existence sweep; bounds the
# working memory whatever the grid or lattice size.
_BATCH = 2048
# Grid values route (c) holds at once: queries are taken in groups whose
# grids fit, and whose induced MDPs together are no larger than one batch's
# Markov matrices, so memory stays bounded whatever the number of queries.
_GRID_VALUES = 64 * _BATCH
_GRID_STEP = 0.01
_ZOOM_POINTS = 33
_ZOOM_LEVELS = 12
_ZOOM_WIDTH = 1e-13
_ZOOM_FRACTIONS = np.linspace(0.0, 1.0, _ZOOM_POINTS)
# The steps from each zoom point to its neighbours, which bracket the next level.
_BRACKET_STEPS = np.array(
    [[max(m - 1, 0) - m, min(m + 1, _ZOOM_POINTS - 1) - m] for m in range(_ZOOM_POINTS)]
)


@functools.lru_cache(maxsize=16)
def _weight_grid(k: int, step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route (c)'s simplex grid, built once per (k, step), with its neighbours.

    Returns the grid, the indices d of the consecutive grid points d, d + 1
    that are neighbours (at most two steps apart in every coordinate), and
    the largest coordinate change between each such pair.
    """
    grid = simplex_grid(k, step)
    step_gap = np.max(np.abs(np.diff(grid, axis=0)), axis=1)
    adjacent = np.flatnonzero((step_gap > 0) & (step_gap <= 2.0 * step + 1e-12))
    gaps = step_gap[adjacent]
    adjacent.setflags(write=False)
    gaps.setflags(write=False)
    return grid, adjacent, gaps


def _hull_values(
    hull: ConvexHull, mdps: Sequence[InducedMDP]
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The evaluator of route (c)'s queries, one induced MDP each.

    It maps (owner (Q,), weights (Q, R, k)) to the (Q, R) initial-state
    values of the blends ``weights[q]`` in ``mdps[owner[q]]``, each query's
    run of rows evaluated in its own MDP.  The Q * R rows are split into
    equal chunks of at most _BATCH, one batched solve each.  Equal chunks
    never leave a single row, whose product with the generators numpy
    computes on another BLAS path with other rounding, so a row's value
    does not depend on the rows solved with it.
    """
    initial = mdps[0].initial_index

    def value_of(owner: np.ndarray, weights: np.ndarray) -> np.ndarray:
        per = weights.shape[1]
        rows = weights.reshape(-1, weights.shape[2])
        n = rows.shape[0]
        chunks = -(-n // _BATCH)
        values = np.empty(n)
        for c in range(chunks):
            start, stop = n * c // chunks, n * (c + 1) // chunks
            probs = hull.blend(rows[start:stop])
            first, last = start // per, (stop - 1) // per
            runs = [mdps[q] for q in owner[first:last + 1].tolist()]
            cuts = range((first + 1) * per - start, stop - start, per)
            values[start:stop] = mdp_run_values(runs, cuts, probs)[:, initial]
        return values.reshape(weights.shape[:2])

    return value_of


def _pair_zooms(
    value_of, owner: np.ndarray, w: np.ndarray, i: int, j: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Candidate splits of the mass on coordinates i, j, for every row of w.

    Returns an iterator over three (splits, values) pairs of (Q,) arrays:
    the endpoint with all mass on j, the endpoint with all mass on i, then
    the best split a zoom found; row q's values are in query ``owner[q]``.
    Each level evaluates _ZOOM_POINTS evenly spaced splits across every
    zooming row's [lo, hi] together and narrows each bracket to the
    neighbours of its best split; a row stops zooming once its bracket is
    narrower than _ZOOM_WIDTH, and all stop after _ZOOM_LEVELS levels.
    """
    mass = w[:, i] + w[:, j]
    best_t, best_val = np.zeros_like(mass), np.full_like(mass, -np.inf)
    ends = None
    # The rows still zooming and their best splits so far, compacted as rows
    # drop out; bracket starts, bracket widths and masses are (Z, 1)
    # columns, and ``base`` holds each row's offset into a flattened
    # (Z, _ZOOM_POINTS) level.
    rows, row_t, row_val = np.arange(mass.size), best_t.copy(), best_val.copy()
    lo, span = np.zeros((mass.size, 1)), mass[:, None]
    width = span - lo
    candidates = np.repeat(w[:, None, :], _ZOOM_POINTS, axis=1)
    base = rows * _ZOOM_POINTS
    for _ in range(_ZOOM_LEVELS):
        t = lo + width * _ZOOM_FRACTIONS
        candidates[:, :, i] = t
        np.subtract(span, t, out=candidates[:, :, j])
        level = value_of(owner, candidates)
        if ends is None:
            ends = level[:, [0, -1]]
        at = level.argmax(axis=1)
        hit = base + at
        top = level.take(hit)
        better = top > row_val
        np.copyto(row_t, t.take(hit), where=better)
        np.copyto(row_val, top, where=better)
        bracket = t.take(hit[:, None] + _BRACKET_STEPS[at])
        lo = bracket[:, :1]
        width = bracket[:, 1:] - lo
        narrow = width[:, 0] < _ZOOM_WIDTH
        done = np.count_nonzero(narrow)
        if done:
            best_t[rows], best_val[rows] = row_t, row_val
            if done == rows.size:
                break
            going = ~narrow
            rows, row_t, row_val = rows[going], row_t[going], row_val[going]
            lo, width, span, candidates = lo[going], width[going], span[going], candidates[going]
            owner = owner[going]
            base = np.arange(rows.size) * _ZOOM_POINTS
    else:
        best_t[rows], best_val[rows] = row_t, row_val
    return zip((np.zeros_like(mass), mass, best_t), (ends[:, 0], ends[:, 1], best_val))


def _weight_best_responses(
    mdps: Iterable[InducedMDP], hull: ConvexHull
) -> list[BestResponseResult]:
    """Route (c): search the shared-weight simplex; value need not be concave.

    All queries run in lockstep, one induced MDP each, taken from ``mdps``
    a group at a time.  The simplex grid is evaluated for a whole group at
    once, in batched solves of at most _BATCH policies (the k = 3 grid of
    one query takes three), each query's rows in its own MDP.  Each
    query's best grid point is then polished by a zoom over each coordinate
    pair, every query's zoom sharing the same solves; a split is accepted
    only when it beats the incumbent by more than 1e-13, and a query stops
    after the first of at most 3 passes over the pairs that improves
    nothing.  Each query's result is bit-identical to asking it alone.  The
    returned tolerance is a Lipschitz-style estimate, not a proof: the
    largest value change per step between adjacent grid points, times the
    step.
    """
    if len(hull.blocks) != 1:
        raise UnsupportedOperationError("route (c) searches the weights of one block")
    k = hull.k
    grid, adjacent, gaps = _weight_grid(k, _GRID_STEP)
    per_group = max(1, min(_GRID_VALUES // grid.shape[0], _BATCH // hull.n_actions))
    mdps = iter(mdps)
    results = []
    while group := list(itertools.islice(mdps, per_group)):
        value_of = _hull_values(hull, group)
        owner = np.arange(len(group))
        if k == 1:
            values = value_of(owner, np.ones((owner.size, 1, 1)))[:, 0]
            build = functools.partial(hull.policy_of_weights, grid[0])
            results.extend(BestResponseResult(build, float(v)) for v in values)
            continue
        values = value_of(owner, np.broadcast_to(grid, (owner.size, *grid.shape)))
        # Largest change per step between grid neighbours bounds what
        # refinement could still uncover.
        slopes = np.abs(np.diff(values, axis=1))[:, adjacent] / gaps
        tolerance = slopes.max(axis=1) * _GRID_STEP
        best_at = np.argmax(values, axis=1)
        w = grid[best_at]
        best = values[owner, best_at]
        going = np.ones(owner.size, dtype=bool)
        for _ in range(3):
            improved = np.zeros(owner.size, dtype=bool)
            for i, j in itertools.combinations(range(k), 2):
                mass = w[:, i] + w[:, j]
                live = np.flatnonzero(going & ~(mass <= 1e-14))
                if not live.size:
                    continue
                # Endpoint j, endpoint i, then the zoom's best, each against
                # the incumbent it may just have replaced.
                for t, val in _pair_zooms(value_of, live, w[live], i, j):
                    take = val > best[live] + 1e-13
                    if take.any():
                        rows = live[take]
                        w[rows, i] = t[take]
                        w[rows, j] = mass[rows] - t[take]
                        best[rows] = val[take]
                        improved[rows] = True
            going &= improved
            if not going.any():
                break
        results.extend(
            BestResponseResult(
                functools.partial(hull.policy_of_weights, w[q]),
                float(best[q]),
                description=f"shared weights {np.round(w[q], 6).tolist()} over {k} generators",
                tolerance=float(tolerance[q]),
            )
            for q in owner
        )
    return results


def _best_responses(
    game: StochasticGame,
    i: int,
    profiles: Sequence[Sequence[np.ndarray]],
    space: RestrictedPolicySpace,
) -> list[BestResponseResult]:
    """Player i's best response within ``space`` against each opponent profile.

    Each profile lists the other players' fixed (|S|, |A_j|) policy tables
    in player order.  The route is picked once for all of them, from the
    game and the block structure of the space's hull; route (c) answers
    them together in lockstep, the others one induced MDP at a time.
    """
    if space.n_states != game.n_states or space.n_actions != game.action_counts[i]:
        raise MalformedInputError("space shape does not match the player")
    hull = space.as_hull()
    # Induced lazily, so route (c) holds only one group of MDPs at a time.
    mdps = (induce_mdp(game, i, others) for others in profiles)
    if game.is_matrix_game:
        vertices = hull.vertex_probs()
        return [_matrix_best_response(game, mdp, vertices) for mdp in mdps]
    if all(len(block) == 1 for block in hull.blocks):
        return [_statewise_best_response(mdp, hull) for mdp in mdps]
    return _weight_best_responses(mdps, hull)


def restricted_best_response(
    game: StochasticGame,
    i: int,
    others: Sequence[Policy],
    space: RestrictedPolicySpace,
) -> BestResponseResult:
    """Optimal policy for player i within ``space``, against fixed opponents."""
    return _best_responses(game, i, [[policy.probs for policy in others]], space)[0]


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
) -> EquilibriumCertificate:
    """Certify whether ``joint`` is an epsilon-equilibrium within the spaces.

    Each player's gap is its restricted-best-response value minus its value
    under ``joint``, evaluated at the initial state.  The candidate itself
    is a feasible deviation, so gaps are clamped at zero.
    """
    if len(spaces) != game.n_players:
        raise MalformedInputError("need one restricted space per player")
    for i, space in enumerate(spaces):
        if not space.contains(joint[i], tol=MEMBERSHIP_TOL):
            raise MalformedInputError(
                f"player {i} policy lies outside its restricted space"
            )
    return _certificate(game, joint, spaces, epsilon)


def _certificate(
    game: StochasticGame,
    joint: JointPolicy,
    spaces: Sequence[RestrictedPolicySpace],
    epsilon: float,
) -> EquilibriumCertificate:
    """``check_equilibrium``'s certificate of a joint policy known to lie in
    the spaces."""
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
    contributes its pure actions), the implicit matrix game is solved
    exactly by ``minimax_zero_sum_matrix``, and its lexicographically least
    optimal implicit mixtures map back to explicit strategies.  Non-convex
    spaces are refused: the mixtures would lie outside them.  Each explicit
    strategy is a blend of its own space's vertices, so it lies in the space
    by construction: the certificate takes the gaps of ``check_equilibrium``
    without its membership LPs.
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
        vertices = space.as_hull().vertex_probs()
        taus.append(vertices[np.newaxis, :, 0, :])
        names.append(tuple(f"g{k}" for k in range(len(vertices))))
    ig = build_implicit(game, TauMapping(tuple(taus), tuple(names)))
    value, row_w, col_w = minimax_zero_sum_matrix(ig.game)
    implicit_joint = JointPolicy(
        (Policy(row_w[np.newaxis, :]), Policy(col_w[np.newaxis, :]))
    )
    explicit_joint = map_policy(ig, implicit_joint)
    certificate = _certificate(game, explicit_joint, spaces, epsilon)
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


def _first_max(gaps: np.ndarray) -> np.ndarray:
    """Each row's entry at its first maximum: a lattice point's ``max_gap``."""
    return np.take_along_axis(gaps, gaps.argmax(axis=1)[:, np.newaxis], axis=1)[:, 0]


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
    epsilon-equilibrium.  Best responses are computed before the lattice is
    walked, once per player in one ``_best_responses`` call over all of
    that player's opponent keys (the lattice points of the other players).
    """
    if len(spaces) != game.n_players:
        raise MalformedInputError("need one restricted space per player")
    if not 0.0 < resolution <= 1.0:
        raise MalformedInputError(f"sweep resolution {resolution} outside (0, 1]")
    dims = [space.param_dim() for space in spaces]
    if sum(dims) > 4:
        raise UnsupportedOperationError(
            f"joint parameterization dimension {sum(dims)} exceeds 4"
        )
    lattices = [space.param_points(resolution) for space in spaces]
    tables = [probs for _, probs in lattices]
    sizes = tuple(len(probs) for probs in tables)
    # Each player's best-response value against every opponent lattice key,
    # flattened in row-major order over the other players' lattices.
    br_values = []
    for i in range(game.n_players):
        profiles = list(itertools.product(*(tables[j] for j in range(len(spaces)) if j != i)))
        br_values.append(
            np.array([br.value for br in _best_responses(game, i, profiles, spaces[i])])
        )
    params = tuple(p if p.shape[1] else np.zeros((len(p), 1)) for p, _ in lattices)
    total = math.prod(sizes)
    gaps = np.empty((total, game.n_players))
    for start in range(0, total, _BATCH):
        stop = min(start + _BATCH, total)
        lattice_idx = np.unravel_index(np.arange(start, stop), sizes)
        current = policy_values(
            game, [tables[i][lattice_idx[i]] for i in range(len(spaces))]
        )
        responses = np.empty_like(current)
        for i in range(game.n_players):
            rest = [j for j in range(len(spaces)) if j != i]
            keys = (
                np.ravel_multi_index([lattice_idx[j] for j in rest], [sizes[j] for j in rest])
                if rest
                else 0
            )
            responses[:, i] = br_values[i][keys]
        np.maximum(responses - current, 0.0, out=gaps[start:stop])
    max_gaps = _first_max(gaps)
    # The minimum a point-by-point scan finds: the first point, then each
    # point below the current choice by more than 1e-15.  Only a point below
    # every earlier point's max_gap can be chosen.
    best_gap, best_flat = np.inf, None
    earlier = np.minimum.accumulate(max_gaps)
    for at in [0, *(np.flatnonzero(max_gaps[1:] < earlier[:-1]) + 1).tolist()]:
        if max_gaps[at] < best_gap - 1e-15:
            best_gap, best_flat = max_gaps[at], at
    assert best_flat is not None
    best_idx = tuple(int(x) for x in np.unravel_index(best_flat, sizes))
    gap_lattice = max_gaps.reshape(sizes)
    refinement = 0.0
    for axis in range(len(sizes)):
        if sizes[axis] > 1:
            diffs = np.abs(np.diff(gap_lattice, axis=axis))
            refinement = max(refinement, float(diffs.max()))
    return SweepResult(
        min_max_gap=float(best_gap),
        argmin_params=tuple(tuple(p[at].tolist()) for (p, _), at in zip(lattices, best_idx)),
        argmin_joint=JointPolicy(tuple(Policy(t[at]) for t, at in zip(tables, best_idx))),
        refinement_bound=refinement,
        epsilon=epsilon,
        params=params,
        gaps=gaps,
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
    mdp = induce_mdp(game, i, [policy.probs for policy in others])
    br = restricted_best_response(game, i, others, space)
    value_tol = max(1e-9, br.tolerance)
    try:
        extremes = space.as_hull().vertex_probs()
    except UnsupportedOperationError:
        extremes = np.empty((0, space.n_states, space.n_actions))
    candidates = np.concatenate([br.policy.probs[np.newaxis], extremes])
    values = mdp_policy_values(mdp, candidates)[:, mdp.initial_index]
    v_star = max([br.value, *values[1:]])
    distinct: list[np.ndarray] = []
    for cand, val in zip(candidates, values):
        if val < v_star - value_tol:
            continue
        if not any(np.max(np.abs(cand - d)) <= 1e-9 for d in distinct):
            distinct.append(cand)
    if len(distinct) < 2:
        return True
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(len(distinct)), 2))
    blends = []
    for trial in range(trials):
        a_idx, b_idx = pairs[trial % len(pairs)]
        alpha = 0.5 if trial < len(pairs) else float(rng.uniform(0.05, 0.95))
        blends.append(alpha * distinct[a_idx] + (1.0 - alpha) * distinct[b_idx])
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


# Sweep rows formatted at a time: at 128 the texts of a chunk take less
# memory than the rest of writing the file does.
_CSV_ROWS = 128


def sweep_to_csv(result: SweepResult, path) -> None:
    """Write the sweep as CSV: the header, then each row's floats as ``repr``.

    A float's ``repr`` never needs quoting, so rows are joined directly, in
    the bytes ``csv.writer`` would produce.  The texts are made column by
    column: each player's lattice parameters once per lattice point, and
    each gap column ``_CSV_ROWS`` rows at a time; a row's ``max_gap`` text
    is its text in the column of the first maximum, as the sweep defines
    ``max_gap``.  ``repr`` tells ``-0.0`` from ``0.0``, so the texts do too.
    """
    sizes = [len(table) for table in result.params]
    param_texts = [np.array(_repr_rows(table, ","), dtype=object) for table in result.params]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(result.header)
        for start in range(0, len(result.gaps), _CSV_ROWS):
            gaps = result.gaps[start:start + _CSV_ROWS]
            point = np.unravel_index(np.arange(start, start + len(gaps)), sizes)
            columns = [texts[at].tolist() for texts, at in zip(param_texts, point)]
            gap_texts = [_repr_rows(column) for column in gaps.T]
            first_max = gaps.argmax(axis=1).tolist()
            columns.extend(gap_texts)
            columns.append([gap_texts[at][row] for row, at in enumerate(first_max)])
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")

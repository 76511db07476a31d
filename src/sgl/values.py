"""Exact value computation for stochastic games under fixed joint policies.

Discounted values solve the linear Bellman system (I - gamma * P_pi) V = r_pi
directly.  Average values are each state's gain P* r, the Cesaro limit of
the rewards, which every finite chain has: one evaluator,
``_gain_and_bias``, finds it for any chain, with transient states or
several closed classes, by direct solves of the gain/bias equations
(Puterman, *Markov Decision Processes*, 1994, §9.2).  No value comes from
fixed-point iteration, so results are reproducible to solver precision,
and every returned table is residual-checked against VALUE_TOL.  These are
the package's only float solves; route (b) in ``solvers`` evaluates with them.

There is one evaluator family, and every member works on a batch:
``policy_values`` (a game's values at its initial state) and
``mdp_policy_values`` (an induced MDP's per-state values) take a leading
batch axis and make one solve over the stack, and
``policy_value`` and ``mdp_policy_value`` are their batch-of-one case.
``mdp_run_values`` does the same for a stack cut into runs, one MDP each,
and ``mdp_policy_values`` is its one-run case: the runs' MDP arrays are
gathered per row, so one ``einsum`` contracts every run, with the bits of
contracting each run on its own.
``induce_mdp`` fixes the other players by their (|S|, |A_j|) policy
tables, not by ``Policy`` objects, so the solvers pass rows of their
lattices and stacks as they are; ``policy_value`` is the one entry point
here that takes a validated ``JointPolicy``.
A residual that is above VALUE_TOL or not a number raises ArithmeticError,
and a NaN or infinity in an average-reward chain raises MalformedInputError
before the solve, so non-finite data never comes back as a value.

``policy_values`` refuses an average-reward game that fails the
support-union test, ``check_ergodic``: the states must form one
communicating class when every joint action's transitions count.  No
value needs it, since a policy may still split the chain and its gains are
computed like any other's; it stays because it is the paper's standing
assumption for average-reward games, which the CLI reports with exit 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .games import (
    Average,
    Discounted,
    ErgodicityError,
    JointPolicy,
    MalformedInputError,
    StochasticGame,
    VALUE_TOL,
)


def _chain_stack(
    game: StochasticGame, stacks: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Markov matrices (B, |S|, |S|) and expected rewards (B, n, |S|).

    Member b of the batch is the joint policy made of every player's b-th
    policy; its joint-action probabilities are built player by player.
    """
    if len(stacks) != game.n_players:
        raise MalformedInputError("need one policy stack per player")
    stacks = [np.asarray(probs, dtype=float) for probs in stacks]
    batch = stacks[0].shape[0]
    for i, probs in enumerate(stacks):
        if probs.shape != (batch, game.n_states, game.action_counts[i]):
            raise MalformedInputError(f"policy {i} shape mismatch with game")
    w = np.ones((batch, game.n_states, 1))
    for probs in stacks:
        # Row-major flat index grows fastest in the last player, matching kron order.
        w = np.einsum("bsj,bsk->bsjk", w, probs).reshape(batch, game.n_states, -1)
    p = np.einsum("bsj,sjt->bst", w, game.transition)
    r = np.einsum("bsj,isj->bis", w, game.rewards)
    return p, r


def _discounted_values(p: np.ndarray, r: np.ndarray, gamma: float) -> np.ndarray:
    """Solve V = r + gamma P V for a stack of chains; (B, m, |S|) from r's shape.

    One solve covers the whole stack, and the Bellman residual is checked for
    every member: a residual above VALUE_TOL or NaN (a defective solve or
    non-finite data) raises ArithmeticError.
    """
    n = p.shape[-1]
    values = np.swapaxes(
        np.linalg.solve(np.eye(n) - gamma * p, np.swapaxes(r, 1, 2)), 1, 2
    )
    residual = np.max(np.abs(values - (r + gamma * values @ np.swapaxes(p, 1, 2))))
    if not residual <= VALUE_TOL:
        raise ArithmeticError(f"Bellman residual {residual} above tolerance")
    return values


def _closed_anchors(supports: np.ndarray) -> np.ndarray:
    """Each state's closed class's first state, or -1 on a transient state,
    (B, |S|), from a stack of (B, |S|, |S|) chain supports.

    The chains are the diagonal blocks of one graph, so one search finds
    every chain's communicating classes; a closed class is one that no edge
    leaves.
    """
    batch, n = supports.shape[:2]
    chain, src, dst = np.nonzero(supports)
    src, dst = chain * n + src, chain * n + dst
    graph = csr_matrix((np.ones(src.size, dtype=np.int8), (src, dst)), shape=(batch * n,) * 2)
    _, labels = connected_components(graph, directed=True, connection="strong")
    leaving = labels[src[labels[src] != labels[dst]]]
    firsts = np.unique(labels, return_index=True)[1][labels] % n
    return np.where(np.isin(labels, leaving), -1, firsts).reshape(batch, n)


def _gain_and_bias(
    p: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gain g and bias h, each (B, m, |S|), of a stack of chains with rewards
    r (B, m, |S|), and each chain's number of closed classes, (B,).

    g = P g and g + h = r + P h, with h = 0 at the first state of each
    closed class, so g = P* r.  No gain shares a solve with a transient
    state's bias, which grows as the state's exit probability shrinks:
    - the first solve has each closed class's gain in its first state's
      column, the other states' h from g + h = r + P h on the class, and on
      a transient state g less the chain's first closed class's gain, from
      g = P g, which is exactly 0 in a unichain chain;
    - the second has h on transient states, from h - P h = r - g there.
    Each distinct support pattern is classified once, all in one graph
    search.  A non-finite transition is refused first.  A residual above
    VALUE_TOL or not a number raises ArithmeticError: that of g = P g, and
    that of g + h = r + P h relative to the larger of 1 and the chain's
    largest bias.
    """
    if not np.isfinite(p).all():
        raise MalformedInputError("NaN or infinity in the transition probabilities")
    batch, n = p.shape[0], p.shape[-1]
    supports = p > 0.0
    packed = np.ascontiguousarray(np.packbits(supports.reshape(batch, -1), axis=1))
    patterns = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, pattern_of = np.unique(patterns, return_index=True, return_inverse=True)
    anchor = _closed_anchors(supports[first])[pattern_of]
    states = np.arange(n)
    closed, pinned = anchor >= 0, anchor == states
    column = np.where(closed, anchor, states)
    reference = np.argmax(closed, axis=1)[:, np.newaxis]
    rest = np.eye(n) - p
    # A transient row adds up each closed class's coefficients in the
    # class's gain column, then moves their sum to the reference column.
    transient = rest @ np.eye(n)[column]
    transient[np.arange(batch)[:, np.newaxis], states, reference] -= np.where(
        pinned[:, np.newaxis], transient, 0.0
    ).sum(axis=2)
    a = np.where(closed[:, :, np.newaxis], rest, transient)
    rows, cols = np.nonzero(closed)
    a[rows, cols, anchor[rows, cols]] = 1.0
    x = np.swapaxes(
        np.linalg.solve(a, np.swapaxes(np.where(closed[:, np.newaxis], r, 0.0), 1, 2)), 1, 2
    )
    g = np.take_along_axis(x, column[:, np.newaxis], axis=2)
    shift = np.take_along_axis(x, reference[:, np.newaxis], axis=2)
    g = np.where(closed[:, np.newaxis], g, g + shift)
    h = np.where((closed & ~pinned)[:, np.newaxis], x, 0.0)
    if not closed.all():
        q = np.where(closed[:, :, np.newaxis], np.eye(n), rest)
        h = np.where(closed[:, np.newaxis], h, r - g)
        h = np.swapaxes(np.linalg.solve(q, np.swapaxes(h, 1, 2)), 1, 2)
    pt = np.swapaxes(p, 1, 2)
    scale = np.maximum(1.0, np.abs(h).max(axis=(1, 2), keepdims=True))
    residual = np.maximum(np.abs(g - g @ pt), np.abs(g + h - r - h @ pt) / scale).max()
    if not residual <= VALUE_TOL:
        raise ArithmeticError(f"gain/bias residual {residual} above tolerance")
    return g, h, np.count_nonzero(pinned, axis=1)


def policy_values(game: StochasticGame, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Per-player values at the initial state of a batch of joint policies.

    ``stacks`` holds one (B, |S|, |A_i|) array per player; member b of the
    batch is the joint policy made of every player's b-th policy.  Returns
    shape (B, n), computed with one linear solve for the whole batch.
    """
    p, r = _chain_stack(game, stacks)
    if isinstance(game.formulation, Discounted):
        values = _discounted_values(p, r, game.formulation.gamma)
    elif check_ergodic(game):
        values = _gain_and_bias(p, r)[0]
    else:
        raise ErgodicityError("game fails the support-union ergodicity check")
    return values[:, :, game.initial_index]


def policy_value(game: StochasticGame, joint: JointPolicy) -> np.ndarray:
    """Per-player value of the joint policy at the initial state, shape (n,)."""
    return policy_values(game, [pol.probs[np.newaxis] for pol in joint.policies])[0]


def check_ergodic(game: StochasticGame) -> bool:
    """Support-union test: one communicating class over all joint actions."""
    support = game.transition.sum(axis=1) > 0.0
    return bool(np.all(_closed_anchors(support[np.newaxis]) == 0))


# ---------------------------------------------------------------------------
# The single-agent view of one player against fixed opponents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InducedMDP:
    """The MDP a player faces once every other player's policy is fixed.

    Transitions and rewards are exact expectations over the opponents'
    action distributions, so a policy's value here equals its value in the
    underlying game against those opponents.
    """

    states: tuple[str, ...]
    actions: tuple[str, ...]
    transition: np.ndarray  # (|S|, |A_i|, |S|)
    reward: np.ndarray  # (|S|, |A_i|)
    formulation: Discounted | Average
    initial_index: int

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)



def induce_mdp(
    game: StochasticGame, i: int, others: Sequence[np.ndarray]
) -> InducedMDP:
    """Marginalize all players but ``i`` out of the game.

    ``others`` lists the fixed policy tables, (|S|, |A_j|) arrays, of players
    0..n-1 skipping i, in player order; ``Policy.probs`` is one.
    """
    if not (0 <= i < game.n_players):
        raise MalformedInputError(f"player index {i} out of range")
    if len(others) != game.n_players - 1:
        raise MalformedInputError("need one fixed policy per opponent")
    t = game.transition.reshape((game.n_states, *game.action_counts, game.n_states))
    r = game.rewards[i].reshape((game.n_states, *game.action_counts))
    # Contract opponent axes one at a time; axis 1 + j is player j's actions,
    # and each contraction removes one axis before the next player's.
    opponents = [j for j in range(game.n_players) if j != i]
    for removed, (j, probs) in enumerate(zip(opponents, others)):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (game.n_states, game.action_counts[j]):
            raise MalformedInputError(f"fixed policy for player {j} has wrong shape")
        axis = 1 + j - removed
        t = np.einsum(t, list(range(t.ndim)), probs, [0, axis],
                      [k for k in range(t.ndim) if k != axis])
        r = np.einsum(r, list(range(r.ndim)), probs, [0, axis],
                      [k for k in range(r.ndim) if k != axis])
    return InducedMDP(
        states=game.states,
        actions=game.action_sets[i],
        transition=np.ascontiguousarray(t),
        reward=np.ascontiguousarray(r),
        formulation=game.formulation,
        initial_index=game.initial_index,
    )


def mdp_policy_values(mdp: InducedMDP, probs: np.ndarray) -> np.ndarray:
    """State values (B, |S|) of a (B, |S|, |A|) stack of policies in the MDP.

    One linear solve covers the whole stack.  Average-reward MDPs return
    each state's gain.
    """
    return mdp_run_values([mdp], [], probs)


def mdp_run_values(
    mdps: Sequence[InducedMDP], cuts: Sequence[int], probs: np.ndarray
) -> np.ndarray:
    """State values (B, |S|) of a policy stack cut into runs, one MDP each.

    ``cuts`` lists the rows where each run after the first starts, so run r
    spans rows cuts[r - 1] (or 0) to cuts[r] (or B) and is evaluated in
    ``mdps[r]``; the MDPs share states, actions and formulation.  The runs'
    MDP arrays are stacked once and gathered per row (every row of a
    single run gathers the one MDP), max(1, B // |A|) rows at a time, so
    the gathered (rows, |S|, |A|, |S|) transitions are no larger than the
    (B, |S|, |S|) Markov stack once B >= |A|.  Each row's products and
    sums are the ones a per-run contraction makes, bit for bit, and one
    linear solve then covers the whole stack.
    """
    probs = np.asarray(probs, dtype=float)
    mdp = mdps[0]
    if probs.ndim != 3 or probs.shape[1:] != (mdp.n_states, mdp.n_actions):
        raise MalformedInputError("policy stack shape mismatch with the MDP")
    n = probs.shape[0]
    run = np.repeat(np.arange(len(mdps)), np.diff([0, *cuts, n]))
    transitions = np.stack([m.transition for m in mdps])
    r = np.einsum("bsa,bsa->bs", probs, np.stack([m.reward for m in mdps])[run])
    p = np.empty((n, mdp.n_states, mdp.n_states))
    step = max(1, n // mdp.n_actions)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        np.einsum("bsa,bsat->bst", probs[rows], transitions[run[rows]], out=p[rows])
    if isinstance(mdp.formulation, Discounted):
        return _discounted_values(p, r[:, np.newaxis, :], mdp.formulation.gamma)[:, 0, :]
    return _gain_and_bias(p, r[:, np.newaxis, :])[0][:, 0, :]


def mdp_policy_value(mdp: InducedMDP, probs: np.ndarray) -> np.ndarray:
    """State values, or each state's gain, of a (|S|, |A|) policy array in
    the induced MDP."""
    return mdp_policy_values(mdp, np.asarray(probs)[np.newaxis])[0]

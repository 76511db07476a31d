"""Exact value computation for stochastic games under fixed joint policies.

Discounted values solve the linear Bellman system (I - gamma * P_pi) V = r_pi
directly; average values solve the stationary-distribution system
d (P_pi - I) = 0, sum(d) = 1 directly.  Both are direct dense solves rather
than fixed-point iteration, so results are reproducible to solver precision
and every returned table is residual-checked against VALUE_TOL.

There is one evaluator family, and every member works on a batch:
``policy_values`` (a game's values at its initial state) and
``mdp_policy_values`` (an induced MDP's per-state values) take a leading
batch axis and make one solve over the (B, |S|, |S|) stack, and
``policy_value`` and ``mdp_policy_value`` are their batch-of-one case.
``mdp_run_values`` does the same for a stack cut into runs, one MDP each,
and ``mdp_policy_values`` is its one-run case: the runs' MDP arrays are
gathered per row, so one ``einsum`` contracts every run, with the bits of
contracting each run on its own.
``induce_mdp`` fixes the other players by their (|S|, |A_j|) policy
tables, not by ``Policy`` objects, so the solvers pass rows of their
lattices and stacks as they are; ``policy_value`` is the one entry point
here that takes a validated ``JointPolicy``.
A residual that is above VALUE_TOL or not a number, or a non-finite
average gain, raises ArithmeticError, and a NaN in an average-reward
chain raises MalformedInputError before the stationary solve, so
non-finite data never comes back as a value.

The ergodicity check used to gate average-reward evaluation is the
support-union test: the state graph with an edge s -> s' whenever *some*
joint action moves s to s' with positive probability must form a single
communicating class.  This is a decidable approximation of requiring
irreducibility under every joint policy (which quantifies over a continuum);
a specific policy can still zero out the support of an action, so the
per-policy chain is re-checked at evaluation time.  That check asks only
for a unichain chain, one closed class plus possibly transient states,
which is exactly when the stationary system has a unique solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
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


def _closed_classes(support: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A chain's communicating classes from its (|S|, |S|) support.

    Returns (each state's class label, the sorted labels of the closed
    classes, those no edge leaves).
    """
    _, labels = connected_components(
        support.astype(np.int8), directed=True, connection="strong"
    )
    src, dst = np.nonzero(support)
    leaving = labels[src[labels[src] != labels[dst]]]
    return labels, np.setdiff1d(labels, leaving)


def _require_unichain(support: np.ndarray) -> None:
    """Raise unless a chain's (|S|, |S|) support has exactly one closed class.

    Transient states may feed into that class: d (P - I) = 0, sum(d) = 1 is
    uniquely solvable for any unichain chain, with d zero off the class.
    """
    closed = _closed_classes(support)[1]
    if closed.size != 1:
        raise ErgodicityError(
            f"chain induced by the policy has {closed.size} closed classes, not one"
        )


def _stationary_stack(p: np.ndarray) -> np.ndarray:
    """Stationary distributions (B, |S|) of a stack of unichain chains.

    Every chain is checked; chains sharing a support pattern share the
    verdict, so each distinct pattern is checked once.  A non-finite entry
    is a data fault, refused first with one test for the whole stack.
    """
    if not np.isfinite(p).all():
        raise MalformedInputError("NaN or infinity in the transition probabilities")
    n = p.shape[-1]
    supports = (p > 0.0).reshape(p.shape[0], -1)
    packed = np.ascontiguousarray(np.packbits(supports, axis=1))
    patterns = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
    for b in np.unique(patterns, return_index=True)[1]:
        _require_unichain(supports[b].reshape(n, n))
    a = np.swapaxes(p, 1, 2) - np.eye(n)
    a[:, -1, :] = 1.0
    b = np.zeros((p.shape[0], n, 1))
    b[:, -1, 0] = 1.0
    d = np.linalg.solve(a, b)[..., 0]
    residual = np.abs(d - (d[:, np.newaxis, :] @ p)[:, 0, :]).sum(axis=1)
    if not (np.all(residual <= VALUE_TOL) and np.all(d >= -VALUE_TOL)):
        raise ErgodicityError(f"stationary solve failed (residual {residual.max()})")
    d = np.clip(d, 0.0, None)
    return d / d.sum(axis=1, keepdims=True)


def _average_gains(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Long-run average rewards (B, m) of a stack of unichain chains.

    A non-finite reward reaches the gains only, so they are checked too.
    """
    gains = (r @ _stationary_stack(p)[:, :, np.newaxis])[:, :, 0]
    if not np.all(np.isfinite(gains)):
        raise ArithmeticError("non-finite average gain")
    return gains


def policy_values(game: StochasticGame, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Per-player values at the initial state of a batch of joint policies.

    ``stacks`` holds one (B, |S|, |A_i|) array per player; member b of the
    batch is the joint policy made of every player's b-th policy.  Returns
    shape (B, n), computed with one linear solve for the whole batch.
    """
    p, r = _chain_stack(game, stacks)
    if isinstance(game.formulation, Discounted):
        values = _discounted_values(p, r, game.formulation.gamma)
        return values[:, :, game.initial_index]
    if not check_ergodic(game):
        raise ErgodicityError("game fails the support-union ergodicity check")
    return _average_gains(p, r)


def policy_value(game: StochasticGame, joint: JointPolicy) -> np.ndarray:
    """Per-player value of the joint policy at the initial state, shape (n,)."""
    return policy_values(game, [pol.probs[np.newaxis] for pol in joint.policies])[0]


def check_ergodic(game: StochasticGame) -> bool:
    """Support-union test: one communicating class over all joint actions."""
    support = (game.transition.sum(axis=1) > 0.0).astype(np.int8)
    n_comp, _ = connected_components(support, directed=True, connection="strong")
    return n_comp == 1


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
    each gain broadcast over states so callers can index by state uniformly.
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
    return np.repeat(_average_gains(p, r[:, np.newaxis, :]), mdp.n_states, axis=1)


def mdp_policy_value(mdp: InducedMDP, probs: np.ndarray) -> np.ndarray:
    """State values of a (|S|, |A|) policy array in the induced MDP.

    Average-reward MDPs return a constant vector (the gain broadcast over
    states) so callers can index by state uniformly.
    """
    return mdp_policy_values(mdp, np.asarray(probs)[np.newaxis])[0]

"""Traced mode: spans and counters at the boundaries of `sgl`'s layers.

The tracer replaces each public function of interest in every module
namespace that binds it (``mdp_policy_value`` lives in ``sgl.values``,
``sgl.solvers`` and ``sgl.experiments``; ``linprog`` in ``sgl.solvers`` and
``sgl.restrictions``), and the ``contains``/``param_points`` methods and
two ``TrajectoryLog`` methods on their classes.  ``install`` and
``uninstall`` bracket the traced rounds; nothing under ``src/`` changes.

Spans (name, start, end, parent) are kept in memory and written out by
``write``.  A span's self time is its duration minus its children's.
Functions called once or twice per learning step (``wolf_phc_step``,
``q_learner_step``) and the tiny exact-value solves that run tens of
thousands of times per round (``policy_value``, ``mdp_policy_value``,
``check_ergodic``) are counted and timed in aggregate instead of spanned;
their time is still charged to the enclosing span as child time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

_clock = time.perf_counter

# (metric name, module that defines it, attribute, kind); kind is "span",
# "agg" (aggregate with per-call samples) or "step" (aggregate, count only).
FUNCTIONS = (
    ("values.policy_value", "sgl.values", "policy_value", "agg"),
    ("values.mdp_policy_value", "sgl.values", "mdp_policy_value", "agg"),
    ("values.check_ergodic", "sgl.values", "check_ergodic", "agg"),
    ("values.induce_mdp", "sgl.values", "induce_mdp", "span"),
    ("solvers.restricted_best_response", "sgl.solvers", "restricted_best_response", "span"),
    ("solvers.sweep_existence", "sgl.solvers", "sweep_existence", "span"),
    ("solvers.linprog", "scipy.optimize", "linprog", "span"),
    ("solvers.minimax", "sgl.solvers", "minimax_zero_sum_matrix", "span"),
    ("solvers.support_enum", "sgl.solvers", "support_enumeration_bimatrix", "span"),
    ("solvers.implicit", "sgl.solvers", "restricted_equilibrium_via_implicit", "span"),
    ("solvers.check_equilibrium", "sgl.solvers", "check_equilibrium", "span"),
    ("solvers.convexity_test", "sgl.solvers", "best_response_convexity_test", "span"),
    ("restrictions.build_implicit", "sgl.restrictions", "build_implicit", "span"),
    ("learners.self_play", "sgl.learners", "self_play", "span"),
    ("learners.step", "sgl.learners", "wolf_phc_step", "step"),
    ("learners.step", "sgl.learners", "q_learner_step", "step"),
    ("experiments.reproduce", "sgl.experiments", "reproduce", "span"),
    ("games.classify", "sgl.games", "classify", "span"),
)

# (metric name, class module, method); every class there defining the method.
METHODS = (
    ("restrictions.contains", "sgl.restrictions", "contains"),
    ("restrictions.param_points", "sgl.restrictions", "param_points"),
    ("learners.stabilization", "sgl.learners", "stabilization_iteration"),
    ("learners.to_csv", "sgl.learners", "to_csv"),
)

SGL_MODULES = (
    "sgl", "sgl.games", "sgl.values", "sgl.restrictions", "sgl.solvers",
    "sgl.learners", "sgl.experiments", "sgl.cli",
)

# Calls of the inner name that happen inside a span of the outer name.
NESTED = {
    "values.mdp_policy_value": ("solvers.br_route_c",),
    "solvers.restricted_best_response": ("solvers.sweep_existence",),
}

# Per-call median and tail are reported for these.
PERCENTILE_NAMES = (
    "values.policy_value",
    "values.mdp_policy_value",
    "values.induce_mdp",
    "solvers.br_route_a",
    "solvers.br_route_b",
    "solvers.br_route_c",
    "solvers.linprog",
    "solvers.minimax",
    "solvers.support_enum",
    "solvers.implicit",
    "solvers.check_equilibrium",
    "restrictions.contains",
    "games.classify",
)

MIN_PERCENTILE_SAMPLES = 40
TAIL_LEVELS = (75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99)


def route_of(game, space) -> str:
    """The best-response route `restricted_best_response` takes for these inputs."""
    name = type(space).__name__
    if name == "Singleton":
        return "solvers.br_singleton"
    if game.n_states == 1:
        return "solvers.br_route_a"
    if name in ("FullSpace", "ConvexHullStatewise", "FixedCoordinates"):
        return "solvers.br_route_b"
    if name in ("ConvexHullGlobal", "StateUniform"):
        return "solvers.br_route_c"
    if name == "DeterministicOnly":
        return "solvers.br_route_d"
    return "solvers.br_other"


class Tracer:
    """Span and counter store; one per traced run."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [frame id, name, start, child time]
        self.spans: list[tuple] = []  # (name, start, end, parent id, id, self time)
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_total: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.nested: dict[tuple[str, str], int] = {}
        self.points = 0
        self.iterations = 0
        self._next_id = 0
        self._step_acc: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        for outer in NESTED.get(name, ()):
            if any(frame[1] == outer for frame in self.stack):
                key = (outer, name)
                self.nested[key] = self.nested.get(key, 0) + 1
        self._next_id += 1
        frame = [self._next_id, name, _clock(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, spanned: bool) -> None:
        end = _clock()
        self.stack.pop()
        name = frame[1]
        duration = end - frame[2]
        own = duration - frame[3]
        if self.stack:
            self.stack[-1][3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_total[name] = self.self_total.get(name, 0.0) + own
        self.samples.setdefault(name, []).append(duration)
        if spanned:
            parent = self.stack[-1][0] if self.stack else 0
            self.spans.append((name, frame[2], end, parent, frame[0], own))

    def _wrap(self, name: str, fn, kind: str):
        tracer = self
        if kind == "step":
            # Two calls per learning iteration: count and time, nothing more.
            acc = [0, 0.0]
            self._step_acc.append(acc)

            @functools.wraps(fn)
            def step(*args, **kwargs):
                t0 = _clock()
                out = fn(*args, **kwargs)
                dt = _clock() - t0
                acc[0] += 1
                acc[1] += dt
                if tracer.stack:
                    tracer.stack[-1][3] += dt
                return out

            return step
        spanned = kind == "span"

        if name == "solvers.restricted_best_response":

            @functools.wraps(fn)
            def best_response(game, i, others, space, *args, **kwargs):
                outer = tracer._enter(name)
                inner = tracer._enter(route_of(game, space))
                try:
                    return fn(game, i, others, space, *args, **kwargs)
                finally:
                    tracer._exit(inner, True)
                    tracer._exit(outer, False)

            return best_response

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, spanned)
            if name == "solvers.sweep_existence":
                tracer.points += len(out.rows)
            elif name == "learners.self_play":
                tracer.iterations += out.iterations
            return out

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of the traced functions and methods."""
        modules = [sys.modules[m] for m in SGL_MODULES if m in sys.modules]
        for name, origin, attr, kind in FUNCTIONS:
            original = getattr(sys.modules[origin], attr)
            wrapped = self._wrap(name, original, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)
        for name, origin, attr in METHODS:
            for cls in list(vars(sys.modules[origin]).values()):
                if isinstance(cls, type) and attr in vars(cls):
                    original = vars(cls)[attr]
                    self._restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(name, original, "span"))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def _steps(self) -> tuple[int, float]:
        return sum(a[0] for a in self._step_acc), sum(a[1] for a in self._step_acc)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures per traced round (calls are exact per round)."""
        def calls(name: str) -> float:
            return self.calls.get(name, 0) / rounds

        def seconds(name: str) -> float:
            return self.total.get(name, 0.0) / rounds

        out: dict[str, float] = {}
        for name in ("values.policy_value", "values.mdp_policy_value", "values.induce_mdp",
                     "solvers.br_route_a", "solvers.br_route_b", "solvers.br_route_c",
                     "solvers.br_route_d", "solvers.linprog", "solvers.minimax",
                     "solvers.support_enum", "solvers.implicit",
                     "solvers.check_equilibrium", "restrictions.contains",
                     "games.classify"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = seconds(name)
        out["values.check_ergodic.calls"] = calls("values.check_ergodic")
        c_calls = self.calls.get("solvers.br_route_c", 0)
        c_evals = self.nested.get(("solvers.br_route_c", "values.mdp_policy_value"), 0)
        out["solvers.br_route_c.evals_per_call"] = c_evals / c_calls if c_calls else 0.0
        sweep_s = self.total.get("solvers.sweep_existence", 0.0)
        out["solvers.sweep_existence.points_per_s"] = self.points / sweep_s if sweep_s else 0.0
        out["solvers.sweep_existence.self_s"] = (
            self.self_total.get("solvers.sweep_existence", 0.0) / rounds
        )
        sweep_brs = self.nested.get(
            ("solvers.sweep_existence", "solvers.restricted_best_response"), 0
        )
        out["solvers.sweep_existence.br_calls_per_point"] = (
            sweep_brs / self.points if self.points else 0.0
        )
        out["solvers.convexity_test.s"] = seconds("solvers.convexity_test")
        out["restrictions.param_points.s"] = seconds("restrictions.param_points")
        out["restrictions.build_implicit.s"] = seconds("restrictions.build_implicit")
        play_s = self.total.get("learners.self_play", 0.0)
        out["learners.self_play.s"] = play_s / rounds
        out["learners.self_play.steps_per_s"] = self.iterations / play_s if play_s else 0.0
        step_calls, _ = self._steps()
        out["learners.step.calls"] = step_calls / rounds
        out["learners.stabilization.s"] = seconds("learners.stabilization")
        out["learners.to_csv.s"] = seconds("learners.to_csv")
        out["experiments.reproduce.s"] = seconds("experiments.reproduce")
        out["experiments.self_s"] = self.self_total.get("experiments.reproduce", 0.0) / rounds
        for name in PERCENTILE_NAMES:
            p50, tail, _ = self.percentiles(name, rounds)
            out[f"{name}.p50_ms"] = p50
            out[f"{name}.tail_ms"] = tail
        return out

    def percentiles(self, name: str, rounds: int) -> tuple[float, float, float]:
        """(median ms, tail ms, tail level) of the per-call times, pooled over rounds.

        Zeros where a round makes fewer than MIN_PERCENTILE_SAMPLES calls.
        The tail level is the highest of TAIL_LEVELS with at least ten of a
        round's calls beyond it, so it does not depend on the round count.
        """
        samples = self.samples.get(name, [])
        per_round = len(samples) / rounds
        if per_round < MIN_PERCENTILE_SAMPLES:
            return 0.0, 0.0, 0.0
        level = max(lv for lv in TAIL_LEVELS if per_round * (1.0 - lv / 100.0) >= 10.0)
        arr = np.asarray(samples) * 1e3
        return float(np.median(arr)), float(np.percentile(arr, level)), level

    def write(self, path) -> None:
        """Write spans and aggregate counters as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        steps, step_s = self._steps()
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent_id", "id", "self_s"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans],
            "aggregates": {
                name: {"calls": self.calls[name], "total_s": self.total[name],
                       "self_s": self.self_total[name]}
                for name in sorted(self.calls)
            },
            "nested_calls": {f"{o} > {i}": c for (o, i), c in sorted(self.nested.items())},
            "learning_steps": {"calls": steps, "total_s": step_s},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def breakdown(self, rounds: int) -> list[str]:
        """Human-readable lines: per name, calls, total and self time per round."""
        lines = []
        for name in sorted(self.total, key=lambda n: -self.self_total[n]):
            p50, tail, level = self.percentiles(name, rounds)
            extra = f"  p50 {p50:.4f} ms  p{level:g} {tail:.4f} ms" if level else ""
            lines.append(
                f"{name:40s} calls {self.calls[name] / rounds:10.1f}  "
                f"total {self.total[name] / rounds:8.4f} s  "
                f"self {self.self_total[name] / rounds:8.4f} s{extra}"
            )
        steps, step_s = self._steps()
        if steps:
            lines.append(f"{'learners.step':40s} calls {steps / rounds:10.1f}  "
                         f"total {step_s / rounds:8.4f} s")
        return lines

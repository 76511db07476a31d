"""Command-line surface: commands, file formats, and exit codes."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import sgl
from sgl.cli import main
from sgl.experiments import EXPERIMENT_NAMES, ReproductionSpec
from sgl.games import (
    Average,
    StochasticGame,
    bach_stravinsky,
    blotto_4_3,
    fact5_game,
    game_to_dict,
    load_game,
    rps,
    save_game,
)
from sgl.restrictions import (
    ConvexHullGlobal,
    DeterministicOnly,
    FullSpace,
    Singleton,
    StateUniform,
    save_spaces,
)
from sgl.games import MalformedInputError, Policy, joint_policy_to_list
from sgl.learners import PlayerSpec, final_joint_policy, self_play
from util import load_trajectory_rows, player_rows, reference_best_gains, reference_gains

# What an installer's generated `sgl` script does, given the entry point value
# as its first argument.
CONSOLE_SCRIPT_WRAPPER = """
import sys
from importlib.metadata import EntryPoint
entry = EntryPoint("sgl", sys.argv.pop(1), "console_scripts").load()
sys.argv[0] = "sgl"
sys.exit(entry())
"""


@pytest.fixture
def rps_file(tmp_path):
    path = tmp_path / "rps.json"
    save_game(rps(), path)
    return path


@pytest.fixture
def bos_file(tmp_path):
    path = tmp_path / "bos.json"
    save_game(bach_stravinsky(), path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestValidate:
    def test_valid_game(self, capsys, rps_file):
        code, payload = run_cli(capsys, "validate", str(rps_file))
        assert code == 0
        assert payload == {"valid": True, "violations": []}

    def test_malformed_probabilities_exit_2(self, capsys, tmp_path, rps_file):
        data = json.loads(rps_file.read_text())
        data["transitions"]["s0"]["0,0"] = {"s0": 0.9}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["validate", str(bad)])
        assert code == 2

    def test_missing_file_exit_2(self):
        assert main(["validate", "/nonexistent/game.json"]) == 2


class TestSolve:
    def test_minimax_rps(self, capsys, rps_file):
        code, payload = run_cli(capsys, "solve", "minimax", str(rps_file))
        assert code == 0
        assert payload["value"] == pytest.approx(0.0, abs=1e-9)
        assert payload["row"] == pytest.approx([1 / 3] * 3, abs=1e-9)

    def test_minimax_general_sum_exit_3(self, bos_file):
        assert main(["solve", "minimax", str(bos_file)]) == 3

    def test_support_enum_bos(self, capsys, bos_file):
        code, payload = run_cli(capsys, "solve", "support-enum", str(bos_file))
        assert code == 0
        assert payload["count"] == 3
        assert payload["degenerate"] is False

    def test_restricted_with_space_file(self, capsys, tmp_path, rps_file):
        game = rps()
        hull = ConvexHullGlobal((Policy([[0.5, 0.5, 0]]), Policy([[0, 0.5, 0.5]])))
        spaces_path = tmp_path / "spaces.json"
        save_spaces([FullSpace(1, 3), hull], game, spaces_path)
        code, payload = run_cli(
            capsys, "solve", "restricted", str(rps_file), "--spaces", str(spaces_path)
        )
        assert code == 0
        assert payload["value"] == pytest.approx(1 / 6, abs=1e-9)
        assert payload["certificate"]["verdict"] is True
        assert payload["joint_policy"][1]["s0"] == pytest.approx(
            [1 / 3, 0.5, 1 / 6], abs=1e-9
        )

    def test_restricted_nonconvex_space_exit_3(self, tmp_path, rps_file):
        spaces_path = tmp_path / "spaces.json"
        save_spaces([DeterministicOnly(1, 3), FullSpace(1, 3)], rps(), spaces_path)
        code = main(
            ["solve", "restricted", str(rps_file), "--spaces", str(spaces_path)]
        )
        assert code == 3


class TestCheck:
    def test_pure_rock_fails(self, capsys, tmp_path, rps_file):
        policy_path = tmp_path / "rock_rock.json"
        policy_path.write_text(
            json.dumps([{"s0": [1, 0, 0]}, {"s0": [1, 0, 0]}])
        )
        code, payload = run_cli(
            capsys,
            "check",
            "--game", str(rps_file),
            "--policy", str(policy_path),
            "--eps", "1e-9",
        )
        assert code == 0
        assert payload["verdict"] is False
        assert payload["gaps"] == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_spaces_file(self, capsys, tmp_path, rps_file):
        game = rps()
        spaces_path = tmp_path / "spaces.json"
        save_spaces([FullSpace(1, 3), FullSpace(1, 3)], game, spaces_path)
        policy_path = tmp_path / "uniform.json"
        uniform = [1 / 3, 1 / 3, 1 / 3]
        policy_path.write_text(json.dumps([{"s0": uniform}, {"s0": uniform}]))
        code, payload = run_cli(
            capsys,
            "check",
            "--game", str(rps_file),
            "--policy", str(policy_path),
            "--spaces", str(spaces_path),
            "--eps", "1e-8",
        )
        assert code == 0
        assert payload["verdict"] is True

    def test_policy_outside_space_exit_2(self, tmp_path, rps_file):
        game = rps()
        hull = ConvexHullGlobal((Policy([[0.5, 0.5, 0]]),))
        spaces_path = tmp_path / "spaces.json"
        save_spaces([hull, FullSpace(1, 3)], game, spaces_path)
        policy_path = tmp_path / "uniform.json"
        uniform = [1 / 3, 1 / 3, 1 / 3]
        policy_path.write_text(json.dumps([{"s0": uniform}, {"s0": uniform}]))
        code = main(
            [
                "check",
                "--game", str(rps_file),
                "--policy", str(policy_path),
                "--spaces", str(spaces_path),
            ]
        )
        assert code == 2


    @pytest.mark.parametrize("slop, code", [(5e-10, 0), (2e-9, 2)])
    @pytest.mark.parametrize(
        "entry", ["policy", "singleton", "convex_hull_global", "convex_hull_statewise"]
    )
    def test_rows_within_load_tolerance_load(self, tmp_path, rps_file, entry, slop, code):
        # A probability row may miss the simplex by LOAD_TOL = 1e-9 in any
        # file that holds one; it is renormalized on reading.
        row, sloppy = [0.5, 0.5, 0.0], [0.5, 0.5 + slop, 0.0]
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(
            [{"s0": sloppy if entry == "policy" else row}, {"s0": [1 / 3] * 3}]
        ))
        argv = ["check", "--game", str(rps_file), "--policy", str(policy_path)]
        if entry != "policy":
            space = {
                "singleton": {"policy": {"s0": sloppy}},
                "convex_hull_global": {"generators": [{"s0": sloppy}]},
                "convex_hull_statewise": {"generators": {"s0": [sloppy]}},
            }[entry]
            spaces_path = tmp_path / "spaces.json"
            spaces_path.write_text(json.dumps([{"variant": entry, **space}, {"variant": "full"}]))
            argv += ["--spaces", str(spaces_path)]
        assert main(argv) == code


    def test_spaces_shape_mismatch_exit_2(self, tmp_path, rps_file):
        spaces_path = tmp_path / "spaces.json"
        spaces_path.write_text(json.dumps(
            [{"variant": "full", "states": 5, "actions": 7}, {"variant": "full"}]
        ))
        policy_path = tmp_path / "uniform.json"
        uniform = [1 / 3, 1 / 3, 1 / 3]
        policy_path.write_text(json.dumps([{"s0": uniform}, {"s0": uniform}]))
        code = main(
            [
                "check",
                "--game", str(rps_file),
                "--policy", str(policy_path),
                "--spaces", str(spaces_path),
            ]
        )
        assert code == 2


    def test_missed_tolerance_exits_3_without_traceback(self, capsys, tmp_path):
        # At gamma = 1 - 1e-13 the values are about 1e13, so the Bellman
        # residual check cannot hold; that is reported, not raised.
        game_path = tmp_path / "fact5.json"
        save_game(fact5_game(gamma=0.9999999999999), game_path)
        policy_path = tmp_path / "pure.json"
        pure = {"s0": [1, 0], "left": [1, 0], "right": [1, 0]}
        policy_path.write_text(json.dumps([pure, pure]))
        code = main(["check", "--game", str(game_path), "--policy", str(policy_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: Bellman residual") and "Traceback" not in err


    def test_ergodicity_failure_exits_4_without_traceback(self, capsys, tmp_path):
        # Two states that each loop back to themselves: no policy connects
        # them, so the average-reward game fails the ergodicity check.
        transition = np.zeros((2, 1, 2))
        transition[0, 0, 0] = transition[1, 0, 1] = 1.0
        game = StochasticGame(
            ("a", "b"), (("x",), ("y",)), transition, np.zeros((2, 2, 1)), "a", Average()
        )
        game_path = tmp_path / "isolated.json"
        save_game(game, game_path)
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps([{"a": [1], "b": [1]}] * 2))
        code = main(["check", "--game", str(game_path), "--policy", str(policy_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: ") and "ergodicity" in err and "Traceback" not in err


    def test_multichain_policy_in_ergodic_game_exits_0(self, capsys, tmp_path):
        # Go-stay moves: staying keeps the state, going switches it, and
        # going from s1 pays 1.  The game passes the support-union check,
        # but the joint (stay, stay) splits it into two closed classes.
        transition = np.zeros((2, 2, 2))
        transition[0, 0, 0] = transition[0, 1, 1] = 1.0
        transition[1, 0, 1] = transition[1, 1, 0] = 1.0
        rewards = np.zeros((1, 2, 2))
        rewards[0, 1, 1] = 1.0
        game = StochasticGame(
            ("s0", "s1"), (("stay", "go"),), transition, rewards, "s0", Average()
        )
        game_path = tmp_path / "go_stay.json"
        save_game(game, game_path)
        policy_path = tmp_path / "stay.json"
        policy_path.write_text(json.dumps([{"s0": [1, 0], "s1": [1, 0]}]))
        code = main(["check", "--game", str(game_path), "--policy", str(policy_path)])
        assert code == 0
        stay = np.zeros(2, dtype=int)
        value = reference_gains(transition[[0, 1], stay][np.newaxis],
                                rewards[0][[0, 1], stay][np.newaxis])[0, 0]
        best = reference_best_gains(game)[0]
        assert (value, best) == (0.0, 0.5)
        cert = json.loads(capsys.readouterr().out)
        assert cert["gaps"] == [best - value] and cert["verdict"] is False


class TestSweep:
    def test_deterministic_rps_sweep(self, capsys, tmp_path, rps_file):
        game = rps()
        spaces_path = tmp_path / "spaces.json"
        from sgl.restrictions import DeterministicOnly

        save_spaces(
            [DeterministicOnly(1, 3), DeterministicOnly(1, 3)], game, spaces_path
        )
        out_csv = tmp_path / "sweep.csv"
        code, payload = run_cli(
            capsys,
            "sweep",
            "--game", str(rps_file),
            "--spaces", str(spaces_path),
            "--resolution", "1.0",
            "--eps", "1e-9",
            "--out", str(out_csv),
        )
        assert code == 0
        assert payload["min_max_gap"] == pytest.approx(1.0, abs=1e-9)
        assert payload["epsilon_equilibrium_found"] is False
        with open(out_csv) as fh:
            assert len(list(csv.reader(fh))) == 10


class TestLearn:
    def test_short_run_writes_csv(self, capsys, tmp_path, rps_file):
        out_csv = tmp_path / "traj.csv"
        code, payload = run_cli(
            capsys,
            "learn",
            "--game", str(rps_file),
            "--algo", "wolf-phc",
            "--iters", "2000",
            "--seed", "7",
            "--out", str(out_csv),
        )
        assert code == 0
        assert payload["iterations"] == 2000
        assert out_csv.exists()
        for row in payload["final_policies"]:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_config_file(self, capsys, tmp_path, rps_file):
        from sgl.learners import WolfPhcConfig

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(WolfPhcConfig(lose_ratio=2.0).to_dict()))
        code, _ = run_cli(
            capsys,
            "learn",
            "--game", str(rps_file),
            "--config", str(cfg_path),
            "--iters", "500",
            "--seed", "1",
        )
        assert code == 0

    def test_final_joint_reports_every_state(self, capsys, tmp_path):
        game_path = tmp_path / "fact5.json"
        save_game(fact5_game(), game_path)
        code, payload = run_cli(
            capsys,
            "learn",
            "--game", str(game_path),
            "--iters", "1000",
            "--seed", "3",
        )
        assert code == 0
        final_joint = payload["final_joint"]
        assert len(final_joint) == 2
        for player in final_joint:
            assert sorted(player) == ["left", "right", "s0"]
            for row in player.values():
                assert len(row) == 2
                assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_non_hull_space_exit_3(self, tmp_path, rps_file):
        spaces_path = tmp_path / "spaces.json"
        spaces_path.write_text(
            json.dumps([{"variant": "deterministic_only"}, {"variant": "full"}])
        )
        code = main(
            [
                "learn",
                "--game", str(rps_file),
                "--iters", "100",
                "--seed", "0",
                "--spaces", str(spaces_path),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("variant", ["state_uniform", "singleton"])
    def test_global_hulls_run_as_hull_seats(self, capsys, tmp_path, variant):
        game = fact5_game()
        game_path = tmp_path / "fact5.json"
        save_game(game, game_path)
        if variant == "state_uniform":
            spaces = [StateUniform(3, 2), StateUniform(3, 2)]
        else:
            spaces = [Singleton(Policy([[0.25, 0.75]] * 3)), StateUniform(3, 2)]
        spaces_path = tmp_path / "spaces.json"
        save_spaces(spaces, game, spaces_path)
        code, payload = run_cli(
            capsys,
            "learn",
            "--game", str(game_path),
            "--iters", "1000",
            "--seed", "3",
            "--spaces", str(spaces_path),
        )
        assert code == 0
        log = self_play(game, [PlayerSpec(space=s) for s in spaces], 1000, 3)
        assert payload["final_policies"] == [
            [float(x) for x in player_rows(log, i)[-1].explicit] for i in range(2)
        ]
        for space, final in zip(spaces, payload["final_policies"]):
            assert space.contains(Policy([final] * 3))
        if variant == "singleton":
            assert payload["final_policies"][0] == [0.25, 0.75]

    def test_final_in_space_flags_drifting_state_uniform_seats(self, capsys, tmp_path):
        # A hull seat learns one weight vector per state, so state-uniform
        # seats end with different weights in each state of Fact 5.
        game = fact5_game()
        game_path = tmp_path / "fact5.json"
        save_game(game, game_path)
        spaces = [FullSpace(3, 2), StateUniform(3, 2)]
        spaces_path = tmp_path / "spaces.json"
        save_spaces(spaces, game, spaces_path)
        code, payload = run_cli(
            capsys, "learn", "--game", str(game_path), "--iters", "500", "--seed", "3",
            "--spaces", str(spaces_path),
        )
        assert code == 0
        assert payload["final_in_space"] == [True, False]
        joint = final_joint_policy(self_play(game, [PlayerSpec(), PlayerSpec(
            space=StateUniform(3, 2))], 500, 3))
        assert payload["final_joint"] == joint_policy_to_list(joint, game.states)
        assert not StateUniform(3, 2).contains(joint[1])

    def test_spaces_match_direct_self_play(
        self, capsys, tmp_path, rps_file, rps_column_hull
    ):
        game = rps()
        spaces_path = tmp_path / "spaces.json"
        save_spaces([FullSpace(1, 3), rps_column_hull], game, spaces_path)
        code, payload = run_cli(
            capsys,
            "learn",
            "--game", str(rps_file),
            "--iters", "3000",
            "--seed", "5",
            "--spaces", str(spaces_path),
        )
        assert code == 0
        log = self_play(game, [PlayerSpec(), PlayerSpec(space=rps_column_hull)], 3000, 5)
        assert payload["final_policies"] == [
            [float(x) for x in player_rows(log, i)[-1].explicit] for i in range(2)
        ]
        assert payload["avg_rewards"] == [
            player_rows(log, i)[-1].avg_reward for i in range(2)
        ]
        assert payload["final_joint"] == joint_policy_to_list(
            final_joint_policy(log), game.states
        )
        assert payload["final_in_space"] == [True, True]


class TestReproduce:
    def test_fact1(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "reproduce", "fact1", "--out", str(tmp_path / "fact1")
        )
        assert code == 0
        summary = json.loads((tmp_path / "fact1" / "summary.json").read_text())
        assert summary["profiles"] == 9
        assert summary["equilibria"] == 0
        assert summary["min_max_gap"] == pytest.approx(1.0, abs=1e-9)

    def test_bos(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "reproduce", "bos-equilibria", "--out", str(tmp_path / "bos")
        )
        assert code == 0
        summary = json.loads((tmp_path / "bos" / "summary.json").read_text())
        assert summary["count"] == 3

    # sha256 of the certification outputs at the default seed, pinned from
    # the code before the restricted-space classes were collapsed.
    CERTIFICATION_DIGESTS = {
        "fact1": {
            "summary.json": "d593d61dde7f1d34d464010b30d2542bc14055c9d9c96dbe757330aed53abe2b",
        },
        "fact5": {
            "summary.json": "0dbfcd6405e782720a41febeb308e8e5f6ff61a67dc584c829c73104cbea0b5a",
            "sweep.csv": "c33796cb4c46b566a7a8dd7cd029058de46d7297959c94e1dbda127f3eeb4a0f",
        },
        "bos-equilibria": {
            "summary.json": "1f1e44abd2a3d112c3ca0f1ea690bacd09665f72f7a669765bf2aa99a0994cef",
        },
    }

    @pytest.mark.parametrize("name", sorted(CERTIFICATION_DIGESTS))
    def test_certification_outputs_are_pinned(self, capsys, tmp_path, name):
        code, _ = run_cli(capsys, "reproduce", name, "--out", str(tmp_path / name))
        assert code == 0
        for filename, digest in self.CERTIFICATION_DIGESTS[name].items():
            data = (tmp_path / name / filename).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, filename

    def test_all_runs_every_experiment(self, capsys, tmp_path):
        code, payload = run_cli(
            capsys,
            "reproduce", "all",
            "--iters", "2000",
            "--seeds", "1",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert [entry["experiment"] for entry in payload] == list(EXPERIMENT_NAMES)
        for entry in payload:
            assert entry["outdir"] == str(tmp_path / entry["experiment"])
            assert (tmp_path / entry["experiment"] / "summary.json").exists()
        for name, digests in self.CERTIFICATION_DIGESTS.items():
            for filename, digest in digests.items():
                data = (tmp_path / name / filename).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest, filename

    def test_small_learning_run_files(self, capsys, tmp_path):
        out = tmp_path / "rps"
        code, _ = run_cli(
            capsys,
            "reproduce", "rps",
            "--iters", "2000",
            "--seeds", "2",
            "--out", str(out),
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["runs"]) == 2
        assert (out / "trajectory_seed0.csv").exists()
        assert (out / "trajectory_seed1.csv").exists()
        assert (out / "plot_player0.dat").exists()
        assert "plot" in (out / "plot.gp").read_text()

    def test_restricted_trajectory_reads_back(self, capsys, tmp_path):
        # The restricted player's explicit probabilities are NumPy scalars in
        # memory; the files must hold plain numbers.
        out = tmp_path / "rps-restricted"
        code, _ = run_cli(
            capsys,
            "reproduce", "rps-restricted",
            "--iters", "2000",
            "--seeds", "1",
            "--out", str(out),
        )
        assert code == 0
        rows = load_trajectory_rows(out / "trajectory_seed0.csv")
        assert rows
        for row in rows:
            assert sum(row.explicit) == pytest.approx(1.0, abs=1e-9)
        for player in (0, 1):
            lines = (out / f"plot_player{player}.dat").read_text().splitlines()
            assert len(lines) > 1
            for line in lines[1:]:
                values = [float(x) for x in line.split()]
                assert len(values) == 4

    @pytest.mark.parametrize("counts", [{"n_seeds": 0}, {"workers": 0}, {"n_seeds": -1}])
    def test_spec_rejects_counts_below_one(self, tmp_path, counts):
        with pytest.raises(MalformedInputError):
            ReproductionSpec(name="rps", outdir=tmp_path, **counts)

    def test_unknown_name_exit_2(self):
        # argparse rejects names outside the experiment list
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "mystery"])
        assert exc.value.code == 2


class TestEnvironment:
    def test_bad_log_level_exit_2(self, monkeypatch, rps_file):
        monkeypatch.setenv("SGL_LOG_LEVEL", "verbose")
        assert main(["validate", str(rps_file)]) == 2

    def test_console_script_installed(self, tmp_path, rps_file):
        """The declared `sgl` script runs `main` and passes on its exit code.

        The script is built from `[project.scripts]` the way an installer's
        generated wrapper runs it, so the check needs no install; an `sgl`
        found on PATH must give the same output.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
        assert "sgl" in scripts
        assert callable(EntryPoint("sgl", scripts["sgl"], "console_scripts").load())

        env = dict(os.environ)
        src = str(Path(sgl.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def run(command, *argv):
            return subprocess.run(
                [*command, *argv], capture_output=True, text=True, cwd=tmp_path, env=env
            )

        wrapper = [sys.executable, "-c", CONSOLE_SCRIPT_WRAPPER, scripts["sgl"]]
        solved = run(wrapper, "solve", "minimax", str(rps_file))
        assert solved.returncode == 0, solved.stderr
        assert json.loads(solved.stdout)["value"] == pytest.approx(0.0, abs=1e-9)

        missing = run(wrapper, "validate", str(tmp_path / "missing.json"))
        assert missing.returncode == 2
        assert "Traceback" not in missing.stderr

        installed = shutil.which("sgl")
        if installed:
            result = run([installed], "solve", "minimax", str(rps_file))
            assert result.returncode == 0, result.stderr
            assert result.stdout == solved.stdout


def _rps_with(edit) -> dict:
    data = game_to_dict(rps())
    edit(data)
    return data


UNIFORM_PAIR = [{"s0": [1 / 3] * 3}] * 2
FULL = {"variant": "full"}
CHECK = ["check", "--game", "{game}", "--policy", "{policy}", "--spaces", "{spaces}"]
SWEEP = ["sweep", "--game", "{game}", "--spaces", "{spaces}", "--resolution"]
REPRODUCE = ["reproduce", "rps", "--iters", "10", "--out", "{out}"]
# argv with {game}, {policy}, {spaces} and {out} placeholders, and the
# contents of the files that differ from a valid rps game, policy and spaces.
BAD_INPUTS = {
    "hull-without-generators": (CHECK, {"spaces": [{"variant": "convex_hull_global"}, FULL]}),
    "singleton-without-policy": (CHECK, {"spaces": [{"variant": "singleton"}, FULL]}),
    "pin-with-two-fields": (
        CHECK, {"spaces": [{"variant": "fixed_coordinates", "pins": [["s0", 1]]}, FULL]}
    ),
    "pin-with-string-action": (
        CHECK, {"spaces": [{"variant": "fixed_coordinates", "pins": [["s0", "a", 0.5]]}, FULL]}
    ),
    "pin-with-fractional-action": (
        CHECK, {"spaces": [{"variant": "fixed_coordinates", "pins": [["s0", 1.5, 1 / 3]]}, FULL]}
    ),
    "statewise-generators-as-list": (
        CHECK, {"spaces": [{"variant": "convex_hull_statewise", "generators": [[1, 0, 0]]}, FULL]}
    ),
    "transitions-as-list": (["validate", "{game}"], {"game": _rps_with(
        lambda d: d.update(transitions=list(d["transitions"].values())))}),
    "rewards-as-object": (["validate", "{game}"], {"game": _rps_with(
        lambda d: d.update(rewards=dict(enumerate(d["rewards"]))))}),
    "probability-as-string": (["validate", "{game}"], {"game": _rps_with(
        lambda d: d["transitions"]["s0"].update({"0,0": {"s0": "one"}}))}),
    "probability-as-numeric-string": (["validate", "{game}"], {"game": _rps_with(
        lambda d: d["transitions"]["s0"].update({"0,0": {"s0": "1"}}))}),
    "reward-as-string": (["validate", "{game}"], {"game": _rps_with(
        lambda d: d["rewards"][0]["s0"].update({"0,0": "zero"}))}),
    "gamma-as-string": (["validate", "{game}"], {"game": _rps_with(
        lambda d: d.update(formulation={"discounted": "high"}))}),
    "policy-row-of-strings": (CHECK, {"policy": [{"s0": ["a", "b", "c"]}, UNIFORM_PAIR[1]]}),
    "policy-row-of-numeric-strings": (
        CHECK, {"policy": [{"s0": ["1", "0", "0"]}, UNIFORM_PAIR[1]]}
    ),
    "reproduce-no-seeds": (REPRODUCE + ["--seeds", "0"], {}),
    "reproduce-no-workers": (REPRODUCE + ["--workers", "0"], {}),
    "sweep-resolution-zero": (SWEEP + ["0"], {}),
    "sweep-resolution-nan": (SWEEP + ["nan"], {}),
    "sweep-resolution-negative": (SWEEP + ["-0.5"], {}),
}


@pytest.mark.parametrize("argv, files", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_without_traceback(capsys, tmp_path, argv, files):
    valid = {"game": game_to_dict(rps()), "policy": UNIFORM_PAIR, "spaces": [FULL, FULL]}
    paths = {"out": str(tmp_path / "out")}
    for name, data in {**valid, **files}.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(data))
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_round_trip_game_written_by_tool(tmp_path):
    game = blotto_4_3()
    path = tmp_path / "blotto.json"
    save_game(game, path)
    loaded = load_game(path)
    assert game_to_dict(loaded) == game_to_dict(game)

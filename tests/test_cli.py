"""Tests for the command-line runner: config handling, exit codes, replay.

Commands are exercised through main(argv) so the tests see exactly what a
shell invocation would: parsed args, validated configs, written files, and
the documented exit codes (0 ok, 1 failed check, 2 config, 3 solver,
4 non-convergence). Replay tests compare output bytes, not parsed values.
"""

import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stf_spde import cli
from stf_spde.cli import ConfigError, RunConfig, main
from stf_spde.grids import SpatialGrid, sine_field
from stf_spde.fixed_point import staircase_construct
from stf_spde.projection import trajectory_from_csv, trajectory_to_csv
from stf_spde.rng import path_seed
from stf_spde.solver import KNOWN_EXAMPLES, NewtonDivergence, solve_frozen
from stf_spde.wiener import NoisePath, save_noise_path


def write_config(path, overrides=None, drop=None):
    sections = {
        "problem": {"example": "heat_sqrt_drift", "sigma": "0.1"},
        "discretization": {
            "grid_size": "15",
            "time_steps": "32",
            "dyadic_level": "2",
        },
        "noise": {"n_modes": "8", "decay_exponent": "1.0"},
        "initial": {"datum": "sine(1)", "amplitude": "0.1"},
        "run": {"paths": "2", "master_seed": "5"},
    }
    for section, pairs in (overrides or {}).items():
        sections.setdefault(section, {}).update(
            {k: str(v) for k, v in pairs.items()}
        )
    for section, key in drop or ():
        sections[section].pop(key)
    lines = []
    for section, pairs in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in pairs.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return str(path)


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestRunConfig:
    def test_loads_and_builds(self, tmp_path):
        cfg = RunConfig.from_file(write_config(tmp_path / "run.ini"))
        assert cfg.example == "heat_sqrt_drift"
        assert cfg.paths == 2
        assert cfg.horizon == 1.0
        assert cfg.picard_max_iter is None
        problem = cfg.problem()
        assert problem.qwiener.n_modes == 8
        assert cfg.timegrid().n_steps == 32
        assert cfg.haar_level().n == 2

    def test_missing_key_names_the_key(self, tmp_path):
        path = write_config(tmp_path / "run.ini", drop=[("run", "paths")])
        with pytest.raises(ConfigError, match="paths"):
            RunConfig.from_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_file(str(tmp_path / "absent.ini"))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"discretization": {"time_steps": "33"}},
            {"noise": {"decay_exponent": "0.5"}},
            {"problem": {"example": "porous_sqrt_drift", "m": "1"}},
            {"problem": {"example": "wave_equation"}},
            {"initial": {"datum": "sawtooth(2)"}},
            {"run": {"paths": "0"}},
            {"discretization": {"time_steps": "ten"}},
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, overrides):
        path = write_config(tmp_path / "run.ini", overrides=overrides)
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_datum_selectors(self, tmp_path):
        grid = SpatialGrid(15)
        cfg = RunConfig.from_file(
            write_config(
                tmp_path / "a.ini",
                overrides={"initial": {"datum": "sine(2)", "amplitude": "0.3"}},
            )
        )
        assert np.allclose(
            cfg.initial_datum().values, sine_field(grid, 2, 0.3).values
        )
        cfg = RunConfig.from_file(
            write_config(
                tmp_path / "b.ini",
                overrides={"initial": {"datum": "constant(0.5)", "amplitude": "2.0"}},
            )
        )
        assert np.all(cfg.initial_datum().values == 1.0)
        cfg = RunConfig.from_file(
            write_config(tmp_path / "c.ini", overrides={"initial": {"datum": "bump"}})
        )
        bump = np.asarray(cfg.initial_datum().values)
        assert bump.max() > 0
        assert bump[0] == 0.0 and bump[-1] == 0.0
        assert np.allclose(bump, bump[::-1])

    def test_datum_from_file(self, tmp_path):
        values = np.linspace(-1.0, 1.0, 15)
        datum_path = tmp_path / "datum.txt"
        np.savetxt(datum_path, values)
        cfg = RunConfig.from_file(
            write_config(
                tmp_path / "run.ini",
                overrides={
                    "initial": {"datum": f"file:{datum_path}", "amplitude": "2.0"}
                },
            )
        )
        assert np.allclose(cfg.initial_datum().values, 2.0 * values)
        np.savetxt(datum_path, values[:4])
        with pytest.raises(ConfigError, match="shape"):
            RunConfig.from_file(
                write_config(
                    tmp_path / "bad.ini",
                    overrides={"initial": {"datum": f"file:{datum_path}"}},
                )
            )


class TestSimulate:
    def test_zero_data_run(self, tmp_path):
        path = write_config(
            tmp_path / "run.ini",
            overrides={"initial": {"datum": "constant(0)", "amplitude": "0"}},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        solution = trajectory_from_csv(str(out / "solution_000.csv"))
        assert np.all(solution.values == 0.0)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["path_seeds"]) == 2
        assert "output_dir" not in manifest["config"]

    def test_replay_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path / "run.ini")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(a)]) == 0
        assert main(["simulate", "--config", path, "--out", str(b)]) == 0
        tree_a, tree_b = read_tree(a), read_tree(b)
        assert list(tree_a) == list(tree_b)
        assert tree_a == tree_b

    def test_path_bits_unchanged_by_path_count(self, tmp_path):
        path = write_config(tmp_path / "run.ini")
        one, three = tmp_path / "one", tmp_path / "three"
        for out, paths in ((one, "1"), (three, "3")):
            argv = ["simulate", "--config", path, "--out", str(out), "--paths", paths]
            assert main(argv) == 0
        tree_one, tree_three = read_tree(one), read_tree(three)
        assert "solution_001.csv" not in tree_one
        for name in ("noise_000.bin", "coefficient_000.csv", "solution_000.csv"):
            assert tree_one[name] == tree_three[name]
        # the other paths are driven by other noise
        assert tree_three["solution_001.csv"] != tree_three["solution_000.csv"]

    def test_non_finite_noise_exits_with_solver_code(
        self, tmp_path, monkeypatch, capsys
    ):
        sample = cli.sample_increments

        def poisoned(spec, timegrid, seed):
            noise = sample(spec, timegrid, seed)
            increments = noise.increments.copy()
            increments[3, 0] = np.nan
            return NoisePath(timegrid, increments, seed)

        monkeypatch.setattr(cli, "sample_increments", poisoned)
        path = write_config(tmp_path / "run.ini")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_overrides_change_output(self, tmp_path):
        path = write_config(tmp_path / "run.ini")
        base, seeded, fewer = tmp_path / "base", tmp_path / "seeded", tmp_path / "few"
        assert main(["simulate", "--config", path, "--out", str(base)]) == 0
        assert (
            main(["simulate", "--config", path, "--out", str(seeded), "--seed", "9"])
            == 0
        )
        assert (
            main(["simulate", "--config", path, "--out", str(fewer), "--paths", "1"])
            == 0
        )
        assert read_tree(base) != read_tree(seeded)
        assert "solution_001.csv" not in read_tree(fewer)

    def test_solver_failure_exit_code(self, tmp_path, capsys):
        path = write_config(
            tmp_path / "run.ini",
            overrides={
                "problem": {"example": "porous_sqrt_drift", "m": "5"},
                "discretization": {
                    "grid_size": "63",
                    "time_steps": "2",
                    "dyadic_level": "1",
                    "horizon": "2.0",
                },
                "initial": {"datum": "sine(1)", "amplitude": "40"},
                "run": {"paths": "1"},
                "tolerances": {"newton_max_iter": "2", "dt_retries": "0"},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "run.ini", drop=[("run", "master_seed")])
        assert main(["simulate", "--config", path]) == 2
        assert "master_seed" in capsys.readouterr().err


FIXTURE_SIZE = {
    "discretization": {"grid_size": "31", "time_steps": "128", "dyadic_level": "3"},
    "noise": {"n_modes": "16"},
}


def simulate_path_by_path(cfg, out_dir):
    """cmd_simulate written out as a loop, one path at a time.

    Returns the first NewtonDivergence the loop meets, or None after it
    has written every output.
    """
    problem, level, tg = cfg.problem(), cfg.haar_level(), cfg.timegrid()
    solver_cfg = cfg.solver_config()
    outputs = []
    for i in range(cfg.paths):
        noise = cli.sample_increments(problem.qwiener, tg, path_seed(cfg.master_seed, i))
        try:
            xi = staircase_construct(problem, level, noise, solver_cfg)
            u = solve_frozen(problem, xi, noise, solver_cfg)
        except NewtonDivergence as exc:
            return exc
        names = (f"noise_{i:03d}.bin", f"coefficient_{i:03d}.csv", f"solution_{i:03d}.csv")
        save_noise_path(noise, os.path.join(out_dir, names[0]))
        trajectory_to_csv(xi, os.path.join(out_dir, names[1]))
        trajectory_to_csv(u, os.path.join(out_dir, names[2]))
        outputs.extend(names)
    cli._write_manifest(out_dir, "simulate", cfg, outputs)
    return None


class TestSimulateBatch:
    """simulate marches every path in one batch, with the path loop's bytes."""

    @pytest.mark.parametrize("example", KNOWN_EXAMPLES)
    def test_tree_matches_path_by_path_loop(self, tmp_path, example):
        path = write_config(
            tmp_path / "run.ini",
            overrides={"problem": {"example": example}, **FIXTURE_SIZE},
        )
        batch, loop = tmp_path / "batch", tmp_path / "loop"
        argv = ["simulate", "--config", path, "--out", str(batch), "--paths", "3"]
        assert main(argv) == 0
        cfg = dataclasses.replace(RunConfig.from_file(path), paths=3)
        loop.mkdir()
        assert simulate_path_by_path(cfg, str(loop)) is None
        tree_batch, tree_loop = read_tree(batch), read_tree(loop)
        assert len(tree_loop) == 10
        assert tree_batch == tree_loop

    @pytest.mark.parametrize("paths", ["1", "3"])
    def test_one_staircase_and_one_solve_call_per_run(
        self, tmp_path, monkeypatch, paths
    ):
        calls = {"staircase_construct": 0, "solve_frozen": 0}

        def counted(name):
            original = getattr(cli, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        path = write_config(tmp_path / "run.ini")
        argv = ["simulate", "--config", path, "--out", str(tmp_path), "--paths", paths]
        assert main(argv) == 0
        assert calls == {"staircase_construct": 1, "solve_frozen": 1}

    @pytest.mark.parametrize(
        "poison",
        [
            # path 2 alone, early in the sweep
            {2: (3, np.nan)},
            # path 3 fails at step 3 of the sweep, path 1 later in the sweep
            {1: (20, np.nan), 3: (3, np.inf)},
            # path 1 fails only in the last block, which only the re-solve
            # marches; the loop re-solves path 1 before it sweeps path 3
            {1: (28, np.nan), 3: (3, np.inf)},
        ],
    )
    def test_failure_is_the_path_loops_first(
        self, tmp_path, monkeypatch, capsys, poison
    ):
        # on porous_sqrt_drift a NaN and an inf increment fail with
        # different messages ("residual nan", "residual inf"); the lowest
        # poisoned path gets the NaN, so the stderr tells the paths apart
        path = write_config(
            tmp_path / "run.ini",
            overrides={
                "problem": {"example": "porous_sqrt_drift"},
                "run": {"paths": "4"},
            },
        )
        cfg = RunConfig.from_file(path)
        sample = cli.sample_increments
        poisoned_seeds = {
            path_seed(cfg.master_seed, p): step for p, step in poison.items()
        }

        def poisoned(spec, timegrid, seed):
            noise = sample(spec, timegrid, seed)
            if seed not in poisoned_seeds:
                return noise
            k, bad = poisoned_seeds[seed]
            increments = noise.increments.copy()
            increments[k, 0] = bad
            return NoisePath(timegrid, increments, seed)

        monkeypatch.setattr(cli, "sample_increments", poisoned)
        loop = tmp_path / "loop"
        loop.mkdir()
        want = simulate_path_by_path(cfg, str(loop))
        assert isinstance(want, NewtonDivergence)
        assert "residual nan" in str(want)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"solver failure: {want}\n"


class TestFixedPoint:
    def test_zero_data_converges_in_one_iteration(self, tmp_path):
        path = write_config(
            tmp_path / "run.ini",
            overrides={
                "initial": {"datum": "constant(0)", "amplitude": "0"},
                "run": {"paths": "1"},
            },
        )
        out = tmp_path / "out"
        assert main(["fixed-point", "--config", path, "--out", str(out)]) == 0
        with open(out / "picard_diagnostics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2
        assert float(rows[1][1]) == 0.0

    def test_heat_baseline_diagnostics(self, tmp_path):
        path = write_config(tmp_path / "run.ini")
        out = tmp_path / "out"
        assert main(["fixed-point", "--config", path, "--out", str(out)]) == 0
        with open(out / "picard_diagnostics.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) <= 2**2 + 1
        distances = [float(r[1]) for r in rows]
        assert distances[-1] == 0.0
        assert all(b <= a for a, b in zip(distances[1:], distances[2:]))
        assert (out / "fixed_point_000.csv").exists()
        assert (out / "fixed_point_001.csv").exists()

    def test_non_convergence_exit_and_partial_output(self, tmp_path):
        path = write_config(
            tmp_path / "run.ini",
            overrides={"tolerances": {"picard_max_iter": "1"}},
        )
        out = tmp_path / "out"
        assert main(["fixed-point", "--config", path, "--out", str(out)]) == 4
        assert (out / "picard_diagnostics.csv").exists()
        assert (out / "manifest.json").exists()

    def test_replay_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path / "run.ini", overrides={"run": {"paths": "1"}})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["fixed-point", "--config", path, "--out", str(a)]) == 0
        assert main(["fixed-point", "--config", path, "--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_path_bits_unchanged_by_path_count(self, tmp_path):
        path = write_config(
            tmp_path / "run.ini",
            overrides={"problem": {"example": "porous_sqrt_drift"}},
        )
        trees = {}
        for paths in ("1", "3"):
            out = tmp_path / paths
            argv = ["fixed-point", "--config", path, "--out", str(out)]
            assert main(argv + ["--paths", paths]) == 0
            trees[paths] = read_tree(out)
        assert "fixed_point_001.csv" not in trees["1"]
        assert trees["1"]["fixed_point_000.csv"] == trees["3"]["fixed_point_000.csv"]
        assert trees["3"]["fixed_point_001.csv"] != trees["3"]["fixed_point_000.csv"]

    @pytest.mark.parametrize(
        "sigma,newton_max_iter,paths,stderr",
        [
            (
                "0.1", "2", "3",
                "solver failure: no convergence in 2 iterations "
                "(residual 3.299e-09, target 1.072e-10, dt 7.812e-03)\n",
            ),
            # paths 4, 6 and 7 fail at earlier steps than path 2, whose
            # error a path-by-path loop meets first
            (
                "1.0", "3", "8",
                "solver failure: no convergence in 3 iterations "
                "(residual 3.221e-10, target 1.104e-10, dt 7.812e-03)\n",
            ),
        ],
    )
    def test_solver_failure_reports_the_lowest_failing_path(
        self, tmp_path, capsys, sigma, newton_max_iter, paths, stderr
    ):
        path = write_config(
            tmp_path / "run.ini",
            overrides={
                "problem": {"example": "porous_sqrt_drift", "sigma": sigma},
                "discretization": {
                    "grid_size": "31",
                    "time_steps": "128",
                    "dyadic_level": "3",
                },
                "noise": {"n_modes": "16"},
                "run": {"paths": paths, "master_seed": "11"},
                "tolerances": {"newton_max_iter": newton_max_iter, "dt_retries": "0"},
            },
        )
        out = tmp_path / "out"
        assert main(["fixed-point", "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == stderr


class TestVerify:
    def test_unknown_suite(self, tmp_path, capsys):
        assert main(["verify", "fourier", "--out", str(tmp_path)]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_haar_suite_passes_and_replays(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "haar", "--out", str(a)]) == 0
        assert main(["verify", "haar", "--out", str(b)]) == 0
        with open(a / "verify_haar.jsonl") as fh:
            checks = [json.loads(line) for line in fh]
        assert len(checks) == 4
        for check in checks:
            assert set(check) == {"name", "value", "bound", "pass"}
            assert check["pass"] is True
        assert read_tree(a) == read_tree(b)

    def test_unexpected_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def broken_suite():
            raise KeyError("planted fault")

        monkeypatch.setitem(cli.SUITES, "lc", broken_suite)
        assert main(["verify", "lc", "--out", str(tmp_path)]) == cli.EXIT_INTERNAL == 5
        err = capsys.readouterr().err
        assert "Traceback" in err and "planted fault" in err

    def test_lc_suite_passes(self, tmp_path):
        assert main(["verify", "lc", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "verify_lc.jsonl") as fh:
            names = [json.loads(line)["name"] for line in fh]
        assert names == [
            "lc_dyadic_consistency",
            "lc_refinement_decay",
            "lc_tail_level_4",
            "lc_tail_level_5",
        ]


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_missing_required_config_flag(self):
        assert main(["simulate"]) == 2


def test_cli_import_leaves_out_scipy_optimize():
    # brentq is imported where it is called: a fresh interpreter that only
    # imports the CLI never loads scipy.optimize
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, stf_spde.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"

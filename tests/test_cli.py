"""Tests for the command-line runner: config handling, exit codes, replay.

Commands are exercised through main(argv) so the tests see exactly what a
shell invocation would: parsed args, validated configs, written files, and
the documented exit codes (0 ok, 1 failed check, 2 config, 3 solver,
4 non-convergence). Replay tests compare output bytes, not parsed values.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from stf_spde import cli
from stf_spde.cli import ConfigError, RunConfig, main
from stf_spde.grids import SpatialGrid, sine_field
from stf_spde.projection import trajectory_from_csv
from stf_spde.wiener import NoisePath


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
        assert all(np.all(f.values == 0.0) for f in solution.fields)
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

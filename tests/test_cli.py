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
import re
import subprocess
import sys

import numpy as np
import pytest

from stf_spde import cli, solver
from stf_spde.cli import ConfigError, RunConfig, main
from stf_spde.estimators import EstimateInvalid
from stf_spde.grids import (
    SpatialGrid,
    laplacian_values,
    signed_power_values,
    sine_field,
)
from stf_spde.fixed_point import staircase_construct, xnorm_power_distance
from stf_spde.projection import trajectory_from_csv, trajectory_to_csv
from stf_spde.rng import path_seed
from stf_spde.solver import KNOWN_EXAMPLES, NewtonDivergence, solve_frozen
from stf_spde.wiener import (
    NoisePath,
    load_noise_path,
    sample_increments,
    save_noise_path,
)


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

    def test_config_is_read_as_utf8(self, tmp_path, capsys):
        # the locale once chose the codec, and byte 0xff raised
        # UnicodeDecodeError: exit 5 with a traceback
        path = tmp_path / "run.ini"
        write_config(path)
        text = path.read_text()
        path.write_bytes(("# \u03be = |sin 2\u03c0x|\n" + text).encode("utf-8"))
        assert RunConfig.from_file(str(path)).paths == 2
        path.write_bytes(text.encode("utf-8") + b"# \xff\n")
        with pytest.raises(ConfigError, match="cannot parse .*can't decode byte 0xff"):
            RunConfig.from_file(str(path))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot parse") and err.count("\n") == 1

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
            {"problem": {"sigma": "nan"}},
            {"discretization": {"horizon": "inf"}},
            {"tolerances": {"picard_max_iter": "0"}},
            {"tolerances": {"picard_tol": "nan"}},
            {"tolerances": {"picard_tol": "-1"}},
            {"tolerances": {"picard_tol": "inf"}},
        ],
    )
    def test_invalid_configs_rejected(self, tmp_path, overrides):
        path = write_config(tmp_path / "run.ini", overrides=overrides)
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    @pytest.mark.parametrize(
        "section,key,message",
        [
            ("typo_section", "exampel", "unknown key 'exampel' in section [typo_section]"),
            ("tolerances", "newton_tl", "unknown key 'newton_tl' in section [tolerances]"),
            (
                "problem",
                "horizon",
                "key 'horizon' belongs in section [discretization], not [problem]",
            ),
            # configparser would copy a [DEFAULT] entry into every section
            ("DEFAULT", "sigma", "key 'sigma' belongs in section [problem], not [DEFAULT]"),
        ],
    )
    def test_undeclared_or_misplaced_key_is_a_config_error(
        self, tmp_path, capsys, section, key, message
    ):
        # each of these once ran to exit 0 on the defaults
        path = write_config(tmp_path / "run.ini", overrides={section: {key: "2.0"}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_empty_unknown_section_is_a_config_error(self, tmp_path):
        path = write_config(tmp_path / "run.ini", overrides={"typo_section": {}})
        with pytest.raises(ConfigError, match=re.escape("unknown section [typo_section]")):
            RunConfig.from_file(path)

    def test_overrides_replace_file_values_before_the_one_validation(
        self, tmp_path, capsys
    ):
        path = write_config(tmp_path / "run.ini", overrides={"run": {"paths": "0"}})
        with pytest.raises(ConfigError, match="paths must be >= 1, got 0"):
            RunConfig.from_file(path)
        cfg = RunConfig.from_file(path, paths=2, master_seed=9)
        assert (cfg.paths, cfg.master_seed) == (2, 9)
        # --paths 2 over a file's paths = 0 once exited 2
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out), "--paths", "2"]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["paths"] == 2
        good = write_config(tmp_path / "good.ini")
        argv = ["simulate", "--config", good, "--out", str(tmp_path / "none"), "--paths", "0"]
        assert main(argv) == 2
        assert "config error: paths must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    def test_readme_key_table_matches_the_schema(self):
        # README's CLI section lists every key as | key | section | type | default | ...
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (\w+) \| ([^|]+) \|", fh.read(), re.M)
        declared = {}
        for f in dataclasses.fields(RunConfig):
            if f.default is dataclasses.MISSING:
                default = "required"
            elif f.default is None:
                default = "no cap"
            elif isinstance(f.default, str):
                default = f"`{f.default}`"
            else:
                default = repr(f.default)
            declared[f.name] = (f.metadata["section"], f.metadata["cast"].__name__, default)
        table = {key: (section, cast, default.strip()) for key, section, cast, default in rows}
        assert table == declared

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
        # the ends of the mode range
        for k in (1, 15):
            cfg = RunConfig.from_file(
                write_config(tmp_path / "d.ini", overrides={"initial": {"datum": f"sine({k})"}})
            )
            assert np.array_equal(cfg.initial_datum().values, sine_field(grid, k, 0.1).values)

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


    @pytest.mark.parametrize(
        "initial, message",
        [
            # both once reached scipy's banded solve: "array must not contain infs or NaNs"
            ({"amplitude": "nan"}, "key 'amplitude' in section [initial] must be finite, got nan"),
            (
                {"datum": "constant(nan)"},
                "key 'datum' in section [initial] gives non-finite values at amplitude "
                "0.1: 'constant(nan)'",
            ),
            (
                {"datum": "constant(1e300)", "amplitude": "1e300"},
                "key 'datum' in section [initial] gives non-finite values at amplitude "
                "1e+300: 'constant(1e300)'",
            ),
            # both once loaded and ran: an all-zero datum and the aliased mode 1
            (
                {"datum": "sine(0)"},
                "key 'datum' in section [initial]: mode k of sine(k) must be in "
                "1..15 (grid_size), got 0",
            ),
            (
                {"datum": "sine(16)"},
                "key 'datum' in section [initial]: mode k of sine(k) must be in "
                "1..15 (grid_size), got 16",
            ),
        ],
        ids=["amplitude-nan", "constant-nan", "overflow", "sine-0", "sine-16"],
    )
    def test_bad_datum_is_a_config_error_naming_its_key(
        self, tmp_path, capsys, initial, message
    ):
        path = write_config(tmp_path / "run.ini", overrides={"initial": initial})
        with pytest.raises(ConfigError) as info:
            RunConfig.from_file(path)
        assert str(info.value) == message
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_datum_file_with_nan_is_a_config_error(self, tmp_path):
        datum_path = tmp_path / "datum.txt"
        np.savetxt(datum_path, np.r_[np.ones(7), np.nan, np.ones(7)])
        path = write_config(
            tmp_path / "run.ini", overrides={"initial": {"datum": f"file:{datum_path}"}}
        )
        with pytest.raises(ConfigError, match=re.escape("key 'datum' in section [initial]")):
            RunConfig.from_file(path)


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

    def test_reloaded_noise_sweeps_with_a_fresh_draw(self, tmp_path):
        # a TimeGrid is only its mesh, so a noise file reloaded with the
        # config's horizon lives on cfg.timegrid() and joins its ensembles
        path = write_config(tmp_path / "run.ini")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        cfg = RunConfig.from_file(path)
        problem, level, tg = cfg.problem(), cfg.haar_level(), cfg.timegrid()
        reloaded = load_noise_path(str(out / "noise_000.bin"), cfg.horizon)
        fresh = sample_increments(problem.qwiener, tg, path_seed(cfg.master_seed, 1))
        both = staircase_construct(problem, level, [reloaded, fresh])
        fresh_xi = staircase_construct(problem, level, fresh)
        assert both.values[1].tobytes() == fresh_xi.values.tobytes()
        assert xnorm_power_distance(both.path(0), fresh_xi, problem) > 0.0
        written = trajectory_from_csv(str(out / "coefficient_000.csv"))
        assert both.path(0).values.tobytes() == written.values.tobytes()

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

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_newton_tol_is_a_config_error(self, tmp_path, capsys, tol):
        # nan once ran to exit 0 with every porous step left at the datum
        path = write_config(
            tmp_path / "run.ini",
            overrides={
                "problem": {"example": "porous_sqrt_drift"},
                "tolerances": {"newton_tol": tol},
            },
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert "newton_tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_horizon_is_a_config_error(self, tmp_path, capsys):
        # it once reached the solver: exit 3, "non-finite starting residual
        # nan (dt inf)"
        path = write_config(
            tmp_path / "run.ini", overrides={"discretization": {"horizon": "inf"}}
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert "horizon T must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


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
        cfg = RunConfig.from_file(path, paths=3)
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

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("picard_max_iter", "0", "max_iter must be >= 1, got 0"),
            ("picard_tol", "nan", "tol must be >= 0 and finite, got nan"),
            ("picard_tol", "-1", "tol must be >= 0 and finite, got -1.0"),
            ("picard_tol", "inf", "tol must be >= 0 and finite, got inf"),
        ],
    )
    def test_bad_stopping_rule_is_a_config_error(
        self, tmp_path, capsys, key, value, message
    ):
        # these once gave exit 5 (max_iter = 0), exit 4 after every pass
        # (nan, -1) and exit 0, converged after one pass (inf)
        path = write_config(tmp_path / "run.ini", overrides={"tolerances": {key: value}})
        out = tmp_path / "out"
        assert main(["fixed-point", "--config", path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

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
                "0.1", "1", "3",
                "solver failure: no convergence in 1 iterations "
                "(residual 3.705e-08, target 1.072e-10, dt 7.812e-03)\n",
            ),
            # path 6 fails at an earlier step than path 4, whose error a
            # path-by-path loop meets first
            (
                "0.5", "2", "8",
                "solver failure: no convergence in 2 iterations "
                "(residual 1.537e-10, target 1.165e-10, dt 7.812e-03)\n",
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
    def test_records_pass_on_their_own_comparison(self):
        for value, bound, at_most, at_least in (
            (1.0, 1.0, True, True),
            (0.5, 1.0, True, False),
            (2.0, 1.0, False, True),
            (-np.inf, 0.0, True, False),
            (np.nan, 1.0, False, False),
            (np.nan, np.nan, False, False),
        ):
            low = cli._at_most("x", value, bound)
            high = cli._at_least("x", value, bound)
            assert low["pass"] is at_most and high["pass"] is at_least
            for record in (low, high):
                assert list(record) == ["name", "value", "bound", "pass"]
                assert record["name"] == "x" and type(record["value"]) is float
        # integer counts and numpy scalars become plain floats
        assert cli._at_most("n", np.int64(0), 0) == {
            "name": "n", "value": 0.0, "bound": 0.0, "pass": True
        }

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
            assert check["value"] <= check["bound"]
        assert read_tree(a) == read_tree(b)

    def test_estimate_failure_exits_with_solver_code(self, tmp_path, monkeypatch, capsys):
        def failing_suite():
            raise EstimateInvalid("not enough surviving paths to estimate")

        monkeypatch.setitem(cli.SUITES, "energy", failing_suite)
        assert main(["verify", "energy", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err == "solver failure: not enough surviving paths to estimate\n"
        assert not (tmp_path / "verify_energy.jsonl").exists()

    def test_unexpected_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def broken_suite():
            raise KeyError("planted fault")

        monkeypatch.setitem(cli.SUITES, "lc", broken_suite)
        assert main(["verify", "lc", "--out", str(tmp_path)]) == cli.EXIT_INTERNAL == 5
        err = capsys.readouterr().err
        assert "Traceback" in err and "planted fault" in err

    def test_hypotheses_growth_records_fail_on_faster_growth(self, monkeypatch):
        # an operator of order m + 2 outgrows the V-norm power the growth
        # constant is fixed against; each example's growth record shows it
        def steeper(problem, u_values, xi_values):
            grid = problem.qwiener.grid
            return laplacian_values(
                grid, signed_power_values(u_values, problem.m + 2)
            ) + signed_power_values(xi_values, 0.5)

        monkeypatch.setattr(solver, "_operator_values", steeper)
        checks = cli.suite_hypotheses()
        assert [c["name"] for c in checks] == [
            f"hypotheses{kind}_{example}"
            for example in KNOWN_EXAMPLES
            for kind in ("", "_growth")
        ]
        for growth in checks[1::2]:
            assert growth["bound"] == 1.0 + 1e-12
            assert growth["value"] > 1.0 and growth["pass"] is False

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

    @pytest.mark.parametrize(
        "command,via",
        [
            (command, via)
            for command in ("simulate", "fixed-point", "verify")
            for via in ("out", "out_under", "output_dir")
            # verify takes no config, so only --out names its directory
            if command != "verify" or via != "output_dir"
        ],
    )
    def test_output_dir_that_cannot_be_made_is_a_usage_error(
        self, tmp_path, capsys, command, via
    ):
        # os.makedirs once raised FileExistsError or NotADirectoryError
        # here: exit 5 with a traceback
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if via == "out_under" else taken
        if command == "verify":
            argv = ["verify", "haar", "--out", str(out)]
        else:
            run = {"output_dir": str(out)} if via == "output_dir" else {}
            path = write_config(tmp_path / "run.ini", overrides={"run": run})
            argv = [command, "--config", path]
            if via != "output_dir":
                argv += ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert err.count("\n") == 1
        assert taken.is_file()

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

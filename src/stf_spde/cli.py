"""Configuration-driven experiment runner and verification harness.

Three subcommands expose the library from the shell:

    stf-spde simulate    --config run.ini [--out DIR] [--seed S] [--paths M]
    stf-spde fixed-point --config run.ini [--out DIR] [--seed S] [--paths M]
    stf-spde verify SUITE [--out DIR]

Configs are flat ``key = value`` INI text (diff-friendly, no dependencies);
every cross-constraint of the library is validated at load time. All outputs
are deterministic functions of (config, master seed): CSVs print floats with
17 significant digits, manifests carry the config echo plus the derived
per-path seeds and no timestamps, so re-running a command replays its output
byte for byte.

Exit codes (stable contract): 0 success, 1 verification check failed,
2 usage/config error, 3 solver failure, 4 fixed-point non-convergence,
5 internal error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import re
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from . import __version__
from .estimators import EstimateInvalid, energy_report, mc_mean_stderr
from .fixed_point import (
    _staircase_solve,
    continuity_probe,
    picard_iterate,
    staircase_construct,
    time_regularity_probe,
)
from .grids import Field, SpatialGrid, sine_field
from .projection import (
    HaarLevel,
    TimeGrid,
    Trajectory,
    haar_rate_experiment,
    proj_shifted,
    smoothed_seed,
    trajectory_lp_norm,
    trajectory_to_csv,
)
from .rng import gaussian_stream, path_seed
from .solver import (
    KNOWN_EXAMPLES,
    NewtonDivergence,
    ProblemSpec,
    SolverConfig,
    check_hypotheses,
    solve_frozen,
)
from .wiener import (
    QWienerSpec,
    lc_q_wiener,
    lc_scalar_bm,
    sample_increments,
    sample_increments_batch,
    save_noise_path,
    tail_bound_probe,
)

__all__ = ["ConfigError", "RunConfig", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INTERNAL = 5

_SINE_RE = re.compile(r"^sine\((\d+)\)$")
_CONST_RE = re.compile(r"^constant\(([^()]+)\)$")

_SEED_NOTE = (
    "per-path seeds are path_seed(master_seed, i): splitmix64 re-keying of "
    "the master seed by the path index"
)


class ConfigError(ValueError):
    """A config file is missing a key or violates a cross-constraint."""


def _require(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise ConfigError(f"missing required key '{key}' in section [{section}]")
    return cp.get(section, key)


def _typed(section: str, key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(
            f"key '{key}' in section [{section}] is not a valid "
            f"{cast.__name__}: {raw!r}"
        ) from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, validated against the library's rules."""

    example: str
    grid_size: int
    time_steps: int
    horizon: float
    dyadic_level: int
    n_modes: int
    decay_exponent: float
    sigma: float
    m: int
    gradient_form: str
    datum: str
    amplitude: float
    paths: int
    master_seed: int
    output_dir: str
    newton_tol: float
    newton_max_iter: int
    newton_max_halvings: int
    dt_retries: int
    picard_tol: float
    picard_max_iter: int | None

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            cp.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc

        def req(section, key, cast):
            return _typed(section, key, _require(cp, section, key), cast)

        def opt(section, key, cast, default):
            if not cp.has_option(section, key):
                return default
            return _typed(section, key, cp.get(section, key), cast)

        cfg = cls(
            example=req("problem", "example", str).strip(),
            grid_size=req("discretization", "grid_size", int),
            time_steps=req("discretization", "time_steps", int),
            horizon=opt("discretization", "horizon", float, 1.0),
            dyadic_level=req("discretization", "dyadic_level", int),
            n_modes=req("noise", "n_modes", int),
            decay_exponent=req("noise", "decay_exponent", float),
            sigma=opt("problem", "sigma", float, 0.1),
            m=opt("problem", "m", int, 2),
            gradient_form=opt("problem", "gradient_form", str, "divergence").strip(),
            datum=req("initial", "datum", str).strip(),
            amplitude=opt("initial", "amplitude", float, 1.0),
            paths=req("run", "paths", int),
            master_seed=req("run", "master_seed", int),
            output_dir=opt("run", "output_dir", str, "out").strip(),
            newton_tol=opt("tolerances", "newton_tol", float, 1e-10),
            newton_max_iter=opt("tolerances", "newton_max_iter", int, 50),
            newton_max_halvings=opt("tolerances", "newton_max_halvings", int, 30),
            dt_retries=opt("tolerances", "dt_retries", int, 3),
            picard_tol=opt("tolerances", "picard_tol", float, 0.0),
            picard_max_iter=opt("tolerances", "picard_max_iter", int, None),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.paths < 1:
            raise ConfigError(f"paths must be >= 1, got {self.paths}")
        try:
            # building the objects runs every library-side invariant
            self.problem()
            self.timegrid()
            self.haar_level()
            self.solver_config()
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.grid_size)

    def qwiener(self) -> QWienerSpec:
        return QWienerSpec.power_decay(
            self.grid(), n_modes=self.n_modes, decay_exponent=self.decay_exponent
        )

    def timegrid(self) -> TimeGrid:
        return TimeGrid(self.time_steps, T=self.horizon, dyadic_level=self.dyadic_level)

    def initial_datum(self) -> Field:
        return _build_datum(self.grid(), self.datum, self.amplitude)

    def problem(self) -> ProblemSpec:
        return ProblemSpec(
            self.example,
            self.qwiener(),
            self.initial_datum(),
            m=self.m,
            sigma=self.sigma,
            gradient_noise_form=self.gradient_form,
        )

    def haar_level(self) -> HaarLevel:
        return HaarLevel(
            self.dyadic_level, smoothed_seed(self.initial_datum(), self.dyadic_level)
        )

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            newton_tol=self.newton_tol,
            newton_max_iter=self.newton_max_iter,
            newton_max_halvings=self.newton_max_halvings,
            dt_retries=self.dt_retries,
        )

    def as_dict(self) -> dict:
        # the output directory is plumbing, not part of the experiment:
        # leaving it out keeps manifests identical across working copies
        d = dataclasses.asdict(self)
        d.pop("output_dir")
        return d


def _build_datum(grid: SpatialGrid, selector: str, amplitude: float) -> Field:
    """Field from a selector: sine(k), bump, constant(c), or file:PATH."""
    got = _SINE_RE.match(selector)
    if got:
        return sine_field(grid, int(got.group(1)), amplitude)
    got = _CONST_RE.match(selector)
    if got:
        value = _typed("initial", "datum", got.group(1), float)
        return Field(grid, amplitude * value * np.ones(grid.n_interior))
    if selector == "bump":
        r = (grid.nodes - 0.5) / 0.4
        values = np.where(
            np.abs(r) < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - r * r, 1e-300)), 0.0
        )
        return Field(grid, amplitude * values)
    if selector.startswith("file:"):
        path = selector[len("file:") :]
        if not os.path.isfile(path):
            raise ConfigError(f"datum file not found: {path}")
        values = np.loadtxt(path, dtype=float)
        if values.shape != (grid.n_interior,):
            raise ConfigError(
                f"datum file {path} holds shape {values.shape}, the grid "
                f"needs ({grid.n_interior},)"
            )
        return Field(grid, amplitude * values)
    raise ConfigError(
        f"unknown datum selector {selector!r}; use sine(k), bump, "
        "constant(c), or file:PATH"
    )


def _write_manifest(out_dir: str, command: str, cfg: RunConfig, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": cfg.as_dict(),
        "seed_derivation": _SEED_NOTE,
        "path_seeds": [path_seed(cfg.master_seed, i) for i in range(cfg.paths)],
        "outputs": sorted(outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    problem = cfg.problem()
    level = cfg.haar_level()
    tg = cfg.timegrid()
    solver_cfg = cfg.solver_config()
    results = []
    try:
        for i in range(cfg.paths):
            noise = sample_increments(
                problem.qwiener, tg, path_seed(cfg.master_seed, i)
            )
            xi = staircase_construct(problem, level, noise, solver_cfg)
            u = solve_frozen(problem, xi, noise, solver_cfg)
            results.append((noise, xi, u))
    except NewtonDivergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    outputs = []
    for i, (noise, xi, u) in enumerate(results):
        names = (
            f"noise_{i:03d}.bin",
            f"coefficient_{i:03d}.csv",
            f"solution_{i:03d}.csv",
        )
        save_noise_path(noise, os.path.join(out_dir, names[0]))
        trajectory_to_csv(xi, os.path.join(out_dir, names[1]))
        trajectory_to_csv(u, os.path.join(out_dir, names[2]))
        outputs.extend(names)
    _write_manifest(out_dir, "simulate", cfg, outputs)
    print(f"wrote {len(outputs)} files for {cfg.paths} paths to {out_dir}")
    return EXIT_OK


def cmd_fixed_point(cfg: RunConfig, out_dir: str) -> int:
    problem = cfg.problem()
    level = cfg.haar_level()
    tg = cfg.timegrid()
    noises = [
        sample_increments(problem.qwiener, tg, path_seed(cfg.master_seed, i))
        for i in range(cfg.paths)
    ]
    try:
        iterates, diag = picard_iterate(
            problem,
            level,
            noises,
            cfg.solver_config(),
            tol=cfg.picard_tol,
            max_iter=cfg.picard_max_iter,
        )
    except NewtonDivergence as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    outputs = ["picard_diagnostics.csv"]
    diag.to_csv(os.path.join(out_dir, outputs[0]))
    for i, xi in enumerate(iterates):
        name = f"fixed_point_{i:03d}.csv"
        trajectory_to_csv(xi, os.path.join(out_dir, name))
        outputs.append(name)
    _write_manifest(out_dir, "fixed-point", cfg, outputs)
    print(
        f"{diag.n_iterations} iterations, residual {diag.residual:.6g}, "
        f"converged: {diag.converged}"
    )
    if not diag.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites: built-in configurations, one dict per check


def _check(name: str, value: float, bound: float, ok: bool) -> dict:
    return {"name": name, "value": float(value), "bound": float(bound), "pass": bool(ok)}


def _probe_fixture():
    grid = SpatialGrid(31)
    qspec = QWienerSpec.power_decay(grid, n_modes=16, decay_exponent=1.0)
    datum = Field(grid, 0.1 * np.sin(np.pi * grid.nodes))
    tg = TimeGrid(128)
    level = HaarLevel(3, smoothed_seed(datum, 3))
    return grid, qspec, datum, tg, level


def suite_wiener() -> list[dict]:
    """Covariance/variance of the sampled noise against min(s,t) lambda_i."""
    grid = SpatialGrid(31)
    qspec = QWienerSpec.power_decay(grid, n_modes=16, decay_exponent=1.0)
    tg = TimeGrid(4, T=1.0)
    n_paths = 20_000
    inc = sample_increments_batch(
        qspec, tg, [path_seed(101, i) for i in range(n_paths)]
    )
    # nodes[:, j] is W(t_{j+1}), summed up in place of the increments
    nodes = np.cumsum(inc, axis=1, out=inc)
    checks = []
    # the sine basis is h-orthonormal, so mode i's coefficient of W(t) is
    # exactly the i-th cumulative increment; its covariance across two
    # times must be min(s,t) lambda_i
    for s_idx, t_idx in ((1, 2), (2, 3), (4, 4)):
        s, t = s_idx * tg.dt, t_idx * tg.dt
        for mode in (1, 2, 3):
            products = nodes[:, s_idx - 1, mode - 1] * nodes[:, t_idx - 1, mode - 1]
            mean, stderr = mc_mean_stderr(products)
            target = min(s, t) * qspec.eigenvalues[mode - 1]
            checks.append(
                _check(
                    f"wiener_cov_mode{mode}_s{s:g}_t{t:g}",
                    abs(mean - target),
                    3.0 * stderr,
                    abs(mean - target) <= 3.0 * stderr,
                )
            )
    total = np.sum(nodes[:, -1, :] ** 2, axis=1)
    mean, stderr = mc_mean_stderr(total)
    checks.append(
        _check(
            "wiener_total_variance_t1",
            abs(mean - qspec.trace),
            3.0 * stderr,
            abs(mean - qspec.trace) <= 3.0 * stderr,
        )
    )
    return checks


def suite_haar() -> list[dict]:
    """Projection decay rates, adaptedness, and the zero-seed contraction."""
    grid = SpatialGrid(31)
    tg = TimeGrid(512)
    checks = []

    smooth = []
    for k in (1, 3):
        m = np.sin(2 * np.pi * tg.times)[:, None] * sine_field(grid, k).values
        smooth.append(Trajectory.from_matrix(tg, grid, m))
    fit = haar_rate_experiment(smooth, range(2, 8), alpha=0.9, p=2.0)
    checks.append(_check("haar_rate_smooth", fit.slope, -0.8, fit.slope <= -0.8))

    profile = sine_field(grid, 1).values
    rough = []
    for i in range(100):
        stream = gaussian_stream(202, i)
        b = np.concatenate(
            [[0.0], np.cumsum(stream.standard_normal(tg.n_steps) * np.sqrt(tg.dt))]
        )
        rough.append(Trajectory.from_matrix(tg, grid, b[:, None] * profile))
    fit = haar_rate_experiment(rough, range(2, 8), alpha=0.4, p=2.0)
    checks.append(_check("haar_rate_brownian", fit.slope, -0.3, fit.slope <= -0.3))

    small = SpatialGrid(7)
    tg64 = TimeGrid(64)
    violations = 0
    for i in range(100):
        stream = gaussian_stream(303, i)
        u = stream.standard_normal((tg64.n_steps + 1, small.n_interior))
        n = int(stream.integers(1, 6))
        blocks = 2**n
        s = tg64.n_steps // blocks
        j = int(stream.integers(1, blocks))
        seed = Field(small, stream.standard_normal(small.n_interior))
        before = proj_shifted(
            Trajectory.from_matrix(tg64, small, u), HaarLevel(n, seed)
        ).values
        bumped = u.copy()
        bumped[j * s :] += stream.standard_normal(bumped[j * s :].shape)
        after = proj_shifted(
            Trajectory.from_matrix(tg64, small, bumped), HaarLevel(n, seed)
        ).values
        # output blocks 0..j-1 average input nodes up to (j-1)*s only, so
        # everything before node j*s must survive the perturbation; block
        # j itself reads node j*s as a trapezoid endpoint and may move
        unchanged = np.array_equal(before[: j * s], after[: j * s])
        if not unchanged or np.array_equal(before, after):
            violations += 1
    checks.append(_check("haar_adapted_future_blind", violations, 0.0, violations == 0))

    zero = Field(small, np.zeros(small.n_interior))
    worst = -np.inf
    for i in range(100):
        stream = gaussian_stream(404, i)
        traj = Trajectory.from_matrix(
            tg64, small, stream.standard_normal((tg64.n_steps + 1, small.n_interior))
        )
        n = int(stream.integers(1, 6))
        gap = trajectory_lp_norm(
            proj_shifted(traj, HaarLevel(n, zero)), "L2", 2.0
        ) - trajectory_lp_norm(traj, "L2", 2.0)
        worst = max(worst, gap)
    checks.append(_check("haar_zero_seed_contraction", worst, 0.0, worst <= 0.0))
    return checks


def suite_lc() -> list[dict]:
    """Dyadic consistency, refinement decay, and the level-tail frequency."""
    checks = []
    mismatches = 0
    for seed in (0, 1, 2):
        deep = lc_scalar_bm(12, seed).values
        for n in range(1, 13):
            shallow = lc_scalar_bm(n, seed).values
            if not np.array_equal(shallow, deep[:: 2 ** (12 - n)]):
                mismatches += 1
    checks.append(_check("lc_dyadic_consistency", mismatches, 0.0, mismatches == 0))

    # the even deeper path at level n + 4 already contains the level-n
    # values, so one depth-14 construction serves every window member
    levels = (7, 8, 9, 10)
    depth = 14
    slopes = []
    for i in range(100):
        deep = lc_scalar_bm(depth, path_seed(7, i))
        t_deep = deep.times
        dists = []
        for n in levels:
            stride = 2 ** (depth - n)
            fine_stride = 2 ** (depth - n - 4)
            interp = np.interp(
                t_deep[::fine_stride], t_deep[::stride], deep.values[::stride]
            )
            dists.append(np.max(np.abs(interp - deep.values[::fine_stride])))
        slopes.append(np.polyfit(levels, np.log2(dists), 1)[0])
    median_slope = float(np.median(slopes))
    checks.append(
        _check("lc_refinement_decay", median_slope, -0.4, median_slope <= -0.4)
    )

    for n in (4, 5):
        a_n = float(np.sqrt(n * 2.0 ** -(n + 1)))
        empirical, analytic = tail_bound_probe(n, a_n, 1.0, trials=200_000, seed=0)
        factor = max(empirical / analytic, analytic / empirical)
        checks.append(_check(f"lc_tail_level_{n}", factor, 3.0, factor <= 3.0))
    return checks


def suite_hypotheses() -> list[dict]:
    """Structure-condition margins on random field pairs, per example."""
    _, qspec, datum, _, _ = _probe_fixture()
    checks = []
    for example in KNOWN_EXAMPLES:
        problem = ProblemSpec(example, qspec, datum, m=2)
        report = check_hypotheses(problem, n_pairs=100, seed=0)
        worst = max(float(np.max(report.defects)), float(np.max(report.margins)))
        checks.append(
            _check(f"hypotheses_{example}", worst, 1e-9, report.all_hold)
        )
    return checks


def suite_energy() -> list[dict]:
    """Calibration/hold-out verdicts of the energy inequality, per example."""
    _, qspec, datum, tg, level = _probe_fixture()
    checks = []
    for example in KNOWN_EXAMPLES:
        problem = ProblemSpec(example, qspec, datum, m=2)
        report = energy_report(problem, level, tg, n_paths=64, seed_base=11)
        checks.append(
            _check(
                f"energy_{example}",
                report.lhs_holdout,
                report.bound_rhs,
                report.holds and report.n_failures == 0,
            )
        )
        print(report.summary())
    return checks


def suite_continuity() -> list[dict]:
    """Fitted coefficient-continuity exponents against their targets."""
    grid, qspec, datum, tg, _ = _probe_fixture()
    base = Trajectory.constant(
        tg, Field(grid, np.abs(np.sin(2 * np.pi * grid.nodes)))
    )
    pert = Trajectory.constant(tg, Field(grid, np.sin(3 * np.pi * grid.nodes)))
    targets = {
        "heat_sqrt_drift": 0.4,
        "porous_sqrt_drift": 1.0 / 3.0 - 0.1,
        "porous_gradient_noise": 1.0 / 3.0 - 0.1,
    }
    checks = []
    for example, target in targets.items():
        problem = ProblemSpec(example, qspec, datum, m=2)
        result = continuity_probe(
            problem, base, pert, [1e-3, 1e-2, 1e-1, 1.0], n_paths=64, seed=3
        )
        checks.append(
            _check(
                f"continuity_{example}",
                result.gamma_hat,
                target,
                result.gamma_hat >= target,
            )
        )
    return checks


def suite_regularity() -> list[dict]:
    """Increment-scaling exponents and seminorm stability under refinement."""
    grid, qspec, datum, tg, level = _probe_fixture()
    checks = []
    targets = {
        "heat_sqrt_drift": 0.5 - 0.15,
        "porous_sqrt_drift": 2.0 / 3.0 - 0.15,
    }
    inc = sample_increments_batch(qspec, tg, [path_seed(29, i) for i in range(16)])
    for example, target in targets.items():
        problem = ProblemSpec(example, qspec, datum, m=2)
        _, u, stats = _staircase_solve(problem, level, tg, inc)
        stats.raise_first()
        ensemble = [Trajectory.from_matrix(tg, grid, rows) for rows in u]
        table = time_regularity_probe(problem, ensemble, alphas=(0.2,))
        checks.append(
            _check(
                f"regularity_increment_{example}",
                table.increment_exponent,
                target,
                table.increment_exponent >= target,
            )
        )

    zero = Field(grid, np.zeros(grid.n_interior))
    refinements = {
        "heat_sqrt_drift": (8, 9, 10, 11),
        "porous_sqrt_drift": (7, 8, 9),
    }
    for example, lc_levels in refinements.items():
        problem = ProblemSpec(example, qspec, datum, m=2)
        values = []
        for lvl in lc_levels:
            noise = lc_q_wiener(qspec, lvl, 21).increments_path()
            xi = Trajectory.constant(noise.timegrid, zero)
            u = solve_frozen(problem, xi, noise)
            table = time_regularity_probe(problem, [u], alphas=(0.2,))
            values.append(table.seminorm_means[0])
        worst_ratio = max(b / a for a, b in zip(values, values[1:]))
        checks.append(
            _check(
                f"regularity_seminorm_refinement_{example}",
                worst_ratio,
                1.5,
                worst_ratio <= 1.5,
            )
        )
    return checks


SUITES = {
    "haar": suite_haar,
    "wiener": suite_wiener,
    "lc": suite_lc,
    "hypotheses": suite_hypotheses,
    "energy": suite_energy,
    "continuity": suite_continuity,
    "regularity": suite_regularity,
}


def cmd_verify(suite: str, out_dir: str) -> int:
    if suite != "all" and suite not in SUITES:
        known = ", ".join(sorted(SUITES) + ["all"])
        print(f"unknown suite {suite!r}; known suites: {known}", file=sys.stderr)
        return EXIT_CONFIG
    names = list(SUITES) if suite == "all" else [suite]
    checks = []
    try:
        for name in names:
            checks.extend(SUITES[name]())
    except (NewtonDivergence, EstimateInvalid) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    verdict_path = os.path.join(out_dir, f"verify_{suite}.jsonl")
    with open(verdict_path, "w") as fh:
        for check in checks:
            fh.write(json.dumps(check) + "\n")
    failed = [c for c in checks if not c["pass"]]
    for check in checks:
        tag = "pass" if check["pass"] else "FAIL"
        print(
            f"[{tag}] {check['name']}: value={check['value']:.6g} "
            f"bound={check['bound']:.6g}"
        )
    print(f"{len(checks)} checks, {len(failed)} failed -> {verdict_path}")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stf-spde",
        description="Experiment runner for the dyadic fixed-point laboratory.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, helptext in (
        ("simulate", "solve per-path fixed points and write trajectory CSVs"),
        ("fixed-point", "run the coupled Picard iteration, write diagnostics"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--paths", type=int, default=None, help="path count override")
    pv = sub.add_parser("verify", help="run a named check suite")
    pv.add_argument("suite", help="haar|wiener|lc|hypotheses|energy|continuity|regularity|all")
    pv.add_argument("--out", default=".", help="directory for the verdict file")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep the code
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    try:
        return _dispatch(args)
    except Exception:
        # keep exit code 1 for "a check failed": anything unexpected gets
        # its own code, with the traceback for the report
        traceback.print_exc()
        return EXIT_INTERNAL


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "verify":
        os.makedirs(args.out, exist_ok=True)
        return cmd_verify(args.suite, args.out)

    try:
        cfg = RunConfig.from_file(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.paths is not None:
            overrides["paths"] = args.paths
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
            cfg.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out if args.out is not None else cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    if args.command == "simulate":
        return cmd_simulate(cfg, out_dir)
    return cmd_fixed_point(cfg, out_dir)


if __name__ == "__main__":
    raise SystemExit(main())

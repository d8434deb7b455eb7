"""Configuration-driven experiment runner and verification harness.

Three subcommands expose the library from the shell:

    stf-spde simulate    --config run.ini [--out DIR] [--seed S] [--paths M]
    stf-spde fixed-point --config run.ini [--out DIR] [--seed S] [--paths M]
    stf-spde verify SUITE [--out DIR]

Configs are INI text (diff-friendly, no dependencies). Each ``RunConfig``
field declares one key with its section, type and default; an undeclared
key or section, a key in another section, or any ``[DEFAULT]`` entry is a
config error. ``--seed`` and ``--paths`` replace the file's values, and the
result is validated once against every cross-constraint of the library. All
outputs are deterministic functions of (config, master seed): CSVs print
floats with 17 significant digits, manifests carry the config echo plus the
derived per-path seeds and no timestamps, so re-running a command replays
its output byte for byte.

Exit codes (stable contract): 0 success, 1 verification check failed,
2 usage/config error, 3 solver failure, 4 fixed-point non-convergence,
5 internal error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import operator
import os
import re
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from . import __version__
from .estimators import EstimateInvalid, energy_report, mc_mean_stderr
from .fixed_point import (
    _check_stopping_rule,
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
    _check_dyadic,
    fractional_seminorm,
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
    """A config file has a missing, undeclared or misplaced key, or violates a constraint."""


def _typed(section: str, key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(
            f"key '{key}' in section [{section}] is not a valid "
            f"{cast.__name__}: {raw!r}"
        ) from exc


def _key(section: str, cast, default=dataclasses.MISSING):
    """A config key: its INI section, its type and, if optional, its default."""
    return dataclasses.field(default=default, metadata={"section": section, "cast": cast})


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Everything a command needs, validated against the library's rules.

    Each field is one config key; the file schema is read off the fields.
    """

    example: str = _key("problem", str)
    grid_size: int = _key("discretization", int)
    time_steps: int = _key("discretization", int)
    horizon: float = _key("discretization", float, 1.0)
    dyadic_level: int = _key("discretization", int)
    n_modes: int = _key("noise", int)
    decay_exponent: float = _key("noise", float)
    sigma: float = _key("problem", float, 0.1)
    m: int = _key("problem", int, 2)
    gradient_form: str = _key("problem", str, "divergence")
    datum: str = _key("initial", str)
    amplitude: float = _key("initial", float, 1.0)
    paths: int = _key("run", int)
    master_seed: int = _key("run", int)
    output_dir: str = _key("run", str, "out")
    newton_tol: float = _key("tolerances", float, 1e-10)
    newton_max_iter: int = _key("tolerances", int, 50)
    newton_max_halvings: int = _key("tolerances", int, 30)
    dt_retries: int = _key("tolerances", int, 3)
    picard_tol: float = _key("tolerances", float, 0.0)
    picard_max_iter: int | None = _key("tolerances", int, None)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "RunConfig":
        """Read and validate a config; overrides replace file values before validation."""
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        # no section header is empty, so [DEFAULT] is read as an ordinary
        # section, and rejected, instead of being copied into every section
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
        try:
            cp.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        keys = dataclasses.fields(cls)
        home = {f.name: f.metadata["section"] for f in keys}
        for section in cp.sections():
            for key in cp.options(section):
                if key not in home:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")
                if home[key] != section:
                    raise ConfigError(
                        f"key '{key}' belongs in section [{home[key]}], not [{section}]"
                    )
            if section not in home.values():
                raise ConfigError(f"unknown section [{section}]")
        values = {}
        for f in keys:
            section = f.metadata["section"]
            if cp.has_option(section, f.name):
                raw = cp.get(section, f.name).strip()
                values[f.name] = _typed(section, f.name, raw, f.metadata["cast"])
            elif f.default is dataclasses.MISSING:
                raise ConfigError(
                    f"missing required key '{f.name}' in section [{section}]"
                )
        cfg = cls(**{**values, **overrides})
        if cfg.paths < 1:
            raise ConfigError(f"paths must be >= 1, got {cfg.paths}")
        try:
            # building the objects, and the block check every sweep makes,
            # runs every library-side invariant
            cfg.problem()
            _check_dyadic(cfg.timegrid(), cfg.haar_level(), cfg.grid())
            cfg.solver_config()
            _check_stopping_rule(cfg.picard_tol, cfg.picard_max_iter)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc
        return cfg

    def grid(self) -> SpatialGrid:
        return SpatialGrid(self.grid_size)

    def qwiener(self) -> QWienerSpec:
        return QWienerSpec.power_decay(
            self.grid(), n_modes=self.n_modes, decay_exponent=self.decay_exponent
        )

    def timegrid(self) -> TimeGrid:
        return TimeGrid(self.time_steps, T=self.horizon)

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
    if not np.isfinite(amplitude):
        raise ConfigError(
            f"key 'amplitude' in section [initial] must be finite, got {amplitude}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        values = amplitude * _datum_values(grid, selector)
    if not np.all(np.isfinite(values)):
        raise ConfigError(
            f"key 'datum' in section [initial] gives non-finite values at "
            f"amplitude {amplitude}: {selector!r}"
        )
    return Field(grid, values)


def _datum_values(grid: SpatialGrid, selector: str) -> np.ndarray:
    """The unscaled nodal values a datum selector names."""
    got = _SINE_RE.match(selector)
    if got:
        k = int(got.group(1))
        if not 1 <= k <= grid.n_interior:
            raise ConfigError(
                f"key 'datum' in section [initial]: mode k of sine(k) must be in "
                f"1..{grid.n_interior} (grid_size), got {k}"
            )
        return sine_field(grid, k).values
    got = _CONST_RE.match(selector)
    if got:
        value = _typed("initial", "datum", got.group(1), float)
        return value * np.ones(grid.n_interior)
    if selector == "bump":
        r = (grid.nodes - 0.5) / 0.4
        return np.where(
            np.abs(r) < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - r * r, 1e-300)), 0.0
        )
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
        return values
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


def _simulate_paths(problem, level, noises, solver_cfg):
    """Every path's staircase fixed point and its re-solve, each in one batch.

    Failures are reported as a path-by-path loop meets them. That loop
    re-solves path q before it sweeps path q + 1, and a re-solve also
    marches the last dyadic block, which the sweep never does. So when the
    sweep fails at path p, the paths before p are re-solved before the
    sweep's error is raised, and the first of them to fail is raised
    instead.
    """
    try:
        xi = staircase_construct(problem, level, noises, solver_cfg)
    except NewtonDivergence as exc:
        if exc.path:
            earlier = noises[: exc.path]
            xi = staircase_construct(problem, level, earlier, solver_cfg)
            solve_frozen(problem, xi, earlier, solver_cfg)
        raise
    return xi, solve_frozen(problem, xi, noises, solver_cfg)


def _run_setup(cfg: RunConfig):
    """The problem, Haar level and per-path noises a run solves on."""
    problem = cfg.problem()
    tg = cfg.timegrid()
    noises = [
        sample_increments(problem.qwiener, tg, path_seed(cfg.master_seed, i))
        for i in range(cfg.paths)
    ]
    return problem, cfg.haar_level(), noises


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    problem, level, noises = _run_setup(cfg)
    xi, u = _simulate_paths(problem, level, noises, cfg.solver_config())
    outputs = []
    for i, noise in enumerate(noises):
        names = (
            f"noise_{i:03d}.bin",
            f"coefficient_{i:03d}.csv",
            f"solution_{i:03d}.csv",
        )
        save_noise_path(noise, os.path.join(out_dir, names[0]))
        trajectory_to_csv(xi.path(i), os.path.join(out_dir, names[1]))
        trajectory_to_csv(u.path(i), os.path.join(out_dir, names[2]))
        outputs.extend(names)
    _write_manifest(out_dir, "simulate", cfg, outputs)
    print(f"wrote {len(outputs)} files for {cfg.paths} paths to {out_dir}")
    return EXIT_OK


def cmd_fixed_point(cfg: RunConfig, out_dir: str) -> int:
    problem, level, noises = _run_setup(cfg)
    iterates, diag = picard_iterate(
        problem, level, noises, cfg.solver_config(),
        tol=cfg.picard_tol, max_iter=cfg.picard_max_iter,
    )
    outputs = ["picard_diagnostics.csv"]
    diag.to_csv(os.path.join(out_dir, outputs[0]))
    for i in range(iterates.n_paths):
        name = f"fixed_point_{i:03d}.csv"
        trajectory_to_csv(iterates.path(i), os.path.join(out_dir, name))
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


def _check(name: str, value: float, bound: float, holds) -> dict:
    """One record, whose verdict is holds(value, bound) on the floats it stores."""
    value, bound = float(value), float(bound)
    return {"name": name, "value": value, "bound": bound, "pass": holds(value, bound)}


def _at_most(name: str, value: float, bound: float) -> dict:
    return _check(name, value, bound, operator.le)


def _at_least(name: str, value: float, bound: float) -> dict:
    return _check(name, value, bound, operator.ge)


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
        qspec, tg, path_seed(101, np.arange(n_paths, dtype=np.uint64))
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
            name = f"wiener_cov_mode{mode}_s{s:g}_t{t:g}"
            target = min(s, t) * qspec.eigenvalues[mode - 1]
            checks.append(_at_most(name, abs(mean - target), 3.0 * stderr))
    total = np.sum(nodes[:, -1, :] ** 2, axis=1)
    mean, stderr = mc_mean_stderr(total)
    checks.append(
        _at_most("wiener_total_variance_t1", abs(mean - qspec.trace), 3.0 * stderr)
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
    fit = haar_rate_experiment(smooth, range(2, 8))
    checks.append(_at_most("haar_rate_smooth", fit.slope, -0.8))

    profile = sine_field(grid, 1).values
    rough = []
    for i in range(100):
        stream = gaussian_stream(202, i)
        b = np.concatenate(
            [[0.0], np.cumsum(stream.standard_normal(tg.n_steps) * np.sqrt(tg.dt))]
        )
        rough.append(Trajectory.from_matrix(tg, grid, b[:, None] * profile))
    fit = haar_rate_experiment(rough, range(2, 8))
    checks.append(_at_most("haar_rate_brownian", fit.slope, -0.3))

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
    checks.append(_at_most("haar_adapted_future_blind", violations, 0.0))

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
    checks.append(_at_most("haar_zero_seed_contraction", worst, 0.0))
    return checks


def suite_lc() -> list[dict]:
    """Dyadic consistency, refinement decay, and the level-tail frequency."""
    checks = []
    mismatches = 0
    for seed in (0, 1, 2):
        deep = lc_scalar_bm(12, seed)
        for n in range(1, 13):
            shallow = lc_scalar_bm(n, seed)
            if not np.array_equal(shallow, deep[:: 2 ** (12 - n)]):
                mismatches += 1
    checks.append(_at_most("lc_dyadic_consistency", mismatches, 0.0))

    # the even deeper path at level n + 4 already contains the level-n
    # values, so one depth-14 construction serves every window member
    levels = (7, 8, 9, 10)
    depth = 14
    t_deep = np.linspace(0.0, 1.0, 2**depth + 1)
    slopes = []
    for i in range(100):
        deep = lc_scalar_bm(depth, path_seed(7, i))
        dists = []
        for n in levels:
            stride = 2 ** (depth - n)
            fine_stride = 2 ** (depth - n - 4)
            interp = np.interp(
                t_deep[::fine_stride], t_deep[::stride], deep[::stride]
            )
            dists.append(np.max(np.abs(interp - deep[::fine_stride])))
        slopes.append(np.polyfit(levels, np.log2(dists), 1)[0])
    median_slope = float(np.median(slopes))
    checks.append(_at_most("lc_refinement_decay", median_slope, -0.4))

    for n in (4, 5):
        a_n = float(np.sqrt(n * 2.0 ** -(n + 1)))
        empirical, analytic = tail_bound_probe(n, a_n, 1.0, trials=200_000, seed=0)
        factor = max(empirical / analytic, analytic / empirical)
        checks.append(_at_most(f"lc_tail_level_{n}", factor, 3.0))
    return checks


def suite_hypotheses() -> list[dict]:
    """Structure-condition margins on random field pairs, per example."""
    _, qspec, datum, _, _ = _probe_fixture()
    checks = []
    for example in KNOWN_EXAMPLES:
        problem = ProblemSpec(example, qspec, datum, m=2)
        report = check_hypotheses(problem, n_pairs=100, seed=0)
        worst = max(float(np.max(report.defects)), float(np.max(report.margins)))
        growth = np.max(report.ratios)
        checks += [
            _at_most(f"hypotheses_{example}", worst, report.DEFECT_TOL),
            _at_most(f"hypotheses_growth_{example}", growth, report.GROWTH_BOUND),
        ]
    return checks


def suite_energy() -> list[dict]:
    """Calibration/hold-out verdicts of the energy inequality, per example."""
    _, qspec, datum, tg, level = _probe_fixture()
    checks = []
    for example in KNOWN_EXAMPLES:
        problem = ProblemSpec(example, qspec, datum, m=2)
        report = energy_report(problem, level, tg, n_paths=64, seed_base=11)
        checks += [
            _at_most(f"energy_{example}", report.lhs_holdout, report.bound_rhs),
            _at_most(f"energy_failed_paths_{example}", report.n_failures, 0.0),
        ]
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
        checks.append(_at_least(f"continuity_{example}", result.gamma_hat, target))
    return checks


def suite_regularity() -> list[dict]:
    """Increment-scaling exponents and seminorm stability under refinement."""
    grid, qspec, datum, tg, level = _probe_fixture()
    checks = []
    targets = {
        "heat_sqrt_drift": 0.5 - 0.15,
        "porous_sqrt_drift": 2.0 / 3.0 - 0.15,
    }
    seeds = path_seed(29, np.arange(16, dtype=np.uint64))
    inc = sample_increments_batch(qspec, tg, seeds)
    for example, target in targets.items():
        problem = ProblemSpec(example, qspec, datum, m=2)
        _, u, stats = _staircase_solve(problem, level, tg, inc)
        stats.raise_first()
        table = time_regularity_probe(problem, Trajectory(tg, grid, u))
        checks.append(
            _at_least(f"regularity_increment_{example}", table.increment_exponent, target)
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
            values.append(fractional_seminorm(u, 0.2, "Hminus1"))
        worst_ratio = max(b / a for a, b in zip(values, values[1:]))
        checks.append(
            _at_most(f"regularity_seminorm_refinement_{example}", worst_ratio, 1.5)
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
    for name in names:
        checks.extend(SUITES[name]())
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
    pv.add_argument("suite", help="|".join([*SUITES, "all"]))
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


def _make_out_dir(path: str) -> None:
    """Create the output directory; a path that cannot be one is a usage error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from exc


def _dispatch(args: argparse.Namespace) -> int:
    """Run one command; the library's errors map to exit codes here only."""
    try:
        if args.command == "verify":
            _make_out_dir(args.out)
            return cmd_verify(args.suite, args.out)
        overrides = {"master_seed": args.seed, "paths": args.paths}
        cfg = RunConfig.from_file(
            args.config, **{k: v for k, v in overrides.items() if v is not None}
        )
        out_dir = args.out if args.out is not None else cfg.output_dir
        _make_out_dir(out_dir)
        command = cmd_simulate if args.command == "simulate" else cmd_fixed_point
        return command(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NewtonDivergence, EstimateInvalid) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())

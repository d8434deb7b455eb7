"""Acceptance suite: twelve headline checks, one test and one verdict line each.

Every test prints a single `[C..] PASS/FAIL` line with the measured numbers
(visible under `pytest -s` or in the failure report), then asserts. The
thresholds are the package's documented targets: Monte Carlo statistics
within 3 standard errors, fitted exponents above their analytic floors, and
exact (bitwise or tolerance-scaled) identities for the dyadic construction.
"""

import json
import os

import numpy as np
import pytest

from stf_spde import cli, projection
from stf_spde.cli import (
    main,
    suite_continuity,
    suite_energy,
    suite_haar,
    suite_lc,
    suite_regularity,
    suite_wiener,
)
from stf_spde.fixed_point import (
    picard_iterate,
    staircase_construct,
    xnorm_power_distance,
)
from stf_spde.estimators import integral_v_power
from stf_spde.grids import (
    Field,
    SpatialGrid,
    inv_neg_laplacian_values,
    laplacian_eigenvalue,
    laplacian_values,
    norm_values,
    signed_power_values,
)
from stf_spde.projection import HaarLevel, TimeGrid, Trajectory, proj_shifted, smoothed_seed
from stf_spde.rng import gaussian_stream, path_seed
from stf_spde.solver import KNOWN_EXAMPLES, ProblemSpec, SolverConfig, solve_frozen
from stf_spde.wiener import NoisePath, QWienerSpec, sample_increments


def report(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def suite_summary(checks):
    worst = max(checks, key=lambda c: c["value"] - c["bound"])
    return (
        f"{sum(c['pass'] for c in checks)}/{len(checks)} checks "
        f"(tightest: {worst['name']} value={worst['value']:.4g} "
        f"bound={worst['bound']:.4g})"
    )


@pytest.fixture(scope="module")
def haar_checks():
    return suite_haar()


@pytest.fixture(scope="module")
def lc_checks():
    return suite_lc()


def test_criterion_01_wiener_covariance():
    checks = suite_wiener()
    report(
        "C01",
        all(c["pass"] for c in checks),
        "noise covariance/variance within 3 SE at 20000 paths: "
        + suite_summary(checks),
    )


def test_criterion_01_fails_on_inflated_eigenvalues(monkeypatch):
    # negative control: a sampler drawing with every eigenvalue scaled by
    # 1.1 must break the covariance checks at the suite's full size
    original = cli.sample_increments_batch

    def inflated(spec, timegrid, seeds):
        scaled = QWienerSpec(spec.grid, 1.1 * spec.eigenvalues, spec.decay_exponent)
        return original(scaled, timegrid, seeds)

    monkeypatch.setattr(cli, "sample_increments_batch", inflated)
    checks = suite_wiener()
    assert not all(c["pass"] for c in checks)
    cov = [c for c in checks if c["name"].startswith("wiener_cov_mode1")]
    assert cov and not any(c["pass"] for c in cov)


def test_criterion_02_lc_refinement(lc_checks):
    consistency, decay = lc_checks[0], lc_checks[1]
    ok = consistency["pass"] and decay["pass"]
    report(
        "C02",
        ok,
        f"dyadic consistency mismatches={consistency['value']:g}, "
        f"median sup-distance slope {decay['value']:.4f} <= {decay['bound']:g} "
        "over 100 paths",
    )


def test_criterion_03_level_tail_probe(lc_checks):
    tails = lc_checks[2:]
    ok = all(c["pass"] for c in tails)
    factors = ", ".join(f"{c['name'][-1]}: {c['value']:.3f}" for c in tails)
    report("C03", ok, f"tail frequency vs approximation factor (level {factors}) <= 3")


def test_criterion_04_projection_rates(haar_checks):
    smooth, rough = haar_checks[0], haar_checks[1]
    ok = smooth["pass"] and rough["pass"]
    report(
        "C04",
        ok,
        f"projection error decay: smooth slope {smooth['value']:.3f} <= -0.8, "
        f"rough slope {rough['value']:.3f} <= -0.3 over levels 2..7",
    )


def test_criterion_05_adapted_contraction(haar_checks):
    adapted, contraction = haar_checks[2], haar_checks[3]
    ok = adapted["pass"] and contraction["pass"]
    report(
        "C05",
        ok,
        f"future-perturbation violations={adapted['value']:g}/100, "
        f"zero-seed norm excess {contraction['value']:.3g} <= 0 on 100 trajectories",
    )


def test_criterion_05_fails_on_current_block_average(monkeypatch):
    # negative control: a projection that averages the current block
    # instead of the previous one reads the future and must fail the
    # adaptedness check at the suite's full size
    original = projection._shifted_rows

    def current_block(u, level, s):
        # block k - 1 of the rows from node s on is block k of u
        return original(u[..., s:, :], level, s)

    monkeypatch.setattr(projection, "_shifted_rows", current_block)
    checks = {c["name"]: c for c in suite_haar()}
    adapted = checks["haar_adapted_future_blind"]
    assert adapted["pass"] is False and adapted["value"] > 0


def test_criterion_06_monotone_pairing():
    grid = SpatialGrid(31)
    worst = -np.inf
    for m in (1, 2, 3):
        stream = gaussian_stream(606, m)
        for _ in range(1000):
            amp1, amp2 = 10.0 ** stream.uniform(-1.0, 1.5, size=2)
            u1 = amp1 * stream.standard_normal(grid.n_interior)
            u2 = amp2 * stream.standard_normal(grid.n_interior)
            gap = laplacian_values(
                grid, signed_power_values(u1, m)
            ) - laplacian_values(grid, signed_power_values(u2, m))
            pairing = grid.h * float(
                inv_neg_laplacian_values(grid, gap) @ (u1 - u2)
            )
            worst = max(worst, pairing)
    report(
        "C06",
        worst <= 1e-10,
        f"signed-power diffusion pairing <= 1e-10 on 3000 pairs "
        f"(worst {worst:.3g})",
    )


def test_criterion_07_deterministic_heat():
    grid = SpatialGrid(31)
    qspec = QWienerSpec.power_decay(grid, n_modes=8, decay_exponent=1.0)
    modes = {1: 0.8, 2: -0.5, 5: 0.3}
    u0 = Field(
        grid, sum(c * np.sin(k * np.pi * grid.nodes) for k, c in modes.items())
    )
    problem = ProblemSpec("heat_sqrt_drift", qspec, u0)

    tg = TimeGrid(64)
    silent = NoisePath(tg, np.zeros((tg.n_steps, qspec.n_modes)), seed=0)
    u = solve_frozen(problem, Trajectory.constant(tg, Field(grid, np.zeros(31))), silent)
    oracle_err = 0.0
    for j in range(tg.n_steps + 1):
        exact = sum(
            c
            * (1.0 + tg.dt * laplacian_eigenvalue(grid, k)) ** -j
            * np.sin(k * np.pi * grid.nodes)
            for k, c in modes.items()
        )
        oracle_err = max(
            oracle_err, np.max(np.abs(u.values[j] - exact))
        )

    # with a frozen drift the implicit stepping should be first order in dt
    drift = Field(grid, np.abs(np.sin(2 * np.pi * grid.nodes)))
    horizon = 0.25

    def run(n_steps):
        tgn = TimeGrid(n_steps, T=horizon)
        xi = Trajectory.constant(tgn, drift)
        noise = NoisePath(tgn, np.zeros((n_steps, qspec.n_modes)), seed=0)
        return solve_frozen(problem, xi, noise)

    ref = run(512)
    errs, dts = [], []
    for n_steps in (32, 64, 128):
        sol = run(n_steps)
        errs.append(norm_values(grid, sol.values[-1] - ref.values[-1], "L2"))
        dts.append(horizon / n_steps)
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    ok = oracle_err <= 1e-10 and order >= 0.9
    report(
        "C07",
        ok,
        f"eigen-recursion max error {oracle_err:.3g} <= 1e-10; "
        f"dt/16 self-oracle order {order:.3f} >= 0.9",
    )


def test_criterion_08_energy_inequalities():
    checks = suite_energy()
    report(
        "C08",
        all(c["pass"] for c in checks),
        "held-out energy LHS <= fitted bound on 64+64 paths, all examples: "
        + suite_summary(checks),
    )


def test_criterion_09_continuity_exponents():
    checks = suite_continuity()
    detail = ", ".join(
        f"{c['name'].removeprefix('continuity_')}: {c['value']:.3f}>={c['bound']:.3f}"
        for c in checks
    )
    report("C09", all(c["pass"] for c in checks), f"fitted exponents ({detail})")


def test_criterion_10_time_regularity():
    checks = suite_regularity()
    report(
        "C10",
        all(c["pass"] for c in checks),
        "increment exponents above targets and seminorms stable under "
        "refinement: " + suite_summary(checks),
    )


def test_criterion_11_staircase_residual():
    grid = SpatialGrid(31)
    qspec = QWienerSpec.power_decay(grid, n_modes=16, decay_exponent=1.0)
    datum = Field(grid, 0.1 * np.sin(np.pi * grid.nodes))
    tg = TimeGrid(128)
    level = HaarLevel(3, smoothed_seed(datum, 3))
    tol = SolverConfig().newton_tol
    worst = -np.inf
    for example in KNOWN_EXAMPLES:
        problem = ProblemSpec(example, qspec, datum, m=2)
        power = problem.time_power
        for i in range(16):
            noise = sample_increments(qspec, tg, path_seed(17, i))
            w = staircase_construct(problem, level, noise)
            resolve = proj_shifted(solve_frozen(problem, w, noise), level)
            residual = xnorm_power_distance(resolve, w, problem) ** (1.0 / power)
            w_norm = integral_v_power(w, problem.triple, power) ** (1.0 / power)
            worst = max(worst, residual - 10.0 * tol * (1.0 + w_norm))
    noises = [sample_increments(qspec, tg, path_seed(17, i)) for i in range(16)]
    heat = ProblemSpec("heat_sqrt_drift", qspec, datum)
    limits, _ = picard_iterate(heat, level, noises)
    agree = -np.inf
    for noise, limit in zip(noises, limits):
        w = staircase_construct(heat, level, noise)
        gap = xnorm_power_distance(w, limit, heat) ** 0.5
        w_norm = integral_v_power(w, heat.triple, 2) ** 0.5
        agree = max(agree, gap - 10.0 * tol * (1.0 + w_norm))
    ok = worst <= 0.0 and agree <= 0.0
    report(
        "C11",
        ok,
        "fixed-point residual and staircase/Picard gap within 10*newton_tol*"
        f"(1+|w|) on 16 paths x 3 examples (excesses {worst:.3g}, {agree:.3g})",
    )


def test_criterion_12_command_replay(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        "\n".join(
            [
                "[problem]",
                "example = heat_sqrt_drift",
                "[discretization]",
                "grid_size = 15",
                "time_steps = 32",
                "dyadic_level = 2",
                "[noise]",
                "n_modes = 8",
                "decay_exponent = 1.0",
                "[initial]",
                "datum = sine(1)",
                "amplitude = 0.1",
                "[run]",
                "paths = 2",
                "master_seed = 5",
                "",
            ]
        )
    )
    trees = {}
    for command, args in (
        ("simulate", ["simulate", "--config", str(config)]),
        ("fixed-point", ["fixed-point", "--config", str(config)]),
        ("verify", ["verify", "hypotheses"]),
    ):
        for attempt in ("first", "second"):
            out = tmp_path / f"{command}_{attempt}"
            assert main(args + ["--out", str(out)]) == 0
            tree = {}
            for name in sorted(os.listdir(out)):
                with open(out / name, "rb") as fh:
                    tree[name] = fh.read()
            trees[(command, attempt)] = tree
    mismatched = [
        command
        for command, _ in (("simulate", 0), ("fixed-point", 0), ("verify", 0))
        if trees[(command, "first")] != trees[(command, "second")]
    ]
    manifest = json.loads(
        trees[("simulate", "first")]["manifest.json"].decode()
    )
    ok = not mismatched and manifest["path_seeds"] == [
        path_seed(5, 0),
        path_seed(5, 1),
    ]
    report(
        "C12",
        ok,
        "simulate, fixed-point, and verify replay byte-identically "
        f"(mismatches: {mismatched or 'none'})",
    )

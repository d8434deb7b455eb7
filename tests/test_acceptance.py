"""Acceptance suite: twelve headline checks, one test and one verdict line each.

Every test prints a single `[C..] PASS/FAIL` line with the measured numbers
(visible under `pytest -s` or in the failure report), then asserts. The
thresholds are the package's documented targets: Monte Carlo statistics
within 3 standard errors, fitted exponents above their analytic floors, and
exact (bitwise or tolerance-scaled) identities for the dyadic construction.
"""

import json
import os
import time

import numpy as np
import pytest

from stf_spde import cli, estimators, fixed_point, grids, projection, solver, wiener
from stf_spde.cli import (
    main,
    suite_continuity,
    suite_energy,
    suite_haar,
    suite_lc,
    suite_regularity,
    suite_wiener,
)
from stf_spde.fixed_point import picard_iterate, xnorm_power_distance
from stf_spde.estimators import integral_v_power
from stf_spde.grids import (
    Field,
    SpatialGrid,
    inv_neg_laplacian_values,
    laplacian_eigenvalue,
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


# the record names whose pass reads value >= bound; every other passes on <=
AT_LEAST = ("continuity_", "regularity_increment_")


def measured(suite):
    """The suite's records, each checked to pass exactly when its comparison holds."""
    checks = suite()
    for c in checks:
        if c["name"].startswith(AT_LEAST):
            holds = c["value"] >= c["bound"]
        else:
            holds = c["value"] <= c["bound"]
        assert c["pass"] is holds, c
    return checks


def suite_summary(checks):
    worst = max(checks, key=lambda c: c["value"] - c["bound"])
    return (
        f"{sum(c['pass'] for c in checks)}/{len(checks)} checks "
        f"(tightest: {worst['name']} value={worst['value']:.4g} "
        f"bound={worst['bound']:.4g})"
    )


@pytest.fixture(scope="module")
def haar_checks():
    return measured(suite_haar)


@pytest.fixture(scope="module")
def lc_checks():
    return measured(suite_lc)


def test_criterion_01_wiener_covariance():
    checks = measured(suite_wiener)
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
    checks = measured(suite_wiener)
    assert not all(c["pass"] for c in checks)
    cov = [c for c in checks if c["name"].startswith("wiener_cov_mode1")]
    assert cov and not any(c["pass"] for c in cov)


def lc_refinement(checks):
    """C02's measurement: the dyadic consistency and decay checks of suite_lc."""
    by_name = {c["name"]: c for c in checks}
    return by_name["lc_dyadic_consistency"], by_name["lc_refinement_decay"]


def lc_tails(checks):
    """C03's measurement: the level-tail checks of suite_lc."""
    return [c for c in checks if c["name"].startswith("lc_tail_level_")]


def test_criterion_02_lc_refinement(lc_checks):
    consistency, decay = lc_refinement(lc_checks)
    ok = consistency["pass"] and decay["pass"]
    report(
        "C02",
        ok,
        f"dyadic consistency mismatches={consistency['value']:g}, "
        f"median sup-distance slope {decay['value']:.4f} <= {decay['bound']:g} "
        "over 100 paths",
    )


def test_criterion_02_fails_on_an_unshrinking_displacement(monkeypatch):
    # negative control: midpoint displacement by 0.5 xi at every stage, in
    # place of the tent height 2^{-(m+1)/2}, keeps every stream and so the
    # dyadic consistency, but the refinement distances stop decaying
    def unshrinking(level, seed):
        b = np.zeros(2**level + 1)
        b[-1] = gaussian_stream(seed, wiener._STREAM_LC_LEVEL, 0).standard_normal()
        for m in range(1, level + 1):
            stream = gaussian_stream(seed, wiener._STREAM_LC_LEVEL, m)
            step = 2 ** (level - m)
            b[step :: 2 * step] = 0.5 * (
                b[0 : -1 : 2 * step] + b[2 * step :: 2 * step]
            ) + 0.5 * stream.standard_normal(2 ** (m - 1))
        return b

    monkeypatch.setattr(cli, "lc_scalar_bm", unshrinking)
    consistency, decay = lc_refinement(measured(suite_lc))
    assert consistency["pass"] is True
    assert decay["pass"] is False and decay["value"] > decay["bound"]


def test_criterion_02_fails_on_a_level_keyed_stream(monkeypatch):
    # negative control: paths keyed by seed ^ level draw fresh streams at
    # each depth, so a shallow path no longer sits inside the deep one
    original = cli.lc_scalar_bm
    monkeypatch.setattr(
        cli, "lc_scalar_bm", lambda level, seed: original(level, seed ^ level)
    )
    consistency, _ = lc_refinement(measured(suite_lc))
    assert consistency["pass"] is False and consistency["value"] > 0


def test_criterion_03_level_tail_probe(lc_checks):
    tails = lc_tails(lc_checks)
    ok = all(c["pass"] for c in tails)
    factors = ", ".join(f"{c['name'][-1]}: {c['value']:.3f}" for c in tails)
    report("C03", ok, f"tail frequency vs approximation factor (level {factors}) <= 3")


def test_criterion_03_fails_without_the_union_factor(monkeypatch):
    # negative control: an approximation that drops the union bound's
    # 2^{n-1} coefficients undershoots the frequency at every level
    original = cli.tail_bound_probe

    def single_coefficient(n, a_n, c1, trials, seed):
        empirical, analytic = original(n, a_n, c1, trials=trials, seed=seed)
        return empirical, analytic / 2 ** (n - 1)

    monkeypatch.setattr(cli, "tail_bound_probe", single_coefficient)
    tails = lc_tails(measured(suite_lc))
    assert len(tails) == 2 and not any(c["pass"] for c in tails)


def projection_rates(checks):
    """C04's measurement: the smooth and Brownian rate checks of suite_haar."""
    rates = {c["name"]: c for c in checks if c["name"].startswith("haar_rate_")}
    return rates["haar_rate_smooth"], rates["haar_rate_brownian"]


def test_criterion_04_projection_rates(haar_checks):
    smooth, rough = projection_rates(haar_checks)
    ok = smooth["pass"] and rough["pass"]
    report(
        "C04",
        ok,
        f"projection error decay: smooth slope {smooth['value']:.3f} <= -0.8, "
        f"rough slope {rough['value']:.3f} <= -0.3 over levels 2..7",
    )


def test_criterion_04_fails_on_a_projection_pinned_to_level_2(monkeypatch):
    # negative control: a projection that ignores the requested level and
    # always averages over 4 blocks has an error that does not decay with
    # n, so neither fitted slope reaches its floor at the suite's full size
    original = projection.proj_shifted

    def pinned(traj, level):
        return original(traj, HaarLevel(2, level.seed_field))

    monkeypatch.setattr(projection, "proj_shifted", pinned)
    smooth, rough = projection_rates(measured(suite_haar))
    assert smooth["pass"] is False and rough["pass"] is False


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
    checks = {c["name"]: c for c in measured(suite_haar)}
    adapted = checks["haar_adapted_future_blind"]
    assert adapted["pass"] is False and adapted["value"] > 0


def worst_monotone_pairing():
    """C06's measurement: the largest <Lap(u1^[m]) - Lap(u2^[m]), u1 - u2>_{-1}.

    It reads grids.laplacian_values when called, so a patched operator is
    measured.
    """
    grid = SpatialGrid(31)
    worst = -np.inf
    for m in (1, 2, 3):
        stream = gaussian_stream(606, m)
        for _ in range(1000):
            amp1, amp2 = 10.0 ** stream.uniform(-1.0, 1.5, size=2)
            u1 = amp1 * stream.standard_normal(grid.n_interior)
            u2 = amp2 * stream.standard_normal(grid.n_interior)
            gap = grids.laplacian_values(
                grid, signed_power_values(u1, m)
            ) - grids.laplacian_values(grid, signed_power_values(u2, m))
            pairing = grid.h * float(
                inv_neg_laplacian_values(grid, gap) @ (u1 - u2)
            )
            worst = max(worst, pairing)
    return worst


def test_criterion_06_monotone_pairing():
    worst = worst_monotone_pairing()
    report(
        "C06",
        worst <= 1e-10,
        f"signed-power diffusion pairing <= 1e-10 on 3000 pairs "
        f"(worst {worst:.3g})",
    )


def test_criterion_06_fails_on_a_sign_flipped_laplacian(monkeypatch):
    # negative control: -Lap in place of Lap makes the diffusion
    # anti-monotone. The inverse's refinement step reads the patched
    # operator too, which only scales (-Lap)^{-1} by 3 and keeps its sign
    original = grids.laplacian_values
    monkeypatch.setattr(
        grids, "laplacian_values", lambda grid, values: -original(grid, values)
    )
    assert worst_monotone_pairing() > 1.0


def heat_oracle_and_order():
    """C07's measurement: the eigen-recursion error and the dt order of the heat solve.

    It reads solver._implicit_band and solver._step_rhs when called, so a
    patched step is measured.
    """
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
    return oracle_err, order


def test_criterion_07_deterministic_heat():
    oracle_err, order = heat_oracle_and_order()
    ok = oracle_err <= 1e-10 and order >= 0.9
    report(
        "C07",
        ok,
        f"eigen-recursion max error {oracle_err:.3g} <= 1e-10; "
        f"dt/16 self-oracle order {order:.3f} >= 0.9",
    )


def test_criterion_07_fails_on_a_doubled_diffusion_step(monkeypatch):
    # negative control: a band of I - 2 dt Lap steps the heat equation with
    # twice its dt, which the eigen-recursion sees; the order stays 1
    original = solver._implicit_band
    monkeypatch.setattr(solver, "_implicit_band", lambda grid, c: original(grid, 2.0 * c))
    oracle_err, order = heat_oracle_and_order()
    assert oracle_err > 1e-10
    assert order >= 0.9


def test_criterion_07_fails_on_a_sqrt_dt_drift_step(monkeypatch):
    # negative control: a drift stepped by sqrt(dt) xi^[1/2], scaled like a
    # noise increment, grows as dt shrinks, which the order sees; the
    # drift-free recursion does not
    monkeypatch.setattr(
        solver,
        "_step_rhs",
        lambda u, xi, noise, dt: u + np.sqrt(dt) * signed_power_values(xi, 0.5) + noise,
    )
    oracle_err, order = heat_oracle_and_order()
    assert oracle_err <= 1e-10
    assert order < 0.9


def energy_records(checks):
    """C08's measurement: suite_energy's inequality and failed-path records."""
    inequalities = [c for c in checks if not c["name"].startswith("energy_failed_paths_")]
    failures = [c for c in checks if c["name"].startswith("energy_failed_paths_")]
    return inequalities, failures


def test_criterion_08_energy_inequalities():
    inequalities, failures = energy_records(measured(suite_energy))
    assert len(inequalities) == len(failures) == len(KNOWN_EXAMPLES)
    checks = inequalities + failures
    report(
        "C08",
        all(c["pass"] for c in checks),
        "held-out energy LHS <= fitted bound on 64+64 paths, no failed path, "
        "all examples: " + suite_summary(checks),
    )


def test_criterion_08_fails_on_a_standard_error_without_its_root(monkeypatch):
    # negative control: std / n in place of std / sqrt(n) shrinks the fit's
    # 3-stderr margin eightfold at 64 paths, so the hold-out mean exceeds
    # the calibrated bound. The fit absorbs defects in the solve or in the
    # bound's form into C, so the margin is what the check can see
    original = estimators.mc_mean_stderr

    def rootless(samples):
        mean, stderr = original(samples)
        return mean, stderr / np.sqrt(len(samples))

    monkeypatch.setattr(estimators, "mc_mean_stderr", rootless)
    inequalities, failures = energy_records(measured(suite_energy))
    assert any(c["pass"] is False and c["value"] > c["bound"] for c in inequalities)
    assert all(c["pass"] is True for c in failures)


def test_criterion_09_continuity_exponents():
    checks = measured(suite_continuity)
    detail = ", ".join(
        f"{c['name'].removeprefix('continuity_')}: {c['value']:.3f}>={c['bound']:.3f}"
        for c in checks
    )
    report("C09", all(c["pass"] for c in checks), f"fitted exponents ({detail})")


def test_criterion_09_fails_on_a_discontinuous_drift(monkeypatch):
    # negative control: a drift sign(xi) in place of xi^[1/2] jumps where
    # the base coefficient |sin(2 pi x)| is 0 and the perturbation moves
    # it, by the same amount at every epsilon, so the heat solve's fitted
    # exponent falls below its target
    monkeypatch.setattr(
        solver, "_step_rhs", lambda u, xi, noise, dt: u + dt * np.sign(xi) + noise
    )
    checks = {c["name"]: c for c in measured(suite_continuity)}
    heat = checks["continuity_heat_sqrt_drift"]
    assert heat["pass"] is False and heat["value"] < heat["bound"]


def time_regularity(checks):
    """C10's measurement: suite_regularity's increment and refinement checks."""
    increments = [c for c in checks if c["name"].startswith("regularity_increment_")]
    refinements = [
        c for c in checks if c["name"].startswith("regularity_seminorm_refinement_")
    ]
    return increments, refinements


def test_criterion_10_time_regularity():
    increments, refinements = time_regularity(measured(suite_regularity))
    checks = increments + refinements
    assert len(increments) == len(refinements) == 2
    report(
        "C10",
        all(c["pass"] for c in checks),
        "increment exponents above targets and seminorms stable under "
        "refinement: " + suite_summary(checks),
    )


def test_criterion_10_fails_on_a_step_that_keeps_half_its_state(monkeypatch):
    # negative control: 0.5 u + dt xi^[1/2] + noise drops half the state
    # every step, so the solution loses its datum within a few steps and
    # the early increments are about the same at every t: the fitted
    # exponents fall below their targets. The refinement ratios only bound
    # growth between LC levels, so they still pass
    monkeypatch.setattr(
        solver,
        "_step_rhs",
        lambda u, xi, noise, dt: 0.5 * u + dt * signed_power_values(xi, 0.5) + noise,
    )
    increments, refinements = time_regularity(measured(suite_regularity))
    assert all(c["pass"] is False and c["value"] < c["bound"] for c in increments)
    assert all(c["pass"] is True for c in refinements)


def staircase_excesses():
    """C11's measurement: the worst residual and staircase/Picard excesses.

    Each is the excess over 10 newton_tol (1 + |w|), so both are <= 0 on
    working code. It reads fixed_point.staircase_construct when called, so
    a patched sweep is measured.
    """
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
            w = fixed_point.staircase_construct(problem, level, noise)
            resolve = proj_shifted(solve_frozen(problem, w, noise), level)
            residual = xnorm_power_distance(resolve, w, problem) ** (1.0 / power)
            w_norm = integral_v_power(w, problem.triple, power) ** (1.0 / power)
            worst = max(worst, residual - 10.0 * tol * (1.0 + w_norm))
    noises = [sample_increments(qspec, tg, path_seed(17, i)) for i in range(16)]
    heat = ProblemSpec("heat_sqrt_drift", qspec, datum)
    limits, _ = picard_iterate(heat, level, noises)
    agree = -np.inf
    for p, noise in enumerate(noises):
        w = fixed_point.staircase_construct(heat, level, noise)
        gap = xnorm_power_distance(w, limits.path(p), heat) ** 0.5
        w_norm = integral_v_power(w, heat.triple, 2) ** 0.5
        agree = max(agree, gap - 10.0 * tol * (1.0 + w_norm))
    return worst, agree


def test_criterion_11_staircase_residual():
    worst, agree = staircase_excesses()
    ok = worst <= 0.0 and agree <= 0.0
    report(
        "C11",
        ok,
        "fixed-point residual and staircase/Picard gap within 10*newton_tol*"
        f"(1+|w|) on 16 paths x 3 examples (excesses {worst:.3g}, {agree:.3g})",
    )


def test_criterion_11_fails_on_a_perturbed_block(monkeypatch):
    # negative control: a sweep whose block 2 (of 8) is off by 1e-6 is no
    # fixed point, and no longer the Picard limit
    original = fixed_point.staircase_construct

    def perturbed(problem, level, noise, config=None):
        w = original(problem, level, noise, config)
        s = w.timegrid.n_steps // 2**level.n
        values = w.values.copy()
        values[..., 2 * s : 3 * s, :] += 1e-6
        return Trajectory(w.timegrid, w.grid, values)

    monkeypatch.setattr(fixed_point, "staircase_construct", perturbed)
    worst, agree = staircase_excesses()
    assert worst > 0.0 and agree > 0.0


def replay_mismatches(tmp_path):
    """C12's measurement: each command run twice, compared byte for byte.

    Returns the commands whose two output trees differ, and the first
    simulate manifest.
    """
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
    return mismatched, manifest


def test_criterion_12_command_replay(tmp_path):
    mismatched, manifest = replay_mismatches(tmp_path)
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


def test_criterion_12_fails_on_a_clocked_manifest(tmp_path, monkeypatch):
    # negative control: a manifest that records when it was written no
    # longer replays byte for byte
    original = cli._write_manifest

    def clocked(out_dir, command, cfg, outputs):
        original(out_dir, command, cfg, outputs)
        path = os.path.join(out_dir, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["written_ns"] = time.time_ns()
        with open(path, "w") as fh:
            json.dump(manifest, fh)

    monkeypatch.setattr(cli, "_write_manifest", clocked)
    mismatched, manifest = replay_mismatches(tmp_path)
    assert mismatched == ["simulate", "fixed-point"]
    assert "written_ns" in manifest

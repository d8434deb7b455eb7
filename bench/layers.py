"""What the traced run wraps in `stf_spde`, and how its spans become per-layer metrics.

Public functions are wrapped in every module namespace that binds them
(`solve_frozen`, for instance, is imported separately into `cli`,
`fixed_point` and `estimators`). Calls a module makes into scipy are
wrapped only in that module's namespace, so `solver.solve_banded` counts the
Newton solves and nothing else. Three private names are wrapped because they
are the only boundary of their layer today: `solver._newton_porous` (one
Newton solve), `solver._advance` (one time step, counted for dt retries)
and `cli._write_manifest`. A binding that has disappeared is reported as
missing, and every metric derived from it is printed as null, never as 0.

Every metric is per repetition of the workload body, so counts repeat
exactly from run to run.
"""

from __future__ import annotations

import inspect

import numpy as np

PACKAGE = "stf_spde"
SUITES = ("haar", "wiener", "lc", "regularity")
EXAMPLES = ("heat_sqrt_drift", "porous_sqrt_drift", "porous_gradient_noise")

WRITERS = (
    "wiener.save_noise_path",
    "projection.trajectory_to_csv",
    "fixed_point.FixedPointDiagnostics.to_csv",
    "cli._write_manifest",
)
TRIDIAG = ("solver.solve_banded", "solver.solveh_banded")
# the Newton loop is the only caller of solve_banded in the solver module
NEWTON_SOLVE = "solver.solve_banded"
FIELD_COUNTER = "grids.Field.__post_init__"
RETRY_COUNTER = "solver._advance"


def _steps_of(args, kwargs, result):
    """(example, steps) of a solve_frozen or staircase_construct call."""
    problem = args[0] if args else kwargs["problem"]
    return problem.example, result.timegrid.n_steps


def _passes_of(args, kwargs, result):
    return result[1].n_iterations


def _seminorm_steps(args, kwargs, result):
    traj = args[0] if args else kwargs["traj"]
    return traj.timegrid.n_steps


def install(tracer) -> set[str]:
    """Wrap every layer boundary of the imported package; returns the missing span names."""
    from stf_spde import cli, estimators, fixed_point, grids, projection, rng, solver, wiener

    missing = set()

    def span(name, tag):
        return lambda fn: tracer.spanned(fn, name, tag)

    def everywhere(module, attr, tag=None):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if not tracer.wrap_everywhere(module, attr, span(name, tag), PACKAGE):
            missing.add(name)

    def here(owner, attr, name, tag=None):
        if not tracer.wrap_here(owner, attr, span(name, tag)):
            missing.add(name)

    here(cli, "main", "cli.main")
    for suite in SUITES:
        # cmd_verify looks suites up in the SUITES table
        name = f"cli.suite_{suite}"
        if suite in getattr(cli, "SUITES", {}):
            here(cli.SUITES, suite, name)
        else:
            missing.add(name)
    here(cli, "_write_manifest", "cli._write_manifest")
    here(fixed_point.FixedPointDiagnostics, "to_csv", "fixed_point.FixedPointDiagnostics.to_csv")
    everywhere(wiener, "save_noise_path")
    everywhere(projection, "trajectory_to_csv")

    everywhere(rng, "gaussian_stream")
    everywhere(wiener, "sample_increments")
    everywhere(wiener, "lc_q_wiener")
    everywhere(wiener, "tail_bound_probe")

    everywhere(grids, "norm")
    here(grids, "cho_solve_banded", "grids.cho_solve_banded")

    def count_field(counters, args, kwargs, result):
        counters["grids.field.created"] = counters.get("grids.field.created", 0) + 1
        counters["grids.field.bytes"] = (
            counters.get("grids.field.bytes", 0) + args[0].values.nbytes
        )

    if not tracer.wrap_here(
        grids.Field, "__post_init__", lambda fn: tracer.counted(fn, count_field)
    ):
        missing.add(FIELD_COUNTER)

    everywhere(solver, "solve_frozen", _steps_of)
    here(solver, "solve_banded", "solver.solve_banded")
    here(solver, "solveh_banded", "solver.solveh_banded")
    here(solver, "_newton_porous", "solver._newton_porous")
    advance = vars(solver).get("_advance")
    params = list(inspect.signature(advance).parameters) if advance else []
    if "depth" in params:
        depth_at = params.index("depth")

        def count_half_step(counters, args, kwargs, result):
            depth = args[depth_at] if len(args) > depth_at else kwargs["depth"]
            if depth > 0:
                counters["solver.half_steps"] = counters.get("solver.half_steps", 0) + 1

        tracer.wrap_everywhere(
            solver, "_advance", lambda fn: tracer.counted(fn, count_half_step), PACKAGE
        )
    else:
        missing.add(RETRY_COUNTER)

    everywhere(fixed_point, "staircase_construct", _steps_of)
    everywhere(fixed_point, "picard_iterate", _passes_of)
    everywhere(fixed_point, "xnorm_power_distance")
    everywhere(fixed_point, "time_regularity_probe")

    everywhere(projection, "proj_shifted")
    here(projection.Trajectory, "from_matrix", "projection.Trajectory.from_matrix")
    everywhere(projection, "fractional_seminorm", _seminorm_steps)

    everywhere(estimators, "integral_v_power")
    return missing


class Spans:
    """Per-repetition totals over the recorded spans, by span name."""

    def __init__(self, tracer, reps: int, wall_traced: float, wall_untraced: float,
                 written_bytes: float):
        self.tracer = tracer
        self.reps = reps
        self.a = tracer.arrays()
        self.wall = wall_traced
        self.wall_untraced = wall_untraced
        self.written_bytes = written_bytes

    def _mask(self, names):
        ids = [self.tracer.names.index(n) for n in names if n in self.tracer.names]
        return np.isin(self.a["name_ix"], ids)

    def calls(self, *names) -> float:
        return int(np.count_nonzero(self._mask(names))) / self.reps

    def seconds(self, *names) -> float:
        """Inclusive time of the outermost calls, per repetition."""
        mask = self._mask(names) & self.a["outer"]
        return float(self.a["duration_ns"][mask].sum()) * 1e-9 / self.reps

    def share(self, *names) -> float:
        return self.seconds(*names) / self.wall

    def per_call(self, name, how, scale) -> float:
        """Median, 90th percentile or mean duration of one call, in ns * scale."""
        d = self.a["duration_ns"][self._mask([name])]
        if not len(d):
            return 0.0
        if how == "mean":
            return float(np.mean(d)) * scale
        return float(np.percentile(d, how)) * scale

    def per(self, numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def tags(self, name) -> list:
        tags = self.tracer.tags
        return [tags[i] for i in np.flatnonzero(self._mask([name])) if i in tags]

    def counter(self, key) -> float:
        return self.tracer.counters.get(key, 0) / self.reps

    def steps(self, name, examples) -> float:
        return sum(n for ex, n in self.tags(name) if ex in examples) / self.reps

    def step_us(self, example) -> float:
        """Mean time of one solve_frozen step on the example (outermost calls)."""
        ix = np.flatnonzero(self._mask(["solver.solve_frozen"]) & self.a["outer"])
        tags = self.tracer.tags
        picked = [i for i in ix if tags.get(i, (None,))[0] == example]
        steps = sum(tags[i][1] for i in picked)
        return self.per(float(self.a["duration_ns"][picked].sum()) * 1e-3, steps)

    def porous_steps(self) -> float:
        porous = EXAMPLES[1:]
        return (self.steps("solver.solve_frozen", porous)
                + self.steps("fixed_point.staircase_construct", porous))


# (metric, unit, span or counter names it needs, value from a Spans)
PER_LAYER = [
    ("cli.write.s", "s", WRITERS, lambda s: s.seconds(*WRITERS)),
    ("cli.write.bytes", "bytes", (), lambda s: s.written_bytes),
    *[
        (f"cli.suite.{name}.s", "s", (f"cli.suite_{name}",),
         lambda s, name=name: s.seconds(f"cli.suite_{name}"))
        for name in SUITES
    ],
    ("rng.gaussian_stream.calls", "count", ("rng.gaussian_stream",),
     lambda s: s.calls("rng.gaussian_stream")),
    ("rng.gaussian_stream.s", "s", ("rng.gaussian_stream",),
     lambda s: s.seconds("rng.gaussian_stream")),
    ("rng.gaussian_stream.share", "frac", ("rng.gaussian_stream",),
     lambda s: s.share("rng.gaussian_stream")),
    ("wiener.sample_increments.calls", "count", ("wiener.sample_increments",),
     lambda s: s.calls("wiener.sample_increments")),
    ("wiener.sample_increments.s", "s", ("wiener.sample_increments",),
     lambda s: s.seconds("wiener.sample_increments")),
    ("wiener.sample_increments.p50_us", "us", ("wiener.sample_increments",),
     lambda s: s.per_call("wiener.sample_increments", 50, 1e-3)),
    ("wiener.sample_increments.p90_us", "us", ("wiener.sample_increments",),
     lambda s: s.per_call("wiener.sample_increments", 90, 1e-3)),
    ("wiener.lc_q_wiener.s", "s", ("wiener.lc_q_wiener",),
     lambda s: s.seconds("wiener.lc_q_wiener")),
    ("wiener.tail_bound_probe.s", "s", ("wiener.tail_bound_probe",),
     lambda s: s.seconds("wiener.tail_bound_probe")),
    ("grids.field.created", "count", (FIELD_COUNTER,),
     lambda s: s.counter("grids.field.created")),
    ("grids.field.bytes", "bytes", (FIELD_COUNTER,),
     lambda s: s.counter("grids.field.bytes")),
    ("grids.norm.calls", "count", ("grids.norm",), lambda s: s.calls("grids.norm")),
    ("grids.norm.s", "s", ("grids.norm",), lambda s: s.seconds("grids.norm")),
    ("grids.tridiag.calls", "count", ("grids.cho_solve_banded",),
     lambda s: s.calls("grids.cho_solve_banded")),
    ("grids.tridiag.s", "s", ("grids.cho_solve_banded",),
     lambda s: s.seconds("grids.cho_solve_banded")),
    ("solver.solve_frozen.calls", "count", ("solver.solve_frozen",),
     lambda s: s.calls("solver.solve_frozen")),
    ("solver.solve_frozen.s", "s", ("solver.solve_frozen",),
     lambda s: s.seconds("solver.solve_frozen")),
    ("solver.solve_frozen.p50_ms", "ms", ("solver.solve_frozen",),
     lambda s: s.per_call("solver.solve_frozen", 50, 1e-6)),
    ("solver.solve_frozen.p90_ms", "ms", ("solver.solve_frozen",),
     lambda s: s.per_call("solver.solve_frozen", 90, 1e-6)),
    *[
        (f"solver.step_us.{ex}", "us", ("solver.solve_frozen",),
         lambda s, ex=ex: s.step_us(ex))
        for ex in EXAMPLES
    ],
    ("solver.tridiag.calls", "count", TRIDIAG, lambda s: s.calls(*TRIDIAG)),
    ("solver.tridiag.s", "s", TRIDIAG, lambda s: s.seconds(*TRIDIAG)),
    ("solver.tridiag.mean_us", "us", TRIDIAG,
     lambda s: s.per(s.seconds(*TRIDIAG) * 1e6, s.calls(*TRIDIAG))),
    ("solver.tridiag.share", "frac", TRIDIAG, lambda s: s.share(*TRIDIAG)),
    ("solver.newton_iterations", "count", (NEWTON_SOLVE,), lambda s: s.calls(NEWTON_SOLVE)),
    ("solver.newton_per_step", "iter/step",
     (NEWTON_SOLVE, "solver.solve_frozen", "fixed_point.staircase_construct"),
     lambda s: s.per(s.calls(NEWTON_SOLVE), s.porous_steps())),
    ("solver.newton_iteration.mean_us", "us", (NEWTON_SOLVE, "solver._newton_porous"),
     lambda s: s.per(s.seconds("solver._newton_porous") * 1e6, s.calls(NEWTON_SOLVE))),
    # each dt retry replaces one step by two half steps
    ("solver.dt_retries", "count", (RETRY_COUNTER,),
     lambda s: s.counter("solver.half_steps") / 2),
    ("fixed_point.staircase.calls", "count", ("fixed_point.staircase_construct",),
     lambda s: s.calls("fixed_point.staircase_construct")),
    ("fixed_point.staircase.mean_ms", "ms", ("fixed_point.staircase_construct",),
     lambda s: s.per_call("fixed_point.staircase_construct", "mean", 1e-6)),
    ("fixed_point.picard.s", "s", ("fixed_point.picard_iterate",),
     lambda s: s.seconds("fixed_point.picard_iterate")),
    ("fixed_point.picard.passes", "count", ("fixed_point.picard_iterate",),
     lambda s: float(np.mean(s.tags("fixed_point.picard_iterate") or [0]))),
    ("fixed_point.xnorm_distance.s", "s", ("fixed_point.xnorm_power_distance",),
     lambda s: s.seconds("fixed_point.xnorm_power_distance")),
    ("fixed_point.regularity_probe.s", "s", ("fixed_point.time_regularity_probe",),
     lambda s: s.seconds("fixed_point.time_regularity_probe")),
    ("projection.proj_shifted.calls", "count", ("projection.proj_shifted",),
     lambda s: s.calls("projection.proj_shifted")),
    ("projection.proj_shifted.s", "s", ("projection.proj_shifted",),
     lambda s: s.seconds("projection.proj_shifted")),
    ("projection.proj_shifted.mean_us", "us", ("projection.proj_shifted",),
     lambda s: s.per_call("projection.proj_shifted", "mean", 1e-3)),
    ("projection.from_matrix.calls", "count", ("projection.Trajectory.from_matrix",),
     lambda s: s.calls("projection.Trajectory.from_matrix")),
    ("projection.from_matrix.s", "s", ("projection.Trajectory.from_matrix",),
     lambda s: s.seconds("projection.Trajectory.from_matrix")),
    ("projection.fractional_seminorm.calls", "count", ("projection.fractional_seminorm",),
     lambda s: s.calls("projection.fractional_seminorm")),
    ("projection.fractional_seminorm.s", "s", ("projection.fractional_seminorm",),
     lambda s: s.seconds("projection.fractional_seminorm")),
    ("projection.fractional_seminorm.max_steps", "count", ("projection.fractional_seminorm",),
     lambda s: max(s.tags("projection.fractional_seminorm"), default=0)),
    ("estimators.integral_v_power.calls", "count", ("estimators.integral_v_power",),
     lambda s: s.calls("estimators.integral_v_power")),
    ("estimators.integral_v_power.s", "s", ("estimators.integral_v_power",),
     lambda s: s.seconds("estimators.integral_v_power")),
    ("estimators.integral_v_power.share", "frac", ("estimators.integral_v_power",),
     lambda s: s.share("estimators.integral_v_power")),
    ("trace.wall_s", "s", (), lambda s: s.wall),
    ("trace.spans", "count", (), lambda s: len(s.a["name_ix"]) / s.reps),
    ("trace.overhead_frac", "frac", (), lambda s: s.wall / s.wall_untraced - 1.0),
]


def metrics(spans: Spans, missing: set[str]) -> dict[str, float | None]:
    """Every per-layer metric; None for one that needs a missing target."""
    return {
        name: None if missing.intersection(sources) else value(spans)
        for name, _, sources, value in PER_LAYER
    }

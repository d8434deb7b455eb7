"""The benchmark's three workloads, expressed as `stf_spde.cli.main` argv lists.

Every workload is a closed loop with a single client: one process issues the
commands in sequence and each waits for the previous one to return. All of
them run at the fixture size of the verification suites (N = 31 interior
nodes, 128 time steps, dyadic level 3, 16 noise modes, `sine(1)` datum with
amplitude 0.1), which is the size of every acceptance check.

This module imports neither numpy nor the package, so the set-up probe can
time those imports itself.
"""

from __future__ import annotations

import os
import random

EXAMPLES = ("heat_sqrt_drift", "porous_sqrt_drift", "porous_gradient_noise")

WORKLOADS = {
    # the per-path pipeline users run most: noise, staircase, one more solve,
    # CSV/binary output; about a third of it is banded solves in the solver
    "simulate_paths": "simulate on all three examples, 32 paths each: the solver and output layers",
    # the same solver fed through Trajectory/Field inputs ten times per path,
    # small output, per-row norm loops in the distance and energy sums
    "picard_ensemble": "fixed-point on two examples, 16 paths each: Picard re-solves and trajectory norms",
    # fixed built-in seeds by design; the bypass workload for solver changes
    # and the mechanism workload for noise, projection and Field layout
    "verify_probes": "verify haar, wiener, lc and regularity: noise streams, projections and seminorms",
}

SIMULATE_PATHS = 32
PICARD_PATHS = 16
PICARD_EXAMPLES = EXAMPLES[:2]
VERIFY_SUITES = ("haar", "wiener", "lc", "regularity")

# smoke sizes keep the benchmark's own tests short; they are never timed
SMOKE_PATHS = 2
SMOKE_SUITES = ("lc",)

# the reference probe runs before the timed loop (it doubles as warm-up);
# its outputs are compared with reference.json
REFERENCE_SEED = 20260217
REFERENCE_PATHS = {"simulate_paths": 1, "picard_ensemble": 2}
REFERENCE_SUITES = ("lc",)

_CONFIG = """\
[problem]
example = {example}

[discretization]
grid_size = 31
time_steps = 128
dyadic_level = 3

[noise]
n_modes = 16
decay_exponent = 1.0

[initial]
datum = sine(1)
amplitude = 0.1

[run]
paths = 1
master_seed = 0
"""


def master_seed(seed: int) -> int:
    """The master seed handed to the CLI, derived from the benchmark seed."""
    return random.Random(seed).randrange(2**32)


def config_examples(workload: str) -> tuple[str, ...]:
    """Examples whose configs the workload builds (verify: the regularity pair)."""
    if workload == "simulate_paths":
        return EXAMPLES
    return PICARD_EXAMPLES


def write_configs(workload: str, config_dir: str) -> dict[str, str]:
    """Write one INI config per example; returns example -> path."""
    os.makedirs(config_dir, exist_ok=True)
    paths = {}
    for example in config_examples(workload):
        path = os.path.join(config_dir, f"{example}.ini")
        with open(path, "w") as fh:
            fh.write(_CONFIG.format(example=example))
        paths[example] = path
    return paths


def build_objects(cli, config_paths: list[str]) -> list:
    """Build what the workload's commands build before their first solve.

    Loading a config validates it, which already constructs the problem,
    time grid and Haar level once; the explicit calls mirror what each
    command does next.
    """
    built = []
    for path in config_paths:
        cfg = cli.RunConfig.from_file(path)
        built.append((cfg.problem(), cfg.timegrid(), cfg.haar_level()))
    return built


def _solve_calls(command, configs, examples, out_dir, seed, paths):
    return [
        (f"{command}:{ex}",
         [command, "--config", configs[ex], "--out", os.path.join(out_dir, ex),
          "--seed", str(seed), "--paths", str(paths)])
        for ex in examples
    ]


def _verify_calls(suites, out_dir):
    return [(f"verify:{s}", ["verify", s, "--out", os.path.join(out_dir, s)]) for s in suites]


def calls(workload: str, configs: dict[str, str], out_dir: str, seed: int,
          smoke: bool = False) -> list[tuple[str, list[str]]]:
    """The workload body: (call id, argv) pairs in the order they run."""
    if workload == "simulate_paths":
        return _solve_calls("simulate", configs, EXAMPLES, out_dir, master_seed(seed),
                            SMOKE_PATHS if smoke else SIMULATE_PATHS)
    if workload == "picard_ensemble":
        return _solve_calls("fixed-point", configs, PICARD_EXAMPLES, out_dir,
                            master_seed(seed), SMOKE_PATHS if smoke else PICARD_PATHS)
    if workload == "verify_probes":
        return _verify_calls(SMOKE_SUITES if smoke else VERIFY_SUITES, out_dir)
    raise ValueError(f"unknown workload {workload!r}")


def reference_calls(workload: str, configs: dict[str, str], out_dir: str
                    ) -> list[tuple[str, list[str]]]:
    """The fixed-seed probe whose outputs are compared with reference.json."""
    if workload == "verify_probes":
        probe = _verify_calls(REFERENCE_SUITES, out_dir)
    else:
        command = "simulate" if workload == "simulate_paths" else "fixed-point"
        probe = _solve_calls(command, configs, configs, out_dir, REFERENCE_SEED,
                             REFERENCE_PATHS[workload])
    return [(f"probe:{call_id}", argv) for call_id, argv in probe]

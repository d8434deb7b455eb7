"""Correctness gate: checks on what the CLI wrote, run outside the timed region.

Each check returns a list of failure messages, empty when it passes, so a
test can hand it a corrupted output and see it fail. A call counts as
failed when any check on it fails.

Outputs are compared with `reference.json` within a stated tolerance, not
bitwise, so a deliberate last-bit change in the arithmetic (for instance a
different tridiagonal kernel) is not a failure:

    |actual - expected| <= ATOL + RTOL * |expected|

Newton solves stop at a relative residual of 1e-10, so a changed kernel can
move a step by at most about that much; the tolerance leaves room for 128
such steps and is still far below any change in the mathematics.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re

import numpy as np

RTOL = 1e-7
ATOL = 1e-9

# every ROW_STRIDE-th time row of a trajectory CSV goes into the reference
ROW_STRIDE = 16

_REPORT = re.compile(r"residual (\S+), converged: (\w+)")


def tree_digest(root: str) -> dict[str, str]:
    """sha256 of every file under root, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


def read_trajectory_csv(path: str) -> np.ndarray:
    """The (n_steps + 1, 1 + N) matrix of a trajectory CSV, time column first."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row] for row in rows if row])


def extract(out_dir: str) -> dict[str, list[float]]:
    """The numbers of one call's outputs that the reference covers."""
    found = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.startswith(("coefficient_", "solution_", "fixed_point_")):
            found[name] = read_trajectory_csv(path)[::ROW_STRIDE].ravel().tolist()
        elif name == "picard_diagnostics.csv":
            found[name] = read_trajectory_csv(path).ravel().tolist()
        elif name.startswith("noise_") and name.endswith(".bin"):
            # read through the package, so a new file header is not a mismatch
            from stf_spde.wiener import load_noise_path

            found[name] = load_noise_path(path).increments[::ROW_STRIDE].ravel().tolist()
        elif name.startswith("verify_") and name.endswith(".jsonl"):
            with open(path) as fh:
                for line in fh:
                    check = json.loads(line)
                    found[f"{name}:{check['name']}"] = [check["value"]]
    return found


def check_exit(rc) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}"]


def check_verdicts(out_dir: str) -> list[str]:
    """Every verdict in the call's verify_*.jsonl passes, and there is at least one."""
    failures, seen = [], 0
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("verify_") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            for line in fh:
                check = json.loads(line)
                seen += 1
                if check.get("pass") is not True:
                    failures.append(f"verdict FAIL: {check.get('name')}")
    if not seen:
        failures.append("no verify verdicts written")
    return failures


def check_fixed_point_report(stdout: str) -> list[str]:
    """fixed-point reports convergence with a residual of exactly 0."""
    got = _REPORT.search(stdout)
    if got is None:
        return ["no fixed-point report on stdout"]
    failures = []
    if float(got.group(1)) != 0.0:
        failures.append(f"fixed-point residual {got.group(1)} is not 0")
    if got.group(2) != "True":
        failures.append("fixed-point did not converge")
    return failures


def check_replay(digest: dict[str, str], first: dict[str, str]) -> list[str]:
    """An output tree is byte-identical to the first repetition's."""
    if digest == first:
        return []
    changed = sorted(k for k in set(digest) | set(first) if digest.get(k) != first.get(k))
    return [f"output differs from the first repetition: {', '.join(changed[:5])}"]


def check_reference(found: dict[str, list[float]], expected: dict[str, list[float]]
                    ) -> list[str]:
    """Every reference number is present and within the tolerance."""
    failures = []
    for key, want in expected.items():
        if key not in found:
            failures.append(f"{key}: missing")
            continue
        got, want = np.asarray(found[key]), np.asarray(want)
        if got.shape != want.shape:
            failures.append(f"{key}: {got.size} values, reference has {want.size}")
            continue
        err = np.abs(got - want) - (ATOL + RTOL * np.abs(want))
        if not np.all(err <= 0):
            worst = int(np.argmax(err))
            failures.append(
                f"{key}[{worst}] = {got[worst]!r}, reference {want[worst]!r}"
            )
    return failures


def check_staircase(cli, argv: list[str], out_dir: str) -> list[str]:
    """Each Picard iterate equals staircase_construct on the same noise, bit for bit."""
    from stf_spde.fixed_point import staircase_construct
    from stf_spde.rng import path_seed
    from stf_spde.wiener import sample_increments

    opts = dict(zip(argv[1::2], argv[2::2]))
    cfg = cli.RunConfig.from_file(opts["--config"])
    master, paths = int(opts["--seed"]), int(opts["--paths"])
    problem, level, tg = cfg.problem(), cfg.haar_level(), cfg.timegrid()
    failures = []
    for i in range(paths):
        noise = sample_increments(problem.qwiener, tg, path_seed(master, i))
        xi = staircase_construct(problem, level, noise, cfg.solver_config())
        path = os.path.join(out_dir, f"fixed_point_{i:03d}.csv")
        if not os.path.isfile(path):
            failures.append(f"path {i}: {os.path.basename(path)} missing")
        elif not np.array_equal(read_trajectory_csv(path)[:, 1:], xi.stacked()):
            failures.append(f"path {i}: Picard iterate differs from the staircase")
    return failures

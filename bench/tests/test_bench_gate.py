"""Every gate check passes on good output and fails on a corrupted copy."""

import contextlib
import io
import json
import os

import pytest

import gate
import run
import workloads
from stf_spde import cli

REFERENCE = json.load(open(os.path.join(os.path.dirname(gate.__file__), "reference.json")))


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return rc, out.getvalue()


def _nudge_csv(path, row=5, col=3, factor=1.0 + 1e-6):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """The simulate and fixed-point reference probes on the heat example."""
    tmp = tmp_path_factory.mktemp("probe")
    out = {}
    for workload in ("simulate_paths", "picard_ensemble"):
        configs = workloads.write_configs(workload, str(tmp / workload / "configs"))
        configs = {"heat_sqrt_drift": configs["heat_sqrt_drift"]}
        (call_id, argv), = workloads.reference_calls(workload, configs, str(tmp / workload))
        rc, stdout = _cli(argv)
        assert rc == 0
        out[workload] = (call_id.removeprefix("probe:"), argv, stdout)
    return out


def test_exit_code():
    assert gate.check_exit(0) == []
    assert gate.check_exit(3) and gate.check_exit("exception")


def test_verdicts(tmp_path):
    good = {"name": "a", "value": 0.1, "bound": 1.0, "pass": True}
    (tmp_path / "verify_x.jsonl").write_text(json.dumps(good) + "\n")
    assert gate.check_verdicts(str(tmp_path)) == []
    bad = dict(good, name="b", **{"pass": False})
    (tmp_path / "verify_x.jsonl").write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    assert gate.check_verdicts(str(tmp_path)) == ["verdict FAIL: b"]
    os.remove(tmp_path / "verify_x.jsonl")
    assert gate.check_verdicts(str(tmp_path)) == ["no verify verdicts written"]


def test_fixed_point_report(probe):
    _, _, stdout = probe["picard_ensemble"]
    assert gate.check_fixed_point_report(stdout) == []
    assert gate.check_fixed_point_report(stdout.replace("residual 0,", "residual 1e-300,"))
    assert gate.check_fixed_point_report(stdout.replace("converged: True", "converged: False"))
    assert gate.check_fixed_point_report("")


def test_replay():
    first = {"a.csv": "00", "b.csv": "11"}
    assert gate.check_replay(dict(first), first) == []
    assert gate.check_replay({"a.csv": "00", "b.csv": "12"}, first)
    assert gate.check_replay({"a.csv": "00"}, first)


@pytest.mark.parametrize("workload", ["simulate_paths", "picard_ensemble"])
def test_reference_matches_and_catches_a_corrupted_value(probe, workload):
    key, argv, _ = probe[workload]
    out_dir = argv[argv.index("--out") + 1]
    expected = REFERENCE[workload][key]
    assert gate.check_reference(gate.extract(out_dir), expected) == []
    name = "coefficient_000.csv" if workload == "simulate_paths" else "fixed_point_000.csv"
    # row 16 is one of the rows the reference stores
    _nudge_csv(os.path.join(out_dir, name), row=17)
    try:
        failures = gate.check_reference(gate.extract(out_dir), expected)
    finally:
        _cli(argv)  # restore the probe output for the other tests
    assert failures and failures[0].startswith(name)


def test_reference_tolerance():
    expected = {"x": [1.0, -2.0, 0.0]}
    assert gate.check_reference({"x": [1.0 + 1e-12, -2.0, 1e-12]}, expected) == []
    assert gate.check_reference({"x": [1.0 + 1e-5, -2.0, 0.0]}, expected)
    assert gate.check_reference({"x": [1.0, -2.0]}, expected)
    assert gate.check_reference({}, expected) == ["x: missing"]


def test_verify_reference_catches_a_changed_value(tmp_path):
    rc, _ = _cli(["verify", "lc", "--out", str(tmp_path)])
    assert rc == 0
    expected = REFERENCE["verify_probes"]["verify:lc"]
    assert gate.check_reference(gate.extract(str(tmp_path)), expected) == []
    path = tmp_path / "verify_lc.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[1]["value"] *= 1.001
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert gate.check_reference(gate.extract(str(tmp_path)), expected)


def test_staircase_identity_is_bitwise(probe):
    _, argv, _ = probe["picard_ensemble"]
    out_dir = argv[argv.index("--out") + 1]
    assert gate.check_staircase(cli, argv, out_dir) == []
    _nudge_csv(os.path.join(out_dir, "fixed_point_001.csv"), row=100, factor=1.0 + 2**-52)
    try:
        failures = gate.check_staircase(cli, argv, out_dir)
    finally:
        _cli(argv)
    assert failures == ["path 1: Picard iterate differs from the staircase"]


def test_run_gate_counts_each_failed_call_once(probe, tmp_path):
    key, argv, stdout = probe["picard_ensemble"]
    out_dir = argv[argv.index("--out") + 1]
    record = {"call": "probe:" + key, "argv": argv, "rc": 0, "stdout": stdout,
              "out_dir": out_dir}
    calls = type("Calls", (), {})()
    calls.records = [
        dict(record, rep="probe"),
        dict(record, rep=0, call=key),
        # a later repetition that reports a nonzero residual and lost a file
        dict(record, rep=1, call=key, stdout=stdout.replace("residual 0,", "residual 2,"),
             out_dir=str(tmp_path)),
    ]
    reference = REFERENCE["picard_ensemble"]
    failures = run.run_gate(gate, cli, calls, reference)
    assert list(failures) == [(1, key)]
    assert len(failures[(1, key)]) == 2

"""The span recorder and the layer table it is installed from."""

import contextlib
import io
import types

import numpy as np
import pytest

import layers
from tracer import Tracer
from workloads import write_configs


def test_nested_spans_have_parents_and_nonnegative_self_time():
    tracer = Tracer()

    def leaf(x):
        return sum(range(x))

    leaf_w = tracer.spanned(leaf, "leaf")

    def middle(x):
        return leaf_w(x) + leaf_w(x + 1)

    middle_w = tracer.spanned(middle, "middle")
    top = tracer.spanned(lambda: [middle_w(n) for n in range(50, 60)], "top")
    top()
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name_ix"]]
    assert names.count("top") == 1 and names.count("middle") == 10
    assert names.count("leaf") == 20
    assert a["parent"][0] == -1
    for i, name in enumerate(names):
        if name != "top":
            assert names[a["parent"][i]] == ("top" if name == "middle" else "middle")
    assert np.all(a["self_ns"] >= 0)
    # self times of all spans add up to the root's duration
    assert a["self_ns"].sum() == a["duration_ns"][0]


def test_recursive_name_counts_outermost_call_once():
    tracer = Tracer()
    ns = types.SimpleNamespace()

    def fact(n):
        return 1 if n <= 1 else n * ns.fact(n - 1)

    ns.fact = tracer.spanned(fact, "fact")
    assert ns.fact(5) == 120
    a = tracer.arrays()
    assert a["outer"].tolist() == [True, False, False, False, False]


def test_exception_closes_the_span():
    tracer = Tracer()
    boom = tracer.spanned(lambda: 1 / 0, "boom")
    with pytest.raises(ZeroDivisionError):
        boom()
    ok = tracer.spanned(lambda: 1, "ok")
    ok()
    a = tracer.arrays()
    assert a["parent"].tolist() == [-1, -1]
    assert np.all(a["duration_ns"] >= 0)


def test_wrap_here_reports_a_vanished_target():
    tracer = Tracer()
    module = types.ModuleType("fake")
    assert not tracer.wrap_here(module, "gone", lambda fn: fn)
    assert not tracer.wrap_everywhere(module, "gone", lambda fn: fn, "fake")


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    from stf_spde import cli, estimators, fixed_point, solver

    originals = {m: m.solve_frozen for m in (solver, cli, fixed_point, estimators)}
    tracer = Tracer()
    missing = layers.install(tracer)
    try:
        assert missing == set()
        for module, original in originals.items():
            assert module.solve_frozen is not original
            assert module.solve_frozen.__wrapped__ is original
        configs = write_configs("simulate_paths", str(tmp_path / "configs"))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["simulate", "--config", configs["porous_sqrt_drift"],
                           "--out", str(tmp_path / "out"), "--paths", "1"])
    finally:
        tracer.uninstall()
    assert rc == 0
    for module, original in originals.items():
        assert module.solve_frozen is original
    a = tracer.arrays()
    assert a["self_ns"].min() >= 0
    spans = layers.Spans(tracer, 1, 1.0, 1.0, 0)
    values = layers.metrics(spans, missing)
    assert values["solver.solve_frozen.calls"] == 1
    assert values["fixed_point.staircase.calls"] == 1
    # one Newton solve per iteration, at least one iteration per porous step
    assert values["solver.newton_per_step"] >= 1
    assert values["grids.field.created"] > 0


def test_a_vanished_target_is_missing_and_its_metrics_are_none(monkeypatch):
    from stf_spde import solver

    monkeypatch.delattr(solver, "_newton_porous")
    tracer = Tracer()
    try:
        missing = layers.install(tracer)
    finally:
        tracer.uninstall()
    assert missing == {"solver._newton_porous"}
    values = layers.metrics(layers.Spans(tracer, 1, 1.0, 1.0, 0), missing)
    assert values["solver.newton_iteration.mean_us"] is None
    assert values["solver.newton_iterations"] == 0

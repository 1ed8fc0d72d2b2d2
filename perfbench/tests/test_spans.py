"""Self-time arithmetic and tracer wiring.

Run with: python3 -m pytest perfbench/tests
"""

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import pytest  # noqa: E402

from spans import Span, Tracer, layer_totals, self_times  # noqa: E402


def span(sid, parent, name, t0, t1, counts=None):
    s = Span(sid, parent, name, t0, thread=0)
    s.t1 = t1
    s.counts = counts
    return s


def test_self_time_subtracts_nested_children():
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 1, "leaf", 2.0, 3.0),
        span(3, 0, "b", 6.0, 7.5),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.5)


def test_overlapping_children_are_merged_and_clipped():
    # two parallel children overlap on [3, 4]; a third spills past the end
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "x", 1.0, 4.0),
        span(2, 0, "x", 3.0, 6.0),
        span(3, 0, "y", 9.0, 12.0),
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0 - 1.0)
    totals = layer_totals(spans)
    assert totals["x.self_s"] == pytest.approx(6.0)
    assert totals["y.self_s"] == pytest.approx(3.0)


def test_layer_totals_sum_counts_by_metric():
    spans = [
        span(0, None, "root", 0.0, 2.0, {"root.calls": 1}),
        span(1, 0, "leaf", 0.5, 1.0, {"leaf.points": 7, "leaf.hits": 1}),
        span(2, 0, "leaf", 1.0, 1.5, {"leaf.points": 5, "leaf.hits": 0}),
    ]
    totals = layer_totals(spans)
    assert totals["leaf.points"] == 12
    assert totals["leaf.hits"] == 1
    assert totals["root.calls"] == 1
    assert totals["root.self_s"] == pytest.approx(1.0)


def test_worker_thread_spans_nest_under_the_installing_thread():
    tracer = Tracer()
    tracer._home = tracer._stack()
    outer = tracer._open("outer")

    def work():
        tracer._close(tracer._open("inner"))

    t = threading.Thread(target=work)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    tracer._close(outer)
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent == outer.sid
    assert inner.thread != outer.thread


def test_install_wraps_every_binding_and_uninstall_restores():
    import shjlab
    import shjlab.cli
    import shjlab.valuefn
    import shjlab.viscosity

    original = shjlab.valuefn.value_V
    interp = shjlab.valuefn.BoxLattice.interp
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (shjlab, shjlab.cli, shjlab.valuefn, shjlab.viscosity):
            assert mod.value_V is not original
            assert mod.value_V.__wrapped__ is original
        assert shjlab.valuefn.BoxLattice.interp is not interp
        lat = shjlab.valuefn.BoxLattice.centered(1.0, 0.5)
        coeffs = shjlab.cli.scenario("eikonal")
        coeffs.beta(0.0, lat.points, coeffs.controls[0], None)
        vals, clamped = lat.interp(lat.points[:, 0:1] * 0 + 1.0,
                                   lat.points[:, None, :])
    finally:
        tracer.uninstall()
    assert shjlab.valuefn.value_V is original
    assert shjlab.cli.value_V is original
    assert shjlab.valuefn.BoxLattice.interp is interp
    totals = layer_totals(tracer.spans)
    assert totals["coeffs.eval.calls"] == 1
    assert totals["valuefn.BoxLattice.interp.points"] == vals.size
    assert totals["valuefn.BoxLattice.interp.clamped"] == clamped

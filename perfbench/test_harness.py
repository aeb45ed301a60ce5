"""Tests of the harness's own arithmetic.

Run: ``python3 -m pytest perfbench/test_harness.py`` from the repository root.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from harness import (  # noqa: E402
    TraceData,
    Tracer,
    generator_wrap,
    install,
    percentile,
    span_wrap,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_generator_wrapper_times_iteration_not_creation():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def make():
        clock.now += 100.0  # creating the iterator: must not be timed

        def steps():
            for i in range(3):
                clock.now += 1.0
                yield i
            clock.now += 0.5  # the step that finds the iterator exhausted

        return steps()

    wrapped = generator_wrap(tracer, "g", make)
    iterator = wrapped()
    assert tracer.data().summary() == {}  # nothing runs before the first next()
    assert list(iterator) == [0, 1, 2]
    row = tracer.data().summary()["g"]
    assert row["count"] == 4
    assert row["total"] == pytest.approx(3.5)
    assert tracer.counters["g.items"] == 3


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("outer")
    clock.now += 1.0
    inner = tracer.begin("inner")
    clock.now += 2.0
    leaf = tracer.begin("leaf")
    clock.now += 4.0
    tracer.end(leaf)
    tracer.end(inner)
    clock.now += 1.0
    inner = tracer.begin("inner")
    clock.now += 3.0
    tracer.end(inner)
    clock.now += 1.0
    tracer.end(outer)

    summary = tracer.data().summary()
    assert summary["outer"]["total"] == pytest.approx(12.0)
    # children of outer: inner (6) + inner (3); the leaf is a grandchild
    assert summary["outer"]["self"] == pytest.approx(3.0)
    assert summary["inner"]["count"] == 2
    assert summary["inner"]["total"] == pytest.approx(9.0)
    assert summary["inner"]["self"] == pytest.approx(5.0)
    assert summary["leaf"]["self"] == pytest.approx(4.0)


def test_span_wrap_closes_its_span_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 2.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        span_wrap(tracer, "boom", boom)()
    with tracer.span("after"):
        clock.now += 1.0
    summary = tracer.data().summary()
    assert summary["boom"]["total"] == pytest.approx(2.0)
    assert summary["after"]["self"] == pytest.approx(1.0)  # not a child of boom


def test_trace_round_trips_through_its_file(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("a"):
        clock.now += 1.0
        with tracer.span("b"):
            clock.now += 2.0
    tracer.count("n", 5)
    path = str(tmp_path / "trace.bin")
    tracer.dump(path)
    loaded = TraceData.load(path)
    assert loaded.summary() == tracer.data().summary()
    assert loaded.counters == {"n": 5}
    assert loaded.total_under("b", "a") == pytest.approx(2.0)
    assert loaded.total_under("a", "b") == 0.0


def test_percentile_refuses_p90_on_fewer_than_100_samples():
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(99)], 90)
    assert percentile([float(i) for i in range(100)], 90) == 89.0
    with pytest.raises(ValueError):
        percentile([float(i) for i in range(19)], 50)
    assert percentile([float(i) for i in range(20)], 50) == 9.0


def test_install_restores_every_patched_attribute():
    from repro.faurelog import evaluation
    from repro.solver.interface import ConditionSolver

    before = (evaluation.derive, ConditionSolver.__dict__["sat_verdict"])
    undo = install(Tracer())
    assert evaluation.derive is not before[0]
    undo()
    assert (evaluation.derive, ConditionSolver.__dict__["sat_verdict"]) == before

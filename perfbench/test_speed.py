"""Hand-worked cases for the speed probe's rescaling (speed.py).

Run with ``python3 -m pytest perfbench/test_speed.py``.
"""
import pytest

import speed


@pytest.fixture
def clock(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(speed.time, "perf_counter", lambda: now[0])
    return now


def test_half_speed_halves_the_scaled_time(clock):
    probe = speed.SpeedProbe()
    mark = probe.mark()
    clock[0] += 4.0
    # Two samples at half the reference speed; the probe itself took 1 s.
    probe.samples += [2 * speed.REF_PROBE_S, 2 * speed.REF_PROBE_S]
    probe.spent_s += 1.0
    assert probe.scaled(mark) == pytest.approx((4.0 - 1.0) / 2)


def test_interrupted_sample_weighs_next_to_nothing(clock):
    probe = speed.SpeedProbe()
    probe.samples.append(5 * speed.REF_PROBE_S)  # before the span: ignored
    mark = probe.mark()
    clock[0] += 2.0
    probe.samples += [speed.REF_PROBE_S, speed.REF_PROBE_S, 1e6 * speed.REF_PROBE_S]
    assert probe.scaled(mark) == pytest.approx(2.0 * (2 + 1e-6) / 3)


def test_span_without_samples_samples_after_it():
    probe = speed.SpeedProbe()
    mark = probe.mark()
    scaled = probe.scaled(mark)
    assert len(probe.samples) == speed.MIN_SAMPLES
    assert 0.0 <= scaled < 0.01

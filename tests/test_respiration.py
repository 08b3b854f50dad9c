import numpy as np
import pytest

from specklenav.detect import MarkerPose
from specklenav.geometry import Point3
from specklenav.respiration import (
    AlarmEvent,
    BreathSignal,
    EmptyStreamError,
    GateInterval,
    NonMonotoneTimeError,
    NoPeriodicityError,
    detect_breath_hold,
    estimate_period,
    extract_signal,
    motion_alarm,
    read_signal_csv,
    write_signal_csv,
)


def pose_at(t: float, z: float, x: float = 0.0) -> MarkerPose:
    return MarkerPose(center=Point3(x, 0.0, z),
                      normal=np.array([0.0, 0.0, -1.0]),
                      radius_mm=10.0, rms_residual_mm=0.2,
                      inlier_count=30, timestamp_s=t)


def sine_signal(duration_s: float = 16.0, rate_hz: float = 8.0,
                amplitude: float = 3.0, period: float = 4.0,
                noise_mm: float = 0.0, seed: int = 0,
                t0: float = 0.0) -> BreathSignal:
    t = np.arange(0.0, duration_s, 1.0 / rate_hz)
    d = amplitude * np.sin(2.0 * np.pi * t / period)
    if noise_mm > 0.0:
        d = d + np.random.default_rng(seed).normal(0.0, noise_mm, size=len(t))
    return BreathSignal(zip(t + t0, d))


def trapezoid_signal() -> BreathSignal:
    tt = np.arange(0.0, 10.0001, 0.25)
    dd = np.interp(tt, [0.0, 2.25, 2.5, 7.5, 7.75, 10.0],
                   [-40.0, 5.0, 10.0, 10.0, 5.0, -40.0])
    return BreathSignal(zip(tt, dd))


def test_extract_signal_projects_onto_the_reference_direction():
    poses = [pose_at(0.0, 400.0), pose_at(0.125, 402.5), pose_at(0.25, 399.0)]
    signal = extract_signal(poses, np.array([0.0, 0.0, 1.0]))
    assert signal.samples == [(0.0, 0.0), (0.125, 2.5), (0.25, -1.0)]


def test_extract_signal_normalises_the_reference():
    poses = [pose_at(0.0, 400.0), pose_at(0.5, 403.0)]
    a = extract_signal(poses, np.array([0.0, 0.0, 1.0]))
    b = extract_signal(poses, np.array([0.0, 0.0, 7.0]))
    assert a.samples == b.samples


def test_extract_signal_ignores_motion_across_the_reference():
    poses = [pose_at(0.0, 400.0, x=0.0), pose_at(0.5, 400.0, x=25.0)]
    signal = extract_signal(poses, np.array([0.0, 0.0, 1.0]))
    assert signal.samples[1][1] == 0.0


def test_extract_signal_error_paths():
    with pytest.raises(EmptyStreamError):
        extract_signal([pose_at(0.0, 400.0)], np.array([0.0, 0.0, 1.0]))
    poses = [pose_at(0.0, 400.0), pose_at(0.5, 401.0)]
    with pytest.raises(ValueError):
        extract_signal(poses, np.zeros(3))


def test_period_of_a_clean_sinusoid():
    period = estimate_period(sine_signal())
    assert abs(period - 4.0) <= 0.08  # within 2 percent


def test_period_of_a_noisy_sinusoid():
    periods = [estimate_period(sine_signal(noise_mm=0.3, seed=s)) for s in range(10)]
    assert all(abs(p - 4.0) <= 0.2 for p in periods)  # within 5 percent


def test_period_is_shift_invariant():
    assert estimate_period(sine_signal(t0=100.0)) == pytest.approx(
        estimate_period(sine_signal()), abs=1e-9)


def test_period_error_paths():
    flat = BreathSignal((float(i) / 8.0, 5.0) for i in range(64))
    with pytest.raises(NoPeriodicityError):
        estimate_period(flat)
    ramp = BreathSignal((float(i) / 8.0, 0.5 * i) for i in range(64))
    with pytest.raises(NoPeriodicityError):
        estimate_period(ramp)
    short = BreathSignal([(0.0, 0.0), (0.125, 1.0), (0.25, 0.0)])
    with pytest.raises(EmptyStreamError):
        estimate_period(short)


def test_breath_hold_gate_covers_the_plateau():
    gates = detect_breath_hold(trapezoid_signal(), amplitude_tol_mm=0.8,
                               min_duration_s=2.0)
    assert len(gates) == 1
    gate = gates[0]
    assert gate.start_s == 2.5
    assert gate.end_s == 7.5
    assert gate.mean_level_mm == pytest.approx(10.0)


def test_no_gate_in_a_free_breathing_sinusoid():
    gates = detect_breath_hold(sine_signal(), amplitude_tol_mm=0.8,
                               min_duration_s=2.0)
    assert gates == []


def test_wider_tolerance_never_shrinks_the_gates():
    signal = trapezoid_signal()
    tight = detect_breath_hold(signal, amplitude_tol_mm=0.8, min_duration_s=2.0)
    loose = detect_breath_hold(signal, amplitude_tol_mm=3.0, min_duration_s=2.0)
    span = sum(g.end_s - g.start_s for g in tight)
    assert sum(g.end_s - g.start_s for g in loose) >= span
    for g in tight:
        assert any(h.start_s <= g.start_s and h.end_s >= g.end_s for h in loose)


def test_hold_detector_rejects_bad_arguments():
    signal = trapezoid_signal()
    with pytest.raises(ValueError):
        detect_breath_hold(signal, amplitude_tol_mm=0.0, min_duration_s=2.0)
    with pytest.raises(ValueError):
        detect_breath_hold(signal, amplitude_tol_mm=0.8, min_duration_s=0.0)


def test_alarm_fires_on_the_step_sample():
    tt = np.arange(0.0, 10.0, 0.125)
    dd = np.where(tt < 5.0, 0.0, 8.0)
    events = motion_alarm(BreathSignal(zip(tt, dd)), threshold_mm=2.0)
    assert len(events) == 1
    assert events[0].t_s == 5.0
    assert events[0].displacement_mm == 8.0


def test_alarm_stays_quiet_on_slow_drift():
    tt = np.arange(0.0, 20.0, 0.125)
    events = motion_alarm(BreathSignal(zip(tt, 0.05 * tt)), threshold_mm=2.0)
    assert events == []


def test_alarm_rearms_after_recovery():
    tt = np.arange(0.0, 30.0, 0.125)
    dd = np.zeros_like(tt)
    dd[(tt >= 5.0) & (tt < 5.5)] = 8.0  # first jolt, then back to rest
    dd[tt >= 20.0] = -7.0  # second departure much later
    events = motion_alarm(BreathSignal(zip(tt, dd)), threshold_mm=2.0)
    assert [e.t_s for e in events] == [5.0, 20.0]


def test_alarms_stay_out_of_a_settled_hold():
    signal = trapezoid_signal()
    gates = detect_breath_hold(signal, amplitude_tol_mm=0.8, min_duration_s=2.0)
    events = motion_alarm(signal, threshold_mm=1.6, baseline_window_s=2.0)
    for gate in gates:
        for event in events:
            assert not (gate.start_s + 2.0 <= event.t_s <= gate.end_s)


def test_alarm_rejects_bad_threshold():
    with pytest.raises(ValueError):
        motion_alarm(trapezoid_signal(), threshold_mm=0.0)


def test_signal_append_validation():
    signal = BreathSignal([(0.0, 1.0)])
    with pytest.raises(NonMonotoneTimeError):
        signal.append(0.0, 2.0)
    with pytest.raises(NonMonotoneTimeError):
        signal.append(-1.0, 2.0)
    with pytest.raises(ValueError):
        signal.append(1.0, float("nan"))
    signal.append(1.0, 2.0)
    assert len(signal) == 2


def test_signal_snapshots_are_independent():
    signal = BreathSignal([(0.0, 1.0), (1.0, 2.0)])
    times, values = signal.arrays()
    times[0] = 99.0
    values[0] = 99.0
    assert signal.samples == [(0.0, 1.0), (1.0, 2.0)]


def test_gate_interval_validation_and_json():
    with pytest.raises(ValueError):
        GateInterval(start_s=2.0, end_s=2.0, mean_level_mm=0.0)
    doc = GateInterval(start_s=2.5, end_s=7.5, mean_level_mm=10.0).to_json_dict()
    assert doc == {"start_s": 2.5, "end_s": 7.5, "mean_level_mm": 10.0}
    assert AlarmEvent(5.0, 8.0).to_json_dict() == {"t_s": 5.0, "displacement_mm": 8.0}


def test_signal_csv_round_trip(tmp_path):
    signal = BreathSignal([(0.0, 0.0), (0.125, 2.5), (0.25, -1.0)])
    path = tmp_path / "signal.csv"
    write_signal_csv(path, signal)
    assert path.read_text().splitlines()[0] == "t_s,displacement_mm"
    got = read_signal_csv(path)
    assert got.samples == signal.samples


def test_signal_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,disp\n0,0\n")
    with pytest.raises(ValueError, match="header"):
        read_signal_csv(path)


# ---------------------------------------------------------------------------
# vectorized analysis against the per-sample loops it replaced


def loop_breath_hold(signal, amplitude_tol_mm, min_duration_s):
    """Reference: the original per-sample loop of detect_breath_hold."""
    times, values = signal.arrays()
    n = len(times)
    flat_spans = []
    j = 0
    for i in range(n):
        if j < i:
            j = i
        while j < n and times[j] - times[i] < min_duration_s:
            j += 1
        if j >= n:
            break
        window = values[i:j + 1]
        if np.max(np.abs(window - window.mean())) <= amplitude_tol_mm:
            flat_spans.append((float(times[i]), float(times[j])))
    gates = []
    for start, end in flat_spans:
        if gates and start <= gates[-1].end_s:
            start = gates[-1].start_s
            end = max(end, gates[-1].end_s)
            gates.pop()
        sel = (times >= start) & (times <= end)
        gates.append(GateInterval(start, end, float(values[sel].mean())))
    return gates


def loop_motion_alarm(signal, threshold_mm, baseline_window_s=2.0):
    """Reference: the original per-sample loop of motion_alarm."""
    times, values = signal.arrays()
    events = []
    armed = True
    lo = 0
    for i in range(len(times)):
        while times[lo] < times[i] - baseline_window_s:
            lo += 1
        prior = values[lo:i]
        baseline = float(np.median(prior)) if len(prior) else float(values[i])
        deviation = abs(float(values[i]) - baseline)
        if armed and deviation > threshold_mm:
            events.append(AlarmEvent(float(times[i]), float(values[i])))
            armed = False
        elif not armed and deviation <= threshold_mm:
            armed = True
    return events


def jittered_signal(seed: int, n: int = 1500) -> BreathSignal:
    """Non-uniformly sampled breathing with holds, steps and jolts."""
    rng = np.random.default_rng(seed)
    tt = 3.0 + np.cumsum(rng.uniform(0.01, 0.25, size=n))
    dd = 2.0 * np.sin(2.0 * np.pi * tt / rng.uniform(3.0, 5.0))
    for start in rng.uniform(tt[0], tt[-1], size=4):
        hold = (tt >= start) & (tt < start + rng.uniform(2.0, 8.0))
        dd[hold] = rng.uniform(-1.0, 3.0) + rng.normal(0.0, 0.05, size=hold.sum())
    for start in rng.uniform(tt[0], tt[-1], size=3):
        dd[(tt >= start) & (tt < start + 0.5)] += rng.uniform(5.0, 12.0)
    return BreathSignal(zip(tt, dd + rng.normal(0.0, 0.03, size=n)))


@pytest.mark.parametrize("seed", range(6))
def test_breath_hold_matches_the_loop_on_jittered_signals(seed):
    signal = jittered_signal(seed)
    for tol, duration in ((0.5, 2.5), (0.2, 1.0), (1.5, 4.0), (0.3, 0.05)):
        assert detect_breath_hold(signal, tol, duration) \
            == loop_breath_hold(signal, tol, duration)


@pytest.mark.parametrize("seed", range(6))
def test_motion_alarm_matches_the_loop_on_jittered_signals(seed):
    signal = jittered_signal(seed)
    for threshold, window in ((4.0, 2.0), (1.0, 0.7), (6.0, 5.0), (2.5, 0.05)):
        got = motion_alarm(signal, threshold, baseline_window_s=window)
        assert got == loop_motion_alarm(signal, threshold, window)


@pytest.mark.parametrize("step", [0.1, 0.25, 1.0 / 30.0, 0.07])
def test_window_bounds_match_the_loop_on_exact_durations(step):
    # Durations that are whole multiples of the step put window ends exactly
    # on min_duration_s, or one rounding error either side of it.
    tt = 1000.0 + step * np.arange(400)
    dd = np.where((tt > 1005.0) & (tt < 1015.0), 1.0, np.cos(tt))
    signal = BreathSignal(zip(tt, dd))
    for k in (3, 10, 21):
        duration = k * step
        assert detect_breath_hold(signal, 0.6, duration) \
            == loop_breath_hold(signal, 0.6, duration)
        assert motion_alarm(signal, 0.9, duration) == loop_motion_alarm(signal, 0.9, duration)


def test_alarm_on_the_first_sample_with_a_baseline_and_rearming():
    # Sample 0 is its own baseline and never alarms; sample 1 is armed from
    # the start, and every return inside the threshold re-arms.
    tt = np.arange(0.0, 6.0, 0.25)
    dd = np.zeros_like(tt)
    dd[1] = 9.0
    dd[8:10] = 9.0
    dd[16] = -9.0
    signal = BreathSignal(zip(tt, dd))
    events = motion_alarm(signal, threshold_mm=2.0, baseline_window_s=1.0)
    assert events == loop_motion_alarm(signal, 2.0, 1.0)
    assert [e.t_s for e in events] == [0.25, 2.0, 4.0]


def test_alarm_rejects_non_positive_baseline_window():
    signal = BreathSignal((0.1 * i, float(i % 3)) for i in range(20))
    for window in (-1.0, 0.0):
        with pytest.raises(ValueError, match="baseline_window_s"):
            motion_alarm(signal, threshold_mm=1.0, baseline_window_s=window)

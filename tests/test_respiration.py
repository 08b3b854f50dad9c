import csv

import numpy as np
import pytest

from specklenav.detect import MarkerPose
from specklenav import respiration
from specklenav.geometry import Point3
from specklenav.harness import _to_json
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
    write_signal_csv,
)


def sample_pairs(signal: BreathSignal) -> list[tuple[float, float]]:
    """The signal's (t_s, displacement_mm) pairs as Python floats."""
    times, values = signal.arrays()
    return list(zip(times.tolist(), values.tolist()))


def read_signal_csv(path) -> BreathSignal:
    """The signal that ``write_signal_csv`` wrote to ``path``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["t_s", "displacement_mm"]
        return BreathSignal((float(t), float(d)) for t, d in reader)


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
    assert sample_pairs(signal) == [(0.0, 0.0), (0.125, 2.5), (0.25, -1.0)]


def test_extract_signal_normalises_the_reference():
    poses = [pose_at(0.0, 400.0), pose_at(0.5, 403.0)]
    a = extract_signal(poses, np.array([0.0, 0.0, 1.0]))
    b = extract_signal(poses, np.array([0.0, 0.0, 7.0]))
    assert sample_pairs(a) == sample_pairs(b)


def test_extract_signal_ignores_motion_across_the_reference():
    poses = [pose_at(0.0, 400.0, x=0.0), pose_at(0.5, 400.0, x=25.0)]
    signal = extract_signal(poses, np.array([0.0, 0.0, 1.0]))
    assert sample_pairs(signal)[1][1] == 0.0


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


def test_signal_constructor_validation():
    with pytest.raises(NonMonotoneTimeError):
        BreathSignal([(0.0, 1.0), (0.0, 2.0)])
    with pytest.raises(NonMonotoneTimeError):
        BreathSignal([(0.0, 1.0), (-1.0, 2.0)])
    with pytest.raises(ValueError):
        BreathSignal([(0.0, 1.0), (1.0, float("nan"))])
    assert len(BreathSignal([(0.0, 1.0), (1.0, 2.0)])) == 2


def test_signal_snapshots_are_independent():
    signal = BreathSignal([(0.0, 1.0), (1.0, 2.0)])
    times, values = signal.arrays()
    times[0] = 99.0
    values[0] = 99.0
    assert sample_pairs(signal) == [(0.0, 1.0), (1.0, 2.0)]


def test_gate_interval_validation_and_json():
    with pytest.raises(ValueError):
        GateInterval(start_s=2.0, end_s=2.0, mean_level_mm=0.0)
    doc = _to_json(GateInterval(start_s=2.5, end_s=7.5, mean_level_mm=10.0))
    assert doc == {"start_s": 2.5, "end_s": 7.5, "mean_level_mm": 10.0}
    assert _to_json(AlarmEvent(5.0, 8.0)) == {"t_s": 5.0, "displacement_mm": 8.0}


def test_signal_csv_round_trip(tmp_path):
    signal = BreathSignal([(0.0, 0.0), (0.125, 2.5), (0.25, -1.0)])
    path = tmp_path / "signal.csv"
    write_signal_csv(path, signal)
    assert path.read_text().splitlines()[0] == "t_s,displacement_mm"
    got = read_signal_csv(path)
    assert sample_pairs(got) == sample_pairs(signal)


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


def test_long_sessions_match_the_loops():
    # 9,000 samples, over twice _BLOCK (4,096); at the low tolerance and
    # threshold the exact test runs over several of _window_blocks' blocks.
    signal = jittered_signal(3, n=9000)
    for tol, duration in ((0.5, 2.5), (0.3, 0.05)):
        gates = detect_breath_hold(signal, tol, duration)
        assert gates and gates == loop_breath_hold(signal, tol, duration)
    for threshold, window in ((4.0, 2.0), (1.0, 0.7)):
        events = motion_alarm(signal, threshold, baseline_window_s=window)
        assert events and events == loop_motion_alarm(signal, threshold, window)


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


# ---------------------------------------------------------------------------
# array storage, the partial lag scan and the batched projection against
# the per-sample code they replaced


def reference_estimate_period(signal):
    """Reference: estimate_period over the full correlation of all n lags."""
    times, values = signal.arrays()
    if len(times) < 4:
        raise EmptyStreamError("signal too short for period estimation")
    dt = float(np.mean(np.diff(times)))
    x = values - values.mean()
    power = float(x @ x)
    if power <= 0.0:
        raise NoPeriodicityError("signal is constant")

    n = len(x)
    raw = np.correlate(x, x, mode="full")[n - 1:]
    csum = np.concatenate(([0.0], np.cumsum(x * x)))
    lags = np.arange(n)
    head_energy = csum[n - lags]
    tail_energy = csum[n] - csum[lags]
    min_overlap = max(4, n // 8)
    usable = (n - lags) >= min_overlap
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(usable & (head_energy > 0.0) & (tail_energy > 0.0),
                       raw / np.sqrt(head_energy * tail_energy), -np.inf)

    below = np.nonzero(usable & (rho < 0.0))[0]
    if len(below) == 0:
        raise NoPeriodicityError("autocorrelation never leaves the main lobe")
    start = int(below[0])
    positive = np.nonzero(rho[start:] > 0.0)[0]
    if len(positive) == 0:
        raise NoPeriodicityError("no repeat structure past the main lobe")
    first = start + int(positive[0])
    closing = np.nonzero(rho[first:] < 0.0)[0]
    last = first + (int(closing[0]) if len(closing) else int(np.sum(usable)) - first)

    k = first + int(np.argmax(rho[first:last]))
    if rho[k] < 0.5:
        raise NoPeriodicityError(
            f"best repeat correlation {rho[k]:.3f} below 0.5")

    if 1 <= k < n - 1 and np.isfinite(rho[k - 1]) and np.isfinite(rho[k + 1]):
        y0, y1, y2 = rho[k - 1], rho[k], rho[k + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    return (k + shift) * dt


def period_outcome(estimate, signal):
    """The period's bits, or the type and message of what was raised."""
    try:
        return estimate(signal).hex()
    except (EmptyStreamError, NoPeriodicityError) as exc:
        return type(exc), str(exc)


def breathing(n: int, period_samples: float, seed: int = 0, noise: float = 0.05):
    rng = np.random.default_rng(seed)
    tt = 0.05 * np.arange(n) + rng.uniform(0.0, 0.01, size=n)
    dd = np.sin(2.0 * np.pi * np.arange(n) / period_samples)
    return BreathSignal(zip(tt, dd + rng.normal(0.0, noise, size=n)))


@pytest.mark.parametrize("seed", range(6))
def test_period_matches_the_full_correlation_on_jittered_signals(seed):
    for n in (40, 300, 1500, 4000):
        signal = jittered_signal(seed, n=n)
        assert period_outcome(estimate_period, signal) \
            == period_outcome(reference_estimate_period, signal)


@pytest.mark.parametrize("period_samples", [7.0, 31.5, 63.0, 64.0, 97.3, 150.0, 400.0])
def test_period_matches_the_full_correlation_across_lag_chunks(period_samples):
    # Repeats from a few lags to several hundred; the 63- and 64-sample
    # periods straddle the lag the chunked fill once stopped at.
    for seed in range(3):
        signal = breathing(int(6 * period_samples), period_samples, seed)
        got = period_outcome(estimate_period, signal)
        assert isinstance(got, str)
        assert got == period_outcome(reference_estimate_period, signal)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 33])
def test_period_matches_the_full_correlation_on_short_signals(n):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        tt = np.cumsum(rng.uniform(0.05, 0.2, size=n))
        shapes = (rng.normal(size=n), np.sin(2.0 * np.pi * tt / rng.uniform(0.3, 2.0)))
        for dd in shapes:
            signal = BreathSignal(zip(tt, dd))
            assert period_outcome(estimate_period, signal) \
                == period_outcome(reference_estimate_period, signal)


def test_period_when_the_repeat_region_runs_to_the_last_usable_lag():
    # 52 samples of a 40-sample repeat: the usable lags end at 46, inside the
    # first positive region past the main lobe, so no negative lag closes it.
    signal = breathing(52, 40.0, seed=3, noise=0.0)
    _, values = signal.arrays()
    x = values - values.mean()
    n = len(x)
    usable = n - max(4, n // 8) + 1
    rho = [np.dot(x[k:], x[:n - k]) for k in range(usable)]
    start = next(k for k in range(usable) if rho[k] < 0.0)
    first = next(k for k in range(start, usable) if rho[k] > 0.0)
    assert all(r >= 0.0 for r in rho[first:])
    got = period_outcome(estimate_period, signal)
    assert isinstance(got, str)
    assert got == period_outcome(reference_estimate_period, signal)


def test_period_computes_no_lag_past_the_one_closing_the_repeat_region(monkeypatch):
    signal = breathing(600, 40.0)
    _, values = signal.arrays()
    x = values - values.mean()
    n = len(x)
    rho = [np.dot(x[k:], x[:n - k]) for k in range(n - max(4, n // 8) + 1)]
    start = next(k for k, r in enumerate(rho) if r < 0.0)
    first = next(k for k in range(start, len(rho)) if rho[k] > 0.0)
    closing = next(k for k in range(first, len(rho)) if rho[k] < 0.0)
    calls = []
    dot = np.dot

    def counting(a, b):
        calls.append(len(a))
        return dot(a, b)

    monkeypatch.setattr(respiration.np, "dot", counting)
    estimate_period(signal)
    assert closing == 51
    assert calls == [n - k for k in range(closing + 1)]


@pytest.mark.parametrize("case, error, message", [
    ("three samples", EmptyStreamError, "signal too short for period estimation"),
    ("constant", NoPeriodicityError, "signal is constant"),
    ("four samples", NoPeriodicityError, "autocorrelation never leaves the main lobe"),
    ("ramp", NoPeriodicityError, "no repeat structure past the main lobe"),
    ("white noise", NoPeriodicityError, r"best repeat correlation 0\.\d{3} below 0\.5"),
])
def test_period_error_messages(case, error, message):
    tt = 0.125 * np.arange(256)
    dd = {"three samples": np.array([0.0, 1.0, 0.0]),
          "constant": np.full(256, 5.0),
          "four samples": np.array([0.0, 1.0, 3.0, 2.0]),
          "ramp": 0.5 * np.arange(256.0),
          "white noise": np.random.default_rng(4).normal(size=256)}[case]
    signal = BreathSignal(zip(tt, dd))
    with pytest.raises(error, match=f"^{message}$"):
        estimate_period(signal)
    with pytest.raises(error, match=f"^{message}$"):
        reference_estimate_period(signal)


def test_extract_signal_error_messages():
    with pytest.raises(EmptyStreamError, match="^need at least two poses$"):
        extract_signal([pose_at(0.0, 400.0)], np.array([0.0, 0.0, 1.0]))
    poses = [pose_at(0.0, 400.0), pose_at(0.5, 401.0)]
    for bad in (np.zeros(3), np.array([np.nan, 0.0, 1.0])):
        with pytest.raises(ValueError, match="non-zero finite"):
            extract_signal(poses, bad)
    with pytest.raises(NonMonotoneTimeError, match="^timestamp 0.5 not after 0.5$"):
        extract_signal(poses + [pose_at(0.5, 402.0)], np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("seed", range(4))
def test_extract_signal_matches_the_per_pose_dot(seed):
    rng = np.random.default_rng(seed)
    n = 2000
    tt = 10.0 + np.cumsum(rng.uniform(0.01, 0.1, size=n))
    centers = rng.normal([15.0, -8.0, 420.0], [3.0, 3.0, 40.0], size=(n, 3))
    poses = [MarkerPose(center=Point3(*c), normal=np.array([0.0, 0.0, -1.0]),
                        radius_mm=10.0, rms_residual_mm=0.1, inlier_count=50,
                        timestamp_s=t)
             for c, t in zip(centers, tt)]
    for reference in (rng.normal(size=3), np.array([0.0, 0.0, 3.0]), rng.normal(size=3) * 1e-3):
        normal = reference / np.linalg.norm(reference)
        origin = poses[0].center.as_array()
        expected = [(float(p.timestamp_s), float((p.center.as_array() - origin) @ normal))
                    for p in poses]
        assert sample_pairs(extract_signal(poses, reference)) == expected


def constructed(samples):
    """The type and message the constructor raises, or None."""
    try:
        BreathSignal(samples)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("fault, at", [
    (fault, at) for fault in ("nan time", "nan value", "inf time", "-inf value")
    for at in (0, 1, 5)] + [
    (fault, at) for fault in ("equal time", "earlier time") for at in (1, 5)])
def test_batch_constructor_raises_what_append_raises(fault, at):
    samples = [(0.25 * i, float(i % 3)) for i in range(8)]
    t, d = samples[at]
    prev = samples[at - 1][0] if at else 0.0
    samples[at] = {"nan time": (float("nan"), d), "nan value": (t, float("nan")),
                   "inf time": (float("inf"), d), "-inf value": (t, float("-inf")),
                   "equal time": (prev, d), "earlier time": (prev - 0.1, d)}[fault]
    # A later fault of the other kind must not win over the first one.
    samples[7] = (samples[6][0], float("nan"))
    # The error is the one a sample-by-sample check raises at the first fault.
    if fault in ("equal time", "earlier time"):
        expected = (NonMonotoneTimeError, f"timestamp {samples[at][0]} not after {prev}")
    else:
        expected = (ValueError, "samples must be finite")
    assert constructed(samples) == expected
    assert constructed(np.array(samples)) == expected


def test_batch_constructor_accepts_what_append_accepts():
    samples = [(0.1 * i, float(i) ** 0.5) for i in range(50)]
    assert constructed(samples) is None
    assert sample_pairs(BreathSignal(samples)) == samples
    assert sample_pairs(BreathSignal(np.array(samples))) == samples
    with pytest.raises(NonMonotoneTimeError, match="^timestamp 5.0 not after 5.0$"):
        BreathSignal(samples + [(5.0, 1.0), (5.0, 2.0)])
    assert sample_pairs(BreathSignal()) == []
    with pytest.raises(ValueError, match="pairs"):
        BreathSignal([(0.0, 1.0, 2.0)])


def test_signal_csv_round_trip_of_a_long_session(tmp_path):
    rng = np.random.default_rng(11)
    tt = np.cumsum(rng.uniform(0.02, 0.05, size=18_000))
    dd = 2.0 * np.sin(tt) + rng.normal(0.0, 0.03, size=len(tt))
    path = tmp_path / "signal.csv"
    write_signal_csv(path, BreathSignal(zip(tt, dd)))
    got = read_signal_csv(path)
    assert sample_pairs(got) == [(float(f"{t:.6f}"), float(f"{d:.6f}")) for t, d in zip(tt, dd)]
    again = tmp_path / "again.csv"
    write_signal_csv(again, got)
    assert again.read_bytes() == path.read_bytes()


def test_signal_csv_rejects_bad_rows(tmp_path):
    path = tmp_path / "back.csv"
    path.write_text("t_s,displacement_mm\n0.0,1.0\n0.5,1.0\n0.5,2.0\n")
    with pytest.raises(NonMonotoneTimeError, match="^timestamp 0.5 not after 0.5$"):
        read_signal_csv(path)


@pytest.mark.parametrize("block", [7, 1 << 10, 1 << 12])
def test_results_do_not_depend_on_the_block_size(monkeypatch, block):
    signal = jittered_signal(2, n=9000)
    expected = (detect_breath_hold(signal, 0.5, 2.5), motion_alarm(signal, 4.0),
                detect_breath_hold(signal, 0.3, 0.05), motion_alarm(signal, 2.5, 0.05))
    assert expected[0] and expected[1]
    monkeypatch.setattr(respiration, "_BLOCK", block)
    got = (detect_breath_hold(signal, 0.5, 2.5), motion_alarm(signal, 4.0),
           detect_breath_hold(signal, 0.3, 0.05), motion_alarm(signal, 2.5, 0.05))
    assert got == expected


# ---------------------------------------------------------------------------
# the min/max bound at its edges: every answer must be the exact test's


def counted_fallback_windows(monkeypatch) -> list[int]:
    """Patch _window_blocks to record how many windows take the exact test."""
    counted = []
    window_blocks = respiration._window_blocks

    def counting(values, starts, lengths):
        for block, rows in window_blocks(values, starts, lengths):
            counted.append(len(block))
            yield block, rows

    monkeypatch.setattr(respiration, "_window_blocks", counting)
    return counted


def binary_grid_signal(seed: int, n: int = 600) -> BreathSignal:
    """Irregular times, values on a 1/8 mm grid, so window sums are exact."""
    rng = np.random.default_rng(seed)
    tt = np.cumsum(rng.choice([0.125, 0.25, 0.375], size=n))
    dd = np.cumsum(rng.integers(-3, 4, size=n)) / 8.0
    return BreathSignal(zip(tt, dd))


@pytest.mark.parametrize("seed", range(4))
def test_alarm_deviations_of_exactly_the_threshold_from_min_or_max(seed):
    signal = binary_grid_signal(seed)
    times, values = signal.arrays()
    for threshold, window in ((0.25, 0.5), (0.5, 1.0), (0.875, 2.0), (1.5, 2.0)):
        ties = 0
        for i in range(len(times)):
            prior = values[(times >= times[i] - window) & (times < times[i])]
            if len(prior):
                ties += np.count_nonzero(
                    np.abs(values[i] - np.array([prior.min(), prior.max()])) == threshold)
        assert ties > 0
        assert motion_alarm(signal, threshold, window) \
            == loop_motion_alarm(signal, threshold, window)


@pytest.mark.parametrize("seed", range(4))
def test_hold_ranges_of_exactly_the_tolerance_or_twice_it(seed):
    signal = binary_grid_signal(seed)
    for tol in (0.125, 0.25, 0.375, 0.5, 0.75):
        for duration in (0.5, 1.0, 2.0):
            assert detect_breath_hold(signal, tol, duration) \
                == loop_breath_hold(signal, tol, duration)


def test_a_hold_window_whose_spread_is_exactly_the_tolerance():
    # Every 4-sample window holds one 1 among three 0s: mean 0.25, and the
    # 1 strays exactly 0.75 from it.
    tt = 0.25 * np.arange(40)
    signal = BreathSignal(zip(tt, (np.arange(40) % 4 == 3).astype(float)))
    gates = detect_breath_hold(signal, 0.75, 0.75)
    assert gates == loop_breath_hold(signal, 0.75, 0.75)
    assert [(g.start_s, g.end_s) for g in gates] == [(0.0, 9.75)]
    below = float(np.nextafter(0.75, 0.0))
    assert detect_breath_hold(signal, below, 0.75) == loop_breath_hold(signal, below, 0.75) == []


def test_hold_ranges_inside_the_margin_far_from_zero():
    # At 1e4 mm the margin is about 1e-5 mm, 1 % of the tolerance.  Ranges
    # within it of tol (or of 2 tol) are left to the exact test.
    tol = 1e-3
    rng = np.random.default_rng(5)
    n = 3000
    tt = np.cumsum(rng.uniform(0.05, 0.15, size=n))
    steps = rng.choice([0.0, 1.0, 2.0], size=n) * rng.choice(
        [tol, tol - 4e-6, tol + 4e-6, 2 * tol - 4e-6, 2 * tol + 4e-6], size=n)
    dd = 1e4 + np.where(rng.random(n) < 0.5, steps, 0.0)
    signal = BreathSignal(zip(tt, dd))
    margin = 1e-9 * (1.0 + 1e4 + 3 * tol)
    for duration in (0.3, 1.0):
        ranges = []
        for i in range(n):
            j = np.searchsorted(tt, tt[i] + duration)
            if j < n:
                ranges.append(np.ptp(dd[i:j + 1]))
        ranges = np.array(ranges)
        assert np.any((ranges > tol - margin) & (ranges <= tol))
        assert np.any((ranges > 2 * tol) & (ranges <= 2 * tol + 2 * margin))
        assert detect_breath_hold(signal, tol, duration) \
            == loop_breath_hold(signal, tol, duration)


def test_an_outlier_just_past_the_tolerance_breaks_the_hold_far_from_zero():
    # 200-sample windows at 1e4 mm, one sample 1.008e-3 mm high: its range is
    # within the margin of tol 1e-3, but the mean sits next to the base, so
    # the outlier strays 1.003e-3 mm from it and no window holding it is flat.
    tol = 1e-3
    dd = np.full(600, 1e4)
    dd[300] += 1.008e-3
    signal = BreathSignal(zip(0.01 * np.arange(600), dd))
    gates = detect_breath_hold(signal, tol, 1.99)
    assert gates == loop_breath_hold(signal, tol, 1.99)
    assert len(gates) == 2
    assert gates[0].end_s < 3.0 < gates[1].start_s


def test_every_window_undecided_takes_the_exact_test(monkeypatch):
    # Alternating 0 and 1 mm: every window's range is 1, too wide for
    # "flat" at tol 0.6 and too narrow for "not flat".  As an alarm signal
    # at threshold 0.6, every sample sees both values in its window, so the
    # min and max cannot place its median either.
    rng = np.random.default_rng(11)
    n = 500
    tt = np.cumsum(rng.uniform(0.1, 0.3, size=n))
    signal = BreathSignal(zip(tt, (np.arange(n) % 2).astype(float)))
    counted = counted_fallback_windows(monkeypatch)
    gates = detect_breath_hold(signal, 0.6, 1.0)
    assert gates == loop_breath_hold(signal, 0.6, 1.0)
    formed = np.count_nonzero(tt[-1] - tt >= 1.0)
    assert sum(counted) == formed
    counted.clear()
    events = motion_alarm(signal, 0.6, 2.0)
    assert events == loop_motion_alarm(signal, 0.6, 2.0)
    assert events
    # Sample 0 has no window and sample 1 sees only sample 0.
    assert sum(counted) == n - 2

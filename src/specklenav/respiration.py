"""Breathing analysis on top of tracked marker poses.

A session projects each detected marker center onto a fixed reference
direction (captured once at start), producing a scalar displacement curve.
From that curve we estimate the breathing period, find breath-hold windows
stable enough to gate treatment, and flag sudden motion that should
interrupt it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .detect import MarkerPose


class EmptyStreamError(ValueError):
    """Raised when fewer than two samples are available."""


class NonMonotoneTimeError(ValueError):
    """Raised when timestamps fail to increase strictly."""


class NoPeriodicityError(RuntimeError):
    """Raised when the autocorrelation shows no credible repeat."""


class BreathSignal:
    """Time series of (t_s, displacement_mm), strictly increasing in time.

    The samples live in two float arrays.  The constructor reads them once
    and validates them in one batch, raising for the first bad sample.
    Reads copy the underlying storage, so a snapshot never changes under
    the caller.
    """

    def __init__(self, samples: Iterable[tuple[float, float]] = ()) -> None:
        data = np.array(samples if isinstance(samples, np.ndarray) else list(samples),
                        dtype=float)
        if data.size == 0:
            data = data.reshape(0, 2)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ValueError("samples must be (t_s, displacement_mm) pairs")
        times, values = data.T.copy()
        _check_samples(times, values)
        self._times = times
        self._values = values

    def __len__(self) -> int:
        return len(self._times)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Snapshot of (times, displacements) as fresh arrays."""
        return self._times.copy(), self._values.copy()


def _check_samples(times: np.ndarray, values: np.ndarray) -> None:
    """Raise for the first sample that is not finite or not after the one before."""
    prev = np.concatenate(([-math.inf], times[:-1]))
    finite = np.isfinite(times) & np.isfinite(values)
    bad = np.nonzero(~finite | (times <= prev))[0]
    if len(bad) == 0:
        return
    i = int(bad[0])
    if not finite[i]:
        raise ValueError("samples must be finite")
    raise NonMonotoneTimeError(f"timestamp {float(times[i])} not after {float(prev[i])}")


@dataclass(frozen=True)
class GateInterval:
    """A stretch of signal flat enough to treat within."""

    start_s: float
    end_s: float
    mean_level_mm: float

    def __post_init__(self) -> None:
        if not self.end_s > self.start_s:
            raise ValueError("gate must have end > start")


@dataclass(frozen=True)
class AlarmEvent:
    t_s: float
    displacement_mm: float


def extract_signal(poses: Sequence[MarkerPose],
                   reference_normal: np.ndarray) -> BreathSignal:
    """Project marker centers onto a fixed direction, relative to the first.

    The reference direction is normalised here, so any non-zero vector works.
    """
    if len(poses) < 2:
        raise EmptyStreamError("need at least two poses")
    normal = np.asarray(reference_normal, dtype=float).reshape(3)
    norm = float(np.linalg.norm(normal))
    if norm == 0.0 or not np.all(np.isfinite(normal)):
        raise ValueError("reference_normal must be a non-zero finite vector")
    normal = normal / norm

    # One flat list of the poses' own floats; a tuple per pose would add n
    # small objects, and with them about 2 MB of peak memory on long sessions.
    rows = np.array([v for p in poses for v in (p.center.x, p.center.y, p.center.z,
                                                 p.timestamp_s)], dtype=float).reshape(-1, 4)
    d = rows[:, :3] - rows[0, :3]
    # A stack of 1x3 @ 3x1 products: the same dot as each pose's d @ normal.
    disp = np.matmul(d[:, None, :], normal[:, None])[:, 0, 0]
    return BreathSignal(np.column_stack((rows[:, 3], disp)))


# estimate_period fills this many lags between checks for the repeat region.
_LAG_CHUNK = 64


def estimate_period(signal: BreathSignal) -> float:
    """Dominant repeat time of the signal, in seconds.

    Autocorrelation of the mean-removed curve, normalised per lag by the
    energy of the two overlapping segments so the estimate stays near 1
    for a clean repeat no matter how short the record is.  (A plain
    normalisation shrinks linearly with overlap, which would drag the
    repeat peak of a two-period record to exactly the quality threshold.)
    The first positive-correlation region past the central lobe must peak
    at 0.5 or better; a parabola through the three surrounding lags then
    refines the answer below the sample spacing.  Assumes roughly uniform
    sampling.

    Lags are filled in order, in chunks, only until that first repeat
    region has closed, each with the same dot product a full correlation
    computes for it.  So the answer has the same bits as from all n lags,
    in O(n·P) time for a repeat P samples long instead of O(n²).
    """
    times, values = signal.arrays()
    if len(times) < 4:
        raise EmptyStreamError("signal too short for period estimation")
    dt = float(np.mean(np.diff(times)))
    x = values - values.mean()
    power = float(x @ x)
    if power <= 0.0:
        raise NoPeriodicityError("signal is constant")

    n = len(x)
    csum = np.concatenate(([0.0], np.cumsum(x * x)))
    min_overlap = max(4, n // 8)
    usable = n - min_overlap + 1          # lags k with n - k >= min_overlap
    rho = np.full(n, -np.inf)
    filled = 0
    region = None
    while region is None:
        lags = np.arange(filled, min(filled + _LAG_CHUNK, usable))
        raw = np.array([np.dot(x[k:], x[:n - k]) for k in lags])
        head_energy = csum[n - lags]          # first n-k samples
        tail_energy = csum[n] - csum[lags]    # last n-k samples
        with np.errstate(divide="ignore", invalid="ignore"):
            rho[lags] = np.where((head_energy > 0.0) & (tail_energy > 0.0),
                                 raw / np.sqrt(head_energy * tail_energy), -np.inf)
        filled += len(lags)
        region = _first_repeat_region(rho[:filled], complete=filled == usable)
    first, last = region

    # The repeat estimate is the best lag within that first region; later
    # regions sit at period multiples and must not win ties.
    k = first + int(np.argmax(rho[first:last]))
    if rho[k] < 0.5:
        raise NoPeriodicityError(
            f"best repeat correlation {rho[k]:.3f} below 0.5")

    # Parabolic refinement around the peak.
    if 1 <= k < n - 1 and np.isfinite(rho[k - 1]) and np.isfinite(rho[k + 1]):
        y0, y1, y2 = rho[k - 1], rho[k], rho[k + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    return (k + shift) * dt


def _first_repeat_region(rho: np.ndarray, complete: bool):
    """(first, last) lags of the first positive region past the main lobe.

    ``rho`` holds the usable lags from 0, all of them when ``complete``.
    Of a partial prefix the answer is None until the region has closed;
    of the complete set a missing lobe or region raises, and a region that
    never closes runs to the last usable lag.
    """
    # Step past the central lobe: first lag with negative correlation.
    below = np.nonzero(rho < 0.0)[0]
    if len(below) == 0:
        if complete:
            raise NoPeriodicityError("autocorrelation never leaves the main lobe")
        return None
    start = int(below[0])
    positive = np.nonzero(rho[start:] > 0.0)[0]
    if len(positive) == 0:
        if complete:
            raise NoPeriodicityError("no repeat structure past the main lobe")
        return None
    first = start + int(positive[0])
    closing = np.nonzero(rho[first:] < 0.0)[0]
    if len(closing):
        return first, first + int(closing[0])
    return (first, len(rho)) if complete else None


# detect_breath_hold and motion_alarm handle at most this many window starts,
# and this many window samples, at a time, so their temporaries stay small
# however long the session is.
_BLOCK = 1 << 12


def _index_blocks(n: int):
    """Consecutive blocks of sample indices covering range(n)."""
    for c in range(0, n, _BLOCK):
        yield np.arange(c, min(c + _BLOCK, n))


def _window_blocks(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Yield (positions, rows) with rows[k] = values[s:s + L] for s, L at positions[k].

    Windows are grouped by length and handed out in bounded blocks.  Each
    row is a contiguous copy, so a reduction along axis 1 sums in the same
    order as the same reduction over the 1-D slice.
    """
    for length in np.unique(lengths):
        positions = np.nonzero(lengths == length)[0]
        view = sliding_window_view(values, int(length))
        step = max(1, _BLOCK // max(int(length), 1))
        for b in range(0, len(positions), step):
            block = positions[b:b + step]
            yield block, view[starts[block]]


def detect_breath_hold(signal: BreathSignal, amplitude_tol_mm: float,
                       min_duration_s: float) -> list[GateInterval]:
    """Maximal intervals where every sliding window of the signal is flat.

    The window starting at sample i ends at the first sample j with
    t[j] - t[i] >= min_duration_s; windows that would run past the last
    sample are not formed.  A window is flat when no sample strays more
    than amplitude_tol_mm from the window mean.  Overlapping flat windows
    merge into one gate, whose level is the mean over the merged span.
    """
    if amplitude_tol_mm <= 0.0:
        raise ValueError("amplitude_tol_mm must be positive")
    if min_duration_s <= 0.0:
        raise ValueError("min_duration_s must be positive")
    times, values = signal.arrays()
    n = len(times)

    firsts = [np.zeros(0, dtype=np.intp)]
    lasts = [np.zeros(0, dtype=np.intp)]
    for first in _index_blocks(n):
        t0 = times[first]
        # searchsorted compares against t[i] + d, which rounds differently
        # from t[j] - t[i]; step each end until it meets the window rule.
        last = np.searchsorted(times, t0 + min_duration_s)
        while True:
            back = (last - 1 > first) & (times[last - 1] - t0 >= min_duration_s)
            ahead = (last < n) & (times[np.minimum(last, n - 1)] - t0 < min_duration_s)
            if not (back.any() or ahead.any()):
                break
            last += ahead.astype(int) - back.astype(int)
        formed = last < n
        first = first[formed]
        last = last[formed]
        flat = np.zeros(len(first), dtype=bool)
        for block, rows in _window_blocks(values, first, last - first + 1):
            spread = np.max(np.abs(rows - rows.mean(axis=1, keepdims=True)), axis=1)
            flat[block] = spread <= amplitude_tol_mm
        firsts.append(first[flat])
        lasts.append(last[flat])
    first = np.concatenate(firsts)
    last = np.concatenate(lasts)

    # A flat window joins the current gate when it starts at or before the
    # gate's end; window ends never decrease, so the gate ends where its
    # last window does.
    opens = np.ones(len(first), dtype=bool)
    opens[1:] = first[1:] > last[:-1]
    closes = np.ones(len(first), dtype=bool)
    closes[:-1] = opens[1:]
    return [GateInterval(float(times[i]), float(times[j]), float(values[i:j + 1].mean()))
            for i, j in zip(first[opens], last[closes])]


def motion_alarm(signal: BreathSignal, threshold_mm: float,
                 baseline_window_s: float = 2.0) -> list[AlarmEvent]:
    """Flag sudden departures from the recent baseline.

    The baseline at each sample is the median displacement over the
    preceding baseline_window_s (the sample's own value when no earlier
    sample falls in the window).  An alarm fires on the first sample whose
    deviation from baseline exceeds the threshold, then stays quiet until
    the signal comes back within the threshold.
    """
    if threshold_mm <= 0.0:
        raise ValueError("threshold_mm must be positive")
    if baseline_window_s <= 0.0:
        raise ValueError("baseline_window_s must be positive")
    times, values = signal.arrays()
    exceed = np.zeros(len(times), dtype=bool)
    for i in _index_blocks(len(times)):
        # The window of sample i is values[lo:i], lo the first sample with
        # t[lo] >= t[i] - baseline_window_s.
        lo = np.searchsorted(times, times[i] - baseline_window_s)
        baseline = values[i]
        for block, rows in _window_blocks(values, lo, i - lo):
            if rows.shape[1]:
                baseline[block] = np.median(rows, axis=1)
        exceed[i] = np.abs(values[i] - baseline) > threshold_mm
    # Sample 0 is armed; every later sample is armed exactly when the one
    # before it was within the threshold.
    fires = exceed.copy()
    fires[1:] &= ~exceed[:-1]
    return [AlarmEvent(float(times[i]), float(values[i])) for i in np.nonzero(fires)[0]]


def write_signal_csv(path, signal: BreathSignal) -> None:
    times, values = signal.arrays()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "displacement_mm"])
        for t, d in zip(times, values):
            writer.writerow([f"{t:.6f}", f"{d:.6f}"])

"""Breathing analysis on top of tracked marker poses.

A session projects each detected marker center onto a fixed reference
direction (captured once at start), producing a scalar displacement curve.
From that curve we estimate the breathing period, find breath-hold windows
stable enough to gate treatment, and flag sudden motion that should
interrupt it.
"""

from __future__ import annotations

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

    One walk fills the lags in order, each with the same dot product a
    full correlation computes for it, and stops at the lag that closes
    that first repeat region.  So the answer has the same bits as from
    all n lags, in O(n·P) time for a repeat P samples long, not O(n²).
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
    # The central lobe ends at start, the first negative lag; the region
    # runs from the next positive lag, first, to the next negative, last.
    start = first = None
    last = usable
    with np.errstate(divide="ignore", invalid="ignore"):
        for lag in range(usable):
            raw = np.dot(x[lag:], x[:n - lag])
            head_energy = csum[n - lag]           # first n-k samples
            tail_energy = csum[n] - csum[lag]     # last n-k samples
            if head_energy > 0.0 and tail_energy > 0.0:
                rho[lag] = raw / np.sqrt(head_energy * tail_energy)
            if start is None:
                start = lag if rho[lag] < 0.0 else None
            elif first is None:
                first = lag if rho[lag] > 0.0 else None
            elif rho[lag] < 0.0:
                last = lag
                break
    if start is None:
        raise NoPeriodicityError("autocorrelation never leaves the main lobe")
    if first is None:
        raise NoPeriodicityError("no repeat structure past the main lobe")

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


# _window_blocks hands out at most this many window samples at a time, so
# the exact test's temporaries stay small however long the session is.
_BLOCK = 1 << 12


def _window_blocks(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Yield (positions, rows) with rows[k] = values[s:s + L] for s, L at positions[k].

    Windows are grouped by length and handed out in bounded blocks.  Each
    row is a contiguous copy, so a reduction along axis 1 sums in the same
    order as the same reduction over the 1-D slice.
    """
    for length in np.unique(lengths):
        positions = np.nonzero(lengths == length)[0]
        view = sliding_window_view(values, int(length))
        step = max(1, _BLOCK // int(length))
        for b in range(0, len(positions), step):
            block = positions[b:b + step]
            yield block, view[starts[block]]


def _window_extremes(values: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """(min, max) of each values[lo[k]:hi[k]], and values[lo[k]] where lo[k] == hi[k].

    lo and hi are nondecreasing and hi[-1] < len(values).  One reduceat
    each over the interleaved bounds (lo0, hi0, lo1, hi1, ...) reads every
    window in place: the even segments are the windows, the odd ones the
    gaps between them, which are dropped.  reduceat gives values[lo[k]] for
    an empty segment.
    """
    if len(lo) == 0:
        return np.zeros(0), np.zeros(0)
    view = values[lo[0]:hi[-1] + 1]
    bounds = np.empty(2 * len(lo), dtype=np.intp)
    bounds[0::2] = lo - lo[0]
    bounds[1::2] = hi - lo[0]
    return (np.minimum.reduceat(view, bounds)[0::2],
            np.maximum.reduceat(view, bounds)[0::2])


# detect_breath_hold's margin covers the rounding of window means up to this
# many samples; longer windows always take the exact test.
_MARGIN_MAX_LEN = 10 ** 6


def detect_breath_hold(signal: BreathSignal, amplitude_tol_mm: float,
                       min_duration_s: float) -> list[GateInterval]:
    """Maximal intervals where every sliding window of the signal is flat.

    The window starting at sample i ends at the first sample j with
    t[j] - t[i] >= min_duration_s; windows that would run past the last
    sample are not formed.  A window is flat when no sample strays more
    than amplitude_tol_mm from the window mean.  Overlapping flat windows
    merge into one gate, whose level is the mean over the merged span.

    Each window's range r = fl(max - min) decides it where it can, with
    margin = 1e-9 * (1 + max(|min|, |max|)) for the rounding of the mean:
    a window is flat when r + margin <= amplitude_tol_mm, since no sample
    lies more than r from a mean between min and max, and not flat when
    0.5 * r - margin > amplitude_tol_mm, since some sample lies at least
    r / 2 from any mean.  Only the windows in between take the exact
    spread about the window mean, so every answer is the exact test's.
    """
    if amplitude_tol_mm <= 0.0:
        raise ValueError("amplitude_tol_mm must be positive")
    if min_duration_s <= 0.0:
        raise ValueError("min_duration_s must be positive")
    times, values = signal.arrays()
    n = len(times)

    # searchsorted compares against t[i] + d, which rounds differently from
    # t[j] - t[i]; step each end until it meets the window rule.
    first = np.arange(n)
    last = np.searchsorted(times, times + min_duration_s)
    while True:
        back = (last - 1 > first) & (times[last - 1] - times >= min_duration_s)
        ahead = (last < n) & (times[np.minimum(last, n - 1)] - times < min_duration_s)
        if not (back.any() or ahead.any()):
            break
        last += ahead.astype(int) - back.astype(int)
    formed = last < n
    first = first[formed]
    last = last[formed]
    # The window is values[first:last + 1]; reduceat takes no end index of
    # n, so it reads values[first:last] and values[last] joins after.
    low, high = _window_extremes(values, first, last)
    low = np.minimum(low, values[last])
    high = np.maximum(high, values[last])
    r = high - low
    # The margin, with u = 2**-53 and M = max(|min|, |max|): a float sum of
    # L samples errs by at most (L - 1) * u * L * M in any order (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 4.4), so
    # the window mean lies within e = (L + 1) * u * M of [min, max], and
    # each rounded deviation is at most (r + e)(1 + u).  For L <= 10**6,
    # e <= 1.2e-10 * M; with the rounding of r, of the deviations and of
    # r + margin, each a few u * M, it stays well under 1e-9 * M.  The "not
    # flat" side holds for any mean, so it needs only those roundings.  The
    # 1 covers values near zero.
    margin = 1e-9 * (1.0 + np.maximum(np.abs(low), np.abs(high)))
    flat = r + margin <= amplitude_tol_mm
    exact = np.nonzero((~flat & (0.5 * r - margin <= amplitude_tol_mm))
                       | (last - first >= _MARGIN_MAX_LEN))[0]
    for block, rows in _window_blocks(values, first[exact], (last - first + 1)[exact]):
        spread = np.max(np.abs(rows - rows.mean(axis=1, keepdims=True)), axis=1)
        flat[exact[block]] = spread <= amplitude_tol_mm
    first = first[flat]
    last = last[flat]

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

    The median lies between the window's min and max, and the rounded
    deviation v - m can only fall as m rises.  So a sample is within the
    threshold when v - min <= threshold and v - max >= -threshold, and
    exceeds it when v - max > threshold or v - min < -threshold.  Only the
    samples in between take the exact median, so every answer is the
    median's, with no margin.
    """
    if threshold_mm <= 0.0:
        raise ValueError("threshold_mm must be positive")
    if baseline_window_s <= 0.0:
        raise ValueError("baseline_window_s must be positive")
    times, values = signal.arrays()
    # The window of sample i is values[lo:i], lo the first sample with
    # t[lo] >= t[i] - baseline_window_s.  An empty one (lo == i) gives
    # values[i] as its min and max, the sample's own baseline.
    i = np.arange(len(times))
    lo = np.searchsorted(times, times - baseline_window_s)
    low, high = _window_extremes(values, lo, i)
    above_low = values - low
    above_high = values - high
    exceed = (above_high > threshold_mm) | (above_low < -threshold_mm)
    exact = np.nonzero(~exceed & ((above_low > threshold_mm)
                                  | (above_high < -threshold_mm)))[0]
    for block, rows in _window_blocks(values, lo[exact], (i - lo)[exact]):
        at = exact[block]
        exceed[at] = np.abs(values[at] - np.median(rows, axis=1)) > threshold_mm
    # Sample 0 is armed; every later sample is armed exactly when the one
    # before it was within the threshold.
    fires = exceed.copy()
    fires[1:] &= ~exceed[:-1]
    return [AlarmEvent(float(times[i]), float(values[i])) for i in np.nonzero(fires)[0]]


def write_signal_csv(path, signal: BreathSignal) -> None:
    """Write the signal as CSV rows t_s,displacement_mm at six decimal
    places, with the CRLF line ends of Python's csv writer."""
    np.savetxt(path, np.column_stack(signal.arrays()), fmt="%.6f", delimiter=",",
               newline="\r\n", header="t_s,displacement_mm", comments="")

"""Chain marker detections into the robot base frame and correct TCP targets.

The camera reports marker centers in its own frame.  Composing the hand-eye
transform with the robot flange pose moves those points into the base frame,
where they can be compared against what the robot actually reached.  The
residual mismatch is absorbed by a small per-axis affine correction fitted
from executed probe motions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .detect import MarkerPose
from .geometry import Point3, RigidTransform


class EmptyRecordsError(ValueError):
    """Raised when a correction fit is attempted with no execution records."""


@dataclass(frozen=True)
class TcpCorrection:
    """Per-axis affine map from camera-observed coordinates to robot commands.

    corrected = scale * observed + offset, independently per axis.  Scales are
    clamped to a narrow sanity band because a healthy calibration should need
    only a small touch-up; a fit that wants more than 10 % of scale indicates
    something upstream is broken.
    """

    scale: tuple[float, float, float]
    offset: tuple[float, float, float]
    fit_pair_count: int
    fit_rms: float

    def __post_init__(self) -> None:
        for axis, s in zip("xyz", self.scale):
            if not (0.9 <= s <= 1.1):
                raise ValueError(f"scale_{axis}={s!r} outside sanity band [0.9, 1.1]")
        if self.fit_rms < 0.0:
            raise ValueError("fit_rms must be non-negative")
        if self.fit_pair_count < 0:
            raise ValueError("fit_pair_count must be non-negative")


def marker_in_base(
    hand_eye: RigidTransform,
    flange_in_base: RigidTransform,
    marker_in_camera: MarkerPose,
) -> tuple[Point3, np.ndarray]:
    """Express a camera-frame marker detection in the robot base frame.

    ``hand_eye`` maps camera coordinates into the flange frame; the flange
    pose then lifts the result into the base frame.  Returns the transformed
    center and unit normal.
    """
    chain = flange_in_base.compose(hand_eye)
    center = chain.apply(marker_in_camera.center.as_array())
    normal = chain.rotate(marker_in_camera.normal)
    return Point3.from_array(center), normal


def apply_correction(correction: TcpCorrection, observed: np.ndarray) -> np.ndarray:
    """The corrected point of a (3,) observation, or the rows of an (n, 3) one."""
    return np.asarray(correction.scale) * observed + np.asarray(correction.offset)


def correction_rms(correction: TcpCorrection, observed: np.ndarray,
                   executed: np.ndarray) -> float:
    """RMS of the per-record 3-D error after applying the correction.

    ``observed`` and ``executed`` are (n, 3): row k is where the camera put
    probe k's target and where the robot ended up, both in the base frame.
    """
    if len(observed) == 0:
        raise EmptyRecordsError("no execution records")
    total = 0.0
    for err in apply_correction(correction, observed) - executed:
        total += float(np.linalg.norm(err)) ** 2
    return math.sqrt(total / len(observed))


def fit_tcp_correction(observed: np.ndarray, executed: np.ndarray) -> TcpCorrection:
    """Fit the per-axis affine correction from executed probe motions.

    ``observed`` and ``executed`` are (n, 3) as in ``correction_rms``.  With
    four or more records each axis gets an independent least-squares line
    executed = scale * observed + offset.  Fewer records cannot pin down a
    slope, so the scale stays at 1 and the offset is the mean of the
    observed-to-executed differences.
    """
    if len(observed) == 0:
        raise EmptyRecordsError("no execution records")

    if len(observed) >= 4:
        scales = []
        offsets = []
        # Each column is summed on its own: mean(axis=0) of an (n, 3) array
        # adds in another order once n >= 8, and moves the fitted bits.
        for x, y in zip(observed.T, executed.T):
            x_mean = float(x.mean())
            y_mean = float(y.mean())
            var = float(((x - x_mean) ** 2).sum())
            if var < 1e-12:
                # No spread along this axis: the slope is unidentifiable,
                # keep it at 1 and absorb everything into the offset.
                scale = 1.0
            else:
                scale = float(((x - x_mean) * (y - y_mean)).sum() / var)
            scales.append(scale)
            offsets.append(y_mean - scale * x_mean)
    else:
        scales = [1.0, 1.0, 1.0]
        offsets = (executed - observed).mean(axis=0).tolist()

    correction = TcpCorrection(tuple(scales), tuple(offsets),
                               fit_pair_count=len(observed), fit_rms=0.0)
    # Recompute through the public application path so the stored figure is
    # bitwise what a caller would measure on the training set.
    return replace(correction, fit_rms=correction_rms(correction, observed, executed))


def write_records(path, observed: np.ndarray, executed: np.ndarray) -> None:
    """Write the records as CSV rows obs_x..exec_z, millimetres at six
    decimal places, with the CRLF line ends of Python's csv writer."""
    np.savetxt(path, np.hstack([observed, executed]), fmt="%.6f", delimiter=",",
               newline="\r\n", header="obs_x,obs_y,obs_z,exec_x,exec_y,exec_z", comments="")

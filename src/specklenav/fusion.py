"""Chain marker detections into the robot base frame and correct TCP targets.

The camera reports marker centers in its own frame.  Composing the hand-eye
transform with the robot flange pose moves those points into the base frame,
where they can be compared against what the robot actually reached.  The
residual mismatch is absorbed by a small per-axis affine correction fitted
from executed probe motions.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .detect import MarkerPose
from .geometry import Point3, RigidTransform


class EmptyRecordsError(ValueError):
    """Raised when a correction fit is attempted with no execution records."""


@dataclass(frozen=True)
class ExecutionRecord:
    """One probe motion: where the camera said the target was, where the robot ended up.

    Both points are expressed in the robot base frame, millimetres.
    """

    camera_observed: Point3
    robot_executed: Point3


@dataclass(frozen=True)
class TcpCorrection:
    """Per-axis affine map from camera-observed coordinates to robot commands.

    corrected = scale * observed + offset, independently per axis.  Scales are
    clamped to a narrow sanity band because a healthy calibration should need
    only a small touch-up; a fit that wants more than 10 % of scale indicates
    something upstream is broken.
    """

    scale_x: float
    scale_y: float
    scale_z: float
    offset_x: float
    offset_y: float
    offset_z: float
    fit_pair_count: int
    fit_rms: float

    def __post_init__(self) -> None:
        for name in ("scale_x", "scale_y", "scale_z"):
            s = getattr(self, name)
            if not (0.9 <= s <= 1.1):
                raise ValueError(f"{name}={s!r} outside sanity band [0.9, 1.1]")
        if self.fit_rms < 0.0:
            raise ValueError("fit_rms must be non-negative")
        if self.fit_pair_count < 0:
            raise ValueError("fit_pair_count must be non-negative")

    def to_json_dict(self) -> dict:
        return {
            "scale": [self.scale_x, self.scale_y, self.scale_z],
            "offset": [self.offset_x, self.offset_y, self.offset_z],
            "fit_pair_count": self.fit_pair_count,
            "fit_rms": self.fit_rms,
        }


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


def apply_correction(correction: TcpCorrection, observed: Point3) -> Point3:
    return Point3(
        correction.scale_x * observed.x + correction.offset_x,
        correction.scale_y * observed.y + correction.offset_y,
        correction.scale_z * observed.z + correction.offset_z,
    )


def correction_rms(correction: TcpCorrection,
                   records: Sequence[ExecutionRecord]) -> float:
    """RMS of the per-record 3-D error after applying the correction."""
    if not records:
        raise EmptyRecordsError("no execution records")
    total = 0.0
    for rec in records:
        corrected = apply_correction(correction, rec.camera_observed)
        total += corrected.distance_to(rec.robot_executed) ** 2
    return math.sqrt(total / len(records))


def fit_tcp_correction(records: Sequence[ExecutionRecord]) -> TcpCorrection:
    """Fit the per-axis affine correction from executed probe motions.

    With four or more records each axis gets an independent least-squares
    line executed = scale * observed + offset.  Fewer records cannot pin
    down a slope, so the scale stays at 1 and the offset is the mean of the
    observed-to-executed differences.
    """
    records = list(records)
    if not records:
        raise EmptyRecordsError("no execution records")

    obs = np.array([rec.camera_observed.as_array() for rec in records])
    exe = np.array([rec.robot_executed.as_array() for rec in records])

    if len(records) >= 4:
        scales = []
        offsets = []
        for axis in range(3):
            x = obs[:, axis]
            y = exe[:, axis]
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
        mean_diff = (exe - obs).mean(axis=0)
        offsets = [float(v) for v in mean_diff]

    correction = TcpCorrection(
        scales[0], scales[1], scales[2],
        offsets[0], offsets[1], offsets[2],
        fit_pair_count=len(records),
        fit_rms=0.0,
    )
    # Recompute through the public application path so the stored figure is
    # bitwise what a caller would measure on the training set.
    return replace(correction, fit_rms=correction_rms(correction, records))


_CSV_HEADER = ["obs_x", "obs_y", "obs_z", "exec_x", "exec_y", "exec_z"]


def write_records(path, records: Iterable[ExecutionRecord]) -> None:
    """Write execution records as CSV, millimetres at six decimal places."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for rec in records:
            row = [*rec.camera_observed.as_array(), *rec.robot_executed.as_array()]
            writer.writerow([f"{v:.6f}" for v in row])


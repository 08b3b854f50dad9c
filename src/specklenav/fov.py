"""Observation-pyramid sizing and line-of-sight checks.

The structured-light camera sees a rectangle that grows with distance.
These helpers answer the placement questions that come up when parking the
camera over a surgical site: how close can the camera get while still
covering a required rectangle, and is a given target actually visible past
the equipment in the way.  The view at a given standoff is
``CameraModel.field_of_view``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .camera import CameraModel, RangeClampWarning
from .geometry import Box, Point3, RigidTransform


@dataclass(frozen=True)
class VisibilityResult:
    visible: bool
    reason: str  # "visible" | "outside_frustum" | "occluded"


@dataclass(frozen=True)
class AccuracyEstimate:
    """Coarse 1-5 % sizing band for expected accuracy over a working volume.

    The note records that this envelope is far looser than the camera's own
    depth-noise column, which stays below a millimetre across the table.
    Both views are kept: the band for early sizing, the noise table for
    simulation.
    """

    low_mm: float
    high_mm: float
    note: str = ("rule-of-thumb band (1-5 % of the observation-space edge); "
                 "the depth-noise table is sub-millimetre over its range and "
                 "should be preferred for quantitative work")


def observation_rectangle_fit(camera: CameraModel, rect_x_mm: float,
                              rect_y_mm: float) -> float | None:
    """Smallest standoff whose view covers a rect_x by rect_y rectangle.

    Returns None when the rectangle exceeds the view even at the far knot.
    The feasibility boundary is located by bisection on the monotone
    interpolant, run down to adjacent floats so knot-exact rectangles map
    back to their knot distance exactly.
    """
    if rect_x_mm <= 0.0 or rect_y_mm <= 0.0:
        raise ValueError("rectangle dimensions must be positive")

    def feasible(d: float) -> bool:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RangeClampWarning)
            fx, fy = camera.field_of_view(d)
        return fx >= rect_x_mm and fy >= rect_y_mm

    lo = camera.near_mm
    hi = camera.far_mm
    if feasible(lo):
        return lo
    if not feasible(hi):
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def blind_spot_check(camera_pose: RigidTransform, camera: CameraModel,
                     occluders: list[Box], target: Point3) -> VisibilityResult:
    """Can the camera at camera_pose actually see the target point?

    Visible means the target lies in the camera's frustum
    (``CameraModel.contains``) and no occluder box cuts the straight line
    of sight.
    """
    target_w = target.as_array()
    if not camera.contains(camera_pose.invert().apply(target_w))[0]:
        return VisibilityResult(False, "outside_frustum")

    origin = camera_pose.t.reshape(1, 3)
    end = target_w.reshape(1, 3)
    for box in occluders:
        hit, _ = box.segment_intersections(origin, end)
        if bool(hit[0]):
            return VisibilityResult(False, "occluded")
    return VisibilityResult(True, "visible")


def accuracy_estimate(observation_space_extent_mm: float) -> AccuracyEstimate:
    """1-5 % rule of thumb applied to an observation-space edge length."""
    if observation_space_extent_mm <= 0.0:
        raise ValueError("observation space extent must be positive")
    return AccuracyEstimate(
        low_mm=0.01 * observation_space_extent_mm,
        high_mm=0.05 * observation_space_extent_mm,
    )

"""Structured-light depth camera model.

The camera is characterized by a working-range table measured on the
bench: for a set of standoff distances it records the field of view,
the depth repeatability (one sigma along the optical axis) and the
lateral pixel footprint.  Values between knots are linearly
interpolated; queries outside the calibrated range clamp to the
nearest knot and emit a RangeClampWarning.
"""
from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, field

import numpy as np

from .geometry import RigidTransform, numbers_from_json


class RangeClampWarning(UserWarning):
    """Raised via warnings.warn when a query leaves the calibrated range."""


@dataclass(frozen=True)
class FovRow:
    """One calibrated working-range knot."""

    distance_mm: float
    fov_x_mm: float
    fov_y_mm: float
    sigma_z_mm: float
    pixel_size_mm: float

    def __post_init__(self):
        for name in ("distance_mm", "fov_x_mm", "fov_y_mm", "sigma_z_mm", "pixel_size_mm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"FovRow.{name} must be positive")

    def to_json_dict(self) -> list[float]:
        """The row's scenario form, ``[d, fx, fy, sigma_z, px]``."""
        return list(astuple(self))

    @classmethod
    def from_json_dict(cls, row) -> "FovRow":
        return cls(*numbers_from_json(row, 5, "a fov_table row"))


# Bench calibration of the reference camera over its 250..700 mm working range.
DEFAULT_FOV_TABLE: tuple[FovRow, ...] = (
    FovRow(250.0, 198.44, 129.20, 0.033, 0.106),
    FovRow(260.0, 202.37, 134.37, 0.036, 0.111),
    FovRow(380.0, 408.60, 270.68, 0.106, 0.223),
    FovRow(400.0, 435.37, 284.93, 0.117, 0.234),
    FovRow(500.0, 565.23, 356.16, 0.183, 0.293),
    FovRow(600.0, 658.27, 427.39, 0.264, 0.352),
    FovRow(700.0, 751.32, 498.63, 0.359, 0.410),
)

@dataclass(frozen=True)
class CameraModel:
    """Depth camera: working-range table, mount pose and noise behaviour.

    ``mount_pose`` maps camera coordinates into the parent frame (the
    scene frame when rendering).  The optical axis is +z, points in
    front of the camera have positive z in the camera frame.  Lateral
    noise scales off the axial sigma by ``lateral_sigma_factor``.
    """

    fov_table: tuple[FovRow, ...] = DEFAULT_FOV_TABLE
    mount_pose: RigidTransform = field(default_factory=RigidTransform.identity)
    lateral_sigma_factor: float = 1.8
    frame_rate: float = 10.0
    resolution: tuple[int, int] = (256, 192)

    def __post_init__(self):
        table = tuple(self.fov_table)
        if len(table) < 2:
            raise ValueError("fov_table needs at least two knots")
        d = [row.distance_mm for row in table]
        if any(b <= a for a, b in zip(d, d[1:])):
            raise ValueError("fov_table distances must be strictly increasing")
        if not (0.1 <= self.frame_rate <= 120.0):
            raise ValueError("frame_rate must be within [0.1, 120] fps")
        if self.lateral_sigma_factor <= 0:
            raise ValueError("lateral_sigma_factor must be positive")
        nx, ny = self.resolution
        if nx < 2 or ny < 2:
            raise ValueError("resolution must be at least 2x2")
        object.__setattr__(self, "fov_table", table)
        # Table arrays for np.interp, built once; not dataclass fields.
        object.__setattr__(self, "_knots_mm", np.array(d))
        object.__setattr__(self, "_columns", {
            name: np.array([getattr(row, name) for row in table])
            for name in ("fov_x_mm", "fov_y_mm", "sigma_z_mm", "pixel_size_mm")})

    @property
    def near_mm(self) -> float:
        return self.fov_table[0].distance_mm

    @property
    def far_mm(self) -> float:
        return self.fov_table[-1].distance_mm

    def lookup(self, distance_mm, names: tuple[str, ...]) -> tuple:
        """The ``FovRow`` columns ``names`` interpolated at a standoff distance,
        one value or array per name, after one range check and one clamp."""
        d = np.asarray(distance_mm, dtype=float)
        below = d < self.near_mm
        above = d > self.far_mm
        if np.any(below) or np.any(above):
            warnings.warn(
                f"distance outside calibrated range [{self.near_mm}, {self.far_mm}] mm, "
                "clamping to the nearest knot",
                RangeClampWarning,
                stacklevel=3,
            )
        d = np.clip(d, self.near_mm, self.far_mm)
        out = [np.interp(d, self._knots_mm, self._columns[name]) for name in names]
        return tuple(float(o) if o.ndim == 0 else o for o in out)

    def sigma_z(self, distance_mm):
        """Axial depth repeatability (mm, one sigma) at a standoff distance."""
        return self.lookup(distance_mm, ("sigma_z_mm",))[0]

    def field_of_view(self, distance_mm):
        """Image footprint (fov_x, fov_y) in mm at a standoff distance."""
        return self.lookup(distance_mm, ("fov_x_mm", "fov_y_mm"))

    def pixel_size(self, distance_mm):
        """Lateral size of one pixel (mm) at a standoff distance."""
        return self.lookup(distance_mm, ("pixel_size_mm",))[0]

    def contains(self, points_cam: np.ndarray) -> np.ndarray:
        """Frustum membership of camera-frame points (N, 3), vectorized:
        ``frustum_margin >= 0``.  A point is inside when its depth lies in
        [near, far] and its lateral offsets fit inside the interpolated
        field of view at that depth; a non-finite point never is."""
        return self.frustum_margin(np.atleast_2d(points_cam)) >= 0.0

    def frustum_margin(self, points_cam: np.ndarray) -> np.ndarray:
        """Signed slack (mm) of camera-frame points (..., 3) in the frustum.

        The smallest of z - near, far - z, fov_x/2 - |x| and fov_y/2 - |y|
        at the clamped depth, one value per point; NaN when a coordinate
        is NaN.
        """
        p = np.asarray(points_cam, dtype=float)
        z = p[..., 2]
        zc = np.clip(z, self.near_mm, self.far_mm)
        fx = np.interp(zc, self._knots_mm, self._columns["fov_x_mm"])
        fy = np.interp(zc, self._knots_mm, self._columns["fov_y_mm"])
        return np.minimum(np.minimum(z - self.near_mm, self.far_mm - z),
                          np.minimum(fx / 2.0 - np.abs(p[..., 0]),
                                     fy / 2.0 - np.abs(p[..., 1])))

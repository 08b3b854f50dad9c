"""Hand-eye calibration: solve AX = XB for the camera-on-flange transform.

Relative motions are formed the same way on both sides: for samples i
and j the A motion is flange_i^-1 * flange_j and the B motion is
target_i^-1 * target_j.  Under this pairing the B side of each sample
must be the pose of the camera expressed in the calibration target
frame, which is the inverse of a raw board-in-camera observation.
``sample_from_board_observation`` performs that inversion for callers
holding physical measurements.

The rotation is solved by log-map least squares over all motion pairs
(Park and Martin's formulation); the minimizing orthogonal matrix is
extracted with an SVD so two well-separated rotation axes suffice.
The translation follows from the stacked linear system
(I - R_A) t_X = t_A - R_X t_B.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .camera import CameraModel
from .geometry import (Aabb, RigidTransform, _quat_multiply, _quat_to_matrix,
                       line_angle_deg, pose_error)


class TooFewSamplesError(ValueError):
    """Fewer samples or planned poses than the problem needs."""


class InsufficientMotionError(RuntimeError):
    """Relative rotation axes are too close to parallel to solve AX = XB."""


class InfeasibleBoxError(RuntimeError):
    """The observation box does not fit the camera frustum at any standoff."""


class LengthMismatchError(ValueError):
    """Observed and reference corner lists differ in length (or are empty)."""


@dataclass(frozen=True)
class CalibrationSample:
    """One robot stop: flange pose in base, camera pose in the target frame.

    ``target_in_camera`` stores the B side of AX = XB.  With the
    same-form motion pairing used here it must hold the camera pose in
    the target frame (invert a board-in-camera estimate before storing;
    see ``sample_from_board_observation``).
    """

    flange_in_base: RigidTransform
    target_in_camera: RigidTransform


def sample_from_board_observation(flange_in_base: RigidTransform,
                                  board_in_camera: RigidTransform) -> CalibrationSample:
    """Build a sample from a raw board-in-camera observation."""
    return CalibrationSample(flange_in_base=flange_in_base,
                             target_in_camera=board_in_camera.invert())


@dataclass(frozen=True)
class HandEyeResult:
    """Solved camera-in-flange transform plus motion-pair residuals."""

    camera_in_flange: RigidTransform
    rotation_residual_deg: float
    translation_residual_mm: float
    sample_count: int
    solver: str = "park-martin"

    def __post_init__(self):
        if self.sample_count < 3:
            raise ValueError("a valid result needs at least 3 samples")
        if self.rotation_residual_deg < 0 or self.translation_residual_mm < 0:
            raise ValueError("residuals must be non-negative")

    def to_json_dict(self) -> dict:
        return {
            "camera_in_flange": self.camera_in_flange.to_json_dict(),
            "rotation_residual_deg": self.rotation_residual_deg,
            "translation_residual_mm": self.translation_residual_mm,
            "sample_count": self.sample_count,
            "solver": self.solver,
        }


@dataclass(frozen=True)
class ReprojectionStats:
    """Per-corner Euclidean offsets between observed and predicted corners."""

    mean_px: float
    std_px: float
    max_px: float
    per_corner_px: tuple[float, ...] = field(repr=False, default=())

    def passes_gate(self, threshold_px: float = 0.5) -> bool:
        """Static verification gate: the mean offset must stay below threshold."""
        return self.mean_px < threshold_px

    def to_json_dict(self) -> dict:
        return {"mean_px": self.mean_px, "std_px": self.std_px,
                "max_px": self.max_px, "corner_count": len(self.per_corner_px)}


def _relative_motions(samples: Sequence[CalibrationSample]):
    # Each sample is inverted once, not once per pair it starts.
    flange_inv = [s.flange_in_base.invert() for s in samples]
    target_inv = [s.target_in_camera.invert() for s in samples]
    for i, j in itertools.combinations(range(len(samples)), 2):
        yield (flange_inv[i].compose(samples[j].flange_in_base),
               target_inv[i].compose(samples[j].target_in_camera))


def _log_vector(transform: RigidTransform) -> np.ndarray:
    """Rotation log map: axis times angle in radians."""
    angle = math.radians(transform.rotation_angle_deg())
    return transform.rotation_axis() * angle


def _check_axis_spread(a_motions, min_separation_deg: float):
    axes = [m.rotation_axis() for m in a_motions
            if m.rotation_angle_deg() > 0.1]
    if len(axes) < 2:
        raise InsufficientMotionError("need at least two rotating relative motions")
    # Only the raising path needs the widest pair, for its message.
    if any(line_angle_deg(u, w) >= min_separation_deg
           for u, w in itertools.combinations(axes, 2)):
        return
    best = max(line_angle_deg(u, w) for u, w in itertools.combinations(axes, 2))
    if best < min_separation_deg:
        raise InsufficientMotionError(
            f"rotation axes span only {best:.2f} deg, "
            f"need {min_separation_deg} deg for a stable solution")


def solve_ax_xb(samples: Sequence[CalibrationSample],
                min_axis_separation_deg: float = 5.0) -> HandEyeResult:
    """Solve AX = XB over all sample pairs.

    Raises TooFewSamplesError below 3 samples and
    InsufficientMotionError when the relative rotation axes are within
    ``min_axis_separation_deg`` of a single line.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise TooFewSamplesError(f"hand-eye needs at least 3 samples, got {len(samples)}")
    motions = list(_relative_motions(samples))
    _check_axis_spread([a for a, _ in motions], min_axis_separation_deg)

    scatter = np.zeros((3, 3))
    for a, b in motions:
        alpha = _log_vector(a)
        beta = _log_vector(b)
        scatter += np.outer(beta, alpha)
    u_mat, _, vt = np.linalg.svd(scatter)
    d = np.sign(np.linalg.det(vt.T @ u_mat.T))
    if d == 0:
        raise InsufficientMotionError("degenerate motion scatter")
    rot_x = vt.T @ np.diag([1.0, 1.0, d]) @ u_mat.T

    rows = []
    rhs = []
    for a, b in motions:
        rows.append(np.eye(3) - a.rotation_matrix)
        rhs.append(a.t - rot_x @ b.t)
    lhs = np.vstack(rows)
    rhs = np.concatenate(rhs)
    t_x, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)

    x_hat = RigidTransform.from_matrix(rot_x, t_x)
    rot_sq = 0.0
    tr_sq = 0.0
    for a, b in motions:
        err = pose_error(a.compose(x_hat), x_hat.compose(b))
        rot_sq += err.rotation_error_deg ** 2
        tr_sq += err.translation_error_mm ** 2
    n = len(motions)
    return HandEyeResult(
        camera_in_flange=x_hat,
        rotation_residual_deg=math.sqrt(rot_sq / n),
        translation_residual_mm=math.sqrt(tr_sq / n),
        sample_count=len(samples),
    )


def reprojection_error(observed, reference) -> ReprojectionStats:
    """Corner offset statistics in pixels.

    ``observed`` and ``reference`` are (N, 2) pixel coordinates in
    matching order.  Raises LengthMismatchError when the lists differ
    in length or are empty.
    """
    obs = np.asarray(observed, dtype=float).reshape(-1, 2)
    ref = np.asarray(reference, dtype=float).reshape(-1, 2)
    if len(obs) == 0 or len(obs) != len(ref):
        raise LengthMismatchError(
            f"corner count mismatch: observed {len(obs)}, reference {len(ref)}")
    delta = obs - ref
    offsets = np.hypot(delta[:, 0], delta[:, 1])
    return ReprojectionStats(
        mean_px=float(np.mean(offsets)),
        std_px=float(np.std(offsets)),
        max_px=float(np.max(offsets)),
        per_corner_px=tuple(float(v) for v in offsets),
    )


def _feasible_standoffs(box: Aabb, camera: CameraModel) -> tuple[float, float]:
    """Standoff interval at which a head-on view keeps the box in frustum."""
    ex, ey, ez = box.extents
    d_min = camera.near_mm + ez / 2.0
    d_max = camera.far_mm - ez / 2.0
    if d_min > d_max:
        raise InfeasibleBoxError("box is deeper than the camera working range")
    grid = np.linspace(d_min, d_max, 1025)
    # Rounding can put grid[0] - ez/2 a hair below the near knot; clamp it
    # there, as the table lookup would, without a range warning.
    near_face = np.maximum(grid - ez / 2.0, camera.near_mm)
    fx, fy = camera.field_of_view(near_face)
    ok = (np.asarray(fx) >= ex) & (np.asarray(fy) >= ey)
    if not np.any(ok):
        raise InfeasibleBoxError(
            f"box extent {ex:.1f} x {ey:.1f} mm exceeds the field of view "
            "at every reachable standoff")
    feasible = grid[ok]
    return float(feasible[0]), float(feasible[-1])


def _view_vector(tilt_rad: float, azimuth_rad: float) -> np.ndarray:
    """Unit viewing direction of a camera tilted from straight down."""
    return np.array([math.sin(tilt_rad) * math.cos(azimuth_rad),
                     math.sin(tilt_rad) * math.sin(azimuth_rad),
                     -math.cos(tilt_rad)])


def _look_pose(target: np.ndarray, distance: float, tilt_rad: float,
               azimuth_rad: float, roll_rad: float) -> RigidTransform:
    """Camera pose looking at ``target`` from above with the given tilt."""
    view = _view_vector(tilt_rad, azimuth_rad)
    position = target - distance * view
    z_axis = view
    up = np.array([0.0, 1.0, 0.0]) if abs(z_axis[1]) < 0.9 else np.array([1.0, 0.0, 0.0])
    x_axis = np.cross(up, z_axis)
    x_axis /= np.linalg.norm(x_axis)
    y_axis = np.cross(z_axis, x_axis)
    x_roll = math.cos(roll_rad) * x_axis + math.sin(roll_rad) * y_axis
    y_roll = np.cross(z_axis, x_roll)
    rot = np.column_stack([x_roll, y_roll, z_axis])
    return RigidTransform.from_matrix(rot, position)


# The batched screen rounds differently from the per-candidate code in the
# last bits, so a decision this close to its threshold is taken again with
# the scalar code: a frustum margin within _MARGIN_EPS_MM of zero (per
# 1000 mm of coordinate size), a rotation angle within _ANGLE_EPS_DEG of
# 2 * scale, and every score within _SCORE_EPS_DEG of the batch maximum.
# Measured batch errors: 2.3e-13 mm on corners, 1.5e-14 deg on angles and
# 6e-13 deg on scores above 0.01 deg.
_MARGIN_EPS_MM = 1e-9
_ANGLE_EPS_DEG = 1e-6
_SCORE_EPS_DEG = 1e-6
# acos magnifies the rounding of |u.w| near 1 (a score near 0 deg was off
# by 1.2e-6 deg): below this batch maximum every passing candidate is
# scored again.
_SCORE_FLOOR_DEG = 1e-2


@dataclass(frozen=True)
class _CandidateGrid:
    """The candidate rotations at one shrink scale, shared by every pose index
    and, through the cache of ``_candidate_grid``, by every call.

    Each row comes from the scalar code: ``q`` is the pose quaternion,
    ``view`` its viewing direction, ``rot_t`` the matrix ``invert`` uses
    for the translation and ``rot_apply`` the inverse pose's rotation.
    """

    q: np.ndarray
    view: np.ndarray
    rot_t: np.ndarray
    rot_apply: np.ndarray


def _candidate_orientations(tilt_range_deg: float) -> tuple[tuple[float, float, float], ...]:
    """Fixed grid of (tilt, azimuth, roll) viewing orientations, in radians."""
    golden = math.pi * (3.0 - math.sqrt(5.0))
    candidates = []
    for i_t in range(1, 5):
        tilt = math.radians(tilt_range_deg) * i_t / 4.0
        for i_a in range(10):
            azimuth = (i_a * golden) % (2.0 * math.pi)
            for roll_deg in (-25.0, -10.0, 0.0, 10.0, 25.0):
                candidates.append((tilt, azimuth, math.radians(roll_deg)))
    return tuple(candidates)


@functools.lru_cache(maxsize=64)
def _candidate_grid(tilt_range_deg: float, shrink: int) -> _CandidateGrid:
    """The grid at scale 0.7**shrink, built once per key; arrays are read-only."""
    scale = 0.7 ** shrink
    rows = []
    conjugate = np.array([1.0, -1.0, -1.0, -1.0])
    for tilt, azimuth, roll in _candidate_orientations(tilt_range_deg):
        pose = _look_pose(np.zeros(3), 0.0, tilt * scale, azimuth, roll * scale)
        rows.append((pose.q, _view_vector(tilt * scale, azimuth),
                     _quat_to_matrix(pose.q * conjugate),
                     pose.invert().rotation_matrix))
    columns = [np.array(column) for column in zip(*rows)]
    for column in columns:
        column.flags.writeable = False
    return _CandidateGrid(*columns)


def plan_poses(observation_box: Aabb, count: int, tilt_range_deg: float,
               camera: CameraModel | None = None,
               nominal_camera_in_flange: RigidTransform | None = None
               ) -> list[RigidTransform]:
    """Deterministic calibration poses that keep the box in view.

    Standoffs span the feasible slice of the camera working range;
    tilt magnitude, azimuth and roll vary per pose so the relative
    rotation axes stay well separated (at least 10 degrees pairwise for
    count <= 12).  Returned poses are flange poses assuming the camera
    sits at ``nominal_camera_in_flange`` (identity by default, in which
    case they are camera poses outright).

    Each pose screens the whole candidate grid in batch: frustum margin,
    rotation angle from the previous pose and axis score for every
    candidate at once.  Decisions within a small epsilon of their
    threshold, and the scores near the best, are taken again with the
    per-candidate scalar code, and the chosen pose is built by it, so
    the plan is the same to the bit as a candidate-by-candidate loop.
    The grid at each scale depends only on ``tilt_range_deg``, so it is
    built once and cached across calls.

    Raises TooFewSamplesError for count < 3, ValueError for a tilt
    range outside (0, 60] and InfeasibleBoxError when no standoff fits.
    """
    if count < 3:
        raise TooFewSamplesError(f"pose plan needs count >= 3, got {count}")
    if not (0.0 < tilt_range_deg <= 60.0):
        raise ValueError("tilt_range_deg must lie in (0, 60]")
    camera = camera if camera is not None else CameraModel()
    x_nom = (nominal_camera_in_flange if nominal_camera_in_flange is not None
             else RigidTransform.identity())

    d_lo, d_hi = _feasible_standoffs(observation_box, camera)
    center = observation_box.center
    corners = observation_box.corners()
    margin_eps = _MARGIN_EPS_MM * max(
        1.0, (float(np.abs(corners).max()) + camera.far_mm) / 1000.0)

    # Poses are chosen greedily from a fixed candidate grid so that each
    # consecutive relative rotation introduces an axis far from every axis
    # already used; ties resolve by grid order, which keeps the plan fully
    # deterministic.
    candidates = _candidate_orientations(tilt_range_deg)

    def scalar_pose(i: int, distance: float, scale: float) -> RigidTransform:
        tilt, azimuth, roll = candidates[i]
        return _look_pose(center, distance, tilt * scale, azimuth, roll * scale)

    cam_poses: list[RigidTransform] = []
    used_axes: list[np.ndarray] = []
    for k in range(count):
        distance = d_lo + (d_hi - d_lo) * (k + 0.5) / count
        prev_inv = cam_poses[-1].invert() if cam_poses else None
        best_pose = None
        best_axis = None
        # Near the short end of the standoff range a steep tilt can push a
        # box corner out of view; retry the whole grid at gentler angles.
        for shrink in range(12):
            scale = 0.7 ** shrink
            grid = _candidate_grid(tilt_range_deg, shrink)

            # Frustum margin of every candidate: positions as _look_pose
            # forms them, box corners moved into each camera frame.
            position = center - distance * grid.view
            t_inv = -np.einsum("nij,nj->ni", grid.rot_t, position)
            corners_cam = corners @ grid.rot_apply.transpose(0, 2, 1) + t_inv[:, None, :]
            margin = camera.frustum_margin(corners_cam).min(axis=1)
            passes = margin > margin_eps
            maybe = margin >= -margin_eps
            if prev_inv is not None:
                # Motion from the previous pose, prev^-1 * pose; its angle
                # does not depend on the quaternion's norm.
                motion_q = _quat_multiply(prev_inv.q, grid.q.T)
                v_norm = np.linalg.norm(motion_q[1:], axis=0)
                angle = np.degrees(2.0 * np.arctan2(v_norm, np.abs(motion_q[0])))
                passes &= angle > 2.0 * scale + _ANGLE_EPS_DEG
                maybe &= angle >= 2.0 * scale - _ANGLE_EPS_DEG
            for i in np.flatnonzero(maybe & ~passes):
                pose = scalar_pose(i, distance, scale)
                in_view = bool(np.all(camera.contains(pose.invert().apply(corners))))
                turns = prev_inv is None or not (
                    prev_inv.compose(pose).rotation_angle_deg() < 2.0 * scale)
                passes[i] = in_view and turns
            if not passes.any():
                continue
            if prev_inv is None:
                best_pose = scalar_pose(int(np.argmax(passes)), distance, scale)
                break

            # Score every passing candidate in batch, then score those near
            # the best again with the scalar code; strict > keeps the
            # first of equal scores in grid order.  With no axis used yet
            # every score is exactly 90.
            if used_axes:
                axis = np.divide(motion_q[1:], v_norm, out=np.zeros_like(motion_q[1:]),
                                 where=v_norm > 0.0)
                cos = np.minimum(np.abs(np.array(used_axes) @ axis), 1.0)
                score = np.degrees(np.arccos(cos)).min(axis=0)
            else:
                score = np.full(len(candidates), 90.0)
            top = score[passes].max()
            window = passes & ((score >= top - _SCORE_EPS_DEG) | (top < _SCORE_FLOOR_DEG))
            best_i, best_score = -1, -1.0
            for i in np.flatnonzero(window):
                score_i = 90.0
                if used_axes:
                    axis_i = prev_inv.compose(scalar_pose(i, distance, scale)).rotation_axis()
                    score_i = min(line_angle_deg(axis_i, a) for a in used_axes)
                if score_i > best_score:
                    best_i, best_score = i, score_i
            best_pose = scalar_pose(best_i, distance, scale)
            best_axis = prev_inv.compose(best_pose).rotation_axis()
            break
        if best_pose is None:
            raise InfeasibleBoxError(
                "no candidate orientation keeps the box inside the frustum")
        cam_poses.append(best_pose)
        if best_axis is not None:
            used_axes.append(best_axis)
    return [p.compose(x_nom.invert()) for p in cam_poses]

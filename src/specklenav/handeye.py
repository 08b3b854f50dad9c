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
(I - R_A) t_X = t_A - R_X t_B.  The solve runs on arrays: every pair's
motions, log vectors, rows and residuals come from one batched pass over
the samples' stacked quaternions and translations.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import CameraModel
from .geometry import Aabb, RigidTransform, _quat_multiply, _quat_to_matrix

# The reprojection gate: a calibration passes when the mean corner offset
# stays below this many pixels.
GATE_THRESHOLD_PX = 0.5
# The relative rotation axes of a solve must span at least this angle.
_MIN_AXIS_SEPARATION_DEG = 5.0
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ReprojectionStats:
    """Per-corner Euclidean offsets between observed and predicted corners."""

    mean_px: float
    std_px: float
    max_px: float

    def passes_gate(self, threshold_px: float = GATE_THRESHOLD_PX) -> bool:
        """Static verification gate: the mean offset must stay below threshold."""
        return self.mean_px < threshold_px


def _pair_motions(poses: Sequence[RigidTransform], i: np.ndarray, j: np.ndarray):
    """The motions pose_i^-1 * pose_j of the pairs (i, j): unit quaternions
    (4, m) signed as ``_quat_canonical`` signs them, rotation matrices
    (m, 3, 3) and translations (m, 3)."""
    q = np.array([p.q for p in poses]).T
    t = np.array([p.t for p in poses])
    inv_q = q[:, i] * _CONJUGATE[:, None]
    motion_q = _quat_multiply(inv_q, q[:, j])
    motion_q /= np.linalg.norm(motion_q, axis=0)
    # The first non-zero component is made positive, not just w: a half
    # turn has w == 0, and its log vector's sign rests on this rule.
    first = motion_q[np.argmax(motion_q != 0.0, axis=0), np.arange(len(i))]
    motion_q *= np.where(first < 0.0, -1.0, 1.0)
    motion_t = np.einsum("mij,mj->mi", _quat_to_matrix(inv_q).transpose(2, 0, 1), t[j] - t[i])
    return motion_q, _quat_to_matrix(motion_q).transpose(2, 0, 1), motion_t


def _log_map(q: np.ndarray):
    """Angles (m,) in radians and unit axes (3, m) of unit quaternions (4, m),
    the log map for canonical ones; the axis is +z where the vector part vanishes."""
    v_norm = np.linalg.norm(q[1:], axis=0)
    axes = np.divide(q[1:], v_norm, out=np.repeat([[0.0], [0.0], [1.0]], len(v_norm), axis=1),
                     where=v_norm >= 1e-15)
    return 2.0 * np.arctan2(v_norm, np.abs(q[0])), axes


def _check_axis_spread(axes: np.ndarray, angles: np.ndarray, min_separation_deg: float):
    """Raise unless two axes (3, m) of motions over 0.1 deg lie far enough apart."""
    axes = axes[:, np.degrees(angles) > 0.1]
    if axes.shape[1] < 2:
        raise InsufficientMotionError("need at least two rotating relative motions")
    cos = np.abs(axes.T @ axes)[np.triu_indices(axes.shape[1], 1)]
    best = math.degrees(math.acos(min(float(cos.min()), 1.0)))
    if best < min_separation_deg:
        raise InsufficientMotionError(
            f"rotation axes span only {best:.2f} deg, "
            f"need {min_separation_deg} deg for a stable solution")


def solve_ax_xb(samples: Sequence[CalibrationSample]) -> HandEyeResult:
    """Solve AX = XB over all sample pairs.

    Raises TooFewSamplesError below 3 samples and
    InsufficientMotionError when the relative rotation axes are within
    5 degrees of a single line.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise TooFewSamplesError(f"hand-eye needs at least 3 samples, got {len(samples)}")
    # Pairs in itertools.combinations order, so the stacked rows keep it.
    i, j = np.triu_indices(len(samples), 1)
    a_q, a_rot, a_t = _pair_motions([s.flange_in_base for s in samples], i, j)
    b_q, _, b_t = _pair_motions([s.target_in_camera for s in samples], i, j)
    (a_angle, a_axis), (b_angle, b_axis) = _log_map(a_q), _log_map(b_q)
    _check_axis_spread(a_axis, a_angle, _MIN_AXIS_SEPARATION_DEG)

    scatter = (b_axis * b_angle) @ (a_axis * a_angle).T
    u_mat, _, vt = np.linalg.svd(scatter)
    d = np.sign(np.linalg.det(vt.T @ u_mat.T))
    if d == 0:
        raise InsufficientMotionError("degenerate motion scatter")
    rot_x = vt.T @ np.diag([1.0, 1.0, d]) @ u_mat.T

    t_x, *_ = np.linalg.lstsq((np.eye(3) - a_rot).reshape(-1, 3),
                              (a_t - b_t @ rot_x.T).reshape(-1), rcond=None)

    # Residuals of A * X against X * B, as pose_error measures them.
    x_hat = RigidTransform.from_matrix(rot_x, t_x)
    rel = _quat_multiply(_quat_multiply(a_q, x_hat.q[:, None]) * _CONJUGATE[:, None],
                         _quat_multiply(x_hat.q[:, None], b_q))
    rot_deg = np.degrees(_log_map(rel)[0])
    tr_mm = np.linalg.norm(a_rot @ x_hat.t + a_t - (b_t @ x_hat.rotation_matrix.T + x_hat.t),
                           axis=1)
    return HandEyeResult(
        camera_in_flange=x_hat,
        rotation_residual_deg=math.sqrt(float(rot_deg @ rot_deg) / len(i)),
        translation_residual_mm=math.sqrt(float(tr_mm @ tr_mm) / len(i)),
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


@dataclass(frozen=True)
class _CandidateGrid:
    """The candidate rotations at one shrink scale, one row per candidate
    from ``_look_pose``: ``q`` is the pose quaternion, ``view`` its viewing
    direction and ``rot_apply`` the inverse pose's rotation.
    """

    q: np.ndarray
    view: np.ndarray
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
    for tilt, azimuth, roll in _candidate_orientations(tilt_range_deg):
        pose = _look_pose(np.zeros(3), 0.0, tilt * scale, azimuth, roll * scale)
        rows.append((pose.q, _view_vector(tilt * scale, azimuth),
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

    Standoffs span the feasible slice of the camera working range.  Each
    pose screens a fixed grid of candidate orientations (tilt, azimuth and
    roll) in one batched pass: a candidate must keep every box corner in
    view (``camera.contains``) and turn at least 2 * scale degrees from the
    previous pose, and the one whose motion axis lies farthest from every
    axis already used wins, the first in grid order on a tie.  The scale
    starts at 1; while no candidate passes, tilt and roll shrink by 0.7,
    up to 11 times.  Each scale's grid is cached across calls.  Returned
    poses are flange poses assuming the camera sits at
    ``nominal_camera_in_flange`` (identity by default, in which case they
    are camera poses outright).

    When every candidate keeps the box in view the frustum decides
    nothing; with a tilt range of at least 2 degrees and count <= 12 the
    consecutive motion axes then lie at least 10 degrees apart pairwise.
    A box that rules candidates out can leave a pose only axes already
    used, even at full scale, and then no separation is promised.

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
    candidates = _candidate_orientations(tilt_range_deg)

    cam_poses: list[RigidTransform] = []
    used_axes: list[np.ndarray] = []
    for k in range(count):
        distance = d_lo + (d_hi - d_lo) * (k + 0.5) / count
        prev_inv = cam_poses[-1].invert() if cam_poses else None
        # Near the short end of the standoff range a steep tilt can push a
        # box corner out of view; retry the whole grid at gentler angles.
        for shrink in range(12):
            scale = 0.7 ** shrink
            grid = _candidate_grid(tilt_range_deg, shrink)
            # Box corners in every candidate's camera frame, placed at the
            # position _look_pose gives it.
            position = center - distance * grid.view
            corners_cam = np.einsum("nij,nkj->nki", grid.rot_apply,
                                    corners - position[:, None, :])
            passes = camera.frustum_margin(corners_cam).min(axis=1) >= 0.0
            score = np.full(len(candidates), 90.0)
            if prev_inv is not None:
                # Motion from the previous pose, prev^-1 * pose; its angle
                # and axis do not depend on the quaternion's norm.
                angle, axis = _log_map(_quat_multiply(prev_inv.q, grid.q.T))
                passes &= np.degrees(angle) >= 2.0 * scale
                if used_axes:
                    cos = np.minimum(np.abs(np.array(used_axes) @ axis), 1.0)
                    score = np.degrees(np.arccos(cos)).min(axis=0)
            if passes.any():
                # argmax takes the first of equal scores, in grid order.
                tilt, azimuth, roll = candidates[int(np.argmax(np.where(passes, score, -1.0)))]
                best_pose = _look_pose(center, distance, tilt * scale, azimuth, roll * scale)
                break
        else:
            raise InfeasibleBoxError(
                "no candidate orientation keeps the box inside the frustum")
        if prev_inv is not None:
            used_axes.append(prev_inv.compose(best_pose).rotation_axis())
        cam_poses.append(best_pose)
    return [p.compose(x_nom.invert()) for p in cam_poses]

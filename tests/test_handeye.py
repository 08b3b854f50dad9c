import itertools
import math
import warnings

import numpy as np
import pytest

from specklenav.camera import CameraModel, RangeClampWarning
from specklenav.geometry import Aabb, RigidTransform, pose_error
from specklenav.handeye import (
    CalibrationSample,
    HandEyeResult,
    InfeasibleBoxError,
    InsufficientMotionError,
    LengthMismatchError,
    ReprojectionStats,
    TooFewSamplesError,
    plan_poses,
    reprojection_error,
    sample_from_board_observation,
    solve_ax_xb,
)

X_TRUE = RigidTransform.from_axis_angle((0.3, -0.5, 0.81), 11.0,
                                        translation=(35.0, -20.0, 80.0))
BOARD_IN_BASE = RigidTransform.from_axis_angle((0.0, 1.0, 0.0), 5.0,
                                               translation=(40.0, -30.0, 90.0))
GOLDEN = math.pi * (3.0 - math.sqrt(5.0))


def make_samples(count: int, rng: np.random.Generator | None = None,
                 noise_rot_deg: float = 0.0, noise_mm: float = 0.0):
    samples = []
    for i in range(count):
        standoff = 340.0 + 25.0 * (i % 3)
        tilt_deg = 10.0 + 35.0 * (i % 5) / 4.0
        az = i * GOLDEN
        flange = RigidTransform.from_axis_angle(
            (math.cos(az), math.sin(az), 0.4), tilt_deg,
            translation=(60.0 * math.cos(2 * az), 60.0 * math.sin(2 * az), standoff))
        board_in_camera = flange.compose(X_TRUE).invert().compose(BOARD_IN_BASE)
        if rng is not None and (noise_rot_deg > 0.0 or noise_mm > 0.0):
            axis = rng.normal(size=3)
            wobble = RigidTransform.from_axis_angle(
                axis, rng.normal(0.0, noise_rot_deg),
                translation=rng.normal(0.0, noise_mm, size=3))
            board_in_camera = board_in_camera.compose(wobble)
        samples.append(sample_from_board_observation(flange, board_in_camera))
    return samples


def test_noiseless_solve_is_exact():
    result = solve_ax_xb(make_samples(10))
    err = pose_error(result.camera_in_flange, X_TRUE)
    assert err.rotation_error_deg <= 1e-8
    assert err.translation_error_mm <= 1e-6
    assert result.rotation_residual_deg < 1e-8
    assert result.translation_residual_mm < 1e-6
    assert result.sample_count == 10
    assert result.solver == "park-martin"


def test_three_samples_suffice():
    result = solve_ax_xb(make_samples(3))
    err = pose_error(result.camera_in_flange, X_TRUE)
    assert err.translation_error_mm <= 1e-6


def test_sample_pairing_inverts_board_observation():
    flange = RigidTransform.rot_x(12.0, translation=(0.0, 0.0, 400.0))
    board_in_camera = RigidTransform.rot_y(4.0, translation=(10.0, 5.0, 300.0))
    sample = sample_from_board_observation(flange, board_in_camera)
    assert sample.target_in_camera.is_close(board_in_camera.invert(), tol=1e-12)


def test_noisy_solve_median_translation_error():
    errors = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        result = solve_ax_xb(make_samples(10, rng,
                                          noise_rot_deg=0.05, noise_mm=0.1))
        errors.append(pose_error(result.camera_in_flange, X_TRUE).translation_error_mm)
    assert float(np.median(errors)) < 0.3


def test_residuals_shrink_with_the_noise():
    levels = [0.2, 0.05, 0.0125]
    residuals = []
    for level in levels:
        rng = np.random.default_rng(99)
        result = solve_ax_xb(make_samples(10, rng,
                                          noise_rot_deg=level, noise_mm=2.0 * level))
        residuals.append(result.translation_residual_mm)
    assert residuals[0] > residuals[1] > residuals[2]
    # a 4x noise cut should buy roughly 4x smaller residuals
    assert residuals[0] > 2.0 * residuals[1]
    assert residuals[1] > 2.0 * residuals[2]


def test_too_few_samples():
    with pytest.raises(TooFewSamplesError):
        solve_ax_xb(make_samples(2))


def test_single_axis_motion_is_rejected():
    samples = []
    for i in range(6):
        flange = RigidTransform.from_axis_angle(
            (0.0, 0.0, 1.0), 8.0 * i, translation=(10.0 * i, 0.0, 400.0))
        board_in_camera = flange.compose(X_TRUE).invert().compose(BOARD_IN_BASE)
        samples.append(sample_from_board_observation(flange, board_in_camera))
    with pytest.raises(InsufficientMotionError):
        solve_ax_xb(samples)


def test_pure_translation_motion_is_rejected():
    samples = []
    for i in range(4):
        flange = RigidTransform.translation(20.0 * i, -10.0 * i, 400.0)
        board_in_camera = flange.compose(X_TRUE).invert().compose(BOARD_IN_BASE)
        samples.append(sample_from_board_observation(flange, board_in_camera))
    with pytest.raises(InsufficientMotionError):
        solve_ax_xb(samples)


def test_reprojection_stats_known_values():
    stats = reprojection_error([[0.0, 0.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]])
    assert stats.mean_px == pytest.approx(2.5)
    assert stats.std_px == pytest.approx(2.5)
    assert stats.max_px == pytest.approx(5.0)
    assert stats.per_corner_px == (0.0, 5.0)
    assert not stats.passes_gate()


def test_gate_is_strict_at_the_boundary():
    # hypot(0.3, 0.4) rounds to exactly 0.5, so a uniform (0.3, 0.4)
    # offset on every corner pins the mean at the gate threshold
    reference = np.zeros((4, 2))
    observed = np.tile([0.3, 0.4], (4, 1))
    stats = reprojection_error(observed, reference)
    assert stats.mean_px == 0.5
    assert stats.passes_gate(0.5) is False
    assert stats.passes_gate(0.5 + 1e-9) is True


def test_reprojection_length_mismatch():
    with pytest.raises(LengthMismatchError):
        reprojection_error([[0.0, 0.0]], [[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(LengthMismatchError):
        reprojection_error([], [])


def test_result_validation():
    with pytest.raises(ValueError):
        HandEyeResult(camera_in_flange=RigidTransform.identity(),
                      rotation_residual_deg=0.0, translation_residual_mm=0.0,
                      sample_count=2)
    with pytest.raises(ValueError):
        HandEyeResult(camera_in_flange=RigidTransform.identity(),
                      rotation_residual_deg=-0.1, translation_residual_mm=0.0,
                      sample_count=5)


def test_result_json_keys():
    doc = solve_ax_xb(make_samples(5)).to_json_dict()
    assert set(doc) == {"camera_in_flange", "rotation_residual_deg",
                        "translation_residual_mm", "sample_count", "solver"}


BOX = Aabb.from_center_extents((0.0, 0.0, 0.0), (90.0, 90.0, 24.0))


def test_plan_is_deterministic():
    a = plan_poses(BOX, 10, 22.0)
    b = plan_poses(BOX, 10, 22.0)
    assert len(a) == len(b) == 10
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.q, pb.q)
        assert np.array_equal(pa.t, pb.t)


def test_planned_poses_keep_the_box_in_view():
    camera = CameraModel()
    corners = BOX.corners()
    for pose in plan_poses(BOX, 10, 22.0, camera):
        assert bool(np.all(camera.contains(pose.invert().apply(corners))))


def test_planned_standoffs_spread_through_the_working_range():
    center = BOX.center
    depths = [float(pose.invert().apply(center)[2]) for pose in plan_poses(BOX, 10, 22.0)]
    assert min(depths) >= 250.0
    assert max(depths) <= 700.0
    assert max(depths) - min(depths) > 100.0


def test_planned_motion_axes_are_well_separated():
    poses = plan_poses(BOX, 10, 22.0)
    axes = []
    for prev, cur in zip(poses, poses[1:]):
        motion = prev.invert().compose(cur)
        assert motion.rotation_angle_deg() > 0.5
        axes.append(motion.rotation_axis())
    worst = min(
        math.degrees(math.acos(min(abs(float(u @ w)), 1.0)))
        for u, w in itertools.combinations(axes, 2))
    assert worst >= 10.0


def test_plan_feeds_a_clean_solve():
    flange_poses = plan_poses(BOX, 10, 22.0, nominal_camera_in_flange=X_TRUE)
    samples = []
    for flange in flange_poses:
        board_in_camera = flange.compose(X_TRUE).invert().compose(BOARD_IN_BASE)
        samples.append(sample_from_board_observation(flange, board_in_camera))
    result = solve_ax_xb(samples)
    assert pose_error(result.camera_in_flange, X_TRUE).translation_error_mm <= 1e-6


def test_nominal_offset_shifts_flange_poses():
    cam_poses = plan_poses(BOX, 6, 22.0)
    flange_poses = plan_poses(BOX, 6, 22.0, nominal_camera_in_flange=X_TRUE)
    for cam, flange in zip(cam_poses, flange_poses):
        err = pose_error(flange.compose(X_TRUE), cam)
        assert err.rotation_error_deg < 1e-9
        assert err.translation_error_mm < 1e-9


def test_plan_for_in_range_box_does_not_warn():
    # A 12.3 mm deep box puts the shallowest standoff a rounding error below
    # the near knot; the plan must not report that as a range clamp.
    box = Aabb.from_center_extents((-450.0, -340.0, -68.0), (60.0, 60.0, 12.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RangeClampWarning)
        poses = plan_poses(box, 8, 18.0)
    assert len(poses) == 8


def test_plan_rejects_bad_arguments():
    with pytest.raises(TooFewSamplesError):
        plan_poses(BOX, 2, 22.0)
    with pytest.raises(ValueError):
        plan_poses(BOX, 5, 0.0)
    with pytest.raises(ValueError):
        plan_poses(BOX, 5, 60.5)


def test_plan_rejects_an_oversized_box():
    wide = Aabb.from_center_extents((0.0, 0.0, 0.0), (1000.0, 1000.0, 24.0))
    with pytest.raises(InfeasibleBoxError):
        plan_poses(wide, 5, 22.0)
    deep = Aabb.from_center_extents((0.0, 0.0, 0.0), (10.0, 10.0, 500.0))
    with pytest.raises(InfeasibleBoxError):
        plan_poses(deep, 5, 22.0)


def test_reprojection_stats_json():
    doc = ReprojectionStats(mean_px=0.1, std_px=0.05, max_px=0.2,
                            per_corner_px=(0.1, 0.2)).to_json_dict()
    assert doc == {"mean_px": 0.1, "std_px": 0.05, "max_px": 0.2, "corner_count": 2}

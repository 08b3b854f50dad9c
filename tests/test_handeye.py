import itertools
import math
import warnings

import numpy as np
import pytest

from specklenav.camera import CameraModel, RangeClampWarning
from specklenav import handeye
from specklenav.geometry import Aabb, RigidTransform, pose_error
from specklenav.handeye import (
    CalibrationSample,
    HandEyeResult,
    InfeasibleBoxError,
    InsufficientMotionError,
    LengthMismatchError,
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


def _samples_at(flanges):
    return [sample_from_board_observation(
        flange, flange.compose(X_TRUE).invert().compose(BOARD_IN_BASE)) for flange in flanges]


def _single_axis_samples():
    return _samples_at([RigidTransform.from_axis_angle(
        (0.0, 0.0, 1.0), 8.0 * i, translation=(10.0 * i, 0.0, 400.0)) for i in range(6)])


def _pure_translation_samples():
    return _samples_at([RigidTransform.translation(20.0 * i, -10.0 * i, 400.0)
                        for i in range(4)])


def test_single_axis_motion_is_rejected():
    with pytest.raises(InsufficientMotionError):
        solve_ax_xb(_single_axis_samples())


def test_pure_translation_motion_is_rejected():
    with pytest.raises(InsufficientMotionError):
        solve_ax_xb(_pure_translation_samples())


def test_reprojection_stats_known_values():
    stats = reprojection_error([[0.0, 0.0], [3.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]])
    assert stats.mean_px == pytest.approx(2.5)
    assert stats.std_px == pytest.approx(2.5)
    assert stats.max_px == pytest.approx(5.0)
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


def _reference_axis_spread(a_motions, min_separation_deg):
    """The full pairwise scan the early-exit check replaced."""
    axes = [m.rotation_axis() for m in a_motions if m.rotation_angle_deg() > 0.1]
    if len(axes) < 2:
        raise InsufficientMotionError("need at least two rotating relative motions")
    best = 0.0
    for u, w in itertools.combinations(axes, 2):
        best = max(best, math.degrees(math.acos(min(abs(float(u @ w)), 1.0))))
    if best < min_separation_deg:
        raise InsufficientMotionError(
            f"rotation axes span only {best:.2f} deg, "
            f"need {min_separation_deg} deg for a stable solution")


def _batched_axis_spread(motions, min_separation_deg):
    angles, axes = handeye._log_map(np.array([m.q for m in motions]).T)
    handeye._check_axis_spread(axes, angles, min_separation_deg)


def test_axis_spread_check_matches_the_full_scan():
    rng = np.random.default_rng(11)
    outcomes = set()
    for trial in range(60):
        spread = (0.5, 3.0, 20.0)[trial % 3]
        base = rng.normal(size=3)
        motions = [RigidTransform.from_axis_angle(
            base + rng.normal(0.0, math.radians(spread), 3) * np.linalg.norm(base),
            rng.uniform(0.05, 30.0)) for _ in range(int(rng.integers(2, 14)))]
        for min_sep in (1.0, 5.0, 10.0):
            results = []
            for check in (_batched_axis_spread, _reference_axis_spread):
                try:
                    check(motions, min_sep)
                    results.append(None)
                except InsufficientMotionError as exc:
                    results.append(str(exc))
            assert results[0] == results[1]
            outcomes.add(results[0] is None)
    assert outcomes == {True, False}


def reference_solve_ax_xb(samples):
    """The per-pair solve that ``solve_ax_xb`` batches: one RigidTransform
    per motion and per residual, the same maths."""
    samples = list(samples)
    if len(samples) < 3:
        raise TooFewSamplesError(f"hand-eye needs at least 3 samples, got {len(samples)}")
    flange_inv = [s.flange_in_base.invert() for s in samples]
    target_inv = [s.target_in_camera.invert() for s in samples]
    motions = [(flange_inv[i].compose(samples[j].flange_in_base),
                target_inv[i].compose(samples[j].target_in_camera))
               for i, j in itertools.combinations(range(len(samples)), 2)]
    _reference_axis_spread([a for a, _ in motions], 5.0)

    def log_vector(m):
        return m.rotation_axis() * math.radians(m.rotation_angle_deg())

    scatter = np.zeros((3, 3))
    for a, b in motions:
        scatter += np.outer(log_vector(b), log_vector(a))
    u_mat, _, vt = np.linalg.svd(scatter)
    d = np.sign(np.linalg.det(vt.T @ u_mat.T))
    if d == 0:
        raise InsufficientMotionError("degenerate motion scatter")
    rot_x = vt.T @ np.diag([1.0, 1.0, d]) @ u_mat.T
    lhs = np.vstack([np.eye(3) - a.rotation_matrix for a, _ in motions])
    rhs = np.concatenate([a.t - rot_x @ b.t for a, b in motions])
    t_x, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)

    x_hat = RigidTransform.from_matrix(rot_x, t_x)
    errors = [pose_error(a.compose(x_hat), x_hat.compose(b)) for a, b in motions]
    return HandEyeResult(
        camera_in_flange=x_hat,
        rotation_residual_deg=math.sqrt(
            sum(e.rotation_error_deg ** 2 for e in errors) / len(motions)),
        translation_residual_mm=math.sqrt(
            sum(e.translation_error_mm ** 2 for e in errors) / len(motions)),
        sample_count=len(samples),
    )


def assert_matches_reference(samples):
    got = solve_ax_xb(samples)
    want = reference_solve_ax_xb(samples)
    err = pose_error(got.camera_in_flange, want.camera_in_flange)
    assert err.rotation_error_deg <= 1e-9
    assert err.translation_error_mm <= 1e-9
    assert abs(got.rotation_residual_deg - want.rotation_residual_deg) <= 1e-9
    assert abs(got.translation_residual_mm - want.translation_residual_mm) <= 1e-9
    assert got.sample_count == want.sample_count


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("count", [3, 4, 10, 30])
def test_solve_matches_the_per_pair_reference(count, noisy):
    for seed in range(5 if noisy else 1):
        rng = np.random.default_rng(seed)
        assert_matches_reference(make_samples(count, rng, noise_rot_deg=0.05 * noisy,
                                              noise_mm=0.1 * noisy))


@pytest.mark.parametrize("make", [lambda: make_samples(2), _single_axis_samples,
                                  _pure_translation_samples],
                         ids=["too-few", "single-axis", "pure-translation"])
def test_solve_raises_as_the_reference_does(make):
    raised = []
    for solve in (solve_ax_xb, reference_solve_ax_xb):
        with pytest.raises((TooFewSamplesError, InsufficientMotionError)) as info:
            solve(make())
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_half_turn_motion_keeps_the_scalar_sign():
    """Flange half turns about x and then y give the motion [0, 0, 0, -1]:
    w is exactly 0, and only the first-non-zero rule flips it positive.
    The board observations are noisy, so no B motion is exactly a half
    turn, and an A log vector of the wrong sign moves the solution off the
    reference's (on noiseless motions the SVD projection would hide it)."""
    flanges = [RigidTransform(q=np.array([0.0, 1.0, 0.0, 0.0]), t=(0.0, 0.0, 400.0)),
               RigidTransform(q=np.array([0.0, 0.0, 1.0, 0.0]), t=(30.0, 0.0, 380.0))]
    flanges += [s.flange_in_base for s in make_samples(4)]
    motion = handeye._quat_multiply(flanges[0].q * np.array([1.0, -1.0, -1.0, -1.0]),
                                    flanges[1].q)
    assert motion.tolist() == [0.0, 0.0, 0.0, -1.0]
    rng = np.random.default_rng(3)
    samples = []
    for flange in flanges:
        wobble = RigidTransform.from_axis_angle(
            rng.normal(size=3), rng.normal(0.0, 0.05), translation=rng.normal(0.0, 0.1, 3))
        board_in_camera = flange.compose(X_TRUE).invert().compose(BOARD_IN_BASE)
        samples.append(sample_from_board_observation(flange, board_in_camera.compose(wobble)))
    assert_matches_reference(samples)


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


def test_candidate_grid_is_cached_and_read_only():
    handeye._candidate_grid.cache_clear()
    cold = plan_poses(BOX, 10, 22.0)
    grid = handeye._candidate_grid(22.0, 0)
    assert handeye._candidate_grid(22.0, 0) is grid
    for column in (grid.q, grid.view, grid.rot_t, grid.rot_apply):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.0
    warm = plan_poses(BOX, 10, 22.0)
    for pa, pb in zip(cold, warm):
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


# ---------------------------------------------------------------------------
# The batched planner against the per-candidate loop it replaced.


def _oracle_look_pose(target, distance, tilt_rad, azimuth_rad, roll_rad):
    view = np.array([math.sin(tilt_rad) * math.cos(azimuth_rad),
                     math.sin(tilt_rad) * math.sin(azimuth_rad),
                     -math.cos(tilt_rad)])
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


def oracle_plan_poses(observation_box, count, tilt_range_deg, camera=None,
                      nominal_camera_in_flange=None, shrinks=None):
    """The scalar planner, one RigidTransform per candidate.

    ``shrinks``, when given, collects every shrink index the search
    reaches; it is the only addition to the original loop.
    """
    if count < 3:
        raise TooFewSamplesError(f"pose plan needs count >= 3, got {count}")
    if not (0.0 < tilt_range_deg <= 60.0):
        raise ValueError("tilt_range_deg must lie in (0, 60]")
    camera = camera if camera is not None else CameraModel()
    x_nom = (nominal_camera_in_flange if nominal_camera_in_flange is not None
             else RigidTransform.identity())

    d_lo, d_hi = handeye._feasible_standoffs(observation_box, camera)
    center = observation_box.center
    corners = observation_box.corners()
    golden = math.pi * (3.0 - math.sqrt(5.0))

    candidates = []
    for i_t in range(1, 5):
        tilt = math.radians(tilt_range_deg) * i_t / 4.0
        for i_a in range(10):
            azimuth = (i_a * golden) % (2.0 * math.pi)
            for roll_deg in (-25.0, -10.0, 0.0, 10.0, 25.0):
                candidates.append((tilt, azimuth, math.radians(roll_deg)))

    def line_angle_deg(u, w):
        return math.degrees(math.acos(min(abs(float(u @ w)), 1.0)))

    cam_poses = []
    used_axes = []
    for k in range(count):
        distance = d_lo + (d_hi - d_lo) * (k + 0.5) / count
        best_pose = None
        best_axis = None
        for shrink in range(12):
            if shrinks is not None:
                shrinks.append(shrink)
            scale = 0.7 ** shrink
            best_score = -1.0
            for tilt, azimuth, roll in candidates:
                pose = _oracle_look_pose(center, distance, tilt * scale,
                                         azimuth, roll * scale)
                if not bool(np.all(camera.contains(pose.invert().apply(corners)))):
                    continue
                if not cam_poses:
                    best_pose = pose
                    break
                motion = cam_poses[-1].invert().compose(pose)
                if motion.rotation_angle_deg() < 2.0 * scale:
                    continue
                axis = motion.rotation_axis()
                score = min((line_angle_deg(axis, a) for a in used_axes),
                            default=90.0)
                if score > best_score:
                    best_score = score
                    best_pose = pose
                    best_axis = axis
            if best_pose is not None:
                break
        if best_pose is None:
            raise InfeasibleBoxError(
                "no candidate orientation keeps the box inside the frustum")
        cam_poses.append(best_pose)
        if best_axis is not None:
            used_axes.append(best_axis)
    return [p.compose(x_nom.invert()) for p in cam_poses]


# (box extents mm, pose count, tilt range deg) of the calib_solve benchmark.
CALIB_SHAPES = (((90.0, 90.0, 24.0), 10, 22.0), ((60.0, 60.0, 20.0), 8, 18.0),
                ((120.0, 80.0, 30.0), 12, 25.0), ((80.0, 100.0, 16.0), 8, 20.0))


def _random_nominal(rng):
    return RigidTransform.from_axis_angle(
        rng.normal(size=3), rng.uniform(4.0, 12.0),
        translation=(rng.uniform(30, 50), rng.uniform(-30, -10), rng.uniform(80, 110)))


def _oracle_problems():
    """(id, box, count, tilt, nominal camera-in-flange or None)."""
    problems = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        for j, (extents, count, tilt) in enumerate(CALIB_SHAPES):
            center = np.array([-450.0, -340.0, -68.0]) + rng.uniform(-30.0, 30.0, 3)
            problems.append((f"calib{seed}-{j}", Aabb.from_center_extents(center, extents),
                             count, tilt, _random_nominal(rng)))
    rng = np.random.default_rng(1234)
    for j in range(40):
        extents = (rng.uniform(10, 260), rng.uniform(10, 200), rng.uniform(2, 80))
        center = rng.uniform(-600.0, 600.0, 3)
        count = int(rng.integers(3, 13))
        tilt = float(rng.uniform(5.0, 60.0))
        if j % 4 == 0:
            # A 2 deg tilt step puts motion angles exactly on the
            # 2 * scale threshold.
            tilt = 8.0
        nominal = _random_nominal(rng) if j % 2 else None
        problems.append((f"random{j}", Aabb.from_center_extents(center, extents),
                         count, tilt, nominal))
    # Boxes near the width of the far field of view need gentler tilts
    # (shrink > 0); at 732 mm no candidate fits at all.
    for width in (700.0, 730.0, 732.0):
        problems.append((f"wide{width:.0f}",
                         Aabb.from_center_extents((0.0, 0.0, 0.0), (width, 300.0, 20.0)),
                         4, 20.0, None))
    # Only three candidates fit one pose, all turning about a used axis:
    # the best score is 0 deg, where acos rounding is at its worst.
    problems.append(("zero-score", Aabb.from_center_extents(
        (0.0, 0.0, 0.0), (693.43, 145.79, 26.47)), 8, 25.35, None))
    problems.append(("beyond-fov", Aabb.from_center_extents(
        (0.0, 0.0, 0.0), (1000.0, 1000.0, 24.0)), 5, 22.0, None))
    problems.append(("beyond-depth", Aabb.from_center_extents(
        (0.0, 0.0, 0.0), (10.0, 10.0, 500.0)), 5, 22.0, None))
    return problems


ORACLE_PROBLEMS = _oracle_problems()


def _plan_or_error(planner, box, count, tilt, nominal):
    try:
        with warnings.catch_warnings():
            # Also catches a RuntimeWarning from an identity motion.
            warnings.simplefilter("error")
            return planner(box, count, tilt, nominal_camera_in_flange=nominal)
    except InfeasibleBoxError as exc:
        return (type(exc), str(exc))


def _assert_same_plan(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert not isinstance(got, tuple), got
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.q, w.q)
        assert np.array_equal(g.t, w.t)


@pytest.fixture(scope="module")
def oracle_plans():
    return {pid: _plan_or_error(oracle_plan_poses, box, count, tilt, nominal)
            for pid, box, count, tilt, nominal in ORACLE_PROBLEMS}


@pytest.mark.parametrize("problem", ORACLE_PROBLEMS, ids=[p[0] for p in ORACLE_PROBLEMS])
def test_plan_matches_the_scalar_oracle(problem, oracle_plans):
    pid, box, count, tilt, nominal = problem
    _assert_same_plan(_plan_or_error(plan_poses, box, count, tilt, nominal),
                      oracle_plans[pid])


def test_oracle_set_covers_every_planner_path(oracle_plans):
    infeasible = [pid for pid, plan in oracle_plans.items() if isinstance(plan, tuple)]
    assert sorted(infeasible) == ["beyond-depth", "beyond-fov", "wide732"]
    messages = {oracle_plans[pid][1] for pid in infeasible}
    assert len(messages) == 3   # both standoff checks and the empty search
    shrinks = []
    box, count, tilt = next(p[1:4] for p in ORACLE_PROBLEMS if p[0] == "wide700")
    oracle_plan_poses(box, count, tilt, shrinks=shrinks)
    assert max(shrinks) > 0
    assert any(p[4] is None for p in ORACLE_PROBLEMS)
    assert any(p[4] is not None for p in ORACLE_PROBLEMS)


def test_plan_does_not_follow_rounding_of_the_batch_screen(monkeypatch, oracle_plans):
    """A batch motion off by 1e-12 (far above float rounding, far below
    the re-check windows) must not change a single decision.

    The 8 deg problems have motion angles on the threshold, and the first
    motion about the optical axis leaves later candidates tied on score.
    """
    exact = handeye._quat_multiply
    skew = np.array([0.3, -0.5, 0.7, 0.4]) * 1e-12

    def skewed(a, b):
        return exact(a, b) + skew.reshape((4,) + (1,) * (np.ndim(b) - 1))

    monkeypatch.setattr(handeye, "_quat_multiply", skewed)
    for pid, box, count, tilt, nominal in ORACLE_PROBLEMS:
        if pid.startswith("calib") or tilt == 8.0:
            _assert_same_plan(_plan_or_error(plan_poses, box, count, tilt, nominal),
                              oracle_plans[pid])

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from specklenav.camera import CameraModel, RangeClampWarning
from specklenav import handeye
from specklenav.geometry import Aabb, RigidTransform, line_angle_deg, pose_error
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
from specklenav.harness import _to_json, default_scenario

from conftest import rotation_angle_deg

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
    flange = RigidTransform.from_axis_angle((1.0, 0.0, 0.0), 12.0, translation=(0.0, 0.0, 400.0))
    board_in_camera = RigidTransform.from_axis_angle((0.0, 1.0, 0.0), 4.0,
                                                     translation=(10.0, 5.0, 300.0))
    sample = sample_from_board_observation(flange, board_in_camera)
    err = pose_error(sample.target_in_camera, board_in_camera.invert())
    assert err.rotation_error_deg <= math.degrees(1e-12)
    assert err.translation_error_mm <= 1e-12


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
    axes = [m.rotation_axis() for m in a_motions if rotation_angle_deg(m) > 0.1]
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
        return m.rotation_axis() * math.radians(rotation_angle_deg(m))

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
    doc = _to_json(solve_ax_xb(make_samples(5)))
    assert set(doc) == {"camera_in_flange", "rotation_residual_deg",
                        "translation_residual_mm", "sample_count", "solver"}


BOX = Aabb.from_center_extents((0.0, 0.0, 0.0), (90.0, 90.0, 24.0))


def same_plan(a, b):
    return len(a) == len(b) and all(np.array_equal(p.q, o.q) and np.array_equal(p.t, o.t)
                                    for p, o in zip(a, b))


def test_plan_is_deterministic():
    a = plan_poses(BOX, 10, 22.0)
    b = plan_poses(BOX, 10, 22.0)
    assert len(a) == 10
    assert same_plan(a, b)


def test_candidate_grid_is_cached_and_read_only():
    handeye._candidate_grid.cache_clear()
    cold = plan_poses(BOX, 10, 22.0)
    grid = handeye._candidate_grid(22.0, 0)
    assert handeye._candidate_grid(22.0, 0) is grid
    for column in (grid.q, grid.view, grid.rot_apply):
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0.0
    assert same_plan(cold, plan_poses(BOX, 10, 22.0))


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
        assert rotation_angle_deg(motion) > 0.5
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
# Planner properties over a spread of problems.


# (box extents mm, pose count, tilt range deg) of the calib_solve benchmark.
CALIB_SHAPES = (((90.0, 90.0, 24.0), 10, 22.0), ((60.0, 60.0, 20.0), 8, 18.0),
                ((120.0, 80.0, 30.0), 12, 25.0), ((80.0, 100.0, 16.0), 8, 20.0))


def _random_nominal(rng):
    return RigidTransform.from_axis_angle(
        rng.normal(size=3), rng.uniform(4.0, 12.0),
        translation=(rng.uniform(30, 50), rng.uniform(-30, -10), rng.uniform(80, 110)))


def _plan_problems():
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
    # Every pose fits at full scale, yet the frustum leaves the last one only
    # candidates that turn about the optical axis, already used.
    problems.append(("full-scale-reuse", Aabb.from_center_extents(
        (0.0, 0.0, 0.0), (200.0, 160.0, 40.0)), 10, 45.0, None))
    problems.append(("beyond-fov", Aabb.from_center_extents(
        (0.0, 0.0, 0.0), (1000.0, 1000.0, 24.0)), 5, 22.0, None))
    problems.append(("beyond-depth", Aabb.from_center_extents(
        (0.0, 0.0, 0.0), (10.0, 10.0, 500.0)), 5, 22.0, None))
    return problems


PLAN_PROBLEMS = _plan_problems()
INFEASIBLE = ("beyond-depth", "beyond-fov", "wide732")
POINT = Aabb.from_center_extents((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _plan_and_shrink(box, count, tilt, nominal=None):
    """The plan, or the InfeasibleBoxError's message, and the largest shrink
    index the search reached (-1 when it built no grid)."""
    shrinks = [-1]
    grid = handeye._candidate_grid

    def recording(tilt_range_deg, shrink):
        shrinks.append(shrink)
        return grid(tilt_range_deg, shrink)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(handeye, "_candidate_grid", recording)
        # Also catches a RuntimeWarning from an identity motion.
        warnings.simplefilter("error")
        try:
            plan = plan_poses(box, count, tilt, nominal_camera_in_flange=nominal)
        except InfeasibleBoxError as exc:
            plan = str(exc)
    return plan, max(shrinks)


def _motions(poses):
    return [a.invert().compose(b) for a, b in zip(poses, poses[1:])]


def _min_axis_separation_deg(poses):
    axes = [m.rotation_axis() for m in _motions(poses)]
    return min(line_angle_deg(u, w) for u, w in itertools.combinations(axes, 2))


def _same_rotations(poses, others):
    return all(np.array_equal(p.q, o.q) for p, o in zip(poses, others))


def _frustum_decides_nothing(poses, count, tilt):
    """Whether the plan turns as a point target's plan does: every candidate
    keeps a point in view, so the frustum then ruled out no choice."""
    return _same_rotations(poses, plan_poses(POINT, count, tilt))


@pytest.fixture(scope="module")
def plans():
    """Camera-pose plans of PLAN_PROBLEMS and the shrink each reached."""
    return {pid: _plan_and_shrink(box, count, tilt)
            for pid, box, count, tilt, _ in PLAN_PROBLEMS}


@pytest.mark.parametrize("problem", PLAN_PROBLEMS, ids=[p[0] for p in PLAN_PROBLEMS])
def test_plan_keeps_its_properties(problem, plans):
    pid, box, count, tilt, nominal = problem
    poses, shrink = plans[pid]
    if pid in INFEASIBLE:
        assert isinstance(poses, str)
        return
    assert len(poses) == count
    camera = CameraModel()
    for pose in poses:
        assert bool(np.all(camera.contains(pose.invert().apply(box.corners()))))
    steps = [rotation_angle_deg(m) for m in _motions(poses)]
    assert min(steps) > 2.0 * 0.7 ** 11   # 2 * scale at the last scale
    if shrink == 0:
        assert min(steps) >= 2.0
    # The docstring's separation claim, where its condition holds.
    if tilt >= 2.0 and count <= 12 and _frustum_decides_nothing(poses, count, tilt):
        assert _min_axis_separation_deg(poses) >= 10.0
    if nominal is not None:
        flanges, _ = _plan_and_shrink(box, count, tilt, nominal)
        for flange, cam in zip(flanges, poses):
            err = pose_error(flange.compose(nominal), cam)
            assert err.rotation_error_deg < 1e-9
            assert err.translation_error_mm < 1e-9
    # The plan does not depend on what the grid cache holds.
    handeye._candidate_grid.cache_clear()
    assert same_plan(_plan_and_shrink(box, count, tilt)[0], poses)


def test_plan_problems_reach_every_planner_path(plans):
    infeasible = sorted(pid for pid, (plan, _) in plans.items() if isinstance(plan, str))
    assert infeasible == sorted(INFEASIBLE)
    messages = {plans[pid][0] for pid in infeasible}
    assert len(messages) == 3   # both standoff checks and the empty search
    # wide700 needs a gentler grid, where less than 2 deg of motion passes.
    poses, shrink = plans["wide700"]
    assert shrink > 0
    assert min(rotation_angle_deg(m) for m in _motions(poses)) < 2.0
    # The separation claim needs its condition: in both problems the frustum
    # leaves a pose only candidates that turn about an axis already used.
    for pid, count, tilt in (("zero-score", 8, 25.35), ("full-scale-reuse", 10, 45.0)):
        poses, _ = plans[pid]
        assert not _frustum_decides_nothing(poses, count, tilt)
        assert _min_axis_separation_deg(poses) < 10.0
    assert plans["full-scale-reuse"][1] == 0
    assert any(p[4] is None for p in PLAN_PROBLEMS)
    assert any(p[4] is not None for p in PLAN_PROBLEMS)


@pytest.mark.parametrize("tilt", np.arange(2.0, 60.5, 1.0).tolist())
def test_unconstrained_plan_keeps_its_axes_apart(tilt):
    # A plan's rotations do not depend on the standoffs, so with nothing
    # out of view the 12-pose plan holds every shorter one as a prefix.
    poses = plan_poses(POINT, 12, tilt)
    assert _same_rotations(plan_poses(POINT, 3, tilt), poses)
    assert _min_axis_separation_deg(poses) >= 10.0


# Plans recorded before the batched screen became the planner's only
# decision path, as (q, t) poses or an InfeasibleBoxError's message: the
# retired candidate-by-candidate planner's (the scalar oracle's) for
# PLAN_PROBLEMS, and the default scenario's flange poses.
RECORDED_PLANS = json.loads((Path(__file__).parent / "recorded_plans.json").read_text())


def _assert_plan_is(poses, recorded):
    """Same decisions as a recorded plan, with no last-bit rounding pinned."""
    assert len(poses) == len(recorded)
    for pose, (q, t) in zip(poses, recorded):
        err = pose_error(pose, RigidTransform(q=np.array(q), t=t))
        assert err.rotation_error_deg <= 1e-9
        assert err.translation_error_mm <= 1e-9


@pytest.mark.parametrize("problem", PLAN_PROBLEMS, ids=[p[0] for p in PLAN_PROBLEMS])
def test_plan_matches_the_scalar_oracle(problem):
    pid, box, count, tilt, nominal = problem
    want = RECORDED_PLANS[pid]
    try:
        poses = plan_poses(box, count, tilt, nominal_camera_in_flange=nominal)
    except InfeasibleBoxError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    _assert_plan_is(poses, want)


def test_default_scenario_plan_is_pinned():
    sc = default_scenario()
    poses = plan_poses(sc.observation_box, sc.calibration.count, sc.calibration.tilt_range_deg,
                       camera=sc.camera, nominal_camera_in_flange=sc.hand_eye_true)
    _assert_plan_is(poses, RECORDED_PLANS["default-scenario"])

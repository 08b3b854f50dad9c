"""Acceptance gate: one pass/fail line per shipped guarantee.

Each test prints a single human-readable verdict line (visible even under
normal pytest capture) and then asserts the same conditions, so a red run
always says which guarantee broke and by how much.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from specklenav.camera import DEFAULT_FOV_TABLE, CameraModel
from specklenav.detect import NoMarkerFoundError, detect_ring, track
from specklenav.fusion import TcpCorrection, apply_correction, marker_in_base
from specklenav.geometry import (
    Aabb,
    Point3,
    RigidTransform,
    pose_error,
)
from specklenav.handeye import plan_poses, reprojection_error, solve_ax_xb
from specklenav.respiration import (
    BreathSignal,
    detect_breath_hold,
    estimate_period,
    motion_alarm,
)
from specklenav.scene import PointCloud, RingMarker, TorsoPhantom, render_cloud

from conftest import random_transform, rot_z
from test_handeye import BOARD_IN_BASE, X_TRUE, make_samples


@pytest.fixture
def announce(capsys):
    def _announce(index: int, name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[acceptance {index}] {verdict} {name}: {detail}")
    return _announce


def down_camera(distance_mm: float = 400.0, resolution=(256, 192)) -> CameraModel:
    mount = RigidTransform.from_axis_angle((1.0, 0.0, 0.0), 180.0,
                                           translation=(0.0, 0.0, distance_mm))
    return CameraModel(mount_pose=mount, resolution=resolution)


def test_criterion_1_camera_table_knots_are_exact(announce):
    t0 = time.perf_counter()
    camera = CameraModel()
    exact = True
    for row in DEFAULT_FOV_TABLE:
        fx, fy = camera.field_of_view(row.distance_mm)
        exact &= (fx, fy) == (row.fov_x_mm, row.fov_y_mm)
        exact &= camera.sigma_z(row.distance_mm) == row.sigma_z_mm
        exact &= camera.pixel_size(row.distance_mm) == row.pixel_size_mm
    elapsed = time.perf_counter() - t0
    ok = exact and elapsed < 1.0
    announce(1, "camera table exact at every knot", ok,
             f"7 rows bit-exact={exact}, {elapsed:.3f} s (budget 1 s)")
    assert exact
    assert elapsed < 1.0


def test_criterion_2_ring_detection_accuracy(announce):
    t0 = time.perf_counter()
    camera = down_camera()
    phantom = TorsoPhantom()
    marker = RingMarker()
    truth = np.array([0.0, 0.0, 398.0])
    center_errs, normal_errs, misses = [], [], 0
    for seed in range(100):
        cloud = render_cloud(phantom, marker, camera, seed=seed)
        try:
            pose = detect_ring(cloud)
        except NoMarkerFoundError:
            misses += 1
            continue
        center_errs.append(np.linalg.norm(pose.center.as_array() - truth))
        cosang = abs(float(pose.normal @ np.array([0.0, 0.0, -1.0])))
        normal_errs.append(np.degrees(np.arccos(min(cosang, 1.0))))
    elapsed = time.perf_counter() - t0
    med_c = float(np.median(center_errs))
    med_n = float(np.median(normal_errs))
    ok = misses == 0 and med_c <= 0.3 and med_n <= 0.5 and elapsed < 60.0
    announce(2, "ring detection at 400 mm depth noise", ok,
             f"100 trials, median center {med_c:.3f} mm (<=0.3), "
             f"median normal {med_n:.3f} deg (<=0.5), misses {misses}, "
             f"{elapsed:.1f} s (budget 60 s)")
    assert misses == 0
    assert med_c <= 0.3
    assert med_n <= 0.5
    assert elapsed < 60.0


def test_criterion_3_hand_eye_recovery(announce):
    t0 = time.perf_counter()
    clean = solve_ax_xb(make_samples(10))
    err = pose_error(clean.camera_in_flange, X_TRUE)
    noiseless_ok = err.rotation_error_deg <= 1e-6 and err.translation_error_mm <= 1e-6

    noisy_errs = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        got = solve_ax_xb(make_samples(10, rng, noise_rot_deg=0.05, noise_mm=0.1))
        noisy_errs.append(pose_error(got.camera_in_flange, X_TRUE).translation_error_mm)
    median_noisy = float(np.median(noisy_errs))
    elapsed = time.perf_counter() - t0
    ok = noiseless_ok and median_noisy < 0.3 and elapsed < 30.0
    announce(3, "hand-eye solve exact and noise-tolerant", ok,
             f"noiseless {err.rotation_error_deg:.2e} deg / "
             f"{err.translation_error_mm:.2e} mm (<=1e-6), noisy median "
             f"{median_noisy:.3f} mm over 50 seeds (<0.3), "
             f"{elapsed:.1f} s (budget 30 s)")
    assert noiseless_ok
    assert median_noisy < 0.3
    assert elapsed < 30.0


def test_criterion_4_verification_gate_boundary(announce):
    t0 = time.perf_counter()
    good = reprojection_error(np.tile([0.2, 0.1], (8, 1)), np.zeros((8, 2)))
    boundary = reprojection_error(np.tile([0.3, 0.4], (8, 1)), np.zeros((8, 2)))
    elapsed = time.perf_counter() - t0
    ok = (good.passes_gate() and boundary.mean_px == 0.5
          and boundary.passes_gate() is False and elapsed < 1.0)
    announce(4, "reprojection gate strict at 0.5 px", ok,
             f"mean {good.mean_px:.3f} px passes; uniform (0.3, 0.4) offsets "
             f"give mean {boundary.mean_px!r} and fail, "
             f"{elapsed:.3f} s (budget 1 s)")
    assert good.passes_gate()
    assert boundary.mean_px == 0.5
    assert boundary.passes_gate() is False
    assert elapsed < 1.0


def test_criterion_5_integrated_run_accuracy_and_replay(announce, default_run):
    _, report = default_run
    run_seconds = sum(seconds for _, seconds in report.timings)
    post = report.stages["fusion"]["post_correction_mean_abs_mm"]
    accuracy_ok = all(v <= 0.563 for v in post)

    correction = TcpCorrection(1.0, 1.0, 1.0, -0.56, -0.02, -0.44,
                               fit_pair_count=8, fit_rms=0.0)
    replayed = apply_correction(correction, Point3(-446.08, -336.61, -67.12))
    replay_ok = (replayed.x, replayed.y, replayed.z) == (-446.64, -336.63, -67.56)

    ok = (report.verdict == "PASSED" and accuracy_ok and replay_ok
          and run_seconds < 120.0)
    announce(5, "full run accuracy and exact offset replay", ok,
             f"verdict {report.verdict}, post-correction per-axis "
             f"{[round(v, 3) for v in post]} mm (<=0.563), replay exact="
             f"{replay_ok}, stages took {run_seconds:.1f} s (budget 120 s)")
    assert report.verdict == "PASSED"
    assert accuracy_ok
    assert replay_ok
    assert run_seconds < 120.0


def test_criterion_6_respiration_timing(announce):
    t0 = time.perf_counter()
    t = np.arange(0.0, 16.0, 1.0 / 8.0)
    sine = BreathSignal(zip(t, 3.0 * np.sin(2.0 * np.pi * t / 4.0)))
    period = estimate_period(sine)
    period_ok = abs(period - 4.0) <= 0.02 * 4.0

    tt = np.arange(0.0, 10.0001, 0.25)
    dd = np.interp(tt, [0.0, 2.25, 2.5, 7.5, 7.75, 10.0],
                   [-40.0, 5.0, 10.0, 10.0, 5.0, -40.0])
    gates = detect_breath_hold(BreathSignal(zip(tt, dd)), amplitude_tol_mm=0.8,
                               min_duration_s=2.0)
    gate_ok = (len(gates) == 1 and abs(gates[0].start_s - 2.5) <= 0.25
               and abs(gates[0].end_s - 7.5) <= 0.25)

    ts = np.arange(0.0, 10.0, 0.125)
    ds = np.where(ts < 5.0, 0.0, 8.0)
    alarms = motion_alarm(BreathSignal(zip(ts, ds)), threshold_mm=2.0)
    alarm_ok = len(alarms) == 1 and abs(alarms[0].t_s - 5.0) <= 0.125

    elapsed = time.perf_counter() - t0
    ok = period_ok and gate_ok and alarm_ok and elapsed < 10.0
    announce(6, "respiration period, hold gate, motion alarm", ok,
             f"period {period:.4f} s (within 2%), gate "
             f"[{gates[0].start_s}, {gates[0].end_s}] (within one sample), "
             f"alarm at {alarms[0].t_s} s (within one sample), "
             f"{elapsed:.3f} s (budget 10 s)")
    assert period_ok
    assert gate_ok
    assert alarm_ok
    assert elapsed < 10.0


def test_criterion_7_robustness_properties(announce, reduced_double_run):
    t0 = time.perf_counter()

    # detection result moves rigidly with the cloud
    cloud = render_cloud(TorsoPhantom(), RingMarker(), down_camera(), seed=4)
    base = detect_ring(cloud)
    rng = np.random.default_rng(17)
    rigid_ok = True
    for _ in range(5):
        g = random_transform(rng, max_rotation_deg=40.0, max_translation_mm=100.0)
        moved = detect_ring(PointCloud(points=g.apply(cloud.points),
                                       timestamp_s=0.0, seed=cloud.seed))
        rigid_ok &= bool(np.linalg.norm(
            moved.center.as_array() - g.apply(base.center.as_array())) < 1e-9)
        cosang = abs(float(moved.normal @ g.rotate(base.normal)))
        rigid_ok &= bool(np.degrees(np.arccos(min(cosang, 1.0))) < 1e-5)

    # hand-eye residuals shrink as observation noise shrinks
    residuals = []
    for level in (0.2, 0.05, 0.0125):
        nrng = np.random.default_rng(99)
        fit = solve_ax_xb(make_samples(10, nrng, noise_rot_deg=level,
                                       noise_mm=2.0 * level))
        residuals.append(fit.translation_residual_mm)
    shrink_ok = residuals[0] > residuals[1] > residuals[2]

    # the view interpolant is strictly monotone between knots
    grid = np.linspace(250.0, 700.0, 1801)
    camera = CameraModel()
    fx, fy = camera.field_of_view(grid)
    mono_ok = bool(np.all(np.diff(fx) > 0.0) and np.all(np.diff(fy) > 0.0)
                   and np.all(np.diff(camera.sigma_z(grid)) >= 0.0))

    # the same scenario writes byte-identical reports
    _, _, bytes_1, _, bytes_2 = reduced_double_run
    bytes_ok = bytes_1 == bytes_2

    # planned calibration poses keep the whole box in view
    box = Aabb.from_center_extents((0.0, 0.0, 0.0), (90.0, 90.0, 24.0))
    corners = box.corners()
    frustum_ok = all(
        bool(np.all(camera.contains(pose.invert().apply(corners))))
        for pose in plan_poses(box, 10, 22.0, camera))

    elapsed = time.perf_counter() - t0
    ok = (rigid_ok and shrink_ok and mono_ok and bytes_ok and frustum_ok
          and elapsed < 120.0)
    announce(7, "robustness property suite", ok,
             f"rigid-invariance={rigid_ok}, residual-shrink={shrink_ok}, "
             f"monotone-view={mono_ok}, byte-identical-reports={bytes_ok}, "
             f"frustum-containment={frustum_ok}, {elapsed:.1f} s (budget 120 s)")
    assert rigid_ok
    assert shrink_ok
    assert mono_ok
    assert bytes_ok
    assert frustum_ok
    assert elapsed < 120.0


def test_criterion_8_throughput_is_reported(announce):
    wide = TorsoPhantom(extent=(-220.0, 220.0, -145.0, 145.0))
    marker = RingMarker()
    camera = down_camera()
    hand_eye = RigidTransform.from_axis_angle((0.2, -0.3, 0.9), 8.0,
                                              translation=(42.0, -18.5, 96.0))
    flange = rot_z(15.0, translation=(100.0, -50.0, 400.0))

    clouds = [render_cloud(wide, marker, camera, seed=seed) for seed in range(10)]
    point_count = len(clouds[0])

    t0 = time.perf_counter()
    previous = None
    for cloud in clouds:
        pose = detect_ring(cloud) if previous is None else track(previous, cloud)
        marker_in_base(hand_eye, flange, pose)
        previous = pose
    elapsed = time.perf_counter() - t0
    fps = len(clouds) / elapsed

    ok = point_count >= 20000 and previous is not None
    announce(8, "detect-and-fuse throughput (informative)", ok,
             f"{fps:.1f} frames/s on {point_count}-point clouds "
             f"(reference floor 7 frames/s, not enforced)")
    assert point_count >= 20000
    assert previous is not None

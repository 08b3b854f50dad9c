import math

import numpy as np
import pytest

import specklenav.detect
from specklenav.camera import CameraModel
from specklenav.detect import (
    AmbiguousMarkerError,
    DegenerateGeometryError,
    MarkerPose,
    NoMarkerFoundError,
    TooFewPointsError,
    _SUBSET_POINTS,
    _heights,
    _orient_toward_origin,
    _plane_from_points,
    _plane_support,
    _ransac_inliers,
    _ransac_plane,
    _scatter_plane,
    detect_in_crop,
    detect_ring,
    fit_circle_3d,
    track,
    track_window,
)
from specklenav.geometry import Point3, RigidTransform
from specklenav.scene import PointCloud, RingMarker, TorsoPhantom, render_cloud

from conftest import random_transform

TOP_TRUTH = np.array([0.0, 0.0, 398.0])  # ring top face, camera frame
DOWN_NORMAL = np.array([0.0, 0.0, -1.0])

_DEFAULT_MARKER = RingMarker()


def scene_cloud(seed: int, distance: float = 400.0, resolution=(256, 192),
                marker=_DEFAULT_MARKER, noise_scale: float = 1.0,
                surface=None, tilt_deg: float = 0.0) -> PointCloud:
    """Cloud of the default phantom, seen from above or swung about y."""
    mount = RigidTransform.from_axis_angle((1.0, 0.0, 0.0), 180.0,
                                           translation=(0.0, 0.0, distance))
    if tilt_deg:
        mount = RigidTransform.from_axis_angle((0.0, 1.0, 0.0), tilt_deg).compose(mount)
    cam = CameraModel(mount_pose=mount, resolution=resolution)
    phantom = TorsoPhantom() if surface is None else TorsoPhantom(surface=surface)
    return render_cloud(phantom, marker, cam, seed=seed, noise_scale=noise_scale)


def rows_of(points: np.ndarray) -> np.ndarray:
    """(n, 3) points as the (3, n) coordinate rows that detection scores."""
    return np.ascontiguousarray(points.T)


def normal_angle_deg(n: np.ndarray, ref: np.ndarray) -> float:
    return float(np.degrees(np.arccos(np.clip(abs(float(n @ ref)), 0.0, 1.0))))


def test_detects_ring_center_and_normal():
    pose = detect_ring(scene_cloud(0))
    assert np.linalg.norm(pose.center.as_array() - TOP_TRUTH) < 0.3
    assert normal_angle_deg(pose.normal, DOWN_NORMAL) < 0.5
    assert pose.radius_mm == pytest.approx(10.0, abs=0.5)
    assert pose.inlier_count >= 15
    # the fit spans the full annulus, so the radial rms is about its
    # quarter-width, far below the diameter tolerance
    assert 0.5 < pose.rms_residual_mm < 2.0
    assert pose.timestamp_s == 0.0


def test_normal_points_toward_the_camera():
    pose = detect_ring(scene_cloud(1))
    assert float(pose.normal @ pose.center.as_array()) < 0.0


def test_detection_statistics_over_seeds():
    center_errs = []
    normal_errs = []
    for seed in range(30):
        pose = detect_ring(scene_cloud(seed))
        center_errs.append(np.linalg.norm(pose.center.as_array() - TOP_TRUTH))
        normal_errs.append(normal_angle_deg(pose.normal, DOWN_NORMAL))
    assert np.median(center_errs) <= 0.3
    assert np.median(normal_errs) <= 0.5
    assert max(center_errs) < 1.0


def test_detection_is_deterministic():
    cloud = scene_cloud(5)
    a = detect_ring(cloud)
    b = detect_ring(cloud)
    assert a.center == b.center
    assert np.array_equal(a.normal, b.normal)
    assert a.inlier_count == b.inlier_count


def top_truth(distance: float, tilt_deg: float) -> np.ndarray:
    """The ring top face's centre in the camera frame of ``scene_cloud``."""
    mount = RigidTransform.from_axis_angle((1.0, 0.0, 0.0), 180.0,
                                           translation=(0.0, 0.0, distance))
    if tilt_deg:
        mount = RigidTransform.from_axis_angle((0.0, 1.0, 0.0), tilt_deg).compose(mount)
    return mount.invert().apply(np.array([0.0, 0.0, _DEFAULT_MARKER.thickness_mm]))


def test_no_marker_raises():
    with pytest.raises(NoMarkerFoundError):
        detect_ring(scene_cloud(2, marker=None, resolution=(128, 96)))
    # At noise scales 2 and 3, the 650 mm, 20 degree views in which
    # single-linkage clusters used to pass the diameter gate.
    for seed, noise_scale in [(0, 2.0), (1, 2.0), (3, 2.0), (1, 3.0), (4, 3.0)]:
        with pytest.raises(NoMarkerFoundError):
            detect_ring(scene_cloud(seed, distance=650.0, tilt_deg=20.0, marker=None,
                                    noise_scale=noise_scale))
    # A 5 m skin with 20 points 2 mm proud of it, strewn over it: the vote's
    # grid would span 25 million cells, so the search refuses it.
    rng = np.random.default_rng(5)
    x, y = np.meshgrid(np.linspace(-2500.0, 2500.0, 101), np.linspace(-2500.0, 2500.0, 101))
    proud = np.column_stack([rng.uniform(-2500.0, 2500.0, (20, 2)), np.full(20, 398.0)])
    far_flung = PointCloud(points=np.vstack([np.column_stack([x.ravel(), y.ravel(),
                                                              np.full(x.size, 400.0)]), proud]),
                           timestamp_s=0.0, seed=0)
    with pytest.raises(NoMarkerFoundError, match="too wide"):
        detect_ring(far_flung)


@pytest.mark.parametrize("seed", range(12))
def test_heavy_noise_far_tilted_view_finds_the_ring(seed):
    # At 650 mm, tilted 20 degrees and at twice the table noise, the proud
    # band holds more noise than ring; the annulus search still finds it.
    pose = detect_ring(scene_cloud(seed, distance=650.0, tilt_deg=20.0, noise_scale=2.0))
    assert np.linalg.norm(pose.center.as_array() - top_truth(650.0, 20.0)) <= 1.5


def test_tiny_cloud_raises():
    cloud = PointCloud(points=np.zeros((5, 3)) + [0.0, 0.0, 400.0],
                       timestamp_s=0.0, seed=0)
    with pytest.raises(NoMarkerFoundError):
        detect_ring(cloud)


def test_wrong_expected_diameter_finds_nothing():
    with pytest.raises(NoMarkerFoundError):
        detect_ring(scene_cloud(3), RingMarker(outer_diameter_mm=60, inner_diameter_mm=52))


def test_detection_and_tracking_read_the_marker_size():
    large = RingMarker(outer_diameter_mm=40.0, inner_diameter_mm=30.0)
    cloud = scene_cloud(12, marker=large)
    with pytest.raises(NoMarkerFoundError):
        detect_ring(cloud)
    pose = detect_ring(cloud, large)
    assert pose.radius_mm == pytest.approx(large.mid_diameter_mm / 2.0, abs=0.5)
    assert np.linalg.norm(pose.center.as_array() - TOP_TRUTH) < 0.3
    assert track_window(pose, large)[1] == 120.0
    shifted = RingMarker(outer_diameter_mm=40.0, inner_diameter_mm=30.0,
                         pose_on_surface=RigidTransform.translation(6.0, -4.0, 0.0))
    nxt = track(pose, scene_cloud(13, marker=shifted), large)
    expect = TOP_TRUTH + np.array([6.0, 4.0, 0.0])  # camera y axis is flipped
    assert np.linalg.norm(nxt.center.as_array() - expect) < 0.3


def test_rigid_invariance_of_detection():
    """Moving the whole cloud moves the detection with it, to rounding."""
    cloud = scene_cloud(4)
    assert len(cloud) > _SUBSET_POINTS  # the preemptive subset is in play
    base = detect_ring(cloud)
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = random_transform(rng, max_rotation_deg=40.0, max_translation_mm=100.0)
        moved = PointCloud(points=g.apply(cloud.points),
                           timestamp_s=cloud.timestamp_s, seed=cloud.seed)
        got = detect_ring(moved)
        assert np.linalg.norm(
            got.center.as_array() - g.apply(base.center.as_array())) < 1e-9
        assert normal_angle_deg(got.normal, g.rotate(base.normal)) < 1e-5


def test_two_identical_rings_are_ambiguous():
    markers = [RingMarker(pose_on_surface=RigidTransform.translation(-60.0, 0.0, 0.0)),
               RingMarker(pose_on_surface=RigidTransform.translation(60.0, 0.0, 0.0))]
    cloud = scene_cloud(6, marker=markers, noise_scale=0.0)
    with pytest.raises(AmbiguousMarkerError) as exc_info:
        detect_ring(cloud)
    first, second = exc_info.value.candidates
    gap = np.linalg.norm(first.center.as_array() - second.center.as_array())
    assert gap == pytest.approx(120.0, abs=1.0)


def test_track_follows_a_laterally_shifted_marker():
    first = detect_ring(scene_cloud(7))
    marker = RingMarker(pose_on_surface=RigidTransform.translation(6.0, -4.0, 0.0))
    nxt = track(first, scene_cloud(8, marker=marker))
    expect = TOP_TRUTH + np.array([6.0, 4.0, 0.0])  # camera y axis is flipped
    assert np.linalg.norm(nxt.center.as_array() - expect) < 0.3


def test_track_falls_back_to_full_search():
    stale = detect_ring(scene_cloud(9))
    # marker now sits 106 mm away laterally, outside the tracking crop
    far_marker = RingMarker(pose_on_surface=RigidTransform.translation(-90.0, 55.0, 0.0))
    got = track(stale, scene_cloud(10, marker=far_marker))
    expect = TOP_TRUTH + np.array([-90.0, -55.0, 0.0])
    assert np.linalg.norm(got.center.as_array() - expect) < 0.3


def crop_around(pose: MarkerPose, cloud: PointCloud) -> PointCloud:
    """``cloud`` cropped to ``pose``'s ``track_window``, as ``track`` crops it."""
    center, radius = track_window(pose)
    keep = np.linalg.norm(cloud.points - center, axis=1) <= radius
    return PointCloud(points=cloud.points[keep], timestamp_s=cloud.timestamp_s,
                      seed=cloud.seed)


@pytest.fixture(scope="module")
def previous():
    """The pose that the crops below are tracked from."""
    return detect_ring(scene_cloud(7))


@pytest.fixture(scope="module")
def crop(previous):
    return crop_around(previous, scene_cloud(8))


def assert_same_pose(got: MarkerPose, want: MarkerPose) -> None:
    assert got.to_json_dict() == want.to_json_dict()
    assert np.array_equal(got.normal, want.normal)


def test_a_tracked_crop_takes_its_plane_from_the_prior(plane_calls, previous, crop):
    got = detect_in_crop(crop, RingMarker(), previous)
    assert plane_calls["ransac"] == 0
    assert len(plane_calls["prior"]) == 1 and plane_calls["prior"][0] is not None
    assert np.linalg.norm(got.center.as_array() - TOP_TRUTH) < 0.3
    # The prior's plane keeps the same band as RANSAC's, so the pose is the same.
    assert_same_pose(got, detect_ring(crop))


def test_a_prior_tilted_30_degrees_falls_back_to_ransac(plane_calls, previous, crop):
    tilted = MarkerPose(center=previous.center,
                        normal=RigidTransform.from_axis_angle((0.0, 1.0, 0.0), 30.0)
                        .rotate(previous.normal),
                        radius_mm=previous.radius_mm,
                        rms_residual_mm=previous.rms_residual_mm,
                        inlier_count=previous.inlier_count,
                        timestamp_s=previous.timestamp_s)
    assert normal_angle_deg(tilted.normal, previous.normal) == pytest.approx(30.0)
    got = detect_in_crop(crop, RingMarker(), tilted)
    assert plane_calls["prior"] == [None]
    assert plane_calls["ransac"] == 1
    assert_same_pose(got, detect_ring(crop))


def test_a_crop_mostly_off_the_skin_falls_back_to_ransac(plane_calls, previous, crop):
    # Twice as many points again, 10-60 mm above the skin: the skin plane
    # holds under half of the crop, and nothing reaches the ring's band.
    rng = np.random.default_rng(3)
    n = 2 * len(crop)
    clutter = np.column_stack([rng.uniform(-30.0, 30.0, (n, 2)),
                               rng.uniform(340.0, 390.0, n)])
    cluttered = PointCloud(points=np.vstack([crop.points, clutter]),
                           timestamp_s=crop.timestamp_s, seed=crop.seed)
    got = detect_in_crop(cluttered, RingMarker(), previous)
    assert plane_calls["prior"] == [None]
    assert_same_pose(got, detect_ring(cluttered))
    assert np.linalg.norm(got.center.as_array() - TOP_TRUTH) < 0.3


def test_a_crop_holding_no_ring_is_none(plane_calls, previous):
    bare = crop_around(previous, scene_cloud(8, marker=None))
    assert len(bare) > 1000
    assert detect_in_crop(bare, RingMarker(), previous) is None
    assert plane_calls["prior"][0] is not None


def test_track_crops_the_sphere_that_the_norm_gives(monkeypatch):
    """``track`` keeps the points whose ``np.linalg.norm`` distance from the
    previous centre is at most the window radius, bit for bit."""
    previous = MarkerPose(center=Point3(3.0, -5.0, 400.0), normal=DOWN_NORMAL,
                          radius_mm=10.0, rms_residual_mm=0.1, inlier_count=100,
                          timestamp_s=0.0)
    center, radius = track_window(previous)
    assert radius == 72.0
    # Exactly on the sphere: whole-millimetre offsets of norm 72.
    on = np.array([(72, 0, 0), (0, -72, 0), (0, 0, 72), (48, 48, 24),
                   (-64, 32, -8), (8, -32, 64), (-24, -48, -48)], dtype=float)
    # Within a few ulps of it, where another summation order or a squared
    # comparison keeps other points.
    rng = np.random.default_rng(11)
    u = rng.standard_normal((20000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    near = u * radius * (1.0 + rng.integers(-4, 5, (len(u), 1)) * 2.0 ** -52)
    far = rng.uniform(-100.0, 100.0, (5000, 3))
    cloud = PointCloud(points=center + np.concatenate([on, near, far]),
                       timestamp_s=0.0, seed=0)
    crops = []
    monkeypatch.setattr(specklenav.detect, "detect_in_crop",
                        lambda crop, marker, prior: crops.append(crop) or prior)
    assert track(previous, cloud) is previous
    keep = np.linalg.norm(cloud.points - center, axis=1) <= radius
    assert keep[:len(on)].all()
    assert 0 < np.count_nonzero(keep[len(on):len(on) + len(near)]) < len(near)
    assert np.array_equal(crops[0].points, cloud.points[keep])


def test_expected_mid_diameter():
    assert RingMarker().mid_diameter_mm == 20.0


def test_circle_fit_on_synthetic_circle():
    rng = np.random.default_rng(21)
    theta = rng.uniform(0, 2 * np.pi, 200)
    center = np.array([5.0, -3.0, 120.0])
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, np.cos(0.3), np.sin(0.3)])
    pts = center + 10.0 * (np.outer(np.cos(theta), e1) + np.outer(np.sin(theta), e2))
    fit = fit_circle_3d(pts)
    assert np.linalg.norm(fit.center - center) < 1e-9
    assert fit.radius_mm == pytest.approx(10.0, abs=1e-9)
    assert fit.rms_mm < 1e-9


def reference_circle_fit(points):
    """``fit_circle_3d`` as written with a fresh ``column_stack`` Jacobian in
    every Gauss-Newton step."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    centroid, normal, e1, e2 = _plane_from_points(pts)
    x, y = (pts - centroid) @ e1, (pts - centroid) @ e2
    (cx, cy, k), *_ = np.linalg.lstsq(np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)]),
                                      x * x + y * y, rcond=None)
    r = math.sqrt(max(k + cx * cx + cy * cy, 1e-300))
    for _ in range(60):
        dx, dy = x - cx, y - cy
        dist = np.maximum(np.hypot(dx, dy), 1e-12)
        jac = np.column_stack([-dx / dist, -dy / dist, -np.ones_like(dist)])
        step, *_ = np.linalg.lstsq(jac, -(dist - r), rcond=None)
        cx, cy, r = cx + step[0], cy + step[1], r + step[2]
        if float(np.max(np.abs(step))) < 1e-12:
            break
    rms = float(np.sqrt(np.mean((np.hypot(x - cx, y - cy) - r) ** 2)))
    center = centroid + cx * e1 + cy * e2
    return center, _orient_toward_origin(normal, center), float(r), rms


@pytest.mark.parametrize("count", [6, 40, 641])
def test_circle_fit_keeps_the_bits_of_a_fresh_jacobian(count):
    rng = np.random.default_rng(count)
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    radius = 10.0 + rng.normal(0.0, 0.4, count)
    pts = np.column_stack([radius * np.cos(theta), radius * np.sin(theta),
                           rng.normal(0.0, 0.2, count)]) + [30.0, -20.0, 400.0]
    fit = fit_circle_3d(pts)
    center, normal, r, rms = reference_circle_fit(pts)
    assert np.array_equal(fit.center, center)
    assert np.array_equal(fit.normal, normal)
    assert (fit.radius_mm, fit.rms_mm) == (r, rms)


def test_scatter_plane_centroid_is_the_row_mean():
    rng = np.random.default_rng(5)
    sizes = [*range(1, 40), 255, 256, 257, 2047, 2048, 2049, 23584, 49152, 60000]
    for n in sizes:
        points = rng.normal(0.0, 80.0, (n, 3)) + [12.0, -40.0, 420.0]
        picked = np.compress(rng.random(n) < 0.6, points, axis=0)
        for inliers in (points, picked):
            if len(inliers):
                centroid, _ = _scatter_plane(rows_of(inliers))
                assert np.array_equal(centroid, inliers.mean(axis=0)), len(inliers)


def test_heights_are_the_product_of_the_centred_points():
    """The band's heights keep the bits of ``(points - centroid) @ normal``."""
    rng = np.random.default_rng(9)
    clouds = [scene_cloud(1).points, scene_cloud(2, noise_scale=2.0, tilt_deg=20.0).points,
              rng.normal(0.0, 80.0, (5000, 3)) + [12.0, -40.0, 420.0]]
    for points in clouds:
        rows = rows_of(points)
        centroid, normal = _ransac_plane(points, rows, 1.0, 300, 0)
        for c, n in ((centroid, normal), (points[7], rng.standard_normal(3))):
            assert np.array_equal(_heights(rows, c, n), (points - c) @ n)


def test_circle_fit_error_paths():
    with pytest.raises(TooFewPointsError):
        fit_circle_3d(np.zeros((5, 3)))
    line = np.outer(np.linspace(0.0, 1.0, 30), [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateGeometryError):
        fit_circle_3d(line)


def test_marker_pose_validation():
    with pytest.raises(ValueError):
        MarkerPose(center=Point3(0.0, 0.0, 400.0),
                   normal=np.array([0.0, 0.0, 1.0]),  # points away from camera
                   radius_mm=10.0, rms_residual_mm=0.1,
                   inlier_count=20, timestamp_s=0.0)
    with pytest.raises(ValueError):
        MarkerPose(center=Point3(0.0, 0.0, 400.0),
                   normal=np.array([0.0, 0.0, -2.0]),  # not unit length
                   radius_mm=10.0, rms_residual_mm=0.1,
                   inlier_count=20, timestamp_s=0.0)


NON_FINITE_POSE_FIELDS = {
    # A NaN normal used to pass both the unit-length and the facing check,
    # since every comparison with NaN is false.
    "nan normal": ({"normal": np.array([0.0, math.nan, -1.0])}, "normal must be finite"),
    "inf normal": ({"normal": np.array([0.0, 0.0, -math.inf])}, "normal must be finite"),
    "nan radius": ({"radius_mm": math.nan}, r"MarkerPose\.radius_mm must be finite"),
    "inf radius": ({"radius_mm": math.inf}, r"MarkerPose\.radius_mm must be finite"),
    "nan rms": ({"rms_residual_mm": math.nan}, r"MarkerPose\.rms_residual_mm must be finite"),
    "nan timestamp": ({"timestamp_s": math.nan}, r"MarkerPose\.timestamp_s must be finite"),
    "-inf timestamp": ({"timestamp_s": -math.inf}, r"MarkerPose\.timestamp_s must be finite"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_POSE_FIELDS))
def test_marker_pose_rejects_non_finite_fields(case):
    fields, message = NON_FINITE_POSE_FIELDS[case]
    good = dict(center=Point3(0.0, 0.0, 400.0), normal=np.array([0.0, 0.0, -1.0]),
                radius_mm=10.0, rms_residual_mm=0.1, inlier_count=20, timestamp_s=0.0)
    MarkerPose(**good)
    with pytest.raises(ValueError, match=message):
        MarkerPose(**{**good, **fields})


def test_marker_pose_json_schema():
    pose = detect_ring(scene_cloud(11))
    doc = pose.to_json_dict()
    assert set(doc) == {"center", "normal", "radius_mm", "rms_mm", "inliers", "t"}
    assert len(doc["center"]) == 3 and len(doc["normal"]) == 3


def reference_ransac_plane(points, threshold, iterations, seed):
    """Reference: every hypothesis counted on every point, first maximum wins.

    Returns the winner's inlier mask, their centroid and the normal of an
    SVD of the centred inliers, oriented toward the camera origin.
    """
    n = len(points)
    rng = np.random.Generator(np.random.Philox(key=seed))
    best_count, best_mask, done = -1, None, 0
    while done < iterations:
        m = min(64, iterations - done)
        done += m
        tri = rng.integers(0, n, size=(m, 3))
        p0 = points[tri[:, 0]]
        normals = np.cross(points[tri[:, 1]] - p0, points[tri[:, 2]] - p0)
        norms = np.linalg.norm(normals, axis=1)
        ok = norms > 1e-12
        if not np.any(ok):
            continue
        normals = normals[ok] / norms[ok, None]
        dists = np.abs((points @ normals.T) - np.einsum("ij,ij->i", p0[ok], normals))
        counts = (dists <= threshold).sum(axis=0)
        i = int(np.argmax(counts))
        if counts[i] > best_count:
            best_count = int(counts[i])
            best_mask = dists[:, i] <= threshold
    inliers = points[best_mask]
    centroid = inliers.mean(axis=0)
    _, _, vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    return best_mask, centroid, _orient_toward_origin(vt[2], centroid)


def line_gap_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between two lines, accurate near zero."""
    return float(np.degrees(np.arctan2(np.linalg.norm(np.cross(a, b)), abs(a @ b))))


def assert_same_winner(points, iterations, seed):
    """The RANSAC winner's inliers and centroid are the reference's bits, and
    the scatter refit's normal is its SVD normal to 1e-9 degrees."""
    mask, centroid, normal = reference_ransac_plane(points, 1.0, iterations, seed)
    rows = rows_of(points)
    assert np.array_equal(_ransac_inliers(points, rows, 1.0, iterations, seed), mask)
    got_centroid, got_normal = _ransac_plane(points, rows, 1.0, iterations, seed)
    assert np.array_equal(got_centroid, centroid)
    assert line_gap_deg(got_normal, normal) <= 1e-9
    assert float(got_normal @ normal) > 0
    assert np.linalg.norm(got_normal) == pytest.approx(1.0, abs=1e-12)


def two_planes(rows: int) -> np.ndarray:
    """Square grids of rows x rows points at z = 400 and then z = 460."""
    g = np.stack(np.meshgrid(np.arange(float(rows)), np.arange(float(rows))),
                 -1).reshape(-1, 2)
    return np.concatenate([np.column_stack([g, np.full(len(g), 400.0)]),
                           np.column_stack([g, np.full(len(g), 460.0)])])


@pytest.mark.parametrize("case", ["cloud", "subset_size", "tied_planes",
                                  "collinear_draws"])
def test_ransac_plane_matches_the_reference_scoring(case):
    """A cloud no larger than the subset is its own subset: same bits."""
    if case == "cloud":
        points = scene_cloud(5, resolution=(72, 54)).points
        # 45 and 301 end the reference's chunks of 64 on an odd chunk.
        iterations = (300, 45, 301)
    elif case == "subset_size":
        points = scene_cloud(5, resolution=(96, 72)).points[:_SUBSET_POINTS]
        iterations = (300,)
    elif case == "tied_planes":
        # Two equal planes: many hypotheses tie, so the first maximum decides.
        # A few points sit exactly one threshold above each plane.
        points = np.concatenate([two_planes(12),
                                 [[2.5, 3.5, 401.0], [7.5, 1.5, 401.0],
                                  [2.5, 3.5, 461.0], [7.5, 1.5, 461.0]]])
        iterations = (200,)
    else:
        # Mostly collinear points: many draws are rejected, chunks shrink.
        x = np.linspace(-50.0, 50.0, 60)
        points = np.concatenate([np.column_stack([x, 0.0 * x, 400.0 + 0.0 * x]),
                                 [[0.0, 5.0, 400.0], [3.0, -4.0, 400.0], [9.0, 2.0, 400.0]]])
        iterations = (130,)
    assert len(points) <= _SUBSET_POINTS
    for count in iterations:
        for seed in (0, 11, 12):
            assert_same_winner(points, count, seed)


def refit_support(points, centroid, normal) -> int:
    """Points within the 1 mm threshold of a refit plane."""
    return int(np.count_nonzero(np.abs((points - centroid) @ normal) <= 1.0))


@pytest.mark.parametrize("tilt_deg", [0.0, 20.0])
@pytest.mark.parametrize("surface", [
    {"kind": "flat"},
    {"kind": "slope", "gx": 0.2, "gy": -0.1},
    {"kind": "ripple", "amplitude_mm": 4.0, "wavelength_x_mm": 70.0,
     "wavelength_y_mm": 50.0},
], ids=lambda surface: surface["kind"])
def test_ransac_plane_stays_close_to_the_reference_on_large_clouds(surface, tilt_deg):
    """Past the subset size another near-best hypothesis may win."""
    for seed in (0, 1, 2):
        points = scene_cloud(seed, surface=surface, tilt_deg=tilt_deg).points
        rows = rows_of(points)
        assert len(points) > _SUBSET_POINTS
        for rng_seed in (0, 11):
            _, c_ref, n_ref = reference_ransac_plane(points, 1.0, 300, rng_seed)
            c, n = _ransac_plane(points, rows, 1.0, 300, rng_seed)
            assert line_gap_deg(n, n_ref) <= 1e-3
            assert abs(float(c @ n) - float(c_ref @ n_ref)) <= 1e-2
            m, m_ref = refit_support(points, c, n), refit_support(points, c_ref, n_ref)
            assert abs(m - m_ref) <= 1e-3 * m_ref
            # The 3x3 scatter refit keeps the SVD normal of the same inliers.
            inliers = points[_ransac_inliers(points, rows, 1.0, 300, rng_seed)]
            assert np.array_equal(c, inliers.mean(axis=0))
            _, _, vt = np.linalg.svd(inliers - c, full_matrices=False)
            assert line_gap_deg(n, vt[2]) <= 1e-9


def test_ransac_plane_verifies_on_the_full_cloud():
    """The strided subset favours one plane, the whole cloud the other."""
    n = 3 * _SUBSET_POINTS  # the subset is every third point
    points = np.random.default_rng(5).uniform([-500.0, -500.0, 0.0],
                                              [500.0, 500.0, 1000.0], size=(n, 3))
    planes = two_planes(40)
    in_subset = np.flatnonzero(np.arange(n) % 3 == 0)
    off_subset = np.flatnonzero(np.arange(n) % 3 != 0)
    # Plane z = 400: 900 points, all in the subset.  Plane z = 460: 1200
    # points, 300 of them in the subset.
    low = in_subset[:900]
    high = np.concatenate([in_subset[900:1200], off_subset[:900]])
    points[low] = planes[:900]
    points[high] = planes[1600:2800]
    for seed in (1, 2, 4):
        # Each seed draws at least one triple from each plane.
        rng = np.random.Generator(np.random.Philox(key=seed))
        tri = np.concatenate([rng.integers(0, n, size=(64, 3)) for _ in range(5)])[:300]
        for members in (low, high):
            assert np.isin(tri, members).all(axis=1).any()
        assert abs(_ransac_plane(points, rows_of(points), 1.0, 300, seed)[0][2] - 460.0) < 0.1
        assert_same_winner(points, 300, seed)


@pytest.mark.parametrize("n", [2047, 8191])
def test_plane_support_keeps_the_reference_bits_at_any_size(n):
    """300 planes through each of the last points, by the rounding of
    products of two planes at a time, all count that point at threshold 0.
    In one product of 300 planes by 2047 or 8191 points, some of those
    distances round to one ulp instead."""
    rng = np.random.default_rng(n)
    points = rng.uniform(-200.0, 200.0, size=(n, 3)) + [0.0, 0.0, 400.0]
    normals = rng.standard_normal((300, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    heights = np.concatenate([points @ normals[i:i + 2].T for i in range(0, 300, 2)], axis=1)
    rows = rows_of(points)
    for j in range(n - 8, n):
        mask = _plane_support(rows, normals, heights[j], 0.0)
        assert np.array_equal(mask, (np.abs(heights - heights[j]) <= 0.0).T), j
        assert mask[:, j].all()


def plane_in_the_last_rows(n: int = 49152) -> np.ndarray:
    """A 40 mm slab of clutter, then a plane at z = 460 in the last quarter
    of the points, as the last pixel rows of an image would hold it."""
    rng = np.random.default_rng(8)
    points = np.column_stack([rng.uniform(-100.0, 100.0, (n, 2)),
                              rng.uniform(380.0, 420.0, n)])
    points[3 * n // 4:, 2] = 460.0
    return points


def test_ransac_finds_a_plane_in_the_last_pixel_rows():
    """Each block of the schedule spans the whole cloud, so a plane that only
    the last rows see is counted on the first block and survives."""
    points = plane_in_the_last_rows()
    n = len(points)
    for seed in (0, 1, 2):
        # Each seed draws at least one triple from the plane.
        rng = np.random.Generator(np.random.Philox(key=seed))
        tri = np.concatenate([rng.integers(0, n, size=(64, 3)) for _ in range(5)])[:300]
        assert (tri >= 3 * n // 4).all(axis=1).any()
        centroid, normal = _ransac_plane(points, rows_of(points), 1.0, 300, seed)
        assert abs(centroid[2] - 460.0) < 1e-9
        assert normal_angle_deg(normal, DOWN_NORMAL) < 1e-9


def test_preemption_scores_a_quarter_of_the_subset_work(monkeypatch):
    """300 hypotheses on 8 blocks of 256 points, halving after each block:
    256 * (300 + 150 + 75 + 37 + 18 + 9) subset pairs, where counting every
    hypothesis on the whole subset takes 300 * 2048 = 614,400."""
    points = plane_in_the_last_rows()
    n = len(points)
    calls = []
    support = specklenav.detect._plane_support

    def counted(rows, normals, offsets, threshold):
        calls.append((len(normals), rows.shape[1]))
        return support(rows, normals, offsets, threshold)

    monkeypatch.setattr(specklenav.detect, "_plane_support", counted)
    _ransac_inliers(points, rows_of(points), 1.0, 300, 0)
    assert calls[0] == (300, _SUBSET_POINTS // 8)
    assert sum(k * m for k, m in calls if m < n) <= 150_784
    assert sum(k * m for k, m in calls if m == n) <= 8 * n


def test_single_plane_support_matches_a_row_of_a_wider_product():
    # A cloud with a single non-degenerate draw, or a single survivor, scores
    # one plane.  Its mask must be the same row that a product over more
    # planes gives, even for a point whose distance is exactly the threshold.
    rng = np.random.default_rng(7)
    for _ in range(50):
        points = rng.uniform(-200.0, 200.0, size=(300, 3)) + [0.0, 0.0, 400.0]
        rows = rows_of(points)
        normals = rng.standard_normal((8, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = np.einsum("ij,ij->i", normals, points[rng.integers(0, 300, size=8)])
        k = int(rng.integers(2, 9))
        dists = np.abs(points @ normals[:k].T - offsets[:k])
        for i in range(0, 300, 10):
            # Point i sits exactly at the threshold, so it counts as support.
            threshold = dists[i, 0]
            wide = _plane_support(rows, normals[:k], offsets[:k], threshold)
            single = _plane_support(rows, normals[:1], offsets[:1], threshold)
            assert single.shape == (1, 300)
            assert np.array_equal(single[0], wide[0])
            assert single[0, i]

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

import specklenav.detect
from specklenav.camera import CameraModel
from specklenav.detect import (
    AmbiguousMarkerError,
    DegenerateGeometryError,
    MarkerPose,
    NoMarkerFoundError,
    TooFewPointsError,
    _SUBSET_POINTS,
    _cluster_indices,
    _column_counts,
    _orient_toward_origin,
    _plane_support,
    _ransac_inliers,
    _ransac_plane,
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


def test_no_marker_raises():
    with pytest.raises(NoMarkerFoundError):
        detect_ring(scene_cloud(2, marker=None, resolution=(128, 96)))


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
    with pytest.raises(AmbiguousMarkerError):
        detect_ring(cloud)


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


def test_marker_pose_json_schema():
    pose = detect_ring(scene_cloud(11))
    doc = pose.to_json_dict()
    assert set(doc) == {"center", "normal", "radius_mm", "rms_mm", "inliers", "t"}
    assert len(doc["center"]) == 3 and len(doc["normal"]) == 3


def test_clusters_come_in_order_of_smallest_index():
    # Members interleave across clusters, and 7 joins cluster 0 only through 4.
    x = np.array([0.0, 10.0, 20.0, 11.0, 1.0, 30.0, 21.0, 2.0, 12.0])
    points = np.column_stack([x, np.zeros_like(x), np.full_like(x, 400.0)])
    clusters = _cluster_indices(points, 1.5)
    assert [c.tolist() for c in clusters] == [[0, 4, 7], [1, 3, 8], [2, 6], [5]]


def test_clusters_partition_the_points_in_order():
    rng = np.random.default_rng(3)
    points = rng.random((800, 3)) * [60.0, 60.0, 4.0]
    clusters = _cluster_indices(points, 2.5)
    firsts = [int(c[0]) for c in clusters]
    assert firsts == sorted(firsts)
    assert all(np.all(np.diff(c) > 0) for c in clusters)
    assert np.array_equal(np.sort(np.concatenate(clusters)), np.arange(len(points)))
    # Single linkage: any two points within the link share a cluster.
    label = np.empty(len(points), dtype=int)
    for k, c in enumerate(clusters):
        label[c] = k
    a, b = np.nonzero(np.linalg.norm(points[:, None] - points[None], axis=2) <= 2.5)
    assert np.all(label[a] == label[b])
    assert 1 < len(clusters) < len(points)


def scipy_clusters(points, link_mm):
    """Reference single linkage: k-d tree pairs and sparse-graph components."""
    n = len(points)
    if n == 0:
        return []
    pairs = cKDTree(points).query_pairs(link_mm, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    n_comp, labels = connected_components(graph, directed=False)
    members = np.argsort(labels, kind="stable")
    clusters = np.split(members, np.cumsum(np.bincount(labels, minlength=n_comp))[:-1])
    return [c.tolist() for c in sorted(clusters, key=lambda c: c[0])]


def _on_a_plane(x, y, z=400.0):
    return np.column_stack([x, y, np.full(len(x), z)])


def _blobs(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-120.0, 120.0, (12, 3))
    sizes = rng.integers(1, 60, len(centres))
    points = np.concatenate([c + rng.normal(0.0, 6.0, (k, 3)) for c, k in zip(centres, sizes)])
    return points[rng.permutation(len(points))]


_DIAGONAL = np.array([3.0, 4.0, np.sqrt(39.0)])  # 3-4-sqrt(39) has length 8
_PARITY_CASES = {
    "empty": (np.empty((0, 3)), 8.0),
    "one point": (np.array([[1.0, 2.0, 400.0]]), 8.0),
    "duplicates": (np.array([[0.0, 0.0, 400.0], [20.0, 0.0, 400.0], [0.0, 0.0, 400.0],
                             [20.0, 0.0, 400.0], [0.0, 0.0, 400.0]]), 8.0),
    "at the link": (_on_a_plane([0.0, 8.0, 0.0, -8.0], [0.0, 0.0, 8.0, 0.0]), 8.0),
    "diagonal at the link": (np.array([[0.0, 0.0, 400.0], [0.0, 0.0, 400.0] + _DIAGONAL]), 8.0),
    "link just under the gap": (_on_a_plane([0.0, 8.0, 0.0, -8.0], [0.0, 0.0, 8.0, 0.0]),
                                8.0 - 1e-9),
    "gaps of link +- 1e-9": (_on_a_plane([0.0, 8.0 - 1e-9, 30.0, 38.0 + 1e-9],
                                         [0.0, 0.0, 0.0, 0.0]), 8.0),
    "60-hop chain": (_on_a_plane(7.9 * np.random.default_rng(2).permutation(61),
                                 np.zeros(61)), 8.0),
    "blobs 1": (_blobs(1), 8.0),
    "blobs 2": (_blobs(2), 8.0),
    "far apart": (np.array([[1e12, 0.0, 0.0], [0.0, 0.0, 0.0], [1e12 + 8.0, 0.0, 0.0],
                            [-1e15, 5.0, 5.0], [4.0, 3.0, 0.0]]), 8.0),
    "dense slab": (np.random.default_rng(4).random((20_000, 3)) * [400.0, 400.0, 3.0], 8.0),
}


@pytest.mark.parametrize("name", list(_PARITY_CASES))
def test_clusters_match_scipy_single_linkage(name):
    points, link_mm = _PARITY_CASES[name]
    clusters = _cluster_indices(points, link_mm)
    assert [c.tolist() for c in clusters] == scipy_clusters(points, link_mm)


def test_chain_joins_across_60_hops():
    points, link_mm = _PARITY_CASES["60-hop chain"]
    assert [c.tolist() for c in _cluster_indices(points, link_mm)] == [list(range(61))]


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_clusters_do_not_depend_on_the_pair_chunk(monkeypatch, chunk):
    points, link_mm = _PARITY_CASES["blobs 1"]
    whole = [c.tolist() for c in _cluster_indices(points, link_mm)]
    monkeypatch.setattr(specklenav.detect, "_PAIR_CHUNK", chunk)
    assert [c.tolist() for c in _cluster_indices(points, link_mm)] == whole


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
    assert np.array_equal(_ransac_inliers(points, 1.0, iterations, seed), mask)
    got_centroid, got_normal = _ransac_plane(points, 1.0, iterations, seed)
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
        iterations = 300
    elif case == "subset_size":
        points = scene_cloud(5, resolution=(96, 72)).points[:_SUBSET_POINTS]
        iterations = 300
    elif case == "tied_planes":
        # Two equal planes: many hypotheses tie, so the first maximum decides.
        # A few points sit exactly one threshold above each plane.
        points = np.concatenate([two_planes(12),
                                 [[2.5, 3.5, 401.0], [7.5, 1.5, 401.0],
                                  [2.5, 3.5, 461.0], [7.5, 1.5, 461.0]]])
        iterations = 200
    else:
        # Mostly collinear points: many draws are rejected, chunks shrink.
        x = np.linspace(-50.0, 50.0, 60)
        points = np.concatenate([np.column_stack([x, 0.0 * x, 400.0 + 0.0 * x]),
                                 [[0.0, 5.0, 400.0], [3.0, -4.0, 400.0], [9.0, 2.0, 400.0]]])
        iterations = 130
    assert len(points) <= _SUBSET_POINTS
    for seed in (0, 11, 12):
        assert_same_winner(points, iterations, seed)


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
        assert len(points) > _SUBSET_POINTS
        for rng_seed in (0, 11):
            _, c_ref, n_ref = reference_ransac_plane(points, 1.0, 300, rng_seed)
            c, n = _ransac_plane(points, 1.0, 300, rng_seed)
            assert line_gap_deg(n, n_ref) <= 1e-3
            assert abs(float(c @ n) - float(c_ref @ n_ref)) <= 1e-2
            m, m_ref = refit_support(points, c, n), refit_support(points, c_ref, n_ref)
            assert abs(m - m_ref) <= 1e-3 * m_ref
            # The 3x3 scatter refit keeps the SVD normal of the same inliers.
            inliers = points[_ransac_inliers(points, 1.0, 300, rng_seed)]
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
        assert abs(_ransac_plane(points, 1.0, 300, seed)[0][2] - 460.0) < 0.1
        assert_same_winner(points, 300, seed)


def test_single_plane_support_matches_a_column_of_a_wider_product():
    # A chunk with a single non-degenerate draw scores one plane.  Its mask
    # must be the same column that a product over more planes gives, even
    # for a point whose distance is exactly the threshold.
    rng = np.random.default_rng(7)
    for _ in range(50):
        points = rng.uniform(-200.0, 200.0, size=(300, 3)) + [0.0, 0.0, 400.0]
        normals = rng.standard_normal((8, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = np.einsum("ij,ij->i", normals, points[rng.integers(0, 300, size=8)])
        k = int(rng.integers(2, 9))
        dists = np.abs(points @ normals[:k].T - offsets[:k])
        for threshold in dists[::10, 0]:
            wide = _plane_support(points, normals[:k], offsets[:k], threshold)
            single = _plane_support(points, normals[:1], offsets[:1], threshold)
            assert single.shape == (300, 1)
            assert np.array_equal(single[:, 0], wide[:, 0])


def test_column_counts_equal_count_nonzero():
    rng = np.random.default_rng(3)
    for rows, cols in ((_SUBSET_POINTS, 64), (_SUBSET_POINTS, 1), (49152, 8), (7, 3)):
        for fill in (0.0, 0.3, 0.999, 1.0):
            mask = rng.random((rows, cols)) < fill
            if cols > 1:
                mask[:, -1] = False  # an all-false column
            counts = _column_counts(mask)
            assert counts.dtype == np.float64
            assert np.array_equal(counts, np.count_nonzero(mask, axis=0))
    # A single plane's mask is a strided one-column view (the k = 1 path).
    points = rng.uniform(-200.0, 200.0, size=(_SUBSET_POINTS, 3))
    for offset in (0.0, 1e4):  # 1e4: no point within the threshold
        single = _plane_support(points, np.array([[0.0, 0.0, 1.0]]),
                                np.array([offset]), 50.0)
        assert single.shape == (_SUBSET_POINTS, 1)
        assert np.array_equal(_column_counts(single), np.count_nonzero(single, axis=0))

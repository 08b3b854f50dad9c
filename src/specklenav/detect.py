"""Ring-marker detection in depth clouds.

The marker is a hollow ring standing a couple of millimetres proud of
the skin.  Detection proceeds in four steps:

1. a seeded preemptive RANSAC finds the skin plane: every hypothesis
   is counted on an evenly strided subset of at most 2048 points, the
   8 best are counted again on the whole cloud (each count an exact
   BLAS product), and the winner's inliers get a PCA refit from their
   3x3 scatter,
2. a band-pass on plane residuals keeps points riding above it,
3. surviving points are clustered by Euclidean linkage,
4. each cluster gets a 3D circle fit and the ring diameter gate picks
   the winner with the lowest geometric residual.

The fitted circle tracks the middle of the annulus, so the diameter
gate compares against the mean of the outer and inner diameters of the
``RingMarker`` passed in (the scenario's marker in a run).  Only five
degrees of freedom of the marker are observable (centre plus plane
normal); the in-plane angle is not reported.  The normal is always
oriented toward the camera origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from .geometry import Point3
from .scene import PointCloud, RingMarker

_GN_ITERS = 60
# Preemptive RANSAC (Nister 2005): hypotheses are drawn in chunks of
# _CHUNK, each is counted on a strided subset of at most _SUBSET_POINTS
# points, and the _VERIFY_TOP best are counted on the whole cloud.
_CHUNK = 64
_SUBSET_POINTS = 2048
_VERIFY_TOP = 8
_RANSAC_ITERATIONS = 300
_RANSAC_SEED = 0
_PLANE_INLIER_MM = 1.0
# The proud band above the skin plane, the cluster linkage distance (mm),
# the smallest cluster that counts (at least the circle fit's 6 points),
# and how far a cluster's fitted diameter may sit from the marker's mid
# diameter (mm).
_BAND_LOW_MM = 1.0
_BAND_HIGH_MM = 4.0
_CLUSTER_LINK_MM = 8.0
_MIN_INLIERS = 15
_DIAMETER_TOLERANCE_MM = 2.0


class TooFewPointsError(ValueError):
    """Fewer points than the fit can constrain."""


class DegenerateGeometryError(ValueError):
    """Points are collinear or otherwise do not define a plane/circle."""


class NoMarkerFoundError(RuntimeError):
    """No cluster passed the plane band, size and diameter gates."""


class AmbiguousMarkerError(RuntimeError):
    """Two or more clusters fit the ring equally well."""

    def __init__(self, candidates):
        self.candidates = tuple(candidates)
        super().__init__(
            f"{len(self.candidates)} clusters pass the ring gate with comparable residuals")


@dataclass(frozen=True)
class MarkerPose:
    """Detected ring: centre and outward normal in the camera frame.

    ``normal`` points from the marker toward the camera origin.  The
    radius is the mean ring radius (middle of the annulus).
    """

    center: Point3
    normal: np.ndarray
    radius_mm: float
    rms_residual_mm: float
    inlier_count: int
    timestamp_s: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3).copy()
        norm = float(np.linalg.norm(n))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("normal must be unit length")
        c = self.center.as_array()
        if float(n @ c) > 1e-9 * max(1.0, float(np.linalg.norm(c))):
            raise ValueError("normal must point toward the camera origin")
        if self.rms_residual_mm < 0:
            raise ValueError("rms residual must be non-negative")
        if self.radius_mm <= 0:
            raise ValueError("radius must be positive")
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)

    def to_json_dict(self) -> dict:
        return {
            "center": [self.center.x, self.center.y, self.center.z],
            "normal": [float(v) for v in self.normal],
            "radius_mm": self.radius_mm,
            "rms_mm": self.rms_residual_mm,
            "inliers": self.inlier_count,
            "t": self.timestamp_s,
        }


@dataclass(frozen=True)
class CircleFit:
    """Result of ``fit_circle_3d``: centre, unit normal, radius, rms (mm)."""

    center: np.ndarray
    normal: np.ndarray
    radius_mm: float
    rms_mm: float


def _plane_from_points(points: np.ndarray):
    """Least-squares plane: centroid plus the smallest principal axis."""
    centroid = points.mean(axis=0)
    centered = points - centroid
    # SVD of the scatter; the last right singular vector is the normal.
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if len(s) < 3 or s[1] < 1e-9 * max(s[0], 1.0):
        raise DegenerateGeometryError("points are collinear, plane is undefined")
    return centroid, vt[2], vt[0], vt[1]


def _orient_toward_origin(normal: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Flip the normal so it points from the anchor toward the camera origin."""
    d = float(normal @ anchor)
    if d > 0:
        return -normal
    if d == 0 and normal[2] > 0:
        return -normal
    return normal


def fit_circle_3d(points) -> CircleFit:
    """Fit a circle to 3D points: plane projection, Kasa seed, geometric refine.

    The supporting plane comes from the centroid and the smallest
    principal axis.  Points are projected into that plane, an algebraic
    Kasa fit seeds centre and radius, and Gauss-Newton iterations
    minimize the sum of squared radial residuals.  ``rms_mm`` is the
    in-plane geometric residual of the final circle.

    Raises TooFewPointsError below 6 points and DegenerateGeometryError
    for collinear input.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 6:
        raise TooFewPointsError(f"circle fit needs at least 6 points, got {len(pts)}")
    centroid, normal, e1, e2 = _plane_from_points(pts)
    centered = pts - centroid
    x = centered @ e1
    y = centered @ e2

    # Kasa algebraic fit: linear least squares on x^2 + y^2.
    a_mat = np.column_stack([2.0 * x, 2.0 * y, np.ones_like(x)])
    rhs = x * x + y * y
    (cx, cy, k), *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
    r = math.sqrt(max(k + cx * cx + cy * cy, 1e-300))

    for _ in range(_GN_ITERS):
        dx = x - cx
        dy = y - cy
        dist = np.hypot(dx, dy)
        dist = np.maximum(dist, 1e-12)
        res = dist - r
        jac = np.column_stack([-dx / dist, -dy / dist, -np.ones_like(dist)])
        try:
            step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        except np.linalg.LinAlgError:
            raise DegenerateGeometryError("circle normal equations are singular")
        cx += step[0]
        cy += step[1]
        r += step[2]
        if float(np.max(np.abs(step))) < 1e-12:
            break
    if r <= 0 or not np.isfinite(r):
        raise DegenerateGeometryError("circle fit collapsed to non-positive radius")

    dist = np.hypot(x - cx, y - cy)
    rms = float(np.sqrt(np.mean((dist - r) ** 2)))
    center3 = centroid + cx * e1 + cy * e2
    normal = _orient_toward_origin(normal, center3)
    return CircleFit(center=center3, normal=normal, radius_mm=float(r), rms_mm=rms)


def _plane_support(points: np.ndarray, normals: np.ndarray, offsets: np.ndarray,
                   threshold: float) -> np.ndarray:
    """(n, k) inlier mask of k planes ``normal . x = offset``.

    Subset scoring and full verification both use this ``(n, 3) @ (3, k)``
    product and count the mask with ``_column_counts``.  With OpenBLAS
    each entry then has the same bits for any k >= 2, which keeps a cloud
    that is its own subset on the reference's bits.  k = 1 would take a
    matrix-vector path that can differ in the last bit, so a single plane
    is scored as two copies of itself.
    """
    if len(normals) == 1:
        return _plane_support(points, np.repeat(normals, 2, axis=0),
                              np.repeat(offsets, 2), threshold)[:, :1]
    dists = points @ normals.T
    dists -= offsets
    np.abs(dists, out=dists)
    return dists <= threshold


def _column_counts(mask: np.ndarray) -> np.ndarray:
    """True entries per column of an (n, k) mask, as float64.

    One BLAS product of a ones-vector with the mask cast to float64, which
    is several times quicker than ``np.count_nonzero(mask, axis=0)``.
    Every partial sum is an integer below 2**53, so each count is exact
    whatever order the product adds in.
    """
    return np.ones(len(mask)) @ mask.astype(np.float64)


def _ransac_inliers(points: np.ndarray, threshold: float, iterations: int,
                    seed: int) -> np.ndarray:
    """Inlier mask of the best consensus plane, by preemptive RANSAC.

    Hypotheses come from the counter-based Philox generator in chunks of
    64, so runs are reproducible on any platform for a given seed.  Each
    is counted on an evenly strided subset of ``_SUBSET_POINTS`` points
    that depends on the cloud size alone and draws nothing from the
    generator.  The ``_VERIFY_TOP`` best by subset support (ties in
    hypothesis order) are counted again on the whole cloud; the highest
    full support wins, the earliest hypothesis on a tie.  A cloud of at
    most ``_SUBSET_POINTS`` points is its own subset, so the winner is
    the first maximum over every hypothesis.
    """
    n = len(points)
    if n < 3:
        raise TooFewPointsError("plane fit needs at least 3 points")
    rng = np.random.Generator(np.random.Philox(key=seed))
    subset = points
    if n > _SUBSET_POINTS:
        subset = points[(np.arange(_SUBSET_POINTS) * n) // _SUBSET_POINTS]
    normals, offsets, support = [], [], []
    done = 0
    while done < iterations:
        m = min(_CHUNK, iterations - done)
        done += m
        tri = rng.integers(0, n, size=(m, 3))
        p0 = points[tri[:, 0]]
        a = points[tri[:, 1]] - p0
        b = points[tri[:, 2]] - p0
        # a x b by components: the same products and differences as np.cross.
        cross = np.column_stack([a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
                                 a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
                                 a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]])
        norms = np.linalg.norm(cross, axis=1)
        ok = norms > 1e-12
        if not np.any(ok):
            continue
        unit = cross[ok] / norms[ok, None]
        offset = np.einsum("ij,ij->i", p0[ok], unit)
        support.append(_column_counts(_plane_support(subset, unit, offset, threshold)))
        normals.append(unit)
        offsets.append(offset)
    if not normals:
        raise DegenerateGeometryError("RANSAC found no plane support")
    # The stable sort keeps tied hypotheses in draw order; sorting the
    # picks back into draw order makes argmax return the earliest of the
    # hypotheses that tie on the full cloud.
    top = np.sort(np.argsort(-np.concatenate(support), kind="stable")[:_VERIFY_TOP])
    within = _plane_support(points, np.concatenate(normals)[top],
                            np.concatenate(offsets)[top], threshold)
    counts = _column_counts(within)
    best = int(np.argmax(counts))
    if counts[best] < 3:
        raise DegenerateGeometryError("RANSAC found no plane support")
    return within[:, best]


def _ransac_plane(points: np.ndarray, threshold: float, iterations: int,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and unit normal of the ``_ransac_inliers`` plane, refit.

    The refit is a PCA of the inliers: the normal is the eigenvector of
    the smallest eigenvalue of their 3x3 scatter about the centroid,
    oriented toward the camera origin.
    """
    # np.compress picks the same rows as boolean indexing, several times
    # faster on (n, 3) points.
    inliers = np.compress(_ransac_inliers(points, threshold, iterations, seed),
                          points, axis=0)
    centroid = inliers.mean(axis=0)
    centered = inliers - centroid
    _, axes = np.linalg.eigh(centered.T @ centered)
    return centroid, _orient_toward_origin(axes[:, 0], centroid)


def _cluster_indices(points: np.ndarray, link_mm: float) -> list[np.ndarray]:
    """Single-linkage Euclidean clusters.

    Clusters come in order of their smallest point index, and each lists
    its members in ascending order.
    """
    # Imported here: loading csgraph adds about 4 MB of resident memory,
    # which callers that only need MarkerPose, such as respiration, skip.
    from scipy.sparse.csgraph import connected_components

    n = len(points)
    if n == 0:
        return []
    pairs = cKDTree(points).query_pairs(link_mm, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    n_comp, labels = connected_components(graph, directed=False)
    members = np.argsort(labels, kind="stable")
    clusters = np.split(members, np.cumsum(np.bincount(labels, minlength=n_comp))[:-1])
    return sorted(clusters, key=lambda c: c[0])


def detect_ring(cloud: PointCloud, marker: RingMarker = RingMarker()) -> MarkerPose:
    """Find ``marker`` in a cloud. See the module docstring for the steps.

    Raises NoMarkerFoundError when nothing passes the gates and
    AmbiguousMarkerError when several clusters pass with geometric
    residuals within 10 percent of each other (both candidate poses are
    attached to the error).
    """
    pts = cloud.points
    if len(pts) < _MIN_INLIERS:
        raise NoMarkerFoundError(f"cloud has only {len(pts)} points")
    centroid, normal = _ransac_plane(pts, _PLANE_INLIER_MM, _RANSAC_ITERATIONS,
                                     _RANSAC_SEED)
    heights = (pts - centroid) @ normal
    band = (heights >= _BAND_LOW_MM) & (heights <= _BAND_HIGH_MM)
    candidates_pts = np.compress(band, pts, axis=0)
    if len(candidates_pts) < _MIN_INLIERS:
        raise NoMarkerFoundError("no points in the proud band above the skin plane")

    fits = []
    for cluster in _cluster_indices(candidates_pts, _CLUSTER_LINK_MM):
        if len(cluster) < _MIN_INLIERS:
            continue
        try:
            fit = fit_circle_3d(candidates_pts[cluster])
        except (TooFewPointsError, DegenerateGeometryError):
            continue
        if abs(2.0 * fit.radius_mm - marker.mid_diameter_mm) <= _DIAMETER_TOLERANCE_MM:
            fits.append((fit, len(cluster)))
    if not fits:
        raise NoMarkerFoundError("no cluster passed the ring diameter gate")

    fits.sort(key=lambda fc: fc[0].rms_mm)
    poses = [MarkerPose(center=Point3.from_array(fit.center),
                        normal=fit.normal,
                        radius_mm=fit.radius_mm,
                        rms_residual_mm=fit.rms_mm,
                        inlier_count=count,
                        timestamp_s=cloud.timestamp_s)
             for fit, count in fits]
    if len(poses) >= 2:
        best, runner = poses[0], poses[1]
        scale = max(best.rms_residual_mm, runner.rms_residual_mm, 1e-12)
        if (runner.rms_residual_mm - best.rms_residual_mm) <= 0.10 * scale:
            raise AmbiguousMarkerError(poses)
    return poses[0]


def track_window(previous: MarkerPose,
                 marker: RingMarker = RingMarker()) -> tuple[np.ndarray, float]:
    """The sphere (centre, radius) that ``track`` crops a cloud to: three
    times the marker's outer diameter around the previous centre."""
    return previous.center.as_array(), 3.0 * marker.outer_diameter_mm


def detect_in_crop(crop: PointCloud,
                   marker: RingMarker = RingMarker()) -> MarkerPose | None:
    """``detect_ring`` on a cloud cropped to ``track_window``, or None when
    the crop fails: it holds no ring (too few points included), several
    rings or degenerate geometry."""
    try:
        return detect_ring(crop, marker)
    except (NoMarkerFoundError, AmbiguousMarkerError, DegenerateGeometryError):
        return None


def track(previous: MarkerPose, cloud: PointCloud,
          marker: RingMarker = RingMarker()) -> MarkerPose:
    """Re-detect near the previous pose, falling back to a full search.

    The cloud is cropped to ``track_window``; when ``detect_in_crop`` fails
    on the crop, the whole cloud gets one ``detect_ring``.
    """
    center, radius = track_window(previous, marker)
    mask = np.linalg.norm(cloud.points - center, axis=1) <= radius
    crop = PointCloud(points=np.compress(mask, cloud.points, axis=0),
                      timestamp_s=cloud.timestamp_s, seed=cloud.seed)
    pose = detect_in_crop(crop, marker)
    return detect_ring(cloud, marker) if pose is None else pose

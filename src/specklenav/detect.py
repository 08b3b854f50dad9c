"""Ring-marker detection in depth clouds.

The marker is a hollow ring standing a couple of millimetres proud of
the skin.  Detection proceeds in four steps:

1. a seeded preemptive RANSAC finds the skin plane: every hypothesis
   is counted on an evenly strided subset of at most 2048 points, the
   8 best are counted again on the whole cloud, and the winner's
   inliers get a PCA refit,
2. a band-pass on plane residuals keeps points riding above it,
3. surviving points are clustered by Euclidean linkage,
4. each cluster gets a 3D circle fit and the ring diameter gate picks
   the winner with the lowest geometric residual.

The fitted circle tracks the middle of the annulus, so the diameter
gate compares against the mean of the expected outer and inner
diameters.  Only five degrees of freedom of the marker are observable
(centre plus plane normal); the in-plane angle is not reported.  The
normal is always oriented toward the camera origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import cKDTree

from .geometry import Point3
from .scene import PointCloud

_GN_ITERS = 60
# Preemptive RANSAC (Nister 2005): hypotheses are drawn in chunks of
# _CHUNK, each is counted on a strided subset of at most _SUBSET_POINTS
# points, and the _VERIFY_TOP best are counted on the whole cloud.
_CHUNK = 64
_SUBSET_POINTS = 2048
_VERIFY_TOP = 8


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
class DetectParams:
    """Tuning knobs for ``detect_ring``. Lengths in mm."""

    expected_outer_diameter_mm: float = 24.0
    expected_inner_diameter_mm: float = 16.0
    diameter_tolerance_mm: float = 2.0
    ransac_iterations: int = 300
    plane_inlier_threshold_mm: float = 1.0
    min_inliers: int = 15
    rng_seed: int = 0
    band_low_mm: float = 1.0
    band_high_mm: float = 4.0
    cluster_link_mm: float = 8.0

    def __post_init__(self):
        if not (0 < self.expected_inner_diameter_mm < self.expected_outer_diameter_mm):
            raise ValueError("need 0 < inner < outer expected diameter")
        if self.diameter_tolerance_mm <= 0:
            raise ValueError("diameter tolerance must be positive")
        if self.ransac_iterations < 1:
            raise ValueError("ransac_iterations must be >= 1")
        if self.plane_inlier_threshold_mm <= 0:
            raise ValueError("plane inlier threshold must be positive")
        if self.min_inliers < 6:
            raise ValueError("min_inliers must be at least 6 (circle fit minimum)")
        if not (0 <= self.band_low_mm < self.band_high_mm):
            raise ValueError("need 0 <= band_low < band_high")
        if self.cluster_link_mm <= 0:
            raise ValueError("cluster_link_mm must be positive")

    @property
    def expected_mid_diameter_mm(self) -> float:
        return (self.expected_outer_diameter_mm + self.expected_inner_diameter_mm) / 2.0


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
    product.  With OpenBLAS each entry then has the same bits for any
    k >= 2, which keeps a cloud that is its own subset on the reference's
    bits.  k = 1 would take a matrix-vector path that can differ in the
    last bit, so a single plane is scored as two copies of itself.
    """
    if len(normals) == 1:
        return _plane_support(points, np.repeat(normals, 2, axis=0),
                              np.repeat(offsets, 2), threshold)[:, :1]
    dists = points @ normals.T
    dists -= offsets
    np.abs(dists, out=dists)
    return dists <= threshold


def _ransac_plane(points: np.ndarray, threshold: float, iterations: int,
                  seed: int):
    """Best consensus plane via preemptive RANSAC, then a PCA refit on inliers.

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
        cross = np.cross(points[tri[:, 1]] - p0, points[tri[:, 2]] - p0)
        norms = np.linalg.norm(cross, axis=1)
        ok = norms > 1e-12
        if not np.any(ok):
            continue
        unit = cross[ok] / norms[ok, None]
        offset = np.einsum("ij,ij->i", p0[ok], unit)
        support.append(np.count_nonzero(
            _plane_support(subset, unit, offset, threshold), axis=0))
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
    counts = np.count_nonzero(within, axis=0)
    best = int(np.argmax(counts))
    if counts[best] < 3:
        raise DegenerateGeometryError("RANSAC found no plane support")
    inliers = points[within[:, best]]
    centroid = inliers.mean(axis=0)
    _, _, vt = np.linalg.svd(inliers - centroid, full_matrices=False)
    normal = _orient_toward_origin(vt[2], centroid)
    # Final inlier set against the refined plane.
    mask = np.abs((points - centroid) @ normal) <= threshold
    return centroid, normal, mask


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


def detect_ring(cloud: PointCloud, params: DetectParams = DetectParams()) -> MarkerPose:
    """Find the ring marker in a cloud. See the module docstring for the steps.

    Raises NoMarkerFoundError when nothing passes the gates and
    AmbiguousMarkerError when several clusters pass with geometric
    residuals within 10 percent of each other (both candidate poses are
    attached to the error).
    """
    pts = cloud.points
    if len(pts) < params.min_inliers:
        raise NoMarkerFoundError(f"cloud has only {len(pts)} points")
    centroid, normal, _ = _ransac_plane(
        pts, params.plane_inlier_threshold_mm, params.ransac_iterations,
        params.rng_seed)
    heights = (pts - centroid) @ normal
    band = (heights >= params.band_low_mm) & (heights <= params.band_high_mm)
    candidates_pts = pts[band]
    if len(candidates_pts) < params.min_inliers:
        raise NoMarkerFoundError("no points in the proud band above the skin plane")

    fits = []
    for cluster in _cluster_indices(candidates_pts, params.cluster_link_mm):
        if len(cluster) < max(params.min_inliers, 6):
            continue
        try:
            fit = fit_circle_3d(candidates_pts[cluster])
        except (TooFewPointsError, DegenerateGeometryError):
            continue
        if abs(2.0 * fit.radius_mm - params.expected_mid_diameter_mm) \
                <= params.diameter_tolerance_mm:
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


def track(previous: MarkerPose, cloud: PointCloud,
          params: DetectParams = DetectParams()) -> MarkerPose:
    """Re-detect near the previous pose, falling back to a full search.

    The cloud is cropped to a sphere of three times the expected outer
    diameter around the previous centre; any failure inside the crop
    triggers one full-cloud ``detect_ring``.
    """
    radius = 3.0 * params.expected_outer_diameter_mm
    center = previous.center.as_array()
    mask = np.linalg.norm(cloud.points - center, axis=1) <= radius
    if int(mask.sum()) >= params.min_inliers:
        cropped = PointCloud(points=cloud.points[mask],
                             timestamp_s=cloud.timestamp_s, seed=cloud.seed)
        try:
            return detect_ring(cropped, params)
        except (NoMarkerFoundError, AmbiguousMarkerError, DegenerateGeometryError):
            pass
    return detect_ring(cloud, params)

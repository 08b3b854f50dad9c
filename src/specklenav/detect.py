"""Ring-marker detection in depth clouds.

The marker is a hollow ring standing a couple of millimetres proud of
the skin.  Detection proceeds in four steps:

1. a seeded preemptive RANSAC finds the skin plane: the hypotheses run
   Nister's preemption schedule on eight interleaved blocks of an evenly
   strided 2048-point subset, the better half surviving each block, the
   last 8 are counted again on the whole cloud (a cloud of at most 2048
   points is counted whole), and the winner's inliers get a PCA refit
   from their 3x3 scatter.  A tracked crop (``detect_in_crop``) seeds it
   with the previous pose instead: a PCA fit to the points within 3 mm of the
   fullest 2 mm bin of heights along its normal, refit twice to the points
   within 1 mm; RANSAC takes over when a fit holds under 50 points or
   under half of the crop,
2. a band-pass on plane residuals keeps points riding above it,
3. surviving points are clustered by single Euclidean linkage: sorted
   along x, each point is tested against the points at most one link
   further along, and the linked pairs are joined by hook-and-compress,
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

from .geometry import Point3
from .scene import PointCloud, RingMarker, _row_norm

_GN_ITERS = 60
# Preemptive RANSAC (Nister 2005): the hypotheses run a preemption schedule
# on _BLOCKS blocks of a strided subset of _SUBSET_POINTS points; the
# _VERIFY_TOP survivors are counted on the whole cloud, by products of at
# most _PRODUCT_ENTRIES entries.
_SUBSET_POINTS = 2048
_PRODUCT_ENTRIES = 64 * _SUBSET_POINTS
_BLOCKS = 8
_VERIFY_TOP = 8
_RANSAC_ITERATIONS = 300
_RANSAC_SEED = 0
_PLANE_INLIER_MM = 1.0
# A tracked crop's skin plane from the previous pose (``_prior_plane``): the
# seed bin and band, the refits, and the fewest inliers it may fit to.
_SKIN_BIN_MM = 2.0
_SKIN_BAND_MM = 3.0
_PRIOR_REFITS = 2
_PRIOR_MIN_INLIERS = 50
# The proud band above the skin plane, the cluster linkage distance (mm),
# the smallest cluster that counts (at least the circle fit's 6 points),
# and how far a cluster's fitted diameter may sit from the marker's mid
# diameter (mm).
_BAND_LOW_MM = 1.0
_BAND_HIGH_MM = 4.0
_CLUSTER_LINK_MM = 8.0
_MIN_INLIERS = 15
_DIAMETER_TOLERANCE_MM = 2.0
# Linkage sweep: the x window is the link widened by a part per million, so
# that rounding in ``x + link`` never drops a linked pair.  Candidate pairs
# are screened in blocks of whole points, at most _PAIR_CHUNK pairs unless
# one point has more, which bounds the memory a dense band can take.
_LINK_SLACK = 1.0 + 1e-6
_PAIR_CHUNK = 1 << 20


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


@dataclass(frozen=True, slots=True)
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
        for name in ("radius_mm", "rms_residual_mm", "timestamp_s"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"MarkerPose.{name} must be finite, got {v!r}")
        n = np.asarray(self.normal, dtype=float).reshape(3).copy()
        norm = math.sqrt(n.dot(n))
        if not math.isfinite(norm):
            raise ValueError(f"normal must be finite, got {n.tolist()}")
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("normal must be unit length")
        c = self.center.as_array()
        if float(n @ c) > 1e-9 * max(1.0, math.sqrt(c.dot(c))):
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


@dataclass(frozen=True, slots=True)
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

    # One Jacobian, filled in place each iteration; its last column is -1.
    jac = np.empty((len(x), 3))
    jac[:, 2] = -1.0
    for _ in range(_GN_ITERS):
        dx = x - cx
        dy = y - cy
        dist = np.hypot(dx, dy)
        dist = np.maximum(dist, 1e-12)
        res = dist - r
        np.divide(-dx, dist, out=jac[:, 0])
        np.divide(-dy, dist, out=jac[:, 1])
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


def _plane_support(rows: np.ndarray, normals: np.ndarray, offsets: np.ndarray,
                   threshold: float) -> np.ndarray:
    """(k, n) inlier mask of k planes ``normal . x = offset`` over (3, n) rows.

    Every count comes from here, as ``(k, 3) @ (3, m)`` products on even
    slices of the points, each of at most ``_PRODUCT_ENTRIES`` entries.
    With OpenBLAS each entry then keeps the bits of the reference's products
    on at most 2048 points; one product of more than about 333,000 entries
    can round the last points of a cloud of 4 to 7 mod 8 points otherwise.
    One plane would take a matrix-vector path, so it is scored as two copies.
    """
    if len(normals) == 1:
        return _plane_support(rows, np.repeat(normals, 2, axis=0),
                              np.repeat(offsets, 2), threshold)[:1]
    masks = []
    for piece in np.array_split(rows, -(-len(normals) * rows.shape[1] // _PRODUCT_ENTRIES),
                                axis=1):
        dists = normals @ piece
        dists -= offsets[:, None]
        np.abs(dists, out=dists)
        masks.append(dists <= threshold)
    return np.concatenate(masks, axis=1)


def _ransac_inliers(points: np.ndarray, rows: np.ndarray, threshold: float,
                    iterations: int, seed: int) -> np.ndarray:
    """Inlier mask of the best consensus plane, by preemptive RANSAC.

    Hypotheses come from one draw of the counter-based Philox generator, so
    runs are reproducible on any platform for a given seed.  On a
    cloud of more than ``_SUBSET_POINTS`` points they run Nister's
    preemption schedule on an evenly strided subset of that many points,
    which depends on the cloud size alone, dealt into ``_BLOCKS``
    interleaved blocks that each span the whole image.  All are counted on
    the first block, each further block adds to the survivors' counts, and
    after each the better half survives (ties in draw order), never fewer
    than ``_VERIFY_TOP``.  The survivors are counted on the whole cloud;
    the highest count wins, the earliest on a tie.  A smaller cloud is
    counted whole, so the winner is the first maximum over every
    hypothesis.  ``rows`` holds ``points`` as (3, n) coordinate rows.
    """
    n = len(points)
    if n < 3:
        raise TooFewPointsError("plane fit needs at least 3 points")
    tri = np.random.Generator(np.random.Philox(key=seed)).integers(0, n, size=(iterations, 3))
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
        raise DegenerateGeometryError("RANSAC found no plane support")
    normals = cross[ok] / norms[ok, None]
    offsets = np.einsum("ij,ij->i", p0[ok], normals)
    if n > _SUBSET_POINTS:
        picks = (np.arange(_SUBSET_POINTS) * n) // _SUBSET_POINTS
        counts = np.zeros(len(normals), dtype=np.intp)
        for j in range(_BLOCKS):
            if len(counts) <= _VERIFY_TOP:
                break
            # Block j holds subset points j, j + _BLOCKS, j + 2 * _BLOCKS, ...
            block = rows[:, picks[j::_BLOCKS]]
            counts += np.count_nonzero(_plane_support(block, normals, offsets, threshold),
                                       axis=1)
            # The stable sort keeps tied hypotheses in draw order, and the
            # survivors are put back in draw order.
            survivors = max(len(counts) // 2, _VERIFY_TOP)
            keep = np.sort(np.argsort(-counts, kind="stable")[:survivors])
            normals, offsets, counts = normals[keep], offsets[keep], counts[keep]
    within = _plane_support(rows, normals, offsets, threshold)
    # Row by row: along an axis, count_nonzero first casts the whole mask.
    counts = [np.count_nonzero(row) for row in within]
    best = int(np.argmax(counts))
    if counts[best] < 3:
        raise DegenerateGeometryError("RANSAC found no plane support")
    return within[best]


def _ransac_plane(points: np.ndarray, rows: np.ndarray, threshold: float,
                  iterations: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``_scatter_plane`` refit of the ``_ransac_inliers`` plane."""
    return _scatter_plane(rows.compress(
        _ransac_inliers(points, rows, threshold, iterations, seed), axis=1))


def _scatter_plane(inliers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """PCA plane of the (3, m) rows ``inliers``: their centroid, and the
    smallest-eigenvalue axis of their 3x3 scatter oriented toward the camera
    origin.  The centroid is the (m, 3) ``mean(axis=0)`` bit for bit: both
    add the points in order, which the running sum does and a row sum's
    pairwise reduction does not."""
    centered = np.cumsum(inliers, axis=1)
    centroid = centered[:, -1] / inliers.shape[1]
    np.subtract(inliers, centroid[:, None], out=centered)
    _, axes = np.linalg.eigh(centered @ centered.T)
    return centroid, _orient_toward_origin(axes[:, 0], centroid)


def _prior_plane(points: np.ndarray, rows: np.ndarray,
                 normal: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The skin plane of a tracked crop from the previous pose's ``normal``,
    as the module docstring says, or None when a fitted set is too small.
    The refits are the local optimisation of LO-RANSAC (Chum, Matas &
    Kittler 2003), seeded by the prior instead of a sample.  ``rows`` holds
    ``points`` as (3, n) coordinate rows."""
    heights = points @ normal
    low = heights.min()
    fullest = np.argmax(np.bincount(((heights - low) / _SKIN_BIN_MM).astype(np.int64)))
    near = np.abs(heights - (low + (fullest + 0.5) * _SKIN_BIN_MM)) <= _SKIN_BAND_MM
    for _ in range(1 + _PRIOR_REFITS):
        inliers = rows.compress(near, axis=1)
        if inliers.shape[1] < max(_PRIOR_MIN_INLIERS, len(points) / 2):
            return None
        centroid, normal = _scatter_plane(inliers)
        near = np.abs(_heights(rows, centroid, normal)) <= _PLANE_INLIER_MM
    return centroid, normal


def _heights(rows: np.ndarray, centroid: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """``(points - centroid) @ normal`` bit for bit, from the (3, n) rows: a
    product on the rows would add in another order."""
    centered = np.empty((rows.shape[1], 3))
    np.subtract(rows, centroid[:, None], out=centered.T)
    return centered @ normal


def _hook_and_compress(labels: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the components of edges ``a[k]``-``b[k]`` (Shiloach & Vishkin 1982).

    ``labels`` maps each point to its component's root, the component's
    smallest index; every root hooks onto the smallest root it shares an
    edge with, and pointer jumping flattens the trees again, until no edge
    joins two roots.
    """
    while True:
        ra, rb = labels[a], labels[b]
        split = ra != rb
        if not split.any():
            return labels
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(labels, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def _cluster_indices(points: np.ndarray, link_mm: float) -> list[np.ndarray]:
    """Single-linkage Euclidean clusters.

    A pair links when its squared distance is at most ``link_mm**2``.
    Clusters come in order of their smallest point index, and each lists
    its members in ascending order.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        return []
    order = np.argsort(points[:, 0], kind="stable")
    x, y, z = points[order].T.copy()
    # Sorted point i pairs with sorted points i + 1 .. ends[i] - 1, its run;
    # candidate k of the sweep is sorted point k - shift[i] of point i's run.
    first = np.arange(1, n + 1)
    ends = np.searchsorted(x, x + link_mm * _LINK_SLACK, side="right")
    counts = ends - first
    runs = np.concatenate([[0], np.cumsum(counts)])
    shift = runs[:-1] - first
    link_sq = link_mm * link_mm
    labels = np.arange(n)
    start = 0
    while start < n:
        # Whole points whose runs sum to at most _PAIR_CHUNK, or one point.
        stop = max(int(np.searchsorted(runs, runs[start] + _PAIR_CHUNK, side="right")) - 1,
                   start + 1)
        i = np.repeat(np.arange(start, stop), counts[start:stop])
        j = np.arange(runs[start], runs[stop]) - shift[i]
        dx, dy, dz = x[i] - x[j], y[i] - y[j], z[i] - z[j]
        # The same sum, in the same order, as a k-d tree's squared distance.
        near = dx * dx + dy * dy + dz * dz <= link_sq
        labels = _hook_and_compress(labels, order[i[near]], order[j[near]])
        start = stop
    members = np.argsort(labels, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(labels[members])) + 1).tolist(), n]
    return [members[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def detect_ring(cloud: PointCloud, marker: RingMarker = RingMarker()) -> MarkerPose:
    """Find ``marker`` in a cloud. See the module docstring for the steps.

    Raises NoMarkerFoundError when nothing passes the gates and
    AmbiguousMarkerError when several clusters pass with geometric
    residuals within 10 percent of each other (both candidate poses are
    attached to the error).
    """
    return _detect(cloud, marker, None)


def _detect(cloud: PointCloud, marker: RingMarker,
            prior_normal: np.ndarray | None) -> MarkerPose:
    """Steps 1-4 of the module docstring.  The skin plane is ``_prior_plane``
    when ``prior_normal`` is given and its fit holds, else ``_ransac_plane``."""
    pts = cloud.points
    if len(pts) < _MIN_INLIERS:
        raise NoMarkerFoundError(f"cloud has only {len(pts)} points")
    rows = np.ascontiguousarray(pts.T)
    plane = None if prior_normal is None else _prior_plane(pts, rows, prior_normal)
    centroid, normal = plane or _ransac_plane(pts, rows, _PLANE_INLIER_MM,
                                              _RANSAC_ITERATIONS, _RANSAC_SEED)
    heights = _heights(rows, centroid, normal)
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
        except DegenerateGeometryError:
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


def detect_in_crop(crop: PointCloud, marker: RingMarker,
                   previous: MarkerPose) -> MarkerPose | None:
    """``detect_ring`` on a cloud cropped to ``track_window``, with the skin
    plane seeded by ``previous``; None when the crop fails: it holds no ring
    (too few points included), several rings or degenerate geometry."""
    try:
        return _detect(crop, marker, previous.normal)
    except (NoMarkerFoundError, AmbiguousMarkerError, DegenerateGeometryError):
        return None


def track(previous: MarkerPose, cloud: PointCloud,
          marker: RingMarker = RingMarker()) -> MarkerPose:
    """Re-detect near the previous pose, falling back to a full search.

    The cloud is cropped to ``track_window``; when ``detect_in_crop`` fails
    on the crop, the whole cloud gets one ``detect_ring``.
    """
    center, radius = track_window(previous, marker)
    mask = _row_norm(np.ascontiguousarray(cloud.points.T) - center[:, None]) <= radius
    crop = PointCloud(points=np.compress(mask, cloud.points, axis=0),
                      timestamp_s=cloud.timestamp_s, seed=cloud.seed)
    pose = detect_in_crop(crop, marker, previous)
    return detect_ring(cloud, marker) if pose is None else pose

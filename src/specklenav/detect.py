"""Ring-marker detection in depth clouds.

The marker is a hollow ring standing a couple of millimetres proud of
the skin.  Detection proceeds in four steps:

1. a seeded preemptive RANSAC (``_ransac_inliers``) finds the skin plane,
   or for a tracked crop (``detect_in_crop``) a fit seeded by the previous
   pose (``_prior_plane``),
2. a band-pass on plane residuals keeps points riding above it,
3. the band points vote for the ring's centre on a 1 mm grid in the skin
   plane through a zero-sum kernel of the marker's radii (a circle Hough
   transform's matched filter, Duda & Hart 1972); a peak scores its response
   over the local skin density, about 1 for a whole ring: under 0.5 is no
   ring, and a second peak over an outer diameter away at 0.9 of the best
   makes the detection ambiguous,
4. the band points within 2 mm of the annulus around the peak get a 3D
   circle fit, which must pass the ring diameter gate.

The fitted circle tracks the middle of the annulus, so the diameter gate
compares against the mean diameter of the ``RingMarker`` passed in.  Only
the centre and the plane normal are observable; the normal is oriented
toward the camera origin.
"""
from __future__ import annotations

import functools
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
# The proud band above the skin plane, the fewest points a band or a fit
# may hold (at least the circle fit's 6 points), and how far a fitted
# diameter may sit from the marker's mid diameter (mm).
_BAND_LOW_MM = 1.0
_BAND_HIGH_MM = 4.0
_MIN_INLIERS = 15
_DIAMETER_TOLERANCE_MM = 2.0
# The ring search: the kernel's halo, which also widens the skin-density
# disc; the score floor and a rival's share of the best; how far outside the
# annulus fitted points may lie (mm); the most cells (128 MB) a vote may span.
_HALO_MM = 4.0
_SCORE_FLOOR = 0.5
_RIVAL_SHARE = 0.9
_FIT_MARGIN_MM = 2.0
_MAX_GRID_CELLS = 1 << 24


class TooFewPointsError(ValueError):
    """Fewer points than the fit can constrain."""


class DegenerateGeometryError(ValueError):
    """Points are collinear or otherwise do not define a plane/circle."""


class NoMarkerFoundError(RuntimeError):
    """No annulus peak scores _SCORE_FLOOR, or its circle fails the gates."""


class AmbiguousMarkerError(RuntimeError):
    """Two annulus peaks more than an outer diameter apart both score at
    least _SCORE_FLOOR and _RIVAL_SHARE of the best, and both fit;
    ``candidates`` holds both fitted poses, the best first."""

    def __init__(self, candidates):
        self.candidates = tuple(candidates)
        super().__init__(f"two annulus peaks score within {1 - _RIVAL_SHARE:.0%} of each other")


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
    return -normal if d > 0 or (d == 0 and normal[2] > 0) else normal


def fit_circle_3d(points) -> CircleFit:
    """Fit a circle to 3D points: projection into their principal plane, a
    Kasa seed, Gauss-Newton on the radial residuals, whose rms is ``rms_mm``.
    Raises TooFewPointsError below 6 points and DegenerateGeometryError
    for collinear input."""
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
    """(k, n) inlier mask of k planes ``normal . x = offset`` over (3, n) rows,
    from ``(k, 3) @ (3, m)`` products of at most ``_PRODUCT_ENTRIES`` entries:
    with OpenBLAS those keep the bits of products on at most 2048 points,
    where a larger one can round the last points.  One plane would take a
    matrix-vector path, so it is scored as two copies."""
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
    """Inlier mask of the best consensus plane, by preemptive RANSAC on
    hypotheses from one seeded Philox draw.  Past ``_SUBSET_POINTS`` points
    they run Nister's schedule on an evenly strided subset of that many,
    dealt into ``_BLOCKS`` interleaved blocks: after each block the better
    half survives (ties in draw order), never fewer than ``_VERIFY_TOP``,
    and the survivors are counted on the whole cloud.  The highest count
    wins, the earliest on a tie.  ``rows`` holds ``points`` as (3, n) rows."""
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


@functools.lru_cache(maxsize=8)
def _annulus_kernel(r_in: float, r_out: float) -> tuple[np.ndarray, np.ndarray, int]:
    """(2, k) whole-millimetre cell offsets, their weights and their reach:
    +1/a on the a cells of the annulus ``r_in..r_out``, -1/b on the b cells
    of the hole (r < r_in - 1) and of the halo (r_out + 1 .. r_out + _HALO_MM)."""
    reach = math.floor(r_out + _HALO_MM)
    r = np.hypot(*np.mgrid[-reach:reach + 1, -reach:reach + 1])
    ring = (r >= r_in) & (r <= r_out)
    rest = (r < r_in - 1.0) | ((r >= r_out + 1.0) & (r <= r_out + _HALO_MM))
    a, b = np.count_nonzero(ring), np.count_nonzero(rest)
    offsets = np.concatenate([np.argwhere(ring), np.argwhere(rest)]).T - reach
    weights = np.concatenate([np.full(a, 1.0 / a), np.full(b, -1.0 / b)])
    offsets.flags.writeable = weights.flags.writeable = False
    return offsets, weights, reach


def _skin_density(rows: np.ndarray, heights: np.ndarray, center: np.ndarray,
                  radius: float) -> float:
    """Points per mm^2 within _BAND_HIGH_MM of the skin plane and within
    ``radius`` in the plane of ``center``, a point on it.  Only points within
    ``radius + _BAND_HIGH_MM`` of it in x and in y can count."""
    reach = radius + _BAND_HIGH_MM
    near = np.flatnonzero(np.abs(rows[0] - center[0]) <= reach)
    near = near[np.abs(rows[1, near] - center[1]) <= reach]
    offsets = rows[:, near] - center[:, None]
    h = heights[near]
    inside = ((np.abs(h) <= _BAND_HIGH_MM)
              & (np.einsum("ij,ij->j", offsets, offsets) - h * h <= radius * radius))
    return np.count_nonzero(inside) / (math.pi * radius * radius)


def _ring_search(band: np.ndarray, rows: np.ndarray, heights: np.ndarray,
                 centroid: np.ndarray, normal: np.ndarray,
                 marker: RingMarker) -> list[tuple[float, np.ndarray]]:
    """Step 3 of the module docstring: (score, skin point) of the highest
    response, then of the highest more than an outer diameter from it, if
    any.  The votes are one weighted ``np.bincount`` over the band points'
    flat cell keys plus the kernel's flat offsets, on the grid the kernel
    reaches from them.  ``rows`` and ``heights`` cover the whole cloud."""
    # Any in-plane axes will do: e1 is normal to the axis least along the normal.
    e1 = np.cross(normal, np.eye(3)[np.argmin(np.abs(normal))])
    e1 /= math.sqrt(e1 @ e1)
    basis = np.column_stack([e1, np.cross(normal, e1)])
    cells = np.floor((band - centroid) @ basis + 0.5).astype(np.intp)
    r_out = marker.outer_diameter_mm / 2.0
    offsets, weights, reach = _annulus_kernel(marker.inner_diameter_mm / 2.0, r_out)
    low = cells.min(axis=0) - reach
    rows_, cols = cells.max(axis=0) + reach + 1 - low
    if rows_ * cols > _MAX_GRID_CELLS:
        raise NoMarkerFoundError(f"the proud band spans {rows_} x {cols} mm, too wide to search")
    keys = (cells[:, 0] - low[0]) * cols + (cells[:, 1] - low[1])
    grid = np.bincount((keys[:, None] + (offsets[0] * cols + offsets[1])).ravel(),
                       weights=np.broadcast_to(weights, (len(keys), len(weights))).ravel(),
                       minlength=rows_ * cols).reshape(rows_, cols)
    peaks = []
    for _ in range(2):
        flat = int(np.argmax(grid))
        response = float(grid.flat[flat])
        if response <= 0.0:
            break
        i, j = divmod(flat, cols)
        point = centroid + basis @ (low + (i, j))
        peaks.append((response / _skin_density(rows, heights, point, r_out + _HALO_MM), point))
        # Blank the cells within an outer diameter of the peak.
        span = math.floor(2.0 * r_out)
        i0, j0 = max(i - span, 0), max(j - span, 0)
        window = grid[i0:i + span + 1, j0:j + span + 1]
        di, dj = np.ogrid[i0 - i:i0 - i + window.shape[0], j0 - j:j0 - j + window.shape[1]]
        window[di * di + dj * dj <= 4.0 * r_out * r_out] = -1.0
    return peaks


def _fit_at(band: np.ndarray, top: np.ndarray, marker: RingMarker,
            timestamp_s: float) -> MarkerPose | None:
    """Step 4 of the module docstring around the ring-top centre ``top``;
    None when the fit set is too small or degenerate, or its circle fails
    the diameter gate."""
    dist = _row_norm((band - top).T)
    near = ((dist >= marker.inner_diameter_mm / 2.0 - _FIT_MARGIN_MM)
            & (dist <= marker.outer_diameter_mm / 2.0 + _FIT_MARGIN_MM))
    count = int(np.count_nonzero(near))
    if count < _MIN_INLIERS:
        return None
    try:
        fit = fit_circle_3d(band[near])
    except DegenerateGeometryError:
        return None
    if abs(2.0 * fit.radius_mm - marker.mid_diameter_mm) > _DIAMETER_TOLERANCE_MM:
        return None
    return MarkerPose(center=Point3.from_array(fit.center), normal=fit.normal,
                      radius_mm=fit.radius_mm, rms_residual_mm=fit.rms_mm,
                      inlier_count=count, timestamp_s=timestamp_s)


def detect_ring(cloud: PointCloud, marker: RingMarker = RingMarker()) -> MarkerPose:
    """Find ``marker`` in a cloud, by the steps of the module docstring.
    Raises NoMarkerFoundError and AmbiguousMarkerError as they describe."""
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
    band = np.compress((heights >= _BAND_LOW_MM) & (heights <= _BAND_HIGH_MM), pts, axis=0)
    if len(band) < _MIN_INLIERS:
        raise NoMarkerFoundError("no points in the proud band above the skin plane")

    peaks = _ring_search(band, rows, heights, centroid, normal, marker)
    best = peaks[0][0] if peaks else 0.0
    if best < _SCORE_FLOOR:
        raise NoMarkerFoundError(f"the best annulus peak scores {best:.3f}, under {_SCORE_FLOOR}")
    poses = [_fit_at(band, point + marker.thickness_mm * normal, marker, cloud.timestamp_s)
             for score, point in peaks
             if score >= max(_SCORE_FLOOR, _RIVAL_SHARE * best)]
    if poses[0] is None:
        raise NoMarkerFoundError("the annulus peak's circle fails the ring diameter gate")
    if len(poses) == 2 and poses[1] is not None:
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

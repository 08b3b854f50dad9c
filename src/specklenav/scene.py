"""Synthetic scene generation for the navigation pipeline.

A torso phantom is a height field over a rectangular patch that rises
and falls with a sinusoidal breathing offset.  A hollow ring marker
rides on the surface.  ``render_cloud`` casts one ray per sensor grid
cell through the camera frustum, intersects the scene, applies the
distance-dependent noise model and returns the surviving points in the
camera frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .camera import CameraModel
from .geometry import Box, RigidTransform

_BISECT_ITERS = 48
_SUBSTEPS_PER_SEGMENT = 8
_RIM_SAMPLES = 64
# Padding of the culling boxes; covers the rounding of wa + s * dw.
_BOX_PAD_MM = 1e-6


class EmptyCloudError(RuntimeError):
    """No ray produced a point: scene missed the frustum entirely."""


# The parameters of each surface kind, with the default of an optional one
# (None where the descriptor must state it).
_SURFACE_KEYS = {
    "flat": {},
    "slope": {"gx": 0.0, "gy": 0.0},
    "ripple": {"amplitude_mm": None, "wavelength_x_mm": None, "wavelength_y_mm": None},
    "dome": {"height_mm": None, "rx_mm": None, "ry_mm": None},
}


def _surface_params(surface: dict) -> tuple[str, dict[str, float]]:
    """Kind and parameters of a surface descriptor, defaults filled in.

    A key the kind does not have, a missing required key and a value that
    is not an int or float (a bool or a string) are ValueErrors; a surface
    that is not a dict is a TypeError.
    """
    if not isinstance(surface, dict):
        raise TypeError(f"a surface is a descriptor dict, not {type(surface).__name__}")
    kind = surface.get("kind", "flat")
    if not isinstance(kind, str) or kind not in _SURFACE_KEYS:
        raise ValueError(f"unknown surface kind {kind!r}")
    keys = _SURFACE_KEYS[kind]
    params = {}
    for key, value in surface.items():
        if key == "kind":
            continue
        if key not in keys:
            raise ValueError(f"{kind} surface has no key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{kind} surface key {key!r} must be a number, not {value!r}")
        params[key] = float(value)
    for key, default in keys.items():
        if key not in params:
            if default is None:
                raise ValueError(f"{kind} surface needs the key {key!r}")
            params[key] = default
    return kind, params


def _surface_function(surface, extent) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray],
                                                tuple[float, float],
                                                tuple[float, float] | None]:
    """Height function of a surface descriptor, its height range (floor,
    ceiling) over the patch and the plane gradient (gx, gy) of a planar
    kind; the gradient is None for the curved kinds.
    """
    kind, p = _surface_params(surface)
    if kind == "flat":
        return (lambda x, y: np.zeros_like(x)), (0.0, 0.0), (0.0, 0.0)
    if kind == "slope":
        gx, gy = p["gx"], p["gy"]
        xmin, xmax, ymin, ymax = extent
        corners = [gx * x + gy * y for x in (xmin, xmax) for y in (ymin, ymax)]
        return (lambda x, y: gx * x + gy * y), (min(corners), max(corners)), (gx, gy)
    if kind == "ripple":
        amp, wx, wy = p["amplitude_mm"], p["wavelength_x_mm"], p["wavelength_y_mm"]
        return (lambda x, y: amp * np.cos(2 * np.pi * x / wx) * np.cos(2 * np.pi * y / wy),
                (-abs(amp), abs(amp)), None)
    h, rx, ry = p["height_mm"], p["rx_mm"], p["ry_mm"]
    return (lambda x, y: h * np.clip(1.0 - (x / rx) ** 2 - (y / ry) ** 2, 0.0, None),
            (min(h, 0.0), max(h, 0.0)), None)


@dataclass(frozen=True)
class TorsoPhantom:
    """Breathing height-field phantom over a rectangular patch.

    ``surface`` is a JSON-friendly descriptor dict (kinds: flat, slope,
    ripple, dome).
    The breathing offset displaces the whole surface along the patch
    normal (+z of the phantom frame).
    """

    surface: dict = field(default_factory=lambda: {"kind": "flat"})
    extent: tuple[float, float, float, float] = (-150.0, 150.0, -100.0, 100.0)
    breathing_amplitude_mm: float = 0.0
    breathing_period_s: float = 4.0
    breathing_phase_rad: float = 0.0

    def __post_init__(self):
        xmin, xmax, ymin, ymax = self.extent
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("extent must satisfy xmin < xmax and ymin < ymax")
        if self.breathing_amplitude_mm < 0:
            raise ValueError("breathing amplitude must be non-negative")
        if self.breathing_period_s <= 0:
            raise ValueError("breathing period must be positive")
        # Resolve the descriptor once so rendering does not re-parse it.
        fn, height_range, plane = _surface_function(self.surface, self.extent)
        object.__setattr__(self, "_height_fn", fn)
        object.__setattr__(self, "_height_range", height_range)
        object.__setattr__(self, "_plane", plane)

    def _on_patch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Points whose (x, y) lies on the closed patch rectangle."""
        xmin, xmax, ymin, ymax = self.extent
        return (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)


def breathing_offset(phantom: TorsoPhantom, t: float) -> float:
    """Surface displacement (mm) along the outward patch normal at time t.

    amplitude * sin(2*pi*t/period + phase); the time argument is folded
    modulo one period first so large times keep full precision.
    """
    frac = math.fmod(t, phantom.breathing_period_s) / phantom.breathing_period_s
    return phantom.breathing_amplitude_mm * math.sin(2.0 * math.pi * frac
                                                     + phantom.breathing_phase_rad)


@dataclass(frozen=True)
class RingMarker:
    """Hollow ring fiducial lying on the phantom surface.

    The annulus top face sits ``thickness_mm`` proud of the skin so a
    band-pass over plane residuals isolates it.  ``pose_on_surface``
    places the marker in the phantom frame; its z translation acts as
    an extra stand-off on top of the local surface height.
    """

    outer_diameter_mm: float = 24.0
    inner_diameter_mm: float = 16.0
    thickness_mm: float = 2.0
    pose_on_surface: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        if not (0 < self.inner_diameter_mm < self.outer_diameter_mm):
            raise ValueError("need 0 < inner diameter < outer diameter")
        if self.thickness_mm <= 0:
            raise ValueError("thickness must be positive")

    @property
    def mid_diameter_mm(self) -> float:
        """Diameter of the circle midway between the two ring edges."""
        return (self.outer_diameter_mm + self.inner_diameter_mm) / 2.0


@dataclass(frozen=True)
class PointCloud:
    """Measured points (N, 3) in the camera frame, mm, float64."""

    points: np.ndarray
    timestamp_s: float
    seed: int

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float).reshape(-1, 3).copy()
        if not np.all(np.isfinite(p)):
            raise ValueError("cloud points must be finite")
        p.flags.writeable = False
        object.__setattr__(self, "points", p)

    def __len__(self) -> int:
        return len(self.points)


def marker_pose_world(phantom: TorsoPhantom, marker: RingMarker, t: float) -> RigidTransform:
    """Marker frame in the phantom frame at time t, riding the breathing surface."""
    # 0-d arrays, not float64 scalars: numpy squares an array as x * x but a
    # scalar through pow, and the dome height squares x and y.
    x, y = (np.asarray(v) for v in marker.pose_on_surface.t[:2])
    if not phantom._on_patch(x, y):
        raise ValueError("marker anchor lies outside the phantom patch")
    lift = float(phantom._height_fn(x, y)) + breathing_offset(phantom, t)
    return RigidTransform.translation(0.0, 0.0, lift).compose(marker.pose_on_surface)


def marker_top_center_world(phantom: TorsoPhantom, marker: RingMarker, t: float) -> np.ndarray:
    """Ground-truth centre of the ring's top face in the phantom frame."""
    pose = marker_pose_world(phantom, marker, t)
    return pose.apply(np.array([0.0, 0.0, marker.thickness_mm]))


def marker_rim_in_view(camera: CameraModel, phantom: TorsoPhantom,
                       marker: RingMarker, t: float) -> bool:
    """True when the outer rim of the ring's top face lies inside the frustum.

    The rim is sampled at evenly spaced angles and tested in the camera
    frame; ``camera.mount_pose`` places the camera in the phantom frame.
    """
    top = marker_pose_world(phantom, marker, t).compose(
        RigidTransform.translation(0.0, 0.0, marker.thickness_mm))
    angle = np.linspace(0.0, 2.0 * np.pi, _RIM_SAMPLES, endpoint=False)
    r = marker.outer_diameter_mm / 2.0
    rim = np.column_stack([r * np.cos(angle), r * np.sin(angle), np.zeros(_RIM_SAMPLES)])
    rim_cam = camera.mount_pose.invert().apply(top.apply(rim))
    return bool(np.all(camera.contains(rim_cam)))


def _ray_points_cam(u: np.ndarray, v: np.ndarray, z, fx, fy) -> np.ndarray:
    """Camera-frame ray positions (3, N) at depth z for grid coords (u, v) and the
    field of view (fx, fy) at z; halving is exact, so ``u * (fx / 2)`` is ``u * fx / 2``."""
    p = np.empty((3, len(u)))
    np.multiply(u, fx / 2.0, out=p[0])
    np.multiply(v, fy / 2.0, out=p[1])
    p[2] = z
    return p


def _knot_points(camera: CameraModel, u: np.ndarray, v: np.ndarray, z, fx, fy) -> np.ndarray:
    """Scene-frame ray positions (3, N) at depth z with field of view (fx, fy).

    ``R @ pc`` plus ``t`` added in place has the bits of the (N, 3) layout's
    ``pc @ R.T + t`` without its broadcast over a last axis of 3."""
    w = camera.mount_pose.rotation_matrix @ _ray_points_cam(u, v, z, fx, fy)
    w += camera.mount_pose.t[:, None]
    return w


def _row_norm(p: np.ndarray) -> np.ndarray:
    """Norm of each point of (3, N) rows, summed as ``np.linalg.norm`` sums (N, 3)."""
    return np.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])


def _box_bounds(box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Padded scene-frame bounding box (lo, hi) of an occluder box."""
    half = np.abs(box.pose.rotation_matrix) @ box.half_extents + _BOX_PAD_MM
    return box.pose.t - half, box.pose.t + half


def _meets_box(wa: np.ndarray, wb: np.ndarray, box_lo: np.ndarray,
               box_hi: np.ndarray) -> np.ndarray:
    """Rays whose segment from ``wa`` to ``wb`` ((3, N) rows) has a bounding
    box that meets [box_lo, box_hi]."""
    meets = np.ones(wa.shape[1], dtype=bool)
    for a, b, lo, hi in zip(wa, wb, box_lo, box_hi):
        meets &= np.minimum(a, b) <= hi
        meets &= np.maximum(a, b) >= lo
    return meets


def _height_above(phantom: TorsoPhantom, breath: float, wa: np.ndarray,
                  dw: np.ndarray, s) -> np.ndarray:
    """Signed height of the segment points wa + s*dw above the breathing surface.

    The height is the unclipped ``_height_fn``, also off the patch.  ``wa``
    and ``dw`` are (3, N) rows of segment starts and spans in the scene
    frame; ``s`` is the scalar or per-ray fraction along the span.
    """
    p = s * dw + wa
    return p[2] - (phantom._height_fn(p[0], p[1]) + breath)


def _crossing(f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """Rows whose height goes from above the surface (f0) to on or below it (f1).

    A ray exactly grazing the surface at the start (f0 == 0) is a hit too;
    only rows with both ends on the surface are skipped.
    """
    return (f0 >= 0) & (f1 <= 0) & ((f0 > 0) | (f1 < 0))


def _plane_depths(phantom: TorsoPhantom, breath: float, wa: np.ndarray,
                  wb: np.ndarray, za: float, zb: float) -> np.ndarray:
    """Depth of the skin hit on each segment of a planar surface, inf when none.

    The height above the plane z = gx*x + gy*y + breath is linear along a
    segment: f0 at ``wa`` and f1 at ``wb`` ((3, N) segment ends).  A
    crossing by the rule of ``_crossing`` lies at s = f0 / (f0 - f1), and it
    is a hit only when that point is on the patch.  A segment's f1 has the
    same bits as the next segment's f0, so a ray whose skin lies exactly on
    a knot is hit in one of the two.
    """
    gx, gy = phantom._plane
    f0, f1 = (w[2] - (gx * w[0] + gy * w[1] + breath) for w in (wa, wb))
    rays = np.flatnonzero(_crossing(f0, f1))
    f0 = f0[rays]
    s = f0 / (f0 - f1[rays])
    x = wa[0, rays] + s * (wb[0, rays] - wa[0, rays])
    y = wa[1, rays] + s * (wb[1, rays] - wa[1, rays])
    inside = phantom._on_patch(x, y)
    depth = np.full(wa.shape[1], np.inf)
    depth[rays.compress(inside)] = za + s.compress(inside) * (zb - za)
    return depth


def _surface_depths(phantom: TorsoPhantom, breath: float, wa: np.ndarray,
                    dw: np.ndarray, za: float, zb: float) -> np.ndarray:
    """Depth of the first skin hit on each segment of a curved surface, inf
    when none.

    The height above the unclipped surface is sampled at the ends of
    ``_SUBSTEPS_PER_SEGMENT`` substeps, and each substep whose ends cross by
    the rule of ``_crossing`` brackets a crossing.  A ray's first bracket is
    bisected in depth; a crossing that lands off the patch is dropped and
    the ray's next bracket, if any, is bisected instead.  ``wa`` and ``dw``
    are (3, N) rows of segment starts and spans.
    """
    n = wa.shape[1]
    span = zb - za
    zs = np.linspace(za, zb, _SUBSTEPS_PER_SEGMENT + 1)
    prev = _height_above(phantom, breath, wa, dw, (float(zs[0]) - za) / span)
    brackets = np.empty((_SUBSTEPS_PER_SEGMENT, n), dtype=bool)
    for j, z_next in enumerate(zs[1:]):
        cur = _height_above(phantom, breath, wa, dw, (float(z_next) - za) / span)
        brackets[j] = _crossing(prev, cur)
        prev = cur
    depth = np.full(n, np.inf)
    rays = np.nonzero(brackets.any(axis=0))[0]
    while len(rays):
        first = np.argmax(brackets[:, rays], axis=0)
        ba, bd = wa[:, rays], dw[:, rays]
        blo, bhi = zs[first], zs[first + 1]
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (blo + bhi)
            above = _height_above(phantom, breath, ba, bd, (mid - za) / span) > 0
            blo = np.where(above, mid, blo)
            bhi = np.where(above, bhi, mid)
        hit = 0.5 * (blo + bhi)
        p = (hit - za) / span * bd + ba
        inside = phantom._on_patch(p[0], p[1])
        depth[rays[inside]] = hit[inside]
        rays = rays[~inside]
        brackets[first[~inside], rays] = False
        rays = rays[brackets[:, rays].any(axis=0)]
    return depth


def _march_rays(phantom: TorsoPhantom, breath: float, marker_planes, occluders,
                camera: CameraModel, uu: np.ndarray, vv: np.ndarray) -> np.ndarray:
    """First-hit depth of every ray, inf for rays that leave the frustum.

    Work is culled with padded axis-aligned boxes; see ``render_cloud``.
    """
    table = camera.fov_table
    xmin, xmax, ymin, ymax = phantom.extent
    floor, ceiling = phantom._height_range
    skin_lo = np.array([xmin, ymin, floor + breath]) - _BOX_PAD_MM
    skin_hi = np.array([xmax, ymax, ceiling + breath]) + _BOX_PAD_MM
    targets = [(skin_lo, skin_hi)] + [(lo, hi) for *_, lo, hi in marker_planes] \
        + [_box_bounds(box) for box in occluders]

    # Ray positions are affine in (u, v) at a knot and in depth between knots,
    # so the four corner rays bound every ray of a segment.  A segment whose
    # bound meets no target is skipped without placing any ray.
    cu = np.array([uu.min(), uu.max(), uu.min(), uu.max()])
    cv = np.array([vv.min(), vv.min(), vv.max(), vv.max()])
    # A ray at a knot takes the row's own field of view, which is what the
    # interpolant returns there, bit for bit.
    knots = np.array([(row.distance_mm, row.fov_x_mm, row.fov_y_mm) for row in table])
    corners = _knot_points(camera, np.tile(cu, len(table)), np.tile(cv, len(table)),
                           *np.repeat(knots.T, 4, axis=1)).reshape(3, len(table), 4)
    slab_lo = np.minimum(corners[:, :-1], corners[:, 1:]).min(axis=2).T[:, None]
    slab_hi = np.maximum(corners[:, :-1], corners[:, 1:]).max(axis=2).T[:, None]
    t_lo, t_hi = np.moveaxis(np.array(targets), 1, 0)
    live = np.all((slab_lo <= t_hi) & (slab_hi >= t_lo), axis=2).any(axis=1)

    hit_depth = np.full(uu.size, np.inf)
    # Rays still in flight, as (3, n) scene-frame rows; wa holds their
    # positions at the start of the segment, carried over from the previous
    # segment when it ran.
    idx, u, v = np.arange(uu.size), uu, vv
    for k in np.flatnonzero(live):
        if len(idx) == 0:
            break
        za, zb = knots[k, 0], knots[k + 1, 0]
        if k == 0 or not live[k - 1]:
            wa = _knot_points(camera, u, v, *knots[k])
        wb = _knot_points(camera, u, v, *knots[k + 1])

        near = _meets_box(wa, wb, skin_lo, skin_hi)
        seg_hit = np.full(len(idx), np.inf)
        if near.any():
            a, b = wa.compress(near, axis=1), wb.compress(near, axis=1)
            if phantom._plane is None:
                seg_hit[near] = _surface_depths(phantom, breath, a, b - a, za, zb)
            else:
                seg_hit[near] = _plane_depths(phantom, breath, a, b, za, zb)

        # Marker top annuli: exact segment-plane intersection per linear piece,
        # in the (n, 3) layout, whose matrix-vector products give the bits.
        for origin, normal, r_in, r_out, top_inv, box_lo, box_hi in marker_planes:
            rays = np.flatnonzero(_meets_box(wa, wb, box_lo, box_hi))
            if len(rays) == 0:
                continue
            a = wa.T[rays]
            d = wb.T[rays] - a
            denom = d @ normal
            numer = (origin - a) @ normal
            with np.errstate(divide="ignore", invalid="ignore"):
                s = numer / denom
            valid = (np.abs(denom) > 1e-15) & (s >= 0.0) & (s <= 1.0)
            if not np.any(valid):
                continue
            s = s[valid]
            local = top_inv.apply(a[valid] + s[:, None] * d[valid])
            radial = np.hypot(local[:, 0], local[:, 1])
            depth = np.where((radial >= r_in) & (radial <= r_out), za + s * (zb - za), np.inf)
            rays = rays[valid]
            seg_hit[rays] = np.minimum(seg_hit[rays], depth)

        # Occluder boxes: slab test on the world-frame segment.
        for box in occluders:
            ok, frac = box.segment_intersections(wa.T, wb.T)
            seg_hit = np.minimum(seg_hit, np.where(ok, za + frac * (zb - za), np.inf))

        # Rays in flight have no depth yet, so all of them can take theirs.
        hit_depth[idx] = seg_hit
        flying = ~np.isfinite(seg_hit)
        idx, u, v = idx.compress(flying), u.compress(flying), v.compress(flying)
        wa = wb.compress(flying, axis=1)
    return hit_depth


def _add_noise(p: np.ndarray, draws: np.ndarray, sigma_axial: np.ndarray,
               sigma_lateral: np.ndarray) -> None:
    """Move the camera-frame points ``p`` ((3, N) rows, in place) by their
    draws (N, 3) times sigma along the ray and two directions across it.
    The norms and cross products are np.linalg.norm's and np.cross's written
    out by component, with the same products and sums in the same order."""
    ray = p / _row_norm(p)
    # The perpendicular basis is seeded by +x for a ray near +z, else by +z.
    seed_x = (np.abs(ray[2]) > 0.9).astype(float)
    seed_z = 1.0 - seed_x
    lat1 = np.empty_like(p)
    np.subtract(ray[1] * seed_z, ray[2] * 0.0, out=lat1[0])
    np.subtract(ray[2] * seed_x, ray[0] * seed_z, out=lat1[1])
    np.subtract(ray[0] * 0.0, ray[1] * seed_x, out=lat1[2])
    lat1 /= _row_norm(lat1)
    lat2 = np.empty_like(p)
    np.subtract(ray[1] * lat1[2], ray[2] * lat1[1], out=lat2[0])
    np.subtract(ray[2] * lat1[0], ray[0] * lat1[2], out=lat2[1])
    np.subtract(ray[0] * lat1[1], ray[1] * lat1[0], out=lat2[2])
    for axis, draw, sigma in ((ray, draws[:, 0], sigma_axial), (lat1, draws[:, 1], sigma_lateral),
                              (lat2, draws[:, 2], sigma_lateral)):
        axis *= draw * sigma
        p += axis


def _window_rays(camera: CameraModel, u: np.ndarray, v: np.ndarray, draws: np.ndarray,
                 noise_scale: float, center, radius: float) -> np.ndarray:
    """Pixels whose point can land within ``radius`` of the camera-frame ``center``.

    ``u`` and ``v`` are the sensor's column and row coordinates; pixel
    ``j * nx + i`` is column i of row j.  A pixel's point is its ray's point
    at the hit depth moved by noise of at most ``noise_scale * max sigma_z *
    (|n0| + lateral * (|n1| + |n2|))``, from the pixel's own draws n.  Its
    ray must therefore pass within the radius plus that pad (its reach) of
    the centre, at a depth within the largest reach of the centre's.  A ray
    is straight between table knots, so its points at the ends of that depth
    range and at the knots inside it bound the ray there; a pixel is kept
    when the box of those points comes within its reach.  A ray's point at
    depth z is (u * fx(z) / 2, v * fy(z) / 2, z) with fx, fy > 0, so the
    box's x and y sides come from the smallest and largest fx and fy over
    those depths: its x gap depends on the column alone and its y gap on the
    row alone.  The reach carries the 1e-6 mm box pad against rounding.
    """
    cx, cy, cz = np.asarray(center, dtype=float)
    sigma_max = noise_scale * max(row.sigma_z_mm for row in camera.fov_table)
    reach = np.abs(draws[:, 1]) + np.abs(draws[:, 2])
    reach *= camera.lateral_sigma_factor
    reach += np.abs(draws[:, 0])
    reach *= sigma_max
    reach += radius + _BOX_PAD_MM
    farthest = float(reach.max())
    z_lo = max(cz - farthest, camera.near_mm)
    z_hi = min(cz + farthest, camera.far_mm)
    if z_lo > z_hi:
        return np.empty(0, dtype=np.intp)
    depths = [z_lo, z_hi] + [row.distance_mm for row in camera.fov_table
                             if z_lo < row.distance_mm < z_hi]
    fx, fy = camera.field_of_view(np.array(depths))
    gap_z = max(z_lo - cz, cz - z_hi, 0.0)
    gaps = []
    for w, f, c in ((u, fx, cx), (v, fy, cy)):
        near_side = w * f.min() / 2.0
        far_side = w * f.max() / 2.0
        # Gap from the centre to the box side along this axis, 0 when level.
        gap = np.maximum(np.minimum(near_side, far_side) - c, 0.0)
        gap += np.maximum(c - np.maximum(near_side, far_side), 0.0)
        gap *= gap
        gaps.append(gap)
    # The per-pixel sum gap_z^2 + x gap^2 + y gap^2, added in that order.
    dist2 = (gap_z * gap_z + gaps[0]) + gaps[1][:, None]
    reach *= reach
    return np.flatnonzero(dist2.ravel() <= reach)


def render_cloud(phantom: TorsoPhantom,
                 marker: "RingMarker | Sequence[RingMarker] | None",
                 camera: CameraModel,
                 t: float = 0.0,
                 seed: int = 0,
                 *,
                 occluders: Sequence[Box] = (),
                 noise_scale: float = 1.0,
                 window: tuple[Sequence[float], float] | None = None) -> PointCloud:
    """Render one depth frame of the scene at time t.

    One ray is cast per sensor grid cell.  The lateral position of a
    ray follows the field of view, which the camera interpolates
    linearly between table knots, so between two knots each ray is
    exactly a straight segment.  The march relies on that: each ray's
    scene-frame position is computed once per knot, and every point in
    between is ``wa + s * (wb - wa)`` with ``s = (z - za) / (zb - za)``.
    A non-linear interpolant would bend the rays and break this.  The
    first intersection with the phantom skin, a marker top face or
    an occluder box wins.

    The rim rule: a skin hit is a point where the ray passes from above
    the breathing surface to on or below it, and it counts only where that
    crossing lies on the patch rectangle (edges included).  The patch has
    no side walls, so a ray that passes under the rim below the surface,
    or crosses the surface's continuation off the patch, finds no skin
    there.  Flat and slope surfaces are planes, hit in closed form: the
    height above the plane is linear along a segment, so the crossing sits
    at ``s = f0 / (f0 - f1)`` from the heights at its two ends.  Ripple
    and dome surfaces are scanned over substeps on the unclipped
    height function and the bracketed crossing is bisected; a crossing that
    lands off the patch is dropped and the ray's next one is tried.

    Empty space is skipped, and the skip is exact: no output bit depends
    on it.  Every test is elementwise per ray, so running it on fewer rays
    changes no ray's result; a segment is skipped only where it cannot hit.
    A whole segment between two knots is skipped, without placing any ray,
    when the box of its four corner rays meets no target box: the phantom
    box (the patch extent in x and y, and in z the surface's height range
    over the patch, floor to ceiling, plus the breathing offset), a
    marker's top-face box or an occluder's box.  Within a segment, the
    surface scan runs only on rays whose segment box meets the phantom box,
    and a marker's plane test only on rays whose box meets that marker's
    box.  All boxes are padded by 1e-6 mm, which covers the rounding of
    ``wa + s * dw``.  A skin hit lies on the patch and within the height
    range, so it lies in the phantom box; a segment wholly below the floor
    finds no skin.

    Rays are carried as contiguous (3, N) coordinate rows, one row per axis:
    knot points are ``R @ pc`` plus ``t`` in place, the box tests, plane
    crossings and in-flight bookkeeping select rays with ``compress``, and the
    noise tail writes np.linalg.norm and np.cross out by component.  Every
    output bit is that of the (N, 3) layout.

    Hits are perturbed along the line of sight with sigma_z(depth) and
    laterally with the lateral factor times sigma_z, both scaled by
    ``noise_scale`` (0 disables noise), then clipped back to the frustum.
    The standard normal draws are taken for every sensor pixel and indexed
    by pixel, so a point's noise depends only on its pixel and ``seed``:
    a ray that gains or loses a hit moves no other point.

    ``window=(center, radius)`` renders only the points within ``radius``
    of the camera-frame ``center``: the result equals, bit for bit and in
    the same order, ``full.points[np.linalg.norm(full.points - center,
    axis=1) <= radius]`` of the full render.  Only the pixels whose point
    can land in the window are marched (see ``_window_rays``): a pixel's
    noise moves its point by at most ``noise_scale * max sigma_z * (|n0| +
    lateral * (|n1| + |n2|))`` from its own draws, so its ray must pass
    within the radius plus that pad of the centre.

    Raises EmptyCloudError when nothing survives, in a window render also
    when the window holds no point.
    """
    if not noise_scale >= 0:
        raise ValueError("noise_scale must be non-negative")
    markers = (() if marker is None else (marker,) if isinstance(marker, RingMarker)
               else tuple(marker))

    nx, ny = camera.resolution
    u = (-1.0 + 2.0 * (np.arange(nx) + 0.5) / nx)
    v = (-1.0 + 2.0 * (np.arange(ny) + 0.5) / ny)

    breath = breathing_offset(phantom, t)

    # Marker top faces as (origin, normal, inner r, outer r, world pose inverse).
    marker_planes = []
    for m in markers:
        pose = marker_pose_world(phantom, m, t)
        top = pose.compose(RigidTransform.translation(0.0, 0.0, m.thickness_mm))
        normal = top.rotation_matrix[:, 2]
        r_out = m.outer_diameter_mm / 2.0
        # Bounding box of the top-face disc: r * sqrt(1 - n_k^2) along axis k.
        half = r_out * np.sqrt(np.clip(1.0 - normal ** 2, 0.0, None)) + _BOX_PAD_MM
        marker_planes.append((top.t, normal, m.inner_diameter_mm / 2.0, r_out,
                              top.invert(), top.t - half, top.t + half))

    # Pixel j * nx + i looks along column i's u and row j's v.  One draw per
    # sensor pixel, so a point's noise depends on its pixel alone.  A window
    # render needs them to choose its pixels; a full render draws them after
    # the march, which then needs the memory itself.
    pixels = None
    if window is None:
        uu, vv = np.tile(u, ny), np.repeat(v, nx)
    else:
        center, radius = window
        draws = np.random.default_rng(seed).standard_normal((nx * ny, 3))
        pixels = _window_rays(camera, u, v, draws, noise_scale, center, radius)
        if len(pixels) == 0:
            raise EmptyCloudError("no ray can reach the window")
        uu, vv = u[pixels % nx], v[pixels // nx]

    hit_depth = _march_rays(phantom, breath, marker_planes, occluders, camera, uu, vv)
    hits = np.isfinite(hit_depth)
    if not np.any(hits):
        raise EmptyCloudError("no ray intersected the scene inside the frustum")

    # The noise tail works on (3, N) coordinate rows.
    sel = np.flatnonzero(hits)
    depth = hit_depth[sel]
    fx, fy, sigma_z = camera.lookup(depth, ("fov_x_mm", "fov_y_mm", "sigma_z_mm"))
    p = _ray_points_cam(uu[sel], vv[sel], depth, fx, fy)
    # Freed before the noise tail allocates its rows, so the allocator can
    # reuse them: held, they cost a full render about 0.4 ms.
    del fx, fy
    if noise_scale > 0.0:
        if pixels is None:
            draws = np.random.default_rng(seed).standard_normal((nx * ny, 3))
        sigma_axial = sigma_z * noise_scale
        _add_noise(p, np.take(draws, sel if pixels is None else pixels[sel], axis=0),
                   sigma_axial, sigma_axial * camera.lateral_sigma_factor)

    keep = camera.contains(p.T)
    if window is not None:
        keep &= _row_norm(p - np.asarray(center, dtype=float)[:, None]) <= radius
    points_cam = np.stack([c.compress(keep) for c in p], axis=1)
    if len(points_cam) == 0:
        raise EmptyCloudError("all points fell outside the frustum after noise"
                              if window is None else "no point landed in the window")
    return PointCloud(points=points_cam, timestamp_s=float(t), seed=int(seed))

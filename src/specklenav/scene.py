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

# Height that ``TorsoPhantom.height`` reports outside the phantom patch; it
# marks a marker anchor off the patch.  The renderer does not read it: it
# evaluates the unclipped height and keeps only crossings inside the patch.
_OUTSIDE_PATCH = -1.0e9

_BISECT_ITERS = 48
_SUBSTEPS_PER_SEGMENT = 8
_RIM_SAMPLES = 64
# Padding of the culling boxes; covers the rounding of wa + s * dw.
_BOX_PAD_MM = 1e-6


class EmptyCloudError(RuntimeError):
    """No ray produced a point: scene missed the frustum entirely."""


def _surface_function(surface, extent) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray],
                                                float, tuple[float, float] | None]:
    """Height function of a surface, an upper bound of it over the patch and
    the plane gradient (gx, gy) of a planar kind.

    The bound is inf for a callable surface, whose maximum is unknown.  The
    gradient is None for the curved kinds and for callables.
    """
    if callable(surface):
        return surface, math.inf, None
    kind = surface.get("kind", "flat")
    if kind == "flat":
        return (lambda x, y: np.zeros_like(x)), 0.0, (0.0, 0.0)
    if kind == "slope":
        gx = float(surface.get("gx", 0.0))
        gy = float(surface.get("gy", 0.0))
        xmin, xmax, ymin, ymax = extent
        bound = max(gx * x + gy * y for x in (xmin, xmax) for y in (ymin, ymax))
        return (lambda x, y: gx * x + gy * y), bound, (gx, gy)
    if kind == "ripple":
        amp = float(surface["amplitude_mm"])
        wx = float(surface["wavelength_x_mm"])
        wy = float(surface["wavelength_y_mm"])
        return (lambda x, y: amp * np.cos(2 * np.pi * x / wx) * np.cos(2 * np.pi * y / wy),
                abs(amp), None)
    if kind == "dome":
        h = float(surface["height_mm"])
        rx = float(surface["rx_mm"])
        ry = float(surface["ry_mm"])
        return (lambda x, y: h * np.clip(1.0 - (x / rx) ** 2 - (y / ry) ** 2, 0.0, None),
                max(h, 0.0), None)
    raise ValueError(f"unknown surface kind {kind!r}")


@dataclass(frozen=True)
class TorsoPhantom:
    """Breathing height-field phantom over a rectangular patch.

    ``surface`` is either a JSON-friendly descriptor dict (kinds: flat,
    slope, ripple, dome) or a vectorized callable f(x, y) -> height.
    The breathing offset displaces the whole surface along the patch
    normal (+z of the phantom frame).
    """

    surface: dict | Callable = field(default_factory=lambda: {"kind": "flat"})
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
        fn, bound, plane = _surface_function(self.surface, self.extent)
        object.__setattr__(self, "_height_fn", fn)
        object.__setattr__(self, "_height_bound", bound)
        object.__setattr__(self, "_plane", plane)

    def height(self, x, y) -> np.ndarray:
        """Base surface height (mm) at patch coordinates, patch-clipped."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.where(self._on_patch(x, y), self._height_fn(x, y), _OUTSIDE_PATCH)

    def _on_patch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Points whose (x, y) lies on the closed patch rectangle."""
        xmin, xmax, ymin, ymax = self.extent
        return (x >= xmin) & (x <= xmax) & (y >= ymin) & (y <= ymax)

    def to_json_dict(self) -> dict:
        if callable(self.surface):
            raise TypeError("callable surfaces are not JSON serializable")
        return {
            "surface": self.surface,
            "extent": list(self.extent),
            "breathing_amplitude_mm": self.breathing_amplitude_mm,
            "breathing_period_s": self.breathing_period_s,
            "breathing_phase_rad": self.breathing_phase_rad,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TorsoPhantom":
        return cls(
            surface=d["surface"],
            extent=tuple(float(v) for v in d["extent"]),
            breathing_amplitude_mm=float(d["breathing_amplitude_mm"]),
            breathing_period_s=float(d["breathing_period_s"]),
            breathing_phase_rad=float(d["breathing_phase_rad"]),
        )


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

    def to_json_dict(self) -> dict:
        return {
            "outer_diameter_mm": self.outer_diameter_mm,
            "inner_diameter_mm": self.inner_diameter_mm,
            "thickness_mm": self.thickness_mm,
            "pose_on_surface": self.pose_on_surface.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RingMarker":
        return cls(
            outer_diameter_mm=float(d["outer_diameter_mm"]),
            inner_diameter_mm=float(d["inner_diameter_mm"]),
            thickness_mm=float(d["thickness_mm"]),
            pose_on_surface=RigidTransform.from_json_dict(d["pose_on_surface"]),
        )


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
    anchor_x, anchor_y = marker.pose_on_surface.t[0], marker.pose_on_surface.t[1]
    base = float(phantom.height(anchor_x, anchor_y))
    if base <= _OUTSIDE_PATCH / 2:
        raise ValueError("marker anchor lies outside the phantom patch")
    lift = base + breathing_offset(phantom, t)
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


def _ray_points_cam(camera: CameraModel, u: np.ndarray, v: np.ndarray, z) -> np.ndarray:
    """Camera-frame ray positions at depth z for normalized grid coords."""
    fx, fy = camera.field_of_view(z)
    return np.stack([u * fx / 2.0, v * fy / 2.0,
                     np.broadcast_to(np.asarray(z, dtype=float), u.shape)], axis=-1)


def _knot_points_world(camera: CameraModel, u: np.ndarray, v: np.ndarray,
                       knot_mm: float) -> np.ndarray:
    """Scene-frame ray positions (N, 3) at the depth of one table knot."""
    pc = _ray_points_cam(camera, u, v, float(knot_mm))
    return pc @ camera.mount_pose.rotation_matrix.T + camera.mount_pose.t


def _box_bounds(box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Padded scene-frame bounding box (lo, hi) of an occluder box."""
    half = np.abs(box.pose.rotation_matrix) @ box.half_extents + _BOX_PAD_MM
    return box.pose.t - half, box.pose.t + half


def _meets_box(seg_lo: np.ndarray, seg_hi: np.ndarray, box_lo: np.ndarray,
               box_hi: np.ndarray) -> np.ndarray:
    """Rows whose segment bounding box [seg_lo, seg_hi] (N, 3) meets [box_lo, box_hi]."""
    meets = np.ones(len(seg_lo), dtype=bool)
    for k in range(3):
        meets &= seg_lo[:, k] <= box_hi[k]
        meets &= seg_hi[:, k] >= box_lo[k]
    return meets


def _height_above(phantom: TorsoPhantom, breath: float, wa: np.ndarray,
                  dw: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """Signed height of the segment points wa + s*dw above the breathing surface.

    The height is the unclipped ``_height_fn``, also off the patch.  ``wa``
    and ``dw`` are (3, N) rows of segment starts and spans in the scene
    frame; ``s`` is the scalar or per-ray fraction along the span.  The
    points are built in the (3, N) scratch ``out``; its last row is returned.
    """
    np.multiply(s, dw, out=out)
    out += wa
    np.subtract(out[2], phantom._height_fn(out[0], out[1]) + breath, out=out[2])
    return out[2]


def _crossing(f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """Rows whose height goes from above the surface (f0) to on or below it (f1).

    A ray exactly grazing the surface at the start (f0 == 0) is a hit too;
    only rows with both ends on the surface are skipped.
    """
    return (f0 >= 0) & (f1 <= 0) & ((f0 > 0) | (f1 < 0))


def _bisect_update(blo: np.ndarray, bhi: np.ndarray, mid: np.ndarray,
                   above: np.ndarray) -> None:
    """blo = where(above, mid, blo) and bhi = where(above, bhi, mid), in place.

    The bits are copied through an all-ones or all-zeros integer mask.  The
    mask of a bisection step is random, and a branching select such as
    ``np.copyto(..., where=)`` is several times slower on it.
    """
    take = -above.view(np.int8).astype(np.int64)
    m = mid.view(np.int64)
    for dst, sel in ((blo, take), (bhi, ~take)):
        d = dst.view(np.int64)
        d ^= (d ^ m) & sel


def _plane_depths(phantom: TorsoPhantom, breath: float, wa: np.ndarray,
                  wb: np.ndarray, za: float, zb: float) -> np.ndarray:
    """Depth of the skin hit on each segment of a planar surface, inf when none.

    The height above the plane z = gx*x + gy*y + breath is linear along a
    segment: f0 at ``wa`` and f1 at ``wb`` ((N, 3) segment ends).  A
    crossing by the rule of ``_crossing`` lies at s = f0 / (f0 - f1), and it
    is a hit only when that point is on the patch.  A segment's f1 has the
    same bits as the next segment's f0, so a ray whose skin lies exactly on
    a knot is hit in one of the two.
    """
    gx, gy = phantom._plane
    f0, f1 = (w[:, 2] - (gx * w[:, 0] + gy * w[:, 1] + breath) for w in (wa, wb))
    rows = np.nonzero(_crossing(f0, f1))[0]
    s = f0[rows] / (f0[rows] - f1[rows])
    x = wa[rows, 0] + s * (wb[rows, 0] - wa[rows, 0])
    y = wa[rows, 1] + s * (wb[rows, 1] - wa[rows, 1])
    inside = phantom._on_patch(x, y)
    depth = np.full(len(wa), np.inf)
    depth[rows[inside]] = za + s[inside] * (zb - za)
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
    are (N, 3) segment starts and spans; they are transposed to (3, N) so
    that each coordinate the inner loops read is contiguous.  The loops work
    in preallocated buffers; each step computes the same values, in the same
    order, as the plain expressions in the comments.
    """
    wa = np.ascontiguousarray(wa.T)
    dw = np.ascontiguousarray(dw.T)
    n = wa.shape[1]
    span = zb - za
    zs = np.linspace(za, zb, _SUBSTEPS_PER_SEGMENT + 1)
    work = np.empty((3, n))
    spare = np.empty((3, n))
    prev = _height_above(phantom, breath, wa, dw, (float(zs[0]) - za) / span, work)
    brackets = np.empty((_SUBSTEPS_PER_SEGMENT, n), dtype=bool)
    for j, z_next in enumerate(zs[1:]):
        work, spare = spare, work
        cur = _height_above(phantom, breath, wa, dw, (float(z_next) - za) / span, work)
        brackets[j] = _crossing(prev, cur)
        prev = cur
    depth = np.full(n, np.inf)
    rays = np.nonzero(brackets.any(axis=0))[0]
    while len(rays):
        first = np.argmax(brackets[:, rays], axis=0)
        ba = wa[:, rays]
        bd = dw[:, rays]
        blo = zs[first]
        bhi = zs[first + 1]
        mid = np.empty_like(blo)
        s = np.empty_like(blo)
        above = np.empty(len(blo), dtype=bool)
        out = work[:, :len(blo)]
        for _ in range(_BISECT_ITERS):
            np.add(blo, bhi, out=mid)
            mid *= 0.5                                   # mid = 0.5 * (blo + bhi)
            np.subtract(mid, za, out=s)
            s /= span                                    # s = (mid - za) / (zb - za)
            np.greater(_height_above(phantom, breath, ba, bd, s, out), 0, out=above)
            _bisect_update(blo, bhi, mid, above)
        hit = 0.5 * (blo + bhi)
        np.multiply((hit - za) / span, bd, out=out)
        out += ba
        inside = phantom._on_patch(out[0], out[1])
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
    knots = [row.distance_mm for row in camera.fov_table]
    xmin, xmax, ymin, ymax = phantom.extent
    skin_lo = np.array([xmin, ymin, -np.inf]) - _BOX_PAD_MM
    skin_hi = np.array([xmax, ymax, phantom._height_bound + breath]) + _BOX_PAD_MM
    targets = [(skin_lo, skin_hi)] + [(lo, hi) for *_, lo, hi in marker_planes] \
        + [_box_bounds(box) for box in occluders]

    # Ray positions are affine in (u, v) at a knot and in depth between knots,
    # so the four corner rays bound every ray of a segment.  A segment whose
    # bound meets no target is skipped without placing any ray.
    cu = np.array([uu.min(), uu.max(), uu.min(), uu.max()])
    cv = np.array([vv.min(), vv.min(), vv.max(), vv.max()])
    corners = np.stack([_knot_points_world(camera, cu, cv, z) for z in knots])
    slab_lo = np.minimum(corners[:-1], corners[1:]).min(axis=1)[:, None]
    slab_hi = np.maximum(corners[:-1], corners[1:]).max(axis=1)[:, None]
    t_lo = np.array([lo for lo, _ in targets])
    t_hi = np.array([hi for _, hi in targets])
    live = np.all((slab_lo <= t_hi) & (slab_hi >= t_lo), axis=2).any(axis=1)

    hit_depth = np.full(uu.size, np.inf)
    # Rays still in flight; wa holds their scene-frame positions at the start
    # of the segment, carried over from the previous segment when it ran.
    idx = np.arange(uu.size)
    for k in np.nonzero(live)[0]:
        if len(idx) == 0:
            break
        za, zb = knots[k], knots[k + 1]
        if k == 0 or not live[k - 1]:
            wa = _knot_points_world(camera, uu[idx], vv[idx], za)
        wb = _knot_points_world(camera, uu[idx], vv[idx], zb)
        dw = wb - wa
        seg_lo = np.minimum(wa, wb)
        seg_hi = np.maximum(wa, wb)

        near = _meets_box(seg_lo, seg_hi, skin_lo, skin_hi)
        seg_hit = np.full(len(idx), np.inf)
        if near.any():
            if phantom._plane is None:
                seg_hit[near] = _surface_depths(phantom, breath, wa[near], dw[near], za, zb)
            else:
                seg_hit[near] = _plane_depths(phantom, breath, wa[near], wb[near], za, zb)

        # Marker top annuli: exact segment-plane intersection per linear piece.
        for origin, normal, r_in, r_out, top_inv, box_lo, box_hi in marker_planes:
            rows = np.nonzero(_meets_box(seg_lo, seg_hi, box_lo, box_hi))[0]
            if len(rows) == 0:
                continue
            a = wa[rows]
            d = dw[rows]
            denom = d @ normal
            numer = (origin - a) @ normal
            with np.errstate(divide="ignore", invalid="ignore"):
                s = numer / denom
            valid = (np.abs(denom) > 1e-15) & (s >= 0.0) & (s <= 1.0)
            if not np.any(valid):
                continue
            pts = a[valid] + s[valid, None] * d[valid]
            local = top_inv.apply(pts)
            radial = np.hypot(local[:, 0], local[:, 1])
            ring = (radial >= r_in) & (radial <= r_out)
            depth = za + s[valid] * (zb - za)
            depth[~ring] = np.inf
            rows = rows[valid]
            seg_hit[rows] = np.minimum(seg_hit[rows], depth)

        # Occluder boxes: slab test on the world-frame segment.
        for box in occluders:
            ok, frac = box.segment_intersections(wa, wb)
            depth = np.where(ok, za + frac * (zb - za), np.inf)
            seg_hit = np.minimum(seg_hit, depth)

        landed = np.isfinite(seg_hit)
        hit_depth[idx[landed]] = seg_hit[landed]
        flying = ~landed
        idx = idx[flying]
        wa = wb[flying]
    return hit_depth


def render_cloud(phantom: TorsoPhantom,
                 marker: "RingMarker | Sequence[RingMarker] | None",
                 camera: CameraModel,
                 t: float = 0.0,
                 seed: int = 0,
                 *,
                 occluders: Sequence[Box] = (),
                 noise_scale: float = 1.0) -> PointCloud:
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
    at ``s = f0 / (f0 - f1)`` from the heights at its two ends.  Ripple,
    dome and callable surfaces are scanned over substeps on the unclipped
    height function and the bracketed crossing is bisected; a crossing that
    lands off the patch is dropped and the ray's next one is tried.

    Empty space is skipped, and the skip is exact: no output bit depends
    on it.  Every test is elementwise per ray, so running it on fewer rays
    changes no ray's result; a segment is skipped only where it cannot hit.
    A whole segment between two knots is skipped, without placing any ray,
    when the box of its four corner rays meets no target box: the phantom
    box (the patch extent in x and y, up to the surface's height bound
    plus the breathing offset in z), a marker's top-face box or an
    occluder's box.  Within a segment, the surface scan runs only on rays
    whose segment box meets the phantom box, and a marker's plane test
    only on rays whose box meets that marker's box.  All boxes are padded
    by 1e-6 mm, which covers the rounding of ``wa + s * dw``.  A skin hit
    lies on the patch and at most at the bound, so it lies in the phantom
    box.  A callable surface has no height bound, so only the patch
    outline culls its segments.

    Hits are perturbed along the line of sight with sigma_z(depth) and
    laterally with the lateral factor times sigma_z, both scaled by
    ``noise_scale`` (0 disables noise), then clipped back to the frustum.
    The standard normal draws are taken for every sensor pixel and indexed
    by pixel, so a point's noise depends only on its pixel and ``seed``:
    a ray that gains or loses a hit moves no other point.

    Raises EmptyCloudError when nothing survives.
    """
    if noise_scale < 0:
        raise ValueError("noise_scale must be non-negative")
    markers: tuple[RingMarker, ...]
    if marker is None:
        markers = ()
    elif isinstance(marker, RingMarker):
        markers = (marker,)
    else:
        markers = tuple(marker)

    nx, ny = camera.resolution
    u = (-1.0 + 2.0 * (np.arange(nx) + 0.5) / nx)
    v = (-1.0 + 2.0 * (np.arange(ny) + 0.5) / ny)
    uu, vv = np.meshgrid(u, v, indexing="xy")
    uu = uu.ravel()
    vv = vv.ravel()

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

    hit_depth = _march_rays(phantom, breath, marker_planes, occluders, camera, uu, vv)
    hits = np.isfinite(hit_depth)
    if not np.any(hits):
        raise EmptyCloudError("no ray intersected the scene inside the frustum")

    sel = np.nonzero(hits)[0]
    points_cam = _ray_points_cam(camera, uu[sel], vv[sel], hit_depth[sel])

    # One draw per sensor pixel, so a point's noise depends on its pixel alone.
    draws = np.random.default_rng(seed).standard_normal((nx * ny, 3))[sel]
    if noise_scale > 0.0:
        sigma_axial = np.asarray(camera.sigma_z(points_cam[:, 2])) * noise_scale
        sigma_lateral = sigma_axial * camera.lateral_sigma_factor
        ray_dir = points_cam / np.linalg.norm(points_cam, axis=1, keepdims=True)
        # Perpendicular basis: seed axis switches when the ray is near +z.
        seed_axis = np.where(np.abs(ray_dir[:, 2:3]) > 0.9,
                             np.array([[1.0, 0.0, 0.0]]),
                             np.array([[0.0, 0.0, 1.0]]))
        lat1 = np.cross(ray_dir, seed_axis)
        lat1 /= np.linalg.norm(lat1, axis=1, keepdims=True)
        lat2 = np.cross(ray_dir, lat1)
        points_cam = (points_cam
                      + draws[:, 0:1] * sigma_axial[:, None] * ray_dir
                      + draws[:, 1:2] * sigma_lateral[:, None] * lat1
                      + draws[:, 2:3] * sigma_lateral[:, None] * lat2)

    keep = camera.contains(points_cam)
    points_cam = points_cam[keep]
    if len(points_cam) == 0:
        raise EmptyCloudError("all points fell outside the frustum after noise")
    return PointCloud(points=points_cam, timestamp_s=float(t), seed=int(seed))

"""Reference values computed outside the package, from numpy and the
published working-range table alone, so that a check never compares the
program against itself.
"""
from __future__ import annotations

import math

import numpy as np

# Published working range of the reference structured-light camera:
# distance, fov_x, fov_y, sigma_z, pixel size (all mm).
TABLE = np.array([
    [250.0, 198.44, 129.20, 0.033, 0.106],
    [260.0, 202.37, 134.37, 0.036, 0.111],
    [380.0, 408.60, 270.68, 0.106, 0.223],
    [400.0, 435.37, 284.93, 0.117, 0.234],
    [500.0, 565.23, 356.16, 0.183, 0.293],
    [600.0, 658.27, 427.39, 0.264, 0.352],
    [700.0, 751.32, 498.63, 0.359, 0.410],
])
FOV_X, FOV_Y, SIGMA_Z, PIXEL = 1, 2, 3, 4


def table_at(depth_mm, column: int) -> np.ndarray:
    """Linear interpolation of one table column, clamped to the range."""
    d = np.clip(np.asarray(depth_mm, dtype=float), TABLE[0, 0], TABLE[-1, 0])
    return np.interp(d, TABLE[:, 0], TABLE[:, column])


def in_frustum(points_cam) -> np.ndarray:
    """Per-point frustum membership of camera-frame points."""
    p = np.atleast_2d(np.asarray(points_cam, dtype=float))
    z = p[:, 2]
    ok = (z >= TABLE[0, 0]) & (z <= TABLE[-1, 0])
    ok &= np.abs(p[:, 0]) <= table_at(z, FOV_X) / 2.0
    ok &= np.abs(p[:, 1]) <= table_at(z, FOV_Y) / 2.0
    return ok


def project_px(points_cam, resolution) -> np.ndarray:
    """Pixel coordinates through the table's pixel-size column."""
    p = np.atleast_2d(np.asarray(points_cam, dtype=float))
    px = table_at(p[:, 2], PIXEL)
    nx, ny = resolution
    return np.column_stack([p[:, 0] / px + nx / 2.0, p[:, 1] / px + ny / 2.0])


def axis_angle(axis, angle_deg: float) -> np.ndarray:
    """Rotation matrix about a (not necessarily unit) axis, Rodrigues form."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    a = math.radians(angle_deg)
    return np.eye(3) + math.sin(a) * kx + (1.0 - math.cos(a)) * (kx @ kx)


def quat_matrix(q) -> np.ndarray:
    """Rotation matrix of a (w, x, y, z) quaternion."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def homogeneous(rotation, translation) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def from_transform_dict(d: dict) -> np.ndarray:
    """4x4 matrix of a serialized transform {"q": [w, x, y, z], "t": [...]}."""
    return homogeneous(quat_matrix(d["q"]), d["t"])


def apply(m: np.ndarray, points) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float)) @ m[:3, :3].T + m[:3, 3]


def rotation_gap_deg(ra: np.ndarray, rb: np.ndarray) -> float:
    """Angle of ra^T rb, accurate for tiny angles."""
    r = ra.T @ rb
    s = 0.5 * math.sqrt((r[2, 1] - r[1, 2]) ** 2 + (r[0, 2] - r[2, 0]) ** 2
                        + (r[1, 0] - r[0, 1]) ** 2)
    c = 0.5 * (np.trace(r) - 1.0)
    return math.degrees(math.atan2(s, c))


def line_gap_deg(u, w) -> float:
    """Angle between two lines through the origin (sign of each ignored)."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    return math.degrees(math.atan2(float(np.linalg.norm(np.cross(u, w))),
                                   abs(float(u @ w))))

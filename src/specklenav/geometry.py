"""Rigid-body geometry primitives.

Points are millimetres, angles are degrees at API boundaries (radians
internally where noted).  Rotations are stored as unit quaternions in
w, x, y, z order with the scalar part kept non-negative so that every
orientation has exactly one serialized form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def numbers_from_json(values, count: int, what: str) -> list[float]:
    """A JSON list of ``count`` numbers as floats.  An entry must be an int
    or a float; a bool or a string is a ValueError that names ``what``."""
    if (not isinstance(values, list) or len(values) != count
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values)):
        raise ValueError(f"{what} must be a list of {count} numbers, not {values!r}")
    try:
        return [float(v) for v in values]
    except OverflowError:
        raise ValueError(f"{what} holds an integer too large for a float") from None


def finite_float(value, what: str, error=ValueError) -> float:
    """An int or float ``value`` as a finite float; NaN, an infinity or an
    int too large for a float (read as inf) raises ``error``, naming ``what``."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise error(f"{what} must be a finite number, not {number!r}")
    return number


def _as_float_triple(v) -> tuple[float, float, float]:
    a = np.asarray(v, dtype=float).reshape(3)
    return float(a[0]), float(a[1]), float(a[2])


@dataclass(frozen=True, slots=True)
class Point3:
    """A 3D point in millimetres. All components must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Point3.{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    @classmethod
    def from_array(cls, arr) -> "Point3":
        return cls(*_as_float_triple(arr))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


def _quat_canonical(q: np.ndarray, n: float) -> np.ndarray:
    """Divide q in place by its norm ``n`` and fix the sign so the scalar
    part is >= 0; returns q.

    A quaternion and its negation encode the same rotation; keeping
    w >= 0 (first non-zero component positive when w == 0) makes the
    representation unique for hashing and serialization.  ``n`` must be
    ``math.sqrt(q.dot(q))``, the dot-then-sqrt of ``np.linalg.norm``.
    """
    if not math.isfinite(n) or n < 1e-12:
        raise ValueError("quaternion norm is zero or non-finite")
    q /= n
    for comp in q.tolist():
        if comp > 0.0:
            break
        if comp < 0.0:
            np.negative(q, out=q)
            break
    return q


def _quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _quat_from_matrix(m: np.ndarray) -> np.ndarray:
    # Shepperd's method: pick the largest diagonal combination for stability.
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s,
                      0.25 * s,
                      (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s,
                      (m[0, 1] + m[1, 0]) / s,
                      0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s,
                      (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s,
                      0.25 * s])
    return _quat_canonical(q, math.sqrt(q.dot(q)))


@dataclass(frozen=True, slots=True)
class RigidTransform:
    """SE(3) transform: rotation quaternion (w, x, y, z) plus translation in mm.

    ``apply`` maps child-frame coordinates into the parent frame.
    """

    q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(4).copy()
        t = np.asarray(self.t, dtype=float).reshape(3).copy()
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError("translation must be finite")
        n = math.sqrt(q.dot(q))
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {n} too far from 1")
        _quat_canonical(q, n)
        q.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(q=np.array([1.0, 0.0, 0.0, 0.0]), t=np.zeros(3))

    @classmethod
    def from_matrix(cls, rotation: np.ndarray, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        return cls(q=_quat_from_matrix(rotation), t=np.asarray(translation, dtype=float))

    @classmethod
    def from_axis_angle(cls, axis, angle_deg: float,
                        translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        axis = np.asarray(axis, dtype=float).reshape(3)
        n = float(np.linalg.norm(axis))
        if n < 1e-12:
            raise ValueError("rotation axis must be non-zero")
        half = math.radians(angle_deg) / 2.0
        q = np.concatenate([[math.cos(half)], math.sin(half) * axis / n])
        return cls(q=q, t=np.asarray(translation, dtype=float))

    @classmethod
    def translation(cls, x: float, y: float, z: float) -> "RigidTransform":
        return cls(q=np.array([1.0, 0.0, 0.0, 0.0]), t=np.array([x, y, z], dtype=float))

    @property
    def rotation_matrix(self) -> np.ndarray:
        return _quat_to_matrix(self.q)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return self * other, i.e. apply ``other`` first, then ``self``."""
        q = _quat_multiply(self.q, other.q)
        t = self.rotation_matrix @ other.t + self.t
        return RigidTransform(q=q, t=t)

    def invert(self) -> "RigidTransform":
        qc = self.q * np.array([1.0, -1.0, -1.0, -1.0])
        rt = _quat_to_matrix(qc)
        return RigidTransform(q=qc, t=-(rt @ self.t))

    def apply(self, points) -> np.ndarray:
        """Transform one point (3,) or many points (N, 3)."""
        out = self.rotate(points)
        # In place: on (N, 3) points a new array for ``+ t`` takes longer
        # than the rotation itself.  The sums are the same.
        out += self.t
        return out

    def rotate(self, vectors) -> np.ndarray:
        """Rotate direction vectors without translating them."""
        v = np.asarray(vectors, dtype=float)
        single = v.ndim == 1
        v = np.atleast_2d(v)
        out = v @ self.rotation_matrix.T
        return out[0] if single else out

    def rotation_axis(self) -> np.ndarray:
        """Unit rotation axis; arbitrary (+z) for the identity rotation."""
        v = self.q[1:]
        n = float(np.linalg.norm(v))
        if n < 1e-15:
            return np.array([0.0, 0.0, 1.0])
        return v / n

    def to_json_dict(self) -> dict:
        return {"q": self.q.tolist(), "t": self.t.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "RigidTransform":
        return cls(q=np.array(numbers_from_json(d["q"], 4, "q")),
                   t=np.array(numbers_from_json(d["t"], 3, "t")))


def line_angle_deg(u: np.ndarray, w: np.ndarray) -> float:
    """Angle in degrees between the lines along unit vectors u and w, in [0, 90].

    Rotation axes act as lines: a rotation about -u mirrors one about u.
    """
    return math.degrees(math.acos(min(abs(float(u @ w)), 1.0)))


@dataclass(frozen=True)
class PoseError:
    """Scalar distance between two poses: rotation in degrees, translation in mm.

    Both components are non-negative and vanish exactly when the poses agree.
    """

    rotation_error_deg: float
    translation_error_mm: float

    def __post_init__(self):
        if self.rotation_error_deg < 0 or self.translation_error_mm < 0:
            raise ValueError("pose error components must be non-negative")


def pose_error(a: RigidTransform, b: RigidTransform) -> PoseError:
    """Rotation angle of a^-1 b and Euclidean distance of the translations.

    Symmetric in its arguments and insensitive to quaternion sign.
    """
    rel_q = _quat_multiply(a.q * np.array([1.0, -1.0, -1.0, -1.0]), b.q)
    w = abs(float(rel_q[0]))
    v = float(np.linalg.norm(rel_q[1:]))
    rot_deg = math.degrees(2.0 * math.atan2(v, w))
    trans = float(np.linalg.norm(a.t - b.t))
    return PoseError(rotation_error_deg=rot_deg, translation_error_mm=trans)


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box, lo/hi corners in mm. Zero-size boxes are allowed;
    the corners must be finite."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(3).copy()
        hi = np.asarray(self.hi, dtype=float).reshape(3).copy()
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("Aabb corners must be finite")
        if np.any(hi < lo):
            raise ValueError("Aabb hi must be >= lo componentwise")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_center_extents(cls, center, extents) -> "Aabb":
        c = np.asarray(center, dtype=float)
        h = np.asarray(extents, dtype=float) / 2.0
        return cls(lo=c - h, hi=c + h)

    def to_json_dict(self) -> dict:
        return {"center": [float(v) for v in self.center],
                "extents": [float(v) for v in self.extents]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Aabb":
        return cls.from_center_extents(numbers_from_json(d["center"], 3, "center"),
                                       numbers_from_json(d["extents"], 3, "extents"))

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def extents(self) -> np.ndarray:
        return self.hi - self.lo

    def corners(self) -> np.ndarray:
        xs = [self.lo[0], self.hi[0]]
        ys = [self.lo[1], self.hi[1]]
        zs = [self.lo[2], self.hi[2]]
        return np.array([[x, y, z] for x in xs for y in ys for z in zs])


@dataclass(frozen=True)
class Box:
    """Oriented box occluder: local frame pose plus half extents in mm."""

    pose: RigidTransform
    half_extents: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.half_extents, dtype=float).reshape(3).copy()
        if np.any(h <= 0):
            raise ValueError("box half extents must be positive")
        h.flags.writeable = False
        object.__setattr__(self, "half_extents", h)

    def segment_intersections(self, p0: np.ndarray, p1: np.ndarray):
        """Slab test of segments against the box, vectorized over rows.

        Returns (hit mask, entry fraction in [0, 1]) for segments p0 -> p1.
        """
        inv = self.pose.invert()
        a = inv.apply(p0)
        b = inv.apply(p1)
        a = np.atleast_2d(a)
        b = np.atleast_2d(b)
        d = b - a
        h = self.half_extents
        t_lo = np.zeros(len(a))
        t_hi = np.ones(len(a))
        ok = np.ones(len(a), dtype=bool)
        for k in range(3):
            dk = d[:, k]
            ak = a[:, k]
            parallel = np.abs(dk) < 1e-15
            ok &= ~(parallel & (np.abs(ak) > h[k]))
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (-h[k] - ak) / dk
                t2 = (h[k] - ak) / dk
            lo = np.where(parallel, 0.0, np.minimum(t1, t2))
            hi = np.where(parallel, 1.0, np.maximum(t1, t2))
            t_lo = np.maximum(t_lo, lo)
            t_hi = np.minimum(t_hi, hi)
        ok &= t_lo <= t_hi
        return ok, np.where(ok, t_lo, np.inf)

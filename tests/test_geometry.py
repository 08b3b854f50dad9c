import dataclasses
import json
import math
import re

import numpy as np
import pytest

from specklenav.detect import CircleFit, MarkerPose
from specklenav.geometry import (
    Aabb,
    Box,
    Point3,
    RigidTransform,
    pose_error,
)
from specklenav.handeye import HandEyeResult, ReprojectionStats

from conftest import random_transform, rotation_angle_deg


def test_identity_leaves_points_alone():
    eye = RigidTransform.identity()
    pts = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 9.0]])
    assert np.array_equal(eye.apply(pts), pts)


def test_quaternion_sign_is_canonical():
    """q and -q encode the same rotation; construction must pick one form."""
    a = RigidTransform(q=np.array([-0.5, 0.5, 0.5, 0.5]), t=np.zeros(3))
    b = RigidTransform(q=np.array([0.5, -0.5, -0.5, -0.5]), t=np.zeros(3))
    assert np.array_equal(a.q, b.q)
    assert a.q[0] >= 0.0


def test_non_unit_quaternion_rejected():
    with pytest.raises(ValueError):
        RigidTransform(q=np.array([1.0, 1.0, 0.0, 0.0]), t=np.zeros(3))


def test_non_finite_translation_rejected():
    with pytest.raises(ValueError):
        RigidTransform(q=np.array([1.0, 0.0, 0.0, 0.0]),
                       t=np.array([0.0, np.nan, 0.0]))


def test_rot_x_maps_y_to_z():
    r = RigidTransform.from_axis_angle((1.0, 0.0, 0.0), 90.0)
    assert np.allclose(r.apply(np.array([0.0, 1.0, 0.0])), [0.0, 0.0, 1.0],
                       atol=1e-12)
    assert np.allclose(r.apply(np.array([0.0, 0.0, 1.0])), [0.0, -1.0, 0.0],
                       atol=1e-12)


def homogeneous(tr: RigidTransform) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = tr.rotation_matrix
    m[:3, 3] = tr.t
    return m


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = random_transform(rng)
        b = random_transform(rng)
        m = homogeneous(a) @ homogeneous(b)
        c = a.compose(b)
        assert np.allclose(homogeneous(c), m, atol=1e-12)


def test_invert_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = random_transform(rng)
        for round_trip in (a.compose(a.invert()), a.invert().compose(a)):
            err = pose_error(round_trip, RigidTransform.identity())
            assert err.rotation_error_deg <= math.degrees(1e-9)
            assert err.translation_error_mm <= 1e-9


def test_apply_composes_like_function_application():
    rng = np.random.default_rng(5)
    pts = rng.normal(0.0, 100.0, (40, 3))
    for _ in range(10):
        a = random_transform(rng)
        b = random_transform(rng)
        assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)),
                           atol=1e-9)


def test_axis_angle_roundtrip():
    rng = np.random.default_rng(6)
    for _ in range(30):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = float(rng.uniform(1.0, 179.0))
        tr = RigidTransform.from_axis_angle(axis, angle)
        assert rotation_angle_deg(tr) == pytest.approx(angle, abs=1e-9)
        got = tr.rotation_axis()
        assert abs(float(got @ axis)) == pytest.approx(1.0, abs=1e-9)


def test_rotate_ignores_translation():
    tr = RigidTransform.from_axis_angle((0, 0, 1), 90.0, translation=(5, 6, 7))
    v = np.array([1.0, 0.0, 0.0])
    assert np.allclose(tr.rotate(v), [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(tr.apply(v), [5.0, 7.0, 7.0], atol=1e-12)


@pytest.mark.parametrize("shape", [(3,), (1, 3), (7, 3), (4096, 3), "rows"])
def test_apply_and_rotate_keep_the_broadcast_bits(shape):
    # The (N, 3) product plus a broadcast t, bit for bit; "rows" is the
    # (N, 3) view of (3, N) coordinate rows that the renderer passes.
    rng = np.random.default_rng(9)
    for _ in range(5):
        tr = random_transform(rng)
        pts = rng.normal(0.0, 300.0, (3, 500)).T if shape == "rows" else \
            rng.normal(0.0, 300.0, shape)
        rotated = np.atleast_2d(pts) @ tr.rotation_matrix.T
        moved = rotated + tr.t
        if pts.ndim == 1:
            rotated, moved = rotated[0], moved[0]
        for got, want in ((tr.rotate(pts), rotated), (tr.apply(pts), moved)):
            assert got.shape == pts.shape
            assert got.tobytes() == want.tobytes()


def test_pose_error_zero_for_identical_poses():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_transform(rng)
        err = pose_error(a, a)
        # the quaternion product leaves ~1e-16 of rounding, not exact zero
        assert err.rotation_error_deg < 1e-9
        assert err.translation_error_mm == 0.0


def test_pose_error_known_values():
    a = RigidTransform.identity()
    b = RigidTransform.from_axis_angle((0, 1, 0), 5.0, translation=(3.0, 4.0, 0.0))
    err = pose_error(a, b)
    assert err.rotation_error_deg == pytest.approx(5.0, abs=1e-9)
    assert err.translation_error_mm == pytest.approx(5.0, abs=1e-12)


def test_pose_error_symmetric_and_sign_insensitive():
    rng = np.random.default_rng(8)
    a = random_transform(rng)
    b = random_transform(rng)
    e1 = pose_error(a, b)
    e2 = pose_error(b, a)
    assert e1.rotation_error_deg == pytest.approx(e2.rotation_error_deg, abs=1e-9)
    assert e1.translation_error_mm == pytest.approx(e2.translation_error_mm, abs=1e-9)


def test_json_roundtrip_is_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = random_transform(rng)
        back = RigidTransform.from_json_dict(a.to_json_dict())
        assert np.array_equal(a.q, back.q)
        assert np.array_equal(a.t, back.t)


def test_random_transform_is_seeded_and_bounded():
    a = random_transform(np.random.default_rng(42), 30.0, 50.0)
    b = random_transform(np.random.default_rng(42), 30.0, 50.0)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.t, b.t)
    for _ in range(50):
        tr = random_transform(np.random.default_rng(_), 30.0, 50.0)
        assert rotation_angle_deg(tr) <= 30.0 + 1e-9
        assert np.linalg.norm(tr.t) <= 50.0 * math.sqrt(3) + 1e-9


def test_point3_basics():
    p = Point3(1.0, 2.0, 3.0)
    assert list(p) == [1.0, 2.0, 3.0]
    assert np.array_equal(p.as_array(), [1.0, 2.0, 3.0])
    assert Point3.from_array(np.array([1.0, 2.0, 3.0])) == p
    assert p.distance_to(Point3(1.0, 2.0, 7.0)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        Point3(1.0, float("inf"), 0.0)


def test_aabb_center_extents_corners():
    box = Aabb.from_center_extents((10.0, 0.0, -5.0), (4.0, 6.0, 2.0))
    assert np.allclose(box.center, [10.0, 0.0, -5.0])
    assert np.allclose(box.extents, [4.0, 6.0, 2.0])
    corners = box.corners()
    assert corners.shape == (8, 3)
    assert corners[:, 0].min() == pytest.approx(8.0)
    assert corners[:, 1].max() == pytest.approx(3.0)


def test_aabb_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Aabb(lo=(1.0, 0.0, 0.0), hi=(0.0, 1.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_aabb_rejects_non_finite_corners(bad):
    # Every comparison with NaN is false, so hi < lo alone let a NaN box pass.
    for lo, hi in (((bad, 0.0, 0.0), (1.0, 1.0, 1.0)), ((0.0, 0.0, 0.0), (1.0, bad, 1.0))):
        with pytest.raises(ValueError, match="^Aabb corners must be finite$"):
            Aabb(lo=lo, hi=hi)
    with pytest.raises(ValueError, match="^Aabb corners must be finite$"):
        Aabb.from_center_extents((0.0, 0.0, 0.0), (90.0, abs(bad), 24.0))


def test_degenerate_aabb_is_a_point():
    box = Aabb.from_center_extents((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
    assert np.allclose(box.corners(), np.tile([1.0, 2.0, 3.0], (8, 1)))


def test_box_segment_intersections():
    box = Box(pose=RigidTransform.identity(),
              half_extents=(10.0, 10.0, 10.0))
    p0 = np.array([[0.0, 0.0, -40.0], [50.0, 50.0, -40.0]])
    p1 = np.array([[0.0, 0.0, 40.0], [50.0, 50.0, 40.0]])
    hit, frac = box.segment_intersections(p0, p1)
    assert hit.tolist() == [True, False]
    # the ray enters the slab at z = -10, i.e. 30/80 of the segment in
    assert frac[0] == pytest.approx(30.0 / 80.0, abs=1e-12)


def test_box_respects_its_pose():
    box = Box(pose=RigidTransform.translation(100.0, 0.0, 0.0),
              half_extents=(5.0, 5.0, 5.0))
    hit, _ = box.segment_intersections(np.array([[100.0, 0.0, -20.0]]),
                                       np.array([[100.0, 0.0, 20.0]]))
    assert hit.tolist() == [True]
    hit, _ = box.segment_intersections(np.array([[0.0, 0.0, -20.0]]),
                                       np.array([[0.0, 0.0, 20.0]]))
    assert hit.tolist() == [False]


def test_transforms_are_immutable():
    tr = RigidTransform.identity()
    with pytest.raises(ValueError):
        tr.q[0] = 0.5
    with pytest.raises(ValueError):
        tr.t[0] = 1.0


# Reference copies of the array formulas RigidTransform was validated and
# composed with before its constructor took the norm as dot-then-sqrt and
# canonicalised in place.  Every transform must keep their bits.

def _ref_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _ref_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _ref_canonical(q):
    n = float(np.linalg.norm(q))
    if not np.isfinite(n) or n < 1e-12:
        raise ValueError("quaternion norm is zero or non-finite")
    q = q / n
    for comp in q:
        if comp > 0.0:
            break
        if comp < 0.0:
            q = -q
            break
    return q


def _ref_from_matrix(m):
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s,
                      (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s,
                      (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s,
                      0.25 * s, (m[1, 2] + m[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    return _ref_canonical(q)


def _ref_seal(q, t):
    """(q, t) as the old constructor stored them, or its ValueError."""
    q = np.asarray(q, dtype=float).reshape(4).copy()
    t = np.asarray(t, dtype=float).reshape(3).copy()
    if not np.all(np.isfinite(t)):
        raise ValueError("translation must be finite")
    n = float(np.linalg.norm(q))
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"quaternion norm {n} too far from 1")
    return _ref_canonical(q), t


def _ref_compose(a, b):
    return _ref_seal(_ref_multiply(a.q, b.q), _ref_matrix(a.q) @ b.t + a.t)


def _ref_invert(a):
    qc = a.q * np.array([1.0, -1.0, -1.0, -1.0])
    return _ref_seal(qc, -(_ref_matrix(qc) @ a.t))


def _ref_axis_angle(axis, angle_deg, translation):
    axis = np.asarray(axis, dtype=float).reshape(3)
    half = math.radians(angle_deg) / 2.0
    q = np.concatenate([[math.cos(half)], math.sin(half) * axis / float(np.linalg.norm(axis))])
    return _ref_seal(q, translation)


def _same_bits(tr: RigidTransform, ref) -> bool:
    q, t = ref
    return (tr.q.dtype == q.dtype == tr.t.dtype == t.dtype == np.float64
            and tr.q.tobytes() == q.tobytes() and tr.t.tobytes() == t.tobytes())


def _random_unit_quaternion(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


# w < 0; w == 0 with a negative first non-zero component (and a -0.0 ahead
# of it); the identity; half turns and near half turns, where w is 0 or tiny.
EDGE_QUATERNIONS = {
    "w negative": [-0.5, 0.5, 0.5, 0.5],
    "w zero, x negative": [0.0, -0.6, 0.8, 0.0],
    "w zero, y first and negative": [0.0, -0.0, -1.0, 0.0],
    "w zero, z only and negative": [0.0, 0.0, 0.0, -1.0],
    "identity": [1.0, 0.0, 0.0, 0.0],
    "minus identity": [-1.0, -0.0, 0.0, -0.0],
    "half turn": [0.0, 0.48, -0.6, 0.64],
    "near half turn": [-1e-9, 0.48, -0.6, 0.64],
    "norm 1 + 9e-7": [1.0 + 9e-7, 0.0, 0.0, 0.0],
}


def _bit_cases():
    rng = np.random.default_rng(2024)
    transforms = [random_transform(rng) for _ in range(60)]
    for _ in range(60):
        transforms.append(RigidTransform(q=_random_unit_quaternion(rng) * rng.choice([-1.0, 1.0]),
                                         t=rng.uniform(-500.0, 500.0, 3)))
    for q in EDGE_QUATERNIONS.values():
        transforms.append(RigidTransform(q=np.array(q), t=rng.uniform(-500.0, 500.0, 3)))
    transforms.append(RigidTransform.from_axis_angle((0.3, -0.4, 0.5), 180.0, (1.0, 2.0, 3.0)))
    transforms.append(RigidTransform.from_axis_angle((0.0, 0.0, -1.0), 179.9999999))
    return rng, transforms


def test_transforms_keep_the_bits_of_the_array_formulas():
    rng, transforms = _bit_cases()
    for k, a in enumerate(transforms):
        # Normalising again can move a last bit; both sides must move it alike.
        assert _same_bits(RigidTransform(q=a.q, t=a.t), _ref_seal(a.q, a.t)), k
        assert a.rotation_matrix.tobytes() == _ref_matrix(a.q).tobytes(), k
        inv = a.invert()
        assert _same_bits(inv, _ref_invert(a)), k
        for b in (transforms[(7 * k + 3) % len(transforms)], inv, a):
            ab = a.compose(b)
            assert _same_bits(ab, _ref_compose(a, b)), k
            # A chain feeds each product's rounding into the next one.
            assert _same_bits(ab.compose(a), _ref_compose(ab, a)), k
        for pts in (rng.normal(0.0, 300.0, 3), rng.normal(0.0, 300.0, (5, 3))):
            want = np.atleast_2d(pts) @ _ref_matrix(a.q).T + a.t
            assert a.apply(pts).tobytes() == (want[0] if pts.ndim == 1 else want).tobytes(), k
        m = a.rotation_matrix
        for rot in (m, m + rng.normal(0.0, 1e-9, (3, 3))):
            assert _same_bits(RigidTransform.from_matrix(rot, a.t),
                              _ref_seal(_ref_from_matrix(rot), a.t)), k
        doc = a.to_json_dict()
        assert json.dumps(doc) == json.dumps({"q": [float(c) for c in a.q],
                                              "t": [float(c) for c in a.t]}), k
        assert all(type(c) is float for c in doc["q"] + doc["t"]), k


def test_constructor_and_axis_angle_keep_the_bits_of_the_array_formulas():
    rng = np.random.default_rng(77)
    for name, q in EDGE_QUATERNIONS.items():
        for given in (q, np.array(q), np.array([q])):  # list, (4,) and (1, 4)
            assert _same_bits(RigidTransform(q=given, t=[1, 2, 3]), _ref_seal(q, [1, 2, 3])), name
    for _ in range(200):
        axis, angle, t = rng.normal(size=3), rng.uniform(-360.0, 360.0), rng.normal(0.0, 300.0, 3)
        assert _same_bits(RigidTransform.from_axis_angle(axis, angle, t),
                          _ref_axis_angle(axis, angle, t))
    for angle in (180.0, -180.0, 360.0, 179.9999999, 0.0):
        assert _same_bits(RigidTransform.from_axis_angle((0.0, -1.0, 0.0), angle),
                          _ref_axis_angle((0.0, -1.0, 0.0), angle, (0.0, 0.0, 0.0))), angle


def test_the_constructor_copies_its_input():
    q, t = np.array([0.0, -0.6, 0.8, 0.0]), np.array([1.0, 2.0, 3.0])
    tr = RigidTransform(q=q, t=t)
    q[1], t[0] = 5.0, 9.0
    assert tr.q.tolist() == [0.0, 0.6, -0.8, -0.0] and tr.t.tolist() == [1.0, 2.0, 3.0]
    assert q.flags.writeable and t.flags.writeable


NON_FINITE = {
    "nan w": ([math.nan, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    "nan x": ([1.0, math.nan, 0.0, 0.0], [0.0, 0.0, 0.0]),
    "inf w": ([math.inf, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
    "inf and -inf": ([math.inf, -math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]),
    "inf and nan": ([math.inf, 0.0, math.nan, 0.0], [0.0, 0.0, 0.0]),
    "nan t": ([1.0, 0.0, 0.0, 0.0], [0.0, math.nan, 0.0]),
    "inf t": ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -math.inf]),
    "nan q and t": ([math.nan, 0.0, 0.0, 0.0], [math.inf, 0.0, 0.0]),
    "zero q": ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_bad_input_raises_the_messages_of_the_array_formulas(case):
    q, t = NON_FINITE[case]
    with pytest.raises(ValueError) as ref:
        _ref_seal(q, t)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
        RigidTransform(q=q, t=t)
    with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
        RigidTransform.from_json_dict({"q": q, "t": t})


def test_a_non_finite_matrix_raises_the_message_of_the_array_formulas():
    for bad in (math.nan, math.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError) as ref:
            _ref_seal(_ref_from_matrix(m), np.zeros(3))
        with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
            RigidTransform.from_matrix(m)


def _slotted_values():
    tr = RigidTransform.from_axis_angle((0.0, 1.0, 0.0), 30.0, (1.0, 2.0, 3.0))
    return [
        Point3(1.0, 2.0, 3.0),
        tr,
        MarkerPose(center=Point3(0.0, 0.0, 400.0), normal=np.array([0.0, 0.0, -1.0]),
                   radius_mm=10.0, rms_residual_mm=0.1, inlier_count=20, timestamp_s=0.0),
        ReprojectionStats(mean_px=0.2, std_px=0.1, max_px=0.4),
        HandEyeResult(camera_in_flange=tr, rotation_residual_deg=0.0,
                      translation_residual_mm=0.0, sample_count=3),
        CircleFit(center=np.zeros(3), normal=np.array([0.0, 0.0, 1.0]), radius_mm=10.0,
                  rms_mm=0.1),
    ]


def test_value_types_made_in_bulk_have_slots_only():
    assert RigidTransform.__slots__ == ("q", "t")  # room for no cached matrix
    for value in _slotted_values():
        name = type(value).__name__
        assert not hasattr(value, "__dict__"), name
        field = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))
        # A slot-less name cannot be stored at all.  (The frozen __setattr__
        # of a slotted class raises TypeError for it on Python 3.10 and 3.11.)
        with pytest.raises((AttributeError, TypeError)):
            setattr(value, "extra", 1)
        with pytest.raises(AttributeError):
            object.__setattr__(value, "extra", 1)


def test_slotted_values_replace_and_compare_as_before():
    point, tr, pose, stats, result, _ = _slotted_values()
    # dataclasses.replace runs the validation again, as harness._carried needs.
    moved = dataclasses.replace(tr, t=[4, 5, 6])
    assert _same_bits(moved, _ref_seal(tr.q, [4.0, 5.0, 6.0]))
    with pytest.raises(ValueError, match="translation must be finite"):
        dataclasses.replace(tr, t=[0.0, math.nan, 0.0])
    turned = dataclasses.replace(pose, center=Point3(0.0, 10.0, 400.0),
                                 normal=np.array([0.0, -0.6, -0.8]))
    assert turned.normal.tolist() == [0.0, -0.6, -0.8] and turned.radius_mm == 10.0
    with pytest.raises(ValueError, match="toward the camera origin"):
        dataclasses.replace(pose, normal=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="at least 3 samples"):
        dataclasses.replace(result, sample_count=2)
    # Float fields compare by value; array fields compare as numpy arrays
    # do, which have no truth value unless the very same object is compared.
    assert point == Point3(1, 2, 3) and point != Point3(1, 2, 4)
    assert stats == ReprojectionStats(0.2, 0.1, 0.4)
    assert tr == tr and result == dataclasses.replace(result)
    with pytest.raises(ValueError, match="truth value"):
        _ = tr == RigidTransform(q=tr.q, t=tr.t)

import math

import numpy as np
import pytest

from specklenav.geometry import (
    Aabb,
    Box,
    Point3,
    RigidTransform,
    pose_error,
    random_transform,
)

from conftest import rotation_angle_deg


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

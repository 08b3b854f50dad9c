import warnings
from dataclasses import replace

import numpy as np
import pytest

from specklenav.camera import CameraModel, FovRow, RangeClampWarning
from specklenav.geometry import RigidTransform
from specklenav.harness import Scenario

from conftest import scenario_json_round_trip

# Bench-calibration rows of the reference camera: distance, fov_x, fov_y,
# sigma_z, pixel size (mm).
KNOTS = [
    (250.0, 198.44, 129.20, 0.033, 0.106),
    (260.0, 202.37, 134.37, 0.036, 0.111),
    (380.0, 408.60, 270.68, 0.106, 0.223),
    (400.0, 435.37, 284.93, 0.117, 0.234),
    (500.0, 565.23, 356.16, 0.183, 0.293),
    (600.0, 658.27, 427.39, 0.264, 0.352),
    (700.0, 751.32, 498.63, 0.359, 0.410),
]


@pytest.fixture
def camera():
    return CameraModel()


def test_default_table_matches_bench_rows(camera):
    assert len(camera.fov_table) == 7
    for row, (d, fx, fy, sz, px) in zip(camera.fov_table, KNOTS):
        assert (row.distance_mm, row.fov_x_mm, row.fov_y_mm,
                row.sigma_z_mm, row.pixel_size_mm) == (d, fx, fy, sz, px)


def test_columns_exact_at_every_knot(camera):
    for d, fx, fy, sz, px in KNOTS:
        assert camera.sigma_z(d) == sz
        assert camera.field_of_view(d) == (fx, fy)
        assert camera.pixel_size(d) == px


def test_interpolation_between_knots(camera):
    # midpoint of the 260..380 segment, frozen by hand from the two rows
    assert camera.field_of_view(300.0) == pytest.approx(
        (271.11333333333334, 179.80666666666667), abs=1e-12)
    got = camera.sigma_z(300.0)
    assert got == pytest.approx(0.036 + (0.106 - 0.036) / 3.0, abs=1e-12)


def test_working_range_endpoints(camera):
    assert camera.near_mm == 250.0
    assert camera.far_mm == 700.0


def test_out_of_range_clamps_with_warning(camera):
    with pytest.warns(RangeClampWarning):
        assert camera.sigma_z(100.0) == 0.033
    with pytest.warns(RangeClampWarning):
        assert camera.field_of_view(900.0) == (751.32, 498.63)


def test_lookup_reads_several_columns_after_one_range_check(camera):
    depths = np.array([240.0, 250.0, 333.3, 612.5, 700.0, 710.0])
    names = ("fov_x_mm", "fov_y_mm", "sigma_z_mm", "pixel_size_mm")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        columns = camera.lookup(depths, names)
    assert [w.category for w in caught] == [RangeClampWarning]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RangeClampWarning)
        want = (*camera.field_of_view(depths), camera.sigma_z(depths),
                camera.pixel_size(depths))
        assert camera.lookup(400.0, names) == tuple(float(row) for row in KNOTS[3][1:])
    for got, expected in zip(columns, want, strict=True):
        assert np.array_equal(got, expected)


def test_in_range_does_not_warn(camera):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        camera.sigma_z(400.0)
        camera.field_of_view(250.0)
        camera.pixel_size(700.0)


def test_vectorized_queries_keep_shape(camera):
    d = np.array([250.0, 400.0, 700.0])
    sz = camera.sigma_z(d)
    assert np.array_equal(sz, [0.033, 0.117, 0.359])
    px = camera.pixel_size(d)
    assert px.shape == (3,)


def test_contains_checks_depth_and_lateral_extent(camera):
    inside = np.array([[0.0, 0.0, 400.0]])
    assert camera.contains(inside).all()
    too_near = np.array([[0.0, 0.0, 200.0]])
    too_far = np.array([[0.0, 0.0, 800.0]])
    assert not camera.contains(too_near).any()
    assert not camera.contains(too_far).any()
    # fov_x at 400 mm is 435.37, so half-width is 217.685
    lateral_in = np.array([[217.0, 0.0, 400.0]])
    lateral_out = np.array([[218.0, 0.0, 400.0]])
    assert camera.contains(lateral_in).all()
    assert not camera.contains(lateral_out).any()
    # The near and far planes and the lateral edges are inside.
    edges = np.array([[0.0, 0.0, 250.0], [0.0, 0.0, 700.0],
                      [217.685, 0.0, 400.0], [0.0, -142.465, 400.0]])
    assert camera.contains(edges).all()
    assert camera.contains(edges[0]).shape == (1,)
    nan, inf = float("nan"), float("inf")
    odd = np.array([[nan, 0.0, 400.0], [0.0, nan, 400.0], [0.0, 0.0, nan],
                    [inf, 0.0, 400.0], [0.0, -inf, 400.0], [0.0, 0.0, inf],
                    [0.0, 0.0, -inf]])
    assert not camera.contains(odd).any()


def test_json_roundtrip_is_exact(camera):
    back = scenario_json_round_trip(camera=camera).camera
    assert back.fov_table == camera.fov_table
    assert back.frame_rate == camera.frame_rate
    assert back.resolution == camera.resolution
    assert back.lateral_sigma_factor == camera.lateral_sigma_factor
    assert np.array_equal(back.mount_pose.q, camera.mount_pose.q)
    assert np.array_equal(back.mount_pose.t, camera.mount_pose.t)


def test_copies_answer_queries_like_the_original(camera):
    # Copies rebuild the table arrays in __post_init__; they must agree.
    depths = np.linspace(250.0, 700.0, 37)
    rng = np.random.default_rng(3)
    points = np.column_stack([rng.uniform(-400, 400, 500), rng.uniform(-260, 260, 500),
                              rng.uniform(240.0, 710.0, 500)])
    moved = replace(camera, mount_pose=RigidTransform.translation(1.0, 2.0, 3.0))
    back = scenario_json_round_trip(camera=moved).camera
    for other in (moved, back):
        for a, b in zip(other.field_of_view(depths), camera.field_of_view(depths)):
            assert np.array_equal(a, b)
        assert np.array_equal(other.sigma_z(depths), camera.sigma_z(depths))
        assert np.array_equal(other.pixel_size(depths), camera.pixel_size(depths))
        assert np.array_equal(other.contains(points), camera.contains(points))


def test_frustum_margin_sign_matches_contains(camera):
    rng = np.random.default_rng(4)
    z = np.concatenate([rng.uniform(240.0, 710.0, 400), [250.0, 700.0, 400.0, 400.0]])
    fx, fy = camera.field_of_view(np.clip(z, 250.0, 700.0))
    x = rng.uniform(-0.6, 0.6, len(z)) * fx
    y = rng.uniform(-0.6, 0.6, len(z)) * fy
    # Points exactly on the near and far planes and on the lateral edges.
    x[-4:], y[-4:] = 0.0, 0.0
    x[-2], y[-1] = fx[-2] / 2.0, -fy[-1] / 2.0
    points = np.column_stack([x, y, z])
    margin = camera.frustum_margin(points)
    assert margin.shape == (len(z),)
    assert np.array_equal(margin >= 0.0, camera.contains(points))
    assert np.array_equal(margin[-4:], np.zeros(4))
    grid = camera.frustum_margin(points.reshape(2, -1, 3))
    assert np.array_equal(grid.ravel(), margin)


def test_table_validation():
    with pytest.raises(ValueError):
        CameraModel(fov_table=(FovRow(250.0, 198.44, 129.2, 0.033, 0.106),))
    rows = (FovRow(400.0, 435.37, 284.93, 0.117, 0.234),
            FovRow(250.0, 198.44, 129.2, 0.033, 0.106))
    with pytest.raises(ValueError):
        CameraModel(fov_table=rows)


def test_fov_row_rejects_non_positive_entries():
    with pytest.raises(ValueError):
        FovRow(0.0, 198.44, 129.2, 0.033, 0.106)
    with pytest.raises(ValueError):
        FovRow(250.0, 198.44, 129.2, -0.033, 0.106)


def test_frame_rate_and_resolution_bounds():
    with pytest.raises(ValueError):
        CameraModel(frame_rate=0.0)
    with pytest.raises(ValueError):
        CameraModel(frame_rate=500.0)
    with pytest.raises(ValueError):
        CameraModel(resolution=(1, 192))



def test_camera_dict_with_the_dropped_blur_key_still_loads(camera):
    # Scenario and report files written before optical_blur_px was removed
    # carry the key; loading ignores it.
    plain = scenario_json_round_trip(camera=camera)
    doc = plain.to_json_dict()
    assert "optical_blur_px" not in doc["camera"]
    for blur in ([1.610, 2.378, 2.377, 1.937, 0.262, 1.304, 2.051], [1.0, 2.0], None):
        doc["camera"]["optical_blur_px"] = blur
        back = Scenario.from_json_dict(doc)
        assert back.to_json_dict() == plain.to_json_dict()
        assert back.camera.fov_table == camera.fov_table

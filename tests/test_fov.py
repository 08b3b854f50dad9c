import numpy as np
import pytest

from specklenav.camera import DEFAULT_FOV_TABLE, CameraModel
from specklenav.fov import (
    AccuracyEstimate,
    VisibilityResult,
    accuracy_estimate,
    blind_spot_check,
    observation_rectangle_fit,
)
from specklenav.geometry import Box, Point3, RigidTransform

from conftest import random_transform

CAMERA = CameraModel()


def test_field_of_view_at_the_table_rows():
    for row in DEFAULT_FOV_TABLE:
        assert CAMERA.field_of_view(row.distance_mm) == (row.fov_x_mm, row.fov_y_mm)


def test_field_of_view_between_rows():
    assert CAMERA.field_of_view(300.0) == (271.11333333333334, 179.80666666666667)


def test_view_grows_strictly_with_distance():
    grid = np.linspace(250.0, 700.0, 901)
    fx, fy = CAMERA.field_of_view(grid)
    assert np.all(np.diff(fx) > 0.0)
    assert np.all(np.diff(fy) > 0.0)


def test_rectangle_fit_round_trips_every_row():
    for row in DEFAULT_FOV_TABLE:
        d = observation_rectangle_fit(CAMERA, row.fov_x_mm, row.fov_y_mm)
        assert d == row.distance_mm


def test_tiny_rectangle_fits_at_the_near_limit():
    assert observation_rectangle_fit(CAMERA, 10.0, 10.0) == 250.0


def test_oversized_rectangle_has_no_fit():
    assert observation_rectangle_fit(CAMERA, 800.0, 600.0) is None


def test_fit_standoff_grows_with_the_rectangle():
    widths = [100.0, 200.0, 300.0, 400.0, 500.0, 700.0]
    fits = [observation_rectangle_fit(CAMERA, w, w * 2.0 / 3.0) for w in widths]
    assert all(d is not None for d in fits)
    assert fits == sorted(fits)


def test_rectangle_fit_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        observation_rectangle_fit(CAMERA, 0.0, 100.0)
    with pytest.raises(ValueError):
        observation_rectangle_fit(CAMERA, 100.0, -1.0)


def test_default_frustum_spans_the_table():
    for z in (250.0, 700.0):
        assert blind_spot_check(RigidTransform.identity(), CAMERA, [],
                                Point3(0.0, 0.0, z)).visible


def test_target_straight_ahead_is_visible():
    result = blind_spot_check(RigidTransform.identity(), CAMERA, [],
                              Point3(0.0, 0.0, 400.0))
    assert result == VisibilityResult(True, "visible")


def test_target_outside_the_depth_slice():
    for z in (200.0, 249.9, 700.1, 710.0):
        result = blind_spot_check(RigidTransform.identity(), CAMERA, [],
                                  Point3(0.0, 0.0, z))
        assert result == VisibilityResult(False, "outside_frustum")


def test_target_just_past_the_view_edge():
    # half view width at 400 mm is 217.685 mm
    inside = blind_spot_check(RigidTransform.identity(), CAMERA, [],
                              Point3(217.0, 0.0, 400.0))
    outside = blind_spot_check(RigidTransform.identity(), CAMERA, [],
                               Point3(218.0, 0.0, 400.0))
    assert inside.visible
    assert outside == VisibilityResult(False, "outside_frustum")


def test_box_on_the_line_of_sight_occludes():
    blocker = Box(pose=RigidTransform.translation(0.0, 0.0, 300.0),
                  half_extents=np.array([40.0, 40.0, 10.0]))
    result = blind_spot_check(RigidTransform.identity(), CAMERA, [blocker],
                              Point3(0.0, 0.0, 400.0))
    assert result == VisibilityResult(False, "occluded")


def test_box_beside_the_line_of_sight_does_not_occlude():
    bystander = Box(pose=RigidTransform.translation(150.0, 0.0, 300.0),
                    half_extents=np.array([40.0, 40.0, 10.0]))
    result = blind_spot_check(RigidTransform.identity(), CAMERA, [bystander],
                              Point3(0.0, 0.0, 400.0))
    assert result.visible


def test_visibility_is_rigid_invariant():
    """Moving camera, occluders and target together never changes the verdict."""
    blocker = Box(pose=RigidTransform.translation(0.0, 0.0, 300.0),
                  half_extents=np.array([40.0, 40.0, 10.0]))
    cases = [([], Point3(0.0, 0.0, 400.0)),
             ([], Point3(218.0, 0.0, 400.0)),
             ([blocker], Point3(0.0, 0.0, 400.0)),
             ([blocker], Point3(120.0, 0.0, 400.0))]
    rng = np.random.default_rng(31)
    for occluders, target in cases:
        base = blind_spot_check(RigidTransform.identity(), CAMERA, occluders, target)
        for _ in range(20):
            g = random_transform(rng, max_rotation_deg=90.0, max_translation_mm=500.0)
            moved_boxes = [Box(pose=g.compose(b.pose), half_extents=b.half_extents)
                           for b in occluders]
            moved_target = Point3.from_array(g.apply(target.as_array()))
            got = blind_spot_check(g, CAMERA, moved_boxes, moved_target)
            assert got == base


def test_accuracy_estimate_band():
    assert accuracy_estimate(300.0).low_mm == 3.0
    assert accuracy_estimate(300.0).high_mm == 15.0
    assert accuracy_estimate(100.0).low_mm == 1.0
    assert accuracy_estimate(100.0).high_mm == 5.0
    with pytest.raises(ValueError):
        accuracy_estimate(0.0)


def test_accuracy_note_flags_the_band_as_coarse():
    estimate = accuracy_estimate(300.0)
    assert "sub-millimetre" in estimate.note


def test_accuracy_estimate_is_a_plain_band():
    assert accuracy_estimate(200.0) == AccuracyEstimate(low_mm=2.0, high_mm=10.0)

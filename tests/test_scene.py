import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from specklenav.camera import CameraModel
from specklenav.geometry import Box, RigidTransform
from specklenav.scene import (
    EmptyCloudError,
    PointCloud,
    RingMarker,
    TorsoPhantom,
    _box_bounds,
    breathing_offset,
    marker_pose_world,
    marker_rim_in_view,
    marker_top_center_world,
    render_cloud,
)

from conftest import random_transform, scenario_json_round_trip


def down_camera(distance_mm: float, **kwargs) -> CameraModel:
    """Camera on the phantom z axis looking straight down at the patch."""
    mount = RigidTransform.from_axis_angle((1.0, 0.0, 0.0), 180.0,
                                           translation=(0.0, 0.0, distance_mm))
    return CameraModel(mount_pose=mount, **kwargs)


def tilted_camera(distance_mm: float, tilt_deg: float, **kwargs) -> CameraModel:
    """down_camera swung about the phantom y axis, still aimed at the origin."""
    swing = RigidTransform.from_axis_angle((0.0, 1.0, 0.0), tilt_deg)
    down = down_camera(distance_mm).mount_pose
    return CameraModel(mount_pose=swing.compose(down), **kwargs)


# ---------------------------------------------------------------------------
# surfaces and breathing


def test_flat_surface_height_zero():
    phantom = TorsoPhantom()
    assert np.all(phantom._height_fn(np.array([0.0, 10.0]), np.array([0.0, -20.0])) == 0.0)


def test_slope_and_ripple_and_dome_surfaces():
    slope = TorsoPhantom(surface={"kind": "slope", "gx": 0.1, "gy": -0.2})
    assert slope._height_fn(10.0, 10.0) == pytest.approx(-1.0)
    ripple = TorsoPhantom(surface={"kind": "ripple", "amplitude_mm": 2.0,
                                   "wavelength_x_mm": 80.0,
                                   "wavelength_y_mm": 60.0})
    assert ripple._height_fn(0.0, 0.0) == pytest.approx(2.0)
    dome = TorsoPhantom(surface={"kind": "dome", "height_mm": 30.0,
                                 "rx_mm": 100.0, "ry_mm": 80.0})
    assert dome._height_fn(0.0, 0.0) == pytest.approx(30.0)
    assert dome._height_fn(100.0, 0.0) == pytest.approx(0.0)


def test_unknown_surface_kind_rejected():
    with pytest.raises(ValueError):
        TorsoPhantom(surface={"kind": "waves"})


def test_on_patch_is_the_closed_extent():
    phantom = TorsoPhantom(extent=(-50.0, 50.0, -40.0, 40.0))
    x = np.array([0.0, -50.0, 50.0, 60.0, 0.0, np.nextafter(50.0, 51.0)])
    y = np.array([0.0, 40.0, -40.0, 0.0, -40.5, 0.0])
    assert phantom._on_patch(x, y).tolist() == [True, True, True, False, False, False]


def test_extent_and_breathing_validation():
    with pytest.raises(ValueError):
        TorsoPhantom(extent=(50.0, -50.0, -40.0, 40.0))
    with pytest.raises(ValueError):
        TorsoPhantom(breathing_amplitude_mm=-1.0)
    with pytest.raises(ValueError):
        TorsoPhantom(breathing_period_s=0.0)


def test_breathing_offset_sinusoid():
    phantom = TorsoPhantom(breathing_amplitude_mm=3.0, breathing_period_s=4.0)
    assert breathing_offset(phantom, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert breathing_offset(phantom, 1.0) == pytest.approx(3.0, abs=1e-9)
    assert breathing_offset(phantom, 3.0) == pytest.approx(-3.0, abs=1e-9)
    # periodicity holds far from t=0 as well
    assert breathing_offset(phantom, 401.0) == pytest.approx(3.0, abs=1e-9)


def test_still_phantom_has_zero_offset():
    assert breathing_offset(TorsoPhantom(), 12.34) == 0.0


def test_phantom_json_roundtrip():
    phantom = TorsoPhantom(surface={"kind": "dome", "height_mm": 25.0,
                                    "rx_mm": 120.0, "ry_mm": 90.0},
                           breathing_amplitude_mm=2.0)
    back = scenario_json_round_trip(phantom=phantom).phantom
    assert back.surface == phantom.surface
    assert back.extent == phantom.extent
    assert back.breathing_amplitude_mm == 2.0


def test_surface_must_be_a_descriptor():
    with pytest.raises(TypeError, match="descriptor dict, not function"):
        TorsoPhantom(surface=lambda x, y: np.zeros_like(x))


# ---------------------------------------------------------------------------
# marker placement


def test_marker_rides_the_breathing_surface():
    phantom = TorsoPhantom(breathing_amplitude_mm=3.0, breathing_period_s=4.0)
    marker = RingMarker()
    still = marker_pose_world(phantom, marker, 0.0)
    lifted = marker_pose_world(phantom, marker, 1.0)
    assert lifted.t[2] - still.t[2] == pytest.approx(3.0, abs=1e-9)


def test_marker_top_center_adds_thickness():
    phantom = TorsoPhantom()
    marker = RingMarker()
    top = marker_top_center_world(phantom, marker, 0.0)
    assert np.allclose(top, [0.0, 0.0, marker.thickness_mm], atol=1e-12)


def test_marker_anchor_must_be_on_patch():
    phantom = TorsoPhantom(extent=(-50.0, 50.0, -40.0, 40.0))
    marker = RingMarker(pose_on_surface=RigidTransform.translation(80.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        marker_pose_world(phantom, marker, 0.0)


def test_ring_marker_defaults_and_validation():
    marker = RingMarker()
    assert marker.outer_diameter_mm == 24.0
    assert marker.inner_diameter_mm == 16.0
    assert marker.mid_diameter_mm == 20.0
    with pytest.raises(ValueError):
        RingMarker(outer_diameter_mm=10.0, inner_diameter_mm=16.0)


def test_ring_marker_json_roundtrip():
    marker = RingMarker(pose_on_surface=RigidTransform.translation(3.4, 3.4, 0.0))
    back = scenario_json_round_trip(marker=marker).marker
    assert back.outer_diameter_mm == marker.outer_diameter_mm
    assert np.array_equal(back.pose_on_surface.t, marker.pose_on_surface.t)


# ---------------------------------------------------------------------------
# rendering


def test_render_is_deterministic_per_seed():
    cam = down_camera(400.0, resolution=(96, 72))
    phantom = TorsoPhantom()
    a = render_cloud(phantom, RingMarker(), cam, seed=11)
    b = render_cloud(phantom, RingMarker(), cam, seed=11)
    c = render_cloud(phantom, RingMarker(), cam, seed=12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert a.seed == 11 and a.timestamp_s == 0.0


def test_every_rendered_point_is_inside_the_frustum():
    phantom = TorsoPhantom(surface={"kind": "dome", "height_mm": 40.0,
                                    "rx_mm": 160.0, "ry_mm": 120.0})
    for distance, seed in ((300.0, 0), (450.0, 1), (650.0, 2)):
        cam = down_camera(distance, resolution=(80, 60))
        cloud = render_cloud(phantom, RingMarker(), cam, seed=seed)
        assert bool(cam.contains(cloud.points).all())


def test_noise_free_flat_scene_is_exact():
    cam = down_camera(400.0, resolution=(64, 48))
    cloud = render_cloud(TorsoPhantom(), None, cam, noise_scale=0.0)
    assert np.max(np.abs(cloud.points[:, 2] - 400.0)) < 1e-9


def test_noise_magnitude_tracks_the_table():
    """Axial spread of a flat wall matches sigma_z at the wall distance."""
    cam = down_camera(500.0, resolution=(128, 96))
    cloud = render_cloud(TorsoPhantom(extent=(-120.0, 120.0, -80.0, 80.0)),
                         None, cam, seed=3)
    measured = float(np.std(cloud.points[:, 2]))
    assert measured == pytest.approx(0.183, rel=0.10)


def test_negative_noise_scale_rejected():
    cam = down_camera(400.0, resolution=(32, 24))
    for noise_scale in (-1.0, np.nan):
        with pytest.raises(ValueError):
            render_cloud(TorsoPhantom(), None, cam, noise_scale=noise_scale)


def test_marker_top_face_sits_proud_of_the_skin():
    cam = down_camera(400.0, resolution=(256, 192))
    cloud = render_cloud(TorsoPhantom(), RingMarker(), cam, noise_scale=0.0)
    z = cloud.points[:, 2]
    ring = cloud.points[np.abs(z - 398.0) < 0.25]
    skin = cloud.points[np.abs(z - 400.0) < 0.25]
    assert len(ring) >= 50
    assert len(skin) > 10 * len(ring)
    radii = np.hypot(ring[:, 0], ring[:, 1])
    assert radii.min() > 7.0 and radii.max() < 13.0


def test_render_without_marker_has_no_proud_points():
    cam = down_camera(400.0, resolution=(128, 96))
    cloud = render_cloud(TorsoPhantom(), None, cam, noise_scale=0.0)
    assert np.all(cloud.points[:, 2] > 399.0)


def test_breathing_moves_the_rendered_surface():
    phantom = TorsoPhantom(breathing_amplitude_mm=3.0, breathing_period_s=4.0)
    cam = down_camera(400.0, resolution=(48, 36))
    exhale = render_cloud(phantom, None, cam, t=0.0, noise_scale=0.0)
    inhale = render_cloud(phantom, None, cam, t=1.0, noise_scale=0.0)
    dz = np.median(exhale.points[:, 2]) - np.median(inhale.points[:, 2])
    assert dz == pytest.approx(3.0, abs=1e-6)


def test_occluder_box_wins_the_ray_race():
    cam = down_camera(400.0, resolution=(64, 48))
    # box top face sits at phantom z = 105, i.e. camera depth 295
    lid = Box(pose=RigidTransform.translation(0.0, 0.0, 100.0),
              half_extents=(40.0, 40.0, 5.0))
    cloud = render_cloud(TorsoPhantom(), None, cam, noise_scale=0.0,
                         occluders=(lid,))
    z = cloud.points[:, 2]
    on_box = cloud.points[np.abs(z - 295.0) < 0.5]
    assert len(on_box) > 20
    lateral = np.hypot(on_box[:, 0], on_box[:, 1])
    assert lateral.max() < 60.0
    # directly under the box no ray reaches the skin plane
    under = (np.hypot(cloud.points[:, 0], cloud.points[:, 1]) < 30.0) \
        & (np.abs(z - 400.0) < 0.5)
    assert not under.any()


@pytest.mark.parametrize("surface", [
    {"kind": "slope", "gx": 0.2, "gy": -0.1},
    {"kind": "ripple", "amplitude_mm": 4.0, "wavelength_x_mm": 70.0,
     "wavelength_y_mm": 50.0},
    {"kind": "dome", "height_mm": 40.0, "rx_mm": 160.0, "ry_mm": 120.0},
], ids=lambda surface: surface["kind"])
def test_tilted_noise_free_render_lies_on_the_surface(surface):
    # The patch is wider than the frustum, so every ray lands on the skin.
    phantom = TorsoPhantom(surface=surface, extent=(-900.0, 900.0, -900.0, 900.0),
                           breathing_amplitude_mm=2.5)
    cam = tilted_camera(420.0, 20.0, resolution=(96, 72))
    t = 0.6
    cloud = render_cloud(phantom, None, cam, t=t, noise_scale=0.0)
    assert len(cloud) == 96 * 72
    pts = cam.mount_pose.apply(cloud.points)
    skin = phantom._height_fn(pts[:, 0], pts[:, 1]) + breathing_offset(phantom, t)
    assert np.max(np.abs(pts[:, 2] - skin)) <= 1e-9


def test_two_marker_top_faces_sit_proud_of_the_skin():
    phantom = TorsoPhantom(breathing_amplitude_mm=2.0)
    markers = [RingMarker(pose_on_surface=RigidTransform.translation(-40.0, 0.0, 0.0)),
               RingMarker(pose_on_surface=RigidTransform.translation(35.0, 20.0, 0.0))]
    cam = tilted_camera(400.0, 15.0, resolution=(256, 192))
    t = 0.7
    cloud = render_cloud(phantom, markers, cam, t=t, noise_scale=0.0)
    pts = cam.mount_pose.apply(cloud.points)
    lift = pts[:, 2] - breathing_offset(phantom, t)
    proud = lift > 1e-6
    # Every point off the skin is on a top face, thickness_mm above the skin.
    assert np.max(np.abs(lift[~proud])) <= 1e-9
    assert np.max(np.abs(lift[proud] - markers[0].thickness_mm)) <= 1e-9
    owner = np.full(len(pts), -1)
    for k, m in enumerate(markers):
        radial = np.hypot(pts[:, 0] - m.pose_on_surface.t[0],
                          pts[:, 1] - m.pose_on_surface.t[1])
        on_face = ((radial >= m.inner_diameter_mm / 2.0 - 1e-6)
                   & (radial <= m.outer_diameter_mm / 2.0 + 1e-6))
        owner[proud & on_face] = k
        assert np.count_nonzero(proud & on_face) >= 50
    assert np.all(owner[proud] >= 0)


def test_marker_rim_in_view():
    phantom = TorsoPhantom()
    marker = RingMarker()
    assert marker_rim_in_view(down_camera(400.0), phantom, marker, 0.0)
    # Shifted so the ring centre sits on the frame edge: half the rim is out.
    half_fov = down_camera(400.0).field_of_view(398.0)[0] / 2.0
    edge = CameraModel(mount_pose=RigidTransform.translation(half_fov, 0.0, 0.0)
                       .compose(down_camera(400.0).mount_pose))
    assert not marker_rim_in_view(edge, phantom, marker, 0.0)


def test_camera_looking_away_yields_empty_cloud_error():
    mount = RigidTransform.translation(0.0, 0.0, 400.0)  # stares at +z, away
    cam = CameraModel(mount_pose=mount, resolution=(32, 24))
    with pytest.raises(EmptyCloudError):
        render_cloud(TorsoPhantom(), None, cam)


def test_surface_exactly_at_near_knot_still_renders():
    """A wall exactly on the 250 mm knot grazes phi = 0 and must count as hit."""
    cam = down_camera(250.0, resolution=(48, 36))
    cloud = render_cloud(TorsoPhantom(), None, cam, noise_scale=0.0)
    assert len(cloud) > 100
    assert np.max(np.abs(cloud.points[:, 2] - 250.0)) < 1e-9


def test_point_cloud_validation_and_immutability():
    with pytest.raises(ValueError):
        PointCloud(points=np.array([[np.inf, 0.0, 0.0]]), timestamp_s=0.0, seed=0)
    cloud = PointCloud(points=np.zeros((4, 3)), timestamp_s=0.0, seed=0)
    assert len(cloud) == 4
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0


# ---------------------------------------------------------------------------
# empty-space skipping


SKIP_SURFACES = {
    "slope": ({"kind": "slope", "gx": 0.2, "gy": -0.1},
              lambda x, y: 0.2 * x + -0.1 * y),
    "ripple": ({"kind": "ripple", "amplitude_mm": 4.0, "wavelength_x_mm": 70.0,
                "wavelength_y_mm": 50.0},
               lambda x, y: 4.0 * np.cos(2 * np.pi * x / 70.0) * np.cos(2 * np.pi * y / 50.0)),
    "dome": ({"kind": "dome", "height_mm": 40.0, "rx_mm": 160.0, "ry_mm": 120.0},
             lambda x, y: 40.0 * np.clip(1.0 - (x / 160.0) ** 2 - (y / 120.0) ** 2, 0.0, None)),
}


@pytest.mark.parametrize("kind", sorted(SKIP_SURFACES))
def test_rays_off_a_narrow_patch_find_no_skin(kind):
    # The frustum is wider than the patch: rays past its edge must miss, and
    # the patch has no side walls, so every point lies on the skin.
    extent = (-90.0, 70.0, -50.0, 60.0)
    phantom = TorsoPhantom(surface=SKIP_SURFACES[kind][0], extent=extent,
                           breathing_amplitude_mm=2.5)
    cam = tilted_camera(420.0, 20.0, resolution=(96, 72))
    t = 0.6
    cloud = render_cloud(phantom, None, cam, t=t, noise_scale=0.0)
    pts = cam.mount_pose.apply(cloud.points)
    assert 0 < len(cloud) < 96 * 72 // 2
    assert np.all((pts[:, 0] >= extent[0] - 1e-9) & (pts[:, 0] <= extent[1] + 1e-9))
    assert np.all((pts[:, 1] >= extent[2] - 1e-9) & (pts[:, 1] <= extent[3] + 1e-9))
    skin = SKIP_SURFACES[kind][1](pts[:, 0], pts[:, 1]) + breathing_offset(phantom, t)
    assert np.max(np.abs(pts[:, 2] - skin)) <= 1e-9


@pytest.mark.parametrize("distance", [251.0, 300.0, 400.0, 500.0, 698.0])
def test_straight_down_render_covers_every_patch_pixel(distance):
    # A quarter of the field of view at the render depth, seen straight down
    # by 240 x 180 rays.  Its x edges lie half a pixel from the nearest ray:
    # 60 columns.  Each y edge passes through a row of ray centres; the
    # camera's half turn (sin(pi) is 1.2e-16, not 0) moves both rows by
    # 3e-14 to 9e-14 mm, one just onto the patch and one just off it: 45
    # rows.  (The sweep stage rounds its patch out to whole pixels, so no
    # edge of its patch meets a ray centre.)
    cam = down_camera(distance, resolution=(240, 180))
    fx, fy = cam.field_of_view(distance)
    patch = TorsoPhantom(extent=(-fx / 8.0, fx / 8.0, -fy / 8.0, fy / 8.0))
    cloud = render_cloud(patch, None, cam, noise_scale=0.0)
    assert len(cloud) == 60 * 45
    assert np.max(np.abs(cloud.points[:, 2] - distance)) < 1e-9


def test_noise_is_keyed_by_pixel():
    # An occluder hides some pixels; every other pixel keeps its noisy point.
    # The lid straddles the patch edge, so it also gains rays that miss the
    # patch, and the number of hits before a pixel changes.
    cam = down_camera(400.0, resolution=(96, 72))
    phantom = TorsoPhantom(extent=(-60.0, 60.0, -40.0, 40.0))
    lid = Box(pose=RigidTransform.translation(-60.0, 0.0, 100.0),
              half_extents=(30.0, 20.0, 5.0))
    open_cloud = render_cloud(phantom, RingMarker(), cam, seed=9)
    covered = render_cloud(phantom, RingMarker(), cam, seed=9, occluders=(lid,))
    on_lid = covered.points[:, 2] < 350.0
    assert np.count_nonzero(on_lid) > 50
    # Points come out in pixel order, so the skin and ring points of the
    # covered render are the open render with the hidden pixels taken out.
    row_of = {p.tobytes(): i for i, p in enumerate(open_cloud.points)}
    rows = np.array([row_of.get(p.tobytes(), -1) for p in covered.points[~on_lid]])
    assert np.all(rows >= 0)
    assert np.all(np.diff(rows) > 0)
    # The lid hides some skin pixels and holds more rays than it hides.
    assert 0 < len(open_cloud) - len(rows) < np.count_nonzero(on_lid)


def side_camera(x_mm: float, z_mm: float, **kwargs) -> CameraModel:
    """Camera at (x_mm, 0, z_mm) looking along -x, level with the patch."""
    mount = RigidTransform.from_axis_angle((0.0, 1.0, 0.0), -90.0,
                                           translation=(x_mm, 0.0, z_mm))
    return CameraModel(mount_pose=mount, **kwargs)


@pytest.mark.parametrize("surface", [
    # A ripple crest and a dome flank stand at the rim x = 60.
    {"kind": "ripple", "amplitude_mm": 4.0, "wavelength_x_mm": 60.0,
     "wavelength_y_mm": 1.0e6},
    {"kind": "dome", "height_mm": 40.0, "rx_mm": 100.0, "ry_mm": 100.0},
], ids=lambda surface: surface["kind"])
def test_rays_entering_under_the_rim_find_no_skin(surface):
    extent = (-60.0, 60.0, -60.0, 60.0)
    phantom = TorsoPhantom(surface=surface, extent=extent)
    cam = side_camera(460.0, 1.0, resolution=(64, 48))
    fn = phantom._height_fn
    fx, fy = cam.field_of_view(400.0)
    # Rays that pass the rim plane x = 60 below the skin there enter the
    # patch from the side.
    u = -1.0 + (2.0 * np.arange(64) + 1.0) / 64
    v = -1.0 + (2.0 * np.arange(48) + 1.0) / 48
    uu, vv = np.meshgrid(u, v)
    rim = cam.mount_pose.apply(np.column_stack([uu.ravel() * fx / 2.0,
                                                vv.ravel() * fy / 2.0,
                                                np.full(uu.size, 400.0)]))
    over = np.abs(rim[:, 1]) <= 60.0
    assert np.count_nonzero(over & (rim[:, 2] < fn(rim[:, 0], rim[:, 1]))) > 20
    cloud = render_cloud(phantom, None, cam, noise_scale=0.0)
    pts = cam.mount_pose.apply(cloud.points)
    assert np.all((pts[:, 0] >= extent[0] - 1e-9) & (pts[:, 0] <= extent[1] + 1e-9))
    assert np.max(np.abs(pts[:, 2] - fn(pts[:, 0], pts[:, 1]))) <= 1e-9


def oracle_skin_points(phantom, camera, t, step_mm=0.25):
    """Per-ray reference of the rim rule, in the camera frame, in pixel order.

    Each ray is sampled every ``step_mm`` of depth; the crossings of the
    unclipped surface are refined with brentq, and the first one on the
    patch is the hit.
    """
    fn = phantom._height_fn
    breath = breathing_offset(phantom, t)
    xmin, xmax, ymin, ymax = phantom.extent
    nx, ny = camera.resolution
    u = -1.0 + (2.0 * np.arange(nx) + 1.0) / nx
    v = -1.0 + (2.0 * np.arange(ny) + 1.0) / ny
    uu, vv = (a.ravel() for a in np.meshgrid(u, v))
    z = np.arange(camera.near_mm, camera.far_mm + step_mm / 2, step_mm)
    fx, fy = camera.field_of_view(z)

    def cam_point(k, depth):
        fxd, fyd = camera.field_of_view(depth)
        return np.array([uu[k] * fxd / 2.0, vv[k] * fyd / 2.0, depth])

    def above(k, depth):
        x, y, h = camera.mount_pose.apply(cam_point(k, depth))
        return h - (float(fn(x, y)) + breath)

    hits = []
    for k in range(uu.size):
        pc = np.column_stack([uu[k] * fx / 2.0, vv[k] * fy / 2.0, z])
        pw = camera.mount_pose.apply(pc)
        f = pw[:, 2] - (fn(pw[:, 0], pw[:, 1]) + breath)
        for j in np.nonzero((f[:-1] >= 0) & (f[1:] <= 0) & ((f[:-1] > 0) | (f[1:] < 0)))[0]:
            depth = z[j] if f[j] == 0 else brentq(lambda d: above(k, d), z[j], z[j + 1],
                                                   xtol=1e-13)
            x, y, _ = camera.mount_pose.apply(cam_point(k, depth))
            if xmin <= x <= xmax and ymin <= y <= ymax:
                hits.append(cam_point(k, depth))
                break
    return np.array(hits)


ORACLE_CASES = {
    "ripple": (SKIP_SURFACES["ripple"][0], (-90.0, 70.0, -50.0, 60.0),
               tilted_camera(420.0, 20.0, resolution=(48, 36)), 2.5),
    "dome": (SKIP_SURFACES["dome"][0], (-90.0, 70.0, -50.0, 60.0),
             tilted_camera(420.0, 20.0, resolution=(48, 36)), 2.5),
    # Near-level rays cross the ripple's continuation off the patch, just
    # past the rim at x = 40, then cross the skin on the patch within the
    # same segment.
    "ripple_off_rim": ({"kind": "ripple", "amplitude_mm": 4.0, "wavelength_x_mm": 40.0,
                        "wavelength_y_mm": 1.0e6}, (-60.0, 40.0, -60.0, 60.0),
                       side_camera(460.0, 1.0, resolution=(480, 4)), 0.0),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_curved_patch_matches_a_dense_per_ray_oracle(case):
    # No rim row may go missing: every ray whose first on-patch crossing the
    # oracle finds is hit at the same point, and no other ray is.
    surface, extent, cam, amplitude = ORACLE_CASES[case]
    phantom = TorsoPhantom(surface=surface, extent=extent,
                           breathing_amplitude_mm=amplitude)
    cloud = render_cloud(phantom, None, cam, t=0.6, noise_scale=0.0)
    want = oracle_skin_points(phantom, cam, 0.6)
    assert len(cloud) == len(want)
    assert np.max(np.abs(cloud.points - want)) <= 1e-6


def test_every_ray_over_a_narrow_patch_lands():
    # Straight down on a flat patch narrower than the frustum: a ray hits
    # exactly when its point at the 400 mm knot lies over the patch.
    extent = (-83.3, 61.7, -47.1, 52.9)
    cam = down_camera(400.0, resolution=(96, 72))
    cloud = render_cloud(TorsoPhantom(extent=extent), None, cam, noise_scale=0.0)
    fx, fy = cam.field_of_view(400.0)
    u = -1.0 + (2.0 * np.arange(96) + 1.0) / 96
    v = -1.0 + (2.0 * np.arange(72) + 1.0) / 72
    x = u * fx / 2.0
    y = -v * fy / 2.0  # the down camera is turned about x
    over_x = np.count_nonzero((x >= extent[0]) & (x <= extent[1]))
    over_y = np.count_nonzero((y >= extent[2]) & (y <= extent[3]))
    assert len(cloud) == over_x * over_y


def test_occluder_at_the_frustum_edge_is_hit():
    # Only the outermost rays of the 260-380 mm segment reach this box, and
    # no skin lies in that segment, so the segment must not be skipped.
    cam = down_camera(400.0, resolution=(96, 72))
    post = Box(pose=RigidTransform.translation(125.0, 0.0, 100.0),
               half_extents=(5.0, 10.0, 5.0))
    cloud = render_cloud(TorsoPhantom(), None, cam, noise_scale=0.0, occluders=(post,))
    on_top = cloud.points[np.abs(cloud.points[:, 2] - 295.0) < 1e-6]
    assert len(on_top) >= 2
    assert np.all(on_top[:, 0] >= 120.0 - 1e-6)


def test_occluder_bounds_contain_the_box():
    rng = np.random.default_rng(2)
    for _ in range(20):
        box = Box(pose=random_transform(rng, max_translation_mm=100.0),
                  half_extents=rng.uniform(1.0, 30.0, size=3))
        lo, hi = _box_bounds(box)
        signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1).T
        corners = box.pose.apply(signs * box.half_extents)
        assert np.all(corners >= lo) and np.all(corners <= hi)
        assert np.allclose(corners.min(axis=0), lo, atol=1e-5)
        assert np.allclose(corners.max(axis=0), hi, atol=1e-5)


@pytest.mark.parametrize("surface, extent", [
    ({"kind": "flat"}, (-150.0, 150.0, -100.0, 100.0)),
    ({"kind": "slope", "gx": 0.2, "gy": -0.1}, (-150.0, 150.0, -100.0, 100.0)),
    ({"kind": "slope", "gx": -0.3, "gy": -0.25}, (40.0, 150.0, 10.0, 100.0)),
    ({"kind": "slope", "gx": -0.1, "gy": 0.4}, (-150.0, -20.0, -100.0, -30.0)),
    ({"kind": "ripple", "amplitude_mm": 3.0, "wavelength_x_mm": 80.0,
      "wavelength_y_mm": 60.0}, (-150.0, 150.0, -100.0, 100.0)),
    ({"kind": "ripple", "amplitude_mm": -2.0, "wavelength_x_mm": 45.0,
      "wavelength_y_mm": 70.0}, (-150.0, 150.0, -100.0, 100.0)),
    ({"kind": "dome", "height_mm": 40.0, "rx_mm": 160.0, "ry_mm": 120.0},
     (-150.0, 150.0, -100.0, 100.0)),
    # The patch cuts the dome away from its apex.
    ({"kind": "dome", "height_mm": 40.0, "rx_mm": 160.0, "ry_mm": 120.0},
     (60.0, 150.0, 30.0, 100.0)),
    ({"kind": "dome", "height_mm": -25.0, "rx_mm": 100.0, "ry_mm": 90.0},
     (-150.0, 150.0, -100.0, 100.0)),
], ids=lambda v: v.get("kind") if isinstance(v, dict) else None)
def test_height_bound_covers_the_surface(surface, extent):
    phantom = TorsoPhantom(surface=surface, extent=extent)
    x, y = np.meshgrid(np.linspace(extent[0], extent[1], 601),
                       np.linspace(extent[2], extent[3], 401))
    floor, ceiling = phantom._height_range
    heights = phantom._height_fn(x, y)
    assert floor <= float(np.min(heights))
    assert ceiling >= float(np.max(heights))


# ---------------------------------------------------------------------------
# window renders

WINDOW_SURFACES = {
    "flat": {"kind": "flat"},
    "slope": SKIP_SURFACES["slope"][0],
    "ripple": SKIP_SURFACES["ripple"][0],
    "dome": SKIP_SURFACES["dome"][0],
}
WINDOW_MARKERS = (RingMarker(pose_on_surface=RigidTransform.translation(-20.0, 10.0, 0.0)),
                  RingMarker(pose_on_surface=RigidTransform.translation(45.0, -35.0, 0.0)))
# The patch reaches past the frustum on +x and ends inside it on -x.
WINDOW_EXTENT = (-110.0, 280.0, -190.0, 190.0)
WINDOW_LID = Box(pose=RigidTransform.from_axis_angle((0.0, 0.0, 1.0), 30.0,
                                                     translation=(-10.0, 40.0, 60.0)),
                 half_extents=(25.0, 15.0, 5.0))


def window_at(where: str, phantom: TorsoPhantom, cam: CameraModel,
              full: np.ndarray) -> tuple[np.ndarray, float]:
    """A camera-frame (centre, radius) window at a named place; the frustum
    ones are placed from the rightmost point of the full render."""
    to_cam = cam.mount_pose.invert()
    edge = full[np.argmax(full[:, 0])]
    if where == "marker":
        return to_cam.apply(marker_top_center_world(phantom, WINDOW_MARKERS[0], 0.6)), 72.0
    if where == "small":
        # Centred on a rendered point of the annulus, with a radius below the
        # noise: the window's depth range is so short that a ray's box hugs
        # the ray, and without the noise pad the point's own pixel is dropped.
        on_ring = to_cam.apply(marker_top_center_world(phantom, WINDOW_MARKERS[0], 0.6)
                               + [10.0, 0.0, 0.0])
        return full[np.argmin(np.linalg.norm(full - on_ring, axis=1))], 0.1
    if where == "rim":
        # The point nearest the optical axis, 0.5 mm inside the sphere.  Its
        # ray runs almost along z, so the box of the ray over the window's
        # depth range hugs the ray, and a reach cut by 1 mm drops the pixel.
        return full[np.argmin(np.hypot(full[:, 0], full[:, 1]))] + [39.5, 0.0, 0.0], 40.0
    if where == "patch_edge":
        return to_cam.apply([WINDOW_EXTENT[0], -30.0, 0.0]), 40.0
    if where == "frustum_edge":
        return edge + [10.0, 0.0, 0.0], 40.0
    return edge + [300.0, 0.0, 0.0], 40.0


@pytest.mark.parametrize("where", ["marker", "small", "rim", "patch_edge", "frustum_edge",
                                   "off_frustum"])
@pytest.mark.parametrize("noise_scale", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("tilt", [0.0, 20.0])
@pytest.mark.parametrize("kind", sorted(WINDOW_SURFACES))
def test_window_render_is_the_full_render_cropped(kind, tilt, noise_scale, where):
    # The window contract: the same points, bit for bit and in pixel order,
    # as the full frame cropped to the sphere.
    phantom = TorsoPhantom(surface=WINDOW_SURFACES[kind], extent=WINDOW_EXTENT,
                           breathing_amplitude_mm=2.5)
    cam = tilted_camera(420.0, tilt, resolution=(96, 72))
    kwargs = dict(t=0.6, seed=11, occluders=(WINDOW_LID,), noise_scale=noise_scale)
    full = render_cloud(phantom, WINDOW_MARKERS, cam, **kwargs).points
    center, radius = window_at(where, phantom, cam, full)
    want = full[np.linalg.norm(full - center, axis=1) <= radius]
    if where == "off_frustum":
        assert len(want) == 0
        with pytest.raises(EmptyCloudError):
            render_cloud(phantom, WINDOW_MARKERS, cam, window=(center, radius), **kwargs)
        return
    assert 0 < len(want) < len(full)
    got = render_cloud(phantom, WINDOW_MARKERS, cam, window=(center, radius), **kwargs)
    assert np.array_equal(got.points, want)


# ---------------------------------------------------------------------------
# pinned render bits

# SHA-256 of ``points.tobytes()`` for each case of PINNED_RENDERS, recorded
# from the renderer before its march and noise tail moved to (3, N) rows.
RECORDED_RENDERS = json.loads((Path(__file__).parent / "recorded_renders.json").read_text())
PINNED_RENDERS = [(f"{kind}-tilt{tilt:g}-noise{noise:g}", kind, tilt, noise, False)
                  for kind in sorted(WINDOW_SURFACES) for tilt in (0.0, 20.0)
                  for noise in (0.0, 1.0)]
PINNED_RENDERS += [(f"{kind}-window", kind, 20.0, 1.0, True) for kind in sorted(WINDOW_SURFACES)]


def pinned_render(kind: str, tilt: float, noise_scale: float, windowed: bool) -> np.ndarray:
    """One marker and one occluder over a skin that ends inside the frustum;
    a window render crops to 40 mm around the marker's top centre."""
    phantom = TorsoPhantom(surface=WINDOW_SURFACES[kind], extent=WINDOW_EXTENT,
                           breathing_amplitude_mm=2.5)
    cam = tilted_camera(420.0, tilt, resolution=(96, 72))
    window = None
    if windowed:
        top = marker_top_center_world(phantom, WINDOW_MARKERS[0], 0.6)
        window = (cam.mount_pose.invert().apply(top), 40.0)
    return render_cloud(phantom, WINDOW_MARKERS[0], cam, t=0.6, seed=11,
                        occluders=(WINDOW_LID,), noise_scale=noise_scale,
                        window=window).points


@pytest.mark.parametrize("case", PINNED_RENDERS, ids=[c[0] for c in PINNED_RENDERS])
def test_render_keeps_its_recorded_bits(case):
    name, *args = case
    points = pinned_render(*args)
    assert hashlib.sha256(points.tobytes()).hexdigest() == RECORDED_RENDERS[name]

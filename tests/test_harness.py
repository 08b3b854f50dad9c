import dataclasses
import json
import math
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from specklenav import cli, harness
from specklenav.camera import CameraModel
from specklenav.detect import MarkerPose, detect_ring, track
from specklenav.geometry import Aabb, Point3, RigidTransform
from specklenav.harness import (
    BreathingConfig,
    CalibrationConfig,
    ConfigError,
    ExecutionConfig,
    MissingSectionError,
    RunReport,
    Scenario,
    SweepConfig,
    breathing_summary,
    default_scenario,
    emit_table,
    load_report,
    load_scenario,
    run_scenario,
    simulate_clouds,
    stage_seed,
)
from specklenav.ply import read_cloud, sidecar_path
from specklenav.scene import RingMarker, TorsoPhantom, render_cloud

from conftest import random_transform, reduced_scenario

ALL_STAGES = ["plan", "calibration", "solve", "gate", "scene", "fusion",
              "breathing", "sweep"]


def with_board_noise(sc: Scenario, rot_deg: float, trans_mm: float) -> Scenario:
    return dataclasses.replace(
        sc, calibration=dataclasses.replace(
            sc.calibration, board_noise_rot_deg=rot_deg, board_noise_mm=trans_mm))


@pytest.fixture(scope="module")
def gate_fail_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate_fail")
    sc = with_board_noise(reduced_scenario(str(out)), 2.0, 4.0)
    return sc, run_scenario(sc)


@pytest.fixture(scope="module")
def no_marker_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("no_marker")
    sc = reduced_scenario(str(out), include_marker=False)
    return sc, run_scenario(sc)


def test_stage_seed_is_deterministic_and_label_sensitive():
    assert stage_seed(7, "calibration") == stage_seed(7, "calibration")
    labels = ["calibration", "scene:frame:0", "scene:frame:1", "sweep:400.0"]
    seeds = {stage_seed(20260817, label) for label in labels}
    assert len(seeds) == len(labels)
    assert stage_seed(1, "x") != stage_seed(2, "x")
    assert all(0 <= stage_seed(20260817, label) < 2 ** 64 for label in labels)


def non_default_scenario() -> Scenario:
    """Every field of the four harness sections, and the camera (apart from
    its mount, which must be the identity), phantom, marker, script and
    observation box, away from its default."""
    return Scenario(
        master_seed=99,
        out_dir="runs/elsewhere",
        noise_scale=0.5,
        include_marker=False,
        scene_frames=3,
        camera=CameraModel(lateral_sigma_factor=1.5, frame_rate=15.0,
                           resolution=(128, 96)),
        phantom=TorsoPhantom(surface={"kind": "slope", "gx": 0.05, "gy": -0.02},
                             extent=(-120.0, 110.0, -90.0, 80.0),
                             breathing_amplitude_mm=1.5, breathing_period_s=3.5,
                             breathing_phase_rad=0.25),
        marker=RingMarker(outer_diameter_mm=30.0, inner_diameter_mm=20.0,
                          thickness_mm=2.5,
                          pose_on_surface=RigidTransform.translation(5.0, -4.0, 0.0)),
        phantom_in_base=RigidTransform.translation(-400.0, -300.0, -60.0),
        hand_eye_true=RigidTransform.from_axis_angle(
            (0.0, 0.0, 1.0), 5.0, translation=(40.0, -20.0, 90.0)),
        robot_script=(RigidTransform.translation(10.0, 0.0, 500.0),
                      RigidTransform.from_axis_angle((1.0, 0.0, 0.0), 170.0,
                                                     translation=(0.0, 5.0, 480.0))),
        observation_box=Aabb.from_center_extents((-440.0, -330.0, -50.0),
                                                 (80.0, 70.0, 20.0)),
        calibration=CalibrationConfig(count=7, tilt_range_deg=18.0,
                                      board_noise_rot_deg=0.02, board_noise_mm=0.05,
                                      board_half_extents_mm=(35.0, 25.0),
                                      resolution=(200, 150)),
        execution=ExecutionConfig(probe_count=10, fit_count=6,
                                  lateral_span_mm=50.0, lift_span_mm=20.0),
        breathing=BreathingConfig(duration_s=12.0, frame_rate_hz=6.0,
                                  amplitude_mm=2.5, period_s=3.0,
                                  resolution=(120, 90), amplitude_tol_mm=0.6,
                                  min_hold_s=1.5, alarm_threshold_mm=1.8),
        sweep=SweepConfig(enabled=False, resolution=(200, 150), patch_fraction=0.3),
    )


SECTION_DEFAULTS = {"calibration": CalibrationConfig(), "execution": ExecutionConfig(),
                    "breathing": BreathingConfig(), "sweep": SweepConfig()}


def test_scenario_json_round_trip(tmp_path):
    varied = non_default_scenario()
    for name, default in SECTION_DEFAULTS.items():
        for f in dataclasses.fields(default):
            assert getattr(getattr(varied, name), f.name) != getattr(default, f.name)
    for sc in (reduced_scenario(str(tmp_path)), varied):
        doc = sc.to_json_dict()
        back = Scenario.from_json_dict(json.loads(json.dumps(doc)))
        assert back.to_json_dict() == doc
        for name in SECTION_DEFAULTS:
            assert getattr(back, name) == getattr(sc, name)


def test_partial_sections_take_the_defaults():
    back = Scenario.from_json_dict({
        "master_seed": 5,
        "camera": {"frame_rate": 30},
        "phantom": {"breathing_amplitude_mm": 2},
        "marker": {"thickness_mm": 3},
        "calibration": {"count": 8, "resolution": [200, 150]},
        "execution": {"fit_count": 7},
        "breathing": {"period_s": 5},
        "sweep": {"enabled": False},
    })
    assert back.calibration == CalibrationConfig(count=8, resolution=(200, 150))
    assert back.execution == ExecutionConfig(fit_count=7)
    assert back.breathing == BreathingConfig(period_s=5.0)
    assert type(back.breathing.period_s) is float
    assert back.sweep == SweepConfig(enabled=False)
    assert type(back.camera.frame_rate) is float
    assert type(back.marker.thickness_mm) is float
    doc = back.to_json_dict()
    stated = Scenario(master_seed=5, camera=CameraModel(frame_rate=30.0),
                      phantom=TorsoPhantom(breathing_amplitude_mm=2.0),
                      marker=RingMarker(thickness_mm=3.0))
    assert doc == {**stated.to_json_dict(),
                   **{name: doc[name] for name in SECTION_DEFAULTS}}


def test_scenario_document_validation():
    with pytest.raises(ConfigError, match="master_seed"):
        Scenario.from_json_dict({"out_dir": "x"})
    with pytest.raises(ConfigError, match="unknown"):
        Scenario.from_json_dict({"master_seed": 1, "banana": True})
    with pytest.raises(ConfigError):
        Scenario.from_json_dict([1, 2, 3])


# A key each section does not have; the camera, phantom and marker ones are
# one-letter slips of real keys.
UNKNOWN_KEYS = {"calibration": "frame_rate", "execution": "frame_rate",
                "breathing": "frame_rate", "sweep": "frame_rate",
                "camera": "frame_rte", "phantom": "breathing_amplitude",
                "marker": "thicknes_mm"}


def exits_with_config_error(tmp_path, doc: dict) -> bool:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    return cli.main(argv) == cli.EXIT_CONFIG


@pytest.mark.parametrize("section", list(UNKNOWN_KEYS))
def test_unknown_section_keys_are_rejected(section, tmp_path):
    key = UNKNOWN_KEYS[section]
    doc = {"master_seed": 1, section: {key: 30}}
    with pytest.raises(ConfigError, match=rf"{section}.*'{key}'"):
        Scenario.from_json_dict(doc)
    assert exits_with_config_error(tmp_path, doc)


# One value of the wrong JSON type per field; the error must name the field.
WRONG_TYPES = {"include_marker": {"include_marker": "false"},
               "sweep.enabled": {"sweep": {"enabled": "no"}},
               "calibration.count": {"calibration": {"count": 6.9}},
               "noise_scale": {"noise_scale": True},
               "camera.frame_rate": {"camera": {"frame_rate": "30"}}}


@pytest.mark.parametrize("field", list(WRONG_TYPES))
def test_scalars_must_have_their_json_type(field, tmp_path):
    doc = {"master_seed": 1, **WRONG_TYPES[field]}
    with pytest.raises(ConfigError, match=rf"^{field} must be"):
        Scenario.from_json_dict(doc)
    assert exits_with_config_error(tmp_path, doc)


# Python's json parser reads NaN and Infinity.  Each of these used to load:
# a NaN noise scale rendered without noise and passed, a NaN hold tolerance
# passed, and the others failed a stage (exit 4).
NON_FINITE = {"noise_scale": ({"noise_scale": math.nan}, "noise_scale must be a finite number"),
              "breathing.amplitude_tol_mm": ({"breathing": {"amplitude_tol_mm": math.nan}},
                                             "breathing.amplitude_tol_mm must be a finite"),
              "execution.lift_span_mm": ({"execution": {"lift_span_mm": math.inf}},
                                         "execution.lift_span_mm must be a finite"),
              "calibration.tilt_range_deg": ({"calibration": {"tilt_range_deg": math.nan}},
                                             "calibration.tilt_range_deg must be a finite"),
              "camera.lateral_sigma_factor": ({"camera": {"lateral_sigma_factor": math.nan}},
                                              "camera.lateral_sigma_factor must be a finite"),
              "fov_table cell": ({"camera": {"fov_table": [[250.0, 198.44, math.nan, 0.033, 0.106],
                                                           [700.0, 751.32, 498.63, 0.359, 0.41]]}},
                                 r"camera.fov_table\[0\]: FovRow.fov_y_mm must be positive and finite"),
              # Integers too large for a float, and a NaN surface parameter.
              "noise_scale 10^400": ({"noise_scale": 10 ** 400}, "noise_scale must be a finite number"),
              "observation_box.center 10^400": (
                  {"observation_box": {"center": [0, 0, 10 ** 400], "extents": [1, 1, 1]}},
                  "observation_box: center holds an integer too large for a float"),
              "ripple amplitude_mm 10^400": (
                  {"phantom": {"surface": {"kind": "ripple", "amplitude_mm": 10 ** 400,
                                           "wavelength_x_mm": 80, "wavelength_y_mm": 60}}},
                  "bad scenario document: ripple surface key 'amplitude_mm' must be a finite number"),
              "ripple amplitude_mm NaN": (
                  {"phantom": {"surface": {"kind": "ripple", "amplitude_mm": math.nan,
                                           "wavelength_x_mm": 80, "wavelength_y_mm": 60}}},
                  "bad scenario document: ripple surface key 'amplitude_mm' must be a finite number")}


@pytest.mark.parametrize("field", list(NON_FINITE))
def test_non_finite_numbers_are_config_errors(field, tmp_path):
    section, message = NON_FINITE[field]
    doc = {"master_seed": 1, **section}
    with pytest.raises(ConfigError, match=rf"^{message}"):
        Scenario.from_json_dict(doc)
    assert exits_with_config_error(tmp_path, doc)


# Surface descriptors that loaded before their keys were checked: a string
# value, an unknown key, a misspelt key that silently left a flat slope, a
# key the kind does not have and a boolean.
BAD_SURFACES = {
    "string_and_unknown": ({"kind": "slope", "gx": "0.05", "gy": 0, "banana": 3}, "slope"),
    "misspelt_gradient": ({"kind": "slope", "gxx": 0.05}, "slope.*'gxx'"),
    "key_of_another_kind": ({"kind": "flat", "gx": 0.1}, "flat.*'gx'"),
    "boolean_amplitude": ({"kind": "ripple", "amplitude_mm": True, "wavelength_x_mm": 80,
                           "wavelength_y_mm": 60}, "ripple.*'amplitude_mm'"),
    "string_height": ({"kind": "dome", "height_mm": "30", "rx_mm": 100, "ry_mm": 80},
                      "dome.*'height_mm'"),
}


@pytest.mark.parametrize("case", list(BAD_SURFACES))
def test_surface_descriptors_take_only_their_own_numeric_keys(case, tmp_path):
    surface, message = BAD_SURFACES[case]
    doc = {"master_seed": 1, "phantom": {"surface": surface}}
    with pytest.raises(ConfigError, match=message):
        Scenario.from_json_dict(doc)
    assert exits_with_config_error(tmp_path, doc)


# Values the RigidTransform, FovRow and Aabb hooks used to convert or pass on.
BAD_HOOK_VALUES = {
    "string_quaternion": ({"camera": {"mount_pose": {"q": ["1", "0", "0", "0"],
                                                     "t": [0, 0, 0]}}}, "camera.mount_pose"),
    "string_translation": ({"hand_eye_true": {"q": [1, 0, 0, 0], "t": ["0", 0, 0]}},
                           "hand_eye_true"),
    "boolean_fov_row": ({"camera": {"fov_table": [[True, 198.44, 129.2, 0.033, 0.106],
                                                  [700.0, 751.32, 498.63, 0.359, 0.41]]}},
                        r"camera.fov_table\[0\]"),
    "string_box_centre": ({"observation_box": {"center": [0, 0, "1"], "extents": [1, 1, 1]}},
                          "observation_box"),
}


@pytest.mark.parametrize("case", list(BAD_HOOK_VALUES))
def test_json_hooks_take_only_numbers(case, tmp_path):
    section, where = BAD_HOOK_VALUES[case]
    doc = {"master_seed": 1, **section}
    with pytest.raises(ConfigError, match=rf"^{where}: .*must be a list of \d numbers"):
        Scenario.from_json_dict(doc)
    assert exits_with_config_error(tmp_path, doc)


@pytest.mark.parametrize("extents", [[math.nan, 90.0, 24.0], [90.0, math.inf, 24.0]])
def test_a_non_finite_observation_box_is_a_config_error(extents, tmp_path):
    # Python's json parser reads NaN and Infinity.  A NaN extent used to load
    # and then fail planning with "box extent nan x 90.0 mm exceeds the field
    # of view" (exit 4).
    doc = {"master_seed": 1,
           "observation_box": {"center": [-440.0, -330.0, -50.0], "extents": extents}}
    with pytest.raises(ConfigError, match="^observation_box: Aabb corners must be finite$"):
        Scenario.from_json_dict(doc)
    assert exits_with_config_error(tmp_path, doc)
    assert not (tmp_path / "out").exists()


# Values that used to load and then crash their stage with an unrelated
# error: no breathing frame ("list index out of range") and an empty or
# inverted sweep patch ("extent must satisfy xmin < xmax ...").
OUT_OF_RANGE = {"breathing.frame_rate_hz": {"breathing": {"frame_rate_hz": 0}},
                "breathing.frame_rate_hz-negative": {"breathing": {"frame_rate_hz": -8.0}},
                "breathing.duration_s": {"breathing": {"duration_s": 0}},
                "breathing.duration_s-under-a-frame": {"breathing": {"duration_s": 0.05}},
                "sweep.patch_fraction": {"sweep": {"patch_fraction": 0}},
                "sweep.patch_fraction-over-one": {"sweep": {"patch_fraction": 1.5}},
                "breathing.period_s": {"breathing": {"period_s": 0}},
                "breathing.period_s-negative": {"breathing": {"period_s": -4.0}},
                "calibration.resolution": {"calibration": {"resolution": [1, 1]}},
                "breathing.resolution": {"breathing": {"resolution": [1, 1]}},
                "breathing.resolution-one-row": {"breathing": {"resolution": [160, 1]}},
                "sweep.resolution": {"sweep": {"resolution": [0, 0]}},
                "sweep.resolution-one-column": {"sweep": {"resolution": [1, 180]}}}


@pytest.mark.parametrize("case", list(OUT_OF_RANGE))
def test_out_of_range_section_values_are_config_errors(case, tmp_path):
    doc = {"master_seed": 1, **OUT_OF_RANGE[case]}
    field = case.split("-")[0]
    with pytest.raises(ConfigError, match=rf"^{field} must"):
        Scenario.from_json_dict(doc)
    assert exits_with_config_error(tmp_path, doc)
    assert not (tmp_path / "out").exists()  # rejected before any stage ran


def test_camera_still_ignores_the_dropped_blur_key():
    # Scenario and report files written before optical_blur_px was removed
    # carry the key; loading ignores it.
    plain = Scenario(master_seed=1).to_json_dict()
    assert "optical_blur_px" not in plain["camera"]
    for blur in (0.6, [1.610, 2.378, 2.377, 1.937, 0.262, 1.304, 2.051],
                 [1.0, 2.0], None):
        doc = Scenario(master_seed=1).to_json_dict()
        doc["camera"]["optical_blur_px"] = blur
        assert Scenario.from_json_dict(doc).to_json_dict() == plain


def test_a_null_observation_box_is_derived(tmp_path):
    # observation_box is Aabb | None, and None asks for the derived box.
    derived = Scenario.from_json_dict({"master_seed": 1})
    doc = {"master_seed": 1, "observation_box": None}
    loaded = Scenario.from_json_dict(doc)
    assert loaded.to_json_dict() == derived.to_json_dict()
    assert np.array_equal(loaded.observation_box.center, derived.observation_box.center)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert harness.load_scenario(path).to_json_dict() == derived.to_json_dict()


# null for fields whose type does not admit None.
NULL_REQUIRED = {"noise_scale": {"noise_scale": None},
                 "camera": {"camera": None},
                 "calibration.resolution": {"calibration": {"resolution": None}},
                 "marker.pose_on_surface": {"marker": {"pose_on_surface": None}}}


@pytest.mark.parametrize("field", list(NULL_REQUIRED))
def test_null_for_a_required_field_is_a_config_error(field, tmp_path):
    doc = {"master_seed": 1, **NULL_REQUIRED[field]}
    with pytest.raises(ConfigError, match=rf"^{field} must not be null"):
        Scenario.from_json_dict(doc)
    assert exits_with_config_error(tmp_path, doc)


def test_scenario_field_validation():
    with pytest.raises(ConfigError):
        Scenario(master_seed=1, scene_frames=0)
    with pytest.raises(ConfigError):
        Scenario(master_seed=1, noise_scale=-0.5)
    base = default_scenario()
    with pytest.raises(ConfigError):
        dataclasses.replace(
            base, execution=dataclasses.replace(base.execution, probe_count=1))
    with pytest.raises(ConfigError):
        dataclasses.replace(
            base, execution=dataclasses.replace(base.execution, fit_count=12))


def test_load_scenario_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(missing)
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(garbled)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(default_scenario(str(tmp_path)).to_json_dict()))
    assert load_scenario(good).master_seed == 20260817


def test_default_run_passes_and_writes_everything(default_run):
    scenario, report = default_run
    assert report.verdict == "PASSED"
    assert report.error is None
    assert list(report.stages) == ALL_STAGES
    assert report.stages["gate"]["passed"] is True
    assert report.stages["gate"]["mean_px"] < 0.5
    assert report.config == scenario.to_json_dict()
    out = Path(scenario.out_dir)
    for name in ["report.json", "timing.csv", "cloud_calib_0000.ply",
                 "cloud_scene_0000.ply", "execution.csv", "signal.csv"]:
        assert (out / name).exists(), name


def test_default_run_stage_content(default_run):
    _, report = default_run
    plan = report.stages["plan"]
    assert plan["pose_count"] == 10
    assert plan["min_consecutive_axis_separation_deg"] >= 10.0
    solve = report.stages["solve"]
    assert solve["translation_error_vs_truth_mm"] < 0.5
    scene = report.stages["scene"]
    assert scene["frame_count"] == 4
    assert scene["center_error_median_mm"] <= 0.3
    fusion = report.stages["fusion"]
    assert fusion["probe_count"] == 12
    assert all(v <= 0.563 for v in fusion["post_correction_mean_abs_mm"])
    breathing = report.stages["breathing"]
    assert abs(breathing["period_error_s"]) <= 0.02 * breathing["period_true_s"]
    assert len(report.stages["sweep"]["rows"]) == 7
    # Each tracked frame is found in its window: the scene and breathing
    # cameras stand still, and the calibration views and fusion probes are
    # carried through the commanded camera motion.
    assert scene["track_fallbacks"] == 0
    assert breathing["track_fallbacks"] == 0
    assert report.stages["calibration"]["track_fallbacks"] == 0
    assert fusion["track_fallbacks"] == 0


def test_only_full_clouds_search_for_the_skin_plane(tmp_path, plane_calls):
    # Seed 1 detects 4 full clouds, the first frame of each tracking stage:
    # calibration view 0, scene frame 0, fusion probe 0 and breathing frame 0.
    # Its 150 tracked crops (9 views, 3 scene frames, 11 probes and 127
    # breathing frames) all take their skin plane from the pose before.
    report = run_scenario(default_scenario(out_dir=str(tmp_path), master_seed=1))
    assert report.verdict == "PASSED"
    assert plane_calls["ransac"] == 4
    assert len(plane_calls["prior"]) == 150
    assert all(plane is not None for plane in plane_calls["prior"])


def assert_same_poses(got, want) -> None:
    assert [p.to_json_dict() for p in got] == [p.to_json_dict() for p in want]


# A nominal camera-in-flange 6 degrees and 20 mm off the true one.
OFF_NOMINAL = RigidTransform.from_axis_angle((1.0, -2.0, 0.5), 6.0,
                                             translation=(12.0, -16.0, 0.0))


@pytest.mark.parametrize("off_nominal", [False, True])
def test_tracked_views_and_probes_find_the_cold_poses(tmp_path, off_nominal):
    # Every calibration view and fusion probe after the first is found in the
    # window of the pose before, carried through the commanded motion; the
    # pose must be, bit for bit, the one detect_ring finds on the full frame.
    # A wrong camera-in-flange moves the carried poses but not the result.
    sc = default_scenario(out_dir=str(tmp_path), master_seed=1)
    plan = harness._stage_plan(sc)
    nominal = plan["camera_in_flange"]
    if off_nominal:
        nominal = nominal.compose(OFF_NOMINAL)
    calibration = harness._stage_calibration(sc, plan["poses"], nominal, tmp_path)
    hand_eye = harness._stage_solve(sc, calibration["samples"])["hand_eye"]
    if off_nominal:
        hand_eye = hand_eye.compose(OFF_NOMINAL)
    fusion = harness._stage_fusion(sc, hand_eye, tmp_path)
    assert calibration["summary"]["track_fallbacks"] == 0
    assert fusion["summary"]["track_fallbacks"] == 0

    cold = []
    for i, flange in enumerate(plan["poses"]):
        with sc.render(f"calibration:render:{i}", sc.camera_in_phantom(flange), marker=True,
                       resolution=sc.calibration.resolution) as cloud:
            cold.append(detect_ring(cloud, sc.marker))
    assert_same_poses(calibration["poses"], cold)
    cold = []
    for k, offset in enumerate(harness._probe_offsets(sc.execution)):
        flange = RigidTransform.translation(*offset).compose(sc.robot_script[0])
        with sc.render(f"fusion:probe:{k}", sc.camera_in_phantom(flange), marker=True,
                       t=(sc.scene_frames + k) / sc.camera.frame_rate) as cloud:
            cold.append(detect_ring(cloud, sc.marker))
    assert_same_poses(fusion["poses"], cold)


def test_a_camera_that_did_not_move_keeps_the_pose_bits():
    # The motion between two equal camera poses is not always the exact
    # identity (its quaternion can carry a 1e-18 component), so an unmoved
    # camera must hand the pose on as it is: that keeps every bit of the
    # scene and breathing frames on a one-pose script.
    rng = np.random.default_rng(2)
    pose = MarkerPose(center=Point3(0.37, -0.21, 398.5), normal=np.array([0.6, 0.0, -0.8]),
                      radius_mm=10.0, rms_residual_mm=0.1, inlier_count=100, timestamp_s=0.0)
    for _ in range(40):
        flange, camera_in_flange = random_transform(rng), random_transform(rng)
        before, after = (flange.compose(camera_in_flange) for _ in range(2))
        assert harness._carried(pose, before, after) is pose


@pytest.mark.parametrize("move", [(500.0, 0.0, 0.0), (0.0, 0.0, 500.0)],
                         ids=["sideways", "past_the_ring"])
def test_a_carried_pose_500_mm_off_falls_back_to_the_cold_pose(tmp_path, move):
    # The cameras say the camera moved 500 mm, but both frames are rendered
    # from the same pose.  Sideways, the carried window lies outside the view;
    # along the axis, the carried ring would lie behind the camera and is no
    # valid pose.  Either way frame 1 is searched whole.
    sc = default_scenario(out_dir=str(tmp_path))
    mount = sc.camera_in_phantom(sc.script_pose(0))
    poses, fallbacks = harness._detect_then_track(
        [partial(sc.render_scene_frame, j) for j in range(2)],
        [mount, mount.compose(RigidTransform.translation(*move))], sc.marker)
    assert fallbacks == 1
    with sc.render_scene_frame(1) as cloud:
        want = detect_ring(cloud, sc.marker)
    assert_same_poses(poses, [poses[0], want])


def test_a_scripted_jump_is_carried_into_the_crop(tmp_path):
    # The second scene pose moves the camera 100 mm sideways, more than the
    # 72 mm crop radius; carried through that motion, frame 1's window still
    # holds the ring, and the pose is the one the full frame gives.
    sc = default_scenario(out_dir=str(tmp_path))
    start = sc.robot_script[0]
    jump = RigidTransform.translation(100.0, 0.0, 0.0).compose(start)
    sc = dataclasses.replace(sc, robot_script=(start, jump), scene_frames=2)
    scene = harness._stage_scene(sc, tmp_path)
    assert scene["summary"]["track_fallbacks"] == 0
    with sc.render_scene_frame(1) as cloud:
        want = detect_ring(cloud, sc.marker)
    assert np.linalg.norm(want.center.as_array() - scene["poses"][0].center.as_array()) > 72.0
    assert_same_poses(scene["poses"][1:], [want])


def test_a_jump_past_the_crop_renders_the_full_frame(tmp_path):
    # The second scene pose moves the camera 100 mm sideways, more than the
    # 72 mm crop radius, and the tracker is not told: both cameras it gets
    # are the first.  Frame 1's window then misses the ring.
    sc = default_scenario(out_dir=str(tmp_path))
    start = sc.robot_script[0]
    jump = RigidTransform.translation(100.0, 0.0, 0.0).compose(start)
    sc = dataclasses.replace(sc, robot_script=(start, jump), scene_frames=2)
    mount = sc.camera_in_phantom(start)
    poses, fallbacks = harness._detect_then_track(
        [partial(sc.render_scene_frame, j) for j in range(2)], [mount, mount], sc.marker)
    assert fallbacks == 1
    with sc.render_scene_frame(0) as cloud:
        first = detect_ring(cloud)
    with sc.render_scene_frame(1) as cloud:
        want = track(first, cloud)
    assert np.linalg.norm(want.center.as_array() - first.center.as_array()) > 72.0
    assert_same_poses(poses, [first, want])


def test_reruns_are_byte_identical(reduced_double_run):
    _, report_1, bytes_1, report_2, bytes_2 = reduced_double_run
    assert bytes_1 == bytes_2
    assert report_1.verdict == report_2.verdict == "PASSED"
    assert report_1.stages == report_2.stages


def test_gate_failure_stops_the_pipeline(gate_fail_run):
    sc, report = gate_fail_run
    assert report.verdict == "FAILED-GATE"
    assert report.error is None
    assert list(report.stages) == ["plan", "calibration", "solve", "gate"]
    gate = report.stages["gate"]
    assert gate["passed"] is False
    assert gate["mean_px"] > gate["threshold_px"]
    assert (Path(sc.out_dir) / "report.json").exists()


def test_missing_marker_fails_the_scene_stage(no_marker_run):
    sc, report = no_marker_run
    assert report.verdict == "FAILED-STAGE:scene"
    assert report.error == {
        "stage": "scene",
        "type": "NoMarkerFoundError",
        "message": report.error["message"],
        "frame": "scene:frame:0",
        "seed": stage_seed(sc.master_seed, "scene:frame:0"),
    }
    assert "gate" in report.stages
    assert "fusion" not in report.stages
    loaded = load_report(Path(sc.out_dir) / "report.json")
    assert loaded.verdict == report.verdict
    assert loaded.error == report.error


def test_failed_frame_replays_from_its_label_and_seed(no_marker_run):
    """The frame label and seed in the error rebuild the failing frame alone."""
    sc, report = no_marker_run
    label, seed = report.error["frame"], report.error["seed"]
    stage, kind, j = label.split(":")
    assert (stage, kind) == ("scene", "frame")
    j = int(j)
    flange = sc.robot_script[min(j, len(sc.robot_script) - 1)]
    cam = dataclasses.replace(sc.camera, mount_pose=sc.camera_in_phantom(flange))
    cloud = render_cloud(sc.phantom, None, cam, t=j / sc.camera.frame_rate,
                         seed=seed, noise_scale=sc.noise_scale)
    # The run wrote this frame's cloud before its detection failed.
    written = read_cloud(Path(sc.out_dir) / "cloud_scene_0000.ply")
    assert np.array_equal(cloud.points, written.points)
    with pytest.raises(Exception) as raised:
        detect_ring(cloud)
    assert type(raised.value).__name__ == report.error["type"]
    assert str(raised.value) == report.error["message"]


def test_sweep_count_does_not_hang_on_the_flip_rounding(monkeypatch):
    # The sweep camera's half turn about x leaves sin(pi) = 1.2e-16 in its
    # rotation; the exact flip quaternion does not.  A patch edge on a row
    # of ray centres would count that row under one mount and not the other.
    sc = default_scenario()
    rounded = [row["point_count"] for row in harness._stage_sweep(sc)["summary"]["rows"]]

    def exact_flip(axis, angle_deg, translation):
        assert (tuple(axis), angle_deg) == ((1.0, 0.0, 0.0), 180.0)
        return RigidTransform(q=np.array([0.0, 1.0, 0.0, 0.0]),
                              t=np.asarray(translation, dtype=float))

    monkeypatch.setattr(harness, "RigidTransform",
                        SimpleNamespace(from_axis_angle=exact_flip))
    exact = [row["point_count"] for row in harness._stage_sweep(sc)["summary"]["rows"]]
    # 240 x 180 rays; a quarter of each axis, rounded out to whole pixels.
    assert exact == rounded == [60 * 46] * len(rounded)


def test_last_stage_truncates_the_pipeline(tmp_path):
    sc = reduced_scenario(str(tmp_path / "calib_half"))
    report = run_scenario(sc, last_stage="gate")
    assert report.verdict == "PASSED"
    assert list(report.stages) == ["plan", "calibration", "solve", "gate"]
    with pytest.raises(ConfigError, match="unknown stage"):
        run_scenario(sc, last_stage="warmup")


def test_simulated_clouds_match_the_scene_stage(reduced_double_run, tmp_path):
    sc, *_ = reduced_double_run
    paths = simulate_clouds(dataclasses.replace(sc, out_dir=str(tmp_path)))
    assert [p.name for p in paths] == ["cloud_scene_0000.ply", "cloud_scene_0001.ply"]
    run_cloud = Path(sc.out_dir) / "cloud_scene_0000.ply"
    assert paths[0].read_bytes() == run_cloud.read_bytes()


def test_breathing_summary_matches_the_report(reduced_double_run, tmp_path):
    sc, report_1, *_ = reduced_double_run
    summary = breathing_summary(dataclasses.replace(sc, out_dir=str(tmp_path)))
    assert summary == report_1.stages["breathing"]
    assert (tmp_path / "signal.csv").exists()


def test_load_report_round_trip(default_run):
    scenario, report = default_run
    loaded = load_report(Path(scenario.out_dir) / "report.json")
    assert loaded.verdict == report.verdict
    assert loaded.stages == report.stages
    assert loaded.config == report.config
    assert [name for name, _ in loaded.timings] == ALL_STAGES
    assert all(seconds >= 0.0 for _, seconds in loaded.timings)


def test_load_report_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_report(tmp_path / "absent.json")
    broken = tmp_path / "broken.json"
    broken.write_text("[[[")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_report(broken)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"version": "0.1.0"}))
    with pytest.raises(ConfigError, match="missing key"):
        load_report(partial)
    listed = tmp_path / "listed.json"
    listed.write_text("[]")
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_report(listed)
    whole = {"version": "0.1.0", "config": {}, "stages": {}, "verdict": "PASSED"}
    for key in ("config", "stages"):
        bad = tmp_path / f"bad-{key}" / "report.json"
        bad.parent.mkdir()
        bad.write_text(json.dumps({**whole, key: []}))
        with pytest.raises(ConfigError, match=f"report {key} must be a JSON object"):
            load_report(bad)
    for rows in ("plan\n", "plan,0.5,1\n", "plan,fast\n"):
        timed = tmp_path / "timed"
        timed.mkdir(exist_ok=True)
        (timed / "report.json").write_text(json.dumps(whole))
        (timed / "timing.csv").write_text("stage,seconds\n" + rows)
        with pytest.raises(ConfigError, match="rows must be stage,seconds"):
            load_report(timed / "report.json")


def test_emit_accuracy_table(default_run):
    _, report = default_run
    lines = emit_table(report, "accuracy-vs-distance").splitlines()
    assert lines[0] == ("distance_mm,fov_x_mm,fov_y_mm,pixel_size_mm,"
                        "sigma_z_table_mm,sigma_z_measured_mm,"
                        "measured_at_mm,point_count")
    assert len(lines) == 8
    row_400 = next(line for line in lines[1:] if line.startswith("400"))
    cells = row_400.split(",")
    assert cells[4] == "0.117"
    assert int(cells[7]) > 0


def test_emit_execution_table(default_run):
    _, report = default_run
    lines = emit_table(report, "execution-error").splitlines()
    assert lines[0] == "obs_x,obs_y,obs_z,exec_x,exec_y,exec_z,diff_x,diff_y,diff_z"
    assert len(lines) == 1 + report.stages["fusion"]["probe_count"]
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 9
    assert first[6] == pytest.approx(first[3] - first[0], abs=1e-6)


def test_emit_timing_table(default_run):
    scenario, _ = default_run
    loaded = load_report(Path(scenario.out_dir) / "report.json")
    lines = emit_table(loaded, "timing").splitlines()
    assert lines[0] == "stage,seconds"
    assert len(lines) == 1 + len(ALL_STAGES)


def test_emit_table_error_paths(reduced_double_run):
    _, report_1, *_ = reduced_double_run
    with pytest.raises(MissingSectionError):
        emit_table(report_1, "accuracy-vs-distance")  # sweep was disabled
    with pytest.raises(ValueError, match="unknown table id"):
        emit_table(report_1, "everything")
    bare = RunReport(version="0.1.0", config={}, stages={}, verdict="PASSED")
    with pytest.raises(MissingSectionError):
        emit_table(bare, "timing")
    with pytest.raises(MissingSectionError):
        emit_table(bare, "execution-error")


# -- command line -----------------------------------------------------------


def write_config(tmp_path, sc: Scenario) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(sc.to_json_dict()))
    return str(path)


def test_cli_usage_errors_exit_3(capsys):
    for argv in ([], ["warp-drive"], ["emit-table", "everything"],
                 ["run", "--seed", "-1"]):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(argv)
        assert exc_info.value.code == cli.EXIT_CONFIG
    capsys.readouterr()


def test_cli_config_error_returns_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"master_seed": 1, "banana": True}))
    assert cli.main(["calibrate", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert cli.main(["run", "--config", str(tmp_path / "absent.json")]) == \
        cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_calibrate_from_config(tmp_path, capsys):
    sc = reduced_scenario(str(tmp_path / "out"))
    rc = cli.main(["calibrate", "--config", write_config(tmp_path, sc)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "verdict: PASSED" in out
    assert "reprojection mean" in out
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("seed", [5, 7, 9])
def test_calibration_views_find_the_true_ring_at_noise_scale_2(seed, tmp_path, capsys):
    # The README's bound on the calibration views' ring centre error at
    # twice the table noise.
    sc = dataclasses.replace(default_scenario(str(tmp_path / "out")), noise_scale=2.0)
    rc = cli.main(["calibrate", "--config", write_config(tmp_path, sc), "--seed", str(seed)])
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert (rc, report["verdict"]) == (cli.EXIT_OK, "PASSED")
    assert report["stages"]["calibration"]["ring_center_error_max_mm"] <= 1.5


def test_cli_gate_failure_exits_2(tmp_path, capsys):
    sc = with_board_noise(reduced_scenario(str(tmp_path / "out")), 2.0, 4.0)
    rc = cli.main(["calibrate", "--config", write_config(tmp_path, sc)])
    assert rc == cli.EXIT_GATE
    assert "verdict: FAILED-GATE" in capsys.readouterr().out


def test_a_failed_stage_is_named_on_stderr(tmp_path, capsys):
    # run and fuse end at the marker-free scene's first frame, calibrate at
    # the ripple skin's first calibration view.  Each prints the report path
    # and one stderr line with the frame label and seed that replay it.
    flat = reduced_scenario(str(tmp_path / "flat"), include_marker=False)
    ripple = reduced_scenario(str(tmp_path / "ripple"), observation_box=None)
    ripple = dataclasses.replace(ripple, phantom=dataclasses.replace(ripple.phantom, surface={
        "kind": "ripple", "amplitude_mm": 4.0, "wavelength_x_mm": 160.0,
        "wavelength_y_mm": 120.0}))
    for command, sc, frame in (("run", flat, "scene:frame:0"), ("fuse", flat, "scene:frame:0"),
                               ("calibrate", ripple, "calibration:render:0")):
        assert cli.main([command, "--config", write_config(tmp_path, sc)]) == cli.EXIT_STAGE
        out, err = capsys.readouterr()
        report_path = Path(sc.out_dir) / "report.json"
        error = json.loads(report_path.read_text())["error"]
        assert (error["frame"], error["seed"]) == (frame, stage_seed(sc.master_seed, frame))
        assert f"report: {report_path}\n" in out
        assert err == (f"failed stage: {error['stage']} at {frame} seed {error['seed']}: "
                       f"{error['type']}: {error['message']}\n")
    # Outside the pipeline the command's name is the stage.  detect and
    # breathe end at their first frame of the marker-free bundled scenario,
    # simulate at a scene frame whose flange is lifted out of range; a cloud
    # read from a file was rendered by no frame, so nothing replays it.
    bundled = dataclasses.replace(default_scenario(str(tmp_path / "bundled")),
                                  include_marker=False)
    lifted = dataclasses.replace(bundled, robot_script=[
        RigidTransform.translation(0.0, 0.0, 2000.0).compose(bundled.robot_script[0])])
    for name, sc in (("bundled", bundled), ("lifted", lifted)):
        (tmp_path / f"{name}.json").write_text(json.dumps(sc.to_json_dict()))
    cloud = str(Path(flat.out_dir) / "cloud_scene_0000.ply")
    no_ring = "NoMarkerFoundError: no points in the proud band above the skin plane"
    for argv, frame, failure in (
            (["detect", "--config", str(tmp_path / "bundled.json")], "scene:frame:0", no_ring),
            (["breathe", "--config", str(tmp_path / "bundled.json")], "breathing:frame:0",
             no_ring),
            (["simulate", "--config", str(tmp_path / "lifted.json")], "scene:frame:0",
             "EmptyCloudError: no ray intersected the scene inside the frustum"),
            (["detect", "--cloud", cloud, "--out", str(tmp_path / "cloud")], None, no_ring)):
        assert cli.main(argv + ["--seed", "1"]) == cli.EXIT_STAGE
        at = f" at {frame} seed {stage_seed(1, frame)}" if frame else ""
        assert capsys.readouterr().err == f"failed stage: {argv[0]}{at}: {failure}\n"


def test_a_camera_mount_pose_is_a_config_error(tmp_path):
    # Every stage places the camera from the robot script and the hand-eye
    # transform, so a mount in the scenario would load and change nothing.
    mount = RigidTransform.from_axis_angle((1.0, 0.0, 0.0), 30.0, translation=(0.0, 0.0, 300.0))
    doc = {"master_seed": 1, "camera": {"mount_pose": mount.to_json_dict()}}
    with pytest.raises(ConfigError, match="^camera.mount_pose must be the identity"):
        Scenario.from_json_dict(doc)
    assert exits_with_config_error(tmp_path, doc)
    doc["camera"]["mount_pose"] = RigidTransform.identity().to_json_dict()
    assert Scenario.from_json_dict(doc).to_json_dict() == Scenario(master_seed=1).to_json_dict()


def test_cli_detect_from_a_cloud_file(reduced_double_run, tmp_path, capsys):
    sc, *_ = reduced_double_run
    cloud = Path(sc.out_dir) / "cloud_scene_0000.ply"
    rc = cli.main(["detect", "--cloud", str(cloud), "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    doc = json.loads((tmp_path / "detection.json").read_text())
    assert set(doc) == {"center", "normal", "radius_mm", "rms_mm", "inliers", "t"}
    assert json.loads(capsys.readouterr().out) == doc


def test_cli_detect_exits_3_for_a_malformed_cloud(tmp_path, capsys):
    # No stage runs on a cloud file, so a bad one is an input error, not a
    # stage error: a binary body 8 bytes short of its header, an ASCII PLY,
    # a sidecar without the seed, and a file that is not there.
    header = ("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
              "property double x\nproperty double y\nproperty double z\nend_header\n")
    short = tmp_path / "short.ply"
    short.write_bytes(header.encode() + bytes(40))
    sidecar_path(short).write_text('{"timestamp_s": 0.0, "seed": 1}')
    ascii_ply = tmp_path / "ascii.ply"
    ascii_ply.write_text(header.replace("binary_little_endian", "ascii") + "1 2 3\n4 5 6\n")
    sidecar_path(ascii_ply).write_text('{"timestamp_s": 0.0, "seed": 1}')
    unseeded = tmp_path / "unseeded.ply"
    unseeded.write_bytes(header.encode() + bytes(48))
    sidecar_path(unseeded).write_text('{"timestamp_s": 0.0}')
    for cloud, message in ((short, "40-byte body"),
                           (ascii_ply, "PLY format ascii 1.0"),
                           (unseeded, "seed"),
                           (tmp_path / "absent.ply", "No such file")):
        rc = cli.main(["detect", "--cloud", str(cloud), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read cloud") and message in err
    assert not (tmp_path / "out" / "detection.json").exists()


def test_cli_detect_renders_scene_frame_0_without_a_cloud(tmp_path, capsys):
    sc = reduced_scenario(str(tmp_path / "out"))
    config = write_config(tmp_path, sc)
    assert cli.main(["detect", "--config", config]) == cli.EXIT_OK
    doc = json.loads((tmp_path / "out" / "detection.json").read_text())
    assert json.loads(capsys.readouterr().out) == doc
    clouds = dataclasses.replace(sc, out_dir=str(tmp_path / "clouds"))
    [first, *_] = simulate_clouds(clouds)
    assert first.name == "cloud_scene_0000.ply"
    assert doc == detect_ring(read_cloud(first)).to_json_dict()


def test_a_larger_ring_runs_through_the_scene_stage(tmp_path, capsys):
    # Detection and tracking read the ring size from the scenario's marker;
    # the default 24/16 mm gate finds no 40/30 mm ring.
    sc = reduced_scenario(str(tmp_path / "out"))
    large = dataclasses.replace(sc.marker, outer_diameter_mm=40.0, inner_diameter_mm=30.0)
    sc = dataclasses.replace(sc, marker=large, observation_box=None)
    report = run_scenario(sc, last_stage="scene")
    assert report.verdict == "PASSED"
    assert report.stages["scene"]["track_fallbacks"] == 0
    assert report.stages["scene"]["center_error_max_mm"] < 0.3
    assert cli.main(["detect", "--config", write_config(tmp_path, sc)]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["radius_mm"] == pytest.approx(large.mid_diameter_mm / 2.0, abs=0.5)


def test_cli_simulate_from_config(tmp_path, capsys):
    sc = reduced_scenario(str(tmp_path / "clouds"))
    rc = cli.main(["simulate", "--config", write_config(tmp_path, sc)])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    assert (tmp_path / "clouds" / "cloud_scene_0001.ply").exists()


def test_cli_breathe_from_config(tmp_path, capsys):
    sc = reduced_scenario(str(tmp_path / "out"))
    rc = cli.main(["breathe", "--config", write_config(tmp_path, sc)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    doc = json.loads((tmp_path / "out" / "breathing.json").read_text())
    assert doc["period_true_s"] == 4.0
    assert abs(doc["period_error_s"]) <= 0.08
    assert json.loads(out) == doc


def test_cli_fov_summary(tmp_path, capsys):
    rc = cli.main(["fov", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    doc = json.loads((tmp_path / "fov.json").read_text())
    assert doc["working_range_mm"] == [250.0, 700.0]
    assert doc["rectangle_fit_distance_mm"] == 250.0
    assert doc["box_center_visible"] is True
    assert len(doc["fov_at_knots"]) == 7
    assert json.loads(out) == doc


def test_cli_emit_table_from_report(default_run, tmp_path, capsys):
    scenario, _ = default_run
    report_path = str(Path(scenario.out_dir) / "report.json")
    rc = cli.main(["emit-table", "execution-error", "--report", report_path,
                   "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    saved = (tmp_path / "execution-error.csv").read_text()
    assert saved == out
    assert saved.startswith("obs_x,obs_y,obs_z")


def test_cli_emit_table_missing_section_exits_3(reduced_double_run, capsys):
    sc, *_ = reduced_double_run
    report_path = str(Path(sc.out_dir) / "report.json")
    rc = cli.main(["emit-table", "accuracy-vs-distance", "--report", report_path])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: report has no sweep section\n"


def test_cli_emit_table_malformed_report_exits_3(tmp_path, capsys):
    (tmp_path / "listed").mkdir()
    listed = tmp_path / "listed" / "report.json"
    listed.write_text("[]")
    assert cli.main(["emit-table", "timing", "--report", str(listed)]) == cli.EXIT_CONFIG
    short_row = tmp_path / "report.json"
    short_row.write_text(json.dumps(
        {"version": "0.1.0", "config": {}, "stages": {}, "verdict": "PASSED"}))
    (tmp_path / "timing.csv").write_text("stage,seconds\nplan\n")
    rc = cli.main(["emit-table", "timing", "--report", str(short_row)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "must be a JSON object" in err and "rows must be stage,seconds" in err
    # Sections of the wrong shape: a fusion record without "exec", and sweep
    # rows that are a number.
    whole = {"version": "0.1.0", "config": {}, "verdict": "PASSED"}
    for table, stages in (
            ("execution-error", {"fusion": {"records": [{"obs": [1.0, 2.0, 3.0]}]}}),
            ("accuracy-vs-distance", {"sweep": {"rows": 5}})):
        path = tmp_path / table / "report.json"
        path.parent.mkdir()
        path.write_text(json.dumps({**whole, "stages": stages}))
        with pytest.raises(ConfigError, match=f"malformed {table} section"):
            emit_table(load_report(path), table)
        assert cli.main(["emit-table", table, "--report", str(path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: report has a malformed {table}")

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from specklenav import cli
from specklenav.detect import detect_ring
from specklenav.harness import (
    ConfigError,
    MissingSectionError,
    RunReport,
    Scenario,
    StageError,
    breathing_summary,
    default_scenario,
    emit_table,
    load_report,
    load_scenario,
    run_scenario,
    simulate_clouds,
    stage_seed,
)
from specklenav.ply import read_cloud
from specklenav.scene import render_cloud

from conftest import reduced_scenario

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


def test_scenario_json_round_trip(tmp_path):
    sc = reduced_scenario(str(tmp_path))
    doc = sc.to_json_dict()
    back = Scenario.from_json_dict(json.loads(json.dumps(doc)))
    assert back.to_json_dict() == doc


def test_scenario_document_validation():
    with pytest.raises(ConfigError, match="master_seed"):
        Scenario.from_json_dict({"out_dir": "x"})
    with pytest.raises(ConfigError, match="unknown"):
        Scenario.from_json_dict({"master_seed": 1, "banana": True})
    with pytest.raises(ConfigError):
        Scenario.from_json_dict([1, 2, 3])


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
    cam = sc.camera.with_mount_pose(sc.camera_in_phantom(flange))
    cloud = render_cloud(sc.phantom, None, cam, t=j / sc.camera.frame_rate,
                         seed=seed, noise_scale=sc.noise_scale)
    # The run wrote this frame's cloud before its detection failed.
    written = read_cloud(Path(sc.out_dir) / "cloud_scene_0000.ply")
    assert np.array_equal(cloud.points, written.points)
    with pytest.raises(Exception) as raised:
        detect_ring(cloud)
    assert type(raised.value).__name__ == report.error["type"]
    assert str(raised.value) == report.error["message"]


def test_last_stage_truncates_the_pipeline(tmp_path):
    sc = reduced_scenario(str(tmp_path / "calib_half"))
    report = run_scenario(sc, last_stage="gate")
    assert report.verdict == "PASSED"
    assert list(report.stages) == ["plan", "calibration", "solve", "gate"]
    with pytest.raises(ConfigError, match="unknown stage"):
        run_scenario(sc, last_stage="warmup")


def test_simulated_clouds_match_the_scene_stage(reduced_double_run, tmp_path):
    sc, *_ = reduced_double_run
    paths = simulate_clouds(sc, out_dir=str(tmp_path))
    assert [p.name for p in paths] == ["cloud_scene_0000.ply", "cloud_scene_0001.ply"]
    run_cloud = Path(sc.out_dir) / "cloud_scene_0000.ply"
    assert paths[0].read_bytes() == run_cloud.read_bytes()


def test_breathing_summary_matches_the_report(reduced_double_run, tmp_path):
    sc, report_1, *_ = reduced_double_run
    summary = breathing_summary(sc, out_dir=str(tmp_path))
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


def test_stage_error_carries_its_cause():
    cause = ValueError("boom")
    err = StageError("scene", cause)
    assert err.stage == "scene"
    assert err.cause is cause
    assert "scene" in str(err) and "boom" in str(err)


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


def test_cli_gate_failure_exits_2(tmp_path, capsys):
    sc = with_board_noise(reduced_scenario(str(tmp_path / "out")), 2.0, 4.0)
    rc = cli.main(["calibrate", "--config", write_config(tmp_path, sc)])
    assert rc == cli.EXIT_GATE
    assert "verdict: FAILED-GATE" in capsys.readouterr().out


def test_cli_detect_from_a_cloud_file(reduced_double_run, tmp_path, capsys):
    sc, *_ = reduced_double_run
    cloud = Path(sc.out_dir) / "cloud_scene_0000.ply"
    rc = cli.main(["detect", "--cloud", str(cloud), "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    doc = json.loads((tmp_path / "detection.json").read_text())
    assert set(doc) == {"center", "normal", "radius_mm", "rms_mm", "inliers", "t"}
    assert json.loads(capsys.readouterr().out) == doc


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
    assert "config error" in capsys.readouterr().err

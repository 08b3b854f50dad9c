import csv
import json

import numpy as np
import pytest

from specklenav.detect import MarkerPose
from specklenav.fusion import (
    EmptyRecordsError,
    ExecutionRecord,
    TcpCorrection,
    apply_correction,
    correction_rms,
    fit_tcp_correction,
    marker_in_base,
    write_records,
)
from specklenav.geometry import Point3, RigidTransform

IDENTITY = TcpCorrection(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, fit_pair_count=0, fit_rms=0.0)


def record(obs, exe) -> ExecutionRecord:
    return ExecutionRecord(camera_observed=Point3(*obs), robot_executed=Point3(*exe))


def test_offset_only_replay_is_exact():
    correction = TcpCorrection(1.0, 1.0, 1.0, -0.56, -0.02, -0.44,
                               fit_pair_count=8, fit_rms=0.1)
    got = apply_correction(correction, Point3(-446.08, -336.61, -67.12))
    assert (got.x, got.y, got.z) == (-446.64, -336.63, -67.56)


def test_fit_recovers_an_affine_map():
    rng = np.random.default_rng(3)
    scale = np.array([1.02, 0.98, 1.05])
    offset = np.array([0.5, -1.2, 2.0])
    records = []
    for _ in range(12):
        obs = rng.uniform(-80.0, 80.0, size=3) + np.array([-440.0, -330.0, -60.0])
        records.append(record(obs, scale * obs + offset))
    fit = fit_tcp_correction(records)
    assert fit.fit_pair_count == 12
    assert np.allclose([fit.scale_x, fit.scale_y, fit.scale_z], scale, atol=1e-12)
    assert np.allclose([fit.offset_x, fit.offset_y, fit.offset_z], offset, atol=1e-9)
    assert fit.fit_rms < 1e-9


def test_few_records_fall_back_to_a_pure_offset():
    records = [record((0.0, 0.0, 0.0), (1.0, -2.0, 0.5)),
               record((10.0, 5.0, -3.0), (13.0, 3.0, -1.5))]
    fit = fit_tcp_correction(records)
    assert (fit.scale_x, fit.scale_y, fit.scale_z) == (1.0, 1.0, 1.0)
    assert fit.offset_x == pytest.approx(2.0)
    assert fit.offset_y == pytest.approx(-2.0)
    assert fit.offset_z == pytest.approx(1.0)
    assert fit.fit_pair_count == 2


def test_single_record_offset_is_the_difference():
    rec = record((-446.08, -336.61, -67.12), (-446.64, -336.63, -67.56))
    fit = fit_tcp_correction([rec])
    assert (fit.scale_x, fit.scale_y, fit.scale_z) == (1.0, 1.0, 1.0)
    diff = rec.robot_executed.as_array() - rec.camera_observed.as_array()
    assert [fit.offset_x, fit.offset_y, fit.offset_z] == diff.tolist()


def test_axis_without_spread_keeps_unit_scale():
    records = [record((5.0, y, 2.0 * y), (5.7, 1.01 * y - 0.2, 2.0 * y + 0.3))
               for y in (-30.0, -10.0, 10.0, 30.0)]
    fit = fit_tcp_correction(records)
    assert fit.scale_x == 1.0  # x never moves, slope unidentifiable
    assert fit.offset_x == pytest.approx(0.7)
    assert fit.scale_y == pytest.approx(1.01)


def test_oversized_scale_is_rejected():
    records = [record((x, 0.0, 0.0), (1.2 * x, 0.0, 0.0))
               for x in (-20.0, -5.0, 5.0, 20.0)]
    with pytest.raises(ValueError, match="sanity band"):
        fit_tcp_correction(records)


def test_fit_rms_matches_the_public_rms():
    rng = np.random.default_rng(8)
    records = []
    for _ in range(9):
        obs = rng.uniform(-50.0, 50.0, size=3)
        exe = obs + rng.normal(0.0, 0.3, size=3)
        records.append(record(obs, exe))
    fit = fit_tcp_correction(records)
    assert fit.fit_rms == correction_rms(fit, records)
    assert fit.fit_rms > 0.0


def test_correction_reduces_residuals():
    rng = np.random.default_rng(11)
    records = []
    for _ in range(10):
        obs = rng.uniform(-60.0, 60.0, size=3)
        records.append(record(obs, obs + np.array([-0.56, -0.02, -0.44])
                              + rng.normal(0.0, 0.05, size=3)))
    before = correction_rms(IDENTITY, records)
    after = correction_rms(fit_tcp_correction(records), records)
    assert after < 0.25 * before


def test_empty_records_raise():
    with pytest.raises(EmptyRecordsError):
        fit_tcp_correction([])
    with pytest.raises(EmptyRecordsError):
        correction_rms(IDENTITY, [])


def test_csv_round_trip(tmp_path):
    records = [record((-446.08, -336.61, -67.12), (-446.64, -336.63, -67.56)),
               record((12.5, -3.25, 0.125), (12.0, -3.0, 0.5))]
    path = tmp_path / "execution.csv"
    write_records(path, records)
    text = path.read_text()
    assert text.splitlines()[0] == "obs_x,obs_y,obs_z,exec_x,exec_y,exec_z"
    assert "-446.080000" in text
    with open(path, newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    assert [record(row[:3], row[3:]) for row in rows] == records


def test_marker_in_base_chains_hand_eye_and_flange():
    hand_eye = RigidTransform.from_axis_angle((0.2, -0.3, 0.9), 8.0,
                                              translation=(42.0, -18.5, 96.0))
    flange = RigidTransform.rot_z(30.0, translation=(100.0, -50.0, 400.0))
    pose = MarkerPose(center=Point3(2.0, -1.0, 398.0),
                      normal=np.array([0.0, 0.0, -1.0]),
                      radius_mm=10.0, rms_residual_mm=0.2,
                      inlier_count=30, timestamp_s=0.0)
    center, normal = marker_in_base(hand_eye, flange, pose)
    chain = flange.compose(hand_eye)
    assert np.allclose(center.as_array(), chain.apply(pose.center.as_array()),
                       atol=1e-12)
    assert np.allclose(normal, chain.rotate(pose.normal), atol=1e-12)
    assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-12)


def test_correction_json_round_trip():
    fit = TcpCorrection(1.01, 0.99, 1.0, -0.56, -0.02, -0.44,
                        fit_pair_count=8, fit_rms=0.123)
    doc = json.loads(json.dumps(fit.to_json_dict()))
    assert doc == {"scale": [1.01, 0.99, 1.0], "offset": [-0.56, -0.02, -0.44],
                   "fit_pair_count": 8, "fit_rms": 0.123}


def test_correction_validation():
    with pytest.raises(ValueError):
        TcpCorrection(0.89, 1.0, 1.0, 0.0, 0.0, 0.0, fit_pair_count=4, fit_rms=0.0)
    with pytest.raises(ValueError):
        TcpCorrection(1.0, 1.11, 1.0, 0.0, 0.0, 0.0, fit_pair_count=4, fit_rms=0.0)
    with pytest.raises(ValueError):
        TcpCorrection(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, fit_pair_count=4, fit_rms=-1.0)
    with pytest.raises(ValueError):
        TcpCorrection(1.0, 1.0, 1.0, 0.0, 0.0, 0.0, fit_pair_count=-1, fit_rms=0.0)


def test_identity_correction_is_a_no_op():
    p = Point3(-446.08, -336.61, -67.12)
    assert apply_correction(IDENTITY, p) == p

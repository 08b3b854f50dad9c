import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from specklenav.detect import MarkerPose
from specklenav.fusion import (
    EmptyRecordsError,
    TcpCorrection,
    apply_correction,
    correction_rms,
    fit_tcp_correction,
    marker_in_base,
    write_records,
)
from specklenav.geometry import Point3, RigidTransform
from specklenav.harness import _to_json, run_scenario

from conftest import reduced_scenario, rot_z

IDENTITY = TcpCorrection((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), fit_pair_count=0, fit_rms=0.0)


def records(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) observed and executed arrays of (observed, executed) pairs."""
    return (np.array([obs for obs, _ in pairs], dtype=float).reshape(-1, 3),
            np.array([exe for _, exe in pairs], dtype=float).reshape(-1, 3))


def test_offset_only_replay_is_exact():
    correction = TcpCorrection((1.0, 1.0, 1.0), (-0.56, -0.02, -0.44),
                               fit_pair_count=8, fit_rms=0.1)
    got = apply_correction(correction, np.array([-446.08, -336.61, -67.12]))
    assert got.tolist() == [-446.64, -336.63, -67.56]
    rows = apply_correction(correction, np.array([[-446.08, -336.61, -67.12]] * 2))
    assert rows.tolist() == [[-446.64, -336.63, -67.56]] * 2


def test_fit_recovers_an_affine_map():
    rng = np.random.default_rng(3)
    scale = np.array([1.02, 0.98, 1.05])
    offset = np.array([0.5, -1.2, 2.0])
    obs = rng.uniform(-80.0, 80.0, size=(12, 3)) + np.array([-440.0, -330.0, -60.0])
    fit = fit_tcp_correction(obs, scale * obs + offset)
    assert fit.fit_pair_count == 12
    assert np.allclose(fit.scale, scale, atol=1e-12)
    assert np.allclose(fit.offset, offset, atol=1e-9)
    assert fit.fit_rms < 1e-9


def test_few_records_fall_back_to_a_pure_offset():
    fit = fit_tcp_correction(*records([((0.0, 0.0, 0.0), (1.0, -2.0, 0.5)),
                                       ((10.0, 5.0, -3.0), (13.0, 3.0, -1.5))]))
    assert fit.scale == (1.0, 1.0, 1.0)
    assert fit.offset == pytest.approx((2.0, -2.0, 1.0))
    assert fit.fit_pair_count == 2


def test_single_record_offset_is_the_difference():
    obs, exe = records([((-446.08, -336.61, -67.12), (-446.64, -336.63, -67.56))])
    fit = fit_tcp_correction(obs, exe)
    assert fit.scale == (1.0, 1.0, 1.0)
    assert list(fit.offset) == (exe[0] - obs[0]).tolist()


def test_axis_without_spread_keeps_unit_scale():
    fit = fit_tcp_correction(*records(
        [((5.0, y, 2.0 * y), (5.7, 1.01 * y - 0.2, 2.0 * y + 0.3))
         for y in (-30.0, -10.0, 10.0, 30.0)]))
    assert fit.scale[0] == 1.0  # x never moves, slope unidentifiable
    assert fit.offset[0] == pytest.approx(0.7)
    assert fit.scale[1] == pytest.approx(1.01)


def test_oversized_scale_is_rejected():
    pairs = [((x, 0.0, 0.0), (1.2 * x, 0.0, 0.0)) for x in (-20.0, -5.0, 5.0, 20.0)]
    with pytest.raises(ValueError, match="scale_x=.* sanity band"):
        fit_tcp_correction(*records(pairs))


def test_fit_rms_matches_the_public_rms():
    rng = np.random.default_rng(8)
    obs = np.empty((9, 3))
    exe = np.empty((9, 3))
    for k in range(9):
        obs[k] = rng.uniform(-50.0, 50.0, size=3)
        exe[k] = obs[k] + rng.normal(0.0, 0.3, size=3)
    fit = fit_tcp_correction(obs, exe)
    assert fit.fit_rms == correction_rms(fit, obs, exe)
    assert fit.fit_rms > 0.0


def test_correction_reduces_residuals():
    rng = np.random.default_rng(11)
    obs = np.empty((10, 3))
    exe = np.empty((10, 3))
    for k in range(10):
        obs[k] = rng.uniform(-60.0, 60.0, size=3)
        exe[k] = obs[k] + np.array([-0.56, -0.02, -0.44]) + rng.normal(0.0, 0.05, size=3)
    before = correction_rms(IDENTITY, obs, exe)
    after = correction_rms(fit_tcp_correction(obs, exe), obs, exe)
    assert after < 0.25 * before


def test_empty_records_raise():
    empty = np.empty((0, 3))
    with pytest.raises(EmptyRecordsError):
        fit_tcp_correction(empty, empty)
    with pytest.raises(EmptyRecordsError):
        correction_rms(IDENTITY, empty, empty)


def test_csv_round_trip(tmp_path):
    obs, exe = records([((-446.08, -336.61, -67.12), (-446.64, -336.63, -67.56)),
                        ((12.5, -3.25, 0.125), (12.0, -3.0, 0.5))])
    path = tmp_path / "execution.csv"
    write_records(path, obs, exe)
    text = path.read_text()
    assert text.splitlines()[0] == "obs_x,obs_y,obs_z,exec_x,exec_y,exec_z"
    assert "-446.080000" in text
    with open(path, newline="") as fh:
        rows = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    assert np.array_equal(rows[:, :3], obs) and np.array_equal(rows[:, 3:], exe)


def test_marker_in_base_chains_hand_eye_and_flange():
    hand_eye = RigidTransform.from_axis_angle((0.2, -0.3, 0.9), 8.0,
                                              translation=(42.0, -18.5, 96.0))
    flange = rot_z(30.0, translation=(100.0, -50.0, 400.0))
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
    fit = TcpCorrection((1.01, 0.99, 1.0), (-0.56, -0.02, -0.44),
                        fit_pair_count=8, fit_rms=0.123)
    doc = json.loads(json.dumps(_to_json(fit)))
    assert doc == {"scale": [1.01, 0.99, 1.0], "offset": [-0.56, -0.02, -0.44],
                   "fit_pair_count": 8, "fit_rms": 0.123}


def test_correction_validation():
    unit, zero = (1.0, 1.0, 1.0), (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="scale_x"):
        TcpCorrection((0.89, 1.0, 1.0), zero, fit_pair_count=4, fit_rms=0.0)
    with pytest.raises(ValueError, match="scale_y"):
        TcpCorrection((1.0, 1.11, 1.0), zero, fit_pair_count=4, fit_rms=0.0)
    with pytest.raises(ValueError):
        TcpCorrection(unit, zero, fit_pair_count=4, fit_rms=-1.0)
    with pytest.raises(ValueError):
        TcpCorrection(unit, zero, fit_pair_count=-1, fit_rms=0.0)


def test_identity_correction_is_a_no_op():
    p = np.array([-446.08, -336.61, -67.12])
    assert np.array_equal(apply_correction(IDENTITY, p), p)


RECORDED_FUSION = json.loads((Path(__file__).parent / "recorded_fusion.json").read_text())


def test_reduced_run_keeps_its_recorded_fusion(tmp_path):
    # Recorded from the reduced scenario on master seed 1 when the records
    # were still carried as Point3 pairs; the array path must keep every bit.
    report = run_scenario(reduced_scenario(str(tmp_path), master_seed=1),
                          last_stage="fusion")
    assert report.verdict == "PASSED"
    fusion = dict(report.stages["fusion"])
    # The probes are tracked, and none falls back; the count is not recorded.
    assert fusion.pop("track_fallbacks") == 0
    assert fusion == RECORDED_FUSION["fusion"]
    digest = hashlib.sha256((tmp_path / "execution.csv").read_bytes()).hexdigest()
    assert digest == RECORDED_FUSION["execution_csv_sha256"]

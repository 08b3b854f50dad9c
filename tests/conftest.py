import dataclasses
import json

import numpy as np
import pytest

from specklenav.geometry import RigidTransform, pose_error
from specklenav.harness import Scenario, default_scenario, run_scenario


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """One full default-scenario run, shared by harness and acceptance tests."""
    out = tmp_path_factory.mktemp("default_run")
    scenario = default_scenario(out_dir=str(out))
    report = run_scenario(scenario)
    return scenario, report


def reduced_scenario(out_dir: str, **overrides):
    """A cheap variant of the default scenario for negative controls."""
    sc = default_scenario(out_dir=out_dir)
    sc = dataclasses.replace(
        sc,
        calibration=dataclasses.replace(sc.calibration, count=6),
        breathing=dataclasses.replace(sc.breathing, duration_s=8.0,
                                      frame_rate_hz=6.0),
        sweep=dataclasses.replace(sc.sweep, enabled=False),
        scene_frames=2,
    )
    if overrides:
        sc = dataclasses.replace(sc, **overrides)
    return sc


def scenario_json_round_trip(**fields) -> Scenario:
    """``Scenario(master_seed=1, **fields)`` written to JSON text and read back."""
    doc = Scenario(master_seed=1, **fields).to_json_dict()
    return Scenario.from_json_dict(json.loads(json.dumps(doc)))


def random_transform(rng: np.random.Generator,
                     max_rotation_deg: float = 180.0,
                     max_translation_mm: float = 500.0) -> RigidTransform:
    """Uniform random rotation axis, uniform angle and box-uniform translation."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_rotation_deg, max_rotation_deg)
    t = rng.uniform(-max_translation_mm, max_translation_mm, size=3)
    return RigidTransform.from_axis_angle(axis, angle, t)


def rot_z(angle_deg: float, translation=(0.0, 0.0, 0.0)) -> RigidTransform:
    """A rotation of ``angle_deg`` about z, then ``translation``."""
    return RigidTransform.from_axis_angle((0.0, 0.0, 1.0), angle_deg, translation)


def rotation_angle_deg(tr: RigidTransform) -> float:
    """Rotation angle of ``tr``, in degrees."""
    return pose_error(RigidTransform.identity(), tr).rotation_error_deg


@pytest.fixture(scope="session")
def reduced_double_run(tmp_path_factory):
    """The same reduced scenario run twice into the same directory."""
    out = tmp_path_factory.mktemp("reduced_run")
    sc = reduced_scenario(str(out))
    report_1 = run_scenario(sc)
    bytes_1 = (out / "report.json").read_bytes()
    report_2 = run_scenario(sc)
    bytes_2 = (out / "report.json").read_bytes()
    return sc, report_1, bytes_1, report_2, bytes_2

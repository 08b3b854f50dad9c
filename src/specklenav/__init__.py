"""Depth-camera puncture-navigation toolkit.

Synthetic depth clouds over a breathing torso phantom, ring-marker
detection, AX = XB hand-eye calibration with a reprojection gate,
camera-to-robot coordinate fusion with a TCP correction, respiratory
gating, and frustum/coverage feasibility checks, tied together by a
seeded scenario runner.
"""

from .camera import CameraModel, FovRow, RangeClampWarning
from .detect import MarkerPose, NoMarkerFoundError, detect_ring, track
from .fov import accuracy_estimate, blind_spot_check, observation_rectangle_fit
from .fusion import (
    TcpCorrection,
    apply_correction,
    fit_tcp_correction,
    marker_in_base,
)
from .geometry import Aabb, Box, Point3, RigidTransform, pose_error
from .handeye import (
    CalibrationSample,
    HandEyeResult,
    plan_poses,
    reprojection_error,
    sample_from_board_observation,
    solve_ax_xb,
)
from .harness import VERSION as __version__
from .harness import (
    RunReport,
    Scenario,
    default_scenario,
    emit_table,
    run_scenario,
)
from .ply import read_cloud, write_cloud
from .respiration import (
    BreathSignal,
    detect_breath_hold,
    estimate_period,
    extract_signal,
    motion_alarm,
)
from .scene import PointCloud, RingMarker, TorsoPhantom, render_cloud

__all__ = [
    "Aabb",
    "Box",
    "BreathSignal",
    "CalibrationSample",
    "CameraModel",
    "FovRow",
    "HandEyeResult",
    "MarkerPose",
    "NoMarkerFoundError",
    "Point3",
    "PointCloud",
    "RangeClampWarning",
    "RigidTransform",
    "RingMarker",
    "RunReport",
    "Scenario",
    "TcpCorrection",
    "TorsoPhantom",
    "accuracy_estimate",
    "apply_correction",
    "blind_spot_check",
    "default_scenario",
    "detect_breath_hold",
    "detect_ring",
    "emit_table",
    "estimate_period",
    "extract_signal",
    "fit_tcp_correction",
    "marker_in_base",
    "motion_alarm",
    "observation_rectangle_fit",
    "plan_poses",
    "pose_error",
    "read_cloud",
    "render_cloud",
    "reprojection_error",
    "run_scenario",
    "sample_from_board_observation",
    "solve_ax_xb",
    "track",
    "write_cloud",
    "__version__",
]

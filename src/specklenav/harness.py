"""End-to-end scenario runner: calibrate, gate, detect, fuse, correct, breathe.

A Scenario bundles the synthetic world (camera, phantom, marker, true
hand-eye transform, robot poses) with every stage's knobs and a single
master seed.  ``run_scenario`` walks the stages in a fixed order, feeding
each stage only what earlier stages produced, and collects the metrics
into a RunReport whose JSON serialization is byte-identical across reruns
of the same config.

Seeding rule: each stage (and each randomized item within a stage) hashes
``"{master_seed}:{label}"`` with SHA-256 and uses the first eight bytes as
its own RNG seed, so any stage can be reproduced in isolation.  When a
frame's render or detection fails, the report's error names that frame's
label and seed, so the one frame can be rendered and detected again alone.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from types import UnionType
from typing import Annotated, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import respiration as resp_mod
from .camera import CameraModel
from .detect import MarkerPose, detect_in_crop, detect_ring, track_window
from .fusion import apply_correction, fit_tcp_correction, marker_in_base, write_records
from .geometry import Aabb, Point3, RigidTransform, finite_float, line_angle_deg, pose_error
from .handeye import (
    GATE_THRESHOLD_PX,
    plan_poses,
    reprojection_error,
    sample_from_board_observation,
    solve_ax_xb,
)
from .ply import write_cloud
from .respiration import detect_breath_hold, estimate_period, extract_signal, motion_alarm
from .scene import (
    EmptyCloudError,
    RingMarker,
    TorsoPhantom,
    marker_rim_in_view,
    marker_top_center_world,
    render_cloud,
)

VERSION = "0.1.0"


class ConfigError(ValueError):
    """Raised when a scenario document is malformed."""


class MissingSectionError(ConfigError):
    """Raised when emit_table asks for a section the report does not have."""


def stage_seed(master_seed: int, label: str) -> int:
    """Deterministic per-stage seed: first 8 bytes of SHA-256 of 'master:label'."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Scenario configuration


# A config field's range, declared as ``Annotated`` metadata beside its type:
# the words ending "<field> must ...", and the test its value (each element of a tuple) passes.
_POSITIVE = ("be positive", lambda v: v > 0)
_NON_NEGATIVE = ("be non-negative", lambda v: v >= 0)
_NON_ZERO = ("be non-zero", lambda v: v != 0)
_AT_LEAST_2X2 = ("be at least 2x2", lambda v: v >= 2)


def _at_least(n: int):
    return f"be >= {n}", lambda v: v >= n


def _within(lo: float, hi: float):
    return f"lie in ({lo}, {hi}]", lambda v: lo < v <= hi


# The ranges guard plan_poses, the board noise draws and the gate's board corners.
@dataclass(frozen=True)
class CalibrationConfig:
    count: Annotated[int, _at_least(3)] = 10
    tilt_range_deg: Annotated[float, _within(0, 60)] = 22.0
    # Board-pose observation noise, the level a sub-pixel corner fit on a
    # close-range board delivers.  Rotation noise dominates the solve error
    # through the camera-to-board lever arm, so it is kept tight.
    board_noise_rot_deg: Annotated[float, _NON_NEGATIVE] = 0.01
    board_noise_mm: Annotated[float, _NON_NEGATIVE] = 0.03
    board_half_extents_mm: Annotated[tuple[float, float], _POSITIVE] = (40.0, 30.0)
    resolution: Annotated[tuple[int, int], _AT_LEAST_2X2] = (256, 192)


@dataclass(frozen=True)
class ExecutionConfig:
    probe_count: Annotated[int, _at_least(2)] = 12
    fit_count: int = 8
    # A negative span mirrors the probes; a span of 0 leaves the fusion fit no spread.
    lateral_span_mm: Annotated[float, _NON_ZERO] = 60.0
    lift_span_mm: Annotated[float, _NON_ZERO] = 30.0


@dataclass(frozen=True)
class BreathingConfig:
    duration_s: Annotated[float, _POSITIVE] = 16.0
    frame_rate_hz: Annotated[float, _POSITIVE] = 8.0
    amplitude_mm: Annotated[float, _POSITIVE] = 3.0
    period_s: Annotated[float, _POSITIVE] = 4.0
    resolution: Annotated[tuple[int, int], _AT_LEAST_2X2] = (160, 120)
    amplitude_tol_mm: Annotated[float, _POSITIVE] = 0.8
    min_hold_s: Annotated[float, _POSITIVE] = 2.0
    alarm_threshold_mm: Annotated[float, _POSITIVE] = 2.0


@dataclass(frozen=True)
class SweepConfig:
    enabled: bool = True
    resolution: Annotated[tuple[int, int], _AT_LEAST_2X2] = (240, 180)
    patch_fraction: Annotated[float, _within(0, 1)] = 0.25


@dataclass(frozen=True)
class Scenario:
    """Complete, self-describing configuration of one synthetic run.

    ``hand_eye_true`` and ``phantom_in_base`` belong to the synthesizer side
    of the world; the estimation pipeline never reads them except to render
    clouds and to score results against ground truth.  ``include_marker``
    controls the surgical-scene stages only; the calibration stage always
    has its target in view.
    """

    master_seed: int
    out_dir: str = "runs/default"
    noise_scale: Annotated[float, _NON_NEGATIVE] = 1.0
    include_marker: bool = True
    scene_frames: Annotated[int, _at_least(1)] = 4
    camera: CameraModel = field(default_factory=CameraModel)
    phantom: TorsoPhantom = field(default_factory=TorsoPhantom)
    marker: RingMarker = field(default_factory=RingMarker)
    phantom_in_base: RigidTransform = field(
        default_factory=lambda: RigidTransform.translation(-450.0, -340.0, -70.0))
    hand_eye_true: RigidTransform = field(
        default_factory=lambda: RigidTransform.from_axis_angle(
            (0.2, -0.3, 0.9), 8.0, translation=(42.0, -18.5, 96.0)))
    robot_script: tuple[RigidTransform, ...] = ()
    observation_box: Aabb | None = None
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    breathing: BreathingConfig = field(default_factory=BreathingConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        # Name the first field, in declaration order, outside its declared range.
        for prefix in ("", "calibration.", "execution.", "breathing.", "sweep."):
            config = getattr(self, prefix[:-1]) if prefix else self
            for name, hint in get_type_hints(type(config), include_extras=True).items():
                value = getattr(config, name)
                for words, holds in getattr(hint, "__metadata__", ()):
                    if not all(map(holds, value if isinstance(value, tuple) else (value,))):
                        raise ConfigError(f"{prefix}{name} must {words}")
        if not (1 <= self.execution.fit_count < self.execution.probe_count):
            raise ConfigError("execution.fit_count must leave validation probes")
        # The breathing stage renders round(duration_s * frame_rate_hz)
        # frames, and estimate_period needs 4 samples.
        frames = self.breathing.duration_s * self.breathing.frame_rate_hz
        if not (math.isfinite(frames) and int(round(frames)) >= 4):
            raise ConfigError("breathing.duration_s must span a finite count of at least 4 frames")
        if self.camera.mount_pose.to_json_dict() != RigidTransform.identity().to_json_dict():
            raise ConfigError("camera.mount_pose must be the identity; the stages place the camera")
        script = tuple(self.robot_script) or (self._default_scene_flange(),)
        object.__setattr__(self, "robot_script", script)
        if self.observation_box is None:
            object.__setattr__(self, "observation_box", Aabb.from_center_extents(
                self.marker_top_in_base(0.0), (90.0, 90.0, 24.0)))

    # -- synthesizer-side helpers ------------------------------------------

    def marker_top_in_base(self, t: float) -> np.ndarray:
        top_phantom = marker_top_center_world(self.phantom, self.marker, t)
        return self.phantom_in_base.apply(top_phantom)

    def _default_scene_flange(self) -> RigidTransform:
        """Camera parked 400 mm straight above the marker, looking down."""
        x, y, z = self.marker_top_in_base(0.0)
        cam_in_base = RigidTransform.from_axis_angle(
            (1.0, 0.0, 0.0), 180.0, translation=(x, y, z + 400.0))
        return cam_in_base.compose(self.hand_eye_true.invert())

    def camera_in_phantom(self, flange_in_base: RigidTransform) -> RigidTransform:
        cam_in_base = flange_in_base.compose(self.hand_eye_true)
        return self.phantom_in_base.invert().compose(cam_in_base)

    def script_pose(self, j: int) -> RigidTransform:
        """Scene frame j's flange pose: walk the script, park at its last entry."""
        return self.robot_script[min(j, len(self.robot_script) - 1)]

    # -- rendering ----------------------------------------------------------

    @contextmanager
    def render(self, label: str, mount: RigidTransform, *, marker: bool,
               t: float = 0.0, resolution: tuple[int, int] | None = None,
               phantom: TorsoPhantom | None = None,
               window: tuple[np.ndarray, float] | None = None):
        """Render the frame named ``label`` and yield its cloud.

        The camera sits at ``mount`` in the phantom frame.  ``marker`` says
        whether the scenario's marker is in the scene; ``resolution`` and
        ``phantom`` default to the scenario's own.  ``window`` is passed to
        ``render_cloud``, which then yields only the frame's points in that
        camera-frame sphere.  The frame's seed is
        ``stage_seed(master_seed, label)``.  An exception raised by the
        render or inside the ``with`` block (the frame's detection) is
        tagged with the label and seed, which ``run_scenario`` copies into
        the error dict, so the one frame can be rendered again alone.
        """
        seed = stage_seed(self.master_seed, label)
        cam = replace(self.camera, mount_pose=mount,
                      resolution=resolution or self.camera.resolution)
        try:
            yield render_cloud(phantom or self.phantom,
                               self.marker if marker else None, cam, t=t,
                               seed=seed, noise_scale=self.noise_scale, window=window)
        except Exception as exc:
            exc.replay_frame = (label, seed)
            raise

    def render_scene_frame(self, j: int, window: tuple[np.ndarray, float] | None = None):
        """``render`` of scripted scene frame j, as the scene stage sees it."""
        return self.render(f"scene:frame:{j}",
                           self.camera_in_phantom(self.script_pose(j)),
                           marker=self.include_marker, t=j / self.camera.frame_rate,
                           window=window)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ConfigError("scenario document must be a JSON object")
        if "master_seed" not in doc:
            raise ConfigError("scenario must state master_seed explicitly")
        try:
            return _dataclass_from_json(cls, doc, "")
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario document: {exc}") from exc


def _to_json(value):
    """JSON form of a config value: its ``to_json_dict`` where it has one,
    a dict of its fields for the other dataclasses, a list for a tuple.
    A value with no JSON form is a TypeError."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str, dict)):
        return value
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# The JSON values a scalar field takes, and how an error names them.  A
# bool is never a number here, and an int field takes only integral numbers.
_SCALARS = {bool: ((bool,), "a boolean"), int: ((int, float), "an integral number"),
            float: ((int, float), "a number"), str: ((str,), "a string")}

# Keys that files written by older versions carry for settings since
# removed; loading ignores them.
_RETIRED_KEYS = {CameraModel: {"optical_blur_px"}}


def _from_json(hint, value, where: str):
    """Inverse of ``_to_json`` for a field annotated ``hint``, which ``where``
    names in errors.  ``from_json_dict`` where the type has one; a scalar
    must already have its field's JSON type, a float a finite one.  ``null``
    reads as None for a field whose type admits None, and an error for any
    other."""
    if get_origin(hint) in (Union, UnionType):  # a union's first type is its JSON form
        if value is None and type(None) in get_args(hint):
            return None
        hint = get_args(hint)[0]
    if value is None:
        raise ConfigError(f"{where} must not be null")
    if get_origin(hint) is tuple:
        args = get_args(hint)
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where} must hold {len(args)} values")
        return tuple(_from_json(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    if hasattr(hint, "from_json_dict"):
        try:
            return hint.from_json_dict(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if is_dataclass(hint) or hint is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object")
        return value if hint is dict else _dataclass_from_json(hint, value, where)
    accepted, name = _SCALARS[hint]
    if (not isinstance(value, accepted) or isinstance(value, bool) != (hint is bool)
            or (hint is int and isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{where} must be {name}, not {value!r}")
    return finite_float(value, where, ConfigError) if hint is float else hint(value)


def _dataclass_from_json(cls, doc: dict, where: str):
    """``cls`` built from the keys ``doc`` states; the others keep their
    defaults.  A key that names no field is a ConfigError, unless it is
    one of ``cls``'s retired keys."""
    hints = get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    unknown = set(doc) - set(names) - _RETIRED_KEYS.get(cls, set())
    if unknown:
        raise ConfigError(f"unknown {where or 'scenario'} keys: {sorted(unknown)}")
    return cls(**{name: _from_json(hints[name], doc[name],
                                   f"{where}.{name}" if where else name)
                  for name in names if name in doc})


def default_scenario(out_dir: str = "runs/default",
                     master_seed: int = 20260817) -> Scenario:
    """The bundled demonstration scenario: marker on a flat torso phantom."""
    return Scenario(
        master_seed=master_seed,
        out_dir=out_dir,
        marker=RingMarker(pose_on_surface=RigidTransform.translation(3.4, 3.4, 0.0)),
    )


def _read_json(path, what: str):
    """The JSON document at ``path``; ``what`` names the file in errors."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_scenario(path) -> Scenario:
    return Scenario.from_json_dict(_read_json(path, "scenario file"))


# ---------------------------------------------------------------------------
# Report


@dataclass
class RunReport:
    """Everything one scenario run produced.

    ``timings`` is wall-clock and therefore excluded from the JSON form;
    it is written to a separate timing.csv so report.json stays bit-exact
    under re-runs of the same config.
    """

    version: str
    config: dict
    stages: dict
    verdict: str
    error: dict | None = None
    timings: list[tuple[str, float]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "verdict": self.verdict,
            "error": self.error,
            "config": self.config,
            "stages": self.stages,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        report_path.write_text(self.to_json())
        if self.timings:
            (out / "timing.csv").write_text(emit_table(self, "timing"))
        return report_path


# ---------------------------------------------------------------------------
# Stage implementations


def _small_random_transform(rng: np.random.Generator, rot_sigma_deg: float,
                            trans_sigma_mm: float) -> RigidTransform:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = float(rng.normal(0.0, rot_sigma_deg))
    shift = rng.normal(0.0, trans_sigma_mm, 3)
    return RigidTransform.from_axis_angle(axis, angle, translation=shift)


def _mean_transform(transforms: Sequence[RigidTransform]) -> RigidTransform:
    """Average of nearby poses: sign-aligned quaternion mean plus mean translation."""
    q0 = transforms[0].q
    qs = []
    for tr in transforms:
        q = tr.q
        qs.append(-q if float(q @ q0) < 0.0 else q)
    q_mean = np.mean(qs, axis=0)
    q_mean /= np.linalg.norm(q_mean)
    t_mean = np.mean([tr.t for tr in transforms], axis=0)
    return RigidTransform(q=q_mean, t=t_mean)


def _project_px(camera: CameraModel, points_cam: np.ndarray) -> np.ndarray:
    """Pixel coordinates of camera-frame points via the pixel-size column."""
    pts = np.atleast_2d(points_cam)
    px = np.asarray(camera.pixel_size(pts[:, 2]))
    nx, ny = camera.resolution
    u = pts[:, 0] / px + nx / 2.0
    v = pts[:, 1] / px + ny / 2.0
    return np.column_stack([u, v])


def _stage_plan(sc: Scenario) -> dict:
    nominal = sc.hand_eye_true
    poses = plan_poses(sc.observation_box, sc.calibration.count,
                       sc.calibration.tilt_range_deg, camera=sc.camera,
                       nominal_camera_in_flange=nominal)
    center = sc.observation_box.center
    standoffs = []
    for p in poses:
        cam = p.compose(sc.hand_eye_true)
        standoffs.append(float(np.linalg.norm(cam.invert().apply(center))))
    axes = []
    for a, b in zip(poses, poses[1:]):
        motion = a.invert().compose(b)
        axes.append(motion.rotation_axis())
    min_sep = min(
        (line_angle_deg(axes[i], axes[j])
         for i in range(len(axes)) for j in range(i + 1, len(axes))),
        default=90.0)
    return {
        "poses": poses,
        "camera_in_flange": nominal,
        "summary": {
            "pose_count": len(poses),
            "standoff_min_mm": min(standoffs),
            "standoff_max_mm": max(standoffs),
            "min_consecutive_axis_separation_deg": min_sep,
        },
    }


def _stage_calibration(sc: Scenario, flange_poses: list[RigidTransform],
                       camera_in_flange: RigidTransform, out: Path) -> dict:
    """Hand-eye samples from synthetic board observations at the planned poses.

    The solve uses only the board poses, with noise drawn from the
    "calibration" seed.  Each pose is also rendered at the calibration
    resolution, with the marker in view whatever ``include_marker`` says,
    and the ring detected then tracked from view to view through the
    commanded camera motion: view i's camera is ``flange_i`` composed with
    ``camera_in_flange``, the nominal camera-in-flange the plan used.  Those
    detections are the run's detection check on tilted views; they feed
    ``ring_visible_in_all_views``, ``ring_center_error_*`` and
    ``track_fallbacks``, and not the solve.
    """
    cam_base = replace(sc.camera, resolution=sc.calibration.resolution)
    mounts = [sc.camera_in_phantom(flange) for flange in flange_poses]
    poses, fallbacks = _detect_then_track(
        [partial(sc.render, f"calibration:render:{i}", mount, marker=True,
                 resolution=sc.calibration.resolution) for i, mount in enumerate(mounts)],
        [flange.compose(camera_in_flange) for flange in flange_poses],
        sc.marker, out / "cloud_calib_0000.ply")
    top = marker_top_center_world(sc.phantom, sc.marker, 0.0)
    center_errors = [float(np.linalg.norm(pose.center.as_array() - mount.invert().apply(top)))
                     for pose, mount in zip(poses, mounts)]
    rim_in_view = [marker_rim_in_view(replace(cam_base, mount_pose=mount),
                                      sc.phantom, sc.marker, 0.0) for mount in mounts]

    rng = np.random.default_rng(stage_seed(sc.master_seed, "calibration"))
    board_in_base = RigidTransform.translation(*sc.marker_top_in_base(0.0))
    samples = []
    boards_obs = []
    for flange in flange_poses:
        cam_in_base = flange.compose(sc.hand_eye_true)
        board_in_cam_true = cam_in_base.invert().compose(board_in_base)
        wobble = _small_random_transform(rng, sc.calibration.board_noise_rot_deg,
                                         sc.calibration.board_noise_mm)
        board_in_cam_obs = board_in_cam_true.compose(wobble)
        boards_obs.append(board_in_cam_obs)
        samples.append(sample_from_board_observation(flange, board_in_cam_obs))

    return {
        "poses": poses,
        "samples": samples,
        "boards_obs": boards_obs,
        "summary": {
            "sample_count": len(samples),
            "track_fallbacks": fallbacks,
            "ring_visible_in_all_views": all(rim_in_view),
            "ring_center_error_median_mm": float(np.median(center_errors)),
            "ring_center_error_max_mm": float(np.max(center_errors)),
        },
    }


def _stage_solve(sc: Scenario, samples) -> dict:
    result = solve_ax_xb(samples)
    vs_truth = pose_error(result.camera_in_flange, sc.hand_eye_true)
    summary = _to_json(result)
    summary["rotation_error_vs_truth_deg"] = vs_truth.rotation_error_deg
    summary["translation_error_vs_truth_mm"] = vs_truth.translation_error_mm
    return {"hand_eye": result.camera_in_flange, "summary": summary}


def _stage_gate(sc: Scenario, flange_poses, boards_obs, hand_eye_hat) -> dict:
    w, h = sc.calibration.board_half_extents_mm
    corners_local = np.array([[-w, -h, 0.0], [w, -h, 0.0],
                              [w, h, 0.0], [-w, h, 0.0]])
    cam_px = replace(sc.camera, resolution=sc.calibration.resolution)

    board_in_base_each = [
        flange.compose(hand_eye_hat).compose(obs)
        for flange, obs in zip(flange_poses, boards_obs)
    ]
    consensus = _mean_transform(board_in_base_each)

    observed = []
    predicted = []
    for flange, obs in zip(flange_poses, boards_obs):
        cam_pose_hat = flange.compose(hand_eye_hat)
        observed.append(_project_px(cam_px, obs.apply(corners_local)))
        predicted.append(_project_px(
            cam_px, cam_pose_hat.invert().apply(consensus.apply(corners_local))))
    stats = reprojection_error(np.vstack(observed), np.vstack(predicted))
    passed = stats.passes_gate()
    return {
        "passed": passed,
        "summary": {
            "mean_px": stats.mean_px,
            "std_px": stats.std_px,
            "max_px": stats.max_px,
            "threshold_px": GATE_THRESHOLD_PX,
            "passed": passed,
        },
    }


def _carried(pose: MarkerPose, before: RigidTransform,
             after: RigidTransform) -> MarkerPose | None:
    """``pose``, seen by a camera at ``before``, as the camera sees it after
    moving to ``after`` (both camera poses in one common frame): carried
    through the motion ``after^-1 before``.  The pose itself when the camera
    did not move; None when the carried pose fails ``MarkerPose`` validation
    (its normal no longer faces the moved camera)."""
    if np.array_equal(before.q, after.q) and np.array_equal(before.t, after.t):
        return pose
    motion = after.invert().compose(before)
    try:
        return replace(pose, center=Point3.from_array(motion.apply(pose.center.as_array())),
                       normal=motion.rotate(pose.normal))
    except ValueError:
        return None


def _detect_then_track(frames, cameras: Sequence[RigidTransform], marker: RingMarker,
                       first_ply: Path | None = None) -> tuple[list[MarkerPose], int]:
    """The marker's pose in each of a sequence of frames, and the count of
    frames that fell back to a full render.

    Each item of ``frames`` is a ``Scenario.render`` call waiting for its
    ``window``, and ``cameras`` holds each frame's camera pose in one common
    frame (the phantom or the robot base).  Frame 0 is rendered whole and
    searched with ``detect_ring`` (its cloud is written to ``first_ply``
    when one is given).  Before every later frame, the pose before it is
    carried through the camera's motion (``_carried``), and the frame gets
    ``track(carried, cloud, marker)``: ``frame(window=...)`` renders only
    the frame's points in ``track``'s window, bit for bit the crop ``track``
    takes, so the crop gives the same pose.  When the carried pose is not
    valid or the crop fails (the window is empty or ``detect_in_crop`` finds
    no single ring in it), the full frame is rendered under the same label
    and seed and searched whole, as ``track`` falls back to do.
    """
    with frames[0]() as cloud:
        if first_ply is not None:
            write_cloud(first_ply, cloud)
        poses = [detect_ring(cloud, marker)]
    fallbacks = 0
    for frame, before, after in zip(frames[1:], cameras, cameras[1:]):
        previous = _carried(poses[-1], before, after)
        pose = None
        if previous is not None:
            try:
                with frame(window=track_window(previous, marker)) as crop:
                    pose = detect_in_crop(crop, marker, previous)
            except EmptyCloudError:
                pass
        if pose is None:
            fallbacks += 1
            with frame() as cloud:
                pose = detect_ring(cloud, marker)
        poses.append(pose)
    return poses, fallbacks


def _stage_scene(sc: Scenario, out: Path) -> dict:
    mounts = [sc.camera_in_phantom(sc.script_pose(j)) for j in range(sc.scene_frames)]
    poses, fallbacks = _detect_then_track(
        [partial(sc.render_scene_frame, j) for j in range(sc.scene_frames)],
        mounts, sc.marker, out / "cloud_scene_0000.ply")
    center_errors = []
    normal_errors = []
    for j, (pose, mount) in enumerate(zip(poses, mounts)):
        phantom_to_cam = mount.invert()
        truth_cam = phantom_to_cam.apply(
            marker_top_center_world(sc.phantom, sc.marker, j / sc.camera.frame_rate))
        center_errors.append(float(np.linalg.norm(pose.center.as_array() - truth_cam)))
        # Ground-truth surface normal points up in the phantom frame; compare
        # as lines because the fitted normal is oriented toward the camera.
        up_cam = phantom_to_cam.rotate(np.array([0.0, 0.0, 1.0]))
        normal_errors.append(line_angle_deg(pose.normal, up_cam))
    return {
        "poses": poses,
        "summary": {
            "frame_count": len(poses),
            "track_fallbacks": fallbacks,
            "center_error_median_mm": float(np.median(center_errors)),
            "center_error_max_mm": float(np.max(center_errors)),
            "normal_error_median_deg": float(np.median(normal_errors)),
        },
    }


def _probe_offsets(cfg: ExecutionConfig) -> list[np.ndarray]:
    golden = math.pi * (3.0 - math.sqrt(5.0))
    offsets = []
    for k in range(cfg.probe_count):
        radius = cfg.lateral_span_mm * ((k % 3) + 1) / 3.0
        angle = k * golden
        lift = cfg.lift_span_mm * (k % 4) / 3.0
        offsets.append(np.array([radius * math.cos(angle),
                                 radius * math.sin(angle), lift]))
    return offsets


def _stage_fusion(sc: Scenario, hand_eye_hat: RigidTransform, out: Path) -> dict:
    """Probe k moves the flange by offset k from the first script pose and
    detects the ring, tracked from probe to probe through the commanded
    camera motion (``flange_k`` composed with ``hand_eye_hat``)."""
    offsets = _probe_offsets(sc.execution)
    flanges = [RigidTransform.translation(*offset).compose(sc.robot_script[0])
               for offset in offsets]
    poses, fallbacks = _detect_then_track(
        [partial(sc.render, f"fusion:probe:{k}", sc.camera_in_phantom(flange),
                 marker=sc.include_marker, t=(sc.scene_frames + k) / sc.camera.frame_rate)
         for k, flange in enumerate(flanges)],
        [flange.compose(hand_eye_hat) for flange in flanges], sc.marker)
    # Row k of each: probe k's target as the camera saw it and as the robot
    # reached it, in the base frame.
    observed = np.array([marker_in_base(hand_eye_hat, flange, pose)[0].as_array() + offset
                         for flange, pose, offset in zip(flanges, poses, offsets)])
    executed = sc.marker_top_in_base(0.0) + np.array(offsets)

    fit = sc.execution.fit_count
    correction = fit_tcp_correction(observed[:fit], executed[:fit])
    write_records(out / "execution.csv", observed, executed)
    val_obs, val_exe = observed[fit:], executed[fit:]
    pre = np.mean(np.abs(val_exe - val_obs), axis=0).tolist()
    post = np.mean(np.abs(val_exe - apply_correction(correction, val_obs)), axis=0).tolist()
    return {
        "poses": poses,
        "summary": {
            "probe_count": len(observed),
            "track_fallbacks": fallbacks,
            "fit_count": fit,
            "validation_count": len(val_obs),
            "correction": _to_json(correction),
            "pre_correction_mean_abs_mm": pre,
            "post_correction_mean_abs_mm": post,
            "records": [{"obs": o, "exec": e}
                        for o, e in zip(observed.tolist(), executed.tolist())],
        },
    }


def _stage_breathing(sc: Scenario, out: Path) -> dict:
    cfg = sc.breathing
    phantom = replace(sc.phantom,
                      breathing_amplitude_mm=cfg.amplitude_mm,
                      breathing_period_s=cfg.period_s)
    cam_in_phantom = sc.camera_in_phantom(sc.robot_script[0])
    frame_count = int(round(cfg.duration_s * cfg.frame_rate_hz))

    poses, fallbacks = _detect_then_track(
        [partial(sc.render, f"breathing:frame:{j}", cam_in_phantom,
                 marker=sc.include_marker, t=j / cfg.frame_rate_hz,
                 resolution=cfg.resolution, phantom=phantom)
         for j in range(frame_count)], [cam_in_phantom] * frame_count, sc.marker)

    signal = extract_signal(poses, poses[0].normal)
    resp_mod.write_signal_csv(out / "signal.csv", signal)
    period = estimate_period(signal)
    gates = detect_breath_hold(signal, cfg.amplitude_tol_mm, cfg.min_hold_s)
    alarms = motion_alarm(signal, cfg.alarm_threshold_mm)
    _, values = signal.arrays()
    return {
        "summary": {
            "frame_count": frame_count,
            "track_fallbacks": fallbacks,
            "period_estimate_s": float(period),
            "period_true_s": cfg.period_s,
            "period_error_s": float(period - cfg.period_s),
            "peak_to_peak_mm": float(values.max() - values.min()),
            "gate_count": len(gates),
            "gates": [_to_json(g) for g in gates],
            "alarm_count": len(alarms),
            "alarms": [_to_json(a) for a in alarms],
        },
    }


def _stage_sweep(sc: Scenario) -> dict:
    cfg = sc.sweep
    rows = []
    # The patch covers at least patch_fraction of each axis of the view,
    # rounded out to whole pixels, so every edge lies half a pixel from the
    # nearest ray centres and no ray's hit is decided by rounding.  Half
    # widths are in the normalized grid coordinates of the rays.
    half_u, half_v = (1.0 - 2.0 * math.floor(n * (1.0 - cfg.patch_fraction) / 2.0) / n
                      for n in cfg.resolution)
    for row in sc.camera.fov_table:
        d = row.distance_mm
        d_meas = min(max(d, sc.camera.near_mm + 1.0), sc.camera.far_mm - 2.0)
        fx, fy = sc.camera.field_of_view(d_meas)
        patch = TorsoPhantom(extent=(-fx * half_u / 2.0, fx * half_u / 2.0,
                                     -fy * half_v / 2.0, fy * half_v / 2.0))
        mount = RigidTransform.from_axis_angle((1.0, 0.0, 0.0), 180.0,
                                               translation=(0.0, 0.0, d_meas))
        with sc.render(f"sweep:{d}", mount, marker=False,
                       resolution=cfg.resolution, phantom=patch) as cloud:
            z = cloud.points[:, 2]
        rows.append({
            "distance_mm": d,
            "measured_at_mm": d_meas,
            "fov_x_mm": row.fov_x_mm,
            "fov_y_mm": row.fov_y_mm,
            "pixel_size_mm": row.pixel_size_mm,
            "sigma_z_table_mm": row.sigma_z_mm,
            "sigma_z_measured_mm": float(np.std(z - np.mean(z))),
            "point_count": int(len(cloud)),
        })
    return {"summary": {"rows": rows}}


# ---------------------------------------------------------------------------
# Runner

STAGE_ORDER = ("plan", "calibration", "solve", "gate", "scene", "fusion",
               "breathing", "sweep")


def error_record(stage: str, exc: Exception) -> dict:
    """The report's error for ``exc`` raised in ``stage``: the stage, the
    error type and message, and the frame label and seed that replay the
    frame when its render or detection raised."""
    error = {"stage": stage, "type": type(exc).__name__, "message": str(exc)}
    if hasattr(exc, "replay_frame"):
        error["frame"], error["seed"] = exc.replay_frame
    return error


def run_scenario(scenario: Scenario, *,
                 last_stage: str | None = None) -> RunReport:
    """Execute the stages in order and assemble the report.

    Each stage reads only what earlier stages produced.  A stage exception
    ends the run with verdict FAILED-STAGE:<name>; when a frame's render or
    detection raised, the error also names the frame's seed label and seed.
    A failed reprojection gate ends it with verdict FAILED-GATE, and a
    disabled sweep ends it before the sweep.  The report is always written
    under the scenario's out_dir.  ``last_stage`` truncates the pipeline
    after the named stage (e.g. "gate" runs just the calibration half).
    """
    if last_stage is not None and last_stage not in STAGE_ORDER:
        raise ConfigError(f"unknown stage {last_stage!r}")
    sc = scenario
    out = Path(sc.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    done: dict = {}
    stage_fns = {
        "plan": lambda: _stage_plan(sc),
        "calibration": lambda: _stage_calibration(sc, done["plan"]["poses"],
                                                  done["plan"]["camera_in_flange"], out),
        "solve": lambda: _stage_solve(sc, done["calibration"]["samples"]),
        "gate": lambda: _stage_gate(sc, done["plan"]["poses"],
                                    done["calibration"]["boards_obs"],
                                    done["solve"]["hand_eye"]),
        "scene": lambda: _stage_scene(sc, out),
        "fusion": lambda: _stage_fusion(sc, done["solve"]["hand_eye"], out),
        "breathing": lambda: _stage_breathing(sc, out),
        "sweep": lambda: _stage_sweep(sc),
    }
    timings: list[tuple[str, float]] = []
    verdict, error = "PASSED", None
    end = None if last_stage is None else STAGE_ORDER.index(last_stage) + 1
    for name in STAGE_ORDER[:end]:
        if name == "sweep" and not sc.sweep.enabled:
            break
        start = time.perf_counter()
        try:
            done[name] = stage_fns[name]()
        except Exception as exc:
            verdict, error = f"FAILED-STAGE:{name}", error_record(name, exc)
            break
        finally:
            timings.append((name, time.perf_counter() - start))
        if name == "gate" and not done[name]["passed"]:
            verdict = "FAILED-GATE"
            break

    report = RunReport(
        version=VERSION,
        config=sc.to_json_dict(),
        stages={name: result["summary"] for name, result in done.items()},
        verdict=verdict,
        error=error,
        timings=timings,
    )
    report.write(out)
    return report


def simulate_clouds(scenario: Scenario) -> list[Path]:
    """Render the scripted scene frames and write one PLY file per frame
    under the scenario's out_dir.

    Frame j is the scene stage's frame j, so frame 0 matches the cloud a
    full run writes as cloud_scene_0000.ply.
    """
    out = Path(scenario.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for j in range(scenario.scene_frames):
        with scenario.render_scene_frame(j) as cloud:
            paths.append(write_cloud(out / f"cloud_scene_{j:04d}.ply", cloud))
    return paths


def breathing_summary(scenario: Scenario) -> dict:
    """Run only the breathing stage; writes signal.csv under the scenario's
    out_dir and returns the summary."""
    out = Path(scenario.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _stage_breathing(scenario, out)["summary"]


def load_report(path) -> RunReport:
    """Read a report.json back (plus timing.csv when present beside it)."""
    doc = _read_json(path, "report")
    if not isinstance(doc, dict):
        raise ConfigError("report must be a JSON object")
    try:
        report = RunReport(
            version=doc["version"],
            config=doc["config"],
            stages=doc["stages"],
            verdict=doc["verdict"],
            error=doc.get("error"),
        )
    except KeyError as exc:
        raise ConfigError(f"report is missing key {exc}") from exc
    for key in ("config", "stages"):
        if not isinstance(getattr(report, key), dict):
            raise ConfigError(f"report {key} must be a JSON object")
    timing_path = Path(path).parent / "timing.csv"
    if timing_path.exists():
        with open(timing_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            try:
                report.timings = [(name, float(seconds)) for name, seconds in
                                  filter(None, reader)]
            except ValueError as exc:
                raise ConfigError(f"{timing_path} rows must be stage,seconds: "
                                  f"{exc}") from exc
    return report


# ---------------------------------------------------------------------------
# Tables

TABLE_IDS = ("accuracy-vs-distance", "execution-error", "timing")
# The accuracy-vs-distance header, and the sweep row keys in column order.
_SWEEP_COLUMNS = ("distance_mm", "fov_x_mm", "fov_y_mm", "pixel_size_mm", "sigma_z_table_mm",
                  "sigma_z_measured_mm", "measured_at_mm", "point_count")


def emit_table(report: RunReport, table_id: str) -> str:
    """Render one report section as CSV text.  A section of the wrong shape
    (a row that is not an object of the table's keys, a value of the wrong
    type) is a ConfigError, as a malformed report is."""
    if table_id not in TABLE_IDS:
        raise ValueError(f"unknown table id: {table_id!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # terminal-friendly output
    try:
        _write_table(writer, report, table_id)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"report has a malformed {table_id} section: "
                          f"{type(exc).__name__}: {exc}") from exc
    return buf.getvalue()


def _write_table(writer, report: RunReport, table_id: str) -> None:
    if table_id == "accuracy-vs-distance":
        sweep = report.stages.get("sweep")
        if not sweep or "rows" not in sweep:
            raise MissingSectionError("report has no sweep section")
        writer.writerow(_SWEEP_COLUMNS)
        for row in sweep["rows"]:
            writer.writerow([f"{row[c]:.6f}" if c == "sigma_z_measured_mm" else row[c]
                             for c in _SWEEP_COLUMNS])
    elif table_id == "execution-error":
        fusion = report.stages.get("fusion")
        if not fusion or "records" not in fusion:
            raise MissingSectionError("report has no execution records")
        writer.writerow(["obs_x", "obs_y", "obs_z", "exec_x", "exec_y", "exec_z",
                         "diff_x", "diff_y", "diff_z"])
        for rec in fusion["records"]:
            obs = rec["obs"]
            exe = rec["exec"]
            diff = [e - o for o, e in zip(obs, exe)]
            writer.writerow([f"{v:.6f}" for v in (*obs, *exe, *diff)])
    else:
        if not report.timings:
            raise MissingSectionError("report has no timing data")
        writer.writerow(["stage", "seconds"])
        for name, seconds in report.timings:
            writer.writerow([name, f"{seconds:.6f}"])

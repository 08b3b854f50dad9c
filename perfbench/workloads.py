"""The four benchmark workloads.

Each workload has ``setup(seed)`` (input generation, timed as set-up),
``run_round(inputs)`` (the timed work, which times itself and returns its
outputs; with ``warm_up`` set, one untimed round runs first) and
``check(inputs, outputs)`` (a list of failed checks, empty when every
output agrees with the reference values in ``truth``).  The package is
called only through module attributes, so the traced run sees every call.
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

import truth
from specklenav import camera, detect, fusion, handeye, harness, respiration, scene
from specklenav.geometry import Aabb, Point3, RigidTransform

# Where default_run writes its scenario output and report digests, relative
# to the checkout.
OUT_DIR = Path(".bench_out")
SHA_STORE = OUT_DIR / "report_sha256.json"
# The bundled scenario's true camera-in-flange transform.
HAND_EYE = truth.homogeneous(truth.axis_angle((0.2, -0.3, 0.9), 8.0), (42.0, -18.5, 96.0))


def _rng(seed: int, stream: int) -> np.random.Generator:
    """The workload's own generator; any integer seed, negative ones too."""
    return np.random.default_rng([seed % 2**64, stream])


def _transform(m: np.ndarray) -> RigidTransform:
    return RigidTransform.from_matrix(m[:3, :3], m[:3, 3])


def _matrix(tr: RigidTransform) -> np.ndarray:
    return truth.from_transform_dict(tr.to_json_dict())


# ---------------------------------------------------------------------------
# default_run


class DefaultRun:
    """One run_scenario of the bundled default scenario into a fresh directory."""

    name = "default_run"
    wall_name = "run_s"
    # A warm-up round would double the run; the first-call costs it would
    # hide are a few milliseconds of a 25 s run.
    warm_up = False
    # Bounds on report values, all independent of the seed.
    POST_CORRECTION_MM = 0.563
    HAND_EYE_ROT_DEG = 0.05
    HAND_EYE_TRANS_MM = 0.5
    PERIOD_SHARE = 0.02
    PEAK_TO_PEAK_SHARE = 0.10
    SIGMA_FACTOR = 1.25
    # run_s minus the summed stage times may cover only mkdir and the report
    # write: at most this share of run_s plus a fixed allowance.
    TIMING_SHARE, TIMING_SLACK_S = 0.02, 0.25

    def setup(self, seed: int):
        out = OUT_DIR / self.name / f"seed-{seed}"
        return harness.default_scenario(out_dir=out.as_posix(), master_seed=seed)

    def run_round(self, sc):
        out = Path(sc.out_dir)
        shutil.rmtree(out, ignore_errors=True)
        start = time.perf_counter()
        report = harness.run_scenario(sc)
        wall = time.perf_counter() - start
        failed = len(harness.STAGE_ORDER) - len(report.stages)
        return {"wall_s": wall, "attempted": len(harness.STAGE_ORDER),
                "failed": failed, "figures": {},
                "report": report,
                "report_sha256": hashlib.sha256(
                    (out / "report.json").read_bytes()).hexdigest(),
                "stage_s": _read_timing(out / "timing.csv")}

    def check(self, sc, out) -> list[str]:
        problems = []
        report = out["report"]
        st = report.stages
        if report.verdict != "PASSED":
            return [f"verdict {report.verdict} {report.error}"]
        post = st["fusion"]["post_correction_mean_abs_mm"]
        if max(post) > self.POST_CORRECTION_MM:
            problems.append(f"post-correction error {post} mm")
        got = truth.from_transform_dict(st["solve"]["camera_in_flange"])
        want = HAND_EYE
        if not np.allclose(truth.from_transform_dict(report.config["hand_eye_true"]),
                           want, atol=1e-12):
            problems.append("scenario hand-eye transform is not the bundled one")
        rot = truth.rotation_gap_deg(got[:3, :3], want[:3, :3])
        trans = float(np.linalg.norm(got[:3, 3] - want[:3, 3]))
        if rot > self.HAND_EYE_ROT_DEG or trans > self.HAND_EYE_TRANS_MM:
            problems.append(f"hand-eye off truth by {rot:.4f} deg, {trans:.4f} mm")
        period = st["breathing"]["period_estimate_s"]
        if abs(period - sc.breathing.period_s) > self.PERIOD_SHARE * sc.breathing.period_s:
            problems.append(f"breathing period {period} s")
        p2p = st["breathing"]["peak_to_peak_mm"]
        twice = 2.0 * sc.breathing.amplitude_mm
        if abs(p2p - twice) > self.PEAK_TO_PEAK_SHARE * twice:
            problems.append(f"peak-to-peak {p2p} mm, expected about {twice}")
        for row in st["sweep"]["rows"]:
            ratio = row["sigma_z_measured_mm"] / float(
                truth.table_at(row["measured_at_mm"], truth.SIGMA_Z))
            if not 1.0 / self.SIGMA_FACTOR <= ratio <= self.SIGMA_FACTOR:
                problems.append(f"sweep sigma at {row['distance_mm']} mm is "
                                f"{ratio:.3f} x the table")
        staged = sum(out["stage_s"].values())
        if not 0.0 <= out["wall_s"] - staged <= (
                self.TIMING_SHARE * out["wall_s"] + self.TIMING_SLACK_S):
            problems.append(f"timing.csv sums to {staged:.4f} s, run_s "
                            f"{out['wall_s']:.4f} s")
        problems += self._check_sha(sc, out["report_sha256"])
        return problems

    def _check_sha(self, sc, sha: str) -> list[str]:
        """report.json must hash the same on every run of this program and seed."""
        src = Path(harness.__file__).parent
        source = hashlib.sha256(b"".join(
            p.read_bytes() for p in sorted(src.glob("*.py")))).hexdigest()
        key = f"{source[:16]}:{sc.master_seed}"
        store = json.loads(SHA_STORE.read_text()) if SHA_STORE.exists() else {}
        seen = store.setdefault(key, sha)
        SHA_STORE.parent.mkdir(parents=True, exist_ok=True)
        SHA_STORE.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        return [] if seen == sha else [f"report.json sha256 {sha} differs from {seen}"]


def _read_timing(path: Path) -> dict[str, float]:
    rows = path.read_text().splitlines()[1:]
    return {name: float(sec) for name, sec in (r.split(",") for r in rows if r)}


# ---------------------------------------------------------------------------
# detect_stream

DETECT_ERRORS = (detect.NoMarkerFoundError, detect.AmbiguousMarkerError,
                 detect.DegenerateGeometryError)


class DetectStream:
    """Cold detection, then detect-then-track with fusion, on a moving camera."""

    name = "detect_stream"
    warm_up = True
    wall_name = "stream_s"
    FRAMES = 16
    RESOLUTION = (256, 192)
    FRAME_RATE_HZ = 10.0
    EXTENT = (-300.0, 300.0, -200.0, 200.0)  # covers the frustum at 600 mm
    THICKNESS_MM = 2.0
    TILT_JITTER_DEG = 1.5
    # The camera re-aims twice; each move is larger than track's crop
    # radius, so each forces exactly one full-search fallback per pass.
    REAIM_AT = (6, 11)
    REAIM_MM = np.array([[0.0, 0.0], [110.0, 0.0], [0.0, -90.0]])
    MIN_POINTS = 20000
    # Acceptance-2 tolerances on the medians, and a per-frame bound.
    MEDIAN_CENTER_MM, MEDIAN_NORMAL_DEG = 0.3, 0.5
    FRAME_CENTER_MM, FRAME_NORMAL_DEG = 1.0, 2.0

    def setup(self, seed: int):
        rng = _rng(seed, 2)
        amp = rng.uniform(2.0, 4.0)
        period = rng.uniform(3.0, 5.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        mx, my = rng.uniform(-20.0, 20.0, 2)
        phantom = scene.TorsoPhantom(extent=self.EXTENT, breathing_amplitude_mm=amp,
                                     breathing_period_s=period, breathing_phase_rad=phase)
        marker = scene.RingMarker(thickness_mm=self.THICKNESS_MM,
                                  pose_on_surface=RigidTransform.translation(mx, my, 0.0))
        x_mat = HAND_EYE
        standoffs = np.linspace(310.0, 590.0, self.FRAMES) + rng.uniform(-3, 3, self.FRAMES)
        frames = []
        for j, standoff in enumerate(standoffs):
            t = j / self.FRAME_RATE_HZ
            top = np.array([mx, my, amp * math.sin(2.0 * math.pi * t / period + phase)
                            + self.THICKNESS_MM])
            # A smooth sweep keeps the marker inside track's crop; the jitter
            # is small and the only large moves are the scripted re-aims.
            wobble = truth.axis_angle(np.append(rng.normal(size=2), 0.0),
                                      rng.uniform(0.0, self.TILT_JITTER_DEG))
            rot = (wobble @ truth.axis_angle((1.0, 0.0, 0.0), 180.0 + 8.0 * math.sin(
                math.pi * j / (self.FRAMES - 1))) @ truth.axis_angle((0.0, 0.0, 1.0), 2.0 * j))
            aim = top + np.append(self.REAIM_MM[np.searchsorted(self.REAIM_AT, j, "right")]
                                  + rng.uniform(-3.0, 3.0, 2), 0.0)
            cam_mat = truth.homogeneous(rot, aim - standoff * rot[:, 2])
            cam = camera.CameraModel(mount_pose=_transform(cam_mat),
                                     resolution=self.RESOLUTION)
            cloud = scene.render_cloud(phantom, marker, cam, t=t,
                                       seed=int(rng.integers(2**63)))
            frames.append({
                "cloud": cloud,
                "flange": _transform(cam_mat @ np.linalg.inv(x_mat)),
                "top_world": top,
                "top_cam": truth.apply(np.linalg.inv(cam_mat), top)[0],
                "up_cam": rot.T @ np.array([0.0, 0.0, 1.0]),
            })
        return {"frames": frames, "hand_eye": _transform(x_mat)}

    def run_round(self, inputs):
        frames = inputs["frames"]
        start = time.perf_counter()
        cold, latencies, failed = [], [], 0
        for f in frames:
            t0 = time.perf_counter()
            try:
                cold.append(detect.detect_ring(f["cloud"]))
            except DETECT_ERRORS:
                cold.append(None)
                failed += 1
            latencies.append(1e3 * (time.perf_counter() - t0))
        t0 = time.perf_counter()
        guided, previous = [], None
        for f in frames:
            try:
                pose = (detect.detect_ring(f["cloud"]) if previous is None
                        else detect.track(previous, f["cloud"]))
            except DETECT_ERRORS:
                guided.append(None)
                failed += 1
                continue
            fused, _ = fusion.marker_in_base(inputs["hand_eye"], f["flange"], pose)
            guided.append((pose, fused))
            previous = pose
        end = time.perf_counter()
        return {"wall_s": end - start, "attempted": 2 * len(frames), "failed": failed,
                "figures": {"acquire_ms": (latencies, "ms"),
                            "track_fps": ([len(frames) / (end - t0)], "1/s")},
                "cold": cold, "guided": guided}

    def check(self, inputs, out) -> list[str]:
        problems = []
        frames = inputs["frames"]
        small = [len(f["cloud"]) for f in frames if len(f["cloud"]) < self.MIN_POINTS]
        if small:
            problems.append(f"clouds below {self.MIN_POINTS} points: {small}")
        centers, normals = [], []
        for j, f in enumerate(frames):
            guided = out["guided"][j]
            for label, pose in (("cold", out["cold"][j]),
                                ("tracked", guided and guided[0])):
                if pose is None:
                    problems.append(f"frame {j} {label}: missed")
                    continue
                c = float(np.linalg.norm(pose.center.as_array() - f["top_cam"]))
                n = truth.line_gap_deg(pose.normal, f["up_cam"])
                centers.append(c)
                normals.append(n)
                if c > self.FRAME_CENTER_MM or n > self.FRAME_NORMAL_DEG:
                    problems.append(f"frame {j} {label}: centre {c:.3f} mm, "
                                    f"normal {n:.3f} deg")
            if guided:
                fused = float(np.linalg.norm(guided[1].as_array() - f["top_world"]))
                if fused > self.FRAME_CENTER_MM:
                    problems.append(f"frame {j}: fused centre {fused:.3f} mm off")
        if centers and statistics.median(centers) > self.MEDIAN_CENTER_MM:
            problems.append(f"median centre error {statistics.median(centers):.3f} mm")
        if normals and statistics.median(normals) > self.MEDIAN_NORMAL_DEG:
            problems.append(f"median normal error {statistics.median(normals):.3f} deg")
        return problems


# ---------------------------------------------------------------------------
# breath_monitor


class BreathMonitor:
    """Long breathing sessions with scripted holds and motion jolts.

    A hold freezes the breathing phase at a trough and sits a few mm above
    it, so its edges are sharp; a jolt is a short displacement well past the
    alarm threshold that returns before the alarm baseline can follow it.
    Ordinary breathing (at most twice the amplitude from the baseline) and
    hold entries stay below the threshold.
    """

    name = "breath_monitor"
    warm_up = True
    wall_name = "analysis_s"
    SESSIONS = ((8.0, 300.0), (15.0, 300.0), (30.0, 300.0), (30.0, 600.0))  # Hz, s
    EVENT_SLOT_S = 100.0  # one hold and one jolt per slot
    HOLD_TOL_MM, MIN_HOLD_S, ALARM_MM = 0.5, 2.5, 6.0
    JOLT_S = 0.5
    NOISE_MM = 0.03
    PERIOD_SHARE = 0.02

    def setup(self, seed: int):
        rng = _rng(seed, 3)
        return [self._session(rng, rate, duration) for rate, duration in self.SESSIONS]

    def _session(self, rng, rate, duration):
        n = int(round(duration * rate))
        times = np.arange(n) / rate
        period = rng.uniform(3.0, 5.0)
        amp = rng.uniform(1.8, 2.4)
        phase0 = rng.uniform(0.0, 2.0 * math.pi)
        holds, jolts = [], []
        for slot in range(int(duration // self.EVENT_SLOT_S)):
            base = slot * self.EVENT_SLOT_S
            holds.append((base + rng.uniform(10.0, 25.0), rng.uniform(8.0, 14.0),
                          -amp + rng.uniform(2.6, 3.2)))
            jolts.append((base + rng.uniform(55.0, 85.0), rng.uniform(12.0, 14.0)))

        # The breathing clock stands still during a hold; each hold begins
        # at the first trough after its nominal time.
        paused = np.zeros(n)
        spans = []
        for at, length, level in holds:
            clock = at - sum(span[1] for span in spans)
            cycles = clock / period + phase0 / (2.0 * math.pi) - 0.75
            begin = at + (math.ceil(cycles) - cycles) * period
            spans.append((begin, length, level))
            paused[times >= begin + length] += length
        disp = amp * np.sin(2.0 * math.pi * (times - paused) / period + phase0)
        hold_samples = []
        for begin, length, level in spans:
            idx = np.nonzero((times >= begin) & (times < begin + length))[0]
            disp[idx] = level
            hold_samples.append((float(times[idx[0]]), float(times[idx[-1]])))
        jolt_starts = []
        for at, size in jolts:
            idx = np.nonzero((times >= at) & (times < at + self.JOLT_S))[0]
            disp[idx] += size
            jolt_starts.append(float(times[idx[0]]))
        disp += rng.normal(0.0, self.NOISE_MM, n)

        center0 = np.array([12.0, -7.0, 420.0])
        normal = -center0 / np.linalg.norm(center0)
        normal = truth.axis_angle((1.0, 0.0, 0.0), 10.0) @ normal
        poses = [detect.MarkerPose(center=Point3.from_array(center0 + d * normal),
                                   normal=normal, radius_mm=10.0, rms_residual_mm=0.05,
                                   inlier_count=200, timestamp_s=float(t))
                 for t, d in zip(times, disp)]
        return {"rate": rate, "period": period, "poses": poses,
                "holds": hold_samples, "jolts": jolt_starts}

    def run_round(self, sessions):
        results, session_s, failed = [], [], 0
        start = time.perf_counter()
        for s in sessions:
            t0 = time.perf_counter()
            try:
                signal = respiration.extract_signal(s["poses"], s["poses"][0].normal)
                results.append({
                    "period": respiration.estimate_period(signal),
                    "gates": respiration.detect_breath_hold(signal, self.HOLD_TOL_MM,
                                                            self.MIN_HOLD_S),
                    "alarms": respiration.motion_alarm(signal, self.ALARM_MM),
                })
            except (respiration.NoPeriodicityError, respiration.EmptyStreamError):
                results.append(None)
                failed += 1
            session_s.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "attempted": len(sessions), "failed": failed,
                "figures": {"session_s": (session_s, "s")}, "results": results}

    def check(self, sessions, out) -> list[str]:
        problems = []
        for k, (s, r) in enumerate(zip(sessions, out["results"])):
            if r is None:
                problems.append(f"session {k}: analysis raised")
                continue
            one = 1.0 / s["rate"] + 1e-9
            if abs(r["period"] - s["period"]) > self.PERIOD_SHARE * s["period"]:
                problems.append(f"session {k}: period {r['period']:.4f} s, "
                                f"synthesized {s['period']:.4f} s")
            gates = [(g.start_s, g.end_s) for g in r["gates"]]
            if len(gates) != len(s["holds"]) or any(
                    abs(g0 - h0) > one or abs(g1 - h1) > one
                    for (g0, g1), (h0, h1) in zip(gates, s["holds"])):
                problems.append(f"session {k}: gates {gates}, holds {s['holds']}")
            alarms = [a.t_s for a in r["alarms"]]
            if len(alarms) != len(s["jolts"]) or any(
                    abs(a - j) > one for a, j in zip(alarms, s["jolts"])):
                problems.append(f"session {k}: alarms {alarms}, jolts {s['jolts']}")
        return problems


# ---------------------------------------------------------------------------
# calib_solve


class CalibSolve:
    """Plan calibration poses, solve AX = XB and gate the reprojection."""

    name = "calib_solve"
    warm_up = True
    wall_name = "calib_s"
    # (box extents mm, pose count, tilt range deg)
    PROBLEMS = (((90.0, 90.0, 24.0), 10, 22.0),
                ((60.0, 60.0, 20.0), 8, 18.0),
                ((120.0, 80.0, 30.0), 12, 25.0),
                ((80.0, 100.0, 16.0), 8, 20.0))
    NOISY_TRIALS = 10
    # Board-pose noise of the bundled calibration config.
    ROT_NOISE_DEG, TRANS_NOISE_MM = 0.01, 0.03
    # Corners of the 80 x 60 mm calibration board of the bundled config.
    BOARD_CORNERS = np.array([[-40.0, -30.0, 0.0], [40.0, -30.0, 0.0],
                              [40.0, 30.0, 0.0], [-40.0, 30.0, 0.0]])
    RESOLUTION = (256, 192)
    EXACT = 1e-6
    NOISY_MEDIAN_MM = 0.3
    GATE_PX = 0.5

    def setup(self, seed: int):
        rng = _rng(seed, 4)
        problems = []
        for extents, count, tilt in self.PROBLEMS:
            center = np.array([-450.0, -340.0, -68.0]) + rng.uniform(-30.0, 30.0, 3)
            x_mat = truth.homogeneous(
                truth.axis_angle(rng.normal(size=3), rng.uniform(4.0, 12.0)),
                (rng.uniform(30, 50), rng.uniform(-30, -10), rng.uniform(80, 110)))
            noise = [[(rng.normal(size=3), rng.normal(0.0, self.ROT_NOISE_DEG),
                       rng.normal(0.0, self.TRANS_NOISE_MM, 3)) for _ in range(count)]
                     for _ in range(self.NOISY_TRIALS)]
            problems.append({
                "box": Aabb.from_center_extents(center, extents),
                "count": count, "tilt": tilt,
                "x_mat": x_mat, "x": _transform(x_mat),
                "board": RigidTransform.translation(*center),
                "noise": noise,
            })
        return {"problems": problems,
                "camera": camera.CameraModel(resolution=self.RESOLUTION)}

    def run_round(self, inputs):
        results, failed, attempted = [], 0, 0
        start = time.perf_counter()
        for p in inputs["problems"]:
            attempted += 2 + self.NOISY_TRIALS
            try:
                results.append(self._solve(p, inputs["camera"]))
            except (handeye.InfeasibleBoxError, handeye.InsufficientMotionError):
                failed += 2 + self.NOISY_TRIALS
                results.append(None)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "attempted": attempted, "failed": failed,
                "figures": {}, "results": results}

    def _solve(self, p, cam):
        """Plan, solve without and with noise, and gate one problem."""
        poses = handeye.plan_poses(p["box"], p["count"], p["tilt"], camera=cam,
                                   nominal_camera_in_flange=p["x"])
        boards = [f.compose(p["x"]).invert().compose(p["board"]) for f in poses]
        exact = handeye.solve_ax_xb([handeye.sample_from_board_observation(f, b)
                                     for f, b in zip(poses, boards)])
        noisy = []
        for trial in p["noise"]:
            obs = [b.compose(RigidTransform.from_axis_angle(ax, ang, translation=sh))
                   for b, (ax, ang, sh) in zip(boards, trial)]
            hat = handeye.solve_ax_xb(
                [handeye.sample_from_board_observation(f, o)
                 for f, o in zip(poses, obs)]).camera_in_flange
            cams = [f.compose(hat) for f in poses]
            consensus = _chordal_mean([c.compose(o) for c, o in zip(cams, obs)])
            observed = np.vstack([truth.project_px(o.apply(self.BOARD_CORNERS),
                                                   self.RESOLUTION) for o in obs])
            predicted = np.vstack([truth.project_px(
                c.invert().compose(consensus).apply(self.BOARD_CORNERS), self.RESOLUTION)
                for c in cams])
            stats = handeye.reprojection_error(observed, predicted)
            noisy.append({"hat": hat, "stats": stats, "observed": observed,
                          "predicted": predicted})
        return {"poses": poses, "exact": exact, "noisy": noisy}

    def check(self, inputs, out) -> list[str]:
        problems = []
        for k, (p, r) in enumerate(zip(inputs["problems"], out["results"])):
            if r is None:
                problems.append(f"problem {k}: planning or solving raised")
                continue
            corners = p["box"].corners()
            for i, f in enumerate(r["poses"]):
                cam = _matrix(f) @ p["x_mat"]
                if not np.all(truth.in_frustum(truth.apply(np.linalg.inv(cam), corners))):
                    problems.append(f"problem {k} pose {i}: box leaves the frustum")
            got = _matrix(r["exact"].camera_in_flange)
            rot = truth.rotation_gap_deg(got[:3, :3], p["x_mat"][:3, :3])
            trans = float(np.linalg.norm(got[:3, 3] - p["x_mat"][:3, 3]))
            if rot > self.EXACT or trans > self.EXACT:
                problems.append(f"problem {k}: noiseless solve off by {rot:.2e} deg, "
                                f"{trans:.2e} mm")
            errs = [float(np.linalg.norm(_matrix(n["hat"])[:3, 3] - p["x_mat"][:3, 3]))
                    for n in r["noisy"]]
            if statistics.median(errs) >= self.NOISY_MEDIAN_MM:
                problems.append(f"problem {k}: noisy median {statistics.median(errs):.3f} mm")
            for n in r["noisy"]:
                mean = float(np.mean(np.linalg.norm(n["observed"] - n["predicted"], axis=1)))
                if abs(n["stats"].mean_px - mean) > 1e-9 or not mean < self.GATE_PX \
                        or not n["stats"].passes_gate(self.GATE_PX):
                    problems.append(f"problem {k}: gate mean {n['stats'].mean_px} px, "
                                    f"recomputed {mean} px")
        return problems


def _chordal_mean(transforms) -> RigidTransform:
    """Rotation nearest the mean rotation matrix, plus the mean translation."""
    mats = [_matrix(t) for t in transforms]
    u, _, vt = np.linalg.svd(sum(m[:3, :3] for m in mats))
    rot = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt
    return RigidTransform.from_matrix(rot, np.mean([m[:3, 3] for m in mats], axis=0))


WORKLOADS = {w.name: w for w in (DefaultRun, DetectStream, BreathMonitor, CalibSolve)}

"""Command line front end for the scenario pipeline.

Every subcommand accepts --config (scenario JSON; the bundled default
scenario when omitted), --seed (master seed override) and --out (output
directory override).  Exit codes: 0 success, 2 reprojection gate failure,
3 config error (a bad command line, scenario, report or input cloud),
4 stage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from .detect import detect_ring
from .fov import accuracy_estimate, blind_spot_check, observation_rectangle_fit
from .geometry import Point3
from .harness import (
    TABLE_IDS,
    ConfigError,
    RunReport,
    Scenario,
    breathing_summary,
    default_scenario,
    emit_table,
    error_record,
    load_report,
    load_scenario,
    run_scenario,
    simulate_clouds,
)
from .ply import read_cloud

EXIT_OK = 0
EXIT_GATE = 2
EXIT_CONFIG = 3
EXIT_STAGE = 4


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that reports bad command lines as config errors (exit 3)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def _scenario_from_args(args) -> Scenario:
    scenario = load_scenario(args.config) if args.config else default_scenario()
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)
    return scenario


def _exit_for(verdict: str) -> int:
    if verdict == "PASSED":
        return EXIT_OK
    if verdict == "FAILED-GATE":
        return EXIT_GATE
    return EXIT_STAGE


def _write_json(out_dir: str, name: str, doc: dict) -> None:
    """Write ``doc`` to ``out_dir/name`` and print the same text."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text + "\n")
    print(text)


def _print_failure(error: dict) -> None:
    """Print a report's error record as the one stderr line of a failure."""
    at = f" at {error['frame']} seed {error['seed']}" if "frame" in error else ""
    print(f"failed stage: {error['stage']}{at}: {error['type']}: {error['message']}",
          file=sys.stderr)


def _run(args, last_stage: str | None) -> RunReport:
    """Run the pipeline through ``last_stage`` and print its verdict and
    report path, and for a failed stage one stderr line that names the
    stage, the frame label and seed that replay it, and the error."""
    scenario = _scenario_from_args(args)
    report = run_scenario(scenario, last_stage=last_stage)
    print(f"verdict: {report.verdict}")
    print(f"report: {Path(scenario.out_dir) / 'report.json'}")
    if report.error:
        _print_failure(report.error)
    return report


def cmd_run(args) -> int:
    return _exit_for(_run(args, None).verdict)


def cmd_simulate(args) -> int:
    scenario = _scenario_from_args(args)
    paths = simulate_clouds(scenario)
    print(f"wrote {len(paths)} clouds under {Path(scenario.out_dir)}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    report = _run(args, "gate")
    solve = report.stages.get("solve")
    if solve:
        print(json.dumps(solve["camera_in_flange"], sort_keys=True))
    gate = report.stages.get("gate")
    if gate:
        print(f"reprojection mean {gate['mean_px']:.3f} px "
              f"(threshold {gate['threshold_px']} px)")
    return _exit_for(report.verdict)


def cmd_detect(args) -> int:
    scenario = _scenario_from_args(args)
    if args.cloud:
        try:
            cloud = read_cloud(args.cloud)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read cloud: {exc}") from exc
        pose = detect_ring(cloud, scenario.marker)
    else:
        with scenario.render_scene_frame(0) as cloud:
            pose = detect_ring(cloud, scenario.marker)
    _write_json(scenario.out_dir, "detection.json", pose.to_json_dict())
    return EXIT_OK


def cmd_fuse(args) -> int:
    report = _run(args, "fusion")
    fusion = report.stages.get("fusion")
    if fusion:
        print(f"post-correction per-axis mean abs error (mm): "
              f"{[round(v, 4) for v in fusion['post_correction_mean_abs_mm']]}")
    return _exit_for(report.verdict)


def cmd_breathe(args) -> int:
    scenario = _scenario_from_args(args)
    _write_json(scenario.out_dir, "breathing.json", breathing_summary(scenario))
    return EXIT_OK


def cmd_fov(args) -> int:
    scenario = _scenario_from_args(args)
    camera = scenario.camera
    box = scenario.observation_box
    extents = [float(v) for v in box.extents]
    fit = observation_rectangle_fit(camera, extents[0], extents[1])
    camera_in_base = scenario.robot_script[0].compose(scenario.hand_eye_true)
    visibility = blind_spot_check(camera_in_base, camera, [],
                                  Point3.from_array(box.center))
    band = accuracy_estimate(max(extents))
    doc = {
        "working_range_mm": [camera.near_mm, camera.far_mm],
        "fov_at_knots": [
            {"distance_mm": row.distance_mm, "fov_x_mm": row.fov_x_mm,
             "fov_y_mm": row.fov_y_mm}
            for row in camera.fov_table
        ],
        "observation_rectangle_mm": extents[:2],
        "rectangle_fit_distance_mm": fit,
        "box_center_visible": visibility.visible,
        "box_center_visibility_reason": visibility.reason,
        "accuracy_rule_band_mm": {"low": band.low_mm, "high": band.high_mm,
                                  "note": band.note},
    }
    _write_json(scenario.out_dir, "fov.json", doc)
    return EXIT_OK


def cmd_emit_table(args) -> int:
    if args.report:
        report_path = Path(args.report)
    else:
        scenario = _scenario_from_args(args)
        report_path = Path(scenario.out_dir) / "report.json"
    report = load_report(report_path)
    text = emit_table(report, args.table)
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.table}.csv").write_text(text)
    return EXIT_OK


_COMMANDS = (
    ("run", cmd_run, "full pipeline; writes report.json and artifacts"),
    ("simulate", cmd_simulate, "render the scripted scene frames to PLY files"),
    ("calibrate", cmd_calibrate, "plan poses, solve hand-eye, check the reprojection gate"),
    ("detect", cmd_detect, "detect the ring marker in a cloud (rendered or from file)"),
    ("fuse", cmd_fuse, "pipeline through marker fusion and TCP correction"),
    ("breathe", cmd_breathe, "render the breathing sequence and analyze the signal"),
    ("fov", cmd_fov, "coverage and visibility feasibility report"),
    ("emit-table", cmd_emit_table, "render one report section as CSV on stdout"),
)


def _build_parser() -> _ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="scenario JSON document (bundled default when omitted)")
    common.add_argument("--seed", type=_u64, metavar="U64",
                        help="override the scenario master seed")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the scenario's own)")

    parser = _ArgumentParser(
        prog="specklenav",
        description="Synthetic depth-navigation pipeline: simulate, calibrate, "
                    "detect, fuse, breathe, check coverage, or run everything.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text in _COMMANDS:
        sub.add_parser(name, parents=[common], help=text).set_defaults(handler=handler)
    sub.choices["detect"].add_argument(
        "--cloud", metavar="PLY", help="read this cloud instead of rendering scene frame 0")
    sub.choices["emit-table"].add_argument("table", choices=TABLE_IDS)
    sub.choices["emit-table"].add_argument(
        "--report", metavar="FILE", help="report.json to read (default: <out dir>/report.json)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ValueError, OSError) as exc:
        _print_failure(error_record(args.command, exc))
        return EXIT_STAGE


if __name__ == "__main__":
    raise SystemExit(main())

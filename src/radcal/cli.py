"""Command-line interface: synth, calibrate, autolabel, eval.

Exit codes are a stable contract: 0 ok, 2 bad config/params file, 3 IO or
missing input (or a frame worker that died), 4 invalid input data, 5
calibration did not converge (the output file is still written), and
128 + the signal number when interrupted: 130 for Ctrl-C (SIGINT), 143 for
SIGTERM, 129 for SIGHUP.  Set RADCAL_LOG=debug|info|warning for verbosity;
a value that is no logging level name means warning.

Radar frame files carry no pose id of their own; within a directory the
numeric suffix of ``radar_NNN.json`` is the pose id, matching the
``pose_id`` field of the corner files.

Each command imports the modules it runs inside its handler, so a
``calibrate`` process loads no labeling, metrics or scene-generation code.

``autolabel``, ``eval`` and ``synth --kind labeling`` split their frames
into contiguous chunks, one per CPU: the process works through the first
and a child forked from it (after the imports) through each other one.
Outputs, messages and exit codes are those of a one-at-a-time run: the
first failing frame in frame order decides them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import pickle
import re
import signal
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .checkerboard import checkerboard_center
from .geometry import pinhole

logger = logging.getLogger("radcal")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INVALID = 4
EXIT_NOT_CONVERGED = 5
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class ConfigError(Exception):
    """Unreadable or unparsable config/params file."""


class Interrupted(KeyboardInterrupt):
    """SIGTERM or SIGHUP, raised in the main thread so that a command unwinds
    as it does on Ctrl-C; ``args[0]`` is the exit code, 128 + the signal."""


def _interrupt(signum, frame):
    raise Interrupted(128 + signum)


def _load_config_file(path: str | Path) -> dict:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        if path.suffix.lower() == ".toml":
            try:
                import tomllib  # py311+
            except ModuleNotFoundError:
                import tomli as tomllib
            doc = tomllib.loads(raw.decode())
        else:
            doc = json.loads(raw.decode())
    except Exception as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    try:
        return fileio._json_value(dict, doc, str(path))
    except TypeError as exc:  # a JSON document that is not an object
        raise ConfigError(str(exc)) from exc


# params file section -> its dataclass, which the package imports on first
# access
_PARAMS_SECTIONS = {
    "filter": "FilterParams",
    "cluster": "ClusterParams",
    "label": "LabelParams",
    "solver": "SolverConfig",
}


def _params_from_file(path: str | Path | None, needed: set[str]) -> dict:
    """Parse a params file into dataclass instances with defaults filled in.

    Builds the ``needed`` sections and every section the file holds, so a
    bad value is exit 2 whichever command reads the file, while a command
    imports no module for a section it neither needs nor was given.
    """
    doc = _load_config_file(path) if path else {}
    package = sys.modules[__package__]
    wanted = needed | doc.keys()
    sections = {
        name: getattr(package, cls) for name, cls in _PARAMS_SECTIONS.items() if name in wanted
    }
    try:
        params = fileio._fields({**sections, "sync_tolerance_s": float}, doc)
        params.update({name: cls() for name, cls in sections.items() if name not in params})
        if "sync_tolerance_s" in params:
            tolerance = params["sync_tolerance_s"]
            if not 0 <= tolerance < math.inf:  # NaN would turn the sync gate off
                raise ValueError(f"sync_tolerance_s must be finite and >= 0, got {tolerance}")
        elif "sync_tolerance_s" in needed:
            from .calibration import DEFAULT_SYNC_TOLERANCE_S

            params["sync_tolerance_s"] = DEFAULT_SYNC_TOLERANCE_S
        return params
    except fileio._BAD_FIELD as exc:
        raise ConfigError(f"bad parameter file {path}: {exc}") from exc


def _indexed_files(directory: Path, prefix: str) -> list[tuple[int, Path]]:
    """(index, path) for files named <prefix>_<number>.<ext>, sorted by index.

    Two files with one index (``radar_001.json`` and ``radar_001.jsonl``, or
    ``radar_1.json``) are a SchemaError rather than a silent pick.
    """
    pattern = re.compile(rf"^{re.escape(prefix)}_(\d+)\.\w+$")
    out: dict[int, Path] = {}
    for p in sorted(directory.iterdir()):
        m = pattern.match(p.name)
        if m:
            index = int(m.group(1))
            if index in out:
                raise fileio.SchemaError(f"{out[index]} and {p} both have index {index}")
            out[index] = p
    return sorted(out.items())


# ---------------------------------------------------------------------------
# frame workers


def _jobs() -> int:
    """Frame workers to use: one per CPU this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# the signals that unwind a command (see main)
_UNWINDING = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)


def _fork_worker(fn, chunk: list) -> tuple[int, int]:
    """Fork a child that sends ``(results, first exception or None)`` of
    ``fn`` over ``chunk`` back pickled; (its pid, the pipe's read end)."""
    read, write = os.pipe()
    sys.stdout.flush()  # or the child's copy of a buffer would print twice
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    status = 1  # the result could not be sent
    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _UNWINDING)  # blocked by _forked_map
        os.close(read)
        results, error = [], None
        try:
            for item in chunk:
                results.append(fn(item))
        except BaseException as exc:  # the parent raises it in item order
            error = exc
        with open(write, "wb") as pipe:
            pickle.dump((results, error), pipe)
        status = 0
    finally:
        os._exit(status)  # no atexit hook, Outputs.__exit__ or buffer flush here


def _forked_map(fn, items: list, jobs: int) -> list:
    """``[fn(x) for x in items]``, computed over up to ``jobs`` contiguous
    chunks of ``items``: this process runs the first chunk, and a child
    forked from it each other one.

    Raises what the serial loop would, the exception of the first failing
    item in order (each worker stops at its first), or ChildProcessError
    (an OSError: exit 3) for a worker that ends by a signal or a nonzero
    status.  Every child is reaped before this returns or raises.  With one
    chunk, or without ``os.fork``, everything runs in this process.
    """
    jobs = max(1, min(jobs, len(items))) if hasattr(os, "fork") else 1
    bounds = [len(items) * k // jobs for k in range(jobs + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    workers: list[tuple[int, int]] = []  # (pid, pipe read end) per forked chunk
    reaped = 0  # workers[:reaped] have been waited for
    try:
        for chunk in chunks[1:]:
            # held until the worker is recorded, so that the finally kills it
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, _UNWINDING)
            try:
                workers.append(_fork_worker(fn, chunk))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [fn(item) for item in chunks[0]]
        for pid, read in workers:
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code:
                how = f"by signal {-code}" if code < 0 else f"with status {code}"
                raise ChildProcessError(f"a worker process ended {how}")
            chunk_results, error = pickle.loads(data)  # bytes our own child wrote
            if error is not None:
                raise error
            results += chunk_results
        return results
    finally:
        for k, (pid, read) in enumerate(workers):
            os.close(read)
            if k >= reaped:  # its result is not needed now
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# synth


def _cmd_synth(args, outputs: fileio.Outputs) -> int:
    from .synth import FovInfeasible

    try:
        print(_write_scene(args, outputs, outputs.mkdir(args.out)))
    except FovInfeasible as exc:  # the scene config asks for the impossible
        raise ConfigError(str(exc)) from exc
    except MemoryError as exc:  # or for more than memory holds
        source = f" {args.config}" if args.config else ""
        raise ConfigError(f"bad {args.kind} scene config{source}: out of memory") from exc
    return EXIT_OK


def _write_scene(args, outputs: fileio.Outputs, out: Path) -> str:
    """Write the requested scene's files into ``out``; returns a summary."""
    from . import synth

    doc = _load_config_file(args.config) if args.config else {}
    frames = args.frames or 1
    try:
        if args.kind == "calibration":
            cfg = fileio._config(
                synth.SceneConfig, doc, pose_count=args.poses, seed=args.seed,
                pixel_sigma_px=args.pixel_sigma, range_sigma_m=args.range_sigma,
                angle_sigma_rad=args.angle_sigma,
                clutter_only_poses=tuple(int(x) for x in args.clutter_only.split(","))
                if args.clutter_only else None,
            )
        else:
            cfg = fileio._config(
                synth.LabelSceneConfig, doc, object_count=args.objects, seed=args.seed,
                false_positive_rate=args.fp_rate, false_negative_rate=args.fn_rate,
            )
            # SCENE_BUDGET bounds the frames together, before the first is drawn
            synth._check_budget(
                frames * cfg.most_points, f"points in {frames} frames", {"--frames": frames},
            )
    except fileio._BAD_FIELD as exc:
        source = f" {args.config}" if args.config else ""
        raise ConfigError(f"bad {args.kind} scene config{source}: {exc}") from exc

    if args.kind == "calibration":
        scene = synth.gen_calibration_scene(cfg)
        for pose in scene.poses:
            fileio.write_corners(
                outputs.file(out / f"corners_{pose.pose_id:03d}.json"),
                pose.pose_id,
                pose.t_camera_s,
                pose.corner_set,
            )
            fileio.write_radar_frame(
                outputs.file(out / f"radar_{pose.pose_id:03d}.json"), pose.radar_frame
            )
        fileio.write_intrinsics(outputs.file(out / "intrinsics.json"), cfg.intrinsics)
        fileio.write_json(outputs.file(out / "ground_truth.json"), scene.ground_truth())
        return f"calibration scene: {len(scene.poses)} poses, seed {cfg.seed} -> {out}"

    # labeling scene(s): each frame has its own seed, so the workers draw and
    # write them apart
    gt_dir = outputs.mkdir(out / "gt_labels")
    staged = [  # per frame: its radar, masks and true labels files
        (
            outputs.file(out / f"radar_{i:03d}.json"),
            outputs.file(out / f"masks_{i:03d}.json"),
            outputs.file(gt_dir / f"labels_{i:03d}.jsonl"),
        )
        for i in range(frames)
    ]

    def frame(i: int) -> dict:
        scene = synth.gen_label_scene(dataclasses.replace(cfg, seed=cfg.seed + i))
        radar, masks, labels = staged[i]
        fileio.write_radar_points(radar, scene.timestamp_s, scene.points)
        fileio.write_masks(masks, cfg.intrinsics.width, cfg.intrinsics.height, list(scene.masks))
        fileio.write_labels(labels, scene.gt_labels)
        return scene.ground_truth()

    docs = _forked_map(frame, range(frames), _jobs())
    truth = docs[0] if frames == 1 else {"frames": docs}
    fileio.write_json(outputs.file(out / "ground_truth.json"), truth)
    fileio.write_calibration(
        outputs.file(out / "calibration.json"),
        cfg.extrinsics,
        cfg.intrinsics,
        mre_px=0.0,
        rmse_px=0.0,
        converged=True,
        config={"source": "synthetic ground truth"},
    )
    return f"labeling scene: {frames} frame(s), seed {cfg.seed} -> {out}"


# ---------------------------------------------------------------------------
# calibrate


def _radar_frame_inputs(path_str: str) -> list[tuple[int, "object"]]:
    """(pose id, frame) pairs from a directory of radar_NNN.json files or a
    single .jsonl stream (pose ids are then the line indices)."""
    path = Path(path_str)
    if path.is_file() and path.suffix.lower() == ".jsonl":
        return list(enumerate(fileio.load_radar_frames(path)))
    if path.is_dir():
        return [
            (pose_id, fileio.load_radar_frame(p))
            for pose_id, p in _indexed_files(path, "radar")
        ]
    raise FileNotFoundError(f"missing radar input: {path}")


def _pose_entry(pose_id: int, residual, split: str) -> dict:
    """One ``per_pose`` entry; a residual of None marks a pose behind the
    camera, which has no pixel to compare."""
    if residual is None:
        none = dict.fromkeys(("du_px", "dv_px", "error_px"))
        return {"pose_id": pose_id, **none, "split": split, "behind_camera": True}
    return {
        "pose_id": pose_id,
        "du_px": float(residual[0]),
        "dv_px": float(residual[1]),
        "error_px": float(np.hypot(residual[0], residual[1])),
        "split": split,
    }


def _cmd_calibrate(args, outputs: fileio.Outputs) -> int:
    from . import calibration as cal
    from . import reflector

    out = outputs.file(args.out)
    params = _params_from_file(args.params, {"filter", "cluster", "solver", "sync_tolerance_s"})
    corners_dir = Path(args.corners)
    if not corners_dir.is_dir():
        raise FileNotFoundError(f"missing corners directory: {corners_dir}")
    intrinsics = fileio.load_intrinsics(args.intrinsics)

    camera_centers = []
    for _, path in _indexed_files(corners_dir, "corners"):
        pose_id, timestamp, corner_set = fileio.load_corners(path)
        camera_centers.append((pose_id, timestamp, checkerboard_center(corner_set)))

    radar_inputs = _radar_frame_inputs(args.frames)
    radar_centers = []
    skipped = []
    for pose_id, frame in radar_inputs:
        try:
            center = reflector.extract_reflector(
                frame, params["filter"], params["cluster"]
            )
        except reflector.ReflectorNotFound as exc:
            skipped.append(pose_id)
            logger.info("pose %d: %s", pose_id, exc)
            continue
        radar_centers.append((pose_id, frame.timestamp_s, center))
    if skipped:
        print(f"skipped {len(skipped)} pose(s) without a reflector: {skipped}")
    if not camera_centers or not radar_inputs:
        raise FileNotFoundError("no corner or radar files found")
    if len(radar_centers) < 3:
        raise cal.TooFewPoses(
            f"{len(radar_centers)} poses with a usable reflector; need at least 3"
        )

    corrs = cal.build_correspondences(
        camera_centers, radar_centers, params["sync_tolerance_s"]
    )

    split = len(corrs)  # the last poses are held out
    if args.holdout > 0:
        split -= int(round(len(corrs) * args.holdout))
        if split < 3:
            raise cal.TooFewPoses(
                f"holdout {args.holdout} leaves {split} training poses; need 3"
            )
    solve_set = corrs.take(slice(split))

    result = cal.solve_extrinsics(solve_set, intrinsics, params["solver"])

    per_pose = [
        _pose_entry(pose_id, r, "train")
        for pose_id, r in zip(solve_set.pose_id.tolist(), result.residuals)
    ]
    line = f"MRE {result.mre_px:.6g} px  RMSE {result.rmse_px:.6g} px  ({len(solve_set)} poses"
    held_res = []
    behind = []
    for pose_id, observed, point in zip(
        corrs.pose_id[split:].tolist(), corrs.image_center[split:], corrs.radar_center[split:]
    ):
        pixel, front = pinhole(intrinsics, result.extrinsics.transform(point))
        residual = observed - pixel if front[0] else None
        per_pose.append(_pose_entry(pose_id, residual, "holdout"))
        if residual is None:  # reported, but left out of the holdout error
            behind.append(pose_id)
        else:
            held_res.append(residual)
    if held_res:
        held_mre, held_rmse = cal.reprojection_errors(np.array(held_res))
        line += (
            f"; holdout MRE {held_mre:.6g} px RMSE {held_rmse:.6g} px "
            f"over {len(held_res)} poses"
        )
    if behind:
        line += f"; holdout pose(s) behind the camera: {behind}"
    line += ")"

    config_echo = {
        **{name: dataclasses.asdict(params[name]) for name in ("solver", "filter", "cluster")},
        "sync_tolerance_s": params["sync_tolerance_s"],
        "holdout": args.holdout,
        "iterations": result.iterations,
        "seed_index": result.seed_index,
        "dropped_unmatched": list(corrs.dropped_unmatched),
        "dropped_sync": list(corrs.dropped_sync),
        "skipped_no_reflector": skipped,
    }
    fileio.write_calibration(
        out,
        result.extrinsics,
        intrinsics,
        mre_px=result.mre_px,
        rmse_px=result.rmse_px,
        converged=result.converged,
        per_pose=per_pose,
        config=config_echo,
    )
    print(line)
    if not result.converged:
        print("warning: solver did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# autolabel


def _cmd_autolabel(args, outputs: fileio.Outputs) -> int:
    from . import autolabel as al

    params = _params_from_file(args.params, {"label"})
    frames_dir = Path(args.frames)
    masks_dir = Path(args.masks)
    if not frames_dir.is_dir() or not masks_dir.is_dir():
        raise FileNotFoundError(f"missing input directory: {frames_dir} / {masks_dir}")
    extrinsics, intrinsics, _ = fileio.load_calibration(args.calibration)
    out = outputs.mkdir(args.out)

    frames = dict(_indexed_files(frames_dir, "radar"))
    masks = dict(_indexed_files(masks_dir, "masks"))
    shared = sorted(frames.keys() & masks.keys())
    if not shared:
        raise FileNotFoundError("no paired radar/mask files found")

    staged = {i: outputs.file(out / f"labels_{i:03d}.jsonl") for i in shared}

    def label(i: int) -> int:
        _, points = fileio.load_radar_points(frames[i])
        width, height, frame_masks = fileio.load_masks(masks[i])
        if (width, height) != (intrinsics.width, intrinsics.height):
            raise al.DimensionMismatch(
                f"bad mask file {masks[i]}: mask size {width}x{height} != intrinsics "
                f"{intrinsics.width}x{intrinsics.height}"
            )
        labels = al.autolabel_frame(
            points, frame_masks, intrinsics, extrinsics, params["label"], args.stage
        )
        fileio.write_labels(staged[i], labels)
        return int(labels.labeled.sum())

    labeled = sum(_forked_map(label, shared, _jobs()))
    print(f"labeled {len(shared)} frame(s), {labeled} points assigned -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


# the MetricReport fields of eval's pooled report, per_frame entries and table
_SUMMARY = ("pa_percent", "pa_foreground_percent", "miou_percent", "n_matched", "n_points")


def _cmd_eval(args, outputs: fileio.Outputs) -> int:
    from . import metrics
    from .autolabel import Provenance

    out = Path(args.out)
    report_path, table_path = outputs.file(out), outputs.file(out.with_suffix(".txt"))
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    if not pred_dir.is_dir() or not gt_dir.is_dir():
        raise FileNotFoundError(f"missing input directory: {pred_dir} / {gt_dir}")
    pred_files = dict(_indexed_files(pred_dir, "labels"))
    gt_files = dict(_indexed_files(gt_dir, "labels"))
    if not pred_files:
        raise FileNotFoundError(f"no label files in {pred_dir}")
    shared = sorted(pred_files.keys() & gt_files.keys())
    if not shared:
        raise FileNotFoundError("no frame indices shared between pred and gt")
    missing = sorted(gt_files.keys() - pred_files.keys())
    if missing:
        print(f"warning: no prediction for ground-truth frame(s) {missing}", file=sys.stderr)
    unscored = sorted(pred_files.keys() - gt_files.keys())
    if unscored:
        print(f"warning: no ground truth for predicted frame(s) {unscored}", file=sys.stderr)

    summary = []  # printed once every output is staged
    staged = {}  # frame index -> its overlay file, for each frame with a radar file
    if args.overlay_frames is not None:
        extrinsics, intrinsics, _ = fileio.load_calibration(args.overlay_calibration)
        frame_files = dict(_indexed_files(Path(args.overlay_frames), "radar"))
        overlay_dir = outputs.mkdir(args.overlay_dir or (out.parent / "overlay"))
        staged = {
            i: outputs.file(overlay_dir / f"overlay_{i:03d}.json")
            for i in shared
            if i in frame_files
        }
        provenance = np.array([p.value for p in Provenance])  # indexed by LabelColumns codes
        summary.append(f"overlay data -> {overlay_dir}")

    def score(i: int) -> metrics.MetricReport:
        pred = fileio.load_labels(pred_files[i])
        gt = fileio.load_labels(gt_files[i])
        if len(pred) != len(gt):
            raise metrics.LengthMismatch(
                f"frame {i}: {len(pred)} predicted vs {len(gt)} true labels"
            )
        if not len(pred):
            raise metrics.EmptyInput(f"frame {i}: no points to evaluate in {pred_files[i]}")
        report = metrics.label_report(pred, gt)
        if i in staged:  # one entry per point; None where a point has no pixel or label
            _, points = fileio.load_radar_points(frame_files[i])
            if len(points) != len(pred):  # the overlay pairs them by position
                raise ValueError(
                    f"frame {i}: {len(points)} radar points in {frame_files[i]} vs "
                    f"{len(pred)} predicted labels"
                )
            cam = extrinsics.transform(points.xyz)
            uv, front = pinhole(intrinsics, cam)
            columns = {
                "point_index": np.arange(len(cam)),
                "u_px": np.where(front[:, 0], uv[:, 0], None),
                "v_px": np.where(front[:, 0], uv[:, 1], None),
                "depth_m": cam[:, 2],
                "class_id": np.where(pred.labeled, pred.class_id, None),
                "instance_id": np.where(pred.labeled, pred.instance_id, None),
                "provenance": provenance[pred.provenance],
            }
            rows = zip(*(column.tolist() for column in columns.values()))
            fileio.write_json(staged[i], [dict(zip(columns, row)) for row in rows])
        return report

    reports = _forked_map(score, shared, _jobs())  # in shared order
    pooled = metrics.pooled_report(reports)
    report_doc = {
        **{name: getattr(pooled, name) for name in _SUMMARY},
        "n_frames": len(shared),
        "per_frame": [
            {"frame": i, **{name: getattr(r, name) for name in _SUMMARY}}
            for i, r in zip(shared, reports)
        ],
        "per_instance": [
            {
                "frame": i,
                "pred_class_id": m.pred[0],
                "pred_instance_id": m.pred[1],
                "gt_class_id": m.gt[0],
                "gt_instance_id": m.gt[1],
                "iou": m.iou,
            }
            for i, r in zip(shared, reports)
            for m in r.per_instance_iou
        ],
    }
    fileio.write_json(report_path, report_doc)

    rows = [("frame", "PA%", "PA-fg%", "mIoU%", "matched", "points")]
    for name, r in [*zip(shared, reports), ("all", pooled)]:
        values = [getattr(r, field) for field in _SUMMARY]  # percentages are floats
        rows.append((str(name), *(f"{v:.2f}" if isinstance(v, float) else str(v) for v in values)))
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    table_lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
    ]
    table = "\n".join(table_lines)
    fileio.write_text(table_path, table + "\n")
    print("\n".join([table, *summary]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 <= value < 1:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value}")
    return value


# the synth flags that shape one kind of scene: each is an error for the other
_SCENE_FLAGS = {
    "calibration": ("poses", "pixel_sigma", "range_sigma", "angle_sigma", "clutter_only"),
    "labeling": ("objects", "frames", "fp_rate", "fn_rate"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radcal",
        description="4D radar-camera calibration and point auto-labeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic ground-truth scene")
    p.add_argument("--kind", choices=("calibration", "labeling"), required=True)
    p.add_argument("--poses", type=int, default=None, help="calibration pose count")
    p.add_argument("--objects", type=int, default=None, help="labeling object count")
    p.add_argument("--frames", type=_positive_int, help="labeling frame count (default 1)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="TOML or JSON scene config")
    p.add_argument("--pixel-sigma", type=float, default=None)
    p.add_argument("--range-sigma", type=float, default=None)
    p.add_argument("--angle-sigma", type=float, default=None)
    p.add_argument("--fp-rate", type=float, default=None)
    p.add_argument("--fn-rate", type=float, default=None)
    p.add_argument("--clutter-only", default=None, help="comma-separated pose ids")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", help="solve extrinsics from corner + radar files")
    p.add_argument("--corners", required=True, help="directory of corners_*.json")
    p.add_argument("--frames", required=True, help="directory of radar_*.json")
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--params", default=None, help="TOML or JSON parameter file")
    p.add_argument("--holdout", type=_fraction, default=0.0, help="held-out pose fraction")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("autolabel", help="label radar frames from instance masks")
    p.add_argument("--frames", required=True)
    p.add_argument("--masks", required=True)
    p.add_argument("--calibration", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--stage", choices=("coarse", "otpf", "full"), default="full")
    p.add_argument("--jobs", type=_non_negative_int, help="no effect: one frame worker per CPU")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_autolabel)

    p = sub.add_parser("eval", help="score predicted labels against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--overlay-frames", default=None, help="radar frames for overlay")
    p.add_argument("--overlay-calibration", default=None)
    p.add_argument("--overlay-dir", default=None)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    # a level name gives its number; any other value is "Level <value>"
    level = logging.getLevelName(os.environ.get("RADCAL_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        overlay = args.overlay_frames is not None
        if overlay != (args.overlay_calibration is not None) or (
            args.overlay_dir is not None and not overlay
        ):
            parser.error("eval: --overlay-frames and --overlay-calibration go together, "
                         "and --overlay-dir needs both")
    if args.command == "synth":
        other = "labeling" if args.kind == "calibration" else "calibration"
        stated = [dest for dest in _SCENE_FLAGS[other] if getattr(args, dest) is not None]
        if stated:
            flags = ", ".join("--" + dest.replace("_", "-") for dest in stated)
            parser.error(f"synth --kind {args.kind}: {flags} only apply to --kind {other}")
    # SIGTERM and SIGHUP unwind as Ctrl-C does, unless something else already
    # handles or ignores them (nohup ignores SIGHUP)
    caught = [s for s in (signal.SIGTERM, signal.SIGHUP) if signal.getsignal(s) is signal.SIG_DFL]
    for signum in caught:
        signal.signal(signum, _interrupt)
    try:
        with fileio.Outputs() as outputs:
            return args.func(args, outputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # FileNotFoundError and NotADirectoryError too
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # SchemaError and every other input error subclass it
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except KeyboardInterrupt as exc:  # Outputs has removed what the command staged
        print("interrupted", file=sys.stderr)
        return exc.args[0] if isinstance(exc, Interrupted) else EXIT_INTERRUPTED
    finally:
        for signum in caught:
            signal.signal(signum, signal.SIG_DFL)


if __name__ == "__main__":
    sys.exit(main())

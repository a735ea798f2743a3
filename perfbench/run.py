"""radcal benchmark: cold CLI processes on seeded synthetic scenes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (the package is taken from ``src/``).
Set-up synthesises the workload's inputs with ``radcal synth`` in
SETUP_ROUNDS rounds and runs one untimed warm-up op.  The run then executes
ops one at a time, each a fresh ``python -m radcal.cli`` process (a closed
loop with one client), until S seconds are used, and checks every output
against the synthetic oracle.  The last stdout line is one JSON object; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a run whose ops go through ``traced_child.py``.
perfbench/README.md records why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CHILD = Path(__file__).resolve().parent / "traced_child.py"

SETUP_ROUNDS = 3
OP_TIMEOUT_S = 120.0
CAL_POSES = (6, 24, 96)
CAL_NOISE = ["--pixel-sigma", "0.5", "--range-sigma", "0.02", "--angle-sigma", "0.003"]
DENSE_SCENE = {
    "object_count": 20,
    "points_per_object": [150, 250],
    "range_m": [6.0, 60.0],
    "clutter_count": 2000,
    "false_positive_rate": 0.1,
    "false_negative_rate": 0.1,
}
SPARSE_SCENE = {
    "object_count": 5,
    "clutter_count": 30,
    "false_positive_rate": 0.1,
    "false_negative_rate": 0.1,
}
# Calibration oracle tolerances against ground_truth.json, per pose count K:
# (rotation deg, translation mm, MRE px).  Over 450 / 200 / 200 noisy scenes
# at K = 6 / 24 / 96 every solve converged and the worst errors were
# 4.0 deg 444 mm, 0.45 deg 65 mm and 0.27 deg 35 mm, with MRE at most 5.1 px.
# A solve stuck in a wrong symmetry basin is off by tens of degrees.
CAL_TOLERANCE = {6: (10.0, 1200.0, 10.0), 24: (1.5, 200.0, 10.0), 96: (1.0, 100.0, 10.0)}


@dataclass(frozen=True)
class Workload:
    kind: str  # "calibrate" or "label"
    frames: int = 0  # label frames per op
    scene: dict | None = None  # labeling scene config for ``radcal synth``


# label-dense uses 8 frames per op, not 10, so that a run with its set-up fits
# the time the benchmark is given; per-point work still dominates the call.
WORKLOADS = {
    "calibrate": Workload("calibrate"),
    "label-dense": Workload("label", 8, DENSE_SCENE),
    "label-sparse": Workload("label", 100, SPARSE_SCENE),
}
# Smoke-test sizes: one round, the smallest scenes, a few frames.
TINY_FRAMES = {"label-dense": 2, "label-sparse": 5}


@dataclass
class Input:
    path: Path
    frames: int  # radar frames the op's main command reads
    poses: int = 0  # calibration scenes: pose count K


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float


@dataclass
class OpResult:
    op_id: str  # shared by the op's processes in their traces
    input_index: int
    traced: bool
    frames: int
    poses: int
    procs: list[Proc] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def main_wall_s(self) -> float:
        return self.procs[0].wall_s


def run_process(argv: list[str], env: dict, log_path: Path) -> Proc:
    """Run one child to completion; wall time, exit code and peak RSS.

    The child is waited for without reaping (WNOWAIT), so the watchdog can
    never signal a recycled pid; os.wait4 then reaps it and reads its RSS.
    """
    lock = threading.Lock()
    exited = False
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT,
        )

    def kill():
        with lock:
            if not exited:
                os.kill(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(OP_TIMEOUT_S, kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
    except BaseException:
        kill()
        raise
    finally:
        with lock:
            exited = True
        watchdog.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def digest_files(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def rotation_error_deg(a: list[float], b: list[float]) -> float:
    """Angle of R_a R_b^T from two row-major 3x3 rotations."""
    trace = sum(a[3 * i + k] * b[3 * i + k] for i in range(3) for k in range(3))
    return math.degrees(math.acos(max(-1.0, min(1.0, (trace - 1.0) / 2.0))))


def read_labels(path: Path) -> list:
    """Per point index: (class_id, instance_id) or None."""
    labels = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                doc = json.loads(line)
                pair = (doc["class_id"], doc["instance_id"])
                labels[doc["point_index"]] = None if None in pair else pair
    if sorted(labels) != list(range(len(labels))):
        raise ValueError(f"{path.name}: point indices are not 0..n-1")
    return [labels[i] for i in range(len(labels))]


def instance_ious(pred: list, gt: list) -> list[float]:
    """IoU of each ground-truth instance with the predicted points of the same label."""
    members: dict[tuple, list[set]] = defaultdict(lambda: [set(), set()])
    for i, (p, g) in enumerate(zip(pred, gt)):
        if g is not None:
            members[g][0].add(i)
        if p is not None:
            members[p][1].add(i)
    return [
        len(truth & guess) / len(truth | guess)
        for truth, guess in members.values()
        if truth
    ]


class Bench:
    def __init__(self, name: str, seed: int, trace: bool, tiny: bool, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.trace = trace
        self.tiny = tiny
        self.work = work
        self.jobs = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.rng = random.Random(f"{name}/{seed}")
        self.inputs: list[Input] = []
        self.rounds: list[list[int]] = []  # input indices made by each set-up round
        self.first_digest: dict[int, str] = {}
        self.setup_traces: list[dict] = []
        self.setup_wall_s = 0.0
        self.warmup: OpResult | None = None
        self.process_count = 0
        self.op_count = 0

    # -- processes -----------------------------------------------------------

    def cli(self, args: list[str], traced: bool, op: OpResult | None = None) -> Proc:
        """One radcal CLI process, for ``op`` or, without one, for set-up."""
        self.process_count += 1
        tag = f"p{self.process_count:04d}"
        logs = self.work / "logs"
        if traced:
            trace_path = logs / f"{tag}.trace.json"
            op_id = op.op_id if op else "setup"
            argv = [sys.executable, str(TRACED_CHILD), str(trace_path), op_id, *args]
        else:
            argv = [sys.executable, "-m", "radcal.cli", *args]
        proc = run_process(argv, self.env, logs / f"{tag}.log")
        if traced and trace_path.exists():
            (op.traces if op else self.setup_traces).append(json.loads(trace_path.read_text()))
        if op:
            op.procs.append(proc)
        return proc

    # -- set-up ----------------------------------------------------------------

    def setup_round(self, round_index: int) -> float:
        """Synthesise one round of inputs; returns its wall time."""
        start = time.perf_counter()
        inputs = self.work / "inputs"
        planned = []
        if self.workload.kind == "calibrate":
            for poses in (6,) if self.tiny else CAL_POSES:
                args = ["synth", "--kind", "calibration", "--poses", str(poses),
                        "--seed", str(self.rng.randrange(1, 2**31)), *CAL_NOISE]
                planned.append((Input(inputs / f"r{round_index}-k{poses}", poses, poses), args))
        else:
            frames = TINY_FRAMES[self.name] if self.tiny else self.workload.frames
            config = inputs / "scene.json"
            config.write_text(json.dumps(self.workload.scene))
            args = ["synth", "--kind", "labeling", "--frames", str(frames),
                    "--seed", str(self.rng.randrange(1, 2**31 - frames)),
                    "--config", str(config)]
            planned.append((Input(inputs / f"r{round_index}", frames), args))
        self.rounds.append([])
        for inp, args in planned:
            proc = self.cli([*args, "-o", str(inp.path)], self.trace)
            if proc.rc != 0:
                raise SystemExit(f"perfbench: radcal synth failed (exit {proc.rc}): {args}")
            self.rounds[-1].append(len(self.inputs))
            self.inputs.append(inp)
        return time.perf_counter() - start

    # -- ops -------------------------------------------------------------------

    def run_op(self, index: int, traced: bool) -> OpResult:
        inp = self.inputs[index]
        self.op_count += 1
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        result = OpResult(f"op{self.op_count:04d}", index, traced, inp.frames, inp.poses)
        try:
            if self.workload.kind == "calibrate":
                self.calibrate_op(inp, out, result)
            else:
                self.label_op(inp, out, result)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.problems.append(f"unreadable output: {exc!r}")
        if not any(p.rc for p in result.procs):
            digest = digest_files(out)
            if digest != self.first_digest.setdefault(index, digest):
                result.problems.append(
                    f"output differs from an earlier op on the same input ({inp.path.name})"
                )
        for p in result.procs:
            if p.rc != 0:
                result.problems.append(f"exit code {p.rc}")
        return result

    def calibrate_op(self, inp: Input, out: Path, result: OpResult) -> None:
        d = str(inp.path)
        calib = out / "calibration.json"
        args = ["calibrate", "--corners", d, "--frames", d,
                "--intrinsics", str(inp.path / "intrinsics.json"), "-o", str(calib)]
        self.cli(args, result.traced, result)
        if result.procs[0].rc != 0:
            return
        doc = json.loads(calib.read_text())
        truth = json.loads((inp.path / "ground_truth.json").read_text())
        rot = rotation_error_deg(doc["rotation_row_major"], truth["rotation_row_major"])
        trans = 1000.0 * math.dist(doc["translation_m"], truth["translation_m"])
        result.accuracy = {"rot_err_deg": rot, "trans_err_mm": trans, "mre_px": doc["mre_px"]}
        if not doc["converged"]:
            result.problems.append("calibration.json says converged=false")
        rot_tol, trans_tol, mre_tol = CAL_TOLERANCE[inp.poses]
        if not (rot <= rot_tol and trans <= trans_tol and doc["mre_px"] <= mre_tol):
            result.problems.append(
                f"calibration off the oracle: {rot:.3f} deg, {trans:.1f} mm, "
                f"MRE {doc['mre_px']:.3f} px"
            )

    def label_op(self, inp: Input, out: Path, result: OpResult) -> None:
        labels_dir, report = out / "labels", out / "report.json"
        args = ["autolabel", "--frames", str(inp.path), "--masks", str(inp.path),
                "--calibration", str(inp.path / "calibration.json"), "--stage", "full",
                "--jobs", str(self.jobs), "-o", str(labels_dir)]
        self.cli(args, result.traced, result)
        if result.procs[0].rc != 0:
            return
        args = ["eval", "--pred", str(labels_dir), "--gt", str(inp.path / "gt_labels"),
                "-o", str(report)]
        self.cli(args, result.traced, result)
        if result.procs[1].rc != 0:
            return
        gt_files = sorted((inp.path / "gt_labels").glob("labels_*.jsonl"))
        pred_files = sorted(labels_dir.glob("labels_*.jsonl"))
        if [p.name for p in pred_files] != [p.name for p in gt_files]:
            result.problems.append("label files do not match the ground-truth frames")
            return
        correct = total = 0
        ious = []
        for pred_path, gt_path in zip(pred_files, gt_files):
            pred, gt = read_labels(pred_path), read_labels(gt_path)
            if len(pred) != len(gt):
                result.problems.append(f"{pred_path.name}: {len(pred)} labels for {len(gt)} points")
                return
            correct += sum(p == g for p, g in zip(pred, gt))
            total += len(gt)
            ious.extend(instance_ious(pred, gt))
        pa = 100.0 * correct / total
        result.accuracy = {
            "correct": correct, "points": total, "iou_sum": sum(ious), "instances": len(ious),
        }
        if correct != total:
            result.problems.append(f"{total - correct} of {total} labels differ from gt_labels")
        reported = json.loads(report.read_text())["pa_percent"]
        if abs(reported - pa) > 1e-9:
            result.problems.append(f"eval reports PA {reported} but the oracle gives {pa}")

    # -- runs --------------------------------------------------------------------

    def set_up(self) -> float:
        """All set-up rounds plus the warm-up op; returns setup_s."""
        (self.work / "inputs").mkdir(parents=True)
        (self.work / "logs").mkdir()
        rounds = [self.setup_round(r) for r in range(1 if self.tiny else SETUP_ROUNDS)]
        self.setup_wall_s = sum(rounds)
        self.warmup = self.run_op(0, traced=False)
        return statistics.median(rounds) + self.warmup.wall_s

    def run_rounds(self, deadline: float, modes: list[bool], minimum: int) -> list[OpResult]:
        """Ops over whole set-up rounds, cycling, until the next step would
        overrun ``deadline``, after at least ``minimum`` steps.

        Step i runs every input of round ``(i // len(modes)) % rounds``, traced
        when ``modes[i % len(modes)]``, so with [False, True] each round gets
        an untraced then a traced step.  Stopping only at round boundaries
        keeps every K equally represented in a calibrate run.
        """
        results: list[OpResult] = []
        estimate = self.warmup.wall_s * len(self.rounds[0])
        for i in itertools.count():
            if i >= minimum and time.perf_counter() + estimate > deadline:
                return results
            start = time.perf_counter()
            indices = self.rounds[(i // len(modes)) % len(self.rounds)]
            results += [self.run_op(index, modes[i % len(modes)]) for index in indices]
            estimate = time.perf_counter() - start


# -- metrics ---------------------------------------------------------------------


def self_times(trace: dict) -> dict[str, float]:
    """Span self time by name: duration minus the union of its children's intervals."""
    spans = trace["spans"]
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for index, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["name"]] += (s["end"] - s["start"]) - covered
    return out


OP_LAYERS = [
    "import.radcal",
    "cli.main",
    "fileio.load_radar_points",
    "fileio.load_masks",
    "fileio.write_labels",
    "fileio.load_labels",
    "fileio.load_radar_frame",
    "fileio.load_corners",
    "checkerboard.checkerboard_center",
    "reflector.extract_reflector",
    "reflector.filter_returns",
    "reflector.dbscan",
    "calibration.build_correspondences",
    "autolabel.autolabel_frame",
    "autolabel.coarse_associate",
    "autolabel.cluster_stats",
    "autolabel.filter_cluster",
    "autolabel.complete_clusters",
    "metrics.label_report",
]
SETUP_LAYERS = [
    "synth.gen_calibration_scene",
    "synth.gen_label_scene",
    "fileio.write_masks",
    "fileio.write_radar_frame",
    "fileio.write_radar_points",
]
COUNTS = [
    "fileio.points_loaded",
    "fileio.mask_bytes_decoded",
    "fileio.bytes_read",
    "fileio.bytes_written",
    "reflector.returns_in",
    "reflector.returns_kept",
    "reflector.clusters",
    "calibration.lm_runs",
    "calibration.iterations",
    "autolabel.points",
    "autolabel.masks",
    "autolabel.coarse",
    "autolabel.filtered_out",
    "autolabel.recovered",
    "autolabel.unlabeled",
]


def ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def end_to_end(setup_s: float, ops: list[OpResult]) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(r.wall_s for r in ops), "s"),
        "frames_per_s": (sum(r.frames for r in ops) / sum(r.main_wall_s for r in ops), "1/s"),
        "peak_rss_mb": (max(p.rss_mb for r in ops for p in r.procs), "MB"),
    }


def per_layer(bench: Bench, first_pass: list[OpResult], pairs: list[OpResult]) -> dict:
    traced = first_pass + [r for r in pairs if r.traced]
    untraced = [r for r in pairs if not r.traced]
    op_self: dict[str, float] = defaultdict(float)
    solve_self: dict[int, float] = defaultdict(float)
    wall_by_poses: dict[int, float] = defaultdict(float)
    for r in traced:
        wall_by_poses[r.poses] += r.wall_s
        for trace in r.traces:
            for name, value in self_times(trace).items():
                op_self[name] += value
                if name == "calibration.solve_extrinsics":
                    solve_self[r.poses] += value
    op_wall = sum(r.wall_s for r in traced)
    setup_self: dict[str, float] = defaultdict(float)
    for trace in bench.setup_traces:
        for name, value in self_times(trace).items():
            setup_self[name] += value

    metrics = {
        "trace.op_wall_s": (op_wall / len(traced), "s"),
        "trace.setup_wall_s": (bench.setup_wall_s, "s"),
        "trace.overhead_s": (
            statistics.median(r.wall_s for r in traced)
            - statistics.median(r.wall_s for r in untraced),
            "s",
        ),
    }
    for name in OP_LAYERS:
        metrics[f"{name}.self_pct"] = (ratio(op_self[name], op_wall, 100.0), "%")
    for poses in CAL_POSES:
        metrics[f"calibration.solve_extrinsics.k{poses}.self_pct"] = (
            ratio(solve_self[poses], wall_by_poses[poses], 100.0), "%",
        )
    for name in SETUP_LAYERS:
        metrics[f"{name}.self_pct"] = (ratio(setup_self[name], bench.setup_wall_s, 100.0), "%")

    # Counts and accuracy come from the first traced pass, one op per input,
    # so they repeat exactly for a seed.
    counts: dict[str, float] = defaultdict(float)
    for r in first_pass:
        for trace in r.traces:
            for key, value in trace["counts"].items():
                counts[key] += value
    for key in COUNTS:
        metrics[key] = (counts[key], "B" if "bytes" in key else "count")
    metrics["reflector.found_ratio"] = (ratio(counts["reflector.found"], counts["reflector.attempts"]), "ratio")
    metrics["autolabel.recovered_ratio"] = (ratio(counts["autolabel.recovered"], counts["autolabel.offered"]), "ratio")

    calib = [r.accuracy for r in first_pass if "rot_err_deg" in r.accuracy]
    labels = [r.accuracy for r in first_pass if "correct" in r.accuracy]
    for key, unit in (("rot_err_deg", "deg"), ("trans_err_mm", "mm"), ("mre_px", "px")):
        metrics[f"oracle.calib_{key}"] = (statistics.median(a[key] for a in calib) if calib else 0.0, unit)
    metrics["oracle.label_pa_percent"] = (
        ratio(sum(a["correct"] for a in labels), sum(a["points"] for a in labels), 100.0), "%",
    )
    metrics["oracle.label_miou_percent"] = (
        ratio(sum(a["iou_sum"] for a in labels), sum(a["instances"] for a in labels), 100.0), "%",
    )
    return metrics


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten ops beyond it, if there is one."""
    n = len(values)
    if n < 20:
        return f"n/a ({n} ops; a tail at or above the median needs at least 20)"
    return f"p{100.0 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.4f} s over {n} ops"


def report(bench: Bench, ops: list[OpResult], metrics: dict) -> None:
    """Print the human-readable lines, then the JSON result line."""
    failed = [r for r in ops if r.problems]
    for r in failed:
        print(f"failed op on {bench.inputs[r.input_index].path.name}: {'; '.join(r.problems)}",
              file=sys.stderr)
    timed = [r for r in ops if not r.traced and r is not bench.warmup]
    main_walls = [r.main_wall_s for r in timed]
    print(f"ops {len(ops)}, main command p50 {statistics.median(main_walls):.4f} s, "
          f"tail {tail(main_walls)}")
    if bench.workload.kind == "label":
        evals = [r.procs[1].wall_s for r in timed if len(r.procs) > 1]
        if evals:
            print(f"eval p50 {statistics.median(evals):.4f} s, tail {tail(evals)}")
    h = hashlib.sha256()
    for index in sorted(bench.first_digest):
        h.update(f"{bench.inputs[index].path.name}={bench.first_digest[index]}\n".encode())
    print(f"output digest {h.hexdigest()} over {len(bench.first_digest)} input(s)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "radcal" / "cli.py").is_file():
        print(f"perfbench: no radcal package under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, bool(args.trace), args.tiny, work)
    versions = " ".join(
        f"{pkg}={importlib.metadata.version(pkg)}" for pkg in ("numpy", "scipy")
    )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={sys.version.split()[0]} {versions} nproc={bench.jobs} jobs={bench.jobs}")
    try:
        setup_s = bench.set_up()
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            # One traced op per input first (counts come from these), then
            # untraced and traced steps alternate on the same round; the
            # untraced ones, at least one, measure the tracing overhead.
            first_pass = [bench.run_op(i, traced=True) for i in range(len(bench.inputs))]
            pairs = bench.run_rounds(deadline, [False, True], minimum=1)
            ops = [bench.warmup, *first_pass, *pairs]
            metrics = per_layer(bench, first_pass, pairs)
        else:
            timed = bench.run_rounds(deadline, [False], minimum=1)
            ops = [bench.warmup, *timed]
            metrics = end_to_end(setup_s, timed)
        report(bench, ops, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's traced child runs every CLI command against this source.

``perfbench/traced_child.py`` wraps radcal functions by name and reads the
shapes of their arguments and results to count work.  A change under ``src/``
that breaks one of those reads would otherwise show only in the benchmark's
own smoke test, which the repository's test run does not collect.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import lm_reference
import radcal
from radcal import calibration, cli

ROOT = Path(__file__).resolve().parents[1]
TRACED_CHILD = ROOT / "perfbench" / "traced_child.py"


def traced(tmp_path, name, *args):
    """Run one traced CLI command; returns its counters."""
    src = str(Path(radcal.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    trace = tmp_path / f"{name}.trace.json"
    proc = subprocess.run(
        [sys.executable, str(TRACED_CHILD), str(trace), name, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(trace.read_text())["counts"]


def reference_iterations(tmp_path, *args):
    """Iterations of the 24 one-seed reference descents, summed, on the
    correspondences an in-process ``calibrate`` solves."""
    solved = []
    solve = calibration.solve_extrinsics

    def capturing(correspondences, k, cfg=None):
        solved.append((correspondences, k, cfg))
        return solve(correspondences, k, cfg)

    calibration.solve_extrinsics = capturing
    try:
        code = cli.main(["calibrate", *map(str, args), "-o", str(tmp_path / "in-process.json")])
    finally:
        calibration.solve_extrinsics = solve
    assert code == cli.EXIT_OK and len(solved) == 1
    correspondences, k, cfg = solved[0]
    return sum(
        lm_reference._run_lm(
            seed, k, correspondences.image_center, correspondences.radar_center, cfg
        )[2]
        for seed in calibration.cube_rotation_seeds()
    )


def test_traced_child_counts_every_command(tmp_path):
    cal, lab = tmp_path / "cal", tmp_path / "lab"
    traced(tmp_path, "synth-cal", "synth", "--kind", "calibration", "--poses", "6",
           "--seed", "7", "-o", cal)
    counts = traced(tmp_path, "calibrate", "calibrate", "--corners", cal, "--frames", cal,
                    "--intrinsics", cal / "intrinsics.json", "-o", tmp_path / "c.json")
    for key in ("reflector.returns_in", "reflector.clusters", "calibration.iterations"):
        assert counts.get(key, 0) > 0, key
    # the traced child adds _run_lm's result[2] per call: one stacked descent
    # per solve, whose index 2 is the iterations summed over the 24 seeds
    assert counts["calibration.lm_runs"] == 1
    assert counts["calibration.iterations"] == reference_iterations(
        tmp_path, "--corners", cal, "--frames", cal, "--intrinsics", cal / "intrinsics.json"
    )
    traced(tmp_path, "synth-lab", "synth", "--kind", "labeling", "--frames", "2",
           "--seed", "7", "-o", lab)
    counts = traced(tmp_path, "autolabel", "autolabel", "--frames", lab, "--masks", lab,
                    "--calibration", lab / "calibration.json", "-o", tmp_path / "labels")
    assert counts.get("autolabel.points", 0) > 0
    # the traced child counts provenance by iterating autolabel_frame's result
    provenances = ("coarse", "filtered_out", "recovered", "unlabeled")
    assert sum(counts.get(f"autolabel.{p}", 0) for p in provenances) == counts["autolabel.points"]
    traced(tmp_path, "eval", "eval", "--pred", tmp_path / "labels", "--gt", lab / "gt_labels",
           "-o", tmp_path / "report.json")

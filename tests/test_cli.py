import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import radcal
from radcal import autolabel as al
from radcal import cli, fileio
from radcal.autolabel import InstanceMask, LabelRecord, Provenance
from radcal.fileio import (
    load_calibration,
    load_labels,
    load_masks,
    load_radar_frame,
    write_labels,
    write_masks,
    write_radar_frame,
)
from radcal.geometry import SphericalReturn
from radcal.reflector import RadarFrame


def sha256_tree(directory):
    out = {}
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """One shared synth -> calibrate -> autolabel -> eval run."""
    root = tmp_path_factory.mktemp("workflow")
    cal_scene = root / "cal_scene"
    lab_scene = root / "lab_scene"
    labels_out = root / "labels_out"
    calibration = root / "calibration.json"
    report = root / "report.json"
    assert run(["synth", "--kind", "calibration", "--poses", "24", "--seed", "7",
                "-o", cal_scene]) == 0
    assert run(["calibrate", "--corners", cal_scene, "--frames", cal_scene,
                "--intrinsics", cal_scene / "intrinsics.json", "-o", calibration]) == 0
    assert run(["synth", "--kind", "labeling", "--objects", "5", "--seed", "1",
                "--fp-rate", "0.1", "--fn-rate", "0.1", "-o", lab_scene]) == 0
    assert run(["autolabel", "--frames", lab_scene, "--masks", lab_scene,
                "--calibration", calibration, "--stage", "full",
                "-o", labels_out]) == 0
    assert run(["eval", "--pred", labels_out, "--gt", lab_scene / "gt_labels",
                "-o", report]) == 0
    return root


class TestWorkflow:
    def test_calibration_scene_file_counts(self, workflow):
        scene = workflow / "cal_scene"
        assert len(list(scene.glob("corners_*.json"))) == 24
        assert len(list(scene.glob("radar_*.json"))) == 24
        assert (scene / "ground_truth.json").exists()
        assert (scene / "intrinsics.json").exists()

    def test_calibration_result_accurate(self, workflow):
        extrinsics, intrinsics, doc = load_calibration(workflow / "calibration.json")
        gt = json.loads((workflow / "cal_scene" / "ground_truth.json").read_text())
        gt_rot = np.array(gt["rotation_row_major"]).reshape(3, 3)
        assert doc["converged"] is True
        assert doc["mre_px"] < 1e-6
        assert np.allclose(extrinsics.rotation, gt_rot, atol=1e-8)
        assert np.allclose(extrinsics.translation, gt["translation_m"], atol=1e-6)
        assert len(doc["per_pose"]) == 24

    def test_labeling_scene_files(self, workflow):
        scene = workflow / "lab_scene"
        assert (scene / "radar_000.json").exists()
        assert (scene / "masks_000.json").exists()
        assert (scene / "gt_labels" / "labels_000.jsonl").exists()

    def test_labels_and_report(self, workflow):
        records = load_labels(workflow / "labels_out" / "labels_000.jsonl")
        assert len(records) > 0
        report = json.loads((workflow / "report.json").read_text())
        assert report["pa_percent"] == 100.0
        assert report["miou_percent"] == 100.0
        assert (workflow / "report.txt").exists()

    def test_console_script_entry_point(self, workflow, tmp_path):
        proc = subprocess.run(
            ["radcal", "synth", "--kind", "calibration", "--poses", "3",
             "--seed", "0", "-o", str(tmp_path / "scene")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "3 poses" in proc.stdout


def test_cli_import_loads_no_scipy():
    src = str(Path(radcal.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys, radcal.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "[]"


class TestDeterminism:
    def test_synth_rerun_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run(["synth", "--kind", "calibration", "--poses", "5",
                        "--seed", "3", "-o", tmp_path / name]) == 0
        assert sha256_tree(tmp_path / "a") == sha256_tree(tmp_path / "b")

    def test_labeling_synth_rerun_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run(["synth", "--kind", "labeling", "--seed", "5",
                        "--fp-rate", "0.1", "-o", tmp_path / name]) == 0
        assert sha256_tree(tmp_path / "a") == sha256_tree(tmp_path / "b")

    def test_calibrate_and_autolabel_rerun_byte_identical(self, workflow, tmp_path):
        cal_scene = workflow / "cal_scene"
        out1, out2 = tmp_path / "c1.json", tmp_path / "c2.json"
        for out in (out1, out2):
            assert run(["calibrate", "--corners", cal_scene, "--frames", cal_scene,
                        "--intrinsics", cal_scene / "intrinsics.json", "-o", out]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        lab_scene = workflow / "lab_scene"
        for name in ("l1", "l2"):
            assert run(["autolabel", "--frames", lab_scene, "--masks", lab_scene,
                        "--calibration", out1, "-o", tmp_path / name]) == 0
        assert sha256_tree(tmp_path / "l1") == sha256_tree(tmp_path / "l2")


# sha256 of the files `synth --kind labeling --seed 8 --frames 2 --fp-rate 0.1
# --fn-rate 0.1` writes and of their `autolabel --stage full` labels, pinned
# from the scalar labeling path: a change to the generator, the labeling
# stages or the writers that moves one byte fails here.
GOLDEN_LABELING = {
    "labels/labels_000.jsonl": "839459f7fc621272614aef14f7aae8217387c7084d84cfdf19d0e9ad35aefb43",
    "labels/labels_001.jsonl": "7108533c94a6d9f7521944632775e360de7de348aef0461e8a33a06f2ad939ff",
    "scene/calibration.json": "5ae411e8012a7c727efdf6bf07fa3f97f4bad3c01e46924323b01e510af0c248",
    "scene/ground_truth.json": "3f9dbad7da2b71c350c87dcd4e0c9bd7336b007fc9e2504e3bdca31240bcc9b0",
    "scene/gt_labels/labels_000.jsonl": "46ea6000adf3842f102b7c05ca7158c5f362809b656222c44ede4aeeda2c8ea5",
    "scene/gt_labels/labels_001.jsonl": "563f1350792060069073698232255239e5b197ca27959340a411e0681c810d01",
    "scene/masks_000.json": "feb8ff86b5fb839276ace021fcf108dad954e7e27772ddf06b727b5d88e674d5",
    "scene/masks_001.json": "a905e2ab33116bc8a217737d831b60705919d05571bf765db2b17bf61c8ea9ea",
    "scene/radar_000.json": "d8e4688bfd788cb8bcce0e71ed0587b47188b85c4d72d09a8353caba3ca69c47",
    "scene/radar_001.json": "4b9677edc791706a71ed6df717c98ea0e19380e93b8d8815820b2c54ef9f3160",
}


def test_labeling_golden_digests(tmp_path):
    scene = tmp_path / "scene"
    assert run(["synth", "--kind", "labeling", "--seed", "8", "--frames", "2",
                "--fp-rate", "0.1", "--fn-rate", "0.1", "-o", scene]) == 0
    assert run(["autolabel", "--frames", scene, "--masks", scene,
                "--calibration", scene / "calibration.json", "--stage", "full",
                "-o", tmp_path / "labels"]) == 0
    assert sha256_tree(tmp_path) == GOLDEN_LABELING


def test_labeling_golden_digests_without_dense_masks(tmp_path, monkeypatch):
    # masks stay runs from the file to the labels: no dense decode anywhere
    def refuse(*args):
        raise AssertionError("a dense mask was decoded")

    monkeypatch.setattr(fileio, "rle_decode", refuse)
    monkeypatch.setattr(al, "runs_to_dense", refuse)
    monkeypatch.setattr(InstanceMask, "mask", property(refuse))
    test_labeling_golden_digests(tmp_path)


def test_autolabel_allocates_no_image_sized_array(tmp_path):
    scene = tmp_path / "scene"
    assert run(["synth", "--kind", "labeling", "--seed", "8", "-o", scene]) == 0
    width, height, _ = load_masks(scene / "masks_000.json")
    tracemalloc.start()
    try:
        assert run(["autolabel", "--frames", scene, "--masks", scene, "--jobs", "1",
                    "--calibration", scene / "calibration.json",
                    "-o", tmp_path / "labels"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < width * height  # one byte per pixel: a bool mask


# sha256 of `eval`'s report and overlay files on the same scene, for the
# `full` labels (every value 100) and the `coarse` ones (every value below),
# pinned from the list-based metrics and per-line label loader.
GOLDEN_EVAL = {
    "full/report.json": "996ce239d032ddff8342085fac1c9c84e085bd9594338be4f29e55e5a807baec",
    "full/report.txt": "912c057029f2a98db25c6d964b4172803aa531fcb9a10ac254d8c8545d900594",
    "full/overlay/overlay_000.json": "20cf54ac90eaa539e69d4dab402d2375300260c5918aa885ba0907f3bb2ab959",
    "full/overlay/overlay_001.json": "4508ddc5a60502fc72d0b692486bca92fcde3b056f6907780b9fe457643371ab",
    "coarse/report.json": "254b11af7ec493a696d22c80312d630ced4ae39514e64a53b4c3e976d2770422",
    "coarse/report.txt": "7b159631d37853729fa73f397eb3ad5fe31d8e598fe88ac450713df88b499c9a",
}


def test_eval_golden_digests(tmp_path):
    scene = tmp_path / "scene"
    assert run(["synth", "--kind", "labeling", "--seed", "8", "--frames", "2",
                "--fp-rate", "0.1", "--fn-rate", "0.1", "-o", scene]) == 0
    reports = tmp_path / "reports"
    for stage in ("full", "coarse"):
        labels = tmp_path / f"labels_{stage}"
        assert run(["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", scene / "calibration.json", "--stage", stage,
                    "-o", labels]) == 0
        overlay = []
        if stage == "full":
            overlay = ["--overlay-frames", scene,
                       "--overlay-calibration", scene / "calibration.json",
                       "--overlay-dir", reports / stage / "overlay"]
        (reports / stage).mkdir(parents=True)
        assert run(["eval", "--pred", labels, "--gt", scene / "gt_labels", *overlay,
                    "-o", reports / stage / "report.json"]) == 0
    assert sha256_tree(reports) == GOLDEN_EVAL


def test_eval_pooled_miou_zero_when_only_predictions_hold_instances(tmp_path):
    # the frame row said 0.00 here while the pooled row said 100.00
    pred, gt = tmp_path / "pred", tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    write_labels(pred / "labels_000.jsonl", [
        LabelRecord(0, (1, 1), Provenance.COARSE),
        LabelRecord(1, (1, 1), Provenance.COARSE),
        LabelRecord(2, None, Provenance.UNLABELED),
    ])
    write_labels(gt / "labels_000.jsonl",
                 [LabelRecord(i, None, Provenance.UNLABELED) for i in range(3)])
    assert run(["eval", "--pred", pred, "--gt", gt, "-o", tmp_path / "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["per_frame"][0]["miou_percent"] == 0.0
    assert report["miou_percent"] == 0.0
    table = (tmp_path / "report.txt").read_text().splitlines()
    assert table[-1].split()[:4] == ["all", "33.33", "100.00", "0.00"]


class TestExitCodes:
    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "config.toml"
        bad.write_text("not [valid toml")
        assert run(["synth", "--kind", "calibration", "--config", bad,
                    "-o", tmp_path / "out"]) == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        bad = tmp_path / "params.toml"
        bad.write_text("[solver]\nnonexistent_knob = 3\n")
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "calibration", "--poses", "4", "--seed", "1",
                    "-o", scene]) == 0
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json", "--params", bad,
                    "-o", tmp_path / "c.json"]) == 2

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    @pytest.mark.parametrize("bad", ['"width": 1e999', '"width": "wide"', '"fx": null'])
    def test_bad_scene_intrinsics_exit_2(self, tmp_path, capsys, kind, bad):
        # 1e999 parses as an infinite float, which int() cannot take
        fields = ['"fx": 1000', '"fy": 1000', '"cx": 960', '"cy": 540', '"height": 1080']
        config = tmp_path / "scene.json"
        config.write_text('{"intrinsics": {' + ", ".join([*fields, bad]) + "}}")
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("config error: bad scene intrinsics")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    def test_bad_scene_extrinsics_exit_2(self, tmp_path, capsys, kind):
        config = tmp_path / "scene.json"
        config.write_text('{"extrinsics": {"axis_angle": [0, 0], "translation_m": [0, 0, 0]}}')
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("config error: bad scene extrinsics")

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    def test_bad_scene_config_value_exit_2(self, tmp_path, capsys, kind):
        # a number where a list belongs
        field = "clutter_only_poses" if kind == "calibration" else "range_m"
        config = tmp_path / "scene.json"
        config.write_text(f'{{"{field}": 3}}')
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: bad {kind} scene config")

    def test_deeply_nested_labels_eval_exit_4(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        pred = tmp_path / "pred"
        pred.mkdir()
        (pred / "labels_000.jsonl").write_text("[" * 100_000 + "\n")
        capsys.readouterr()
        assert run(["eval", "--pred", pred, "--gt", scene / "gt_labels",
                    "-o", tmp_path / "r.json"]) == 4
        assert "labels_000.jsonl:1" in capsys.readouterr().err

    def test_missing_calibration_exit_3(self, tmp_path):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        assert run(["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", tmp_path / "nope.json",
                    "-o", tmp_path / "out"]) == 3

    def test_empty_pred_dir_exit_3(self, tmp_path):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["eval", "--pred", empty, "--gt", scene / "gt_labels",
                    "-o", tmp_path / "r.json"]) == 3

    def test_too_few_poses_exit_4(self, tmp_path):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "calibration", "--poses", "2", "--seed", "1",
                    "-o", scene]) == 0
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json",
                    "-o", tmp_path / "c.json"]) == 4

    def test_mask_dimension_mismatch_exit_4(self, tmp_path, workflow):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "3", "-o", scene]) == 0
        small = InstanceMask.from_dense(np.ones((50, 50), dtype=bool), 1, 1, 0.9)
        write_masks(scene / "masks_000.json", 50, 50, [small])
        assert run(["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", workflow / "calibration.json",
                    "-o", tmp_path / "out"]) == 4

    def test_eval_length_mismatch_exit_4(self, tmp_path, workflow):
        lab_scene = workflow / "lab_scene"
        pred = tmp_path / "pred"
        pred.mkdir()
        lines = (lab_scene / "gt_labels" / "labels_000.jsonl").read_text().splitlines()
        (pred / "labels_000.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        assert run(["eval", "--pred", pred, "--gt", lab_scene / "gt_labels",
                    "-o", tmp_path / "r.json"]) == 4

    def test_duplicate_radar_index_autolabel_exit_4(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--frames", "2", "--seed", "2",
                    "-o", scene]) == 0
        shutil.copy(scene / "radar_001.json", scene / "radar_001.jsonl")
        capsys.readouterr()
        assert run(["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", scene / "calibration.json",
                    "-o", tmp_path / "out"]) == 4
        err = capsys.readouterr().err
        assert "radar_001.json " in err and "radar_001.jsonl" in err

    def test_duplicate_labels_index_eval_exit_4(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        pred = tmp_path / "pred"
        shutil.copytree(scene / "gt_labels", pred)
        shutil.copy(pred / "labels_000.jsonl", pred / "labels_0.jsonl")
        capsys.readouterr()
        assert run(["eval", "--pred", pred, "--gt", scene / "gt_labels",
                    "-o", tmp_path / "r.json"]) == 4
        err = capsys.readouterr().err
        assert "labels_000.jsonl" in err and "labels_0.jsonl" in err

    @pytest.mark.parametrize("prefix", ["corners", "radar"])
    def test_duplicate_pose_index_calibrate_exit_4(self, tmp_path, capsys, prefix):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "calibration", "--poses", "4", "--seed", "1",
                    "-o", scene]) == 0
        shutil.copy(scene / f"{prefix}_002.json", scene / f"{prefix}_2.json")
        capsys.readouterr()
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json",
                    "-o", tmp_path / "c.json"]) == 4
        err = capsys.readouterr().err
        assert f"{prefix}_002.json" in err and f"{prefix}_2.json" in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["x_m", "z_m", "v_mps", "rcs_dbsm"])
    def test_non_finite_radar_point_exit_4(self, tmp_path, capsys, field, value):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        path = scene / "radar_000.json"
        doc = json.loads(path.read_text())
        doc["points"][3][field] = float(value)
        path.write_text(json.dumps(doc))
        assert value in path.read_text()
        assert run(["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", scene / "calibration.json",
                    "-o", tmp_path / "out"]) == 4
        assert "must be finite" in capsys.readouterr().err

    def test_overfull_labeling_scene_exit_2(self, tmp_path, capsys):
        # 8 objects do not fit the camera view at seed 11
        assert run(["synth", "--kind", "labeling", "--objects", "8", "--seed", "11",
                    "-o", tmp_path / "scene"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: could not fit object")
        assert err.count("\n") == 1

    def test_failed_synth_leaves_output_dir_as_found(self, tmp_path):
        # seed 6 fits 8 objects in frames 0-2 and fails on frame 3
        args = ["synth", "--kind", "labeling", "--objects", "8", "--frames", "4",
                "--seed", "6", "-o"]
        out = tmp_path / "scene"
        out.mkdir()
        (out / "radar_000.json").write_text("kept\n")
        (out / "notes.txt").write_text("kept\n")
        assert run([*args, out]) == 2
        assert sorted(p.name for p in out.rglob("*")) == ["notes.txt", "radar_000.json"]
        assert (out / "radar_000.json").read_text() == "kept\n"
        assert run([*args, tmp_path / "new" / "scene"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scene"]
        # three frames fit: written in place, no staging directory left
        assert run(["synth", "--kind", "labeling", "--objects", "8", "--frames", "3",
                    "--seed", "6", "-o", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "calibration.json", "ground_truth.json", "gt_labels",
            "masks_000.json", "masks_001.json", "masks_002.json", "notes.txt",
            "radar_000.json", "radar_001.json", "radar_002.json",
        ]

    def test_not_converged_exit_5_still_writes(self, tmp_path, workflow):
        scene = workflow / "cal_scene"
        params = tmp_path / "params.toml"
        params.write_text("[solver]\nmax_iters = 1\n")
        out = tmp_path / "c.json"
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json", "--params", params,
                    "-o", out]) == 5
        doc = json.loads(out.read_text())
        assert doc["converged"] is False


class TestFlags:
    def test_holdout_reports_split(self, workflow, tmp_path, capsys):
        scene = workflow / "cal_scene"
        out = tmp_path / "c.json"
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json",
                    "--holdout", "0.25", "-o", out]) == 0
        printed = capsys.readouterr().out
        assert "holdout" in printed
        doc = json.loads(out.read_text())
        splits = {p["split"] for p in doc["per_pose"]}
        assert splits == {"train", "holdout"}
        n_hold = sum(1 for p in doc["per_pose"] if p["split"] == "holdout")
        assert n_hold == 6  # round(24 * 0.25)

    def test_holdout_pose_behind_camera_reported(self, workflow, tmp_path, capsys):
        # the last pose's reflector moves behind the radar, so under the
        # solved calibration it is behind the camera too
        scene = tmp_path / "scene"
        shutil.copytree(workflow / "cal_scene", scene)
        last = scene / "radar_023.json"
        frame = load_radar_frame(last)
        behind = [SphericalReturn(8.0, 3.10 + 0.01 * i, 0.0, 0.0, 30.0) for i in range(4)]
        write_radar_frame(last, RadarFrame(frame.timestamp_s, tuple(behind)))
        out = tmp_path / "c.json"
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json",
                    "--holdout", "0.1", "-o", out]) == 0
        printed = capsys.readouterr().out
        assert "over 1 poses" in printed
        assert "holdout pose(s) behind the camera: [23]" in printed
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        held = {p["pose_id"]: p for p in doc["per_pose"] if p["split"] == "holdout"}
        assert sorted(held) == [22, 23]
        assert held[23]["behind_camera"] is True
        assert held[23]["error_px"] is None
        assert "behind_camera" not in held[22]
        assert held[22]["error_px"] < 1e-6

    def test_stage_flag_full_at_least_coarse(self, workflow, tmp_path):
        lab_scene = workflow / "lab_scene"
        calibration = workflow / "calibration.json"
        outs = {}
        for stage in ("coarse", "full"):
            out = tmp_path / stage
            assert run(["autolabel", "--frames", lab_scene, "--masks", lab_scene,
                        "--calibration", calibration, "--stage", stage,
                        "-o", out]) == 0
            assert run(["eval", "--pred", out, "--gt", lab_scene / "gt_labels",
                        "-o", tmp_path / f"{stage}.json"]) == 0
            outs[stage] = json.loads((tmp_path / f"{stage}.json").read_text())
        assert outs["full"]["pa_percent"] >= outs["coarse"]["pa_percent"]
        assert outs["full"]["miou_percent"] >= outs["coarse"]["miou_percent"]

    def test_clutter_only_poses_skipped(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "calibration", "--poses", "8", "--seed", "4",
                    "--clutter-only", "2,5", "-o", scene]) == 0
        out = tmp_path / "c.json"
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json", "-o", out]) == 0
        printed = capsys.readouterr().out
        assert "skipped 2 pose(s)" in printed
        doc = json.loads(out.read_text())
        assert doc["config"]["skipped_no_reflector"] == [2, 5]
        assert len(doc["per_pose"]) == 6

    def test_multi_frame_labeling(self, tmp_path, workflow):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--frames", "3", "--seed", "9",
                    "-o", scene]) == 0
        assert len(list(scene.glob("radar_*.json"))) == 3
        assert len(list((scene / "gt_labels").glob("labels_*.jsonl"))) == 3
        out = tmp_path / "labels"
        assert run(["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", scene / "calibration.json", "--jobs", "2",
                    "-o", out]) == 0
        assert run(["eval", "--pred", out, "--gt", scene / "gt_labels",
                    "-o", tmp_path / "r.json"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["n_frames"] == 3
        assert report["pa_percent"] == 100.0

    def test_log_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RADCAL_LOG", "debug")
        assert run(["synth", "--kind", "calibration", "--poses", "3", "--seed", "1",
                    "-o", tmp_path / "scene"]) == 0

    def test_scene_config_file(self, tmp_path):
        from radcal.geometry import matrix_to_rotvec
        from radcal.synth import default_extrinsics

        rotvec = matrix_to_rotvec(default_extrinsics().rotation)
        config = tmp_path / "scene.json"
        config.write_text(json.dumps({
            "pose_count": 4,
            "seed": 11,
            "intrinsics": {"fx": 900.0, "fy": 900.0, "cx": 960.0, "cy": 540.0,
                           "width": 1920, "height": 1080},
            "extrinsics": {"axis_angle": list(rotvec),
                           "translation_m": [0.05, 0.0, 0.0]},
        }))
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "calibration", "--config", config,
                    "-o", scene]) == 0
        intr = json.loads((scene / "intrinsics.json").read_text())
        assert intr["fx"] == 900.0
        assert len(list(scene.glob("corners_*.json"))) == 4
        out = tmp_path / "c.json"
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json", "-o", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["mre_px"] < 1e-6
        assert np.allclose(doc["translation_m"], [0.05, 0.0, 0.0], atol=1e-6)

    def test_calibrate_from_jsonl_stream(self, workflow, tmp_path):
        from radcal.fileio import load_radar_frame, write_radar_frames_stream

        cal_scene = workflow / "cal_scene"
        frames = [load_radar_frame(p) for p in sorted(cal_scene.glob("radar_*.json"))]
        stream = tmp_path / "frames.jsonl"
        write_radar_frames_stream(stream, frames)
        out = tmp_path / "c.json"
        assert run(["calibrate", "--corners", cal_scene, "--frames", stream,
                    "--intrinsics", cal_scene / "intrinsics.json", "-o", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["mre_px"] < 1e-6

    def test_eval_overlay(self, workflow, tmp_path):
        lab_scene = workflow / "lab_scene"
        overlay = tmp_path / "overlay"
        assert run(["eval", "--pred", workflow / "labels_out",
                    "--gt", lab_scene / "gt_labels",
                    "--overlay-frames", lab_scene,
                    "--overlay-calibration", workflow / "calibration.json",
                    "--overlay-dir", overlay,
                    "-o", tmp_path / "r.json"]) == 0
        entries = json.loads((overlay / "overlay_000.json").read_text())
        assert len(entries) > 0
        assert {"point_index", "u_px", "v_px", "provenance"} <= set(entries[0])

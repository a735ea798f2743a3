import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radcal
from frame_stream import write_radar_frames_stream
from radcal import autolabel as al
from radcal import cli, fileio, synth
from radcal.autolabel import InstanceMask, PointCloud
from radcal.fileio import (
    load_calibration,
    load_labels,
    load_masks,
    load_radar_frame,
    write_labels,
    write_masks,
    write_radar_frame,
    write_radar_points,
)
from radcal.geometry import CameraIntrinsics, Extrinsics, sph2cart
from radcal.reflector import RadarFrame
from radcal.synth import LabelSceneConfig, SceneConfig, default_intrinsics
from truth_columns import column_bytes, truth_columns


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
        extrinsics, _ = load_calibration(workflow / "calibration.json")
        doc = json.loads((workflow / "calibration.json").read_text())
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

    @pytest.mark.parametrize("labels", ["labels_out", "lab_scene/gt_labels"])
    def test_label_file_round_trips_through_columns(self, workflow, tmp_path, labels):
        # write_labels(q, load_labels(p)) reproduces p, for predicted and true labels
        original = workflow / labels / "labels_000.jsonl"
        columns = load_labels(original)
        write_labels(tmp_path / "labels.jsonl", columns)
        assert (tmp_path / "labels.jsonl").read_bytes() == original.read_bytes()
        # every provenance the file holds takes the same path
        expected = {0, 1, 2, 3} if labels == "labels_out" else {0, 3}
        assert set(columns.provenance.tolist()) == expected

    def test_console_script_entry_point(self, workflow, tmp_path):
        proc = subprocess.run(
            ["radcal", "synth", "--kind", "calibration", "--poses", "3",
             "--seed", "0", "-o", str(tmp_path / "scene")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "3 poses" in proc.stdout


def fresh_python(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this radcal."""
    src = str(Path(radcal.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, radcal.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert fresh_python(code).strip() == "[]"


@pytest.mark.parametrize("kind", [None, "calibration", "labeling"])
def test_cli_import_and_synth_load_no_orjson(tmp_path, kind):
    # only the readers of data files import orjson; synth writes them
    code = "import sys, radcal.cli"
    if kind:
        argv = ["synth", "--kind", kind, "--seed", "1", "-o", str(tmp_path / "scene")]
        code += f"; assert radcal.cli.main({argv!r}) == 0"
    code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'orjson'))"
    assert fresh_python(code).strip().splitlines()[-1] == "[]"


def test_import_radcal_loads_no_submodule():
    code = "import sys, radcal; print(sorted(m for m in sys.modules if m.startswith('radcal')))"
    assert fresh_python(code).strip() == "['radcal']"


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    """argv for one run of each of calibrate, autolabel and eval."""
    root = tmp_path_factory.mktemp("commands")
    cal_scene, lab_scene = root / "cal_scene", root / "lab_scene"
    assert run(["synth", "--kind", "calibration", "--poses", "6", "--seed", "3",
                "-o", cal_scene]) == 0
    assert run(["synth", "--kind", "labeling", "--seed", "4", "-o", lab_scene]) == 0
    labels = root / "labels"
    argv = {
        "calibrate": ["calibrate", "--corners", cal_scene, "--frames", cal_scene,
                      "--intrinsics", cal_scene / "intrinsics.json", "-o", root / "cal.json"],
        "autolabel": ["autolabel", "--frames", lab_scene, "--masks", lab_scene,
                      "--calibration", lab_scene / "calibration.json", "-o", labels],
        "eval": ["eval", "--pred", labels, "--gt", lab_scene / "gt_labels",
                 "-o", root / "report.json"],
    }
    assert run(argv["autolabel"]) == 0
    return {command: [str(a) for a in args] for command, args in argv.items()}


# the radcal modules each command loads: calibrate no labeling, metrics or
# scene-generation code, and no labeling command the calibration solver
COMMAND_MODULES = {
    "calibrate": ["calibration", "checkerboard", "cli", "fileio", "geometry", "reflector"],
    "autolabel": ["autolabel", "checkerboard", "cli", "fileio", "geometry", "reflector"],
    "eval": ["autolabel", "checkerboard", "cli", "fileio", "geometry", "metrics", "reflector"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(command_inputs, command):
    code = (
        f"import sys, radcal.cli; code = radcal.cli.main({command_inputs[command]!r}); "
        "print(code, sorted(m for m in sys.modules if m.startswith('radcal.')))"
    )
    expected = [f"radcal.{name}" for name in COMMAND_MODULES[command]]
    assert fresh_python(code).splitlines()[-1] == f"0 {expected}"


def test_autolabel_run_loads_no_numpy_ma_or_thread_pool(tmp_path):
    # numpy 2's bare np.unique imports numpy.ma (about 18 ms); frames are
    # labeled and scored in forked workers, which need neither
    # multiprocessing (its pool alone is about 18 ms) nor concurrent.futures
    scene = tmp_path / "scene"
    assert run(["synth", "--kind", "labeling", "--seed", "5", "--frames", "2",
                "-o", scene]) == 0
    labels = str(tmp_path / "out")
    for argv in (
        ["autolabel", "--frames", str(scene), "--masks", str(scene),
         "--calibration", str(scene / "calibration.json"), "-o", labels],
        ["eval", "--pred", labels, "--gt", str(scene / "gt_labels"),
         "-o", str(tmp_path / "report.json")],
    ):
        code = (
            f"import sys, radcal.cli; code = radcal.cli.main({argv!r}); print(code, [m for m "
            "in ('numpy.ma', 'multiprocessing', 'concurrent.futures') if m in sys.modules])"
        )
        assert fresh_python(code).splitlines()[-1] == "0 []", argv[0]


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

        # --jobs is accepted and has no effect on the labels
        lab_scene = workflow / "lab_scene"
        for jobs in ("1", "2"):
            assert run(["autolabel", "--frames", lab_scene, "--masks", lab_scene,
                        "--calibration", out1, "--jobs", jobs, "-o", tmp_path / jobs]) == 0
        assert sha256_tree(tmp_path / "1") == sha256_tree(tmp_path / "2")


# sha256 of the files `synth --kind calibration --poses 24 --seed 3
# --pixel-sigma 0.5 --range-sigma 0.02 --angle-sigma 0.003` writes and of
# `calibrate --holdout 0.25` on them: noisy poses, so the solve's result moves
# with any bit of the projection, the LM loop or the writers.
GOLDEN_CALIBRATION = {
    "calibration.json": "08bc7c8f22035a64eaa3268dbb4afedd735d74ca804f75649c9caa616dbcf95c",
    "scene/corners_000.json": "616fc653f0fffdd90030440bad914845ac30060ec630a17dfe331a69a23b266e",
    "scene/corners_001.json": "f05e436271c061a4f072f8733b5274285b05e4bf2868dcaa6e75f1996ad92b1d",
    "scene/corners_002.json": "9349f452f2982254e47beb5687d8ee6e871e95caba253914ab8d3add2bf37770",
    "scene/corners_003.json": "ae3191a98311ab3eece657b7324f2caeb16279a5b70a9af33655abfb292bf385",
    "scene/corners_004.json": "49cbea5cc30fff44a2cf4c96efdf60723d0d3940181c5b399054053166882660",
    "scene/corners_005.json": "183816cccc100527e87ed9541c5bd89886caa1847b0abd29e79197666535b3e1",
    "scene/corners_006.json": "327dedd1d3fca1231ccec8c50f4b096c663178a8c270f7b347f74d6d157e5b6c",
    "scene/corners_007.json": "ce4aca9024a47467fa10a310fff2ca426855b566aa1aa6577dd60f05f1e71df1",
    "scene/corners_008.json": "cc785a0377db1c82f5cd7ee9f1711e49cfa4c94fb6ce9f76081a47798ac821df",
    "scene/corners_009.json": "6fedc2a23d69d8d9d455133d8ef930aff63c0b16c3d406171e4bec56f54e960a",
    "scene/corners_010.json": "3d0639521d1b9158899b8fae80c27c864ba48e11502e9b21758959639a106631",
    "scene/corners_011.json": "8654732b3c28c06934b4404112ada90f6c0ec707ae02d70a75a8d98519402a4a",
    "scene/corners_012.json": "851d04d2e5d3a43d1816883aa8d311bd088a561ec0bc69897a0103a24d142304",
    "scene/corners_013.json": "e2c0b917c6999bfe1799cc1ce0ae07647bcb748cc2b667a23c0da1c5ad6cf5f4",
    "scene/corners_014.json": "7c917688cc7741733ba99d47e904b104e66d36e51092850f3ae036120d70a650",
    "scene/corners_015.json": "6b0399c2d3a0af728cfd38d6fe7910a0fbf5aafc0f018cb135ce1fdd27c01f2f",
    "scene/corners_016.json": "20f08341b076010bbdcf17a213178e4db129ab43601300d9100049ec7cf28676",
    "scene/corners_017.json": "651d64da13ac8ec87af0b2e159eea281eed40b6b5a32238233873b9081066f44",
    "scene/corners_018.json": "755675114d4809ea955b64ad32ddfe772f76f1e898c0db535ef43b53e1e4c472",
    "scene/corners_019.json": "6807b48204e7c5c139b55ee8ace8ec34e8f946704761f624f580cdeb14c92aaf",
    "scene/corners_020.json": "5adef12af85175c6df9de1a61bdd2167fb7c7b623afbe00eda655402f5d3dfd6",
    "scene/corners_021.json": "aaf040b005ecd88af45a59a01d80ef96018b5ee3f2b140c7a1521757a832ba85",
    "scene/corners_022.json": "b28e42b1a663339140aa865585937843fc6322a341cd6fa7829513ffe889029e",
    "scene/corners_023.json": "8a1b66cd9437d5aba32f8c3cf4ba88dca35ff9bbf4e5a0f892425bd45384ab13",
    "scene/ground_truth.json": "fb25ac3c1e98133f3433bdc63fbce1a582a13f3ede7ce93b82e9ec34c8cda2c0",
    "scene/intrinsics.json": "83b99543b1eb05f98775395b632f6ed73767a92d85f53f0d1f845d3069cabce1",
    "scene/radar_000.json": "bb524d934770581c323541db23bef66080de8bf13596122acf54c15760f6356d",
    "scene/radar_001.json": "2d6406f4167e86c97b789076d44e034ad106434a9061191944052722e7918875",
    "scene/radar_002.json": "c815614d175b539c3a36b8bba063d3051c96be054c59735c06598325fa491b8a",
    "scene/radar_003.json": "3cee862d17a780e8dd3154f378a7e08c3e80b961dc8ac2105f4a89056f985d7d",
    "scene/radar_004.json": "a59fc037ec9a4e813203b6875958f8157304f2883ea84085ddbd18ab4b8666e6",
    "scene/radar_005.json": "d433415cf4d2f62a4bd1fadbb789f6f1458fd7d8bf726d5e68ca35539156b8d4",
    "scene/radar_006.json": "d5a58b73a733999d05d7981a3764bf36d1b86cfbb80723381e504581b720ed51",
    "scene/radar_007.json": "de9688808d7d2f270cf8ac30623cc1e205635daf33805d84149ca9fffe103541",
    "scene/radar_008.json": "707f848fb43d1778847bcbe1cff74c41e7b636653223872b0614e92a90260be4",
    "scene/radar_009.json": "ba06a3020ec031c3de81bc83bb7e33d0b556e1419424d0e444d37d22d0bb358d",
    "scene/radar_010.json": "a29b1bf067c50140d8b987cae194a547d31763d6c2bb4b3778d3a24131834776",
    "scene/radar_011.json": "e8561b1eb90625ce67ffc4fcb19540bcc7697952e649c79bf2e49a81909cd4c9",
    "scene/radar_012.json": "3fce6260f9514e129a15a1d143d04922d9bd90e0014fab25cfa10e046053b542",
    "scene/radar_013.json": "9cd7799284815f33c3d21d8118c0866249b38c4b0b6b52235aca01dc1084d6b8",
    "scene/radar_014.json": "f2e18f641524c3db507b005a525ba819e76db36097cfad573e81c3cb2aad3baf",
    "scene/radar_015.json": "51a585f6f2cd3449a7eabf8bb08f9a68cc6e6db00a50f6898bd4417a2377a231",
    "scene/radar_016.json": "f57241bcf22fd60e2b928fc53d3af5ac23488343983cf090b2d57388c93cfaa4",
    "scene/radar_017.json": "d68988a54336d42f167a601a2e856dd8def8e555779d8583000bc7b86b82e1a1",
    "scene/radar_018.json": "839d2d5cc369f44de5b1476421ea93e80a2d5c882bbb64f670e040862c90d6c1",
    "scene/radar_019.json": "be22513570d3a0bd557160e1fecaa6d8788b5ef0e2e6af708dee125fcb6661a6",
    "scene/radar_020.json": "d4030becf5fb150714475072924a40e191c0f685977965efc2971fd3c025b9f2",
    "scene/radar_021.json": "175a6917372844bf9250c114e374770e78b04e3054209bb3e61a94cee054a871",
    "scene/radar_022.json": "ff85ad3c1a703787abc26e0e8d61ed7231ca50e6cb0893608827755ca89dcde1",
    "scene/radar_023.json": "9d643d03d23487c43292030df6d680f79c1d35050140454cc7fd9576639baf0d",
}


def test_calibration_golden_digests(tmp_path):
    scene = tmp_path / "scene"
    assert run(["synth", "--kind", "calibration", "--poses", "24", "--seed", "3",
                "--pixel-sigma", "0.5", "--range-sigma", "0.02", "--angle-sigma", "0.003",
                "-o", scene]) == 0
    assert run(["calibrate", "--corners", scene, "--frames", scene,
                "--intrinsics", scene / "intrinsics.json", "--holdout", "0.25",
                "-o", tmp_path / "calibration.json"]) == 0
    assert sha256_tree(tmp_path) == GOLDEN_CALIBRATION


# sha256 of the GOLDEN_CALIBRATION scene's radar frames rewritten as
# cartesian-variant files (`frames/`) or as one spherical JSON-lines stream
# (`frames.jsonl`), and of `calibrate` on them with and without
# `--holdout 0.25`: the cartesian read goes through the spherical conversion,
# so these move with any bit of it.
GOLDEN_CALIBRATION_FORMS = {
    "cartesian": {
        "calibration.json": "77f5eccf08fbf0d2b34d70e74d6021acc3875513a86ff1944731d68d8b97b9df",
        "calibration_holdout.json": "35f3f98297b77edb06855a4f52ea0ef65b27427bbb96a8cf46917748d15c734c",
        "frames/radar_000.json": "52080b6ea6791186edc2e68022fbc83ed23e62f8fec8bc04f87f80a2ea27482a",
        "frames/radar_001.json": "839c292076ecb4d8f58ccd49d10bf9f4b4c33b6a48a11e2483d993822a7e65e1",
        "frames/radar_002.json": "f40b54fcddf9103d9cfb11cfa91cd34e4191c16a2ab09f6bb3fa0fdc6d12acf7",
        "frames/radar_003.json": "2e887813f357c5d1f3efe9b5fff865b2ae0c6790c8fd54fd0164cf59e3a89354",
        "frames/radar_004.json": "0b324c409f034678372642f647baba2653e6947da966727e09fd36a2ca2300c7",
        "frames/radar_005.json": "89a007b1570492e17b849b13cd65098a40fc9d79afdfa0ef188478b091378a1d",
        "frames/radar_006.json": "ee40344d84d937ca1e9fc21b11ad6bd762418d6e0d26fafc7a9a3551b47d9ca5",
        "frames/radar_007.json": "58f0249d5e86de0adf81d620be4f677a0feb7934d0def4d60b72ac9074274012",
        "frames/radar_008.json": "2d635e269f262fc2d1473f767e39bff34d4c9db5dac8d0f7dd641268011aad0c",
        "frames/radar_009.json": "b6c5a0bd65ef17d16fa81374876ba728ffd3372c86b166f046738c39b74de3de",
        "frames/radar_010.json": "91965ab4ea18a6f287cae4ae0432eb817d43771bd98951f9004d98f8af71a185",
        "frames/radar_011.json": "ec00414ad7bea841bd51f94643316494d37f7c5d234a0267c1de78c0556afc4e",
        "frames/radar_012.json": "5a9f7d6a09a3c967643124310bb37813fc6f392db680355154c3671243c588cb",
        "frames/radar_013.json": "8e03b02424821b35edbc5cc55d77edb95b802b7157a64e1c62a8225811cc3726",
        "frames/radar_014.json": "3f7ab38b5d757f8d4a7f65b50afee4a8c1ca18035f0257544ebc0eae9efb6274",
        "frames/radar_015.json": "dc7d76cb35e3028449227713ba4e1c6aa9e3333cd8f9503e4d81492a269bdd04",
        "frames/radar_016.json": "6739f2e18572811897a9479370ae791df04fec512d6d8bf59def24fb52162426",
        "frames/radar_017.json": "a6966addd60e5b7add577090b94307a9d2d58689e6883ee52849479428f69059",
        "frames/radar_018.json": "e20939d6c5c5548611a0a5f7a57ba7a98d3a68b6b57ef25854c2f3390518eb63",
        "frames/radar_019.json": "4fb10b83a55977866d40ecf266852a4a21666526b59648c9b8c1c27b05803112",
        "frames/radar_020.json": "948c88d8898c2a3036c8b79895cedc843b7c5eaf967eb410c16d3f701e25576f",
        "frames/radar_021.json": "d8c27321fec1dfba337a05c5ed78bb156bd2c4a2d1f95330caa9a337e5eb368d",
        "frames/radar_022.json": "546fc740b0b74690217b0cb8798df99e28f8eacd5a83d79afb47b70bb0c7a60f",
        "frames/radar_023.json": "73a0af5a5db9e6d51f3167ded2967e78f5682c0c0b124f99dfa7c63610a0a95d",
    },
    "jsonl": {
        "calibration.json": "fe920075750398c59ce7043a110214e85a12b859f2533ed45d159a6d1512d0d7",
        "calibration_holdout.json": "08bc7c8f22035a64eaa3268dbb4afedd735d74ca804f75649c9caa616dbcf95c",
        "frames.jsonl": "930de05e5eed1adf4b5842f084381d088dc03cc14132a5f792a054038381dea0",
    },
}


@pytest.mark.parametrize("form", sorted(GOLDEN_CALIBRATION_FORMS))
def test_calibration_golden_digests_other_frame_forms(tmp_path, form):
    scene = tmp_path / "scene"
    assert run(["synth", "--kind", "calibration", "--poses", "24", "--seed", "3",
                "--pixel-sigma", "0.5", "--range-sigma", "0.02", "--angle-sigma", "0.003",
                "-o", scene]) == 0
    pinned = tmp_path / "pinned"
    pinned.mkdir()
    frames = [load_radar_frame(p) for p in sorted(scene.glob("radar_*.json"))]
    if form == "cartesian":
        inputs = pinned / "frames"
        inputs.mkdir()
        for i, frame in enumerate(frames):
            ret = frame.returns
            xyz = sph2cart(ret["r_m"], ret["az_rad"], ret["el_rad"])
            write_radar_points(inputs / f"radar_{i:03d}.json", frame.timestamp_s,
                               PointCloud(xyz, ret["v_mps"], ret["rcs_dbsm"]))
    else:
        inputs = pinned / "frames.jsonl"
        write_radar_frames_stream(inputs, frames)
    for name, holdout in (("calibration.json", "0"), ("calibration_holdout.json", "0.25")):
        assert run(["calibrate", "--corners", scene, "--frames", inputs,
                    "--intrinsics", scene / "intrinsics.json", "--holdout", holdout,
                    "-o", pinned / name]) == 0
    assert sha256_tree(pinned) == GOLDEN_CALIBRATION_FORMS[form]


# sha256 of the files `synth --kind labeling --seed 8 --frames 2 --fp-rate 0.1
# --fn-rate 0.1` writes and of their `autolabel --stage full` labels, pinned
# from the scalar labeling path: a change to the generator, the labeling
# stages or the writers that moves one byte fails here.
GOLDEN_LABELING = {
    "labels/labels_000.jsonl": "839459f7fc621272614aef14f7aae8217387c7084d84cfdf19d0e9ad35aefb43",
    "labels/labels_001.jsonl": "7108533c94a6d9f7521944632775e360de7de348aef0461e8a33a06f2ad939ff",
    "scene/calibration.json": "5ae411e8012a7c727efdf6bf07fa3f97f4bad3c01e46924323b01e510af0c248",
    "scene/ground_truth.json": "29d1d32c558d692f7065ba77f2b4d2eae5386d36ef3a4ddec96837c6fae16930",
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


# The same files for hull masks: `synth --kind labeling --seed 8 --frames 2`
# with the scene config below, and their `autolabel --stage full` labels.
HULL_SCENE_CONFIG = {"mask_shape": "hull", "false_positive_rate": 0.1, "false_negative_rate": 0.1}
GOLDEN_LABELING_HULL = {
    "labels/labels_000.jsonl": "839459f7fc621272614aef14f7aae8217387c7084d84cfdf19d0e9ad35aefb43",
    "labels/labels_001.jsonl": "7108533c94a6d9f7521944632775e360de7de348aef0461e8a33a06f2ad939ff",
    "scene/calibration.json": "5ae411e8012a7c727efdf6bf07fa3f97f4bad3c01e46924323b01e510af0c248",
    "scene/ground_truth.json": "29d1d32c558d692f7065ba77f2b4d2eae5386d36ef3a4ddec96837c6fae16930",
    "scene/gt_labels/labels_000.jsonl": "46ea6000adf3842f102b7c05ca7158c5f362809b656222c44ede4aeeda2c8ea5",
    "scene/gt_labels/labels_001.jsonl": "563f1350792060069073698232255239e5b197ca27959340a411e0681c810d01",
    "scene/masks_000.json": "136c876873659954b6503d919b669093a55179fc6be314729c4236261609127c",
    "scene/masks_001.json": "2d520f287f85e0aba0142fd4f7b388a127ee9f36384609e35457680fb11ab38d",
    "scene/radar_000.json": "acf2cad02304beef471bcf883e16a9b6a15cab49047149e5cbcdcf0dfcc13114",
    "scene/radar_001.json": "2ce4539453e564102624bcbe8c1e35452a481b98e93fa64f151db4d8d148d3b9",
}


def test_labeling_golden_digests_hull_masks(tmp_path):
    config = tmp_path / "hull.json"
    config.write_text(json.dumps(HULL_SCENE_CONFIG))
    out = tmp_path / "out"
    scene = out / "scene"
    assert run(["synth", "--kind", "labeling", "--seed", "8", "--frames", "2",
                "--config", config, "-o", scene]) == 0
    assert run(["autolabel", "--frames", scene, "--masks", scene,
                "--calibration", scene / "calibration.json", "--stage", "full",
                "-o", out / "labels"]) == 0
    assert sha256_tree(out) == GOLDEN_LABELING_HULL


def test_labeling_golden_digests_without_dense_masks(tmp_path, monkeypatch):
    # masks stay runs from the generator through the file to the labels:
    # no dense mask is built or decoded anywhere, for either mask shape
    def refuse(*args):
        raise AssertionError("a dense mask was built or decoded")

    monkeypatch.setattr(al, "runs_to_dense", refuse)
    monkeypatch.setattr(al, "dense_to_runs", refuse)
    monkeypatch.setattr(InstanceMask, "mask", property(refuse))
    monkeypatch.setattr(InstanceMask, "from_dense", classmethod(refuse))
    (tmp_path / "rect").mkdir()
    (tmp_path / "hull").mkdir()
    test_labeling_golden_digests(tmp_path / "rect")
    test_labeling_golden_digests_hull_masks(tmp_path / "hull")


# The files of one dense frame, `synth --kind labeling --seed 7 --frames 1`
# with the benchmark's label-dense scene config: 20 objects of 150-250
# points and 2,000 clutter points, where the golden scenes above draw 30.
DENSE_SCENE_CONFIG = {
    "object_count": 20,
    "points_per_object": [150, 250],
    "range_m": [6.0, 60.0],
    "clutter_count": 2000,
    "false_positive_rate": 0.1,
    "false_negative_rate": 0.1,
}
GOLDEN_LABELING_DENSE = {
    "calibration.json": "5ae411e8012a7c727efdf6bf07fa3f97f4bad3c01e46924323b01e510af0c248",
    "ground_truth.json": "b444133de4b3004e1e066bb3f95af64c3370559bdbf90c9b597a74047fe4ad54",
    "gt_labels/labels_000.jsonl": "762e60bb8d2d6d2d5e08a05418eec1c674502bace05e16fd136a13ca50350327",
    "masks_000.json": "ca2b41dcb49f468a8e00a6785b296ed57140037d6eabdc25ecbc0f4e6084eee4",
    "radar_000.json": "31dc73baecd9c3d8e91a497957a1810dcf983daf179b36412b9d53e83991d072",
}


def test_labeling_golden_digests_dense_scene(tmp_path):
    config = tmp_path / "dense.json"
    config.write_text(json.dumps(DENSE_SCENE_CONFIG))
    scene = tmp_path / "scene"
    assert run(["synth", "--kind", "labeling", "--seed", "7", "--frames", "1",
                "--config", config, "-o", scene]) == 0
    assert sha256_tree(scene) == GOLDEN_LABELING_DENSE


@pytest.mark.parametrize(
    "seed, doc",
    [
        (8, {}),
        (8, {"false_positive_rate": 0.1, "false_negative_rate": 0.1}),
        (8, HULL_SCENE_CONFIG),
        (7, DENSE_SCENE_CONFIG),
    ],
    ids=["clean", "fp-fn", "hull", "dense"],
)
def test_gt_labels_file_holds_each_objects_points_in_object_order(tmp_path, seed, doc):
    # ground_truth.json names no point indices, so the true labels' layout is
    # pinned here: the objects' points first, in object order, then every
    # other point unlabeled
    config = tmp_path / "scene.json"
    config.write_text(json.dumps(doc))
    assert run(["synth", "--kind", "labeling", "--seed", seed, "--config", config,
                "-o", tmp_path / "scene"]) == 0
    labels = load_labels(tmp_path / "scene" / "gt_labels" / "labels_000.jsonl")
    cfg = LabelSceneConfig(
        seed=seed, **{name: tuple(v) if isinstance(v, list) else v for name, v in doc.items()}
    )
    scene = synth.gen_label_scene(cfg)
    assert column_bytes(labels) == column_bytes(scene.gt_labels)

    start = 0
    for o in scene.objects:
        n = len(o.positions)
        assert np.count_nonzero(labels.labeled & (labels.instance_id == o.instance_id)) == n
        stop = start + n
        assert labels.labeled[start:stop].all()
        assert (labels.class_id[start:stop] == o.class_id).all()
        assert (labels.instance_id[start:stop] == o.instance_id).all()
        assert scene.points.xyz[start:stop].tobytes() == o.positions.tobytes()
        start = stop
    assert np.array_equal(labels.labeled, np.arange(len(labels)) < start)


def test_synth_allocates_no_image_sized_array(tmp_path):
    tracemalloc.start()
    try:
        assert run(["synth", "--kind", "labeling", "--seed", "8", "--frames", "2",
                    "-o", tmp_path / "scene"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = default_intrinsics()
    assert peak < k.width * k.height  # one byte per pixel: a bool mask


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
    write_labels(pred / "labels_000.jsonl", truth_columns([(1, 1), (1, 1), None]))
    write_labels(gt / "labels_000.jsonl", truth_columns([None] * 3))
    assert run(["eval", "--pred", pred, "--gt", gt, "-o", tmp_path / "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["per_frame"][0]["miou_percent"] == 0.0
    assert report["miou_percent"] == 0.0
    table = (tmp_path / "report.txt").read_text().splitlines()
    assert table[-1].split()[:4] == ["all", "33.33", "100.00", "0.00"]


def test_eval_names_ground_truth_frames_without_prediction(tmp_path, capsys):
    # a labels directory that lacks frames of the ground truth; eval used to
    # score the rest in silence, as if the run were whole
    scene, labels = tmp_path / "scene", tmp_path / "labels"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "6", "-o", scene]) == 0
    assert run(["autolabel", "--frames", scene, "--masks", scene,
                "--calibration", scene / "calibration.json", "-o", labels]) == 0
    (labels / "labels_004.jsonl").unlink()
    (labels / "labels_005.jsonl").unlink()
    capsys.readouterr()
    assert run(["eval", "--pred", labels, "--gt", scene / "gt_labels",
                "-o", tmp_path / "report.json"]) == 0
    assert capsys.readouterr().err == "warning: no prediction for ground-truth frame(s) [4, 5]\n"

    assert json.loads((tmp_path / "report.json").read_text())["n_frames"] == 4
    # with every frame predicted, nothing is printed to stderr
    assert run(["eval", "--pred", scene / "gt_labels", "--gt", scene / "gt_labels",
                "-o", tmp_path / "self.json"]) == 0
    assert capsys.readouterr().err == ""


def test_failed_autolabel_leaves_its_output_as_found(tmp_path):
    # a truncated frame 4 of 6 used to leave labels_000-003, which eval then
    # scored as a whole run
    scene, old = tmp_path / "scene", tmp_path / "old"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "6", "-o", scene]) == 0
    argv = ["autolabel", "--frames", scene, "--masks", scene,
            "--calibration", scene / "calibration.json", "-o"]
    assert run([*argv, old]) == 0
    before = sha256_tree(old)
    radar = scene / "radar_004.json"
    radar.write_text(radar.read_text()[:200])
    assert run([*argv, tmp_path / "new" / "labels"]) == 4
    assert not (tmp_path / "new").exists()
    assert run([*argv, old]) == 4
    assert sha256_tree(old) == before


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def radcal_env() -> dict:
    """This environment, with the radcal under test importable by a child
    Python and one BLAS thread."""
    src = str(Path(radcal.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                OPENBLAS_NUM_THREADS="1")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_cpus(monkeypatch, count: int):
    """Make the frame workers see ``count`` CPUs, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process run."""
    capsys.readouterr()
    code = run(argv)
    return (code, *capsys.readouterr())


def dangle(path):
    """Replace ``path`` with a symlink to nothing: listed, but not readable."""
    path.unlink()
    path.symlink_to(path.parent / "nowhere.json")


def wrong_size_masks(path):
    small = InstanceMask.from_dense(np.ones((50, 50), dtype=bool), 1, 1, 0.9)
    write_masks(path, 50, 50, [small])


# fault -> (how to put it into a scene frame, the exit code it ends in)
FRAME_FAULTS = {
    "malformed_radar": (lambda scene, i: (scene / f"radar_{i:03d}.json").write_text("{"), 4),
    "wrong_mask_size": (lambda scene, i: wrong_size_masks(scene / f"masks_{i:03d}.json"), 4),
    "missing_masks": (lambda scene, i: dangle(scene / f"masks_{i:03d}.json"), 3),
}


# (frame, fault) pairs on 4 frames; with two CPUs, frames 0-1 are the
# parent's chunk and 2-3 the forked worker's
@pytest.mark.parametrize(
    "faults",
    [
        *([(1, fault)] for fault in FRAME_FAULTS),
        *([(3, fault)] for fault in FRAME_FAULTS),
        [(1, "missing_masks"), (2, "malformed_radar")],
        [(0, "wrong_mask_size"), (3, "missing_masks")],
        [(2, "missing_masks"), (3, "wrong_mask_size")],
    ],
    ids=lambda faults: "+".join(f"{fault}@{i}" for i, fault in faults),
)
def test_autolabel_first_failing_frame_decides_for_any_cpu_count(
    tmp_path, capsys, monkeypatch, faults
):
    scene, out = tmp_path / "scene", tmp_path / "labels"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "4", "-o", scene]) == 0
    argv = ["autolabel", "--frames", scene, "--masks", scene,
            "--calibration", scene / "calibration.json", "-o", out]
    assert run(argv) == 0
    before = sha256_tree(out)
    for i, fault in faults:
        FRAME_FAULTS[fault][0](scene, i)
    seen = {}
    for cpus in (1, 2):  # one worker per CPU
        use_cpus(monkeypatch, cpus)
        seen[cpus] = outcome(capsys, argv)
        assert sha256_tree(out) == before
    assert seen[2] == seen[1]
    first, fault = faults[0]
    code, stdout, stderr = seen[1]
    assert code == FRAME_FAULTS[fault][1] and stdout == ""
    assert f"_{first:03d}.json" in stderr and stderr.count("\n") == 1
    assert_no_child_left()


def drop_last_label(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def break_label_line(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = '{"point_index": 2, "class_id":\n'
    path.write_text("".join(lines))


# fault -> (how to put it into a predicted labels file, the stderr it names
# frame i by)
EVAL_FAULTS = {
    "length_mismatch": (drop_last_label, "frame {}: "),
    "malformed_line": (break_label_line, "labels_{:03d}.jsonl:3: "),
}


@pytest.mark.parametrize(
    "faults",
    [
        *([(1, fault)] for fault in EVAL_FAULTS),
        *([(3, fault)] for fault in EVAL_FAULTS),
        [(1, "malformed_line"), (2, "length_mismatch")],
        [(0, "length_mismatch"), (3, "malformed_line")],
        [(2, "malformed_line"), (3, "length_mismatch")],
    ],
    ids=lambda faults: "+".join(f"{fault}@{i}" for i, fault in faults),
)
def test_eval_first_failing_frame_decides_for_any_cpu_count(tmp_path, capsys, monkeypatch, faults):
    scene, pred, out = tmp_path / "scene", tmp_path / "pred", tmp_path / "out"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "4", "-o", scene]) == 0
    shutil.copytree(scene / "gt_labels", pred)
    out.mkdir()
    argv = ["eval", "--pred", pred, "--gt", scene / "gt_labels", "-o", out / "report.json"]
    assert run(argv) == 0
    before = sha256_tree(out)
    for i, fault in faults:
        EVAL_FAULTS[fault][0](pred / f"labels_{i:03d}.jsonl")
    seen = {}
    for cpus in (1, 2):  # one worker per CPU
        use_cpus(monkeypatch, cpus)
        seen[cpus] = outcome(capsys, argv)
        assert sha256_tree(out) == before
    assert seen[2] == seen[1]
    first, fault = faults[0]
    code, stdout, stderr = seen[1]
    assert code == 4 and stdout == ""
    assert EVAL_FAULTS[fault][1].format(first) in stderr and stderr.count("\n") == 1
    assert_no_child_left()


def test_autolabel_worker_death_exit_3(tmp_path, capsys, monkeypatch):
    # a worker killed mid-run is a documented exit, not a traceback or a hang
    use_cpus(monkeypatch, 2)
    parent, label_frame = os.getpid(), al.autolabel_frame

    def dying(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return label_frame(*args)

    scene, out = tmp_path / "scene", tmp_path / "labels"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "4", "-o", scene]) == 0
    argv = ["autolabel", "--frames", scene, "--masks", scene,
            "--calibration", scene / "calibration.json", "-o", out]
    assert run(argv) == 0
    before = sha256_tree(out)
    monkeypatch.setattr(al, "autolabel_frame", dying)
    with deadline(60):
        code, stdout, stderr = outcome(capsys, argv)
    assert code == cli.EXIT_IO and stdout == ""
    assert stderr == "io error: a worker process ended by signal 9\n"
    assert sha256_tree(out) == before
    assert_no_child_left()


# fault -> (what a synthetic frame raises, the stderr line it ends in)
SCENE_FAULTS = {
    "fov_infeasible": (synth.FovInfeasible, "config error: frame seed {}\n"),
    "out_of_memory": (MemoryError, "config error: bad labeling scene config: out of memory\n"),
}


# (frame, fault) pairs on 4 frames; with two CPUs, frames 0-1 are the
# parent's chunk and 2-3 the forked worker's
@pytest.mark.parametrize(
    "faults",
    [
        *([(i, fault)] for i in (1, 3) for fault in SCENE_FAULTS),
        [(1, "out_of_memory"), (2, "fov_infeasible")],
        [(2, "fov_infeasible"), (3, "out_of_memory")],
    ],
    ids=lambda faults: "+".join(f"{fault}@{i}" for i, fault in faults),
)
def test_synth_first_failing_frame_decides_for_any_cpu_count(
    tmp_path, capsys, monkeypatch, faults
):
    failing = {100 + i: SCENE_FAULTS[fault][0] for i, fault in faults}  # by seed
    label_scene = synth.gen_label_scene

    def faulty(cfg):
        if cfg.seed in failing:
            raise failing[cfg.seed](f"frame seed {cfg.seed}")
        return label_scene(cfg)

    monkeypatch.setattr(synth, "gen_label_scene", faulty)
    out = tmp_path / "scene"
    argv = ["synth", "--kind", "labeling", "--seed", "100", "--frames", "4", "-o", out]
    seen = {}
    for cpus in (1, 2):  # one worker per CPU
        use_cpus(monkeypatch, cpus)
        seen[cpus] = outcome(capsys, argv)
        assert not out.exists()
    assert seen[2] == seen[1]
    first, fault = faults[0]
    assert seen[1] == (cli.EXIT_CONFIG, "", SCENE_FAULTS[fault][1].format(100 + first))
    assert_no_child_left()


def test_synth_worker_death_exit_3(tmp_path, capsys, monkeypatch):
    use_cpus(monkeypatch, 2)
    parent, label_scene = os.getpid(), synth.gen_label_scene

    def dying(cfg):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return label_scene(cfg)

    monkeypatch.setattr(synth, "gen_label_scene", dying)
    out = tmp_path / "scene"
    with deadline(60):
        code, stdout, stderr = outcome(
            capsys, ["synth", "--kind", "labeling", "--seed", "3", "--frames", "4", "-o", out])
    assert (code, stdout) == (cli.EXIT_IO, "")
    assert stderr == "io error: a worker process ended by signal 9\n"
    assert not out.exists()
    assert_no_child_left()


def interrupt_at(monkeypatch, loader: str, name: str):
    """Make ``fileio.<loader>`` raise KeyboardInterrupt, as Ctrl-C would,
    when it reads a file called ``name``."""
    load = getattr(fileio, loader)

    def interrupted(path, *args):
        if Path(path).name == name:
            raise KeyboardInterrupt
        return load(path, *args)

    monkeypatch.setattr(fileio, loader, interrupted)


def interrupted_outcome(capsys, argv) -> tuple:
    """``outcome`` of a run that ``cli.main`` must end itself; an escaping
    KeyboardInterrupt would stop the whole test session."""
    try:
        return outcome(capsys, argv)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")


def test_calibrate_interrupted_exit_130(tmp_path, capsys, monkeypatch):
    scene, out = tmp_path / "scene", tmp_path / "c.json"
    assert run(["synth", "--kind", "calibration", "--poses", "3", "--seed", "1", "-o", scene]) == 0
    interrupt_at(monkeypatch, "load_corners", "corners_001.json")
    code, stdout, stderr = interrupted_outcome(capsys, [
        "calibrate", "--corners", scene, "--frames", scene,
        "--intrinsics", scene / "intrinsics.json", "-o", out])
    assert (code, stderr) == (cli.EXIT_INTERRUPTED, "interrupted\n")
    assert not out.exists() and not list(tmp_path.rglob("*.tmp"))


# with two CPUs, frames 0-1 are the parent's chunk and 2-3 the forked worker's
@pytest.mark.parametrize("frame", [0, 3], ids=["parent_chunk", "worker_chunk"])
def test_autolabel_interrupted_exit_130(tmp_path, capsys, monkeypatch, frame):
    use_cpus(monkeypatch, 2)
    scene, out = tmp_path / "scene", tmp_path / "labels"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "4", "-o", scene]) == 0
    interrupt_at(monkeypatch, "load_masks", f"masks_{frame:03d}.json")
    fork, workers = cli._fork_worker, []

    def recorded_fork(*args):
        pid, read = fork(*args)
        workers.append(pid)
        return pid, read

    monkeypatch.setattr(cli, "_fork_worker", recorded_fork)
    with deadline(60):
        code, stdout, stderr = interrupted_outcome(capsys, [
            "autolabel", "--frames", scene, "--masks", scene,
            "--calibration", scene / "calibration.json", "-o", out])
    assert (code, stdout, stderr) == (cli.EXIT_INTERRUPTED, "", "interrupted\n")
    assert not out.exists() and not list(tmp_path.rglob("*.tmp"))
    assert len(workers) == 1
    assert_no_child_left()


# ``cli.main`` in a child Python started as a shell starts a command (SIGTERM
# and SIGHUP at their defaults, Ctrl-C raising KeyboardInterrupt), with two
# CPUs.  Each label and each synthetic frame stalls; the process prints its
# forked workers' pids once it has stalled itself.
STALLING_COMMAND = """
import os, signal, sys, time
from radcal import autolabel, cli, synth

for signum in (signal.SIGTERM, signal.SIGHUP):
    signal.signal(signum, signal.SIG_DFL)
signal.signal(signal.SIGINT, signal.default_int_handler)
parent, workers = os.getpid(), []
fork = cli._fork_worker

def fork_and_keep(fn, chunk):
    pid, read = fork(fn, chunk)
    workers.append(pid)
    return pid, read

def stall(*args):
    if os.getpid() == parent:
        print(*workers, flush=True)
    time.sleep(60)

cli._jobs = lambda: 2
cli._fork_worker = fork_and_keep
autolabel.autolabel_frame = stall
synth.gen_label_scene = stall
sys.exit(cli.main(sys.argv[1:]))
"""


def still_alive(pids) -> set:
    """Those of ``pids`` still running (or unreaped) after up to 10 s."""
    alive = set(pids)
    for _ in range(100):
        for pid in list(alive):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                alive.discard(pid)
        if not alive:
            break
        time.sleep(0.1)
    return alive


@pytest.mark.parametrize(
    "command, signum, code",
    [
        ("autolabel", signal.SIGTERM, 143),
        ("autolabel", signal.SIGHUP, 129),
        ("autolabel", signal.SIGINT, 130),
        ("synth", signal.SIGTERM, 143),
    ],
    ids=["autolabel-SIGTERM", "autolabel-SIGHUP", "autolabel-SIGINT", "synth-SIGTERM"],
)
def test_signal_unwinds_the_command(tmp_path, command, signum, code):
    # SIGTERM used to end the process at once: every staged *.tmp stayed in
    # -o, and a forked worker could outlive its parent
    scene, out = tmp_path / "scene", tmp_path / "out"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "3", "-o", scene]) == 0
    argv = {
        "autolabel": ["autolabel", "--frames", scene, "--masks", scene,
                      "--calibration", scene / "calibration.json", "-o", out],
        "synth": ["synth", "--kind", "labeling", "--seed", "3", "--frames", "3", "-o", out],
    }[command]
    proc = subprocess.Popen([sys.executable, "-c", STALLING_COMMAND, *map(str, argv)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=radcal_env())
    try:
        with deadline(60):
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            proc.send_signal(signum)
            stdout, stderr = proc.communicate()
    finally:
        proc.kill()  # no-op once it has exited
        proc.wait()
    assert (proc.returncode, stdout, stderr) == (code, "", "interrupted\n")
    assert len(workers) == 1  # 3 frames, 2 CPUs
    assert not out.exists() and not list(tmp_path.rglob("*.tmp"))
    assert not still_alive(workers)  # the parent reaps its workers before it exits


# As STALLING_COMMAND, but the process sends itself SIGTERM as soon as
# ``os.fork`` returns in it, before ``_forked_map`` has recorded the worker;
# it prints each worker's pid first.  Each synthetic frame stalls in a worker.
SIGTERM_AFTER_FORK = """
import os, signal, sys, time
from radcal import cli, synth

signal.signal(signal.SIGTERM, signal.SIG_DFL)
parent, fork, label_scene = os.getpid(), os.fork, synth.gen_label_scene

def fork_then_sigterm():
    pid = fork()
    if pid:
        print(pid, flush=True)
        os.kill(parent, signal.SIGTERM)
    return pid

def stall_in_worker(cfg):
    if os.getpid() != parent:
        time.sleep(60)
    return label_scene(cfg)

cli._jobs = lambda: 2
os.fork = fork_then_sigterm
synth.gen_label_scene = stall_in_worker
sys.exit(cli.main(sys.argv[1:]))
"""


def test_signal_right_after_fork_kills_the_worker(tmp_path):
    # a signal that landed between the fork and the worker's record ended
    # the command with its worker unkilled: it ran on, reparented, until its
    # chunk was done
    out, stdout, stderr = tmp_path / "out", tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    argv = ["synth", "--kind", "labeling", "--seed", "3", "--frames", "4", "-o", str(out)]
    # files, not pipes: a worker left running would hold a pipe open
    with stdout.open("w") as out_file, stderr.open("w") as err_file:
        proc = subprocess.Popen([sys.executable, "-c", SIGTERM_AFTER_FORK, *argv],
                                stdout=out_file, stderr=err_file, env=radcal_env())
    try:
        with deadline(60):
            proc.wait()
    finally:
        proc.kill()  # no-op once it has exited
        proc.wait()
    workers = [int(pid) for pid in stdout.read_text().split()]
    try:
        assert (proc.returncode, stderr.read_text()) == (143, "interrupted\n")
        assert len(workers) == 1  # 4 frames, 2 CPUs
        assert not out.exists() and not list(tmp_path.rglob("*.tmp"))
        assert not still_alive(workers)
    finally:
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_bad_overlay_input_wins_over_a_labels_fault(workflow, tmp_path, capsys):
    # the overlay inputs are read before any frame is scored; a labels fault
    # in any frame used to win over them (exit 4 here)
    pred, missing = tmp_path / "pred", tmp_path / "missing.json"
    shutil.copytree(workflow / "labels_out", pred)
    labels = pred / "labels_000.jsonl"
    labels.write_text("".join(labels.read_text().splitlines(keepends=True)[:-1]))
    gt = workflow / "lab_scene" / "gt_labels"
    assert run(["eval", "--pred", pred, "--gt", gt, "-o", tmp_path / "report.json"]) == 4
    code, stdout, stderr = outcome(capsys, [
        "eval", "--pred", pred, "--gt", gt, "--overlay-frames", workflow / "lab_scene",
        "--overlay-calibration", missing, "-o", tmp_path / "report.json"])
    assert (code, stdout) == (cli.EXIT_IO, "")
    assert stderr == f"io error: [Errno 2] No such file or directory: '{missing}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pred"]


class TestForkedMap:
    @pytest.mark.parametrize("jobs", [1, 2, 3, 5])
    def test_same_results_as_a_loop(self, jobs):
        for n in range(8):
            items = [f"item {k}" for k in range(n)]
            assert cli._forked_map(str.upper, items, jobs) == [x.upper() for x in items]
        assert_no_child_left()

    def test_first_failing_item_in_order_raises(self):
        def fn(x):
            if x in (3, 4, 5):  # the second and third of three chunks fail
                raise ValueError(f"item {x}")
            return x

        with pytest.raises(ValueError, match="^item 3$"):
            cli._forked_map(fn, list(range(6)), 3)
        assert_no_child_left()

    def test_worker_killed_by_signal_is_an_error(self):
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return x

        with deadline(60), pytest.raises(ChildProcessError, match="ended by signal 9$"):
            cli._forked_map(fn, list(range(4)), 2)
        assert_no_child_left()

    def test_unsendable_result_is_an_error(self):
        # a worker whose result cannot be pickled ends with status 1
        with deadline(60), pytest.raises(ChildProcessError, match="with status 1"):
            cli._forked_map(lambda x: (lambda: x), list(range(4)), 2)
        assert_no_child_left()

    def test_failing_parent_chunk_stops_the_workers(self):
        parent = os.getpid()

        def fn(x):
            if os.getpid() == parent:
                raise KeyError(x)
            time.sleep(60)

        start = time.monotonic()
        with deadline(60), pytest.raises(KeyError):
            cli._forked_map(fn, list(range(4)), 4)
        assert time.monotonic() - start < 30
        assert_no_child_left()


@settings(max_examples=20)
@given(
    seed=st.integers(0, 2**20),
    frames=st.integers(1, 6),
    objects=st.integers(1, 6),
    cpus=st.integers(1, 4),
)
def test_forked_labels_and_reports_byte_identical(seed, frames, objects, cpus):
    # labels, report.json / report.txt and overlays equal the one-CPU bytes
    # with up to 4 forked workers (more CPUs than frames at times), and with
    # os.fork missing, where every frame runs in the parent
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        root = Path(tmp)
        scene = root / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", seed, "--frames", frames,
                    "--objects", objects, "--fp-rate", "0.1", "--fn-rate", "0.1",
                    "-o", scene]) == 0

        def label_and_score(name):
            labels, report = root / name / "labels", root / name / "report"
            report.mkdir(parents=True)
            assert run(["autolabel", "--frames", scene, "--masks", scene,
                        "--calibration", scene / "calibration.json", "-o", labels]) == 0
            assert run(["eval", "--pred", labels, "--gt", scene / "gt_labels",
                        "--overlay-frames", scene,
                        "--overlay-calibration", scene / "calibration.json",
                        "--overlay-dir", report / "overlay", "-o", report / "report.json"]) == 0
            return sha256_tree(root / name)

        use_cpus(patch, 1)
        serial = label_and_score("serial")
        assert len(serial) == 2 * frames + 2  # labels and overlays, report.json and .txt
        use_cpus(patch, cpus)
        assert label_and_score("forked") == serial
        patch.delattr(os, "fork")
        assert label_and_score("no_fork") == serial
    assert_no_child_left()


@pytest.mark.parametrize("frames", [1, 2, 5])
def test_forked_scene_byte_identical(tmp_path, monkeypatch, frames):
    # synth draws and writes its labeling frames in forked workers and joins
    # their ground truths into one ground_truth.json: the same bytes at one
    # CPU, at several (more than frames at times) and with os.fork missing
    argv = ["synth", "--kind", "labeling", "--seed", "11", "--frames", frames,
            "--fp-rate", "0.1", "--fn-rate", "0.1", "-o"]
    use_cpus(monkeypatch, 1)
    assert run([*argv, tmp_path / "serial"]) == 0
    serial = sha256_tree(tmp_path / "serial")
    assert len(serial) == 3 * frames + 2  # per frame 3 files, ground truth, calibration
    for cpus in (2, 4):
        use_cpus(monkeypatch, cpus)
        assert run([*argv, tmp_path / f"cpus{cpus}"]) == 0
        assert sha256_tree(tmp_path / f"cpus{cpus}") == serial
    monkeypatch.delattr(os, "fork")
    assert run([*argv, tmp_path / "no_fork"]) == 0
    assert sha256_tree(tmp_path / "no_fork") == serial
    truth = json.loads((tmp_path / "serial" / "ground_truth.json").read_text())
    assert ("frames" in truth) == (frames > 1)
    assert_no_child_left()


def test_command_replaces_only_the_files_it_writes(tmp_path, capsys):
    # a 2-frame run into the labels of an earlier 3-frame run replaces
    # labels_000-001 and leaves the stale labels_002, which eval names
    def autolabel(scene, out):
        return run(["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", scene / "calibration.json", "-o", out])

    big, small = tmp_path / "big", tmp_path / "small"
    labels, fresh = tmp_path / "labels", tmp_path / "fresh"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "3", "-o", big]) == 0
    assert run(["synth", "--kind", "labeling", "--seed", "4", "--frames", "2", "-o", small]) == 0
    assert autolabel(big, labels) == 0
    earlier = sha256_tree(labels)
    assert autolabel(small, labels) == 0
    assert autolabel(small, fresh) == 0
    now = sha256_tree(labels)
    assert now == {**sha256_tree(fresh), "labels_002.jsonl": earlier["labels_002.jsonl"]}
    assert now["labels_000.jsonl"] != earlier["labels_000.jsonl"]
    capsys.readouterr()
    assert run(["eval", "--pred", labels, "--gt", small / "gt_labels",
                "-o", tmp_path / "report.json"]) == 0
    assert capsys.readouterr().err == "warning: no ground truth for predicted frame(s) [2]\n"


@pytest.mark.parametrize("fault, code", [("missing_calibration", 3), ("truncated_frame", 4)])
def test_failed_eval_overlay_writes_nothing(workflow, tmp_path, fault, code):
    # the report and table used to be written before the overlay failed
    frames, out = tmp_path / "frames", tmp_path / "out"
    frames.mkdir()
    out.mkdir()
    radar = (workflow / "lab_scene" / "radar_000.json").read_text()
    calibration = workflow / "calibration.json"
    if fault == "missing_calibration":
        calibration = tmp_path / "missing.json"
    else:
        radar = radar[:200]
    (frames / "radar_000.json").write_text(radar)
    assert run(["eval", "--pred", workflow / "labels_out",
                "--gt", workflow / "lab_scene" / "gt_labels",
                "--overlay-frames", frames, "--overlay-calibration", calibration,
                "-o", out / "report.json"]) == code
    assert list(out.iterdir()) == []


def test_eval_overlay_point_count_mismatch_exit_4(tmp_path, capsys):
    # the overlay pairs a frame's points with its labels by position; another
    # scene's radar file (148 points for 107 labels) was exit 0 with labels
    # drawn on the wrong points' pixels
    scene, other = tmp_path / "scene", tmp_path / "other"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "2", "-o", scene]) == 0
    assert run(["synth", "--kind", "labeling", "--seed", "5", "--frames", "2", "-o", other]) == 0
    frames, out = tmp_path / "frames", tmp_path / "out"
    shutil.copytree(scene, frames)
    shutil.copy(other / "radar_001.json", frames / "radar_001.json")
    points = len(fileio.load_radar_points(frames / "radar_001.json")[1])
    labels = len(fileio.load_labels(scene / "gt_labels" / "labels_001.jsonl"))
    assert points != labels
    out.mkdir()
    code, stdout, stderr = outcome(capsys, [
        "eval", "--pred", scene / "gt_labels", "--gt", scene / "gt_labels",
        "--overlay-frames", frames, "--overlay-calibration", scene / "calibration.json",
        "-o", out / "report.json"])
    assert (code, stdout) == (cli.EXIT_INVALID, "")
    assert stderr == (f"invalid input: frame 1: {points} radar points in "
                      f"{frames / 'radar_001.json'} vs {labels} predicted labels\n")
    assert list(out.iterdir()) == []


def test_eval_empty_frame_exit_4_naming_the_frame(tmp_path, capsys):
    # autolabel writes an empty labels file for a radar frame with no points;
    # eval stopped on it with "no points to evaluate", naming no frame
    scene, frames, pred = tmp_path / "scene", tmp_path / "frames", tmp_path / "pred"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "--frames", "2", "-o", scene]) == 0
    shutil.copytree(scene, frames)
    nothing = np.empty((0, 3))
    fileio.write_radar_points(frames / "radar_001.json", 0.0, PointCloud(nothing, [], []))
    assert run(["autolabel", "--frames", frames, "--masks", frames,
                "--calibration", scene / "calibration.json", "-o", pred]) == 0
    assert (pred / "labels_001.jsonl").read_bytes() == b""
    shutil.copy(pred / "labels_001.jsonl", frames / "gt_labels" / "labels_001.jsonl")
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, stderr = outcome(capsys, [
        "eval", "--pred", pred, "--gt", frames / "gt_labels", "-o", out / "report.json"])
    assert (code, stdout) == (cli.EXIT_INVALID, "")
    assert stderr == (
        f"invalid input: frame 1: no points to evaluate in {pred / 'labels_001.jsonl'}\n"
    )
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["autolabel", "calibrate"])
def test_directory_in_a_targets_place_exit_3_before_any_work(workflow, tmp_path, capsys,
                                                             command):
    # such a target failed only when the files were committed: autolabel
    # printed its summary and left the other frames' labels written, and
    # calibrate printed its MRE line
    if command == "autolabel":
        scene, out = tmp_path / "scene", tmp_path / "out"
        assert run(["synth", "--kind", "labeling", "--seed", "9", "--frames", "3",
                    "-o", scene]) == 0
        target = out / "labels_000.jsonl"
        argv = ["autolabel", "--frames", scene, "--masks", scene,
                "--calibration", scene / "calibration.json", "-o", out]
    else:
        scene, out = workflow / "cal_scene", tmp_path
        target = out / "calibration.json"
        argv = ["calibrate", "--corners", scene, "--frames", scene,
                "--intrinsics", scene / "intrinsics.json", "-o", target]
    target.mkdir(parents=True)
    code, stdout, stderr = outcome(capsys, argv)
    assert (code, stdout) == (cli.EXIT_IO, "")
    assert stderr == f"io error: cannot write {target}: it is a directory\n"
    assert list(out.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_failed_eval_overlay_prints_no_table(workflow, tmp_path, capsys):
    # the table used to be printed before the overlay inputs were read
    capsys.readouterr()
    assert run(["eval", "--pred", workflow / "labels_out",
                "--gt", workflow / "lab_scene" / "gt_labels",
                "--overlay-frames", workflow / "lab_scene",
                "--overlay-calibration", tmp_path / "nope.json",
                "-o", tmp_path / "report.json"]) == 3
    assert capsys.readouterr().out == ""


def test_eval_names_a_labels_file_that_is_not_utf8(workflow, tmp_path, capsys):
    pred = tmp_path / "pred"
    shutil.copytree(workflow / "labels_out", pred)
    bad = pred / "labels_000.jsonl"
    bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
    capsys.readouterr()
    assert run(["eval", "--pred", pred, "--gt", workflow / "lab_scene" / "gt_labels",
                "-o", tmp_path / "report.json"]) == 4
    assert capsys.readouterr().err.startswith(f"invalid input: bad labels file {bad}:1: 'utf-8'")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_get_the_mode_a_plain_write_gives(tmp_path, umask, mode):
    # every staged file used to be 0600 whatever the umask
    old = os.umask(umask)
    try:
        assert run(["synth", "--kind", "labeling", "--seed", "3", "-o", tmp_path / "lab"]) == 0
        assert run(["synth", "--kind", "calibration", "--poses", "6", "--seed", "3",
                    "-o", tmp_path / "cal"]) == 0
        assert run(["calibrate", "--corners", tmp_path / "cal", "--frames", tmp_path / "cal",
                    "--intrinsics", tmp_path / "cal" / "intrinsics.json",
                    "-o", tmp_path / "calibration.json"]) == 0
    finally:
        os.umask(old)
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(files) == 20  # 5 labeling, 14 calibration, 1 calibrate
    assert {oct(p.stat().st_mode & 0o777) for p in files} == {oct(mode)}


@pytest.mark.parametrize(
    "flags",
    [["--overlay-frames", "F"], ["--overlay-calibration", "C"], ["--overlay-dir", "D"],
     ["--overlay-frames", "F", "--overlay-dir", "D"]],
    ids=["frames", "calibration", "dir", "frames_and_dir"],
)
def test_eval_overlay_flags_all_or_none_exit_2(workflow, tmp_path, capsys, flags):
    # either overlay flag alone used to be exit 0 with no overlay written
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--pred", workflow / "labels_out",
             "--gt", workflow / "lab_scene" / "gt_labels", *flags, "-o", tmp_path / "r.json"])
    assert exc.value.code == 2
    assert "--overlay-frames and --overlay-calibration go together" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_names_predicted_frames_without_ground_truth(tmp_path, capsys):
    # a stray labels_009.jsonl in --pred was skipped in silence
    scene, labels = tmp_path / "scene", tmp_path / "labels"
    assert run(["synth", "--kind", "labeling", "--seed", "3", "-o", scene]) == 0
    assert run(["autolabel", "--frames", scene, "--masks", scene,
                "--calibration", scene / "calibration.json", "-o", labels]) == 0
    (tmp_path / "clean").mkdir()
    (tmp_path / "stray").mkdir()
    capsys.readouterr()
    argv = ["eval", "--pred", labels, "--gt", scene / "gt_labels"]
    assert run([*argv, "-o", tmp_path / "clean" / "report.json"]) == 0
    clean = capsys.readouterr()
    assert clean.err == ""
    shutil.copy(labels / "labels_000.jsonl", labels / "labels_009.jsonl")
    assert run([*argv, "-o", tmp_path / "stray" / "report.json"]) == 0
    stray = capsys.readouterr()
    assert stray.err == "warning: no ground truth for predicted frame(s) [9]\n"
    assert stray.out == clean.out
    assert sha256_tree(tmp_path / "stray") == sha256_tree(tmp_path / "clean")


class TestExitCodes:
    def test_negative_jobs_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["autolabel", "--frames", tmp_path, "--masks", tmp_path,
                 "--calibration", tmp_path / "calibration.json", "--jobs", "-1",
                 "-o", tmp_path / "out"])
        assert exc.value.code == 2
        assert "--jobs: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_frames_below_one_exit_2(self, tmp_path, capsys, frames):
        # both were exit 0 with a scene of no frames: {"frames":[]}
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--kind", "labeling", "--frames", frames, "-o", tmp_path / "out"])
        assert exc.value.code == 2
        assert f"--frames: must be >= 1, got {frames}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("poses", ["a", "1,,2", "", "1;2", "2.5"])
    def test_clutter_only_not_pose_ids_exit_2(self, tmp_path, capsys, poses):
        # each was a scene config error naming no flag, and "" was ignored
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--kind", "calibration", "--clutter-only", poses,
                 "-o", tmp_path / "out"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"argument --clutter-only: invalid _pose_ids value: {poses!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("poses", ["99", "-1", "4", "0,4"])
    def test_clutter_only_pose_outside_the_scene_exit_2(self, tmp_path, capsys, poses):
        # each was exit 0, the id that no pose has ignored
        assert run(["synth", "--kind", "calibration", "--poses", "4", "--seed", "3",
                    "--clutter-only", poses, "-o", tmp_path / "out"]) == 2
        pose_id = poses.split(",")[-1]
        assert capsys.readouterr().err == (
            "config error: bad calibration scene config: "
            f"clutter_only_poses holds pose id {pose_id}, outside [0, 4)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, flags, named",
        [("labeling", ["--poses", "99"], "--poses"),
         ("labeling", ["--pixel-sigma", "5", "--clutter-only", "1,2"],
          "--pixel-sigma, --clutter-only"),
         ("labeling", ["--range-sigma", "0", "--angle-sigma", "0"], "--range-sigma, --angle-sigma"),
         ("calibration", ["--frames", "1"], "--frames"),
         ("calibration", ["--frames", "7", "--objects", "3", "--fp-rate", "0.5"],
          "--objects, --frames, --fp-rate"),
         ("calibration", ["--fn-rate", "0"], "--fn-rate")],
    )
    def test_synth_flag_of_the_other_kind_exit_2(self, tmp_path, capsys, kind, flags, named):
        # each was ignored, and the scene drawn with exit 0
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--kind", kind, *flags, "-o", tmp_path / "out"])
        assert exc.value.code == 2
        other = "labeling" if kind == "calibration" else "calibration"
        err = capsys.readouterr().err
        assert err.endswith(f"error: synth --kind {kind}: {named} only apply to --kind {other}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("holdout", ["inf", "1.5", "-0.5", "nan", "1"])
    def test_holdout_outside_unit_interval_exit_2(self, tmp_path, capsys, holdout):
        # inf ended in an OverflowError traceback, 1.5 held out poses as 0.5
        # would, -0.5 was ignored, and nan failed only after the whole solve
        with pytest.raises(SystemExit) as exc:
            run(["calibrate", "--corners", tmp_path, "--frames", tmp_path,
                 "--intrinsics", tmp_path / "intrinsics.json", "--holdout", holdout,
                 "-o", tmp_path / "c.json"])
        assert exc.value.code == 2
        assert "--holdout: must be in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("flag", ["--pixel-sigma", "--range-sigma", "--angle-sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_noise_flag_exit_2(self, tmp_path, capsys, flag, value):
        # a NaN range sigma clamped every range to 0, a NaN pixel sigma
        # skipped the noise, and both exited 0
        assert run(["synth", "--kind", "calibration", "--poses", "3", flag, value,
                    "-o", tmp_path / "out"]) == 2
        assert "must be finite and >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, doc, message",
        [
            ("calibration", {"rcs_sigma_dbsm": math.nan}, "rcs_sigma_dbsm must be finite and >= 0"),
            # these two were exit 4, `corner coordinates must be finite`
            ("calibration", {"center_offset_px": math.nan}, "center_offset_px must be finite"),
            ("calibration", {"center_offset_px": math.inf}, "center_offset_px must be finite"),
            # empty masks beside truth that labels every object point: a clean
            # scene scored PA 31.9 and mIoU 0
            ("labeling", {"mask_margin_px": -50}, "mask_margin_px must be >= 0 for rect masks"),
            # a hull drawn around the projections misses lookup pixels
            ("labeling", {"mask_margin_px": 0, "mask_shape": "hull"},
             "mask_margin_px must be >= 1 for hull masks"),
            ("labeling", {"dynamic_fraction": math.nan}, "dynamic_fraction must be in [0, 1]"),
            ("labeling", {"dynamic_fraction": 1.5}, "dynamic_fraction must be in [0, 1]"),
            # negative jitter was taken as off
            ("labeling", {"velocity_jitter_mps": -0.1},
             "velocity_jitter_mps must be finite and >= 0"),
            ("labeling", {"velocity_jitter_mps": math.inf},
             "velocity_jitter_mps must be finite and >= 0"),
            ("labeling", {"rcs_jitter_dbsm": math.nan}, "rcs_jitter_dbsm must be finite and >= 0"),
            ("labeling", {"rcs_jitter_dbsm": -2.0}, "rcs_jitter_dbsm must be finite and >= 0"),
            # no object could keep 3 points, which was reported as a full view
            ("labeling", {"points_per_object": [0, 2]},
             "points_per_object keeps at most 2 points of an object after "
             "false_negative_rate 0.0; an object needs 3"),
            ("labeling", {"false_negative_rate": 1.0},
             "points_per_object keeps at most 0 points of an object after "
             "false_negative_rate 1.0; an object needs 3"),
            ("labeling", {"points_per_object": [4, 4], "false_negative_rate": 0.4},
             "points_per_object keeps at most 2 points of an object after "
             "false_negative_rate 0.4; an object needs 3"),
            # a pose id no pose has was ignored, and the scene drawn without it
            ("calibration", {"pose_count": 4, "clutter_only_poses": [99]},
             "clutter_only_poses holds pose id 99, outside [0, 4)"),
            ("calibration", {"pose_count": 4, "clutter_only_poses": [0, -1]},
             "clutter_only_poses holds pose id -1, outside [0, 4)"),
            ("calibration", {"pose_count": 4, "clutter_only_poses": [4]},
             "clutter_only_poses holds pose id 4, outside [0, 4)"),
        ],
    )
    def test_non_finite_noise_in_scene_config_exit_2(self, tmp_path, capsys, kind, doc, message):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(doc))
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad {kind} scene config {config}: {message}")
        assert not (tmp_path / "out").exists()

    def test_fewest_kept_points_that_draw(self, tmp_path, capsys):
        # 4 - round(0.3 * 4) is 3, the least an object keeps; --fn-rate 1
        # keeps none
        config = tmp_path / "scene.json"
        config.write_text(json.dumps({"points_per_object": [4, 4], "false_negative_rate": 0.3}))
        assert run(["synth", "--kind", "labeling", "--config", config,
                    "-o", tmp_path / "out"]) == 0
        assert run(["synth", "--kind", "labeling", "--fn-rate", "1", "-o", tmp_path / "no"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: bad labeling scene config: points_per_object keeps at most 0 points"
        )

    @pytest.mark.parametrize("field", ["rotation", "translation", "fx", "cy"])
    def test_non_finite_calibration_file_exit_4(self, tmp_path, capsys, field):
        # NaN passed both orthonormality checks and every intrinsics check,
        # and autolabel then exited 0 with no point assigned
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        path = scene / "calibration.json"
        doc = json.loads(path.read_text())
        if field == "rotation":
            doc["rotation_row_major"][4] = math.nan
        elif field == "translation":
            doc["translation_m"][0] = math.nan
        else:
            doc["intrinsics"][field] = math.nan
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", path, "-o", tmp_path / "out"]) == 4
        assert capsys.readouterr().err.startswith("invalid input: ")

    def test_infinite_calibration_rotation_exit_4_without_warning(self, tmp_path, capsys):
        # the orthonormality check multiplied the rotation before checking it
        # was finite, so numpy warned on stderr ahead of the one error line
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        path = scene / "calibration.json"
        doc = json.loads(path.read_text())
        doc["rotation_row_major"][4] = math.inf
        path.write_text(json.dumps(doc))  # writes Infinity
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["autolabel", "--frames", scene, "--masks", scene,
                        "--calibration", path, "-o", tmp_path / "out"]) == 4
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "fault",
        ["short_translation", "reflected_rotation", "scaled_rotation", "nan_translation"],
    )
    def test_bad_calibration_file_exit_4_naming_the_file(self, tmp_path, capsys, fault):
        # these were exit 4 with a message that did not name the file: "cannot
        # reshape array of size 2 into shape (3,)", a determinant or
        # orthonormality complaint, and "translation must be finite"
        path = tmp_path / "calibration.json"
        fileio.write_calibration(path, Extrinsics(np.eye(3), np.zeros(3)), default_intrinsics(),
                                 0.0, 0.0, True)
        doc = json.loads(path.read_text())
        rotation = np.array(doc["rotation_row_major"])
        if fault == "short_translation":
            doc["translation_m"] = [0.0, 0.0]
        elif fault == "reflected_rotation":
            doc["rotation_row_major"] = (-rotation).tolist()
        elif fault == "scaled_rotation":
            doc["rotation_row_major"] = (1.01 * rotation).tolist()
        else:
            doc["translation_m"][1] = math.nan
        path.write_text(json.dumps(doc))
        assert run(["autolabel", "--frames", tmp_path, "--masks", tmp_path,
                    "--calibration", path, "-o", tmp_path / "out"]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: bad calibration file {path}: ")
        assert err.count("\n") == 1

    def test_fov_infeasible_scene_exit_2(self, tmp_path, capsys):
        # identity extrinsics point the camera up, away from every board
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(
            {"extrinsics": {"rotation_row_major": np.eye(3).ravel().tolist(),
                            "translation_m": [0, 0, 0]}}
        ))
        out = tmp_path / "out"
        assert run(["synth", "--kind", "calibration", "--poses", "1", "--seed", "9",
                    "--config", config, "-o", out]) == 2
        assert capsys.readouterr().err.startswith("config error: no board placement")
        assert not out.exists()

    @pytest.mark.parametrize("sigma", [2.5, 40.0])
    def test_wide_angle_noise_wraps_the_azimuth(self, tmp_path, sigma):
        # a noisy azimuth past pi was exit 4 from inside generation
        # ("azimuth must be in (-pi, pi]"); the elevation was clamped
        config = tmp_path / "noise.json"
        config.write_text(json.dumps({"angle_sigma_rad": sigma}))
        out = tmp_path / "out"
        assert run(["synth", "--kind", "calibration", "--poses", "3", "--config", config,
                    "-o", out]) == 0
        az = np.concatenate([load_radar_frame(p).returns["az_rad"]
                             for p in sorted(out.glob("radar_*.json"))])
        assert ((-math.pi < az) & (az <= math.pi)).all()
        assert (np.abs(az) > 2.0).any()  # the noise reached the wrap

    def test_degenerate_geometry_exit_4(self, tmp_path, capsys):
        # every pose's radar frame holds pose 0's returns: one radar center
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "calibration", "--poses", "6", "--seed", "3",
                    "-o", scene]) == 0
        points = json.loads((scene / "radar_000.json").read_text())["points"]
        for path in scene.glob("radar_*.json"):
            doc = json.loads(path.read_text())
            path.write_text(json.dumps({**doc, "points": points}))
        capsys.readouterr()
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json", "-o", tmp_path / "cal.json"]) == 4
        assert capsys.readouterr().err.startswith("invalid input: Jacobian is rank-deficient")

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
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad {kind} scene config {config}: intrinsics: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, doc, message",
        [
            ("calibration", {"board_nx": 10**14},
             "the scene asks for 16800000000001128 radar returns and corners, more than "
             "SCENE_BUDGET = 1000000; lower board_nx (100000000000000)"),
            ("calibration", {"clutter_per_frame": 10**13},
             "the scene asks for 240000000001176 radar returns and corners, more than "
             "SCENE_BUDGET = 1000000; lower clutter_per_frame (10000000000000)"),
            ("labeling", {"clutter_count": 10**13},
             "the scene asks for 10000000000080 points, more than SCENE_BUDGET = 1000000; "
             "lower clutter_count (10000000000000)"),
            ("labeling", {"mask_margin_px": 10**14, "intrinsics": {
                "fx": 800.0, "fy": 800.0, "cx": 960.0, "cy": 540.0,
                "width": 10**15, "height": 10**15}}, "out of memory"),
        ],
        ids=["board_nx", "clutter_per_frame", "clutter_count", "mask_margin_px"],
    )
    def test_scene_past_memory_exit_2(self, tmp_path, capsys, kind, doc, message):
        # each asks for hundreds of TiB, past a 47-bit address space.  A count
        # past SCENE_BUDGET is refused before any draw; a mask window that
        # large fails its allocation before it begins.  Both were a
        # MemoryError traceback
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(doc))
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: bad {kind} scene config {config}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, doc, flags, message",
        [
            ("calibration", {"pose_count": 10**9}, [],
             "the scene asks for 89000000000 radar returns and corners, more than "
             "SCENE_BUDGET = 1000000; lower pose_count (1000000000)"),
            ("calibration", {"moving_clutter_per_frame": 10**8}, [],
             "the scene asks for 2400002016 radar returns and corners, more than "
             "SCENE_BUDGET = 1000000; lower moving_clutter_per_frame (100000000)"),
            ("labeling", {"clutter_count": 10**8}, [],
             "the scene asks for 100000080 points, more than SCENE_BUDGET = 1000000; "
             "lower clutter_count (100000000)"),
            ("labeling", {}, ["--frames", "1000000000"],
             "the scene asks for 110000000000 points in 1000000000 frames, more than "
             "SCENE_BUDGET = 1000000; lower --frames (1000000000)"),
        ],
        ids=["pose_count", "moving_clutter_per_frame", "clutter_count", "frames"],
    )
    def test_scene_past_budget_exit_2_at_once(self, tmp_path, kind, doc, flags, message):
        # each count was drawn one pose, mover, clutter point or frame at a
        # time in Python: the run went on for more than 20 s under a 1 GiB
        # address space (a billion frames staged three files each), and no
        # allocation was large enough to fail.  The budget is checked before
        # any draw, so the refusal comes within the deadline
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        config = tmp_path / "scene.json"
        config.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "radcal.cli", "synth", "--kind", kind,
             "--config", str(config), *flags, "-o", str(tmp_path / "out")],
            capture_output=True, text=True, env=radcal_env(), timeout=15,
            preexec_fn=limit_memory,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"config error: bad {kind} scene config {config}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    def test_bad_scene_extrinsics_exit_2(self, tmp_path, capsys, kind):
        config = tmp_path / "scene.json"
        config.write_text('{"extrinsics": {"axis_angle": [0, 0], "translation_m": [0, 0, 0]}}')
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad {kind} scene config {config}: extrinsics: ")

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    def test_bad_scene_config_value_exit_2(self, tmp_path, capsys, kind):
        # a number where a list belongs
        field = "clutter_only_poses" if kind == "calibration" else "range_m"
        config = tmp_path / "scene.json"
        config.write_text(f'{{"{field}": 3}}')
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: bad {kind} scene config")

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    @pytest.mark.parametrize("seed", ["1e999", '"x"', "true", "-1"])
    def test_bad_scene_seed_exit_2(self, tmp_path, capsys, kind, seed):
        # these ended in a TypeError traceback from numpy's SeedSequence
        config = tmp_path / "scene.json"
        config.write_text(f'{{"seed": {seed}}}')
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: bad {kind} scene config")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind, doc", [("calibration", '{"pose_cout": 3}'), ("labeling", '{"objcet_count": 2}')]
    )
    def test_unknown_scene_config_key_exit_2(self, tmp_path, capsys, kind, doc):
        # a misspelt key wrote the default scene
        config = tmp_path / "scene.json"
        config.write_text(doc)
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        assert "unknown key(s)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    def test_scene_camera_keys_stay_legal(self, tmp_path, kind):
        # labeling reads intrinsics and extrinsics beside its config fields
        camera = {
            "intrinsics": dataclasses.asdict(default_intrinsics()),
            "extrinsics": {"axis_angle": [1.2, -1.2, 1.2], "translation_m": [0.1, 0.0, 0.0]},
            "seed": 4,
        }
        config = tmp_path / "scene.json"
        config.write_text(json.dumps(camera))
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 0

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    def test_scene_config_not_an_object_exit_2(self, tmp_path, capsys, kind):
        config = tmp_path / "scene.json"
        config.write_text("[1]")
        assert run(["synth", "--kind", kind, "--config", config, "-o", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == f"config error: {config} must be a JSON object, got list\n"

    @pytest.mark.parametrize("command", ["calibrate", "autolabel"])
    @pytest.mark.parametrize(
        "params",
        [
            "[1]",
            '"solver"',
            '{"solver": [1]}',
            '{"solver": {"max_iters": "5"}}',
            '{"solver": {"max_iters": 0}}',
            '{"solver": {"lambda_up": -10}}',
            '{"solver": {"step_tol": -1}}',
            '{"solver": {"multistart": [[0, 0, 0, 0, 0, 0]]}}',
            '{"solver": {"multistart": 3}}',
            '{"solvr": {"max_iters": "x"}}',  # a misspelt section ran the defaults
            # NaN passed every "<= 0" check: these exited 0, 4, or turned a gate off
            '{"label": {"tau_d": NaN}}',
            '{"label": {"n_min": NaN}}',
            '{"filter": {"v_th": NaN}}',
            '{"filter": {"rho_min": NaN}}',
            '{"cluster": {"eps": NaN}}',
            '{"cluster": {"min_pts": NaN}}',
            '{"sync_tolerance_s": NaN}',
            '{"sync_tolerance_s": -1}',
            '{"sync_tolerance_s": Infinity}',
            # an infinite kappa_rho gated on inf * 0 = NaN and dropped every point
            # of a zero-spread cluster; the others failed the config echo, exit 4
            '{"label": {"kappa_rho": Infinity}}',
            '{"filter": {"r_max": Infinity}}',
            '{"filter": {"rho_min": -Infinity}}',
            '{"cluster": {"eps": Infinity}}',
            '{"solver": {"step_tol": Infinity}}',
        ],
    )
    def test_bad_params_file_exit_2(self, tmp_path, capsys, command, params):
        path = tmp_path / "params.json"
        path.write_text(params)
        assert run(self.params_argv(command, tmp_path, path)) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("command", ["calibrate", "autolabel"])
    def test_good_params_file_reaches_the_inputs(self, tmp_path, command):
        # the params are read first: with a good file the missing input is exit 3
        path = tmp_path / "params.json"
        path.write_text('{"solver": {"max_iters": 5, "step_tol": 0}}')
        assert run(self.params_argv(command, tmp_path, path)) == 3

    @pytest.mark.parametrize("command", ["calibrate", "autolabel"])
    def test_params_at_their_bounds_reach_the_inputs(self, tmp_path, command):
        # a zero sync tolerance and a negative RCS floor stay legal
        path = tmp_path / "params.json"
        path.write_text('{"sync_tolerance_s": 0, "filter": {"rho_min": -5}}')
        assert run(self.params_argv(command, tmp_path, path)) == 3

    @pytest.mark.parametrize(
        "command, doc, field",
        [
            # range checks: exit 4 from inside generation, or accepted
            ("labeling", {"range_m": [20, 6]}, "range_m"),
            ("labeling", {"class_count": 0}, "class_count"),
            ("calibration", {"board_nx": 1}, "board_nx"),
            ("calibration", {"range_min_m": 12, "range_max_m": 5}, "range_min_m"),
            ("labeling", {"clutter_count": -3}, "clutter_count"),
            ("calibration", {"clutter_per_frame": -1}, "clutter_per_frame"),
            ("calibration", {"board_square_m": -0.1}, "board_square_m"),
            # JSON kinds: these were exit 1, a traceback
            ("labeling", {"points_per_object": "ab"}, "points_per_object"),
            ("labeling", {"points_per_object": [8]}, "points_per_object"),
            ("labeling", {"mask_margin_px": "x"}, "mask_margin_px"),
            ("labeling", {"dynamic_fraction": "x"}, "dynamic_fraction"),
            ("calibration", {"board_nx": "6"}, "board_nx"),
            ("calibration", {"range_min_m": "5"}, "range_min_m"),
            ("calibration", {"center_offset_px": "1"}, "center_offset_px"),
            ("calibration", {"range_max_m": 10**400}, "range_max_m"),  # past the float range
            # JSON kinds: these were accepted, coerced or truncated
            ("labeling", {"points_per_object": [8.5, 16]}, "points_per_object"),
            ("calibration", {"clutter_only_poses": "ab"}, "clutter_only_poses"),
            ("calibration", {"extrinsics": {"axis_angle": ["1", 0, 0], "translation_m": [0] * 3}},
             "extrinsics"),
            ("labeling", {"extrinsics": {"axis_angle": [0] * 3, "translation_m": [0, True, 0]}},
             "extrinsics"),
            ("autolabel", {"label": {"n_min": 2.5}}, "n_min"),
            ("autolabel", {"label": {"n_min": True}}, "n_min"),
            ("calibrate", {"cluster": {"min_pts": 1.5}}, "min_pts"),
            ("calibrate", {"sync_tolerance_s": "0.1"}, "sync_tolerance_s"),
            # range checks: field-of-view values were exit 4 from inside generation
            ("calibration", {"radar_fov_az_deg": -1}, "radar_fov_az_deg"),
            ("calibration", {"radar_fov_el_deg": 400}, "radar_fov_el_deg"),
            ("calibration", {"radar_fov_az_deg": math.nan}, "radar_fov_az_deg"),
        ],
    )
    def test_config_field_exit_2_naming_file_and_field(
        self, tmp_path, capsys, command, doc, field
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        if command in ("calibrate", "autolabel"):
            argv, what = self.params_argv(command, tmp_path, path), "parameter file"
        else:
            size = ["--poses", "3"] if command == "calibration" else ["--objects", "1"]
            argv = ["synth", "--kind", command, *size, "--config", path, "-o", tmp_path / "out"]
            what = f"{command} scene config"
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad {what} {path}: ")
        assert field in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @staticmethod
    def params_argv(command, tmp_path, params):
        missing = tmp_path / "missing.json"
        if command == "calibrate":
            inputs = ["--corners", tmp_path, "--frames", tmp_path, "--intrinsics", missing]
        else:
            inputs = ["--frames", tmp_path, "--masks", tmp_path, "--calibration", missing]
        return [command, *inputs, "--params", params, "-o", tmp_path / "out"]

    @pytest.mark.parametrize(
        "bad",
        [
            '{"fy": 800, "cx": 960, "cy": 540, "width": 1920, "height": 1080}',
            '{"fx": 800, "fy": 800, "cx": 960, "cy": 540, "width": 1e999, "height": 1080}',
            '{"fx": "x", "fy": 800, "cx": 960, "cy": 540, "width": 1920, "height": 1080}',
            '{"fx": -1, "fy": 800, "cx": 960, "cy": 540, "width": 1920, "height": 1080}',
            "[800, 800, 960, 540, 1920, 1080]",
            '{"fx": NaN, "fy": 800, "cx": 960, "cy": 540, "width": 1920, "height": 1080}',
            '{"fx": 800, "fy": 800, "cx": Infinity, "cy": 540, "width": 1920, "height": 1080}',
            # a distortion k1 was dropped without a word
            '{"fx": 800, "fy": 800, "cx": 960, "cy": 540, "width": 1920, "height": 1080, "k1": 0}',
        ],
        ids=["missing_fx", "infinite_width", "text_fx", "negative_fx", "list", "nan_fx",
             "infinite_cx", "extra_key"],
    )
    @pytest.mark.parametrize("reader", ["calibrate", "autolabel", "synth"])
    def test_malformed_intrinsics_exit_code_per_reader(self, tmp_path, capsys, reader, bad):
        # one intrinsics codec; each reader keeps its own error and exit code
        out = ["-o", tmp_path / "out"]
        if reader == "calibrate":
            path = tmp_path / "intrinsics.json"
            path.write_text(bad)
            argv = ["calibrate", "--corners", tmp_path, "--frames", tmp_path,
                    "--intrinsics", path, *out]
            code, message = 4, "invalid input: bad intrinsics file"
        elif reader == "autolabel":
            path = tmp_path / "calibration.json"
            fileio.write_calibration(path, Extrinsics(np.eye(3), np.zeros(3)), default_intrinsics(),
                                     0.0, 0.0, True)
            doc = json.loads(path.read_text())
            doc["intrinsics"] = "@"
            path.write_text(json.dumps(doc).replace('"@"', bad))
            argv = ["autolabel", "--frames", tmp_path, "--masks", tmp_path,
                    "--calibration", path, *out]
            code, message = 4, "invalid input: bad calibration file"
        else:
            path = tmp_path / "scene.json"
            path.write_text('{"intrinsics": ' + bad + "}")
            argv = ["synth", "--kind", "calibration", "--config", path, *out]
            code, message = 2, f"config error: bad calibration scene config {path}: intrinsics"
        assert run(argv) == code
        assert capsys.readouterr().err.startswith(message)

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

    def test_deep_balanced_nesting_exit_4_not_a_crash(self, tmp_path):
        # 200,000 nested arrays under a key the reader ignores: past the
        # bracket bound json parses, and its recursion limit is exit 4; the
        # orjson parse would overflow the C stack and kill the process
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        radar = scene / "radar_000.json"
        depth = 200_000
        radar.write_text('{"timestamp_s":0.0,"points":[],"extra":' + "[" * depth + "]" * depth + "}")
        proc = subprocess.run(
            [sys.executable, "-m", "radcal.cli", "autolabel", "--frames", str(scene),
             "--masks", str(scene), "--calibration", str(scene / "calibration.json"),
             "-o", str(tmp_path / "labels")],
            capture_output=True, text=True, env=radcal_env(), timeout=60,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith(
            f"invalid input: bad radar frame {radar}: maximum recursion depth exceeded"
        ), proc.stderr

    @pytest.mark.parametrize("kind", ["labels file", "frame stream"])
    def test_deep_balanced_nesting_in_a_json_lines_file_exit_4_not_a_crash(
        self, workflow, tmp_path, kind
    ):
        # as above, for a line of a labels file or of a .jsonl frame stream:
        # a line that long goes to json alone
        depth = 200_000
        extra = ',"extra":' + "[" * depth + "]" * depth + "}"
        if kind == "labels file":
            pred = tmp_path / "pred"
            shutil.copytree(workflow / "labels_out", pred)
            path = pred / "labels_000.jsonl"
            argv = ["eval", "--pred", pred, "--gt", workflow / "lab_scene" / "gt_labels",
                    "-o", tmp_path / "report.json"]
        else:
            cal_scene = workflow / "cal_scene"
            path = tmp_path / "frames.jsonl"
            write_radar_frames_stream(
                path, [load_radar_frame(p) for p in sorted(cal_scene.glob("radar_*.json"))]
            )
            argv = ["calibrate", "--corners", cal_scene, "--frames", path,
                    "--intrinsics", cal_scene / "intrinsics.json", "-o", tmp_path / "c.json"]
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rstrip()[:-1] + extra + "\n"
        path.write_text("".join(lines))
        proc = subprocess.run(
            [sys.executable, "-m", "radcal.cli", *map(str, argv)],
            capture_output=True, text=True, env=radcal_env(), timeout=60,
        )
        assert proc.returncode == 4, proc.stderr
        assert f"bad {kind} {path}:2: maximum recursion depth exceeded" in proc.stderr

    def test_non_ascii_frame_loads_under_the_c_locale(self, tmp_path):
        # a lone surrogate sends the frame to json, which read the file in the
        # locale's encoding: exit 4, 'ascii' codec can't decode byte 0xc3
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        radar = scene / "radar_000.json"
        text = radar.read_text()
        radar.write_text('{"note":"caf\u00e9 \\ud800",' + text[1:], encoding="utf-8")
        env = dict(radcal_env(), LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "radcal.cli", "autolabel", "--frames", str(scene),
             "--masks", str(scene), "--calibration", str(scene / "calibration.json"),
             "-o", str(tmp_path / "labels")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "labels" / "labels_000.jsonl").exists()

    def test_mask_size_other_than_the_intrinsics_exit_4(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", scene]) == 0
        k = default_intrinsics()
        masks = scene / "masks_000.json"
        fileio.write_masks(masks, k.width + 1, k.height, [])
        capsys.readouterr()
        assert run(["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", scene / "calibration.json", "-o", tmp_path / "labels"]) == 4
        assert capsys.readouterr().err == (
            f"invalid input: bad mask file {masks}: mask size {k.width + 1}x{k.height} "
            f"!= intrinsics {k.width}x{k.height}\n"
        )

    @pytest.mark.parametrize("command", ["calibrate", "eval"])
    def test_output_into_missing_directory_exit_3_before_any_work(
        self, workflow, tmp_path, capsys, monkeypatch, command
    ):
        # the job used to run to the end, then fail on the temp file's name
        out = tmp_path / "nodir" / "out.json"
        loader = {"calibrate": "load_corners", "eval": "load_labels"}[command]
        calls = []
        load = getattr(fileio, loader)
        monkeypatch.setattr(fileio, loader, lambda *args: calls.append(args) or load(*args))
        if command == "calibrate":
            scene = workflow / "cal_scene"
            argv = ["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json"]
        else:
            argv = ["eval", "--pred", workflow / "labels_out",
                    "--gt", workflow / "lab_scene" / "gt_labels"]
        assert run([*argv, "-o", out]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert calls == []
        assert f"cannot write {out}: no directory {out.parent}" in err
        assert ".tmp" not in err
        assert not out.parent.exists()

    def test_write_error_names_the_output_not_the_temp_file(self, tmp_path):
        out = tmp_path / "nodir" / "out.json"
        with pytest.raises(FileNotFoundError) as info:
            fileio.write_json(out, {})
        assert f"cannot write {out}" in str(info.value)
        assert ".tmp" not in str(info.value)

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

    @pytest.mark.parametrize(
        "case", ["corners_dir", "radar_input", "holdout", "autolabel_dir", "eval_dir", "no_shared"]
    )
    def test_input_error_exit_code_and_message(self, workflow, tmp_path, capsys, case):
        cal, lab, nope = workflow / "cal_scene", workflow / "lab_scene", tmp_path / "nope"
        intrinsics = cal / "intrinsics.json"
        calibrate = ["calibrate", "--corners", cal, "--intrinsics", intrinsics, "--frames"]
        other = tmp_path / "other"  # a prediction for frame 1, where the truth has frame 0
        other.mkdir()
        shutil.copy(lab / "gt_labels" / "labels_000.jsonl", other / "labels_001.jsonl")
        pred = workflow / "labels_out"
        argv, code, message = {
            "corners_dir": (["calibrate", "--corners", nope, "--frames", cal,
                             "--intrinsics", intrinsics], 3,
                            f"io error: missing corners directory: {nope}"),
            # neither a directory nor a .jsonl stream
            "radar_input": ([*calibrate, intrinsics], 3,
                            f"io error: missing radar input: {intrinsics}"),
            # round(24 * 0.9) = 22 of the 24 poses held out
            "holdout": ([*calibrate, cal, "--holdout", "0.9"], 4,
                        "invalid input: holdout 0.9 leaves 2 training poses; need 3"),
            "autolabel_dir": (["autolabel", "--frames", nope, "--masks", lab,
                               "--calibration", workflow / "calibration.json"], 3,
                              f"io error: missing input directory: {nope} / {lab}"),
            "eval_dir": (["eval", "--pred", pred, "--gt", nope], 3,
                         f"io error: missing input directory: {pred} / {nope}"),
            "no_shared": (["eval", "--pred", other, "--gt", lab / "gt_labels"], 3,
                          "io error: no frame indices shared between pred and gt"),
        }[case]
        assert run([*argv, "-o", tmp_path / "out"]) == code
        assert capsys.readouterr().err == f"{message}\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("reader", ["radar_frame", "radar_stream", "radar_points", "corners"])
    def test_non_finite_timestamp_exit_4(self, tmp_path, capsys, reader, value):
        # abs(nan) > tol is false: a NaN radar timestamp passed the sync gate
        kind = "labeling" if reader == "radar_points" else "calibration"
        scene = tmp_path / "scene"
        poses = ["--poses", "6"] if kind == "calibration" else []
        assert run(["synth", "--kind", kind, *poses, "--seed", "1", "-o", scene]) == 0
        prefix = "corners" if reader == "corners" else "radar"
        path = scene / f"{prefix}_000.json"
        doc = json.loads(path.read_text())
        doc["timestamp_s"] = float(value)
        path.write_text(json.dumps(doc))
        frames = scene
        if reader == "radar_stream":
            frames = tmp_path / "frames.jsonl"
            frames.write_text("".join(
                json.dumps(json.loads(p.read_text())) + "\n"
                for p in sorted(scene.glob("radar_*.json"))
            ))
        if kind == "labeling":
            argv = ["autolabel", "--frames", scene, "--masks", scene,
                    "--calibration", scene / "calibration.json"]
        else:
            argv = ["calibrate", "--corners", scene, "--frames", frames,
                    "--intrinsics", scene / "intrinsics.json"]
        capsys.readouterr()
        assert run([*argv, "-o", tmp_path / "out"]) == 4
        assert "timestamp_s must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "kind, name",
        [("calibration", "intrinsics.json"), ("calibration", "corners_000.json"),
         ("calibration", "radar_000.json"), ("labeling", "radar_000.json"),
         ("labeling", "masks_000.json"), ("labeling", "calibration.json")],
    )
    def test_truncated_json_exit_4_naming_the_file(self, tmp_path, capsys, kind, name):
        # the message was the parser's alone, as "Expecting value: line 1 column 8"
        noun = {"intrinsics.json": "intrinsics file", "corners_000.json": "corners file",
                "radar_000.json": "radar frame", "masks_000.json": "mask file",
                "calibration.json": "calibration file"}[name]
        scene = tmp_path / "scene"
        poses = ["--poses", "3"] if kind == "calibration" else []
        assert run(["synth", "--kind", kind, *poses, "--seed", "1", "-o", scene]) == 0
        path = scene / name
        path.write_text(path.read_text()[:7])
        with pytest.raises(json.JSONDecodeError) as parser:
            json.loads(path.read_text())
        capsys.readouterr()
        assert run([*self.scene_argv(kind, scene), "-o", tmp_path / "out"]) == 4
        assert capsys.readouterr().err == f"invalid input: bad {noun} {path}: {parser.value}\n"

    @pytest.mark.parametrize(
        "runs, message",
        [([0, 5, 7], "RLE list must hold (start, length) pairs"),
         ([0, 0], "RLE run length must be >= 1, got 0"),
         ([30, 5, 0, 5], "RLE runs must be sorted and non-overlapping"),
         ([1920 * 1080 - 2, 5], "RLE run exceeds the mask size")],
        ids=["odd_length", "zero_length", "unsorted", "past_the_image"],
    )
    def test_bad_run_list_exit_4_naming_the_file(self, tmp_path, capsys, runs, message):
        # each was "invalid input: <message>" alone, with no file
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "labeling", "--seed", "1", "-o", scene]) == 0
        path = scene / "masks_000.json"
        doc = json.loads(path.read_text())
        doc["instances"][0]["rle"] = runs
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([*self.scene_argv("labeling", scene), "-o", tmp_path / "out"]) == 4
        assert capsys.readouterr().err == f"invalid input: bad mask file {path}: {message}\n"

    @pytest.mark.parametrize("fault", ["0", "34", "36", "nan"])
    def test_bad_corners_exit_4_naming_the_file(self, tmp_path, capsys, fault):
        # each was "invalid input: got 0 corners, expected 35 for a 6x8 board"
        # or "invalid input: corner coordinates must be finite", with no file
        # and no pose
        scene = tmp_path / "scene"
        assert run(["synth", "--kind", "calibration", "--poses", "3", "--seed", "1",
                    "-o", scene]) == 0
        path = scene / "corners_001.json"
        doc = json.loads(path.read_text())
        if fault == "nan":
            doc["corners"][3]["u_px"] = math.nan
            message = "corner coordinates must be finite"
        else:
            doc["corners"] = (doc["corners"] * 2)[: int(fault)]
            message = f"got {fault} corners, expected 35 for a 6x8 board"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([*self.scene_argv("calibration", scene), "-o", tmp_path / "out"]) == 4
        assert capsys.readouterr().err == f"invalid input: bad corners file {path}: {message}\n"

    @staticmethod
    def scene_argv(kind, scene):
        if kind == "calibration":
            return ["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json"]
        return ["autolabel", "--frames", scene, "--masks", scene,
                "--calibration", scene / "calibration.json"]

    WRONG_NUMBER_TYPE = [
        ("calibration", "corners_000.json", ["corners", 0, "u_px"], str, "u_px"),
        ("calibration", "radar_000.json", ["timestamp_s"], str, "timestamp_s"),
        ("calibration", "radar_000.json", ["points", 0, "rcs_dbsm"], str, "rcs_dbsm"),
        ("calibration", "intrinsics.json", ["fx"], "800", "fx"),
        ("calibration", "intrinsics.json", ["width"], 1920.7, "width"),
        ("labeling", "radar_000.json", ["points", 0, "x_m"], bool, "x_m"),
        ("labeling", "masks_000.json", ["instances", 0, "confidence"], str, "confidence"),
        ("labeling", "calibration.json", ["rotation_row_major", 0], str, "rotation_row_major"),
        ("labeling", "calibration.json", ["translation_m", 2], str, "translation_m"),
        ("labeling", "calibration.json", ["intrinsics", "height"], 1080.0, "height"),
    ]

    @pytest.mark.parametrize(
        "kind, name, keys, value, message", WRONG_NUMBER_TYPE,
        ids=[f"{kind}-{message}" for kind, _, _, _, message in WRONG_NUMBER_TYPE],
    )
    def test_number_field_of_the_wrong_json_type_exit_4(
        self, tmp_path, capsys, kind, name, keys, value, message
    ):
        # each was read with float() or int(): "800" as 800, 1920.7 as 1920
        scene = tmp_path / "scene"
        poses = ["--poses", "3"] if kind == "calibration" else []
        assert run(["synth", "--kind", kind, *poses, "--seed", "1", "-o", scene]) == 0
        path = scene / name
        doc = json.loads(path.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value(target[keys[-1]]) if callable(value) else value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run([*self.scene_argv(kind, scene), "-o", tmp_path / "out"]) == 4
        err = capsys.readouterr().err
        assert str(path) in err
        assert f"{message} must be a JSON" in err

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


def wrong_kinds(value) -> list:
    """Values of another JSON kind than a valid config value, or (for an
    array) of another length or with an entry of another kind."""
    if type(value) is int:
        return ["x", True, 2.5, float(value), None, [value], {"n": value}]
    if type(value) is float:
        return ["x", False, None, [value], {"n": value}]
    if type(value) is str:
        return ["x", True, 3, None, [value], {"s": value}]
    if type(value) is list:
        wrong_length = [value[:-1], value + value[:1]]
        return ["x", True, 3, None, {"a": value}, *wrong_length, [0.5] * len(value)]
    return ["x", True, 3, None, [value]]  # an object


def config_doc(cls, **values) -> dict:
    """Every field of a config dataclass as a JSON document."""
    fields = {**dataclasses.asdict(cls()), **values}
    if "extrinsics" in fields:
        fields["extrinsics"] = cls().extrinsics.to_doc()
    return json.loads(json.dumps(fields))


@st.composite
def mutated_config(draw, doc: dict) -> str:
    """A config document with one field, or one field of an object field,
    of the wrong JSON kind."""
    doc = json.loads(json.dumps(doc))
    target = doc
    name = draw(st.sampled_from(sorted(doc)))
    if type(doc[name]) is dict and doc[name] and draw(st.booleans()):
        target, name = doc[name], draw(st.sampled_from(sorted(doc[name])))
    target[name] = draw(st.sampled_from(wrong_kinds(target[name])))
    return json.dumps(doc)


SCENE_DOCS = {
    "calibration": config_doc(SceneConfig, pose_count=3),
    "labeling": config_doc(LabelSceneConfig, object_count=1),
}


PARAMS_SECTIONS = {"filter": radcal.FilterParams, "cluster": radcal.ClusterParams,
                   "label": radcal.LabelParams, "solver": radcal.SolverConfig}


def params_doc() -> dict:
    return {"sync_tolerance_s": 0.025,
            **{name: config_doc(cls) for name, cls in PARAMS_SECTIONS.items()}}


class TestConfigMutations:
    """A config document with one field of the wrong JSON kind ends in a
    ``config error:`` (exit 2) or, where the value is still legal, as a valid
    document does: ``synth`` in exit 0, and a params file in exit 3 at the
    missing inputs that follow it.  Never in another exit code or a
    traceback."""

    @staticmethod
    def main(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
        return code, err.getvalue()

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    def test_valid_scene_config_exit_0(self, tmp_path, kind):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(SCENE_DOCS[kind]))
        code, err = self.main(["synth", "--kind", kind, "--config", path, "-o", tmp_path / "out"])
        assert code == 0, err

    @pytest.mark.parametrize("kind", ["calibration", "labeling"])
    @settings(max_examples=80)
    @given(data=st.data())
    def test_scene_config_mutation_exit_0_or_2(self, kind, data):
        text = data.draw(mutated_config(SCENE_DOCS[kind]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scene.json"
            path.write_text(text)
            code, err = self.main(["synth", "--kind", kind, "--config", path,
                                   "-o", Path(tmp) / "out"])
        assert code in (0, 2), err
        # a legal value may still leave no room for the scene ("could not fit")
        assert code == 0 or err.startswith("config error: ") and err.count("\n") == 1, err

    def test_valid_params_file_reaches_the_inputs(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params_doc()))
        argv = TestExitCodes.params_argv("calibrate", tmp_path, path)
        assert self.main(argv)[0] == 3

    @settings(max_examples=80)
    @given(data=st.data())
    def test_params_file_mutation_exit_2(self, data):
        # a params file is read first; a legal one reaches the missing inputs
        text = data.draw(mutated_config(params_doc()))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "params.json"
            path.write_text(text)
            command = data.draw(st.sampled_from(["calibrate", "autolabel"]))
            code, err = self.main(TestExitCodes.params_argv(command, Path(tmp), path))
        assert code in (2, 3), err
        assert code == 3 or err.startswith(f"config error: bad parameter file {path}: "), err


# Every JSON value an int or float field must refuse.  2**63 is a legal
# float, so a float field gets an integer past the float range instead.
INT_VALUES = {"true": True, "string": "1", "null": None, "over_int64": 2**63,
              "under_int64": -(2**63) - 1, "float": 1.0}
FLOAT_VALUES = {"true": True, "string": "1", "null": None, "over_float": 10**400,
                "under_float": -(10**400)}
# a labels file's class and instance ids may be null
NULLABLE_INT = int | None
FIELD_VALUES = {int: INT_VALUES, float: FLOAT_VALUES,
                NULLABLE_INT: {k: v for k, v in INT_VALUES.items() if v is not None}}


def number_fields(cls, named="") -> list:
    """(key path, kind, the field's name as a message gives it) of each int
    or float field of a config dataclass: the first entry of a tuple field
    and each field of a nested ``CameraIntrinsics`` too."""
    fields = []
    for name, kind in typing.get_type_hints(cls).items():
        if kind in (int, float):
            fields.append(((name,), kind, f"{named}{name}"))
        elif typing.get_origin(kind) is tuple:
            fields.append(((name, 0), typing.get_args(kind)[0], f"{named}{name}[0]"))
        elif kind is CameraIntrinsics:
            fields += [((name, *path), k, n) for path, k, n in number_fields(kind, f"{name}: ")]
    return fields


INTRINSICS_FIELDS = number_fields(CameraIntrinsics, "intrinsics: ")


def extrinsics_fields(*path, named=""):
    """An entry of each extrinsics array, as ``Extrinsics.to_doc`` writes it."""
    return [((*path, "rotation_row_major", 4), float, f"{named}rotation_row_major"),
            ((*path, "translation_m", 0), float, f"{named}translation_m")]


# reader -> (its exit code, the start of its message, each number field)
FIELD_READERS = {
    "corners": (4, "invalid input: bad corners file", [
        (("checkerboard", "nx"), int, "nx"), (("checkerboard", "ny"), int, "ny"),
        (("pose_id",), int, "pose_id"), (("timestamp_s",), float, "timestamp_s"),
        (("corners", 0, "u_px"), float, "u_px"), (("corners", 0, "v_px"), float, "v_px"),
    ]),
    "radar": (4, "invalid input: bad radar frame", [
        (("timestamp_s",), float, "timestamp_s"), (("points", 0, "r_m"), float, "r_m"),
        (("points", 2, "rcs_dbsm"), float, "rcs_dbsm"),
    ]),
    "masks": (4, "invalid input: bad mask file", [
        (("width",), int, "width"), (("height",), int, "height"),
        *((("instances", 0, name), int, name) for name in ("class_id", "instance_id")),
        (("instances", 0, "confidence"), float, "confidence"),
    ]),
    "intrinsics": (4, "invalid input: bad intrinsics file", number_fields(CameraIntrinsics)),
    "calibration": (4, "invalid input: bad calibration file", [
        (("intrinsics", *path), kind, named) for path, kind, named in INTRINSICS_FIELDS
    ] + extrinsics_fields()),
    "calibration_scene": (2, "config error: bad calibration scene config",
                          number_fields(SceneConfig)
                          + extrinsics_fields("extrinsics", named="extrinsics: ")),
    "labeling_scene": (2, "config error: bad labeling scene config",
                       number_fields(LabelSceneConfig)
                       + extrinsics_fields("extrinsics", named="extrinsics: ")),
    "params": (2, "config error: bad parameter file", [
        ((section, *path), kind, f"{section}: {named}")
        for section, cls in PARAMS_SECTIONS.items() for path, kind, named in number_fields(cls)
    ] + [(("sync_tolerance_s",), float, "sync_tolerance_s")]),
    # the first line of a labels file, read by ``eval``
    "labels": (4, "invalid input: bad labels file", [
        ((0, "point_index"), int, "point_index"), ((0, "class_id"), NULLABLE_INT, "class_id"),
        ((0, "instance_id"), NULLABLE_INT, "instance_id"),
    ]),
}
FIELD_ROWS = [
    pytest.param(reader, path, named, value, id=f"{reader}-{'.'.join(map(str, path))}-{label}")
    for reader, (_, _, fields) in FIELD_READERS.items()
    for path, kind, named in fields
    for label, value in FIELD_VALUES[kind].items()
]


@pytest.fixture(scope="module")
def field_rule_inputs(tmp_path_factory):
    """A valid document of each reader: the labeling scene's radar frame
    (``lab_radar``), which ``autolabel`` reads beside a masks file, a frame
    stream of one calibration frame, and a labels file as a list of lines
    (``labels``, and ``gt_labels`` that ``eval`` scores it against)."""
    root = tmp_path_factory.mktemp("field_rule")
    assert run(["synth", "--kind", "calibration", "--poses", "3", "--seed", "1",
                "-o", root / "cal"]) == 0
    assert run(["synth", "--kind", "labeling", "--seed", "2", "-o", root / "lab"]) == 0
    files = {
        "corners": root / "cal" / "corners_000.json",
        "radar": root / "cal" / "radar_000.json",
        "intrinsics": root / "cal" / "intrinsics.json",
        "masks": root / "lab" / "masks_000.json",
        "calibration": root / "lab" / "calibration.json",
        "lab_radar": root / "lab" / "radar_000.json",
    }
    docs = {name: json.loads(path.read_text()) for name, path in files.items()}
    docs["radar_stream"] = [docs["radar"]]
    docs["labels"] = docs["gt_labels"] = [
        json.loads(line) for line in (root / "lab" / "gt_labels" / "labels_000.jsonl").open()
    ]
    docs["calibration_scene"] = SCENE_DOCS["calibration"]
    docs["labeling_scene"] = SCENE_DOCS["labeling"]
    docs["params"] = params_doc()
    return docs


class TestJsonFieldRule:
    """Each int or float field of every document refuses a bool, a string,
    a null, an integer outside int64 (a float field: outside the float
    range) and, for an int field, a float; the error names the file and the
    field, in exit 4 for a data file and exit 2 for a config."""

    @staticmethod
    def argv(reader, tmp: Path, docs: dict) -> tuple[list, str]:
        """The command that reads ``docs[reader]`` first of its inputs, each
        other input valid; with where its messages place the document: the
        path it is written to, and the first line of a JSON-lines file."""
        def put(name, doc):
            path = tmp / name
            path.parent.mkdir(exist_ok=True)
            lines = name.endswith(".jsonl")
            path.write_text("".join(f"{json.dumps(d)}\n" for d in doc) if lines else json.dumps(doc))
            return f"{path}:1" if lines else path

        if reader in ("corners", "radar", "radar_stream", "intrinsics"):
            paths = {
                "intrinsics": put("intrinsics.json", docs["intrinsics"]),
                "corners": put("corners/corners_000.json", docs["corners"]),
            }
            frames = tmp / "frames"
            if reader == "radar_stream":
                paths[reader] = put("frames.jsonl", docs[reader])
                frames = tmp / "frames.jsonl"
            else:
                paths["radar"] = put("frames/radar_000.json", docs["radar"])
            return ["calibrate", "--corners", tmp / "corners", "--frames", frames,
                    "--intrinsics", paths["intrinsics"], "-o", tmp / "c.json"], paths[reader]
        if reader in ("masks", "calibration", "lab_radar"):
            paths = {
                "calibration": put("calibration.json", docs["calibration"]),
                "masks": put("masks/masks_000.json", docs["masks"]),
                "lab_radar": put("frames/radar_000.json", docs["lab_radar"]),
            }
            return ["autolabel", "--frames", tmp / "frames", "--masks", tmp / "masks",
                    "--calibration", paths["calibration"], "-o", tmp / "labels"], paths[reader]
        if reader == "labels":
            put("gt/labels_000.jsonl", docs["gt_labels"])
            return ["eval", "--pred", tmp / "pred", "--gt", tmp / "gt", "-o", tmp / "report.json"
                    ], put("pred/labels_000.jsonl", docs[reader])
        path = put("config.json", docs[reader])
        if reader == "params":
            return TestExitCodes.params_argv("calibrate", tmp, path), path
        kind = reader.split("_")[0]
        return ["synth", "--kind", kind, "--config", path, "-o", tmp / "out"], path

    @pytest.mark.parametrize("reader", sorted(FIELD_READERS))
    def test_valid_documents_pass_the_reader(self, tmp_path, capsys, field_rule_inputs, reader):
        # the table's documents are valid until one field changes: the one
        # pose of a calibrate run is too few, and a params file reaches the
        # missing inputs
        argv, _ = self.argv(reader, tmp_path, field_rule_inputs)
        code = run(argv)
        err = capsys.readouterr().err
        assert code in (0, 3, 4) and "bad " not in err, err

    @pytest.mark.parametrize("reader, path, named, value", FIELD_ROWS)
    def test_field_refuses_the_value(
        self, tmp_path, capsys, field_rule_inputs, reader, path, named, value
    ):
        docs = json.loads(json.dumps(field_rule_inputs))
        target = docs[reader]
        for key in path[:-1]:
            target = target[key]
        if type(target) is list and path[-1] == len(target):  # an empty tuple field
            target.append(value)
        else:
            target[path[-1]] = value
        argv, written = self.argv(reader, tmp_path, docs)
        code, message, _ = FIELD_READERS[reader]
        assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{message} {written}: {named} "), err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # (reader, the key path of a row, or () for the whole document, the
    # name the message gives it, and the message's start)
    NON_OBJECTS = [
        ("corners", (), "the document", "bad corners file"),
        ("corners", ("checkerboard",), "checkerboard", "bad corners file"),
        ("corners", ("corners", 2), "corners[2]", "bad corners file"),
        ("radar", (), "the document", "bad radar frame"),
        ("radar", ("points", 2), "points[2]", "bad radar frame"),
        ("radar_stream", (0,), "the document", "bad frame stream"),
        ("radar_stream", (0, "points", 2), "points[2]", "bad frame stream"),
        ("intrinsics", (), "the document", "bad intrinsics file"),
        ("calibration", (), "the document", "bad calibration file"),
        ("calibration", ("intrinsics",), "intrinsics", "bad calibration file"),
        ("lab_radar", (), "the document", "bad radar frame"),
        ("lab_radar", ("points", 2), "points[2]", "bad radar frame"),
        ("masks", (), "the document", "bad mask file"),
        ("masks", ("instances", 0), "instances[0]", "bad mask file"),
        ("labels", (0,), "the document", "bad labels file"),
    ]

    @pytest.mark.parametrize(
        "reader, path, named, message", NON_OBJECTS,
        ids=[f"{reader}-{'.'.join(map(str, path)) or 'document'}"
             for reader, path, _, _ in NON_OBJECTS],
    )
    def test_non_object_is_refused(
        self, tmp_path, capsys, field_rule_inputs, reader, path, named, message
    ):
        # a whole document [1, 2], or 5 for a row or a line: the message
        # names the file (and the line) and the type it got
        docs = json.loads(json.dumps(field_rule_inputs))
        value = 5 if path else [1, 2]
        if path:
            target = docs[reader]
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            docs[reader] = value
        argv, written = self.argv(reader, tmp_path, docs)
        assert run(argv) == 4
        err = capsys.readouterr().err
        got = type(value).__name__
        assert err == f"invalid input: {message} {written}: {named} must be a JSON object, got {got}\n"


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
        behind = [(8.0, 3.10 + 0.01 * i, 0.0, 0.0, 30.0) for i in range(4)]
        write_radar_frame(last, RadarFrame(frame.timestamp_s, behind))
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

    @pytest.mark.parametrize("past", [False, True], ids=["on_boundary", "one_ulp_past"])
    def test_sync_gate_boundary(self, workflow, tmp_path, past):
        # a pose is dropped when abs(t_cam - t_rad) > sync_tolerance_s: a
        # corners timestamp exactly the tolerance from the radar's is kept,
        # one ulp further it is dropped
        tol = 2**-6  # every other pose's gap is under 0.01 s
        scene = tmp_path / "scene"
        shutil.copytree(workflow / "cal_scene", scene)
        t_rad = load_radar_frame(scene / "radar_003.json").timestamp_s
        t_cam = t_rad + tol
        assert t_cam - t_rad == tol
        if past:
            t_cam = math.nextafter(t_cam, math.inf)
        corners = scene / "corners_003.json"
        doc = json.loads(corners.read_text())
        doc["timestamp_s"] = t_cam
        corners.write_text(json.dumps(doc))
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"sync_tolerance_s": tol}))
        out = tmp_path / "c.json"
        assert run(["calibrate", "--corners", scene, "--frames", scene,
                    "--intrinsics", scene / "intrinsics.json", "--params", params,
                    "-o", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["dropped_sync"] == ([3] if past else [])
        poses = [p["pose_id"] for p in doc["per_pose"]]
        assert poses == [i for i in range(24) if not (past and i == 3)]

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

    @pytest.mark.parametrize(
        "value, level",
        [("basic_format", "WARNING"), ("bogus", "WARNING"), ("Info", "INFO"), ("debug", "DEBUG")],
    )
    def test_log_env_var_reads_level_names_only(self, tmp_path, value, level):
        # RADCAL_LOG=basic_format named a logging attribute that is no level,
        # and every command ended in a ValueError traceback, exit 1
        code = (
            "import logging; from radcal import cli; "
            "code = cli.main(['synth', '--kind', 'calibration', '--poses', '3', "
            f"'-o', {str(tmp_path / 'scene')!r}]); "
            "print(code, logging.getLevelName(logging.getLogger().level))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(radcal_env(), RADCAL_LOG=value))
        assert (proc.stdout.splitlines()[-1:], proc.stderr) == ([f"0 {level}"], "")

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

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frame_stream import write_radar_frames_stream
from radcal import cli, fileio

from radcal.autolabel import InstanceMask, LabelColumns, LabelRecord, PointCloud, Provenance
from radcal.checkerboard import CheckerboardSpec, CornerSet
from radcal.fileio import (
    SchemaError,
    canonical_json,
    load_calibration,
    load_corners,
    load_intrinsics,
    load_labels,
    load_masks,
    load_radar_frame,
    load_radar_frames,
    load_radar_points,
    write_calibration,
    write_corners,
    write_intrinsics,
    write_json,
    write_labels,
    write_masks,
    write_radar_frame,
    write_radar_points,
)
from radcal.geometry import (
    CameraIntrinsics,
    Extrinsics,
    nearest_rotation,
    rotvec_to_matrix,
    sph2cart,
)
from radcal.reflector import RadarFrame
from radcal.synth import default_extrinsics, default_intrinsics
from truth_columns import truth_columns


class TestCanonicalJson:
    def test_sorted_compact(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_float_17_digits(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(1.0) == "1"

    def test_reparse_reserialize_identical(self):
        doc = {"x": [0.1, 1 / 3, 2.5e-17, -4041.25], "n": 7, "s": "hi"}
        text = canonical_json(doc)
        again = canonical_json(json.loads(text))
        assert again == text

    def test_numpy_scalars_and_arrays(self):
        text = canonical_json({"a": np.float64(0.5), "b": np.int32(3), "c": np.arange(2)})
        assert text == '{"a":0.5,"b":3,"c":[0,1]}'

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestRle:
    @staticmethod
    def round_trip(path, mask):
        """The run list ``write_masks`` stores for a dense mask, and the mask
        ``load_masks`` reads back, decoded."""
        height, width = mask.shape
        write_masks(path, width, height, [InstanceMask.from_dense(mask, 1, 1, 0.5)])
        (back,) = load_masks(path)[2]
        return json.loads(path.read_text())["instances"][0]["rle"], back.mask

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mask = rng.uniform(size=(13, 17)) < 0.3
            _, back = self.round_trip(tmp_path / "masks_000.json", mask)
            assert np.array_equal(back, mask)

    def test_empty_mask(self, tmp_path):
        runs, back = self.round_trip(tmp_path / "masks_000.json", np.zeros((4, 4), dtype=bool))
        assert runs == []
        assert not back.any()

    def test_full_mask(self, tmp_path):
        runs, _ = self.round_trip(tmp_path / "masks_000.json", np.ones((3, 5), dtype=bool))
        assert runs == [0, 15]

    def test_overlapping_runs_rejected(self):
        with pytest.raises(SchemaError):
            fileio._rle_runs([0, 5, 3, 2], 4, 4)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(SchemaError):
            fileio._rle_runs([14, 5], 4, 4)

    def test_odd_length_rejected(self):
        with pytest.raises(SchemaError):
            fileio._rle_runs([0, 5, 7], 4, 4)

    def test_zero_length_run_rejected(self):
        with pytest.raises(SchemaError):
            fileio._rle_runs([0, 0], 4, 4)


FRAME_POINTS = {
    "spherical": {"r_m": 8.0, "az_rad": 0.1, "el_rad": -0.05, "v_mps": 0.2, "rcs_dbsm": 31.5},
    "cartesian": {"x_m": 6.0, "y_m": 1.0, "z_m": 0.5, "v_mps": 0.2, "rcs_dbsm": 31.5},
}
MIXES = "frame mixes spherical and cartesian points"


class TestRadarFrameFiles:
    def frame(self):
        returns = [(8.0, 0.1, -0.05, 0.2, 31.5), (12.5, -0.4, 0.02, -1.0, 7.25)]
        return RadarFrame(timestamp_s=3.5, returns=returns)

    def test_spherical_round_trip(self, tmp_path):
        path = tmp_path / "radar_000.json"
        write_radar_frame(path, self.frame())
        back = load_radar_frame(path)
        assert back == self.frame()

    def test_cartesian_round_trip_positions(self, tmp_path):
        path = tmp_path / "radar_000.json"
        ret = self.frame().returns
        xyz = sph2cart(ret["r_m"], ret["az_rad"], ret["el_rad"])
        write_radar_points(path, 3.5, PointCloud(xyz, ret["v_mps"], ret["rcs_dbsm"]))
        _, points = load_radar_points(path)
        assert np.allclose(points.xyz, xyz, atol=1e-12)
        assert np.array_equal(points.velocity, ret["v_mps"])

    def test_byte_identical_reserialization(self, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_radar_frame(path_a, self.frame())
        back = load_radar_frame(path_a)
        write_radar_frame(path_b, back)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_mixed_variant_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "timestamp_s": 0.0,
                    "points": [
                        {"r_m": 1, "az_rad": 0, "el_rad": 0, "v_mps": 0, "rcs_dbsm": 0},
                        {"x_m": 1, "y_m": 0, "z_m": 0, "v_mps": 0, "rcs_dbsm": 0},
                    ],
                }
            )
        )
        with pytest.raises(SchemaError):
            load_radar_frame(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"timestamp_s": 0.0, "points": [{"r_m": 1}]}))
        with pytest.raises(SchemaError):
            load_radar_frame(path)

    def test_jsonl_stream_round_trip(self, tmp_path):
        frames = [self.frame(), RadarFrame(4.5, [(3.0, 0.0, 0.0, 0.0, 12.0)])]
        path = tmp_path / "frames.jsonl"
        write_radar_frames_stream(path, frames)
        back = load_radar_frames(path)
        assert back == frames

    def test_single_file_via_stream_loader(self, tmp_path):
        from radcal.fileio import load_radar_frames

        path = tmp_path / "radar_000.json"
        write_radar_frame(path, self.frame())
        assert load_radar_frames(path) == [self.frame()]

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize(
        "point",
        [
            {"x_m": 1.0, "y_m": 2.0, "z_m": 3.0, "v_mps": 0.5, "rcs_dbsm": 12.0},
            {"r_m": 8.0, "az_rad": 0.1, "el_rad": -0.05, "v_mps": 0.2, "rcs_dbsm": 31.5},
        ],
    )
    def test_non_finite_point_field_rejected(self, tmp_path, point, value):
        for field in point:
            path = tmp_path / f"{field}.json"
            bad = dict(point, **{field: float(value)})
            path.write_text(json.dumps({"timestamp_s": 0.0, "points": [point, bad]}))
            with pytest.raises(SchemaError, match="finite"):
                load_radar_points(path)

    def test_empty_frame_loads(self, tmp_path):
        path = tmp_path / "radar_000.json"
        path.write_text(json.dumps({"timestamp_s": 0.0, "points": []}))
        _, points = load_radar_points(path)
        assert len(points) == 0
        assert points.xyz.shape == (0, 3)

    @pytest.mark.parametrize(
        "points, message",
        [
            ([FRAME_POINTS["cartesian"], FRAME_POINTS["spherical"]], MIXES),
            ([FRAME_POINTS["spherical"], FRAME_POINTS["cartesian"]], MIXES),
            ([{**FRAME_POINTS["cartesian"], "r_m": 8.0}], MIXES),
            ([FRAME_POINTS["spherical"], {**FRAME_POINTS["spherical"], "x_m": 6.0}], MIXES),
            ([{"v_mps": 0.2}, FRAME_POINTS["cartesian"]], "points[0]: missing key 'x_m'"),
            ([{"v_mps": 0.2}, FRAME_POINTS["spherical"]], "points[0]: missing key 'r_m'"),
            ([{"v_mps": 0.2}], "points[0]: missing key 'r_m'"),
        ],
        ids=["cartesian_then_spherical", "spherical_then_cartesian", "point_with_both",
             "later_point_with_both", "keyless_then_cartesian", "keyless_then_spherical",
             "keyless"],
    )
    def test_frame_variant(self, tmp_path, points, message):
        # a frame's variant is cartesian when any point holds x_m; a point
        # holding the other variant's key, wherever it is, mixes the frame
        path = tmp_path / "radar_000.json"
        path.write_text(json.dumps({"timestamp_s": 0.0, "points": points}))
        with pytest.raises(SchemaError) as points_error:
            load_radar_points(path)
        with pytest.raises(SchemaError) as frame_error:
            load_radar_frame(path)
        # one noun for the file, whichever reader reads it
        assert str(points_error.value) == f"bad radar frame {path}: {message}"
        assert str(frame_error.value) == f"bad radar frame {path}: {message}"

    @pytest.mark.parametrize("x", [1e154, 1e200, -1e300, 1.7e308])
    def test_readers_agree_on_a_point_past_the_square_overflow(self, tmp_path, x):
        # x * x overflows past about 1.3e154; the spherical reader must still see range |x|
        path = tmp_path / "radar_000.json"
        point = {"x_m": x, "y_m": 3.0, "z_m": -2.0, "v_mps": 0.5, "rcs_dbsm": 1.0}
        path.write_text(json.dumps({"timestamp_s": 0.0, "points": [point]}))
        _, points = load_radar_points(path)
        frame = load_radar_frame(path)
        assert points.xyz[0].tolist() == [x, 3.0, -2.0]
        assert frame.returns["r_m"].tolist() == [abs(x)]

    def test_radar_points_round_trip(self, tmp_path):
        points = PointCloud(
            np.array([[1.0, 2.0, 3.0], [-4.0, 0.25, 1.0]]), [0.5, -2.0], [12.0, -3.5]
        )
        path = tmp_path / "radar_000.json"
        write_radar_points(path, 1.25, points)
        timestamp, back = load_radar_points(path)
        assert timestamp == 1.25
        assert len(back) == 2
        assert np.array_equal(points.xyz, back.xyz)
        assert np.array_equal(points.velocity, back.velocity)
        assert np.array_equal(points.rcs, back.rcs)


class TestCornerFiles:
    def test_round_trip(self, tmp_path):
        corners = np.array([[10.5, 20.25], [30.0, 40.125], [50.0, 60.0]])
        cs = CornerSet(corners, CheckerboardSpec(2, 4))
        path = tmp_path / "corners_000.json"
        write_corners(path, 4, 2.5, cs)
        pose_id, timestamp, back = load_corners(path)
        assert pose_id == 4 and timestamp == 2.5
        assert np.array_equal(back.corners, corners)
        assert back.spec == cs.spec

    def test_byte_identical_reserialization(self, tmp_path):
        rng = np.random.default_rng(1)
        cs = CornerSet(rng.uniform(0, 1000, (35, 2)), CheckerboardSpec(6, 8))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_corners(a, 0, 0.0, cs)
        pid, ts, back = load_corners(a)
        write_corners(b, pid, ts, back)
        assert a.read_bytes() == b.read_bytes()


class TestMaskFiles:
    def masks(self):
        rng = np.random.default_rng(2)
        out = []
        for i in (1, 2):
            mask = np.zeros((10, 12), dtype=bool)
            mask[rng.uniform(size=(10, 12)) < 0.2] = True
            out.append(InstanceMask.from_dense(mask, i, i, 0.5 + 0.1 * i))
        return out

    def test_round_trip(self, tmp_path):
        masks = self.masks()
        path = tmp_path / "masks_000.json"
        write_masks(path, 12, 10, masks)
        width, height, back = load_masks(path)
        assert (width, height) == (12, 10)
        for a, b in zip(masks, back):
            assert np.array_equal(a.mask, b.mask)
            assert (a.class_id, a.instance_id, a.confidence) == (
                b.class_id,
                b.instance_id,
                b.confidence,
            )

    def test_wrong_shape_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_masks(tmp_path / "m.json", 5, 5, self.masks())

    def test_byte_identical_reserialization(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_masks(a, 12, 10, self.masks())
        width, height, back = load_masks(a)
        write_masks(b, width, height, back)
        assert a.read_bytes() == b.read_bytes()


class TestCalibrationFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "calibration.json"
        t = default_extrinsics()
        k = default_intrinsics()
        write_calibration(path, t, k, mre_px=1.25, rmse_px=2.5, converged=True)
        t2, k2, doc = load_calibration(path)
        assert np.allclose(t2.rotation, t.rotation, atol=1e-15)
        assert np.allclose(t2.translation, t.translation)
        assert k2 == k
        assert doc["mre_px"] == 1.25

    def test_byte_identical_reserialization(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_calibration(a, default_extrinsics(), default_intrinsics(), 1.5, 2.25, True)
        t, k, doc = load_calibration(a)
        write_calibration(
            b, t, k, doc["mre_px"], doc["rmse_px"], doc["converged"],
            per_pose=doc["per_pose"], config=doc["config"],
        )
        assert a.read_bytes() == b.read_bytes()

    def test_orthonormality_reverified(self, tmp_path):
        path = tmp_path / "calibration.json"
        t = default_extrinsics()
        write_calibration(path, t, default_intrinsics(), 0.0, 0.0, True)
        doc = json.loads(path.read_text())
        doc["rotation_row_major"][0] = 2.0
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_calibration(path)

    def test_rounded_rotation_snapped_within_tolerance(self, tmp_path):
        path = tmp_path / "calibration.json"
        t = default_extrinsics()
        write_calibration(path, t, default_intrinsics(), 0.0, 0.0, True)
        doc = json.loads(path.read_text())
        doc["rotation_row_major"] = [round(x, 7) for x in doc["rotation_row_major"]]
        path.write_text(json.dumps(doc))
        t2, _, _ = load_calibration(path)  # accepted: deviation ~1e-7 < 1e-6
        assert np.abs(t2.rotation.T @ t2.rotation - np.eye(3)).max() < 1e-9
        assert np.allclose(t2.rotation, t.rotation, atol=1e-6)


    def test_axis_angle_read_without_row_major(self, tmp_path):
        path = tmp_path / "calibration.json"
        t = default_extrinsics()
        write_calibration(path, t, default_intrinsics(), 0.0, 0.0, True)
        doc = json.loads(path.read_text())
        del doc["rotation_row_major"]
        path.write_text(json.dumps(doc))
        t2, _, _ = load_calibration(path)
        assert np.allclose(t2.rotation, t.rotation, atol=1e-12)

    def test_rounded_reflection_rejected_not_snapped(self, tmp_path):
        # deviation ~1e-7 once was snapped, which turned it into a rotation
        path = tmp_path / "calibration.json"
        write_calibration(path, default_extrinsics(), default_intrinsics(), 0.0, 0.0, True)
        doc = json.loads(path.read_text())
        doc["rotation_row_major"] = [round(-x, 7) for x in doc["rotation_row_major"]]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"bad calibration file {path}: .*reflection"):
            load_calibration(path)


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, math.pi)
    return rotvec_to_matrix(axis * angle)


IDENTITY = Extrinsics(np.eye(3), np.zeros(3))


def read_extrinsics(doc):
    """Extrinsics read as a scene config's ``extrinsics`` object is read."""
    return fileio._json_value(Extrinsics, doc, "extrinsics")


class TestExtrinsicsCodec:
    """The one extrinsics reader: ``Extrinsics.to_doc`` writes the document,
    and calibration files and scene configs read it through ``fileio``."""

    def test_round_trip_keeps_every_bit(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            t = Extrinsics(random_rotation(rng), rng.normal(size=3))
            back = read_extrinsics(json.loads(json.dumps(t.to_doc())))
            assert back.rotation.tobytes() == t.rotation.tobytes()
            assert back.translation.tobytes() == t.translation.tobytes()

    def test_axis_angle_without_row_major(self):
        rotvec = [0.3, -1.2, 0.4]
        t = read_extrinsics({"axis_angle": rotvec, "translation_m": [1, 2, 3]})
        assert t.rotation.tobytes() == rotvec_to_matrix(np.array(rotvec)).tobytes()
        assert t.translation.tolist() == [1.0, 2.0, 3.0]

    def test_row_major_wins_over_axis_angle(self):
        doc = {**IDENTITY.to_doc(), "axis_angle": [0.0, 0.0, 1.0]}
        assert np.array_equal(read_extrinsics(doc).rotation, np.eye(3))

    def test_rounded_rotation_snapped_exact_one_kept(self):
        rotation = random_rotation(np.random.default_rng(22))
        assert np.abs(rotation.T @ rotation - np.eye(3)).max() < 1e-9
        doc = {"rotation_row_major": rotation.ravel().tolist(), "translation_m": [0, 0, 0]}
        assert read_extrinsics(doc).rotation.tobytes() == rotation.tobytes()
        doc["rotation_row_major"] = np.round(rotation, 7).ravel().tolist()
        snapped = read_extrinsics(doc).rotation
        assert np.array_equal(snapped, nearest_rotation(np.round(rotation, 7)))
        assert np.allclose(snapped, rotation, atol=1e-6)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"rotation_row_major": np.eye(3).ravel().tolist()[:8]},
             "rotation_row_major must hold 9 entries, got 8"),
            ({"rotation_row_major": [1, 0, 0, 0, 1, 0, 0, 0, "1"]},
             "rotation_row_major must be a JSON number, got str"),
            ({"rotation_row_major": np.eye(3).tolist()},
             "rotation_row_major must be a JSON number, got list"),
            ({"rotation_row_major": (1.01 * np.eye(3)).ravel().tolist()},
             "rotation is not orthonormal (max deviation 2.010e-02)"),
            ({"rotation_row_major": [1, 0, 0, 0, 1, 0, 0, 0, -1]},
             "rotation has determinant -1 (reflection)"),
            # a rounded reflection is rejected, not snapped to a rotation
            ({"rotation_row_major": [1, 0, 0, 0, 1, 0, 0, 0, -1.0000001]},
             "rotation has determinant -1 (reflection)"),
            ({"translation_m": [0, 0]}, "translation_m must hold 3 entries, got 2"),
            ({"translation_m": [0, True, 0]}, "translation_m must be a JSON number, got bool"),
            ({"translation_m": [0, math.nan, 0]}, "translation must be finite"),
            ({"translation_m": "0 0 0"}, "translation_m must be a JSON array, got str"),
            ({"axis_angle": [0, 0, 0], "rotation_row_major": None},
             "rotation_row_major must be a JSON array, got NoneType"),
            ({"rotation_row_major": [[1, 0, 0], 0, 0, 0, 1, 0, 0, 0, 1]},
             "rotation_row_major must be a JSON number, got list"),
            ({"translation_m": [10**400, 0, 0]}, "translation_m does not fit a float"),
        ],
        ids=["short_rotation", "text_entry", "nested_rotation", "scaled_rotation",
             "reflection", "rounded_reflection", "short_translation", "bool_entry",
             "nan_translation", "text_translation", "null_rotation", "nested_entry",
             "translation_past_float"],
    )
    def test_bad_document_raises(self, change, message):
        with pytest.raises(ValueError) as info:
            read_extrinsics({**IDENTITY.to_doc(), **change})
        assert str(info.value) == f"extrinsics: {message}"

    def test_missing_rotation_is_a_missing_key(self):
        with pytest.raises(ValueError) as info:
            read_extrinsics({"translation_m": [0, 0, 0]})
        assert str(info.value) == "extrinsics: missing key 'axis_angle'"

    def test_calibration_file_reads_the_same_fields(self, tmp_path):
        # the calibration document holds the extrinsics at its top level
        path = tmp_path / "calibration.json"
        write_calibration(path, default_extrinsics(), default_intrinsics(), 0.0, 0.0, True)
        doc = json.loads(path.read_text())
        loaded, expected = load_calibration(path)[0], read_extrinsics(doc)
        assert loaded.rotation.tobytes() == expected.rotation.tobytes()
        assert loaded.translation.tobytes() == expected.translation.tobytes()
        doc["translation_m"][1] = 10**400
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as info:
            load_calibration(path)
        assert str(info.value) == f"bad calibration file {path}: translation_m does not fit a float"


class TestLabelFiles:
    def records(self):
        return [
            LabelRecord(0, (1, 2), Provenance.COARSE),
            LabelRecord(1, None, Provenance.FILTERED_OUT),
            LabelRecord(2, (2, 3), Provenance.RECOVERED),
            LabelRecord(3, None, Provenance.UNLABELED),
        ]

    def columns(self):
        """The columns of ``records()``."""
        return LabelColumns(
            np.array([1, 0, 2, 0]),
            np.array([2, 0, 3, 0]),
            np.array([True, False, True, False]),
            np.array([0, 1, 2, 3], dtype=np.int8),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels_000.jsonl"
        write_labels(path, self.columns())
        back = load_labels(path)
        assert back.class_id.dtype == back.instance_id.dtype == np.int64
        assert back.labeled.tolist() == [True, False, True, False]
        assert back.class_id.tolist() == [1, 0, 2, 0]
        assert back.instance_id.tolist() == [2, 0, 3, 0]
        assert list(back) == self.records()

    def test_byte_identical_reserialization(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_labels(a, self.columns())
        write_labels(b, load_labels(a))
        assert a.read_bytes() == b.read_bytes()

    def test_iteration_yields_plain_ints_in_point_order(self):
        records = list(self.columns())
        assert records == self.records()
        for r in records:
            assert type(r.point_index) is int
            assert r.label is None or {type(x) for x in r.label} == {int}

    def test_incomplete_coverage_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_labels(path, truth_columns([None] * 3))
        lines = path.read_text().splitlines()
        path.write_text(f"{lines[0]}\n{lines[2]}\n")  # point indices 0 and 2
        with pytest.raises(SchemaError):
            load_labels(path)

    def test_lines_in_any_order_load_in_point_order(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_labels(path, self.columns())
        path.write_text("\n".join(path.read_text().splitlines()[::-1]) + "\n")
        assert list(load_labels(path)) == self.records()

    def test_blank_lines_and_surrounding_whitespace_ignored(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_labels(a, self.columns())
        lines = a.read_text().splitlines()
        b.write_text("\n\n" + "\n  \n".join(f" {line}\t" for line in lines) + "\n\n")
        assert list(load_labels(b)) == self.records()

    def test_lines_with_brackets_parse_one_by_one(self, tmp_path):
        # extra keys are ignored; a bracket keeps the file off the joined parse
        path = tmp_path / "labels.jsonl"
        path.write_text(
            '{"point_index":1,"class_id":null,"instance_id":4,"provenance":"unlabeled","note":"[x]"}\n'
            '{"provenance":"coarse","point_index":0,"extra":[1,{"a":2}],"instance_id":2,"class_id":1}\n'
        )
        back = load_labels(path)
        assert back.labeled.tolist() == [True, False]
        assert back.class_id.tolist() == [1, 0]
        assert back.instance_id.tolist() == [2, 0]
        assert back.provenance.tolist() == [0, 3]

    def test_container_spanning_two_lines_rejected(self, tmp_path):
        # joined with ",\n" these two lines would parse as two objects, but
        # neither line is one JSON value on its own
        path = tmp_path / "labels.jsonl"
        line = '{"point_index":0,"class_id":1,"instance_id":1,"provenance":"coarse"}'
        path.write_text(
            f'{line},{{"point_index":1,"class_id":1,"instance_id":1,"provenance":"coarse","x":[1\n'
            "2]}\n"
        )
        with pytest.raises(SchemaError, match=r"labels\.jsonl:1: Extra data"):
            load_labels(path)

    def test_empty_file_loads_no_points(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text("\n")
        assert len(load_labels(path)) == 0

    @pytest.mark.parametrize("field", ["point_index", "class_id", "instance_id"])
    @pytest.mark.parametrize("value", ["2.7", "3.0", "1e2", "true", '"3"', "1e999", "NaN"])
    def test_ids_must_be_json_integers(self, tmp_path, field, value):
        doc = {"point_index": 0, "class_id": 1, "instance_id": 1, "provenance": "coarse"}
        doc[field] = "VALUE"
        path = tmp_path / "labels.jsonl"
        path.write_text(json.dumps(doc).replace('"VALUE"', value) + "\n")
        with pytest.raises(SchemaError, match=rf"labels\.jsonl:1: {field} must be a JSON integer"):
            load_labels(path)


    @pytest.mark.parametrize("field", ["point_index", "class_id", "instance_id"])
    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    @pytest.mark.parametrize("null", [False, True], ids=["ids", "with_null"])
    def test_id_past_int64_names_its_field(self, tmp_path, field, value, null):
        # numpy's "Python int too large to convert to C long" named no field
        doc = {"point_index": 0, "class_id": 1, "instance_id": 1, "provenance": "coarse"}
        line = json.dumps({**doc, field: value})
        if null:  # a null id reads the columns through an object array
            line += "\n" + json.dumps({**doc, "point_index": 1, "class_id": None})
        path = tmp_path / "labels.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(SchemaError) as info:
            load_labels(path)
        assert str(info.value) == (
            f"bad labels file {path}:1: {field} {value} does not fit a 64-bit integer"
        )


# one line of a valid labels file, and how a mutation may rewrite it
LABEL_LINES = [
    {"point_index": 0, "class_id": 1, "instance_id": 2, "provenance": "coarse"},
    {"point_index": 1, "class_id": None, "instance_id": None, "provenance": "filtered_out"},
    {"point_index": 2, "class_id": 2, "instance_id": 3, "provenance": "recovered"},
    {"point_index": 3, "class_id": None, "instance_id": None, "provenance": "unlabeled"},
]
ID_FIELDS = ("point_index", "class_id", "instance_id")
WRONG_ID = st.sampled_from([2.5, 3.0, True, False, "3", [1], {"a": 1}])
NON_FINITE = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"])


@st.composite
def mutated_label_file(draw):
    """(file text, 1-based line number the error must name, or None for
    coverage errors) for one single-line mutation of LABEL_LINES."""
    lines = [dict(doc) for doc in LABEL_LINES]
    i = draw(st.integers(0, len(lines) - 1))
    doc = lines[i]
    raw = None
    kind = draw(st.sampled_from(
        ["drop", "wrong_id", "null_index", "wrong_provenance", "duplicate", "missing",
         "non_finite", "two_values", "truncated", "array"]
    ))
    if kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "wrong_id":
        doc[draw(st.sampled_from(ID_FIELDS))] = draw(WRONG_ID)
    elif kind == "null_index":
        doc["point_index"] = None
    elif kind == "wrong_provenance":
        doc["provenance"] = draw(st.sampled_from([1, None, True, "bogus", ["coarse"], {"p": 1}]))
    elif kind == "duplicate":
        doc["point_index"] = draw(st.sampled_from([j for j in range(len(lines)) if j != i]))
    elif kind == "missing":
        doc["point_index"] = draw(st.sampled_from([-1, len(lines), 100]))
    elif kind == "non_finite":
        doc[draw(st.sampled_from(ID_FIELDS))] = "NON_FINITE"
        raw = draw(NON_FINITE)
    text_lines = [json.dumps(d) for d in lines]
    if raw is not None:
        text_lines[i] = text_lines[i].replace('"NON_FINITE"', raw)
    if kind == "two_values":
        text_lines[i] = f"{text_lines[i]},{text_lines[i]}"
    elif kind == "truncated":
        text_lines[i] = text_lines[i][: draw(st.integers(1, len(text_lines[i]) - 1))]
    elif kind == "array":
        text_lines[i] = f"[{text_lines[i]}]"
    coverage_only = kind in ("duplicate", "missing")
    return "\n".join(text_lines) + "\n", None if coverage_only else i + 1


class TestLabelFileMutations:
    @settings(max_examples=150)
    @given(mutated_label_file())
    def test_single_line_mutation_is_a_schema_error(self, case):
        text, line_no = case
        with tempfile.TemporaryDirectory() as tmp:
            pred, gt = Path(tmp) / "pred", Path(tmp) / "gt"
            pred.mkdir()
            gt.mkdir()
            (gt / "labels_000.jsonl").write_text(
                "\n".join(json.dumps(d) for d in LABEL_LINES) + "\n"
            )
            path = pred / "labels_000.jsonl"
            path.write_text(text)
            with pytest.raises(SchemaError) as info:
                load_labels(path)
            if line_no is not None:
                assert f"{path}:{line_no}:" in str(info.value)
            code = cli.main(["eval", "--pred", str(pred), "--gt", str(gt),
                             "-o", str(Path(tmp) / "report.json")])
            assert code == cli.EXIT_INVALID


# one point of each radar frame variant, and how a mutation may rewrite a frame
NOT_A_POINT_LIST = st.sampled_from([{}, {"r_m": 1.0}, 3, "r_m", None, [[8.0, 0.1]], [3]])


@st.composite
def mutated_radar_frame(draw):
    """(mutation kind, frame document text) for one mutation of a valid
    frame of 1-4 points."""
    kind = draw(st.sampled_from(
        ["none", "drop", "null", "string", "list", "1e999", "mixed", "points",
         "elevation", "azimuth"]
    ))
    spherical_only = kind in ("elevation", "azimuth")
    variant = "spherical" if spherical_only else draw(st.sampled_from(sorted(FRAME_POINTS)))
    points = [dict(FRAME_POINTS[variant]) for _ in range(draw(st.integers(1, 4)))]
    doc = {"timestamp_s": 1.5, "points": points}
    i = draw(st.integers(0, len(points) - 1))
    key = draw(st.sampled_from([*sorted(points[i]), "timestamp_s"]))
    target = doc if key == "timestamp_s" else points[i]
    if kind == "drop":
        del target[key]
    elif kind in ("null", "string", "list", "1e999"):
        target[key] = {"null": None, "string": str(target[key]), "list": [target[key]],
                       "1e999": "BIG"}[kind]
    elif kind == "mixed":
        other = "cartesian" if variant == "spherical" else "spherical"
        points.insert(i, dict(FRAME_POINTS[other]))
    elif kind == "points":
        doc["points"] = draw(NOT_A_POINT_LIST)
    elif kind == "elevation":
        points[i]["el_rad"] = draw(st.sampled_from([1.5707963267948968, 2.0, -1.6]))
    elif kind == "azimuth":
        points[i]["az_rad"] = -math.pi
    return kind, json.dumps(doc).replace('"BIG"', "1e999")


class TestRadarFrameMutations:
    """Every mutated frame, in either variant, as a .json file or one .jsonl
    line, is a SchemaError in each reader (exit 4 from calibrate) or a frame
    that holds the documented ranges; no other exception escapes."""

    @staticmethod
    def outcome(load, path):
        try:
            return load(path)
        except SchemaError:
            return None

    @settings(max_examples=200)
    @given(mutated_radar_frame())
    def test_schema_error_or_valid_frame(self, case):
        kind, text = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "radar_000.json").write_text(text)
            (tmp / "stream.jsonl").write_text(text + "\n")
            write_intrinsics(tmp / "intrinsics.json", default_intrinsics())
            frame = self.outcome(load_radar_frame, tmp / "radar_000.json")
            frames = self.outcome(load_radar_frames, tmp / "stream.jsonl")
            points = self.outcome(load_radar_points, tmp / "radar_000.json")
            assert (frames is None) == (frame is None)
            for frames_arg in (tmp, tmp / "stream.jsonl"):
                code = cli.main(["calibrate", "--corners", str(tmp), "--frames", str(frames_arg),
                                 "--intrinsics", str(tmp / "intrinsics.json"),
                                 "-o", str(tmp / "c.json")])
                # with no corner files, an accepted frame ends in exit 3
                assert code == (cli.EXIT_INVALID if frame is None else cli.EXIT_IO)
        if kind in ("drop", "null", "string", "list", "mixed", "points", "elevation"):
            assert frame is None and points is None
        if kind in ("none", "azimuth"):
            assert frame is not None and points is not None
        if frame is not None:
            assert frames == [frame]
            ret = frame.returns
            assert np.isfinite(ret.view((float, 5))).all()
            assert (ret["r_m"] >= 0).all() and (np.abs(ret["el_rad"]) <= math.pi / 2).all()
            assert ((-math.pi < ret["az_rad"]) & (ret["az_rad"] <= math.pi)).all()
            if kind == "azimuth":
                assert math.pi in ret["az_rad"]
                _, cloud = points
                xyz = sph2cart(ret["r_m"], ret["az_rad"], ret["el_rad"])
                assert np.array_equal(cloud.xyz, xyz)


# a value a JSON integer field must refuse rather than truncate or coerce
NOT_AN_INT = st.sampled_from(
    [0.7, 6.9, 1.9, 3.0, "0", "3", "1920", True, False, None, [3], {"n": 3}, 2**63, -(2**63) - 1]
)
NOT_A_FLOAT = st.sampled_from([None, [1.5], {"u": 1.5}, "1.5", True])


def corners_doc():
    return {
        "pose_id": 0,
        "timestamp_s": 0.0,
        "checkerboard": {"nx": 3, "ny": 3},
        "corners": [{"u_px": 900.0 + 10 * i, "v_px": 500.0 + 10 * j}
                    for j in range(2) for i in range(2)],
    }


@st.composite
def mutated_corners(draw):
    """(kind, corners document text) for one mutation that makes a valid
    corners document invalid."""
    doc = corners_doc()
    corner = doc["corners"][draw(st.integers(0, 3))]
    kind = draw(st.sampled_from(
        ["int", "drop", "float", "corners", "checkerboard", "timestamp"]
    ))
    if kind == "int":
        field = draw(st.sampled_from(["pose_id", "nx", "ny"]))
        (doc if field == "pose_id" else doc["checkerboard"])[field] = draw(NOT_AN_INT)
    elif kind == "drop":
        target, key = draw(st.sampled_from([
            (doc, "pose_id"), (doc, "timestamp_s"), (doc, "checkerboard"), (doc, "corners"),
            (doc["checkerboard"], "nx"), (doc["checkerboard"], "ny"),
            (corner, "u_px"), (corner, "v_px"),
        ]))
        del target[key]
    elif kind == "float":
        corner[draw(st.sampled_from(["u_px", "v_px"]))] = draw(NOT_A_FLOAT)
    elif kind == "corners":
        doc["corners"] = draw(st.sampled_from([None, 3, "corners", {"u_px": 1.0}]))
    elif kind == "checkerboard":
        doc["checkerboard"] = draw(st.sampled_from([None, [3, 3], "3x3", 3]))
    else:
        doc["timestamp_s"] = draw(st.sampled_from([None, [0.0], "NON_FINITE"]))
    return kind, json.dumps(doc).replace('"NON_FINITE"', draw(NON_FINITE))


class TestCornersFileMutations:
    """A mutated corners file ends ``calibrate`` in exit 4 naming the file;
    an integer field given as a float, a string or a bool is refused, not
    truncated."""

    def test_valid_document_reaches_the_radar_inputs(self, tmp_path):
        (tmp_path / "corners_000.json").write_text(json.dumps(corners_doc()))
        write_intrinsics(tmp_path / "intrinsics.json", default_intrinsics())
        # the corners are read; with no radar files the run ends in exit 3
        assert cli.main(["calibrate", "--corners", str(tmp_path), "--frames", str(tmp_path),
                         "--intrinsics", str(tmp_path / "intrinsics.json"),
                         "-o", str(tmp_path / "c.json")]) == cli.EXIT_IO

    @pytest.mark.parametrize("field, value", [("pose_id", 0.7), ("pose_id", "0"),
                                              ("pose_id", False), ("nx", 6.9)])
    def test_integer_field_not_truncated(self, tmp_path, field, value):
        doc = corners_doc()
        (doc if field == "pose_id" else doc["checkerboard"])[field] = value
        path = tmp_path / "corners.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"{field} must be a JSON integer"):
            load_corners(path)

    @settings(max_examples=120)
    @given(mutated_corners())
    def test_mutation_exit_4_naming_the_file(self, case):
        _, text = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = tmp / "corners_000.json"
            path.write_text(text)
            write_intrinsics(tmp / "intrinsics.json", default_intrinsics())
            with pytest.raises(SchemaError, match="bad corners file"):
                load_corners(path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["calibrate", "--corners", str(tmp), "--frames", str(tmp),
                                 "--intrinsics", str(tmp / "intrinsics.json"),
                                 "-o", str(tmp / "c.json")])
            assert code == cli.EXIT_INVALID
            assert str(path) in err.getvalue()


@pytest.fixture(scope="module")
def label_scene(tmp_path_factory):
    scene = tmp_path_factory.mktemp("label_scene")
    assert cli.main(["synth", "--kind", "labeling", "--seed", "2", "-o", str(scene)]) == 0
    return scene


def masks_doc():
    k = default_intrinsics()
    return {
        "width": k.width,
        "height": k.height,
        "instances": [
            {"instance_id": 1, "class_id": 2, "confidence": 0.9, "rle": [0, 5, 1000, 40]},
            {"instance_id": 2, "class_id": 1, "confidence": 0.8, "rle": [5000, 7]},
        ],
    }


@st.composite
def mutated_masks(draw):
    """(kind, masks document text) for one mutation that makes a valid
    masks document invalid."""
    doc = masks_doc()
    inst = doc["instances"][draw(st.integers(0, 1))]
    kind = draw(st.sampled_from(["int", "drop", "confidence", "instances", "rle"]))
    if kind == "int":
        field = draw(st.sampled_from(["width", "height", "class_id", "instance_id"]))
        (doc if field in ("width", "height") else inst)[field] = draw(NOT_AN_INT)
    elif kind == "drop":
        target, key = draw(st.sampled_from([
            (doc, "width"), (doc, "height"), (doc, "instances"), (inst, "instance_id"),
            (inst, "class_id"), (inst, "confidence"), (inst, "rle"),
        ]))
        del target[key]
    elif kind == "confidence":
        inst["confidence"] = draw(NOT_A_FLOAT)
    elif kind == "instances":
        doc["instances"] = draw(st.sampled_from([None, 3, "masks", {"rle": [0, 1]}]))
    else:
        inst["rle"] = draw(st.sampled_from([[0], [0, 0], [5, 1, 0, 1], [0, "x"], None, "0 1"]))
    return kind, json.dumps(doc)


class TestMasksFileMutations:
    """A mutated masks file ends ``autolabel`` in exit 4; a bad field other
    than the run list is named with the file.  An integer field given as a
    float, a string or a bool is refused, not truncated."""

    @staticmethod
    def autolabel(scene, masks_text, out):
        frames = out / "in"
        frames.mkdir()
        (frames / "radar_000.json").write_bytes((scene / "radar_000.json").read_bytes())
        (frames / "masks_000.json").write_text(masks_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["autolabel", "--frames", str(frames), "--masks", str(frames),
                             "--calibration", str(scene / "calibration.json"),
                             "-o", str(out / "labels")])
        return code, err.getvalue(), frames / "masks_000.json"

    def test_valid_document_labels(self, label_scene, tmp_path):
        code, _, _ = self.autolabel(label_scene, json.dumps(masks_doc()), tmp_path)
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("field, value", [("class_id", 1.9), ("width", "1920"),
                                              ("instance_id", True), ("class_id", 2**70)])
    def test_integer_field_not_truncated(self, tmp_path, field, value):
        doc = masks_doc()
        (doc if field == "width" else doc["instances"][0])[field] = value
        path = tmp_path / "masks.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"bad mask file {path}: {field} "):
            load_masks(path)

    @settings(max_examples=120)
    @given(mutated_masks())
    def test_mutation_exit_4(self, label_scene, case):
        kind, text = case
        with tempfile.TemporaryDirectory() as tmp:
            code, err, path = self.autolabel(label_scene, text, Path(tmp))
        assert code == cli.EXIT_INVALID
        if kind != "rle":  # run-list messages name the run, not the file
            assert str(path) in err

    @pytest.mark.parametrize("rle", [[0, "1"], [2, 1.5], [0, 2, True, 1], [0.0, 2], "0 1", {}])
    def test_run_list_not_json_integers_exit_4(self, label_scene, tmp_path, rle):
        doc = masks_doc()
        doc["instances"][1]["rle"] = rle
        code, err, path = self.autolabel(label_scene, json.dumps(doc), tmp_path)
        assert code == cli.EXIT_INVALID
        assert f"bad mask file {path}: RLE " in err


def intrinsics_doc():
    return dataclasses.asdict(default_intrinsics())


def mutate_intrinsics(draw, doc):
    """One mutation that makes a valid intrinsics document invalid; returns
    the text a JSON number may be spliced into, or None."""
    kind = draw(st.sampled_from(["int", "float", "drop", "value", "non_finite"]))
    if kind == "int":
        doc[draw(st.sampled_from(["width", "height"]))] = draw(NOT_AN_INT)
    elif kind == "float":
        doc[draw(st.sampled_from(["fx", "fy", "cx", "cy"]))] = draw(NOT_A_FLOAT)
    elif kind == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "value":
        name, value = draw(st.sampled_from(
            [("fx", 0.0), ("fy", -500.0), ("width", 0), ("height", -1080)]
        ))
        doc[name] = value
    else:
        doc[draw(st.sampled_from(["fx", "fy", "cx", "cy"]))] = "NON_FINITE"
        return draw(NON_FINITE)
    return None


@st.composite
def mutated_intrinsics(draw):
    """Intrinsics document text with one mutation that makes it invalid."""
    doc = intrinsics_doc()
    if draw(st.booleans()):
        return json.dumps(draw(st.sampled_from([None, [], "intrinsics", 3, [doc]])))
    raw = mutate_intrinsics(draw, doc)
    return json.dumps(doc).replace('"NON_FINITE"', raw or "")


def calibration_doc():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "calibration.json"
        write_calibration(path, default_extrinsics(), default_intrinsics(), 1.0, 1.5, True)
        return json.loads(path.read_text())


@st.composite
def mutated_calibration(draw):
    """Calibration document text with one mutation that makes it invalid."""
    doc = calibration_doc()
    raw = None
    kind = draw(st.sampled_from(
        ["float", "drop", "length", "container", "rotation", "non_finite", "intrinsics"]
    ))
    vector = draw(st.sampled_from(["rotation_row_major", "translation_m"]))
    if kind == "float":
        doc[vector][draw(st.integers(0, len(doc[vector]) - 1))] = draw(NOT_A_FLOAT)
    elif kind == "drop":  # without rotation_row_major the rotation is axis_angle
        for key in draw(st.sampled_from(
            [("rotation_row_major", "axis_angle"), ("translation_m",), ("intrinsics",)]
        )):
            del doc[key]
    elif kind == "length":
        doc[vector] = doc[vector][: draw(st.integers(0, len(doc[vector]) - 1))] or doc[vector] * 2
    elif kind == "container":
        doc[vector] = draw(st.sampled_from([None, 3, "R", {"0": 1.0}, [doc[vector]]]))
    elif kind == "rotation":
        # scaled, a reflection, or rounded past the 1e-6 tolerance
        rotation = np.array(doc["rotation_row_major"])
        doc["rotation_row_major"] = draw(st.sampled_from(
            [(2.0 * rotation).tolist(), (-rotation).tolist(), np.round(rotation, 3).tolist()]
        ))
    elif kind == "non_finite":
        doc[vector][draw(st.integers(0, len(doc[vector]) - 1))] = "NON_FINITE"
        raw = draw(NON_FINITE)
    elif draw(st.booleans()):
        doc["intrinsics"] = draw(st.sampled_from([None, [], "k", 3]))
    else:
        raw = mutate_intrinsics(draw, doc["intrinsics"])
    if draw(st.integers(0, 9)) == 0:
        doc = draw(st.sampled_from([None, [], "calibration", [doc]]))
    return json.dumps(doc).replace('"NON_FINITE"', raw or "")


class TestCalibrationFileMutations:
    """A mutated calibration file ends ``autolabel`` in exit 4, never in a
    traceback."""

    @staticmethod
    def autolabel(tmp, text):
        path = tmp / "calibration.json"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            # empty input directories: a calibration that loads ends in exit 3
            code = cli.main(["autolabel", "--frames", str(tmp), "--masks", str(tmp),
                             "--calibration", str(path), "-o", str(tmp / "labels")])
        return code, err.getvalue()

    def test_valid_document_reaches_the_frame_inputs(self, tmp_path):
        code, err = self.autolabel(tmp_path, json.dumps(calibration_doc()))
        assert code == cli.EXIT_IO, err

    @settings(max_examples=150)
    @given(mutated_calibration())
    def test_mutation_exit_4(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            code, err = self.autolabel(Path(tmp), text)
        assert code == cli.EXIT_INVALID, err


class TestIntrinsicsFileMutations:
    """A mutated intrinsics file ends ``calibrate`` in exit 4, never in a
    traceback."""

    @staticmethod
    def calibrate(tmp, text):
        path = tmp / "intrinsics.json"
        path.write_text(text)
        (tmp / "corners").mkdir()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["calibrate", "--corners", str(tmp / "corners"), "--frames",
                             str(tmp), "--intrinsics", str(path), "-o", str(tmp / "c.json")])
        return code, err.getvalue()

    def test_valid_document_reaches_the_corner_inputs(self, tmp_path):
        code, err = self.calibrate(tmp_path, json.dumps(intrinsics_doc()))
        assert code == cli.EXIT_IO, err

    @settings(max_examples=150)
    @given(mutated_intrinsics())
    def test_mutation_exit_4(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            code, err = self.calibrate(Path(tmp), text)
        assert code == cli.EXIT_INVALID, err


BIG_INT = "1" + "0" * 400  # overflows a float as well as an int64
TOO_LARGE = {
    "load_labels": (
        "labels.jsonl",
        '{"point_index":0,"class_id":%s,"instance_id":1,"provenance":"coarse"}' % BIG_INT,
    ),
    "load_corners": (
        "corners.json",
        '{"pose_id":1e999,"timestamp_s":0.0,"checkerboard":{"nx":2,"ny":2},"corners":[]}',
    ),
    "load_intrinsics": (
        "intrinsics.json",
        '{"fx":1.0,"fy":1.0,"cx":1.0,"cy":1.0,"width":1e999,"height":10}',
    ),
    "load_masks": (
        "masks.json",
        '{"width":2,"height":2,"instances":[{"instance_id":1,"class_id":1e999,'
        '"confidence":0.5,"rle":[0,1]}]}',
    ),
    "load_calibration": (
        "calibration.json",
        '{"rotation_row_major":[1,0,0,0,1,0,0,0,1],"translation_m":[0,0,0],'
        '"intrinsics":{"fx":1.0,"fy":1.0,"cx":1.0,"cy":1.0,"width":1e999,"height":10}}',
    ),
    "load_radar_frame": (
        "radar.json",
        '{"timestamp_s":0.0,"points":[{"r_m":%s,"az_rad":0.0,"el_rad":0.0,'
        '"v_mps":0.0,"rcs_dbsm":0.0}]}' % BIG_INT,
    ),
    "load_radar_frames": ("radar.jsonl", '{"timestamp_s":%s,"points":[]}' % BIG_INT),
    "load_radar_points": (
        "radar.json",
        '{"timestamp_s":0.0,"points":[{"x_m":%s,"y_m":0.0,"z_m":0.0,'
        '"v_mps":0.0,"rcs_dbsm":0.0}]}' % BIG_INT,
    ),
}


@pytest.mark.parametrize("loader", sorted(TOO_LARGE))
def test_number_too_large_for_its_type_is_a_schema_error(tmp_path, loader):
    """1e999 as an int, or an integer beyond float range, is a SchemaError
    in every loader rather than an OverflowError."""
    name, text = TOO_LARGE[loader]
    path = tmp_path / name
    path.write_text(text + "\n")
    with pytest.raises(SchemaError):
        getattr(fileio, loader)(path)


class TestIntrinsicsFiles:
    def test_round_trip(self, tmp_path):
        k = default_intrinsics()
        path = tmp_path / "intrinsics.json"
        write_intrinsics(path, k)
        assert load_intrinsics(path) == k

    def test_missing_field(self, tmp_path):
        path = tmp_path / "intrinsics.json"
        path.write_text('{"fx": 100.0}')
        with pytest.raises(SchemaError):
            load_intrinsics(path)

    def test_doc_round_trip(self, tmp_path):
        k = CameraIntrinsics(700.0, 710.0, 320.5, 240.0, 640, 480)
        assert dataclasses.asdict(k) == {
            "fx": 700.0, "fy": 710.0, "cx": 320.5, "cy": 240.0, "width": 640, "height": 480,
        }
        path = tmp_path / "intrinsics.json"
        path.write_text(json.dumps(dataclasses.asdict(k)))
        assert load_intrinsics(path) == k

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"fx": 1.0, "fy": 1.0, "cx": 1.0, "cy": 1.0, "width": 2},
             "missing key 'height'"),
            ({"fx": 1.0, "fy": 1.0, "cx": 1.0, "cy": 1.0, "width": 2, "height": 1e999},
             "height must be a JSON integer, got float"),
            ({"fx": "x", "fy": 1.0, "cx": 1.0, "cy": 1.0, "width": 2, "height": 2},
             "fx must be a JSON number, got str"),
            ({"fx": 0.0, "fy": 1.0, "cx": 1.0, "cy": 1.0, "width": 2, "height": 2},
             "focal lengths must be positive and finite: 0.0, 1.0"),
            ([1.0, 1.0, 1.0, 1.0, 2, 2], "the document must be a JSON object, got list"),
            ({"fx": 1.0, "fy": 1.0, "cx": 1.0, "cy": 1.0, "width": 2, "height": 2, "k1": 0.1},
             "unknown key(s) ['k1']"),
        ],
        ids=["missing_height", "infinite_height", "text_fx", "zero_fx", "list", "extra_key"],
    )
    def test_bad_doc(self, tmp_path, doc, message):
        path = tmp_path / "intrinsics.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as info:
            load_intrinsics(path)
        assert str(info.value) == f"bad intrinsics file {path}: {message}"


DEEP = "[" * 100_000


class TestDeeplyNestedJson:
    """JSON nested past the parser's recursion limit is a SchemaError."""

    def test_intrinsics_with_nested_extra_key(self, tmp_path):
        path = tmp_path / "intrinsics.json"
        write_intrinsics(path, default_intrinsics())
        path.write_text(path.read_text().strip()[:-1] + ',"extra":' + DEEP + "}")
        with pytest.raises(SchemaError, match="recursion"):
            load_intrinsics(path)

    @pytest.mark.parametrize("text", [DEEP, '{"a":' * 100_000], ids=["arrays", "objects"])
    def test_labels(self, tmp_path, text):
        path = tmp_path / "labels_000.jsonl"
        path.write_text(text + "\n")
        with pytest.raises(SchemaError, match="labels_000.jsonl:1"):
            load_labels(path)

    def test_radar_frame_stream(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text(DEEP + "\n")
        with pytest.raises(SchemaError, match="frames.jsonl:1"):
            load_radar_frames(path)


class TestUndecodableText:
    """Bytes that are not UTF-8 are a SchemaError naming the file and line."""

    def test_labels(self, tmp_path):
        path = tmp_path / "labels_000.jsonl"
        write_labels(path, TestLabelFiles().columns())
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        with pytest.raises(SchemaError, match=r"bad labels file .*labels_000.jsonl:1: 'utf-8'"):
            load_labels(path)

    def test_labels_names_the_line(self, tmp_path):
        path = tmp_path / "labels_000.jsonl"
        write_labels(path, TestLabelFiles().columns())
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b"recovered", b"recov\xe9red")
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(SchemaError, match=r"labels_000.jsonl:3: 'utf-8'"):
            load_labels(path)

    def test_radar_frame_stream(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        frame = RadarFrame(0.0, [(5.0, 0.1, 0.0, 1.0, 10.0)])
        write_radar_frames_stream(path, [frame, frame])
        first, second = path.read_bytes().splitlines()
        path.write_bytes(first + b"\n" + second.replace(b"{", b"{\xff", 1) + b"\n")
        with pytest.raises(SchemaError, match=r"bad frame stream .*frames.jsonl:2: 'utf-8'"):
            load_radar_frames(path)

    def test_lines_end_as_in_text_mode(self, tmp_path):
        # at \n, \r\n and a lone \r
        path = tmp_path / "labels_000.jsonl"
        write_labels(path, TestLabelFiles().columns())
        lines = path.read_text().splitlines()
        path.write_text("\r\n".join(lines[:2]) + "\r" + "\n".join(lines[2:]), newline="")
        assert load_labels(path).class_id.tolist() == [1, 0, 2, 0]


def frame_doc():
    point = {"r_m": 8.0, "az_rad": 0.1, "el_rad": -0.05, "v_mps": 0.2, "rcs_dbsm": 31.5}
    return {"timestamp_s": 0.0, "points": [point, dict(point, r_m=9.0)]}


def label_line(point_index):
    return {"point_index": point_index, "class_id": None, "instance_id": None,
            "provenance": "unlabeled"}


# reader -> (the loader, its noun, the file it reads, a valid document, a
# key the document must hold and the message naming it, and an array of
# rows with a key each row must hold, or None); a JSON-lines file holds a
# valid first line and the document on line 2
WORDING_READERS = {
    "radar_frame": (load_radar_frame, "radar frame", "radar_000.json", frame_doc,
                    "timestamp_s", "missing key 'timestamp_s'", ("points", "az_rad")),
    "radar_points": (load_radar_points, "radar frame", "radar_000.json", frame_doc,
                     "timestamp_s", "missing key 'timestamp_s'", ("points", "az_rad")),
    "frame_stream": (load_radar_frames, "frame stream", "frames.jsonl", frame_doc,
                     "points", "missing key 'points'", ("points", "r_m")),
    "corners": (load_corners, "corners file", "corners_000.json", corners_doc,
                "pose_id", "missing key 'pose_id'", ("corners", "v_px")),
    "masks": (load_masks, "mask file", "masks_000.json", masks_doc,
              "instances", "missing key 'instances'", ("instances", "rle")),
    "calibration": (load_calibration, "calibration file", "calibration.json", calibration_doc,
                    "translation_m", "missing key 'translation_m'", None),
    "intrinsics": (load_intrinsics, "intrinsics file", "intrinsics.json", intrinsics_doc,
                   "cx", "missing key 'cx'", None),
    "labels": (load_labels, "labels file", "labels_000.jsonl", lambda: label_line(1),
               "provenance", "missing key 'provenance'", None),
}
ROW_READERS = [name for name, spec in WORDING_READERS.items() if spec[-1]]


class TestOneWording:
    """Every data file's error is one line, ``bad <noun> <source>:
    <message>``: one noun per file kind whichever reader reads it, the file
    (with ``:<line>`` in a JSON-lines file) as the source, and one wording
    per message class."""

    @staticmethod
    def write(tmp_path, reader, text):
        """The reader's file holding ``text`` and the source its errors name."""
        path = tmp_path / WORDING_READERS[reader][2]
        if path.suffix != ".jsonl":
            path.write_text(text)
            return path, path
        first = label_line(0) if reader == "labels" else frame_doc()
        path.write_text(f"{json.dumps(first)}\n{text}\n")
        return path, f"{path}:2"

    def error(self, tmp_path, reader, text):
        load, noun, *_ = WORDING_READERS[reader]
        path, source = self.write(tmp_path, reader, text)
        with pytest.raises(SchemaError) as info:
            load(path)
        return str(info.value), f"bad {noun} {source}: "

    @pytest.mark.parametrize("reader", sorted(WORDING_READERS))
    def test_valid_document_loads(self, tmp_path, reader):
        load, _, _, doc, *_ = WORDING_READERS[reader]
        load(self.write(tmp_path, reader, json.dumps(doc()))[0])

    @pytest.mark.parametrize("reader", sorted(WORDING_READERS))
    def test_syntax_error(self, tmp_path, reader):
        text = json.dumps(WORDING_READERS[reader][3]())[:7]
        with pytest.raises(json.JSONDecodeError) as parser:
            json.loads(text)
        message, prefix = self.error(tmp_path, reader, text)
        assert message == f"{prefix}{parser.value}"

    @pytest.mark.parametrize("reader", sorted(WORDING_READERS))
    def test_non_object_document(self, tmp_path, reader):
        message, prefix = self.error(tmp_path, reader, "[1, 2]")
        assert message == f"{prefix}the document must be a JSON object, got list"

    @pytest.mark.parametrize("reader", sorted(WORDING_READERS))
    def test_missing_key(self, tmp_path, reader):
        _, _, _, doc, key, named, _ = WORDING_READERS[reader]
        doc = doc()
        del doc[key]
        message, prefix = self.error(tmp_path, reader, json.dumps(doc))
        assert message == f"{prefix}{named}"

    @pytest.mark.parametrize("reader", ROW_READERS)
    def test_missing_key_in_a_row(self, tmp_path, reader):
        # the first row without the key, not the first row
        doc = WORDING_READERS[reader][3]()
        rows, key = WORDING_READERS[reader][-1]
        del doc[rows][1][key]
        message, prefix = self.error(tmp_path, reader, json.dumps(doc))
        assert message == f"{prefix}{rows}[1]: missing key '{key}'"

    def test_labels_that_miss_a_point(self, tmp_path):
        # the one error of a labels file as a whole, not of a line
        path = tmp_path / "labels_000.jsonl"
        path.write_text(f"{json.dumps(label_line(0))}\n{json.dumps(label_line(2))}\n")
        with pytest.raises(SchemaError) as info:
            load_labels(path)
        assert str(info.value) == (
            f"bad labels file {path}: point indices must cover 0..N-1 exactly once"
        )


class TestOutputs:
    def test_files_replace_their_targets_when_the_block_ends(self, tmp_path):
        (tmp_path / "kept.json").write_text("old\n")
        with fileio.Outputs() as outputs:
            out = outputs.mkdir(tmp_path / "a" / "b")
            write_json(outputs.file(out / "x.json"), {"a": 1})
            write_json(outputs.file(tmp_path / "kept.json"), [])
            assert [p.suffix for p in out.iterdir()] == [".tmp"]
            assert (tmp_path / "kept.json").read_text() == "old\n"
        assert [p.name for p in out.iterdir()] == ["x.json"]
        assert (out / "x.json").read_text() == '{"a":1}\n'
        assert (tmp_path / "kept.json").read_text() == "[]\n"

    def test_exception_removes_temp_files_and_made_directories(self, tmp_path):
        (tmp_path / "kept.json").write_text("old\n")
        with pytest.raises(RuntimeError):
            with fileio.Outputs() as outputs:
                out = outputs.mkdir(tmp_path / "a" / "b")
                outputs.mkdir(tmp_path)
                write_json(outputs.file(out / "x.json"), {})
                write_json(outputs.file(tmp_path / "kept.json"), {})
                outputs.file(tmp_path / "never_written.json")
                raise RuntimeError
        assert [p.name for p in tmp_path.iterdir()] == ["kept.json"]
        assert (tmp_path / "kept.json").read_text() == "old\n"

    def test_failed_move_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            with fileio.Outputs() as outputs:
                write_json(outputs.file(tmp_path / "dir"), {})
                write_json(outputs.file(tmp_path / "x.json"), {})
                (tmp_path / "dir").mkdir()  # after staging, so the move fails
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "x.json"]

    def test_directory_target_fails_before_a_temp_file(self, tmp_path):
        (tmp_path / "dir").mkdir()
        message = re.escape(f"cannot write {tmp_path / 'dir'}: it is a directory")
        with pytest.raises(IsADirectoryError, match=f"^{message}$"):
            with fileio.Outputs() as outputs:
                write_json(outputs.file(tmp_path / "x.json"), {})
                outputs.file(tmp_path / "dir")
        assert list(tmp_path.iterdir()) == [tmp_path / "dir"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_files_get_the_mode_a_plain_write_gives(self, tmp_path, umask, mode):
        # mkstemp makes every temp file 0600, and the rename keeps that
        old = os.umask(umask)
        try:
            with fileio.Outputs() as outputs:
                write_json(outputs.file(tmp_path / "x.json"), {})
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "x.json").stat().st_mode) == mode

    def test_missing_directory_fails_before_a_temp_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no directory"):
            with fileio.Outputs() as outputs:
                outputs.file(tmp_path / "nodir" / "x.json")
        assert list(tmp_path.iterdir()) == []


def test_atomic_write_leaves_no_temp_files(tmp_path):
    write_json(tmp_path / "x.json", {"a": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

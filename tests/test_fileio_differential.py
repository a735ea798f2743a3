"""Every data file reader gives the json module's outcome with orjson.

Each reader parses with orjson first and falls back to json on any fault
(``fileio._document``).  Each case here runs a reader twice on one file:
once as shipped and once with ``orjson.loads`` made to fail, so that json
alone parses.  Both runs must return the same bits (every float compared by
its bits, -0.0 included) or fail with the same message.  The inputs plant
what orjson reads differently from json: integers past 64 bits, doubles over
the whole range, NaN, Infinity, 1e999, a lone surrogate and duplicate keys.
"""

import dataclasses
import json
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radcal import fileio
from radcal.synth import default_extrinsics, default_intrinsics

# a planted number may put the principal point outside the image, or
# overflow the rotation's orthonormality check
pytestmark = [
    pytest.mark.filterwarnings("ignore:principal point:UserWarning"),
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
]

# integers at and past the int64 and uint64 ends, which orjson reads as
# floats beyond [-2**63, 2**64), and the tokens orjson refuses
WIDE_INTS = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, -(2**64),
             10**30, -(10**30)]
TOKENS = ["NaN", "Infinity", "-Infinity", "1e999", "-1e999", '"\\ud800"']
SMALL = ["0", "-0.0", "1", "2", "0.5", "5e-324", "2.2250738585072014e-308",
         "1.7976931348623157e308"]
PLANTED = [str(n) for n in WIDE_INTS] + TOKENS + SMALL

DOUBLES = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([repr(x), "%.17g" % x])
)
NUMBERS = st.one_of(st.sampled_from(PLANTED), DOUBLES, st.integers(-3, 3).map(str))


def frame_doc(keys):
    rows = [(8.0, 0.1, -0.05, 0.2, 31.5), (9.0, -0.2, 0.0, -0.1, 12.25)]
    return {"timestamp_s": 0.5, "points": [dict(zip(keys, row)) for row in rows]}


SPHERICAL = ("r_m", "az_rad", "el_rad", "v_mps", "rcs_dbsm")
CARTESIAN = ("x_m", "y_m", "z_m", "v_mps", "rcs_dbsm")


def calibration_doc():
    k = default_intrinsics()
    return {
        **default_extrinsics().to_doc(),
        "intrinsics": dataclasses.asdict(k),
        "mre_px": 1.0,
        "rmse_px": 1.5,
        "converged": True,
        "per_pose": [{"pose_id": 0, "residual_px": 0.25}],
        "config": {"seed": 7, "sigma": 0.5},
    }


def label_lines():
    return [
        {"point_index": 1, "class_id": 2, "instance_id": 1, "provenance": "coarse"},
        {"point_index": 0, "class_id": None, "instance_id": None, "provenance": "unlabeled"},
    ]


# reader -> (loader, file name, a valid document; a list of documents is
# one JSON-lines file)
READERS = {
    "radar_frame_spherical": (fileio.load_radar_frame, "radar.json",
                              lambda: frame_doc(SPHERICAL)),
    "radar_frame_cartesian": (fileio.load_radar_frame, "radar.json",
                              lambda: frame_doc(CARTESIAN)),
    "radar_points_spherical": (fileio.load_radar_points, "radar.json",
                               lambda: frame_doc(SPHERICAL)),
    "radar_points_cartesian": (fileio.load_radar_points, "radar.json",
                               lambda: frame_doc(CARTESIAN)),
    "frame_stream": (fileio.load_radar_frames, "frames.jsonl",
                     lambda: [frame_doc(SPHERICAL), frame_doc(CARTESIAN)]),
    "corners": (fileio.load_corners, "corners.json", lambda: {
        "pose_id": 3, "timestamp_s": 0.5, "checkerboard": {"nx": 3, "ny": 3},
        "corners": [{"u_px": 900.0 + 10 * i, "v_px": 500.5} for i in range(4)],
    }),
    "masks": (fileio.load_masks, "masks.json", lambda: {
        "width": 64, "height": 48, "instances": [
            {"instance_id": 1, "class_id": 2, "confidence": 0.9, "rle": [0, 5, 100, 40]},
            {"instance_id": 2, "class_id": 1, "confidence": 0.75, "rle": [500, 7]},
        ],
    }),
    "calibration": (fileio.load_calibration, "calibration.json", calibration_doc),
    "intrinsics": (fileio.load_intrinsics, "intrinsics.json",
                   lambda: dataclasses.asdict(default_intrinsics())),
    "labels": (fileio.load_labels, "labels.jsonl", label_lines),
}


def leaves(doc, path=()):
    """The key path of every number, string, bool and null in ``doc``."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in leaves(value, (*path, key))]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in leaves(value, (*path, i))]
    return [path]


def dump(doc, planted: dict, doubled: dict, path=()) -> str:
    """JSON text of ``doc`` with the raw text ``planted[p]`` at each key
    path p, and each key at a path in ``doubled`` written twice: first with
    the raw text ``doubled[p]``, then with its own value, which wins."""
    if path in planted:
        return planted[path]
    if isinstance(doc, dict):
        items = []
        for key, value in doc.items():
            head = json.dumps(key) + ":"
            if (*path, key) in doubled:
                items.append(head + doubled[(*path, key)])
            items.append(head + dump(value, planted, doubled, (*path, key)))
        return "{" + ",".join(items) + "}"
    if isinstance(doc, list):
        items = (dump(value, planted, doubled, (*path, i)) for i, value in enumerate(doc))
        return "[" + ",".join(items) + "]"
    return json.dumps(doc)


def text_of(doc, planted, doubled) -> str:
    if isinstance(doc, list):  # one line per document
        return "\n".join(dump(line, planted, doubled, (i,)) for i, line in enumerate(doc)) + "\n"
    return dump(doc, planted, doubled)


def bits(value):
    """``value`` as nested tuples of plain values, every float and array
    as its bytes, so that == compares bits."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(map(bits, value)))
    if isinstance(value, dict):
        return ("dict", tuple((key, bits(v)) for key, v in value.items()))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple((f.name, bits(getattr(value, f.name))) for f in dataclasses.fields(value)))
    return (type(value).__name__, value)


def refused(text):
    raise orjson.JSONDecodeError("orjson is switched off", "", 0)


def outcome(load, path):
    try:
        return "value", bits(load(path))
    except Exception as exc:  # noqa: BLE001 (the type and message are compared)
        return type(exc).__name__, str(exc)


def both_outcomes(reader, text: str):
    """The reader's outcome on ``text`` as shipped and with json alone."""
    load, name, _ = READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        shipped = outcome(load, path)
        with mock.patch.object(orjson, "loads", refused):
            json_only = outcome(load, path)
    return shipped, json_only


@pytest.mark.parametrize("reader", sorted(READERS))
def test_valid_document_loads_alike(reader):
    doc = READERS[reader][2]()
    shipped, json_only = both_outcomes(reader, text_of(doc, {}, {}))
    assert shipped[0] == "value"
    assert shipped == json_only


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_planted_value_in_every_field(reader):
    # one value at a time, so that each wide integer reaches each int and
    # float field itself, and not behind an earlier field's fault
    doc = READERS[reader][2]()
    values = 0
    for path in leaves(doc):
        for token in PLANTED:
            shipped, json_only = both_outcomes(reader, text_of(doc, {path: token}, {}))
            assert shipped == json_only, (path, token)
            values += shipped[0] == "value"
    assert values  # some planted values are read, not only refused


@st.composite
def planted_documents(draw, reader):
    """Text of the reader's valid document with a few leaves replaced by
    drawn numbers or tokens, perhaps a key written twice, and perhaps an
    extra top-level key (a lone surrogate as its name or value)."""
    doc = READERS[reader][2]()
    top = doc[0] if isinstance(doc, list) else doc
    if draw(st.booleans()):
        name = draw(st.sampled_from(["extra", "\ud800"]))
        top[name] = draw(st.sampled_from([None, "\ud800", [[[]]], {"a": {}}]))
    paths = leaves(doc)
    chosen = draw(st.lists(st.sampled_from(paths), max_size=3, unique=True))
    planted = {path: draw(NUMBERS) for path in chosen}
    doubled = {}
    if draw(st.booleans()):  # a key, not an array entry
        doubled[draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]))] = draw(NUMBERS)
    return text_of(doc, planted, doubled)


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_json_and_orjson_give_the_same_outcome(reader, data):
    text = data.draw(planted_documents(reader))
    shipped, json_only = both_outcomes(reader, text)
    assert shipped == json_only

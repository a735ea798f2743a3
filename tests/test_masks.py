"""Instance masks held as runs.

Sampling and decoding the runs must agree with indexing the dense array
they came from, and ``load_masks`` must read a run list exactly as the
dense decoder in ``scalar_reference.py`` did: the same lists accepted, the
same decoded pixels, and the same message for the first bad run.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from radcal.autolabel import InstanceMask, runs_to_dense
from radcal.fileio import (
    _BAD_FIELD,
    SchemaError,
    _rle_runs,
    _run_list,
    load_masks,
    write_masks,
)


def dense(rows: list[str]) -> np.ndarray:
    """Mask from rows of "." (clear) and "#" (set)."""
    return np.array([[c == "#" for c in row] for row in rows], dtype=bool)


@st.composite
def masks_and_queries(draw):
    """A random bool mask and random row-major pixel offsets into it."""
    height, width = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    bits = draw(st.lists(st.booleans(), min_size=height * width, max_size=height * width))
    queries = draw(st.lists(st.integers(0, height * width - 1), max_size=30))
    return np.array(bits, dtype=bool).reshape(height, width), np.array(queries, dtype=np.int64)


NO_QUERIES = np.empty(0, dtype=np.int64)


class TestRuns:
    @settings(max_examples=300)
    @given(masks_and_queries())
    @example((dense(["....", "...."]), NO_QUERIES))  # empty
    @example((dense(["####", "####"]), NO_QUERIES))  # full
    @example((dense(["#...", "...."]), NO_QUERIES))  # first pixel only
    @example((dense(["....", "...#"]), NO_QUERIES))  # last pixel only
    @example((dense(["..##", "##..", "#..#"]), NO_QUERIES))  # runs across row ends
    @example((dense(["#"]), NO_QUERIES))
    def test_runs_match_dense_mask(self, case):
        mask, queries = case
        m = InstanceMask.from_dense(mask, 1, 1, 0.5)
        assert m.starts.dtype == m.ends.dtype == np.int64
        assert (m.height, m.width) == mask.shape
        # maximal runs: non-empty, sorted, separated by at least one clear pixel
        assert np.all(m.starts < m.ends) and np.all(m.ends[:-1] < m.starts[1:])
        assert np.array_equal(m.mask, mask)
        every = np.arange(mask.size)
        assert np.array_equal(m.covers(every), mask.ravel())
        assert np.array_equal(m.covers(every[::-1]), mask.ravel()[::-1])
        assert np.array_equal(m.covers(queries), mask.ravel()[queries])
        runs = _run_list(m.starts, m.ends)  # the file's [start, length, ...] list
        assert np.array_equal(runs_to_dense(*_rle_runs(runs, *mask.shape), *mask.shape), mask)
        assert np.array_equal(ref.rle_decode(runs, *mask.shape), mask)

    @settings(max_examples=50)
    @given(masks_and_queries())
    def test_file_round_trip_keeps_runs(self, case):
        mask, _ = case
        height, width = mask.shape
        m = InstanceMask.from_dense(mask, 2, 3, 0.25)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "masks_000.json"
            write_masks(path, width, height, [m])
            assert load_masks(path)[:2] == (width, height)
            (back,) = load_masks(path)[2]
        assert np.array_equal(back.starts, m.starts)
        assert np.array_equal(back.ends, m.ends)
        assert (back.class_id, back.instance_id, back.confidence) == (2, 3, 0.25)


# Entries of malformed run lists: small ints around a 4 x 5 image, ints
# beyond int64, floats (NaN and infinities too), and values int() rejects
# or reads from a string.
ENTRIES = st.one_of(
    st.integers(-3, 24),
    st.integers(-3, 24),
    st.sampled_from([10**30, -(10**30), 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(alphabet="01 -.x", max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
)
PAIRS = st.lists(st.tuples(st.integers(-2, 22), st.integers(-1, 7)), max_size=5).map(
    lambda pairs: [x for pair in pairs for x in pair]
)
RLE = st.one_of(
    PAIRS,
    st.lists(ENTRIES, max_size=9),
    st.text(alphabet="0123", max_size=4),
    st.dictionaries(st.sampled_from(["0", "1"]), st.integers(0, 3)),
    st.none(),
    st.integers(),
)


def reference_outcome(runs, height: int, width: int, path: Path):
    """The dense decoder's mask, or the message load_masks gives: every
    rejection names the file."""
    try:
        return ref.rle_decode(runs, height, width)
    except _BAD_FIELD as exc:  # SchemaError too
        return f"bad mask file {path}: {exc}"


class TestMalformedRunLists:
    @settings(max_examples=400)
    @given(RLE, st.integers(0, 4), st.integers(0, 5))
    @example([0, 5, 7], 4, 5)  # odd length
    @example([0, 0], 4, 5)  # zero length
    @example([3, 2, 0, 1], 4, 5)  # unsorted
    @example([0, 5, 3, 2], 4, 5)  # overlapping
    @example([0, 5, 5, 2], 4, 5)  # adjacent: accepted
    @example([-1, 2], 4, 5)  # negative start
    @example([14, 7], 4, 5)  # beyond H x W
    @example([0, 20], 4, 5)  # the whole image
    @example([0, 2, "x", 1], 4, 5)  # non-int entry
    @example([2, 1.5], 4, 5)  # float entry
    @example([0, 0, None, 1], 4, 5)  # a bad run before a non-int entry
    @example([1, 2, 0, 10**30], 4, 5)  # length beyond int64
    @example([0, -(10**30)], 4, 5)  # the message names the unclipped length
    def test_load_masks_agrees_with_dense_decoder(self, runs, height, width):
        doc = {
            "width": width,
            "height": height,
            "instances": [{"instance_id": 1, "class_id": 1, "confidence": 0.5, "rle": runs}],
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "masks_000.json"
            path.write_text(json.dumps(doc))
            runs = json.loads(path.read_text())["instances"][0]["rle"]
            expected = reference_outcome(runs, height, width, path)
            try:
                (m,) = load_masks(path)[2]
                got = m.mask
            except SchemaError as exc:
                got = str(exc)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert not isinstance(got, str), got
            assert np.array_equal(got, expected)

    @settings(max_examples=200)
    @given(RLE, st.integers(0, 4), st.integers(0, 5))
    def test_rle_decode_agrees_with_dense_decoder(self, runs, height, width):
        def outcome(decode):
            try:
                return decode()
            except _BAD_FIELD as exc:
                return type(exc), str(exc)

        expected = outcome(lambda: ref.rle_decode(runs, height, width))
        # the raw run validation, then a decode of the runs it accepted
        got = outcome(lambda: runs_to_dense(*_rle_runs(runs, height, width), height, width))
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert np.array_equal(got, expected)

"""Traced child entry point: run one radcal CLI command with spans and counters.

Usage: python3 perfbench/traced_child.py <trace.json> <op id> <radcal CLI args...>

Times ``import radcal`` (with ``radcal.cli``, which ``python -m radcal.cli``
also loads), then replaces the public functions the benchmark attributes time
to with timing wrappers, at the module attribute where their callers look them
up, and runs ``radcal.cli.main``.  Spans are kept in memory as (name, start,
end, parent, op id) and written with the counters to <trace.json> at exit.
Nothing under ``src/`` changes; the wrappers pass arguments and results
through untouched, so outputs stay byte-identical to an untraced run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import Counter


class Tracer:
    """In-memory spans with a per-thread parent stack.

    A span opened on a thread with an empty stack (a ``--jobs`` pool thread)
    takes the op's root span as its parent, so the root's self time is the
    part of its interval that no span on any thread covers.
    """

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = {}
        self.root: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current_name(self) -> str | None:
        stack = self.stack()
        return self.spans[stack[-1]][0] if stack else None

    def record(self, name: str, start: float, end: float) -> None:
        with self._lock:
            self.spans.append([name, start, end, None])

    def call(self, name: str, fn, *args, **kwargs):
        stack = self.stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, stack[-1] if stack else self.root]
            )
            if self.root is None:
                self.root = index
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = time.perf_counter()
            stack.pop()

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "op_id": self.op_id,
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "counts": self.counts,
                },
                fh,
            )


def wrap(tracer: Tracer, module, attr: str, name: str | None, before=None, after=None):
    """Replace ``module.attr`` with a wrapper that records a span ``name``.

    With ``name`` None the wrapper only counts.  ``before(args)`` and
    ``after(args, result)`` run outside the span, so counting is not charged
    to the wrapped layer; ``after`` runs only when the call returns.
    """
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args)
        if name is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    setattr(module, attr, traced)


def wrap_fileio(tracer: Tracer, fileio, attr: str) -> None:
    """Span a fileio reader or writer and count the bytes of its file.

    fileio's writers call one another (``write_masks`` -> ``write_json`` ->
    ``write_text``); only the outermost call gets a span and counts bytes.
    """
    fn = getattr(fileio, attr)
    name = f"fileio.{attr}"
    key = "fileio.bytes_read" if attr.startswith("load_") else "fileio.bytes_written"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        outer = tracer.current_name()
        if outer is not None and outer.startswith("fileio."):
            return fn(*args, **kwargs)
        result = tracer.call(name, fn, *args, **kwargs)
        tracer.add(key, os.path.getsize(args[0]))
        if attr == "load_radar_points":
            tracer.add("fileio.points_loaded", len(result[1]))
        elif attr == "load_radar_frame":
            tracer.add("fileio.points_loaded", len(result.returns))
        elif attr == "load_masks":
            tracer.add("fileio.mask_bytes_decoded", sum(m.mask.nbytes for m in result[2]))
        return result

    setattr(fileio, attr, traced)


def install(tracer: Tracer) -> None:
    """Wrap each public function where its callers look it up."""
    import radcal.autolabel as al
    import radcal.calibration as cal
    import radcal.cli as cli
    import radcal.fileio as fileio
    import radcal.metrics as metrics
    import radcal.reflector as rf
    import radcal.synth as synth

    for attr in fileio.__all__:
        if attr.startswith(("load_", "write_")):
            wrap_fileio(tracer, fileio, attr)

    # cli imported checkerboard_center by name; everything else it reaches
    # through module attributes, and the modules call their own globals.
    wrap(tracer, cli, "checkerboard_center", "checkerboard.checkerboard_center")
    wrap(tracer, synth, "gen_calibration_scene", "synth.gen_calibration_scene")
    wrap(tracer, synth, "gen_label_scene", "synth.gen_label_scene")
    wrap(tracer, metrics, "label_report", "metrics.label_report")
    wrap(tracer, cal, "build_correspondences", "calibration.build_correspondences")
    wrap(tracer, cal, "solve_extrinsics", "calibration.solve_extrinsics")
    def count_lm(args, result):
        tracer.add("calibration.lm_runs", 1)
        tracer.add("calibration.iterations", result[2])  # (pose, cost, iterations, ...)

    # _run_lm is private; it is wrapped without a span, only to count the
    # LM descents and their iterations.
    wrap(tracer, cal, "_run_lm", None, after=count_lm)
    wrap(
        tracer, rf, "extract_reflector", "reflector.extract_reflector",
        before=lambda args: tracer.add("reflector.attempts", 1),
        after=lambda args, result: tracer.add("reflector.found", 1),
    )
    wrap(
        tracer, rf, "filter_returns", "reflector.filter_returns",
        before=lambda args: tracer.add("reflector.returns_in", len(args[0].returns)),
        after=lambda args, result: tracer.add("reflector.returns_kept", len(result)),
    )
    wrap(
        tracer, rf, "dbscan", "reflector.dbscan",
        after=lambda args, result: tracer.add("reflector.clusters", len(result[0])),
    )

    def count_frame(args, records):
        tracer.add("autolabel.points", len(args[0]))
        tracer.add("autolabel.masks", len(args[1]))
        for provenance, n in Counter(r.provenance.value for r in records).items():
            tracer.add(f"autolabel.{provenance}", n)

    wrap(tracer, al, "autolabel_frame", "autolabel.autolabel_frame", after=count_frame)
    wrap(tracer, al, "coarse_associate", "autolabel.coarse_associate")
    wrap(tracer, al, "cluster_stats", "autolabel.cluster_stats")
    wrap(tracer, al, "filter_cluster", "autolabel.filter_cluster")
    wrap(
        tracer, al, "complete_clusters", "autolabel.complete_clusters",
        before=lambda args: tracer.add("autolabel.offered", len(args[1])),
    )


def main() -> int:
    trace_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(op_id)
    start = time.perf_counter()
    import radcal  # noqa: F401
    import radcal.cli

    tracer.record("import.radcal", start, time.perf_counter())
    install(tracer)
    try:
        return tracer.call("cli.main", radcal.cli.main, argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())

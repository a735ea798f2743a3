"""A JSON-lines stream of radar frames, the form ``calibrate --frames x.jsonl``
reads; no command writes one, so the tests make their own."""

from pathlib import Path

from radcal.fileio import canonical_json
from radcal.reflector import RETURN_DTYPE


def write_radar_frames_stream(path, frames) -> None:
    """One spherical frame per canonical JSON line; line order is the pose order."""
    lines = [
        canonical_json({
            "timestamp_s": frame.timestamp_s,
            "points": [dict(zip(RETURN_DTYPE.names, row)) for row in frame.returns.tolist()],
        })
        for frame in frames
    ]
    Path(path).write_text("".join(line + "\n" for line in lines))

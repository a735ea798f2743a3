"""True labels spelled out per point, as the ``LabelColumns`` the library
scores and writes."""

from __future__ import annotations

import dataclasses

import numpy as np

from radcal.autolabel import _CODE, LabelColumns, Provenance


def truth_columns(labels) -> LabelColumns:
    """Columns from per-point labels, ``(class_id, instance_id)`` or None,
    with a ground-truth file's provenance: coarse where labeled."""
    labeled = np.array([lbl is not None for lbl in labels], dtype=bool)
    pairs = np.array([(0, 0) if lbl is None else lbl for lbl in labels], dtype=np.int64)
    class_id, instance_id = pairs.reshape(-1, 2).T
    provenance = np.where(labeled, _CODE[Provenance.COARSE], _CODE[Provenance.UNLABELED])
    return LabelColumns(class_id, instance_id, labeled, provenance.astype(np.int8))


def column_bytes(labels: LabelColumns) -> tuple[bytes, ...]:
    """The bytes of each column, to compare two label sets column by column
    (``==`` on ``LabelColumns`` is identity)."""
    return tuple(getattr(labels, f.name).tobytes() for f in dataclasses.fields(labels))

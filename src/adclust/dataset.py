"""Dataset container and CSV ingestion.

Label conventions: 1 = normal, 0 = abnormal, -1 = unlabeled. A separate
"truth" array (same coding, plus 2 = unknown component) may accompany a
dataset for evaluation; the clustering itself never reads it.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

LABEL_NORMAL = 1
LABEL_ABNORMAL = 0
LABEL_NONE = -1
TRUTH_UNKNOWN = 2

_LABEL_TOKENS = {"normal": LABEL_NORMAL, "abnormal": LABEL_ABNORMAL, "": LABEL_NONE}
_TRUTH_TOKENS = {**_LABEL_TOKENS, "unknown": TRUTH_UNKNOWN}
_TOKEN_OF = {LABEL_NORMAL: "normal", LABEL_ABNORMAL: "abnormal", LABEL_NONE: "",
             TRUTH_UNKNOWN: "unknown"}


@dataclass
class Dataset:
    """Points with sparse class labels.

    points: (N, q) float64, finite.
    labels: (N,) int8 drawn from {1, 0, -1}.
    feature_names: q column names.
    """

    points: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int8)
        if self.points.ndim != 2:
            raise ValidationError("points must be a 2-d array")
        n, q = self.points.shape
        if n == 0 or q == 0:
            raise ValidationError("points must be nonempty")
        if not np.isfinite(self.points).all():
            raise ValidationError("points must be finite")
        if self.labels.shape != (n,):
            raise ValidationError("labels length must match point count")
        bad = ~np.isin(self.labels, (LABEL_NORMAL, LABEL_ABNORMAL, LABEL_NONE))
        if bad.any():
            raise ValidationError("labels must be in {1, 0, -1}")
        if not self.feature_names:
            self.feature_names = tuple(f"x{i}" for i in range(q))
        if len(self.feature_names) != q:
            raise ValidationError("feature_names length must match dimensionality")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def q(self) -> int:
        return self.points.shape[1]

    def labeled_ids(self) -> np.ndarray:
        return np.flatnonzero(self.labels != LABEL_NONE)


@dataclass
class IngestInfo:
    """Bookkeeping from ingest_csv, kept out of the Dataset itself.

    truth holds the pre-blanking labels when label subsampling was
    requested (evaluation only). dropped_rows lists 1-based data row
    numbers rejected for non-finite values; dropped_index gives their
    0-based positions among the non-blank data rows, as truth rows count.
    """

    truth: np.ndarray | None
    dropped_rows: tuple[int, ...]
    dropped_index: tuple[int, ...]
    retained_label_count: int


def label_token(code: int) -> str:
    return _TOKEN_OF[int(code)]


def read_text(path: str) -> str:
    """UTF-8 text of path, newlines as they are, a leading byte-order
    mark dropped; a file that cannot be read is a ValidationError."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, newlines as they are; a path that
    cannot be written is a ValidationError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _csv_rows(path: str):
    """Stripped header of the CSV at path and its non-blank data rows as
    (row number, cells), numbered from 1 with blank rows counted; a row
    whose cell count differs from the header's is a ValidationError."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header is None:
        raise ValidationError(f"{path}: empty file")

    def rows():
        for rownum, raw in enumerate(reader, start=1):
            if not any(c.strip() for c in raw):
                continue
            if len(raw) != len(header):
                raise ValidationError(f"{path}: row {rownum} has {len(raw)} "
                                      f"cells, expected {len(header)}")
            yield rownum, raw

    return [h.strip() for h in header], rows()


def ingest_csv(path: str, label_column: str = "label",
               label_fraction: float | None = None,
               seed: int = 0) -> tuple[Dataset, IngestInfo]:
    """Read a feature CSV with an optional label column.

    Feature cells must parse as finite floats; a parse failure is an
    error naming the cell, while parseable non-finite rows (nan/inf) are
    dropped and reported in IngestInfo. With label_fraction, a uniform
    subsample of round(fraction * n_labeled) labeled rows (at least 1)
    keeps its labels and the rest are blanked; the original labels are
    returned as truth.
    """
    header, data = _csv_rows(path)
    label_idx = header.index(label_column) if label_column in header else None
    feat_idx = [i for i in range(len(header)) if i != label_idx]
    if not feat_idx:
        raise ValidationError(f"{path}: no feature columns")
    rows: list[list[float]] = []
    labels: list[int] = []
    dropped: list[int] = []
    dropped_index: list[int] = []
    for pos, (rownum, raw) in enumerate(data):
        vals = []
        for i in feat_idx:
            cell = raw[i].strip()
            try:
                vals.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"{path}: non-numeric value {cell!r} at row {rownum}, "
                    f"column {header[i]!r}") from None
        if not all(map(math.isfinite, vals)):
            dropped.append(rownum)
            dropped_index.append(pos)
            continue
        if label_idx is not None:
            token = raw[label_idx].strip()
            if token not in _LABEL_TOKENS:
                raise ValidationError(
                    f"{path}: unknown label token {token!r} at row {rownum}")
            labels.append(_LABEL_TOKENS[token])
        else:
            labels.append(LABEL_NONE)
        rows.append(vals)
    if not rows:
        raise ValidationError(f"{path}: no usable rows")
    points = np.array(rows, dtype=np.float64)
    label_arr = np.array(labels, dtype=np.int8)
    names = tuple(header[i] for i in feat_idx)

    truth = None
    retained = int((label_arr != LABEL_NONE).sum())
    if label_fraction is not None:
        if not 0.0 < label_fraction <= 1.0:
            raise ValidationError("label_fraction must be in (0, 1]")
        labeled = np.flatnonzero(label_arr != LABEL_NONE)
        if labeled.size == 0:
            raise ValidationError("label_fraction given but no labeled rows")
        truth = label_arr.copy()
        keep_n = max(1, round(label_fraction * labeled.size))
        rng = np.random.default_rng(seed)
        keep = rng.choice(labeled, size=keep_n, replace=False)
        label_arr[np.setdiff1d(labeled, keep)] = LABEL_NONE
        retained = keep_n
    ds = Dataset(points, label_arr, names)
    return ds, IngestInfo(truth=truth, dropped_rows=tuple(dropped),
                          dropped_index=tuple(dropped_index),
                          retained_label_count=retained)


def read_truth_csv(path: str, label_column: str = "label") -> np.ndarray:
    """Read ground-truth codes from a CSV's label column.

    Accepts the evaluation token "unknown" (code 2) on top of the
    ingestion tokens; feature columns are ignored.
    """
    header, data = _csv_rows(path)
    if label_column not in header:
        raise ValidationError(f"{path}: no {label_column!r} column")
    idx = header.index(label_column)
    out: list[int] = []
    for rownum, raw in data:
        token = raw[idx].strip()
        if token not in _TRUTH_TOKENS:
            raise ValidationError(
                f"{path}: unknown label token {token!r} at row {rownum}")
        out.append(_TRUTH_TOKENS[token])
    return np.array(out, dtype=np.int8)


def write_csv(path: str, dataset: Dataset, labels: np.ndarray | None = None) -> None:
    """Write points plus a label column (dataset.labels unless overridden)."""
    lab = dataset.labels if labels is None else np.asarray(labels)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(list(dataset.feature_names) + ["label"])
    for row, code in zip(dataset.points, lab):
        writer.writerow([repr(float(v)) for v in row] + [label_token(code)])
    write_text(path, buf.getvalue())

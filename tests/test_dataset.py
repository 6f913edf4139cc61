"""CSV ingestion, label tokens, and round-trips."""
from __future__ import annotations

import numpy as np
import pytest

from adclust import dataset
from adclust.dataset import (LABEL_ABNORMAL, LABEL_NONE, LABEL_NORMAL,
                             TRUTH_UNKNOWN, Dataset, ingest_csv, label_token,
                             read_truth_csv, write_csv)
from adclust.errors import ValidationError


def write_text(path, text):
    path.write_text(text)
    return str(path)


def test_dataset_validation():
    with pytest.raises(ValidationError):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int8))
    with pytest.raises(ValidationError):
        Dataset(np.zeros(3), np.zeros(3, dtype=np.int8))
    with pytest.raises(ValidationError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([1], dtype=np.int8))
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 2)), np.array([1], dtype=np.int8))
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 2)), np.array([1, 5], dtype=np.int8))
    with pytest.raises(ValidationError):
        Dataset(np.zeros((2, 2)), np.array([1, 0], dtype=np.int8),
                feature_names=("only",))


def test_dataset_defaults_and_accessors():
    ds = Dataset(np.zeros((3, 2)) + [[1.0, 2.0]] * 3,
                 np.array([1, 0, -1], dtype=np.int8))
    assert ds.n == 3
    assert ds.q == 2
    assert ds.feature_names == ("x0", "x1")
    assert ds.labeled_ids().tolist() == [0, 1]


def test_ingest_basic(tmp_path):
    path = write_text(tmp_path / "d.csv",
                      "x0,x1,label\n"
                      "0.5,1.5,normal\n"
                      "2.5,3.5,abnormal\n"
                      "4.5,5.5,\n")
    ds, info = ingest_csv(path)
    assert ds.n == 3
    assert ds.labels.tolist() == [LABEL_NORMAL, LABEL_ABNORMAL, LABEL_NONE]
    assert ds.feature_names == ("x0", "x1")
    assert info.truth is None
    assert info.dropped_rows == ()
    assert info.retained_label_count == 2


def test_ingest_without_label_column(tmp_path):
    path = write_text(tmp_path / "d.csv", "a,b\n1,2\n3,4\n")
    ds, _ = ingest_csv(path)
    assert (ds.labels == LABEL_NONE).all()
    assert ds.feature_names == ("a", "b")


def test_ingest_errors_name_the_cell(tmp_path):
    path = write_text(tmp_path / "d.csv", "x0,label\nabc,normal\n")
    with pytest.raises(ValidationError, match=r"row 1.*column 'x0'"):
        ingest_csv(path)
    path = write_text(tmp_path / "e.csv", "x0,label\n1.0,weird\n")
    with pytest.raises(ValidationError, match=r"unknown label token 'weird'"):
        ingest_csv(path)
    path = write_text(tmp_path / "f.csv", "x0,label\n1.0\n")
    with pytest.raises(ValidationError, match="row 1 has 1 cells"):
        ingest_csv(path)
    with pytest.raises(ValidationError, match="cannot read"):
        ingest_csv(str(tmp_path / "missing.csv"))
    path = write_text(tmp_path / "g.csv", "")
    with pytest.raises(ValidationError, match="empty file"):
        ingest_csv(path)
    path = write_text(tmp_path / "h.csv", "label\nnormal\n")
    with pytest.raises(ValidationError, match="no feature columns"):
        ingest_csv(path)


def test_ingest_drops_non_finite_rows(tmp_path):
    path = write_text(tmp_path / "d.csv",
                      "x0,x1,label\n"
                      "1.0,2.0,normal\n"
                      "nan,3.0,\n"
                      "4.0,inf,abnormal\n"
                      "5.0,6.0,\n")
    ds, info = ingest_csv(path)
    assert ds.n == 2
    assert info.dropped_rows == (2, 3)
    np.testing.assert_array_equal(ds.points, [[1.0, 2.0], [5.0, 6.0]])


def test_dropped_index_counts_non_blank_rows_only(tmp_path):
    path = write_text(tmp_path / "d.csv",
                      "x0,label\n1.0,normal\n\n\nnan,\n2.0,\n")
    _, info = ingest_csv(path)
    assert info.dropped_rows == (4,)
    assert info.dropped_index == (1,)


def test_read_text_and_write_text(tmp_path):
    path = str(tmp_path / "t.csv")
    dataset.write_text(path, "a,\u00e9\r\nb\n")
    assert (tmp_path / "t.csv").read_bytes() == "a,\u00e9\r\nb\n".encode()
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + b"a\r\n")
    assert dataset.read_text(str(tmp_path / "bom.csv")) == "a\r\n"
    with pytest.raises(ValidationError, match="^cannot write "):
        dataset.write_text(str(tmp_path), "x")
    with pytest.raises(ValidationError, match="^cannot read "):
        dataset.read_text(str(tmp_path))
    (tmp_path / "latin1.csv").write_bytes(b"\xff\n")
    with pytest.raises(ValidationError, match="^cannot read .*utf-8"):
        dataset.read_text(str(tmp_path / "latin1.csv"))


def test_ingest_skips_blank_lines(tmp_path):
    path = write_text(tmp_path / "d.csv", "x0,label\n1.0,normal\n\n2.0,\n")
    ds, _ = ingest_csv(path)
    assert ds.n == 2


def test_ingest_label_subsampling(tmp_path):
    lines = ["x0,label"] + [f"{i}.0,normal" for i in range(10)] + \
        [f"{i}.0,abnormal" for i in range(10, 20)]
    path = write_text(tmp_path / "d.csv", "\n".join(lines) + "\n")
    ds, info = ingest_csv(path, label_fraction=0.3, seed=4)
    assert info.retained_label_count == 6
    assert int((ds.labels != LABEL_NONE).sum()) == 6
    # truth preserves every original label
    assert int((info.truth != LABEL_NONE).sum()) == 20
    kept = ds.labels != LABEL_NONE
    np.testing.assert_array_equal(ds.labels[kept], info.truth[kept])
    # deterministic per seed
    ds2, _ = ingest_csv(path, label_fraction=0.3, seed=4)
    np.testing.assert_array_equal(ds.labels, ds2.labels)


def test_ingest_subsampling_keeps_at_least_one(tmp_path):
    path = write_text(tmp_path / "d.csv",
                      "x0,label\n1.0,normal\n2.0,\n3.0,\n")
    ds, info = ingest_csv(path, label_fraction=1e-9)
    assert info.retained_label_count == 1
    with pytest.raises(ValidationError):
        ingest_csv(path, label_fraction=1.5)
    unlabeled = write_text(tmp_path / "u.csv", "x0\n1.0\n")
    with pytest.raises(ValidationError, match="no labeled rows"):
        ingest_csv(unlabeled, label_fraction=0.5)


def test_label_tokens():
    assert label_token(LABEL_NORMAL) == "normal"
    assert label_token(LABEL_ABNORMAL) == "abnormal"
    assert label_token(LABEL_NONE) == ""
    assert label_token(TRUTH_UNKNOWN) == "unknown"


def test_write_then_ingest_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(40, 3)) * np.pi
    labels = rng.choice([1, 0, -1], size=40).astype(np.int8)
    ds = Dataset(pts, labels, ("f0", "f1", "f2"))
    path = str(tmp_path / "round.csv")
    write_csv(path, ds)
    back, _ = ingest_csv(path)
    np.testing.assert_array_equal(back.points, ds.points)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.feature_names == ds.feature_names


def test_read_truth_csv(tmp_path):
    path = write_text(tmp_path / "t.csv",
                      "x0,label\n1.0,normal\n2.0,abnormal\n"
                      "3.0,unknown\n4.0,\n")
    truth = read_truth_csv(path)
    assert truth.tolist() == [LABEL_NORMAL, LABEL_ABNORMAL, TRUTH_UNKNOWN,
                              LABEL_NONE]
    bad = write_text(tmp_path / "b.csv", "x0,label\n1.0,mystery\n")
    with pytest.raises(ValidationError, match="unknown label token"):
        read_truth_csv(bad)
    missing = write_text(tmp_path / "m.csv", "x0\n1.0\n")
    with pytest.raises(ValidationError, match="no 'label' column"):
        read_truth_csv(missing)


def test_read_truth_csv_rejects_rows_of_the_wrong_width(tmp_path):
    # a truncated row must not read as "no truth", nor an extra cell pass
    short = write_text(tmp_path / "s.csv", "x0,label\n1.0\n"
                       "2.0,normal,extra\n3.0,abnormal\n")
    with pytest.raises(ValidationError, match="row 1 has 1 cells, expected 2"):
        read_truth_csv(short)
    long = write_text(tmp_path / "l.csv", "x0,label\n1.0,normal\n"
                      "2.0,normal,extra\n")
    with pytest.raises(ValidationError, match="row 2 has 3 cells, expected 2"):
        read_truth_csv(long)

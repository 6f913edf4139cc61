"""The dimension-order distance, the certified sums, and the package's
import structure. The sums' edge cases (ties, subnormals, sigmas past
2^1023, overflow) are in test_grid.py's test_exact_* and
test_segment_sums_* tests; the block prefix sums' are here."""
from __future__ import annotations

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import oracle_distance

from adclust import exact
from adclust.exact import (dimension_sum, prefix_sums, row_sums,
                           segment_sums, sq_distance_blocks, sq_distances)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adclust"


def assert_bitwise(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


def private_imports(path: Path) -> list[str]:
    """The _-prefixed names path imports from another adclust module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("adclust")):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("module",
                         sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_a_private_name(module):
    assert private_imports(PACKAGE / module) == []


@pytest.mark.parametrize("q", [1, 2, 9])
def test_sq_distances_sum_in_dimension_order(q):
    rng = np.random.default_rng(q)
    a, b = rng.normal(size=(2, 40, q)) * rng.uniform(0.1, 10.0, size=q)
    dist = np.sqrt(sq_distances(a.T, b.T))
    assert dist.tolist() == [oracle_distance(x, y) for x, y in zip(a, b)]
    # the wall scores' dimension_sum of the same terms gives the same bits
    assert_bitwise(sq_distances(a.T, b.T), dimension_sum((a.T - b.T) ** 2))


def test_sq_distance_blocks_cover_every_row_within_the_budget(monkeypatch):
    monkeypatch.setattr(exact, "BLOCK_ELEMENTS", 3 * 7 * 5)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(3, 23)), rng.normal(size=(3, 7))
    blocks = list(sq_distance_blocks(a, b))
    assert [lo for lo, _ in blocks] == [0, 5, 10, 15, 20]
    assert all(3 * sq.size <= exact.BLOCK_ELEMENTS for _, sq in blocks)
    assert_bitwise(np.vstack([sq for _, sq in blocks]),
                   sq_distances(a[:, :, None], b[:, None, :]))


def test_row_sums_are_segment_sums_of_equal_width():
    rng = np.random.default_rng(5)
    block = rng.uniform(size=(30, 17)) ** 4
    expected = np.array([math.fsum(row) for row in block.tolist()])
    assert_bitwise(row_sums(block), expected)
    assert_bitwise(segment_sums(block.ravel(), np.arange(0, 511, 17)),
                   expected)
    # a strided view sums its own rows, not its memory's
    assert_bitwise(row_sums(block.T), np.array(
        [math.fsum(col) for col in block.T.tolist()]))



def fsum_or_inf(values):
    """math.fsum of values >= 0, inf where it overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def fsum_prefixes(values, ends):
    """math.fsum of every prefix values[..., :ends[..., j]], inf where it
    overflows."""
    rows = values.reshape(-1, values.shape[-1]).tolist()
    cuts = ends.reshape(len(rows), -1).tolist()
    return np.array([[fsum_or_inf(row[:end]) for end in row_ends]
                     for row, row_ends in zip(rows, cuts)]).reshape(
                         ends.shape)


def block_prefix_sums(values, ends, monkeypatch):
    """prefix_sums of the whole block, and how many ends it sent to
    math.fsum."""
    calls = []

    def counting_fsum(terms, fsum=math.fsum):
        calls.append(1)
        return fsum(terms)

    with monkeypatch.context() as m:
        m.setattr(math, "fsum", counting_fsum)
        sums = prefix_sums(values, ends)
    return sums, len(calls)


def test_block_prefix_sums_rows_of_different_content(monkeypatch):
    # one split per row: rows of very different scales, a sorted row, a
    # row of zeros and one of subnormals share a block
    rng = np.random.default_rng(12)
    width = 700
    values = rng.uniform(size=(6, width)) ** 3
    values *= np.array([7.0, 1e-200, 1e200, 1.0, 0.0, 5e-324])[:, None]
    values[3] = np.sort(values[3])
    values[5] = np.floor(values[5] * 1e6) * 5e-324
    ends = np.sort(rng.integers(1, width + 1, size=(6, 30)), axis=1)
    sums, fallbacks = block_prefix_sums(values, ends, monkeypatch)
    assert_bitwise(sums, fsum_prefixes(values, ends))
    assert fallbacks == 0
    # each row alone gives the same bits, and so does a 3-d layout
    assert_bitwise(sums, np.array([prefix_sums(row, row_ends)
                                   for row, row_ends in zip(values, ends)]))
    assert_bitwise(prefix_sums(values.reshape(2, 3, width),
                               ends.reshape(2, 3, 30)),
                   sums.reshape(2, 3, 30))


def test_block_prefix_sums_unsorted_ends_with_repeats():
    rng = np.random.default_rng(13)
    width = 500
    values = rng.uniform(size=(5, width)) ** 2
    values[2, ::2] = 0.0
    ends = rng.integers(0, width + 1, size=(5, 40))
    ends[:, :6] = [width, 0, 7, width, 0, 7]
    sums = prefix_sums(values, ends)
    assert_bitwise(sums, fsum_prefixes(values, ends))
    assert not sums[:, 1].any()
    assert_bitwise(sums[:, 0], row_sums(values))


def test_block_prefix_sums_send_only_a_huge_rows_ends_to_fsum(monkeypatch):
    # at W = 64 a row max of 2^1016 or more needs a sigma past 2^1023:
    # row 1 goes to fsum end by end (its full sum overflows), while the
    # rows beside it take the split
    rng = np.random.default_rng(14)
    width = 64
    values = rng.uniform(size=(3, width)) ** 2
    values[1] = rng.uniform(0.5, 1.0, size=width) * 2.0 ** 1022
    values[2] *= 1e300
    ends = np.tile([0, 1, 17, 40, width], (3, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sums, fallbacks = block_prefix_sums(values, ends, monkeypatch)
    assert_bitwise(sums, fsum_prefixes(values, ends))
    assert sums[1, -1] == math.inf
    assert fallbacks == ends.shape[1]


def test_block_prefix_sums_send_uncertified_ends_to_fsum(monkeypatch):
    # certify sees the block's (rows, ends) array once, in the ends'
    # order; the ends it refuses go to fsum one by one
    rng = np.random.default_rng(15)
    values = np.sqrt(rng.uniform(size=(3, 400)))
    ends = np.array([[400, 0, 1, 250, 399],
                     [3, 3, 400, 200, 1],
                     [250, 1, 0, 400, 399]])
    forced = np.zeros(ends.shape, dtype=bool)
    forced[[0, 1, 1, 2], [0, 1, 2, 4]] = True
    seen = []

    def uncertifying(t1, t2, sigma, count, certify=exact.certify):
        seen.append(t1.shape)
        return certify(t1, t2, np.where(forced, np.inf, sigma), count)

    monkeypatch.setattr(exact, "certify", uncertifying)
    sums, fallbacks = block_prefix_sums(values, ends, monkeypatch)
    assert seen == [ends.shape]
    assert_bitwise(sums, fsum_prefixes(values, ends))
    assert fallbacks == forced.sum()

"""The dimension-order distance, the certified sums, and the package's
import structure. The sums' edge cases (ties, subnormals, sigmas past
2^1023, overflow) are in test_grid.py's test_exact_* and
test_segment_sums_* tests."""
from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import oracle_distance

from adclust import exact
from adclust.exact import (dimension_sum, row_sums, segment_sums,
                           sq_distance_blocks, sq_distances)

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


"""The documented arithmetic: the dimension-order distance and certified
correctly rounded sums.

Distances are Euclidean, sqrt of the squared differences summed in
dimension order, float64 throughout: sq_distances is the package's only
squared distance, sq_distance_blocks its only many-to-many chunking
(under the one BLOCK_ELEMENTS budget), and dimension_sum the same sum
over precomputed terms (the wall scores).

Every documented mean is the correctly rounded sum of its values over
their count, so it does not depend on their order and an oracle
reproduces it with math.fsum. One exact split of the values at a power
of two (sigmas, split: ExtractVector from Rump, Ogita & Oishi,
"Accurate floating-point summation, Part I", SIAM J. Sci. Comput. 2008)
gives high parts that sum exactly and low parts whose float sum errs by
less than a known bound; a sum is kept where that bound certifies it
(certify) and goes to fsum otherwise. segment_sums sums the segments of
a flat array this way, row_sums is segment_sums over rows of equal
width, and prefix_sums sums the prefixes of one row; compute_rt's pair
path calls split and certify itself. All read inf for a sum past the
largest float, its correct rounding, where math.fsum raises.
"""
from __future__ import annotations

import math

import numpy as np

# Most coordinate differences one distance computation takes (q * rows
# * columns of a block, q * pairs of a flat chunk), so its memory stays
# bounded.
BLOCK_ELEMENTS = 1 << 15


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared differences summed in dimension order; a and b hold one
    coordinate per row and broadcast along their remaining axes."""
    total = a[0] - b[0]
    total *= total  # the first sum, 0 + total, is total itself
    for x, y in zip(a[1:], b[1:]):
        sq = x - y
        sq *= sq
        total += sq
    return total


def sq_distance_blocks(a: np.ndarray, b: np.ndarray):
    """Yield (lo, squared distances of points lo:lo + step of a to every
    point of b), a and b dimension-major, each chunk in BLOCK_ELEMENTS."""
    step = max(1, BLOCK_ELEMENTS // max(b.size, 1))
    for lo in range(0, a.shape[1], step):
        yield lo, sq_distances(a[:, lo:lo + step, None], b[:, None, :])


def dimension_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis in dimension order: zeros, then += each
    row."""
    total = np.zeros(terms.shape[1:])
    for row in terms:
        total += row
    return total


def fsum(values: list[float]) -> float:
    """math.fsum of values >= 0; inf where their sum overflows, which is
    then its correct rounding."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def fmean(values: list[float]) -> float:
    """The correctly rounded sum of values over their count."""
    return math.fsum(values) / len(values)


def sigmas(top: np.ndarray, width) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, fits): the split point of w = width values below top, and
    where it fits a float.

    sigma = 2^(e + m) with top < 2^e and 2^m >= w + 2, capped at 2^1023;
    fits is False where the cap was needed.
    """
    exp = np.frexp(top)[1] + np.frexp(width + 1.0)[1]
    return np.ldexp(1.0, np.minimum(exp, 1023)), exp <= 1023


def split(x: np.ndarray, sigma: np.ndarray, fits=True):
    """One power-of-two split of x, nonnegative and finite, at sigma
    (from sigmas; sigma and fits broadcast against x): (x with the
    values that do not fit zeroed, their high parts).

    With u = 2^-53, high = fl(fl(x + sigma) - sigma) is a multiple of
    2 u sigma, so the highs of any of the w values sum exactly in any
    order, and low = x - high is exact with |low| <= u sigma.
    """
    if not np.all(fits):
        x = x * fits
    high = x + sigma
    high -= sigma
    return x, high


def certify(t1: np.ndarray, t2: np.ndarray, sigma: np.ndarray, count):
    """fl(t1 + t2), and where it is the correctly rounded sum of count
    values >= 0, split at sigma, whose highs sum exactly to t1 and whose
    lows sum in float to t2.

    The count lows, each at most u sigma, sum in float in any order to
    within 2 count^2 u^2 sigma of their exact sum. A sum is certified
    where twice that bound (to cover the comparison's own roundings)
    plus the exact tail of t1 + t2 is strictly below half the gap to
    the next float down (the certificate behind AccSum/NearSum), and
    where t1 + t2 rounds to zero (which values >= 0 do only when all are
    zero). A bound that underflows is still safe, since every error is
    a multiple of the subnormal step.
    """
    count = np.asarray(count, dtype=np.float64)
    bound = sigma * (4.0 * count * count * 2.0 ** -106)
    total = t1 + t2
    z = total - t1
    tail = (t1 - (total - z)) + (t2 - z)
    half_gap = 0.5 * (total - np.nextafter(total, 0.0))
    return total, (bound < half_gap - np.abs(tail)) | (total == 0.0)


def segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each segment values[starts[k]:starts[k +
    1]] of a flat array of nonnegative finite float64 values, bitwise
    math.fsum (inf where that overflows, as in fsum); every segment is
    nonempty.

    One split per segment, at a sigma from its max and its width: the
    highs of a segment of width w sum exactly to t1 and the float sum t2
    of its lows errs by less than 2 w^2 u^2 sigma, both summed by
    np.add.reduceat. A segment keeps fl(t1 + t2) where certify proves it
    correctly rounded; every other segment, and every segment whose
    sigma would pass 2^1023, goes to math.fsum.
    """
    heads, width = starts[:-1], np.diff(starts)
    sigma, fits = sigmas(np.maximum.reduceat(values, heads), width)
    x, high = split(values, np.repeat(sigma, width), np.repeat(fits, width))
    t1 = np.add.reduceat(high, heads)
    t2 = np.add.reduceat(np.subtract(x, high, out=high), heads)
    total, certified = certify(t1, t2, sigma, width)
    for k in np.flatnonzero(~(certified & fits)).tolist():
        total[k] = fsum(values[starts[k]:starts[k + 1]].tolist())
    return total


def row_sums(block: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row of a 2-d block of nonnegative
    finite float64 values, bitwise math.fsum(row): segment_sums with one
    segment per row."""
    width = block.shape[1]
    return segment_sums(block.ravel(), np.arange(0, block.size + 1, width))


def prefix_sums(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Correctly rounded sums of prefixes of one row: out[j] is bitwise
    math.fsum(values[:ends[j]]) (inf where that overflows, as in fsum),
    for 1-d nonnegative finite float64 values and integer ends in [0,
    values.size].

    One split of the row, as in segment_sums: the running sums of the
    highs are exact, and the running float sum of the lows errs by less
    than 2 k^2 u^2 sigma after k values (whatever the order of the
    additions). Each end keeps fl(t1 + t2) where certify proves it
    correctly rounded; every other end, and every end of a row whose
    sigma would pass 2^1023, goes to math.fsum of its prefix.
    """
    sigma, fits = sigmas(values.max(initial=0.0), values.size)
    x, high = split(values, sigma, fits)
    cum = np.zeros(values.size + 1)
    np.cumsum(high, out=cum[1:])
    t1 = cum[ends]
    np.cumsum(np.subtract(x, high, out=high), out=cum[1:])
    total, certified = certify(t1, cum[ends], sigma, ends)
    for j in np.flatnonzero(~(certified & fits)).tolist():
        total[j] = fsum(values[:ends[j]].tolist())
    return total

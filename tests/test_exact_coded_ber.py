"""Exact information-bit BER of a coded coherent link over the
orthonormal filter banks, and the simulator against it.

Over haar and db2 the channel is the identity (link.channel_operators),
so a coded BPSK or Gray QPSK link sends its coded bits through a binary
symmetric channel BSC(p), p = Q(sqrt(2 R Eb/N0)) with R = 12/23, each
rail's noise independent of every other.  Every error pattern e is
uniquely a codeword c plus a coset leader l (the code is perfect); the
decoder removes l and delivers the message of c, so the message bits in
error are c's information bits.  With N[w, j] the number of pairs
(c, l) with |c + l| = w and j information bits set in c, the BER is

    sum over w, j of N[w, j] p^w (1 - p)^(23 - w) j / 12.
"""

import math

import numpy as np
import pytest

from dwtcdma import fec
from dwtcdma.sim import PointSpec, point_seed, run_point


@pytest.fixture(scope="module")
def pair_counts() -> np.ndarray:
    """N[w, j] over the 4096 x 2048 (codeword, coset leader) pairs."""
    codewords, leaders = fec.codec_tables()
    weights = np.bitwise_count(codewords[:, None] ^ leaders)
    info_weights = np.bitwise_count(codewords >> fec.N_CHECK)[:, None]
    counts = np.zeros((fec.N_CODE + 1, fec.K_MSG + 1), dtype=np.int64)
    np.add.at(counts, (weights, np.broadcast_to(info_weights, weights.shape)), 1)
    return counts


def exact_coded_ber(counts: np.ndarray, ebn0_db: float) -> float:
    p = 0.5 * math.erfc(math.sqrt(fec.CODE_RATE * 10.0 ** (ebn0_db / 10.0)))
    w = np.arange(fec.N_CODE + 1)[:, None]
    j = np.arange(fec.K_MSG + 1)
    return float(np.sum(counts * p**w * (1 - p) ** (fec.N_CODE - w) * j) / fec.K_MSG)


def test_pair_counts_cover_every_error_pattern(pair_counts):
    # Each of the 2^23 patterns once, C(23, w) of weight w.
    assert pair_counts.sum(axis=1).tolist() == [math.comb(23, w) for w in range(24)]


@pytest.mark.parametrize("ebn0_db, expected", [
    (2, 5.9703e-2), (3, 2.7440e-2), (4, 9.5190e-3), (5, 2.3233e-3),
    (6, 3.6861e-4), (7, 3.4745e-5), (8, 1.7507e-6), (9, 4.1427e-8),
])
def test_exact_values(pair_counts, ebn0_db, expected):
    assert exact_coded_ber(pair_counts, ebn0_db) == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("scheme", ["bpsk", "qpsk"])
def test_simulated_point_meets_the_exact_value(pair_counts, scheme):
    # The whole budget runs: the error target lies above it.  A coded
    # error count carries about 5 times the Poisson variance, as a
    # decoding error sets several bits at once.
    point = PointSpec(4.0, scheme, "wh", "haar", True, 7)
    budget = 1_000_000
    record = run_point(point, budget + 1, budget, point_seed(0, point))
    exact = exact_coded_ber(pair_counts, 4.0)
    assert abs(record.ber / exact - 1) < 4 * math.sqrt(5 / record.bit_errors)

"""The link's BER against the literal time-domain chain (reference_chain).

Each cell runs about 0.5 Mbit through `run_point` and about 0.5 Mbit
through the literal chain, at 7 users, each side with a seed fixed here,
and compares the two BERs p1 and p2 over n1 and n2 bits by the
two-sample statistic

    z = (p1 - p2) / sqrt(D * (p1 (1 - p1) / n1 + p2 (1 - p2) / n2)).

The gate is |z| < 4.  D, the design effect, scales the binomial
variance to that of the error counts, whose errors are not independent
bits: 4.3 for a coded link, whose decoder errs by whole codewords of
several bit errors; 1.3 for an uncoded differential link, whose
decisions share a symbol with their neighbours; 1 otherwise.  The cells
cover both wavelet channels (haar's identity and bior22's coloured
noise), all three families and four schemes, coded and uncoded.
"""

import math

import numpy as np
import pytest

from dwtcdma.sim import PointSpec, link_config_for, point_seed, run_point
from reference_chain import reference_chunk, reference_run

INFO_BITS = 500_000

# (point, seed of the literal chain's generator)
CELLS = [
    (PointSpec(6.0, "bpsk", "wh", "bior22", False, 7), 1601),
    (PointSpec(4.0, "bpsk", "wh", "bior22", True, 7), 1602),
    (PointSpec(8.0, "dbpsk", "gold", "bior22", False, 7), 1603),
    (PointSpec(4.0, "qpsk", "gcs", "haar", True, 7), 1604),
    (PointSpec(9.0, "dqpsk", "gcs", "bior22", True, 7), 1605),
]


def design_effect(point: PointSpec) -> float:
    if point.coded:
        return 4.3
    return 1.3 if point.scheme in ("dbpsk", "dqpsk") else 1.0


@pytest.mark.parametrize("point, seed", CELLS, ids=[
    f"{p.scheme}-{'coded' if p.coded else 'uncoded'}-{p.wavelet}-{p.family}-{p.snr_db:g}dB"
    for p, _ in CELLS])
def test_link_matches_the_literal_chain(point, seed):
    link = run_point(point, INFO_BITS + 1, INFO_BITS, point_seed(0, point))
    errors, sent = reference_run(link_config_for(point), INFO_BITS,
                                 np.random.default_rng(seed))
    p1, n1, p2, n2 = link.ber, link.bits_sent, errors / sent, sent
    z = (p1 - p2) / math.sqrt(design_effect(point) * (p1 * (1 - p1) / n1 + p2 * (1 - p2) / n2))
    assert abs(z) < 4, f"link {p1:.4e} over {n1} bits, literal chain {p2:.4e} over {n2}: z {z:+.2f}"


@pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "dbpsk", "dqpsk"])
@pytest.mark.parametrize("wavelet", ["haar", "bior22"])
@pytest.mark.parametrize("coded", [False, True])
def test_literal_chain_is_exact_without_noise(scheme, wavelet, coded):
    config = link_config_for(PointSpec(300.0, scheme, "gold", wavelet, coded, 7))
    bits = np.random.default_rng(0).integers(0, 2, (7, 120), dtype=np.uint8)
    assert reference_chunk(bits, config, np.random.default_rng(1)) == 0

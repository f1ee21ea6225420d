"""Benchmark workloads and the correctness gate applied to their results.

Each workload is a sweep grid: the benchmark hands the program only the
`SimConfig` built here, with the run's seed as the master seed.  The
grids are chosen so that each one puts the wall time somewhere else:

fig2-capped
    The shipped fig2 preset (BPSK, haar, wh/gold/gcs, coded and uncoded,
    7 users, 0..20 dB) with the bit budget capped.  Most high-SNR points
    never reach the error target and run to the cap, so the `sim` stop
    rule decides the total work; `wavelet` does the least work here
    (haar at 7 users).
kernel-grid
    {bpsk, dqpsk} x {haar, db2, bior22} x {uncoded, coded}, gcs, 7 users,
    6 dB.  The error target is larger than the budget, so every point
    runs exactly its budget: the stop rule does nothing and all time goes
    to the `link`, `wavelet`, `fec` and `modem` kernels.
users-lowsnr
    The fig6/fig7 users axis (1..7 users, BPSK, haar, all families,
    coded and uncoded) widened to -10..2 dB.  Every point meets its error target
    in its first chunk, so per-point set-up (spreading matrices, link
    configuration) is never amortised; and a 1-user chunk moves 7x the
    blocks per information bit of a 7-user chunk.
"""

from __future__ import annotations

import math
from dataclasses import replace

from dwtcdma import sim

FIG2_MAX_BITS = 50_000
KERNEL_MAX_BITS = 200_000
# 4 dB steps rather than 1 dB keep one sweep near 3 s, so a run holds
# enough repetitions for a steady median; each point still stops after
# its first chunk.
LOWSNR_GRID_DB = (-10.0, -6.0, -2.0, 2.0)

WORKLOADS = ("fig2-capped", "kernel-grid", "users-lowsnr")

# Points of the theory check: uncoded coherent schemes through the
# orthonormal wavelets follow Q(sqrt(2 Eb/N0)) exactly.
THEORY_SCHEMES = ("bpsk", "qpsk")
THEORY_WAVELETS = ("haar", "db2")
THEORY_MIN_ERRORS = 10
THEORY_MAX_SIGMA = 5.0


def workload_config(name: str, seed: int, tiny: bool = False) -> tuple[sim.SimConfig, str | None]:
    """The sweep of one workload and the preset name its outputs carry.

    tiny shrinks every grid to a few one-chunk points, for smoke tests.
    """
    if name == "fig2-capped":
        config = sim.preset_config("fig2", master_seed=seed, max_info_bits=FIG2_MAX_BITS)
        if tiny:
            config = replace(config, snr_db=(0.0, 20.0), max_info_bits=12)
        return config, "fig2"
    if name == "kernel-grid":
        budget = 12 if tiny else KERNEL_MAX_BITS
        config = sim.SimConfig(
            snr_db=(6.0,), schemes=("bpsk", "dqpsk"), families=("gcs",),
            wavelets=("haar", "db2", "bior22"), coded_flags=(False, True),
            user_counts=(7,), min_bit_errors=budget + 1, max_info_bits=budget,
            master_seed=seed,
        )
        return config, None
    if name == "users-lowsnr":
        config = sim.SimConfig(
            snr_db=LOWSNR_GRID_DB, schemes=("bpsk",),
            wavelets=("haar",), coded_flags=(False, True),
            user_counts=tuple(range(1, 8)), master_seed=seed,
        )
        if tiny:
            config = replace(config, snr_db=(-10.0, 2.0), user_counts=(1, 7))
        return config, None
    raise ValueError(f"unknown workload {name!r} (choose from {WORKLOADS})")


def _key(item) -> tuple:
    return (float(item.snr_db), item.scheme, item.family, item.wavelet,
            bool(item.coded), int(item.users))


def record_problems(config: sim.SimConfig, point: sim.PointSpec, record) -> list[str]:
    """Every check the record of one point breaks (empty when it passes)."""
    problems = []
    if record.bits_sent <= 0:
        problems.append(f"bits_sent {record.bits_sent} <= 0")
    if not 0 <= record.bit_errors <= record.bits_sent:
        problems.append(f"bit_errors {record.bit_errors} outside 0..{record.bits_sent}")
    if record.bits_sent > 0 and record.ber != record.bit_errors / record.bits_sent:
        problems.append(f"ber {record.ber!r} != {record.bit_errors}/{record.bits_sent}")
    expected_seed = sim.point_seed(config.master_seed, point)
    if record.seed != expected_seed:
        problems.append(f"seed {record.seed} != point_seed {expected_seed}")
    if (point.scheme in THEORY_SCHEMES and point.wavelet in THEORY_WAVELETS
            and not point.coded and not point.total_power
            and record.bit_errors >= THEORY_MIN_ERRORS and record.bits_sent > 0):
        theory = sim.theoretical_ber(point.scheme, point.snr_db)
        sigma = math.sqrt(theory * (1.0 - theory) / record.bits_sent)
        deviation = abs(record.ber - theory) / sigma
        if deviation > THEORY_MAX_SIGMA:
            problems.append(f"ber {record.ber:.4g} is {deviation:.1f} sigma from theory {theory:.4g}")
    return problems


def check_records(config: sim.SimConfig, records) -> dict:
    """Map each failed point's coordinates to its problems.

    A point fails when its record is missing or duplicated, or breaks a
    check of `record_problems`.
    """
    by_key: dict[tuple, list] = {}
    for record in records:
        by_key.setdefault(_key(record), []).append(record)
    failures = {}
    for point in config.points():
        found = by_key.get(_key(point), [])
        if len(found) != 1:
            failures[_key(point)] = [f"{len(found)} records"]
            continue
        problems = record_problems(config, point, found[0])
        if problems:
            failures[_key(point)] = problems
    return failures

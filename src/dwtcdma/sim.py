"""Monte-Carlo sweep engine: per-point BER estimation with a stop rule,
closed-form reference curves, result persistence and figure presets.

Reproducibility contract: every sweep point derives its own seed by
hashing (master_seed, point coordinates), so results are independent of
execution order and of how many worker processes run the sweep.  Within
a point the draw order is: payload bits for all users, then channel
noise, repeated per chunk.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import special, stats

from . import fec
from .link import LinkConfig, run_link_once
from .modem import get_scheme
from .spreading import FAMILIES, build_matrix
from .wavelet import WaveletSpec

DEFAULT_SNR_GRID = tuple(float(s) for s in range(21))
DEFAULT_MIN_ERRORS = 100
DEFAULT_MAX_BITS = 10_000_000

# Aggregated information bits fed through the chain per run_link_once call.
_CHUNK_TARGET_BITS = 20_000


class PointSpec(NamedTuple):
    """Coordinates of one sweep point."""

    snr_db: float
    scheme: str
    family: str
    wavelet: str
    coded: bool
    users: int
    spreading_factor: int = 8
    total_power: bool = False
    levels: int = 8


@dataclass(frozen=True)
class BerRecord:
    """Measured outcome of one sweep point."""

    snr_db: float
    scheme: str
    family: str
    wavelet: str
    coded: bool
    users: int
    bits_sent: int
    bit_errors: int
    ber: float
    seed: int
    wall_time: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SimConfig:
    """Sweep axes, stop rule and master seed."""

    snr_db: tuple = DEFAULT_SNR_GRID
    schemes: tuple = ("bpsk",)
    families: tuple = FAMILIES
    wavelets: tuple = ("haar",)
    coded_flags: tuple = (False, True)
    user_counts: tuple = (7,)
    spreading_factor: int = 8
    total_power: bool = False
    levels: int = 8
    min_bit_errors: int = DEFAULT_MIN_ERRORS
    max_info_bits: int = DEFAULT_MAX_BITS
    master_seed: int = 0

    def __post_init__(self):
        for name in ("snr_db", "schemes", "families", "wavelets", "coded_flags", "user_counts"):
            value = tuple(getattr(self, name))
            if not value:
                raise ValueError(f"sweep axis {name} is empty")
            object.__setattr__(self, name, value)
        if self.min_bit_errors < 1:
            raise ValueError("min_bit_errors must be >= 1")
        if self.max_info_bits < 12:
            raise ValueError("max_info_bits must cover at least one block")
        # Build every point's link up front, so that an invalid grid (a
        # non-finite SNR, more users than code rows) fails before any point runs.
        for point in self.points():
            link_config_for(point)

    def points(self) -> list[PointSpec]:
        return [
            PointSpec(float(snr), scheme, family, wavelet, coded, users,
                      self.spreading_factor, self.total_power, self.levels)
            for snr in self.snr_db
            for scheme in self.schemes
            for family in self.families
            for wavelet in self.wavelets
            for coded in self.coded_flags
            for users in self.user_counts
        ]


def point_seed(master_seed: int, point: PointSpec) -> int:
    """Stable 64-bit seed derived from the master seed and coordinates."""
    text = "|".join([
        str(int(master_seed)), repr(float(point.snr_db)), point.scheme, point.family,
        point.wavelet, str(int(point.coded)), str(int(point.users)),
        str(int(point.spreading_factor)), str(int(point.total_power)),
        str(int(point.levels)),
    ])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def link_config_for(point: PointSpec) -> LinkConfig:
    return LinkConfig(
        spreading=build_matrix(point.family, point.spreading_factor),
        wavelet=WaveletSpec(point.wavelet, levels=point.levels),
        scheme=get_scheme(point.scheme),
        num_users=point.users,
        coded=point.coded,
        snr_db=point.snr_db,
        total_power=point.total_power,
    )


def _chunk_bits_per_user(config: LinkConfig) -> int:
    per_user = max(1, _CHUNK_TARGET_BITS // config.num_users)
    if config.coded:
        return fec.K_MSG * max(1, per_user // fec.K_MSG)
    return per_user


def run_point(point: PointSpec, min_bit_errors: int = DEFAULT_MIN_ERRORS,
              max_info_bits: int = DEFAULT_MAX_BITS, seed: int = 0) -> BerRecord:
    """Estimate BER at one point: run fresh payloads until the error
    target is met or the bit budget is exhausted.

    bits_sent stays below max_info_bits + num_users: the last chunk is
    cut to the bits the budget has left.
    """
    started = time.perf_counter()
    config = link_config_for(point)
    rng = np.random.default_rng(seed)
    chunk = _chunk_bits_per_user(config)

    bits_sent = 0
    bit_errors = 0
    while bit_errors < min_bit_errors and bits_sent < max_info_bits:
        # The last chunk carries only what is left of the budget, rounded up
        # to whole bits per user.
        per_user = min(chunk, -(-(max_info_bits - bits_sent) // config.num_users))
        payload = rng.integers(0, 2, size=(config.num_users, per_user), dtype=np.uint8)
        _, errors = run_link_once(payload, config, rng)
        bit_errors += errors
        bits_sent += payload.size
    ber = bit_errors / bits_sent if bits_sent else 0.0
    return BerRecord(point.snr_db, point.scheme, point.family, point.wavelet,
                     point.coded, point.users, bits_sent, bit_errors, ber,
                     seed, time.perf_counter() - started)


def _run_point_task(args) -> BerRecord:
    point, min_errors, max_bits, seed = args
    return run_point(point, min_errors, max_bits, seed)


def run_sweep(config: SimConfig, jobs: int = 1) -> list[BerRecord]:
    """Run the Cartesian product of the sweep axes.

    Records come back sorted by coordinates, identically for any jobs
    count, because every point owns a coordinate-derived seed.
    """
    tasks = [
        (point, config.min_bit_errors, config.max_info_bits,
         point_seed(config.master_seed, point))
        for point in config.points()
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_point_task, tasks, chunksize=1))
    else:
        records = [_run_point_task(task) for task in tasks]
    records.sort(key=lambda r: (r.snr_db, r.scheme, r.family, r.wavelet,
                                r.coded, r.users))
    return records


def _qfunc(x):
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _marcum_q1(a, b):
    # Q1(a, b) as the survival function of a noncentral chi-square.
    return stats.ncx2.sf(b**2, df=2, nc=a**2)


def theoretical_ber(scheme, ebn0_db: float) -> float:
    """Closed-form per-bit error probability over AWGN.

    BPSK/QPSK (Gray): Q(sqrt(2*Eb/N0)).  DBPSK: exp(-Eb/N0)/2.  DQPSK
    (Gray, differential detection): the Marcum-Q expression
    Q1(a,b) - I0(ab)/2 * exp(-(a^2+b^2)/2) with a,b = sqrt(2*g*(1 -+
    1/sqrt(2))); exact for isolated differential detection, so it serves
    as a reference for moderate Eb/N0 where the hard-decision chain
    matches the idealized detector.
    """
    name = get_scheme(scheme).name
    gamma = 10.0 ** (ebn0_db / 10.0)
    if name in ("bpsk", "qpsk"):
        return float(_qfunc(np.sqrt(2.0 * gamma)))
    if name == "dbpsk":
        return float(0.5 * np.exp(-gamma))
    a = np.sqrt(2.0 * gamma * (1.0 - 1.0 / np.sqrt(2.0)))
    b = np.sqrt(2.0 * gamma * (1.0 + 1.0 / np.sqrt(2.0)))
    # i0e(ab) * exp(ab) = I0(ab); fold the exponent for numeric range.
    tail = 0.5 * special.i0e(a * b) * np.exp(a * b - (a**2 + b**2) / 2.0)
    return float(_marcum_q1(a, b) - tail)


CSV_HEADER = "snr_db,scheme,family,wavelet,coded,users,bits_sent,bit_errors,ber,seed"

# Figure analogues: (x axis, fixed scheme, snr grid, user counts).
PRESETS = {
    "fig2": {"scheme": "bpsk", "snr_db": DEFAULT_SNR_GRID, "user_counts": (7,), "x": "snr_db"},
    "fig3": {"scheme": "dbpsk", "snr_db": DEFAULT_SNR_GRID, "user_counts": (7,), "x": "snr_db"},
    "fig4": {"scheme": "qpsk", "snr_db": DEFAULT_SNR_GRID, "user_counts": (7,), "x": "snr_db"},
    "fig5": {"scheme": "dqpsk", "snr_db": DEFAULT_SNR_GRID, "user_counts": (7,), "x": "snr_db"},
    "fig6": {"scheme": "bpsk", "snr_db": (-10.0,), "user_counts": tuple(range(1, 8)), "x": "users"},
    "fig7": {"scheme": "bpsk", "snr_db": (0.0,), "user_counts": tuple(range(1, 8)), "x": "users"},
}


def preset_config(name: str, master_seed: int = 0, **overrides) -> SimConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (choose from {sorted(PRESETS)})")
    preset = PRESETS[name]
    config = SimConfig(
        snr_db=preset["snr_db"],
        schemes=(preset["scheme"],),
        families=FAMILIES,
        wavelets=("haar",),
        coded_flags=(False, True),
        user_counts=preset["user_counts"],
        master_seed=master_seed,
    )
    return replace(config, **overrides) if overrides else config


def _format_record(r: BerRecord) -> str:
    return ",".join([
        repr(float(r.snr_db)), r.scheme, r.family, r.wavelet, str(int(r.coded)),
        str(int(r.users)), str(int(r.bits_sent)), str(int(r.bit_errors)),
        repr(float(r.ber)), str(int(r.seed)),
    ])


def write_outputs(records: list[BerRecord], out_dir, config: SimConfig | None = None,
                  preset: str | None = None) -> list[Path]:
    """Write results.csv, manifest.txt and (for presets) a plot-data file."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = [_write_csv(records, out / "results.csv")]
        written.append(_write_manifest(out / "manifest.txt", config, preset))
        if preset is not None and records:
            written.append(_write_plot_data(records, out / f"{preset}.dat", preset))
        return written
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc


def _write_csv(records: list[BerRecord], path: Path) -> Path:
    lines = [CSV_HEADER] + [_format_record(r) for r in records]
    path.write_text("\n".join(lines) + "\n")
    return path


def read_results(path) -> list[BerRecord]:
    """Parse a results.csv back into records (wall_time is not stored)."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unrecognized results header")
    records = []
    for line in lines[1:]:
        f = line.split(",")
        records.append(BerRecord(float(f[0]), f[1], f[2], f[3], bool(int(f[4])),
                                 int(f[5]), int(f[6]), int(f[7]), float(f[8]), int(f[9])))
    return records


def _write_manifest(path: Path, config: SimConfig | None, preset: str | None) -> Path:
    from . import __version__

    lines = [f"dwtcdma_version: {__version__}"]
    if preset:
        lines.append(f"preset: {preset}")
    if config is not None:
        lines.append(f"master_seed: {config.master_seed}")
        for name in ("snr_db", "schemes", "families", "wavelets", "coded_flags",
                     "user_counts", "spreading_factor", "total_power", "levels",
                     "min_bit_errors", "max_info_bits"):
            lines.append(f"{name}: {getattr(config, name)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_plot_data(records: list[BerRecord], path: Path, preset: str) -> Path:
    """Columnar plot file: x value then one BER column per curve."""
    x_axis = PRESETS[preset]["x"]
    curves = sorted({(r.family, r.coded) for r in records})
    xs = sorted({getattr(r, x_axis) for r in records})
    table = {(getattr(r, x_axis), r.family, r.coded): r.ber for r in records}
    labels = " ".join(f"{family}-{'coded' if coded else 'uncoded'}" for family, coded in curves)
    lines = [f"# {x_axis} {labels}"]
    for x in xs:
        row = [f"{x:g}"] + [repr(table[(x, family, coded)]) for family, coded in curves]
        lines.append(" ".join(row))
    path.write_text("\n".join(lines) + "\n")
    return path

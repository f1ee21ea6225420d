"""Monte-Carlo sweep engine: per-point BER estimation with a stop rule,
closed-form reference curves, result persistence and figure presets.

A `SimConfig` is the one description of a sweep: a figure preset holds
only the axes it sets, and the manifest echoes every field.  `AXES` is
the one list of the grid's axes: it builds the points, orders the
records and names the grid flags that a preset refuses.

Reproducibility contract: every sweep point derives its own seed by
hashing (master_seed, point coordinates), so results are independent of
execution order and of how many worker processes run the sweep.  The
seed hashes the point's channel, not its wavelet label: over AWGN every
orthonormal filter bank (haar, db2) is one channel, the identity with
the same sigma, so a db2 point hashes "haar" and takes the seed of its
haar twin, the point with the same coordinates over haar.  The seed
names the simulation: run_sweep simulates each seed once, for any jobs
count, and every other point of that seed copies the record with its
own wavelet.  Another master seed gives an independent replicate.  A
point draws from np.random.Generator(SFC64(seed)).  Chunks come in
antithetic pairs (Law & Kelton, Simulation Modeling and Analysis,
ch. 11).  A fresh chunk draws the payload bits of all users first, as
the bits of one rng.bytes call unpacked most significant first, and
then the channel noise z.  The chunk after a full fresh chunk is its
antithetic twin: it draws nothing, sends the same payload and adds the
same noise negated.  -z has the law of z and is independent of the
payload, so every chunk has the exact law of a chunk.  A chunk cut to
the remaining budget is always fresh and never twinned.  A first chunk
draws and computes the same whether or not a twin follows, so a point
that ends in its first chunk does not depend on the pairs.  The two
chunks of a pair are correlated: a coherent rail errs in at most one of
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from itertools import product, repeat
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fec
from .link import ChunkPair, LinkConfig, _as_snr, _check_bool, run_link_once
from .modem import get_scheme
from .spreading import FAMILIES, _check_integer, build_matrix
from .wavelet import WaveletSpec, filter_bank

DEFAULT_SNR_GRID = tuple(float(s) for s in range(21))
DEFAULT_MIN_ERRORS = 100
DEFAULT_MAX_BITS = 10_000_000

# Aggregated information bits fed through the chain per run_link_once call.
_CHUNK_TARGET_BITS = 20_000

# Thread-pool sizes that BLAS and OpenMP read once, when numpy loads.
_THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# The grid axes, in the order of a point's coordinates: each SimConfig
# field that holds an axis, and the PointSpec and BerRecord field it sets.
AXES = {"snr_db": "snr_db", "schemes": "scheme", "families": "family",
        "wavelets": "wavelet", "coded_flags": "coded", "user_counts": "users"}


@dataclass(frozen=True)
class SimConfig:
    """Sweep axes, stop rule and master seed.

    The fields named in AXES are the grid's axes, and points() is their
    Cartesian product in AXES order."""

    snr_db: tuple = DEFAULT_SNR_GRID
    schemes: tuple = ("bpsk",)
    families: tuple = FAMILIES
    wavelets: tuple = ("haar",)
    coded_flags: tuple = (False, True)
    user_counts: tuple = (7,)
    spreading_factor: int = 8
    total_power: bool = False
    levels: int = WaveletSpec.levels
    min_bit_errors: int = DEFAULT_MIN_ERRORS
    max_info_bits: int = DEFAULT_MAX_BITS
    master_seed: int = 0

    def __post_init__(self):
        # Canonical values, so that the duplicate check sees "BPSK" as "bpsk"
        # and "5" as 5.0.
        object.__setattr__(self, "schemes", tuple(get_scheme(s).name for s in self.schemes))
        object.__setattr__(self, "snr_db", tuple(_as_snr(s) for s in self.snr_db))
        for name in AXES:
            value = tuple(getattr(self, name))
            if not value:
                raise ValueError(f"sweep axis {name} is empty")
            if len(set(value)) < len(value):
                # A repeated value would run one point twice under one seed.
                raise ValueError(f"sweep axis {name} has duplicate values: {value}")
            object.__setattr__(self, name, value)
        for name in ("spreading_factor", "levels", "master_seed"):
            _check_integer(name, getattr(self, name))
        _check_bool("total_power", self.total_power)
        if not all(isinstance(flag, bool) for flag in self.coded_flags):
            raise ValueError(f"coded_flags must hold bools, got {self.coded_flags}")
        _check_stop_rule(self.min_bit_errors, self.max_info_bits)
        # Build every point's link up front, so that an invalid grid (a
        # non-finite SNR, more users than code rows) fails before any point runs.
        for point in self.points():
            link_config_for(point)

    def points(self) -> list[PointSpec]:
        return [PointSpec(*coords, self.spreading_factor, self.total_power, self.levels)
                for coords in product(*(getattr(self, name) for name in AXES))]


class PointSpec(NamedTuple):
    """Coordinates of one sweep point."""

    snr_db: float
    scheme: str
    family: str
    wavelet: str
    coded: bool
    users: int
    spreading_factor: int = SimConfig.spreading_factor
    total_power: bool = SimConfig.total_power
    levels: int = SimConfig.levels


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


def _check_at_least(name: str, value, least: int) -> None:
    _check_integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_stop_rule(min_bit_errors, max_info_bits) -> None:
    """The stop rule that SimConfig and run_point accept: at least one
    error and one block of bits, as integers."""
    _check_at_least("min_bit_errors", min_bit_errors, 1)
    _check_at_least("max_info_bits", max_info_bits, fec.K_MSG)


def point_seed(master_seed: int, point: PointSpec) -> int:
    """Stable 64-bit seed derived from the master seed and coordinates,
    read as SimConfig reads them, with the wavelet named by its channel:
    every orthonormal filter bank hashes "haar"."""
    text = "|".join([
        str(int(master_seed)), repr(_as_snr(point.snr_db)), get_scheme(point.scheme).name,
        point.family, "haar" if filter_bank(point.wavelet).orthonormal else point.wavelet,
        str(int(point.coded)), str(int(point.users)), str(int(point.spreading_factor)),
        str(int(point.total_power)), str(int(point.levels)),
    ])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def link_config_for(point: PointSpec) -> LinkConfig:
    """The link of one point.  Total-power mode holds the users' total
    transmit power at one user's: each of the U users keeps a 1/U share
    of the energy, so its Eb/N0 is the nominal value less 10*log10(U) dB,
    and the point runs the per-user link at that SNR.  The snr_db of the
    point, and of its record, stays the nominal value, and so does an
    error that names the SNR."""
    # A user count below 1 is left to LinkConfig, whose error names it.
    shift = 10.0 * math.log10(point.users) if point.total_power and point.users > 0 else 0.0
    snr_db = _as_snr(point.snr_db)
    try:
        return LinkConfig(
            spreading=build_matrix(point.family, point.spreading_factor),
            wavelet=WaveletSpec(point.wavelet, levels=point.levels),
            scheme=get_scheme(point.scheme),
            num_users=point.users,
            coded=point.coded,
            snr_db=snr_db - shift,
        )
    except ValueError as exc:
        if shift and str(exc).startswith("snr_db"):
            raise ValueError(f"snr_db {snr_db} in total-power mode runs each of the "
                             f"{point.users} users at {snr_db - shift} dB: {exc}") from None
        raise


def _chunk_bits_per_user(config: LinkConfig) -> int:
    per_user = max(1, _CHUNK_TARGET_BITS // config.num_users)
    if config.coded:
        return fec.K_MSG * max(1, per_user // fec.K_MSG)
    return per_user


def run_point(point: PointSpec, min_bit_errors: int = DEFAULT_MIN_ERRORS,
              max_info_bits: int = DEFAULT_MAX_BITS, seed: int = 0,
              table: dict | None = None) -> BerRecord:
    """Estimate BER at one point: run chunks until the error target is
    met or the bit budget is exhausted.

    Chunks 0, 2, 4, ... draw a fresh payload and fresh noise.  Chunk
    2t + 1 is the antithetic twin of chunk 2t: it draws nothing, and runs
    the same payload through the same noise, negated (a link.ChunkPair;
    see the module docstring).  A chunk cut to the remaining budget is
    fresh and is never twinned, and a point that ends in its first chunk
    does not depend on the pairs.

    The target is checked after every chunk of about 20,000 information
    bits, a twin included, so a min_bit_errors below one chunk's error
    count has no effect.  bits_sent stays below max_info_bits +
    num_users: the last chunk is cut to the bits the budget has left.
    The stop rule must pass the check that SimConfig makes, or a
    ValueError is raised.  ber is the error count over the bits sent at
    a stopping time, so a point that runs several chunks reads slightly
    high on average: coded BPSK over haar, wh, 7 users, min_bit_errors
    100, over 400 seeds, read 1.4% (1.5 standard errors) above the exact
    value at 5 dB, where a point runs 2.74 chunks on average, and 0.5%
    (0.7 SE) above it at 4 dB, where it runs one.

    The record holds the point's SNR and scheme as SimConfig stores them:
    -0 as 0, and the scheme name in lower case.

    table is internal to run_sweep: one record table per sweep, keyed by
    the seed, which names the simulation (see point_seed); a sweep has
    one stop rule.  A point whose seed is found there is not simulated:
    the stored record comes back with the point's own wavelet, and with
    the wall time of the run that simulated it.
    """
    _check_stop_rule(min_bit_errors, max_info_bits)
    if table is not None and seed in table:
        return replace(table[seed], wavelet=point.wavelet)
    started = time.perf_counter()
    config = link_config_for(point)
    rng = np.random.Generator(np.random.SFC64(seed))
    chunk = _chunk_bits_per_user(config)

    bits_sent = 0
    bit_errors = 0
    pair = None  # the last chunk's ChunkPair, while its twin may follow
    while bit_errors < min_bit_errors and bits_sent < max_info_bits:
        # The last chunk carries only what is left of the budget, rounded up
        # to whole bits per user.
        per_user = min(chunk, -(-(max_info_bits - bits_sent) // config.num_users))
        if pair is not None and per_user == chunk:
            # The twin of the last chunk: its payload again, its noise negated.
            source, pair = pair, None
        else:
            # A fresh chunk.  Fair i.i.d. bits: one rng.bytes draw, unpacked
            # most significant bit first, the unused bits of its last byte
            # dropped.  A cut chunk is the last, so it opens no pair.
            size = config.num_users * per_user
            raw = np.frombuffer(rng.bytes(-(-size // 8)), dtype=np.uint8)
            payload = np.unpackbits(raw, count=size).reshape(config.num_users, per_user)
            pair = ChunkPair(rng) if per_user == chunk else None
            source = pair or rng
        _, errors = run_link_once(payload, config, source)
        bit_errors += errors
        bits_sent += payload.size
    ber = bit_errors / bits_sent
    record = BerRecord(_as_snr(point.snr_db), config.scheme.name, *point[2:len(AXES)],
                       bits_sent, bit_errors, ber, seed, time.perf_counter() - started)
    if table is not None:
        table[seed] = record
    return record


def run_sweep(config: SimConfig, jobs: int = 1) -> list[BerRecord]:
    """Run the Cartesian product of the sweep axes.

    Records come back sorted by coordinates, identically for any jobs
    count, because every point owns a coordinate-derived seed.  Each point
    is one run_point call, in config.points() order, with positional
    arguments; the calls share one record table, so only the first point
    of each seed simulates and the others copy its record (see
    point_seed).  Under jobs > 1 a pool of worker processes first runs
    the first point of each seed and fills the table, and the calls then
    copy from it.  jobs must be an integer of at least 1, as for the
    CLI's --jobs.
    """
    _check_at_least("jobs", jobs, 1)
    points = config.points()
    seeds = [point_seed(config.master_seed, point) for point in points]
    table = {}
    if jobs > 1:
        first = {}
        for seed, point in zip(seeds, points):
            first.setdefault(seed, point)
        with _worker_pool(jobs) as pool:
            table.update(zip(first, pool.map(run_point, first.values(),
                                             repeat(config.min_bit_errors),
                                             repeat(config.max_info_bits), first,
                                             chunksize=1)))
    records = [run_point(point, config.min_bit_errors, config.max_info_bits, seed, table)
               for point, seed in zip(points, seeds)]
    records.sort(key=attrgetter(*AXES.values()))
    return records


@contextlib.contextmanager
def _worker_pool(jobs: int):
    """A pool of `jobs` fresh (spawned) processes with one BLAS/OpenMP
    thread each, so that the workers do not oversubscribe the cores; the
    only GEMM of a chunk is too small to gain from threads.

    A thread count the caller set in the environment wins.  The caps are
    set in os.environ only while the pool lives, because spawned children
    inherit the environment when they start, and are removed afterwards.
    """
    # Only parallel sweeps pay for these imports.
    import concurrent.futures
    import multiprocessing

    added = [name for name in _THREAD_CAP_VARS if name not in os.environ]
    os.environ.update(dict.fromkeys(added, "1"))
    try:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name in added:
            os.environ.pop(name, None)


# Equispaced nodes over one period of theta for the DQPSK integral; the
# integrand is smooth and periodic, so the trapezoid rule (the plain mean)
# converges geometrically and has settled to <1e-14 by 1024 nodes.
_SIN_THETA = np.sin(np.linspace(-np.pi, np.pi, 4096, endpoint=False))


def theoretical_ber(scheme, ebn0_db: float) -> float:
    """Closed-form per-bit error probability over AWGN.

    BPSK/QPSK (Gray): Q(sqrt(2*Eb/N0)) = erfc(sqrt(Eb/N0))/2.  DBPSK:
    exp(-Eb/N0)/2.  DQPSK (Gray, differential detection):
    Q1(a,b) - I0(ab)/2 * exp(-(a^2+b^2)/2) with a,b = sqrt(2*g*(1 -+
    1/sqrt(2))); exact for isolated differential detection, so it serves
    as a reference for moderate Eb/N0 where the hard-decision chain
    matches the idealized detector.

    The DQPSK value is computed from the single-integral form of that
    expression (Simon & Alouini, Digital Communication over Fading
    Channels, 2nd ed., 2005), with zeta = a/b:

        (1/4pi) * int_{-pi}^{pi} (1 - zeta^2) / r(theta)
                  * exp(-(b^2/2) * r(theta)) dtheta,
        r(theta) = 1 + 2*zeta*sin(theta) + zeta^2.

    Its integrand is positive, so the result is >= 0 at any Eb/N0.  The
    difference of the Marcum-Q function and the Bessel term that it
    replaces cancels catastrophically at high Eb/N0 (it turned negative
    from 29.5 dB on).

    ebn0_db is read as SimConfig reads an SNR, and NaN is an error; the
    limits hold at -inf (0.5) and +inf (0.0).
    """
    sch = get_scheme(scheme)
    ebn0_db = _as_snr(ebn0_db)
    if math.isnan(ebn0_db):
        raise ValueError("ebn0_db must not be NaN")
    # Every curve is 0 long before the cap, which keeps the power finite.
    gamma = 10.0 ** min(ebn0_db / 10.0, 300.0)
    if not sch.differential:
        return 0.5 * math.erfc(math.sqrt(gamma))
    if sch.bits_per_symbol == 1:
        return 0.5 * math.exp(-gamma)
    # a/b = sqrt((1 - 1/sqrt(2)) / (1 + 1/sqrt(2))) = sqrt(2) - 1 at any g.
    zeta = math.sqrt(2.0) - 1.0
    half_b2 = gamma * (1.0 + 1.0 / math.sqrt(2.0))
    r = 1.0 + 2.0 * zeta * _SIN_THETA + zeta**2
    # The mean over one period is (1/2pi) * the integral.
    return 0.5 * float(np.mean((1.0 - zeta**2) / r * np.exp(-half_b2 * r)))


CSV_HEADER = "snr_db,scheme,family,wavelet,coded,users,bits_sent,bit_errors,ber,seed"

# Figure analogues: the axes each one sets, on top of SimConfig's
# defaults.  A preset that sets the user counts plots against them, and
# any other against snr_db.
PRESETS = {
    "fig2": {"schemes": ("bpsk",)},
    "fig3": {"schemes": ("dbpsk",)},
    "fig4": {"schemes": ("qpsk",)},
    "fig5": {"schemes": ("dqpsk",)},
    "fig6": {"snr_db": (-10.0,), "user_counts": tuple(range(1, 8))},
    "fig7": {"snr_db": (0.0,), "user_counts": tuple(range(1, 8))},
}


def _check_preset(name) -> None:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (choose from {sorted(PRESETS)})")


def preset_config(name: str, master_seed: int = 0, **overrides) -> SimConfig:
    """The SimConfig of a figure analogue: SimConfig's defaults, then the
    axes the preset sets, then the overrides."""
    _check_preset(name)
    return SimConfig(**{**PRESETS[name], "master_seed": master_seed, **overrides})


def _format_record(r: BerRecord) -> str:
    return ",".join([
        repr(float(r.snr_db)), r.scheme, r.family, r.wavelet, str(int(r.coded)),
        str(int(r.users)), str(int(r.bits_sent)), str(int(r.bit_errors)),
        repr(float(r.ber)), str(int(r.seed)),
    ])


def write_outputs(records: list[BerRecord], out_dir, config: SimConfig,
                  preset: str | None = None) -> list[Path]:
    """Write results.csv, manifest.txt and (for presets) a plot-data file.

    The manifest lists the package version, the preset and every field
    of config.  An unknown preset, or records that leave a cell of its plot empty,
    raise a ValueError before any file is written.
    """
    if preset is not None:
        _check_preset(preset)
    plot = _plot_data(records, preset) if preset is not None and records else None
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = [_write_csv(records, out / "results.csv")]
        written.append(_write_manifest(out / "manifest.txt", config, preset))
        if plot is not None:
            path = out / f"{preset}.dat"
            path.write_text(plot)
            written.append(path)
        return written
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc


def _write_csv(records: list[BerRecord], path: Path) -> Path:
    lines = [CSV_HEADER] + [_format_record(r) for r in records]
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_manifest(path: Path, config: SimConfig, preset: str | None) -> Path:
    from . import __version__

    lines = [f"dwtcdma_version: {__version__}"]
    if preset:
        lines.append(f"preset: {preset}")
    lines += [f"{f.name}: {getattr(config, f.name)}" for f in fields(config)]
    path.write_text("\n".join(lines) + "\n")
    return path


# How a plot curve's label shows each coordinate of a record, in AXES order.
_CURVE_LABELS = ("{:g}dB".format, str, str, str,
                 lambda coded: "coded" if coded else "uncoded", "{}users".format)


def _plot_data(records: list[BerRecord], preset: str) -> str:
    """Columnar plot text: x value then one BER column per curve.

    A curve holds the records that share every coordinate but x.  Its
    label names the family and the coding, and then each other coordinate
    that varies among the records: wh-uncoded, or wh-bior22-uncoded when
    the grid also varies the wavelet.  Every curve needs a record at
    every x; a ValueError names the first empty cell.
    """
    x_axis = "users" if "user_counts" in PRESETS[preset] else "snr_db"
    label_of = dict(zip(AXES.values(), _CURVE_LABELS))
    coords = [name for name in label_of if name != x_axis]
    shown = [name in ("family", "coded") or len({getattr(r, name) for r in records}) > 1
             for name in coords]
    table = {(getattr(r, x_axis), tuple(getattr(r, name) for name in coords)): r.ber
             for r in records}
    curves = sorted({curve for _, curve in table})
    labels = ["-".join(label_of[name](value)
                       for name, value, show in zip(coords, curve, shown) if show)
              for curve in curves]
    lines = [f"# {x_axis} " + " ".join(labels)]
    for x in sorted({x for x, _ in table}):
        for curve, label in zip(curves, labels):
            if (x, curve) not in table:
                raise ValueError(f"the records leave the {preset} plot cell "
                                 f"{x_axis}={x:g}, curve {label} empty")
        lines.append(" ".join([f"{x:g}"] + [repr(table[(x, curve)]) for curve in curves]))
    return "\n".join(lines) + "\n"

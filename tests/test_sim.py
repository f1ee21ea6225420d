import contextlib
import copy
import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dwtcdma import __version__, link, sim
from dwtcdma.link import run_link_once
from dwtcdma.modem import demodulate, modulate
from dwtcdma.sim import (
    BerRecord,
    PointSpec,
    SimConfig,
    link_config_for,
    point_seed,
    preset_config,
    run_point,
    run_sweep,
    theoretical_ber,
    write_outputs,
)

FAST = {"min_bit_errors": 4, "max_info_bits": 4000}


def _count_draws(monkeypatch):
    """Record every payload and noise draw of the generators sim builds,
    as ("bytes", length) or ("normal", shape)."""
    draws = []

    class Counted(np.random.Generator):
        def bytes(self, length):
            draws.append(("bytes", length))
            return super().bytes(length)

        def standard_normal(self, *args, out=None, **kwargs):
            draws.append(("normal", out.shape))
            return super().standard_normal(*args, out=out, **kwargs)

    monkeypatch.setattr(sim.np.random, "Generator", Counted)
    return draws


class _Negated:
    """A generator whose standard normals are those of rng, negated."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, *args, out=None, **kwargs):
        out = self.rng.standard_normal(*args, out=out, **kwargs)
        np.negative(out, out=out)
        return out


class TestRunPoint:
    def test_noise_free_point_honors_bit_cap(self):
        record = run_point(PointSpec(200.0, "bpsk", "wh", "haar", False, 7),
                           min_bit_errors=10, max_info_bits=30_000, seed=1)
        assert record.ber == 0.0
        assert record.bit_errors == 0
        assert record.bits_sent >= 30_000

    @pytest.mark.parametrize("coded", [False, True])
    def test_last_chunk_trimmed_to_bit_budget(self, coded):
        # 7 users: ceil(3000 / 7) = 429 bits each, not a whole chunk
        # (19,999 bits uncoded, 19,992 coded).
        record = run_point(PointSpec(200.0, "bpsk", "wh", "haar", coded, 7),
                           min_bit_errors=10, max_info_bits=3000, seed=1)
        assert record.bits_sent == 3003

    def test_same_seed_reproduces_record(self):
        point = PointSpec(2.0, "qpsk", "gcs", "db2", True, 3)
        a = run_point(point, 50, 100_000, seed=42)
        b = run_point(point, 50, 100_000, seed=42)
        assert a == b  # wall_time excluded from comparison

    def test_meets_error_target(self):
        record = run_point(PointSpec(4.0, "bpsk", "wh", "haar", False, 7),
                           min_bit_errors=150, max_info_bits=10_000_000, seed=7)
        assert record.bit_errors >= 150
        assert record.ber == record.bit_errors / record.bits_sent

    def test_matches_theory_at_4db(self):
        record = run_point(PointSpec(4.0, "bpsk", "wh", "haar", False, 7),
                           min_bit_errors=400, max_info_bits=10_000_000, seed=11)
        theory = theoretical_ber("bpsk", 4.0)
        assert abs(record.ber - theory) / theory < 0.15

    @pytest.mark.parametrize("point", [PointSpec(2.0, "bpsk", "wh", "haar", False, 3),
                                       PointSpec(2.0, "dqpsk", "gold", "bior22", True, 7)])
    def test_one_chunk_replays_from_its_draws(self, point):
        # The draw contract: the generator is Generator(SFC64(seed)), and a
        # chunk draws its payload as the bits of one rng.bytes call, most
        # significant first, and then the link's noise.  3003 bits fill
        # one chunk and end inside a byte.
        seed = point_seed(5, point)
        rng = np.random.Generator(np.random.SFC64(seed))
        raw = np.frombuffer(rng.bytes(376), dtype=np.uint8)
        payload = np.unpackbits(raw, count=3003).reshape(point.users, -1)
        _, errors = run_link_once(payload, link_config_for(point), rng)
        assert errors > 0
        expected = BerRecord(*point[:6], 3003, errors, errors / 3003, seed)
        assert run_point(point, 10**6, 3003, seed) == expected

    @pytest.mark.parametrize("point, per_user", [
        (PointSpec(2.0, "bpsk", "wh", "haar", False, 3), 6666),
        (PointSpec(2.0, "dqpsk", "gold", "bior22", True, 7), 2856)])
    def test_chunk_pair_replays_from_its_draws(self, point, per_user):
        # A full chunk (20,000 // 3 bits per user, or 20,000 // 7 rounded
        # down to whole 12-bit words) is drawn as in the one-chunk replay.
        # Its twin draws nothing: it sends the same payload through the
        # same noise, negated.  Two full chunks fill the budget.
        seed = point_seed(5, point)
        rng = np.random.Generator(np.random.SFC64(seed))
        size = point.users * per_user
        raw = np.frombuffer(rng.bytes(-(-size // 8)), dtype=np.uint8)
        payload = np.unpackbits(raw, count=size).reshape(point.users, -1)
        replay = np.random.Generator(np.random.SFC64())
        replay.bit_generator.state = rng.bit_generator.state
        config = link_config_for(point)
        _, first = run_link_once(payload, config, rng)
        _, second = run_link_once(payload, config, _Negated(replay))
        assert first > 0 and second > 0 and first != second
        expected = BerRecord(*point[:6], 2 * size, first + second,
                             (first + second) / (2 * size), seed)
        assert run_point(point, 10**6, 2 * size, seed) == expected

    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk"])
    def test_no_rail_errs_in_both_chunks_of_a_pair(self, scheme, monkeypatch):
        """A coherent uncoded bit is the sign of one rail, s + n in the
        first chunk and s - n in its twin.  It errs only where
        s (s +- n) <= 0, and the two sum to 2 s^2 > 0, so no bit errs in
        both chunks.  At 0 dB about 8%
        of each chunk's bits err, so independent chunks would share about
        120 of them.  A twin that reuses +n (the mutation) repeats the
        first chunk's decisions, and then every errored bit errs twice."""
        errors = []

        def chunk(info_bits, config, rng):
            decoded, count = run_link_once(info_bits, config, rng)
            errors.append(decoded != info_bits)
            return decoded, count

        monkeypatch.setattr(sim, "run_link_once", chunk)
        point = PointSpec(0.0, scheme, "wh", "haar", False, 7)
        record = run_point(point, 10**6, 2 * 19_999, point_seed(9, point))
        first, second = errors
        assert first.sum() > 1000 and second.sum() > 1000
        assert record.bit_errors == first.sum() + second.sum()
        assert not np.any(first & second)

    @pytest.mark.parametrize("min_errors, max_bits, message", [
        (0, 4000, "min_bit_errors must be at least 1"),
        (4, 0, "max_info_bits must be at least 12"),
        (4, 1.5, "max_info_bits must be an integer"),
        (True, 4000, "min_bit_errors must be an integer"),
    ])
    def test_stop_rule_checked_as_in_sim_config(self, min_errors, max_bits, message):
        point = PointSpec(0.0, "bpsk", "wh", "haar", False, 7)
        with pytest.raises(ValueError, match=message):
            run_point(point, min_errors, max_bits)
        with pytest.raises(ValueError, match=message):
            SimConfig(min_bit_errors=min_errors, max_info_bits=max_bits)

    def test_noise_sigma_computed_once_per_point(self, monkeypatch):
        # sigma is a constant of the link: a point of several chunks
        # computes it when it configures the link, not once per chunk or
        # per draw.  50,000 bits are three chunks: a full one, its
        # antithetic twin and a cut one, from two draws.
        calls = []
        noise_sigma_for = link.noise_sigma_for

        def counted(*args):
            calls.append(args[0])
            return noise_sigma_for(*args)

        def chunk(*args):
            chunks.append(args[0].shape)
            return run_link_once(*args)

        chunks = []
        draws = _count_draws(monkeypatch)
        monkeypatch.setattr(link, "noise_sigma_for", counted)
        monkeypatch.setattr(sim, "run_link_once", chunk)
        run_point(PointSpec(4.0, "dbpsk", "wh", "bior22", True, 7), 10**6, 50_000, seed=3)
        assert chunks == [(7, 2856), (7, 2856), (7, 1431)] and calls == [4.0]
        assert [kind for kind, _ in draws] == ["bytes", "normal", "bytes", "normal"]

    def test_noise_stage_runs_once_per_chunk(self, monkeypatch):
        # link.apply_awgn is the chain's only noise stage: every chunk of a
        # point passes through it once, under the name a tracer wraps.  The
        # first two chunks share one ChunkPair, so the stage draws twice:
        # for the first chunk and for the cut third one, which is fresh.
        chunks, noise = [], []
        apply_awgn = link.apply_awgn

        def chunk(*args):
            chunks.append(args[0].shape)
            return run_link_once(*args)

        def counted(symbols, config, rng):
            noise.append(rng)
            return apply_awgn(symbols, config, rng)

        draws = _count_draws(monkeypatch)
        monkeypatch.setattr(link, "apply_awgn", counted)
        monkeypatch.setattr(sim, "run_link_once", chunk)
        run_point(PointSpec(4.0, "qpsk", "wh", "bior22", True, 7), 10**6, 50_000, seed=3)
        assert len(chunks) == 3 and len(noise) == 3
        assert isinstance(noise[0], link.ChunkPair) and noise[1] is noise[0]
        assert isinstance(noise[2], np.random.Generator)
        # 2856 and 1431 coded bits per user fill 86 and 44 blocks of QPSK.
        assert [draw for draw in draws if draw[0] == "normal"] == [("normal", (2, 86, 224)),
                                                                   ("normal", (2, 44, 224))]

    def test_gold_sf16_rejected(self):
        with pytest.raises(ValueError, match="degree 4"):
            run_point(PointSpec(0.0, "bpsk", "gold", "haar", False, 7, 16), 1, 100, 0)

    @pytest.mark.parametrize("scheme,coded", [("bpsk", False), ("qpsk", True),
                                              ("dqpsk", False)])
    def test_ber_non_increasing_in_snr(self, scheme, coded):
        # 2 dB steps shrink BER by well over the Monte-Carlo noise at
        # these operating points, so strict ordering is expected.
        bers = []
        for snr in (0.0, 2.0, 4.0, 6.0, 8.0):
            point = PointSpec(snr, scheme, "wh", "haar", coded, 7)
            bers.append(run_point(point, 250, 10_000_000,
                                  seed=point_seed(31, point)).ber)
        assert all(hi > lo for hi, lo in zip(bers, bers[1:]))


class TestRunSweep:
    def test_grid_count_fig2_shape(self):
        config = SimConfig(snr_db=(0.0, 1.0), schemes=("bpsk",), wavelets=("haar",),
                           user_counts=(7,), **FAST)
        records = run_sweep(config)
        assert len(records) == 2 * 3 * 2  # snr x families x coded

    def test_axis_permutation_invariance(self):
        # Every axis listed in reverse: the records come back in one order.
        axes = dict(snr_db=(0.0, 2.0), schemes=("bpsk", "dqpsk"), families=("wh", "gcs"),
                    wavelets=("haar", "bior22"), coded_flags=(False, True), user_counts=(1, 2))
        base = dict(master_seed=5, min_bit_errors=1, max_info_bits=200)
        forward = run_sweep(SimConfig(**axes, **base))
        backward = run_sweep(SimConfig(**{k: v[::-1] for k, v in axes.items()}, **base))
        assert len(forward) == 2**6
        assert forward == backward

    def test_parallel_equals_serial(self):
        # Under jobs > 1 the workers simulate the first point of each seed,
        # and a db2 point copies its haar twin's record, as in one process.
        config = SimConfig(snr_db=(0.0, 1.0), families=("wh",), wavelets=("haar", "db2"),
                           user_counts=(2, 7), master_seed=9, **FAST)
        assert run_sweep(config, jobs=1) == run_sweep(config, jobs=3)

    def test_parallel_sweep_leaves_environment_unchanged(self, monkeypatch):
        for name in sim._THREAD_CAP_VARS:
            monkeypatch.delenv(name, raising=False)
        config = SimConfig(snr_db=(0.0,), families=("wh",), coded_flags=(False,),
                           user_counts=(1, 2), master_seed=9, **FAST)
        before = dict(os.environ)
        run_sweep(config, jobs=2)
        assert dict(os.environ) == before

    def test_workers_get_one_blas_thread_unless_set(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        with sim._worker_pool(2) as pool:
            seen = list(pool.map(os.getenv, sim._THREAD_CAP_VARS, timeout=120))
        assert seen == ["3", "1", "1"]
        assert dict(os.environ) == before

    def test_worker_pool_restores_environment_on_error(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = dict(os.environ)
        with pytest.raises(RuntimeError, match="inside"):
            with sim._worker_pool(2):
                assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
                raise RuntimeError("inside")
        assert dict(os.environ) == before

    @pytest.mark.parametrize("jobs, message", [
        (0, "jobs must be at least 1"), (-2, "jobs must be at least 1"),
        (True, "jobs must be an integer"), (2.5, "jobs must be an integer"),
        ("2", "jobs must be an integer"),
    ])
    def test_rejects_bad_jobs(self, jobs, message, monkeypatch):
        # As the CLI's --jobs: checked before any point runs or any pool starts.
        config = SimConfig(snr_db=(0.0,), families=("wh",), coded_flags=(False,), **FAST)
        monkeypatch.setattr(sim, "run_point", None)
        with pytest.raises(ValueError, match=message):
            run_sweep(config, jobs=jobs)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            SimConfig(snr_db=())

    @pytest.mark.parametrize("axes, message", [
        ({"snr_db": (0.0, 5.0, float("nan"))}, "snr_db must be finite"),
        ({"snr_db": (0.0, float("inf"))}, "snr_db must be finite"),
        ({"user_counts": (1, 9)}, "num_users"),
        ({"families": ("gold",), "spreading_factor": 16}, "preferred pair"),
        ({"snr_db": (0.0, 0.0)}, "snr_db has duplicate values"),
        ({"user_counts": (7, 7)}, "user_counts has duplicate values"),
        ({"schemes": ("bpsk", "BPSK")}, "schemes has duplicate values"),
        ({"user_counts": (1, 7.5)}, "num_users"),
        ({"master_seed": 1.5}, "master_seed must be an integer"),
        ({"max_info_bits": 1000.5}, "max_info_bits must be an integer"),
        ({"coded_flags": ("yes",)}, "coded_flags must hold bools"),
        ({"total_power": "no"}, "total_power must be a bool"),
        ({"min_bit_errors": 2.5}, "min_bit_errors must be an integer"),
        ({"spreading_factor": 8.0}, "spreading_factor must be an integer"),
        ({"levels": 3.0}, "levels must be an integer"),
        ({"snr_db": ("5", "5.0")}, "snr_db has duplicate values"),
        ({"snr_db": (True,)}, "snr_db must hold numbers"),
        ({"snr_db": (0.0, -4000.0)}, "snr_db must be finite and not so low"),
        # 10^308.1 is a float, but a coded link's Eb is 23/12 of the symbol
        # energy; 10^308.25 is too, but over bior22 the mean symbol energy
        # of 7 wh users is 1.12.
        ({"snr_db": (-3081.0,), "coded_flags": (True,), "families": ("wh",),
          "max_info_bits": 2000}, "snr_db must be finite and not so low"),
        ({"snr_db": (-3082.5,), "coded_flags": (False,), "families": ("wh",),
          "wavelets": ("bior22",)}, "snr_db must be finite and not so low"),
        ({"user_counts": (0, 7), "total_power": True}, "num_users must be in 1..8, got 0"),
        # 10^308 is a float, but 7 users in total-power mode run at
        # 10*log10(7) = 8.45 dB less.
        ({"snr_db": (-3080.0,), "coded_flags": (False,), "total_power": True},
         "snr_db must be finite and not so low"),
    ])
    def test_invalid_grid_fails_before_first_point(self, axes, message, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(sim, "run_point", unreachable)
        with pytest.raises(ValueError, match=message):
            run_sweep(SimConfig(**{**FAST, **axes}))

    def test_user_sweep_grid(self):
        config = preset_config("fig6", **FAST)
        records = run_sweep(config)
        assert len(records) == 7 * 3 * 2
        assert {r.users for r in records} == set(range(1, 8))
        assert {r.snr_db for r in records} == {-10.0}

    def test_one_positional_run_point_call_per_point_in_order(self, monkeypatch):
        # The benchmark harness wraps sim.run_point as run_point(point, *args)
        # and maps each call back to config.points() by its order.
        config = SimConfig(snr_db=(0.0, 2.0), families=("wh", "gcs"),
                           wavelets=("haar", "db2"), user_counts=(1,), **FAST)
        calls = []
        real_run_point = sim.run_point

        def spy(*args, **kwargs):
            calls.append((args[0], kwargs))
            return real_run_point(*args, **kwargs)

        monkeypatch.setattr(sim, "run_point", spy)
        run_sweep(config, jobs=1)
        assert [point for point, _ in calls] == config.points()
        assert all(kwargs == {} for _, kwargs in calls)

    def test_point_that_raises_fails_the_sweep(self, monkeypatch):
        config = SimConfig(snr_db=(6.0,), schemes=("bpsk", "dqpsk"), families=("gcs",),
                           wavelets=("haar", "db2", "bior22"), user_counts=(7,),
                           min_bit_errors=13, max_info_bits=12)
        real_run_point = sim.run_point

        def run_point(point, *args):
            if point.scheme == "dqpsk" and point.wavelet == "db2" and point.coded:
                raise RuntimeError("injected failure")
            return real_run_point(point, *args)

        monkeypatch.setattr(sim, "run_point", run_point)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_sweep(config, jobs=1)


# bpsk, dqpsk x haar, db2, bior22 x uncoded, coded: each point runs its
# whole budget, two chunks.
TWIN_GRID = dict(snr_db=(4.0,), schemes=("bpsk", "dqpsk"), families=("gcs",),
                 user_counts=(7,), min_bit_errors=10**6, max_info_bits=30_000,
                 master_seed=11)


def _count_chunks(monkeypatch):
    """Record the wavelet of every run_link_once call of sim."""
    wavelets = []

    def chunk(info_bits, config, rng):
        wavelets.append(config.wavelet.family)
        return run_link_once(info_bits, config, rng)

    monkeypatch.setattr(sim, "run_link_once", chunk)
    return wavelets


class TestAxes:
    def test_axes_name_the_point_and_record_coordinates(self):
        coords = tuple(sim.AXES.values())
        assert coords == PointSpec._fields[:6]
        assert coords == tuple(f.name for f in dataclasses.fields(BerRecord))[:6]
        assert set(sim.AXES) <= {f.name for f in dataclasses.fields(SimConfig)}

    def test_points_equal_the_nested_loops(self):
        config = SimConfig(snr_db=(0.0, 3.0), schemes=("bpsk", "qpsk"), families=("wh", "gold"),
                           wavelets=("haar", "bior22"), coded_flags=(False, True),
                           user_counts=(1, 2), spreading_factor=8, total_power=True, levels=5)
        expected = [
            PointSpec(snr, scheme, family, wavelet, coded, users,
                      config.spreading_factor, config.total_power, config.levels)
            for snr in config.snr_db
            for scheme in config.schemes
            for family in config.families
            for wavelet in config.wavelets
            for coded in config.coded_flags
            for users in config.user_counts
        ]
        assert len(expected) == 2**6
        assert config.points() == expected

    def test_point_read_as_sim_config_reads_it(self):
        # A caller's -0.0 and "BPSK" are SimConfig's 0.0 and "bpsk": one
        # seed, one record and one CSV row.
        canonical = PointSpec(0.0, "bpsk", "wh", "haar", False, 7)
        spelled = canonical._replace(snr_db=-0.0, scheme="BPSK")
        seed = point_seed(7, canonical)
        assert point_seed(7, spelled) == seed
        record = run_point(spelled, 10**6, 2000, seed)
        assert record == run_point(canonical, 10**6, 2000, seed)
        assert sim._format_record(record).startswith("0.0,bpsk,wh,haar,")

    def test_negative_zero_snr_is_zero(self):
        assert math.copysign(1.0, SimConfig(snr_db=(-0.0,)).snr_db[0]) == 1.0
        point = PointSpec(0.0, "bpsk", "wh", "haar", False, 1)
        assert point_seed(3, point._replace(snr_db=-0.0)) == point_seed(3, point)


class TestTwins:
    """Every orthonormal bank (haar, db2) is the same channel, so a db2
    point takes its haar twin's seed and run_sweep copies its record."""

    def test_grid_runs_each_twin_pair_once(self, monkeypatch):
        wavelets = _count_chunks(monkeypatch)
        run_sweep(SimConfig(wavelets=("haar", "bior22"), **TWIN_GRID))
        without_db2 = len(wavelets)
        wavelets.clear()
        records = run_sweep(SimConfig(wavelets=("haar", "db2", "bior22"), **TWIN_GRID))
        assert without_db2 == 8 * 2
        assert len(wavelets) == without_db2 and set(wavelets) == {"haar", "bior22"}
        by_wavelet = {w: [r for r in records if r.wavelet == w] for w in ("haar", "db2")}
        assert len(by_wavelet["db2"]) == 4
        assert by_wavelet["db2"] == [dataclasses.replace(r, wavelet="db2")
                                     for r in by_wavelet["haar"]]

    def test_db2_point_alone_equals_its_grid_row(self):
        config = SimConfig(wavelets=("haar", "db2", "bior22"), **TWIN_GRID)
        records = run_sweep(config)
        point = PointSpec(4.0, "dqpsk", "gcs", "db2", True, 7)
        alone = run_point(point, config.min_bit_errors, config.max_info_bits,
                          point_seed(config.master_seed, point))
        row = next(r for r in records if (r.scheme, r.wavelet, r.coded) == ("dqpsk", "db2", True))
        twin = next(r for r in records if (r.scheme, r.wavelet, r.coded) == ("dqpsk", "haar", True))
        assert alone == row == dataclasses.replace(twin, wavelet="db2")

    def test_every_sweep_simulates(self, monkeypatch):
        # The record table lives for one sweep: a second sweep of the same
        # config runs its chunks again.
        config = SimConfig(wavelets=("haar", "db2"), **TWIN_GRID)
        wavelets = _count_chunks(monkeypatch)
        first = run_sweep(config)
        assert len(wavelets) == 4 * 2
        assert run_sweep(config) == first
        assert len(wavelets) == 2 * 4 * 2 and set(wavelets) == {"haar"}

    def test_copy_keeps_the_wall_time_of_its_run(self):
        table = {}
        haar = PointSpec(4.0, "bpsk", "wh", "haar", False, 7)
        seed = point_seed(1, haar)
        first = run_point(haar, 1, 2000, seed, table)
        copied = run_point(haar._replace(wavelet="db2"), 1, 2000, seed, table)
        assert copied == dataclasses.replace(first, wavelet="db2")
        assert copied.wall_time == first.wall_time > 0
        assert table == {seed: first}

    def test_table_is_keyed_by_the_seed(self, monkeypatch):
        # The seed names the simulation: the same seed copies, another
        # seed simulates.  Each point is one cut chunk.
        table = {}
        wavelets = _count_chunks(monkeypatch)
        haar = PointSpec(4.0, "bpsk", "wh", "haar", False, 7)
        db2 = haar._replace(wavelet="db2")
        run_point(haar, 1, 2000, 5, table)
        run_point(db2, 1, 2000, 5, table)
        assert wavelets == ["haar"]
        run_point(db2, 1, 2000, 6, table)
        assert wavelets == ["haar", "db2"] and list(table) == [5, 6]

    def test_parallel_sweep_simulates_each_seed_once(self, monkeypatch):
        # A stand-in pool runs each task on a deep copy of its arguments,
        # as spawned workers receive pickled ones.  It runs the first point
        # of each seed; then every point is one positional run_point call,
        # in points() order, that copies its record from the table.
        config = SimConfig(wavelets=("haar", "db2", "bior22"), **TWIN_GRID)
        serial = run_sweep(config, jobs=1)
        calls = []

        class Pool:
            def map(self, fn, *iterables, chunksize):
                results = [fn(*copy.deepcopy(args)) for args in zip(*iterables)]
                calls.append("pool")
                return iter(results)

        real_run_point = sim.run_point

        def spy(*args):
            calls.append(args[0])
            return real_run_point(*args)

        wavelets = _count_chunks(monkeypatch)
        monkeypatch.setattr(sim, "_worker_pool", lambda jobs: contextlib.nullcontext(Pool()))
        monkeypatch.setattr(sim, "run_point", spy)
        records = run_sweep(config, jobs=2)
        assert len(wavelets) == 8 * 2 and set(wavelets) == {"haar", "bior22"}
        assert calls[calls.index("pool") + 1:] == config.points()
        assert records == serial


class TestSeeds:
    def test_point_seed_stable_and_distinct(self):
        p1 = PointSpec(0.0, "bpsk", "wh", "haar", False, 7)
        p2 = PointSpec(1.0, "bpsk", "wh", "haar", False, 7)
        assert point_seed(3, p1) == point_seed(3, p1)
        assert point_seed(3, p1) != point_seed(3, p2)
        assert point_seed(3, p1) != point_seed(4, p1)
        # The seed hashes the channel: db2 is haar's channel, bior22 is not.
        for levels in (3, 8):
            haar = p1._replace(levels=levels)
            assert point_seed(3, haar._replace(wavelet="db2")) == point_seed(3, haar)
            assert point_seed(3, haar._replace(wavelet="bior22")) != point_seed(3, haar)
        assert point_seed(3, p1._replace(levels=3)) != point_seed(3, p1)


class TestTotalPower:
    """Total-power mode is the per-user link at Eb/N0 - 10*log10(U)."""

    @pytest.mark.parametrize("wavelet", ["haar", "bior22"])
    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "dbpsk", "dqpsk"])
    def test_sigma_is_the_nominal_sigma_times_sqrt_users(self, scheme, wavelet):
        for users, snr in itertools.product((1, 4, 7), (-10.0, 0.0, 7.5)):
            point = PointSpec(snr, scheme, "gcs", wavelet, False, users, total_power=True)
            cfg = link_config_for(point)
            energies, _ = link.channel_operators(cfg.spreading, cfg.wavelet)
            mean_energy = float(np.mean(energies[:users * cfg.symbols_per_block]))
            expected = link.noise_sigma_for(snr, cfg, mean_energy) * math.sqrt(users)
            assert cfg.noise_sigma == pytest.approx(expected, rel=1e-15, abs=0)
            if users == 1:
                nominal = link_config_for(point._replace(total_power=False))
                assert cfg.noise_sigma == nominal.noise_sigma

    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk"])
    @pytest.mark.parametrize("users", [4, 7])
    def test_uncoded_haar_rows_follow_the_shifted_theory(self, scheme, users):
        # Each user's share sits at 0 dB, where theory gives 7.9e-2.
        snr = 10.0 * math.log10(users)
        point = PointSpec(snr, scheme, "wh", "haar", False, users, total_power=True)
        record = run_point(point, 10**6, 40_000, point_seed(1, point))
        p = theoretical_ber(scheme, 0.0)
        assert abs(record.ber - p) < 4.0 * math.sqrt(p * (1 - p) / record.bits_sent)

    def test_overflow_error_names_the_nominal_snr(self):
        point = PointSpec(-3080.0, "bpsk", "wh", "haar", False, 7, total_power=True)
        with pytest.raises(ValueError) as error:
            link_config_for(point)
        message = str(error.value)
        assert message.startswith("snr_db -3080.0 in total-power mode runs each of the 7 users "
                                  "at -3088.45")
        assert "snr_db must be finite and not so low that the noise overflows" in message
        # Outside total-power mode the nominal SNR is the link's.
        link_config_for(point._replace(total_power=False))

    def test_record_keeps_the_nominal_snr(self):
        point = PointSpec(2.5, "qpsk", "wh", "haar", True, 7, total_power=True)
        shared = run_point(point, 1, 2000, 3)
        assert shared.snr_db == 2.5
        per_user = run_point(point._replace(total_power=False), 1, 2000, 3)
        assert shared.bit_errors > per_user.bit_errors

    @pytest.mark.parametrize("wavelet", ["haar", "bior22"])
    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "dbpsk", "dqpsk"])
    def test_chunk_replays_by_hand(self, scheme, wavelet):
        # Each of U users sends symbols / sqrt(U) through the noise of the
        # nominal SNR.  Every detector is a sign test, and scaling by sqrt(U)
        # leaves every sign unchanged, so the link, which runs at
        # snr - 10*log10(U), decides what those symbols plus sigma z decide,
        # with sigma the nominal std and z the link's own draw (see the link
        # module docstring).
        users, blocks = 3, 8
        cfg = link_config_for(PointSpec(3.0, scheme, "wh", wavelet, False, users,
                                        total_power=True))
        group, width = cfg.symbols_per_block, users * cfg.symbols_per_block
        n_bits = blocks * group * cfg.scheme.bits_per_symbol
        bits = np.random.default_rng(22).integers(0, 2, (users, n_bits), dtype=np.uint8)
        decoded, errors = run_link_once(bits, cfg, np.random.default_rng(23))

        energies, factor = link.channel_operators(cfg.spreading, cfg.wavelet)
        sigma = link.noise_sigma_for(3.0, cfg, float(np.mean(energies[:width])))
        symbols = modulate(bits, cfg.scheme)
        dims = 2 if np.iscomplexobj(symbols) else 1
        noise = sigma * np.random.default_rng(23).standard_normal((dims, blocks, width))
        if factor is not None:
            noise = noise @ factor[:width, :width]
        noise = noise.reshape(dims, blocks, users, group).transpose(0, 2, 1, 3)
        noise = noise.reshape(dims, users, -1)
        received = symbols * (1 / np.sqrt(users)) + (noise[0] if dims == 1
                                                     else noise[0] + 1j * noise[1])
        assert errors > 0 and np.array_equal(decoded, demodulate(received, cfg.scheme))

    def test_noise_share_grows_with_users(self):
        # With total power fixed, 7 users at 0 dB see much more noise per
        # user than a single user does.
        errors = {}
        for users in (1, 7):
            cfg = link_config_for(PointSpec(0.0, "bpsk", "wh", "haar", False, users,
                                            total_power=True))
            rng = np.random.default_rng(16)
            bits = rng.integers(0, 2, (users, 3000), dtype=np.uint8)
            _, err = run_link_once(bits, cfg, rng)
            errors[users] = err / bits.size
        assert errors[7] > 2 * errors[1]


class TestTheory:
    def test_bpsk_reference_values(self):
        # Q(sqrt(2)) and Q(2.2414) evaluated independently via erfc.
        assert theoretical_ber("bpsk", 0.0) == pytest.approx(
            0.5 * math.erfc(math.sqrt(2) / math.sqrt(2)), rel=1e-12)
        assert theoretical_ber("bpsk", 0.0) == pytest.approx(7.865e-2, rel=1e-3)
        assert theoretical_ber("bpsk", 4.0) == pytest.approx(1.25e-2, rel=1e-2)

    def test_qpsk_equals_bpsk_per_bit(self):
        for snr in (0.0, 3.0, 8.0):
            assert theoretical_ber("qpsk", snr) == theoretical_ber("bpsk", snr)

    def test_dbpsk_closed_form_and_ordering(self):
        gamma = 10 ** 0.4
        assert theoretical_ber("dbpsk", 4.0) == pytest.approx(0.5 * math.exp(-gamma), rel=1e-12)
        assert theoretical_ber("dbpsk", 4.0) == pytest.approx(4.05e-2, rel=1e-2)
        for snr in (0.0, 4.0, 8.0):
            assert theoretical_ber("dbpsk", snr) > theoretical_ber("bpsk", snr)

    def test_dqpsk_between_dbpsk_and_worst(self):
        # Gray DQPSK with differential detection sits above coherent QPSK
        # and (at equal Eb/N0) above DBPSK as well.
        for snr in (2.0, 6.0, 10.0):
            assert theoretical_ber("dqpsk", snr) > theoretical_ber("qpsk", snr)
        assert theoretical_ber("dqpsk", 30.0) < 1e-20

    @pytest.mark.parametrize("snr, expected", [
        # Q1(a,b) - I0(ab)/2 * exp(-(a^2+b^2)/2) from Marcum-Q and Bessel
        # routines, where that difference is still well conditioned.
        (0.0, 0.16390753039958472),
        (5.0, 0.030494324428562557),
        (10.0, 0.000343184596033453),
        (15.0, 6.347333488587723e-10),
        (20.0, 1.4580232065841664e-27),
        (25.0, 8.06870524752122e-83),
    ])
    def test_dqpsk_reference_values(self, snr, expected):
        assert theoretical_ber("dqpsk", snr) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "dbpsk", "dqpsk"])
    def test_extreme_snrs(self, scheme):
        # 10^400 overflows a float; the curves are 0 long before that.
        assert theoretical_ber(scheme, 4000.0) == 0.0
        assert theoretical_ber(scheme, -4000.0) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "dbpsk", "dqpsk"])
    def test_nan_snr_rejected(self, scheme):
        with pytest.raises(ValueError, match="ebn0_db must not be NaN"):
            theoretical_ber(scheme, math.nan)
        assert theoretical_ber(scheme, -math.inf) == pytest.approx(0.5, rel=1e-12)
        assert theoretical_ber(scheme, math.inf) == 0.0

    @pytest.mark.parametrize("value", [True, np.bool_(False)])
    def test_bool_snr_rejected(self, value):
        # A bool is not 1 dB (or 0 dB), as SimConfig rules.
        with pytest.raises(ValueError, match="snr_db must hold numbers"):
            theoretical_ber("bpsk", value)

    @pytest.mark.parametrize("scheme", ["bpsk", "qpsk", "dbpsk", "dqpsk"])
    def test_nonnegative_and_nonincreasing(self, scheme):
        values = [theoretical_ber(scheme, 0.5 * i) for i in range(61)]
        assert min(values) >= 0.0
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))
        if scheme == "dqpsk":
            assert values[-1] > 0.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            theoretical_ber("16qam", 4.0)

    def test_runs_without_scipy(self):
        # numpy is the only runtime dependency: block scipy in a fresh
        # interpreter and use the package, CLI and every reference curve.
        run_in_fresh_interpreter(
            "import sys; sys.modules['scipy'] = None\n"
            "import dwtcdma, dwtcdma.cli\n"
            "from dwtcdma.sim import theoretical_ber\n"
            "for s in ('bpsk', 'qpsk', 'dbpsk', 'dqpsk'): assert theoretical_ber(s, 4.0) > 0\n"
        )

    def test_import_loads_no_process_pool(self):
        # Only a parallel sweep imports concurrent.futures and multiprocessing.
        run_in_fresh_interpreter(
            "import sys, dwtcdma.sim\n"
            "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)\n"
            "assert not loaded, loaded\n"
        )


def run_in_fresh_interpreter(code: str) -> None:
    """Run code in a new python with this checkout's package on its path."""
    src = str(Path(sim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestOutputs:
    @staticmethod
    def records():
        return [
            BerRecord(0.0, "bpsk", "wh", "haar", False, 7, 1000, 80, 0.08, 17),
            BerRecord(0.0, "bpsk", "wh", "haar", True, 7, 1500, 30, 0.02, 18),
        ]

    @staticmethod
    def config():
        return SimConfig(**FAST)

    def test_csv_rows(self, tmp_path):
        # Every field but wall_time, floats as their repr, bools as 0 and 1.
        write_outputs(self.records(), tmp_path, self.config())
        assert (tmp_path / "results.csv").read_text().splitlines()[1:] == [
            "0.0,bpsk,wh,haar,0,7,1000,80,0.08,17",
            "0.0,bpsk,wh,haar,1,7,1500,30,0.02,18",
        ]

    def test_csv_header_schema(self, tmp_path):
        write_outputs([], tmp_path, self.config())
        text = (tmp_path / "results.csv").read_text()
        assert text == "snr_db,scheme,family,wavelet,coded,users,bits_sent,bit_errors,ber,seed\n"

    def test_manifest_contents(self, tmp_path):
        config = SimConfig(master_seed=1234, **FAST)
        write_outputs([], tmp_path, config, preset=None)
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "master_seed: 1234" in manifest
        assert "dwtcdma_version: " + __version__ in manifest
        # One line per SimConfig field, after the version.
        assert manifest.splitlines()[1:] == [f"{f.name}: {getattr(config, f.name)}"
                                             for f in dataclasses.fields(SimConfig)]

    def test_plot_file_shape_fig2(self, tmp_path):
        config = preset_config("fig2", master_seed=0, snr_db=tuple(float(s) for s in range(21)),
                               **FAST)
        points = config.points()
        records = [BerRecord(p.snr_db, p.scheme, p.family, p.wavelet, p.coded,
                             p.users, 100, 1, 0.01, 0) for p in points]
        write_outputs(records, tmp_path, config, preset="fig2")
        lines = [l for l in (tmp_path / "fig2.dat").read_text().splitlines()
                 if not l.startswith("#")]
        assert len(lines) == 21
        assert all(len(line.split()) == 7 for line in lines)

    def test_plot_file_keeps_every_curve(self, tmp_path):
        # A grid that also varies the wavelet: each curve keeps its own
        # values, and the shipped axes keep their labels.
        config = preset_config("fig2", snr_db=(0.0, 1.0), wavelets=("haar", "bior22"), **FAST)
        records = [BerRecord(p.snr_db, p.scheme, p.family, p.wavelet, p.coded, p.users,
                             100, 1, (0.25 if p.wavelet == "haar" else 0.5) + p.coded / 8, 0)
                   for p in config.points()]
        write_outputs(records, tmp_path, config, preset="fig2")
        header, *rows = (tmp_path / "fig2.dat").read_text().splitlines()
        labels = header.split()[2:]
        assert len(labels) == 12 and "wh-bior22-uncoded" in labels and "gcs-haar-coded" in labels
        for row in rows:
            values = dict(zip(labels, map(float, row.split()[1:])))
            assert values["wh-haar-uncoded"] == 0.25 and values["wh-bior22-coded"] == 0.625

        write_outputs(records[:1], tmp_path, config, preset="fig2")
        assert (tmp_path / "fig2.dat").read_text().splitlines()[0] == "# snr_db wh-uncoded"

    def test_golden_digest_of_small_sweep(self, tmp_path):
        # Pins the values of a fixed grid: fig2 at three SNRs plus a DBPSK
        # point over db2, a coded DQPSK point over bior22, an uncoded QPSK
        # point, a shared-power coded BPSK point and a 1-user coded DBPSK
        # point over bior22, whose final block is partial.  A change to
        # the draw order or to the values of any chain must update this
        # digest and announce the new values (ROADMAP, reproducibility).
        # The db2 points take the seeds of their haar twins.
        config = preset_config("fig2", 42, snr_db=(0.0, 4.0, 8.0), max_info_bits=40_000)
        extra = [PointSpec(4.0, "dbpsk", "gold", "db2", False, 7),
                 PointSpec(4.0, "dqpsk", "wh", "bior22", True, 7),
                 PointSpec(4.0, "qpsk", "gcs", "db2", False, 3),
                 PointSpec(6.0, "bpsk", "gold", "bior22", True, 5, total_power=True),
                 PointSpec(4.0, "dbpsk", "wh", "bior22", True, 1)]
        records = run_sweep(config) + [
            run_point(point, config.min_bit_errors, config.max_info_bits,
                      point_seed(config.master_seed, point))
            for point in extra]
        write_outputs(records, tmp_path, config)
        digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
        assert digest == "a49cc7ab1540db6c3b222205ab5bd6db29d9f86cec71f487ed0fc845523f8d6d"

    def test_golden_digest_of_first_chunks(self, tmp_path):
        # Every point of this grid reaches its error target in its first
        # chunk, a full one that opens a chunk pair, so no twin runs: the
        # digest pins the values that the first chunk of any point
        # computes, over all four schemes, haar and bior22, coded and
        # uncoded, 1 and 7 users.  It is the same with and without chunk
        # pairs, and no change to the pairs may move it.
        config = SimConfig(snr_db=(0.0, 3.0), schemes=("bpsk", "qpsk", "dbpsk", "dqpsk"),
                           families=("gcs",), wavelets=("haar", "bior22"),
                           coded_flags=(False, True), user_counts=(1, 7),
                           min_bit_errors=100, max_info_bits=10**6, master_seed=17)
        records = run_sweep(config)
        assert all(r.bit_errors >= 100 and r.bits_sent <= 20_000 for r in records)
        write_outputs(records, tmp_path, config)
        digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
        assert digest == "6a53b7cd65def504ca351e4dfc242d995655d4bb1330685e1f8d75648856bada"

    @pytest.mark.parametrize("preset, drop_last, message", [
        ("fig9", False, r"unknown preset 'fig9' \(choose from \['fig2'"),
        ("FIG2", False, "unknown preset 'FIG2'"),
        ("fig2", True, "plot cell snr_db=1, curve gcs-coded empty"),
    ])
    def test_bad_preset_or_empty_plot_cell_writes_nothing(self, tmp_path, preset, drop_last,
                                                          message):
        config = preset_config("fig2", snr_db=(0.0, 1.0), **FAST)
        records = [BerRecord(p.snr_db, p.scheme, p.family, p.wavelet, p.coded, p.users,
                             100, 1, 0.01, 0) for p in config.points()]
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            write_outputs(records[:-1] if drop_last else records, out, config, preset=preset)
        assert not out.exists()

    def test_write_failure_has_path_context(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises(OSError, match="blocked"):
            write_outputs(self.records(), target, self.config())


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("fig9")

    @pytest.mark.parametrize("preset, x_axis", [("fig2", "snr_db"), ("fig5", "snr_db"),
                                                 ("fig6", "users"), ("fig7", "users")])
    def test_plot_axis(self, tmp_path, preset, x_axis):
        # A preset that sets the user counts plots against them.
        config = preset_config(preset, **FAST)
        records = [BerRecord(*p[:6], 100, 1, 0.01, 0) for p in config.points()]
        write_outputs(records, tmp_path, config, preset=preset)
        header = (tmp_path / f"{preset}.dat").read_text().splitlines()[0]
        assert header.split()[1] == x_axis

    def test_preset_axes(self):
        config = preset_config("fig3")
        assert config.schemes == ("dbpsk",)
        assert len(config.snr_db) == 21
        assert preset_config("fig7").snr_db == (0.0,)

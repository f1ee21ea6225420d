import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dwtcdma import __version__, link, sim
from dwtcdma.link import run_link_once
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
        # computes it when it configures the link, not once per chunk.
        calls = []
        noise_sigma_for = link.noise_sigma_for

        def counted(*args):
            calls.append(args[0])
            return noise_sigma_for(*args)

        def chunk(*args):
            chunks.append(args[0].shape)
            return run_link_once(*args)

        chunks = []
        monkeypatch.setattr(link, "noise_sigma_for", counted)
        monkeypatch.setattr(sim, "run_link_once", chunk)
        run_point(PointSpec(4.0, "dbpsk", "wh", "bior22", True, 7), 10**6, 50_000, seed=3)
        assert len(chunks) == 3 and calls == [4.0]

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
        base = dict(schemes=("bpsk",), families=("wh", "gcs"), wavelets=("haar",),
                    coded_flags=(False,), user_counts=(1,), master_seed=5, **FAST)
        forward = run_sweep(SimConfig(snr_db=(0.0, 2.0), **base))
        backward = run_sweep(SimConfig(snr_db=(2.0, 0.0), **base))
        assert forward == backward

    def test_parallel_equals_serial(self):
        config = SimConfig(snr_db=(0.0, 1.0), families=("wh",), user_counts=(2, 7),
                           master_seed=9, **FAST)
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


class TestSeeds:
    def test_point_seed_stable_and_distinct(self):
        p1 = PointSpec(0.0, "bpsk", "wh", "haar", False, 7)
        p2 = PointSpec(1.0, "bpsk", "wh", "haar", False, 7)
        assert point_seed(3, p1) == point_seed(3, p1)
        assert point_seed(3, p1) != point_seed(3, p2)
        assert point_seed(3, p1) != point_seed(4, p1)

    def test_link_config_for_carries_total_power(self):
        cfg = link_config_for(PointSpec(0.0, "bpsk", "wh", "haar", False, 2, 8, True))
        assert cfg.total_power


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

    def test_csv_rows(self, tmp_path):
        # Every field but wall_time, floats as their repr, bools as 0 and 1.
        write_outputs(self.records(), tmp_path)
        assert (tmp_path / "results.csv").read_text().splitlines()[1:] == [
            "0.0,bpsk,wh,haar,0,7,1000,80,0.08,17",
            "0.0,bpsk,wh,haar,1,7,1500,30,0.02,18",
        ]

    def test_csv_header_schema(self, tmp_path):
        write_outputs([], tmp_path)
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
        write_outputs(records, tmp_path)
        digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
        assert digest == "f53a4d2aaa751aa0f41a4a4332ab4fac2f0648a2c26318921d2f2e0480963d5f"

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
            write_outputs(self.records(), target)


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("fig9")

    def test_preset_axes(self):
        config = preset_config("fig3")
        assert config.schemes == ("dbpsk",)
        assert len(config.snr_db) == 21
        assert preset_config("fig7").snr_db == (0.0,)


import dataclasses

import numpy as np
import pytest

from dwtcdma import fec, sim, spreading
from dwtcdma.cli import _SWEEP_FLAGS, _parse_float_axis, build_parser, main


class TestCodesCommands:
    def test_dump_walsh(self, capsys):
        assert main(["codes", "dump", "--family", "wh", "--sf", "8"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8
        assert lines[0] == "++++++++"
        assert set("".join(lines)) == {"+", "-"}

    def test_dump_gold_and_gcs(self, capsys):
        for family, sf in (("gold", 8), ("gcs", 16)):
            assert main(["codes", "dump", "--family", family, "--sf", str(sf)]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == sf and all(len(row) == sf for row in lines)

    def test_dump_unsupported_gold_sf(self, capsys):
        assert main(["codes", "dump", "--family", "gold", "--sf", "16"]) == 1
        assert "degree 4" in capsys.readouterr().err

    def test_check_passes(self, capsys):
        assert main(["codes", "check"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "gold cross-correlation" in out

    def test_check_fails_on_a_broken_row(self, capsys, monkeypatch):
        def broken(family, n):
            rows = spreading.walsh_hadamard(n).rows.copy()
            rows[1, 0] *= -1
            return spreading.SpreadingMatrix(family, rows)

        monkeypatch.setattr(spreading, "build_matrix", broken)
        assert main(["codes", "check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL gram wh N=8: wh rows are not mutually orthogonal" in out
        assert "ok   complementary pair sums N=8" in out


class TestFecCommand:
    def test_verify_passes(self, capsys):
        assert main(["fec", "verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "ok   decode: 0 failures in 8388608 cases" in out
        assert "ok   weight distribution: 0:1 7:253 8:506 11:1288" in out

    def test_verify_fails_on_a_corrupted_syndrome_table(self, capsys, monkeypatch):
        encode_table, syndrome_table = fec.codec_tables()
        # Swap the entries of two single information-bit errors.
        swap = fec.syndromes([1 << 21, 1 << 22])
        corrupted = syndrome_table.copy()
        corrupted[swap] = corrupted[swap[::-1]]
        monkeypatch.setattr(fec, "codec_tables", lambda: fec.GolayCodecTables(encode_table,
                                                                             corrupted))
        assert main(["fec", "verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL decode: 8192 failures in 8388608 cases" in out
        assert "FAIL syndrome table: 2046 of 2048 patterns at their syndrome" in out
        assert "ok   weight distribution" in out


class TestSweepCommand:
    def test_explicit_sweep_writes_outputs(self, tmp_path, capsys):
        code = main([
            "sweep", "--snr", "0:2:2", "--scheme", "bpsk", "--family", "wh",
            "--wavelet", "haar", "--coded", "uncoded", "--users", "7",
            "--seed", "3", "--min-errors", "4", "--max-bits", "4000",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "manifest.txt").exists()
        lines = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2

    def test_preset_run_writes_plot_data(self, tmp_path):
        code = main([
            "sweep", "--preset", "fig6", "--seed", "1",
            "--min-errors", "2", "--max-bits", "600", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "fig6.dat").exists()
        data_lines = [l for l in (tmp_path / "fig6.dat").read_text().splitlines()
                      if not l.startswith("#")]
        assert len(data_lines) == 7  # one row per user count

    def test_sweep_requires_grid(self, capsys):
        assert main(["sweep"]) == 2
        assert "--preset or --snr" in capsys.readouterr().err

    def test_total_power_flag_accepted(self, tmp_path):
        code = main([
            "sweep", "--snr", "0", "--coded", "uncoded", "--users", "1,4",
            "--total-power", "--min-errors", "2", "--max-bits", "500",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 2 * 3  # two user counts, three families

    def test_censored_points_marked(self, tmp_path, capsys):
        code = main([
            "sweep", "--snr", "200", "--family", "wh", "--coded", "uncoded",
            "--min-errors", "5", "--max-bits", "500", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "(censored)" in capsys.readouterr().out

    def test_levels_override(self, tmp_path):
        code = main([
            "sweep", "--snr", "300", "--family", "wh", "--coded", "uncoded",
            "--wavelet", "db2", "--levels", "3", "--min-errors", "1",
            "--max-bits", "400", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "levels: 3" in (tmp_path / "manifest.txt").read_text()
        assert main(["sweep", "--snr", "0", "--levels", "11", "--min-errors", "1",
                     "--max-bits", "400", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--snr", "5"), ("--scheme", "qpsk"), ("--family", "wh"),
        ("--wavelet", "db2"), ("--coded", "coded"), ("--users", "2"),
    ])
    def test_grid_flag_with_preset_rejected(self, tmp_path, capsys, monkeypatch, flag, value):
        def unreachable(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(sim, "run_point", unreachable)
        argv = ["sweep", "--preset", "fig7", "--max-bits", "100", "--out", str(tmp_path / "out"),
                flag, value]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"{flag} cannot be combined with --preset" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, fields", [
        ([], {}),
        (["--snr", "2:4:2"], {"snr_db": (2.0, 4.0)}),
        (["--scheme", "qpsk,dbpsk"], {"schemes": ("qpsk", "dbpsk")}),
        (["--family", "wh,gcs"], {"families": ("wh", "gcs")}),
        (["--wavelet", "db2"], {"wavelets": ("db2",)}),
        (["--levels", "3"], {"levels": 3}),
        (["--coded", "coded"], {"coded_flags": (True,)}),
        (["--users", "1:3"], {"user_counts": (1, 2, 3)}),
        # Gold has no SF 16 code set, so SF 16 needs a family without gold.
        (["--sf", "16", "--family", "wh"], {"spreading_factor": 16, "families": ("wh",)}),
        (["--seed", "5"], {"master_seed": 5}),
        (["--min-errors", "7"], {"min_bit_errors": 7}),
        (["--max-bits", "5000"], {"max_info_bits": 5000}),
        (["--total-power"], {"total_power": True}),
        (["--preset", "fig7", "--max-bits", "100"], None),
        # Integer flags read integral exponent forms, and every digit of a seed.
        (["--max-bits", "1e7", "--min-errors", "1E2", "--sf", "1.6e1", "--family", "wh",
          "--levels", "3.0"], {"max_info_bits": 10**7, "min_bit_errors": 100,
                               "spreading_factor": 16, "families": ("wh",), "levels": 3}),
        (["--seed", "12345678901234567891"], {"master_seed": 12345678901234567891}),
    ])
    def test_flags_map_onto_config_fields(self, tmp_path, monkeypatch, args, fields):
        # Only the flags given reach the config; every other field keeps
        # its SimConfig default.
        seen = []
        monkeypatch.setattr(sim, "run_sweep", lambda config, jobs: seen.append(config) or [])
        if fields is None:
            argv, expected = args, sim.preset_config("fig7", max_info_bits=100)
        else:
            argv, expected = ["--snr", "0", *args], sim.SimConfig(**{"snr_db": (0.0,), **fields})
        assert main(["sweep", "--out", str(tmp_path), *argv]) == 0
        assert seen == [expected]

    def test_every_axis_has_one_flag(self):
        dests = [dest for _, dest, *_ in _SWEEP_FLAGS]
        assert all(dests.count(name) == 1 for name in sim.AXES)

    def test_help_shows_the_snr_default(self, capsys, monkeypatch):
        # Wide enough that argparse keeps the default on one line.
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        default = ",".join(map(str, sim.DEFAULT_SNR_GRID))
        assert f"dB values: a:b:step or comma list (default {default})" in capsys.readouterr().out

    def test_help_lists_the_known_names(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        for names in ("bpsk,qpsk,dbpsk,dqpsk", "wh,gold,gcs", "haar,db2,bior22"):
            assert f"comma list of {names} " in out

    def test_sweep_flags_default_to_none(self):
        # The defaults live in SimConfig alone.
        args = build_parser().parse_args(["sweep"])
        assert all(getattr(args, f.name) is None for f in dataclasses.fields(sim.SimConfig))


class TestAxisParsing:
    def test_range_never_passes_stop(self):
        assert _parse_float_axis("0:1:0.6") == (0.0, 0.6)
        assert _parse_float_axis("0:2:0.7") == (0.0, 0.7, 1.4)

    def test_stop_on_the_grid_is_kept(self):
        assert _parse_float_axis("0:0.3:0.1") == (0.0, 0.1, 0.2, 0.3)
        assert _parse_float_axis("-10:2:4") == (-10.0, -6.0, -2.0, 2.0)
        assert _parse_float_axis("0:20") == tuple(float(i) for i in range(21))
        assert _parse_float_axis("3:3") == (3.0,)

    def test_range_and_list_of_the_same_snrs_agree(self, tmp_path):
        # Equal SNRs give equal point seeds, so the two grids write equal rows.
        csv = []
        for snr in ("0:0.3:0.1", "0,0.1,0.2,0.3"):
            out = tmp_path / snr.replace(":", "_")
            argv = ["sweep", "--snr", snr, "--scheme", "bpsk", "--family", "wh",
                    "--coded", "uncoded", "--users", "1", "--max-bits", "200", "--out", str(out)]
            assert main(argv) == 0
            csv.append((out / "results.csv").read_bytes())
        assert csv[0] == csv[1]

    def test_negative_zero_snr_writes_the_rows_of_zero(self, tmp_path):
        csv = []
        for snr in ("-0", "0"):
            out = tmp_path / f"snr{snr}"
            argv = ["sweep", f"--snr={snr}", "--family", "wh", "--coded", "uncoded",
                    "--users", "1", "--max-bits", "2000", "--out", str(out)]
            assert main(argv) == 0
            csv.append((out / "results.csv").read_bytes())
        assert csv[0] == csv[1]
        assert b"\n0.0,bpsk,wh,haar,0,1," in csv[0]

    def test_huge_range_refused_before_it_is_built(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--snr", "0:1e9:1e-9"])
        assert exit_info.value.code == 2
        assert ("range 0:1e9:1e-9 holds 1000000000000000001 points, more than the 10000"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag, value, message", [
        ("--snr", "5:0:1", "descends"),
        ("--users", "7:1", "descends"),
        ("--snr", "0:2:0", "step must be positive"),
        ("--snr", "0:inf", "finite"),
        ("--users", "1:3:0.5", "integer bounds and step"),
        ("--jobs", "0", "--jobs must be at least 1"),
        ("--jobs", "-2", "--jobs must be at least 1"),
        # A value that is not a number gets the rule, not a function name.
        ("--jobs", "2.5", "--jobs must be at least 1 (an integer), got '2.5'"),
        ("--users", "2.5", "expected integers as a comma list or an ascending low:high"),
        ("--snr", "abc", "expected numbers as a comma list or an ascending low:high"),
        ("--snr", "0:x", "expected numbers as a comma list or an ascending low:high"),
        ("--max-bits", "2.5", "--max-bits must be an integer, such as 10000000 or 1e7, got '2.5'"),
        ("--seed", "1e-3", "--seed must be an integer, such as 10000000 or 1e7, got '1e-3'"),
    ])
    def test_bad_values_rejected_by_parser(self, capsys, flag, value, message):
        argv = ["sweep", "--snr", "0", flag, value]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--snr", "0,5,nan", "snr_db must be finite"),
        ("--users", "1,9", "num_users"),
        ("--snr", "0,0", "duplicate"),
        ("--scheme", "bpsk,BPSK", "duplicate"),
        ("--snr", "-4000", "snr_db must be finite and not so low"),
        # The depth rule, not a block size the CLI cannot set.
        ("--levels", "9", "levels must be in 1..8 for a 256-point block, got 9"),
    ])
    def test_invalid_grid_fails_before_first_point(self, tmp_path, capsys, monkeypatch,
                                                   flag, value, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(sim, "run_point", unreachable)
        argv = ["sweep", "--snr", "0", "--max-bits", "400", "--out", str(tmp_path / "out"),
                flag, value]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

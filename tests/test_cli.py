
import pytest

from dwtcdma import sim
from dwtcdma.cli import _parse_float_axis, main


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


class TestFecCommand:
    def test_verify_passes(self, capsys):
        assert main(["fec", "verify"]) == 0
        out = capsys.readouterr().out
        assert "decode_failures: 0" in out
        assert "all checks passed" in out


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


class TestAxisParsing:
    def test_range_never_passes_stop(self):
        assert _parse_float_axis("0:1:0.6") == (0.0, 0.6)
        assert _parse_float_axis("0:2:0.7") == (0.0, 0.7, 1.4)

    def test_stop_on_the_grid_is_kept(self):
        assert _parse_float_axis("0:0.3:0.1") == tuple(i * 0.1 for i in range(4))
        assert _parse_float_axis("-10:2:4") == (-10.0, -6.0, -2.0, 2.0)
        assert _parse_float_axis("0:20") == tuple(float(i) for i in range(21))
        assert _parse_float_axis("3:3") == (3.0,)

    @pytest.mark.parametrize("flag, value, message", [
        ("--snr", "5:0:1", "descends"),
        ("--users", "7:1", "descends"),
        ("--snr", "0:2:0", "step must be positive"),
        ("--snr", "0:inf", "finite"),
        ("--users", "1:3:0.5", "integer bounds and step"),
        ("--jobs", "0", "--jobs must be at least 1"),
        ("--jobs", "-2", "--jobs must be at least 1"),
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

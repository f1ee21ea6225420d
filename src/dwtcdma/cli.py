"""Command-line interface: spreading-code inspection and verification,
Golay codec verification, and Monte-Carlo BER sweeps."""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, fec, sim, spreading


def _parse_float_axis(text: str) -> tuple:
    """Accept ascending 'a:b[:step]' ranges, which never pass b, or
    comma-separated values."""
    if ":" in text:
        parts = [float(p) for p in text.split(":")]
        if len(parts) == 2:
            parts.append(1.0)
        start, stop, step = parts
        if not all(math.isfinite(p) for p in parts):
            raise argparse.ArgumentTypeError("range bounds and step must be finite")
        if step <= 0:
            raise argparse.ArgumentTypeError("step must be positive")
        if stop < start:
            raise argparse.ArgumentTypeError(f"range {text} descends; write it as low:high")
        # The slack keeps a stop that lies on the grid, such as 0.3 in 0:0.3:0.1.
        count = math.floor((stop - start) / step + 1e-9) + 1
        return tuple(start + i * step for i in range(count))
    return tuple(float(p) for p in text.split(","))


def _parse_int_axis(text: str) -> tuple:
    if ":" in text:
        if not all(float(p).is_integer() for p in text.split(":")):
            raise argparse.ArgumentTypeError(f"range {text} needs integer bounds and step")
        return tuple(int(v) for v in _parse_float_axis(text))
    return tuple(int(p) for p in text.split(","))


def _parse_jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("--jobs must be at least 1")
    return jobs


def _parse_coded(text: str) -> tuple:
    table = {"both": (False, True), "coded": (True,), "uncoded": (False,)}
    if text not in table:
        raise argparse.ArgumentTypeError("--coded must be both, coded or uncoded")
    return table[text]


def _cmd_codes_dump(args) -> int:
    matrix = spreading.build_matrix(args.family, args.sf)
    for row in matrix.rows:
        print("".join("+" if chip > 0 else "-" for chip in row))
    return 0


def _cmd_codes_check(args) -> int:
    failures = 0
    for name, ok, detail in spreading.verify_spreading_invariants():
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _cmd_fec_verify(args) -> int:
    report = fec.verify_golay_invariants()
    dist = report.pop("weight_distribution")
    for key, value in report.items():
        print(f"{key}: {value}")
    print("weight_distribution:", " ".join(f"{w}:{c}" for w, c in sorted(dist.items())))
    ok = (
        report["decode_failures"] == 0
        and report["cyclic_invariance"]
        and report["complement_invariance"]
        and report["factorization"]
        and report["min_nonzero_weight"] == 7
        and dist == {0: 1, 7: 253, 8: 506, 11: 1288, 12: 1288, 15: 506, 16: 253, 23: 1}
    )
    print("all checks passed" if ok else "CHECK FAILURES PRESENT")
    return 0 if ok else 1


def _cmd_sweep(args) -> int:
    overrides = {}
    if args.min_errors is not None:
        overrides["min_bit_errors"] = args.min_errors
    if args.max_bits is not None:
        overrides["max_info_bits"] = args.max_bits
    if args.total_power:
        overrides["total_power"] = True
    if args.sf is not None:
        overrides["spreading_factor"] = args.sf
    if args.levels is not None:
        overrides["levels"] = args.levels

    if args.preset:
        config = sim.preset_config(args.preset, master_seed=args.seed, **overrides)
    else:
        if args.snr is None:
            print("error: provide --preset or --snr", file=sys.stderr)
            return 2
        config = sim.SimConfig(
            snr_db=args.snr,
            schemes=tuple(args.scheme.split(",")),
            families=tuple(args.family.split(",")),
            wavelets=tuple(args.wavelet.split(",")),
            coded_flags=args.coded,
            user_counts=args.users,
            master_seed=args.seed,
            **overrides,
        )

    records = sim.run_sweep(config, jobs=args.jobs)
    paths = sim.write_outputs(records, args.out, config, preset=args.preset)
    for record in records:
        censored = "" if record.bit_errors >= config.min_bit_errors else " (censored)"
        print(
            f"snr={record.snr_db:g} scheme={record.scheme} family={record.family} "
            f"wavelet={record.wavelet} coded={int(record.coded)} users={record.users} "
            f"ber={record.ber:.6g} errors={record.bit_errors}/{record.bits_sent}{censored}"
        )
    for path in paths:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwtcdma",
        description="Wavelet-multicarrier CDMA link simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    codes = sub.add_parser("codes", help="spreading-code tools")
    codes_sub = codes.add_subparsers(dest="codes_command", required=True)
    dump = codes_sub.add_parser("dump", help="print a chip matrix as +/- rows")
    dump.add_argument("--family", required=True, choices=spreading.FAMILIES)
    dump.add_argument("--sf", required=True, type=int, help="spreading factor")
    dump.set_defaults(func=_cmd_codes_dump)
    check = codes_sub.add_parser("check", help="run all correlation invariants")
    check.set_defaults(func=_cmd_codes_check)

    fec_parser = sub.add_parser("fec", help="Golay codec tools")
    fec_sub = fec_parser.add_subparsers(dest="fec_command", required=True)
    verify = fec_sub.add_parser("verify", help="exhaustive codec verification")
    verify.set_defaults(func=_cmd_fec_verify)

    sweep = sub.add_parser("sweep", help="run a Monte-Carlo BER sweep")
    sweep.add_argument("--preset", choices=sorted(sim.PRESETS), help="figure-analogue grid")
    sweep.add_argument("--snr", type=_parse_float_axis, help="dB values: a:b:step or comma list")
    sweep.add_argument("--scheme", help="comma list of bpsk,qpsk,dbpsk,dqpsk (default bpsk)")
    sweep.add_argument("--family", help="comma list of wh,gold,gcs (default all)")
    sweep.add_argument("--wavelet", help="comma list of haar,db2,bior22 (default haar)")
    sweep.add_argument("--levels", type=int, help="wavelet cascade depth (default 8)")
    sweep.add_argument("--coded", type=_parse_coded, help="both, coded or uncoded (default both)")
    sweep.add_argument("--users", type=_parse_int_axis, help="user counts (default 7)")
    sweep.add_argument("--sf", type=int, help="spreading factor (default 8)")
    sweep.add_argument("--seed", type=int, default=0, help="master seed")
    sweep.add_argument("--min-errors", type=int, help="stop rule: target bit errors per point")
    sweep.add_argument("--max-bits", type=int, help="stop rule: information-bit budget per point")
    sweep.add_argument("--out", default="results", help="output directory")
    sweep.add_argument("--total-power", action="store_true",
                       help="hold total transmit power constant as users grow")
    sweep.add_argument("--jobs", type=_parse_jobs, default=1, help="worker processes")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


# Grid flags and their explicit-grid defaults; the parser leaves them None
# so that one given with --preset, which sets its own grid, is refused.
_GRID_DEFAULTS = {"snr": None, "scheme": "bpsk", "family": ",".join(spreading.FAMILIES),
                  "wavelet": "haar", "coded": (False, True), "users": (7,)}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        given = [f"--{dest}" for dest in _GRID_DEFAULTS if getattr(args, dest) is not None]
        if args.preset and given:
            parser.error(f"{', '.join(given)} cannot be combined with --preset, "
                         "which sets its own grid")
        for dest, default in _GRID_DEFAULTS.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

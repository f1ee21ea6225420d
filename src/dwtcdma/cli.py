"""Command-line interface: spreading-code inspection and verification,
Golay codec verification, and Monte-Carlo BER sweeps.

Sweep flags pass only the values given on to `sim.SimConfig` or a
preset, so the defaults live in SimConfig alone."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import decimal
import math
import sys

from . import __version__, fec, modem, sim, spreading, wavelet


_AXIS_RULE = "a comma list or an ascending low:high[:step] range"


def _axis_values(text: str, convert, kind: str) -> list:
    """The values of a comma list, or the bounds and step of a range, as
    convert reads them; an error states the rule."""
    parts = text.split(":") if ":" in text else text.split(",")
    with contextlib.suppress(ArithmeticError, ValueError):
        if ":" not in text or len(parts) in (2, 3):
            return [convert(p) for p in parts]
    raise argparse.ArgumentTypeError(f"expected {kind} as {_AXIS_RULE}, got {text!r}")


# Far more points than a sweep axis needs; a longer range is a slip.
_MAX_RANGE_POINTS = 10_000


def _parse_float_axis(text: str) -> tuple:
    """Accept ascending 'a:b[:step]' ranges, which never pass b, or
    comma-separated values.

    A range is read and stepped in decimal, so its points are the numbers
    as written: 0:0.3:0.1 gives 0.1, 0.2 and 0.3, as the list
    0,0.1,0.2,0.3 does, and stop lies on the grid exactly when a step
    reaches it.  Bounds and step must be finite floats, and a range may
    hold at most _MAX_RANGE_POINTS points.
    """
    if ":" not in text:
        return tuple(_axis_values(text, float, "numbers"))
    values = _axis_values(text, decimal.Decimal, "numbers")
    start, stop, step = values if len(values) == 3 else values + [decimal.Decimal(1)]
    if not all(p.is_finite() and math.isfinite(p) for p in (start, stop, step)):
        raise argparse.ArgumentTypeError("range bounds and step must be finite")
    # A step that rounds to the float 0 is refused, which keeps the count
    # below within Decimal's exponent range.
    if not float(step) > 0:
        raise argparse.ArgumentTypeError("step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError(f"range {text} descends; write it as low:high")
    if stop - start >= step * _MAX_RANGE_POINTS:
        count = ((stop - start) / step).to_integral_value(decimal.ROUND_FLOOR) + 1
        raise argparse.ArgumentTypeError(
            f"range {text} holds {count} points, more than the {_MAX_RANGE_POINTS} "
            "a range may hold")
    count = int((stop - start) // step) + 1
    return tuple(float(start + i * step) for i in range(count))


def _parse_int_axis(text: str) -> tuple:
    if ":" not in text:
        return tuple(_axis_values(text, int, "integers"))
    if not all(v.is_integer() for v in _axis_values(text, float, "integers")):
        raise argparse.ArgumentTypeError(f"range {text} needs integer bounds and step")
    return tuple(int(v) for v in _parse_float_axis(text))


def _integer(flag: str):
    """The converter of an integer flag: digits or an integral exponent
    form (1e7), read exactly, so a 20-digit seed keeps every digit."""
    def parse(text: str) -> int:
        with contextlib.suppress(ArithmeticError, ValueError):
            value = decimal.Decimal(text)
            # The exponent bound keeps 1e999999999 from building a huge int.
            if value.is_finite() and value == value.to_integral_value() and value.adjusted() < 100:
                return int(value)
        raise argparse.ArgumentTypeError(
            f"{flag} must be an integer, such as 10000000 or 1e7, got {text!r}")
    return parse


def _parse_jobs(text: str) -> int:
    with contextlib.suppress(ValueError):
        if (jobs := int(text)) >= 1:
            return jobs
    raise argparse.ArgumentTypeError(f"--jobs must be at least 1 (an integer), got {text!r}")


def _parse_names(text: str) -> tuple:
    return tuple(text.split(","))


_CODED = {"both": (False, True), "coded": (True,), "uncoded": (False,)}


def _parse_coded(text: str) -> tuple:
    if text not in _CODED:
        raise argparse.ArgumentTypeError("--coded must be both, coded or uncoded")
    return _CODED[text]


def _cmd_codes_dump(args) -> int:
    matrix = spreading.build_matrix(args.family, args.sf)
    for row in matrix.rows:
        print("".join("+" if chip > 0 else "-" for chip in row))
    return 0


def _print_checks(rows) -> int:
    """Print (name, ok, detail) self-check rows; 1 if any failed, else 0."""
    for name, ok, detail in rows:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return int(not all(ok for _, ok, _ in rows))


def _cmd_sweep(args) -> int:
    given = {f.name: value for f in dataclasses.fields(sim.SimConfig)
             if (value := getattr(args, f.name)) is not None}
    if args.preset:
        config = sim.preset_config(args.preset, **given)
    elif args.snr_db is None:
        print("error: provide --preset or --snr", file=sys.stderr)
        return 2
    else:
        config = sim.SimConfig(**given)

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


# The sweep flags: each stores into the SimConfig field named by its dest
# and defaults to None; its help shows that field's default.
_SWEEP_FLAGS = (
    ("--snr", "snr_db", _parse_float_axis, "dB values: a:b:step or comma list"),
    ("--scheme", "schemes", _parse_names, f"comma list of {','.join(modem.SCHEMES)}"),
    ("--family", "families", _parse_names, f"comma list of {','.join(spreading.FAMILIES)}"),
    ("--wavelet", "wavelets", _parse_names, f"comma list of {','.join(wavelet.FAMILY_TOKENS)}"),
    ("--levels", "levels", _integer("--levels"), "wavelet cascade depth"),
    ("--coded", "coded_flags", _parse_coded, "both, coded or uncoded"),
    ("--users", "user_counts", _parse_int_axis, "user counts"),
    ("--sf", "spreading_factor", _integer("--sf"), "spreading factor"),
    ("--seed", "master_seed", _integer("--seed"), "master seed"),
    ("--min-errors", "min_bit_errors", _integer("--min-errors"),
     "stop rule: target bit errors per point"),
    ("--max-bits", "max_info_bits", _integer("--max-bits"),
     "stop rule: information-bit budget per point"),
)


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
    dump.add_argument("--sf", required=True, type=_integer("--sf"), help="spreading factor")
    dump.set_defaults(func=_cmd_codes_dump)
    check = codes_sub.add_parser("check", help="run all correlation invariants")
    check.set_defaults(func=lambda args: _print_checks(spreading.verify_spreading_invariants()))

    fec_parser = sub.add_parser("fec", help="Golay codec tools")
    fec_sub = fec_parser.add_subparsers(dest="fec_command", required=True)
    verify = fec_sub.add_parser("verify", help="exhaustive codec verification")
    verify.set_defaults(func=lambda args: _print_checks(fec.verify_golay_invariants()))

    default = {f.name: f.default for f in dataclasses.fields(sim.SimConfig)}
    default["coded_flags"] = {v: k for k, v in _CODED.items()}[default["coded_flags"]]
    sweep = sub.add_parser("sweep", help="run a Monte-Carlo BER sweep")
    sweep.add_argument("--preset", choices=sorted(sim.PRESETS), help="figure-analogue grid")
    for flag, dest, parse, text in _SWEEP_FLAGS:
        value = default[dest]
        shown = ",".join(map(str, value)) if isinstance(value, tuple) else value
        sweep.add_argument(flag, dest=dest, type=parse, help=f"{text} (default {shown})")
    sweep.add_argument("--out", default="results", help="output directory")
    sweep.add_argument("--total-power", action="store_const", const=True,
                       help="hold total transmit power constant as users grow")
    sweep.add_argument("--jobs", type=_parse_jobs, default=1, help="worker processes")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.preset:
        # The grid axes, which a preset sets itself.
        given = [flag for flag, dest, *_ in _SWEEP_FLAGS
                 if dest in sim.AXES and getattr(args, dest) is not None]
        if given:
            parser.error(f"{', '.join(given)} cannot be combined with --preset, "
                         "which sets its own grid")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the dwtcdma sweep engine.

    python3 perfbench/run.py --workload fig2-capped --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  One closed loop with one client: a
single worker process runs the workload's sweep with `run_sweep(...,
jobs=1)` again and again for --seconds, each repetition starting when the
previous one has written its outputs.  BLAS/OpenMP pools are capped at
one thread.  Set-up time is measured in separate fresh interpreters.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics.  The last line
of standard output is one JSON object with `correct`, `attempted`,
`failed` (sweep points) and `metrics`; the lines before it print the
same figures for people, with the run's environment.  Outputs, spans
and the environment record go to perfbench/out/full/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
THREAD_CAP = "1"
DEADLINE_S = 170.0  # the whole run, set-up samples included

# Per-layer set-up figures, taken from the set-up samples.
SETUP_LAYERS = {"setup.import_s": "import_s", "fec.codec_tables_s": "codec_tables_s",
                "wavelet.filter_bank_s": "filter_bank_s"}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    from worker import THREAD_CAP_VARS

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({name: THREAD_CAP for name in THREAD_CAP_VARS})
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run the worker to completion and parse its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before the worker started")
    try:
        done = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {args[0]} exceeded {timeout:.0f} s") from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"worker {args[0]} exited with code {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dwtcdma sweep benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="a few one-chunk points and one set-up sample (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "dwtcdma" / "__init__.py").is_file():
        print(f"error: no dwtcdma sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    out = HERE / "out" / ("tiny" if args.tiny else "full") / args.workload
    try:
        setups = [run_child(["setup", *common], deadline)
                  for _ in range(1 if args.tiny else SETUP_SAMPLES)]
        run = run_child(["run", *common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--out", str(out)], deadline)
    except (ChildFailed, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = dict(run["layers"])
        for name, key in SETUP_LAYERS.items():
            metrics[name] = (statistics.median(s[key] for s in setups), "s")
    else:
        metrics = {
            "wall_s": (run["wall_s"], "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MiB"),
        }

    print(f"env {json.dumps(run['env'], sort_keys=True)}")
    print(f"repetitions {run['reps']} untraced" +
          (f", {run['traced_reps']} traced" if args.trace else "") +
          f"; untraced wall_s per repetition {[round(w, 4) for w in run['wall_s_all']]}")
    print(f"points_attempted {run['attempted']} count")
    print(f"points_failed {run['failed']} count")
    for cell, mbit in run.get("link_mbit_per_s_by_cell", {}).items():
        print(f"link.run_link_once.mbit_per_s[{cell}] {mbit:.4f} Mbit/s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" if isinstance(value, float) else f"{name} {value} {unit}")
    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: either measure how long a fresh interpreter
takes to become ready for a workload (`setup`), or run the workload's
sweep repeatedly for a time budget and report what it measured (`run`).
Prints one JSON object on its last line of standard output.

Run through perfbench/run.py, which sets the import path and the thread
caps; by hand:

    PYTHONPATH=src python3 perfbench/worker.py run --workload kernel-grid \
        --seed 1 --seconds 5 --trace 0 --out perfbench/out/kernel-grid
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def become_ready(config) -> dict[str, float]:
    """Build the lazy tables a workload uses; seconds per step."""
    from dwtcdma import fec, spreading, wavelet

    steps = {}
    started = time.perf_counter()
    if any(config.coded_flags):
        fec.codec_tables()
    steps["codec_tables_s"] = time.perf_counter() - started
    started = time.perf_counter()
    for family in config.wavelets:
        wavelet.filter_bank(family)
    steps["filter_bank_s"] = time.perf_counter() - started
    started = time.perf_counter()
    for family in config.families:
        spreading.build_matrix(family, config.spreading_factor)
    steps["spreading_s"] = time.perf_counter() - started
    return steps


def import_program() -> float:
    """Import the package from this checkout's src; seconds taken."""
    started = time.perf_counter()
    import dwtcdma
    from dwtcdma import sim  # noqa: F401  (the sweep engine pulls in scipy.stats)

    if Path(dwtcdma.__file__).resolve().parent != SRC / "dwtcdma":
        raise ImportError(f"dwtcdma imported from {dwtcdma.__file__}, not from {SRC}")
    return time.perf_counter() - started


@dataclass
class Rep:
    """One timed repetition of a workload's sweep."""

    traced: bool
    sweep_s: float = 0.0
    write_s: float = 0.0
    failed: int = 0
    broken: bool = False
    csv: bytes | None = None
    records: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.sweep_s + self.write_s


def _run_points_one_by_one(config, sim) -> list:
    """Records of the points that do not raise, run outside the timing."""
    records = []
    for point in config.points():
        try:
            records.append(sim.run_point(point, config.min_bit_errors, config.max_info_bits,
                                         sim.point_seed(config.master_seed, point)))
        except Exception:
            print(f"point {point} raised:", file=sys.stderr)
            traceback.print_exc()
    return records


def run_rep(config, preset, out_dir: Path, traced: bool) -> Rep:
    """Sweep, write the outputs and check them, the way `dwtcdma sweep` does
    with one job.  Only the sweep and the writing are timed."""
    from dwtcdma import sim
    from workloads import check_records

    rep = Rep(traced)
    try:
        started = time.perf_counter()
        records = sim.run_sweep(config, jobs=1)
        swept = time.perf_counter()
        sim.write_outputs(records, out_dir, config, preset=preset)
        rep.sweep_s, rep.write_s = swept - started, time.perf_counter() - swept
        rep.csv = (out_dir / "results.csv").read_bytes()
    except Exception:
        traceback.print_exc()
        rep.broken = True
        records = _run_points_one_by_one(config, sim)
    failures = check_records(config, records)
    for key, problems in list(failures.items())[:5]:
        print(f"failed point {key}: {'; '.join(problems)}", file=sys.stderr)
    # A sweep that raised with every point passing on its own still failed.
    rep.failed = len(failures) if failures or not rep.broken else len(config.points())
    rep.records = records
    return rep


def environment(seed: int, workload: str) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "dwtcdma").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAP_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def deterministic(csvs: list[bytes], out: Path, config, env: dict) -> bool:
    """Whether every results.csv of this sweep is the same, within this run
    and against earlier runs of the same sweep and source in this checkout."""
    digests = {hashlib.sha256(csv).hexdigest() for csv in csvs}
    sweep = hashlib.sha256((repr(config) + env["source_sha256"]).encode()).hexdigest()
    record = out / "digests" / f"{sweep[:24]}.sha256"
    if record.exists():
        digests.add(record.read_text().strip())
    elif len(digests) == 1:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(next(iter(digests)) + "\n")
    return len(digests) <= 1


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path,
            tiny: bool = False) -> dict:
    """Repeat the workload's sweep until `seconds` would be exceeded.

    With trace, untraced and traced repetitions alternate (at least one
    of each); the untraced ones give the end-to-end times.
    """
    import spans
    from workloads import workload_config

    config, preset = workload_config(workload, seed, tiny)
    out.mkdir(parents=True, exist_ok=True)
    sweep_dir = out / "sweep"
    tracer = spans.Tracer()
    reps: list[Rep] = []
    started = time.perf_counter()
    while True:
        rep_started = time.perf_counter()
        traced = trace and len(reps) % 2 == 1
        if traced:
            with tracer.installed():
                rep = run_rep(config, preset, sweep_dir, traced=True)
            rep.spans = tracer.take()
        else:
            rep = run_rep(config, preset, sweep_dir, traced=False)
        reps.append(rep)
        now = time.perf_counter()
        # Stop when one more repetition as long as the last would overrun.
        if (not trace or len(reps) >= 2) and (now - started) + (now - rep_started) > seconds:
            break

    env = environment(seed, workload)
    attempted = len(config.points()) * len(reps)
    failed = sum(rep.failed for rep in reps)
    if not deterministic([rep.csv for rep in reps if rep.csv is not None], out, config, env):
        print("results.csv differs between runs of one seed", file=sys.stderr)
        failed = attempted

    plain = [rep for rep in reps if not rep.traced]
    traced_reps = [rep for rep in reps if rep.traced]
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "reps": len(plain),
        "wall_s": statistics.median(rep.wall_s for rep in plain),
        "wall_s_all": [rep.wall_s for rep in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env,
    }
    if trace:
        spans.write_spans(out / "spans.jsonl", [(i, rep.spans) for i, rep in enumerate(reps)
                                                 if rep.traced])
        traced_spans = [rep.spans for rep in traced_reps]
        layers = spans.layer_metrics(
            config, reps[0].records, traced_spans,
            traced_wall_s=statistics.median(rep.wall_s for rep in traced_reps),
            untraced_wall_s=result["wall_s"],
            sweep_s=statistics.median(rep.sweep_s for rep in plain),
            write_s=statistics.median(rep.write_s for rep in plain),
        )
        result["layers"] = layers
        result["traced_reps"] = len(traced_reps)
        result["link_mbit_per_s_by_cell"] = spans.cell_throughput(traced_spans, config)
    (out / "env.json").write_text(json.dumps(result["env"], indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--tiny", action="store_true", help="few one-chunk points (smoke test)")
    args = parser.parse_args(argv)

    import_s = import_program()
    from workloads import workload_config

    config, _ = workload_config(args.workload, args.seed, args.tiny)
    steps = become_ready(config)
    if args.mode == "setup":
        result = {"setup_s": import_s + sum(steps.values()), "import_s": import_s, **steps}
    else:
        if args.out is None:
            parser.error("run needs --out")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.out,
                         args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The pipeline benchmark's one command.

    python3 benchmarks/pipeline/run.py [--seed S]

runs the four workloads, each in its own single-threaded subprocess — once
untraced for the end-to-end metrics, once traced for the per-layer metrics —
prints every metric by name with its unit, checks the outputs, writes a
stamped record to ``results/<stamp>.json`` and appends its summary to
``results/trajectory.jsonl``.

    python3 benchmarks/pipeline/run.py --workload W --seed S --seconds T --trace 0|1

runs one workload once and prints, as the last line of standard output, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``BENCHMARK.json`` contract); it writes no file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

from metrics import FAILED_SHARE, SIZES, WORKLOAD_WHY, failed_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: How long one run measures; the same number is in BENCHMARK.json.
RUN_SECONDS = 12


def worker_env() -> Dict[str, str]:
    """Noise control, set before numpy loads in the child: one thread per
    math library, a fixed hash seed, and the checkout's own ``repro``."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH", "")] if p]
    )
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               size: str, trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """One workload in a fresh subprocess; returns its record."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    done = subprocess.run(
        command, env=worker_env(), stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_record(record: Dict[str, Any]) -> None:
    kind = "per layer (traced)" if record["trace"] else "end to end"
    print(
        f"== {record['workload']} — {kind}; {record['elements']} elements, "
        f"{record['parts']} parts, seed {record['seed']}, size {record['size']}"
    )
    wall = record["wall"]
    for name, metric in record["metrics"].items():
        note = ""
        if name == "wall_s":
            note = (
                f"   median of {len(wall['samples'])} passes, "
                f"min {wall['min']:.4f}, max {wall['max']:.4f}"
                + ("  NOISY: pass spread > 10 %" if wall["noisy"] else "")
            )
        print(f"  {name:38s} {metric['value']:14.4f} {metric['unit']}{note}")
    print(
        f"  {FAILED_SHARE.name:38s} {failed_share(record):14.4f} "
        f"{FAILED_SHARE.unit}   {record['failed']} of {record['attempted']} "
        f"operations"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["trace"]:
        print("  layer table (last traced pass), by self time:")
        rows = sorted(
            record["layers"].items(), key=lambda item: -item[1]["self_s"]
        )
        for name, row in rows[:12]:
            print(
                f"    {name:30s} calls {row['calls']:5d}  total "
                f"{row['total_s']:8.4f} s  self {row['self_s']:8.4f} s"
            )
        print("  traffic per stage (comm matrix of the last traced pass):")
        for name, comm in record["stage_comm"].items():
            if comm["supersteps"]:
                print(
                    f"    {name:30s} supersteps {comm['supersteps']:5d}  "
                    f"messages {comm['messages']:6d}  "
                    f"wire bytes {comm['wire_bytes']:9d}"
                )


def git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=False,
        )
    except OSError:
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def stamp(seed: int, size: str, seconds: float) -> Dict[str, Any]:
    commit = git("rev-parse", "HEAD")
    return {
        "when": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        "commit": commit or "unknown",
        "dirty": bool(git("status", "--porcelain")) if commit else None,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "nproc": os.cpu_count(),
    }


def summary(result: Dict[str, Any]) -> Dict[str, Any]:
    """The trajectory line: the stamp and every metric value, no samples."""
    return {
        "stamp": result["stamp"],
        "workloads": {
            name: {
                "elements": runs["untraced"]["elements"],
                "parts": runs["untraced"]["parts"],
                "failed_share": failed_share(runs["untraced"]),
                **{
                    key: metric["value"]
                    for run in runs.values()
                    for key, metric in run["metrics"].items()
                },
            }
            for name, runs in result["workloads"].items()
        },
    }


def run_all(seed: int, seconds: float, size: str, out: Path) -> int:
    """Every workload, untraced then traced; record, trajectory, traces."""
    out.mkdir(parents=True, exist_ok=True)
    result: Dict[str, Any] = {
        "stamp": stamp(seed, size, seconds), "workloads": {},
    }
    name = f"{result['stamp']['when']}-{result['stamp']['commit'][:7]}"
    failed = 0
    for workload in WORKLOAD_WHY:
        untraced = run_worker(workload, seed, seconds, 0, size)
        print_record(untraced)
        traced = run_worker(
            workload, seed, seconds, 1, size,
            out / f"{name}.{workload}.trace.json",
        )
        print_record(traced)
        result["workloads"][workload] = {"untraced": untraced, "traced": traced}
        result["stamp"].update(untraced["versions"])
        failed += untraced["failed"] + traced["failed"]
    with open(out / f"{name}.json", "x") as record:  # never overwritten
        record.write(json.dumps(result, indent=1, allow_nan=False) + "\n")
    with open(out / "trajectory.jsonl", "a") as trajectory:
        trajectory.write(json.dumps(summary(result), allow_nan=False) + "\n")
    print(f"wrote {out / (name + '.json')}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(SIZES), default="default")
    parser.add_argument(
        "--out", type=Path, default=HERE / "results",
        help="directory for the stamped record (all-workloads mode)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # Noise control, inherited by the workers: a single-threaded run that
        # hops cores re-warms caches, and the highest-numbered core sees the
        # least housekeeping.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.size, args.out)
    record = run_worker(
        args.workload, args.seed, args.seconds, args.trace, args.size
    )
    print_record(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())

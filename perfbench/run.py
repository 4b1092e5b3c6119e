"""The repository's serving benchmark: one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload hits_fleet --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn.  ``--trace 0`` times
the workload and prints its end-to-end metrics;
``--trace 1`` replays it at each layer's entry point and under span
wrappers and prints the per-layer metrics.  Every answer is checked
against an in-process reference and the ground truth.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every answer was correct.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread per process: the fleet runs several processes on few
# cores.  Set before numpy is first imported, inherited by children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="serving benchmark")
    parser.add_argument(
        "--workload", required=True,
        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, names) -> int:
    """Run every workload in its own process; the last line merges their
    results, with each metric prefixed by its workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= bool(result["correct"]) and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")

    import common
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(ROOT, tmp, args.seed, args.seconds,
                            bool(args.trace))
    try:
        res = workloads.run(ctx, args.workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    units = workloads.LAYER_UNITS if args.trace else workloads.E2E_UNITS
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    for name, unit in units.items():
        print(f"  {name:<36} {res.metrics[name]:>14.6g} {unit:<8} "
              f"n={res.samples[name]}")
    pool = res.noise.get("pool")
    if pool and pool["false_certificates"]:
        print(f"  known defect: {pool['false_certificates']} of the first "
              f"{pool['candidates']} candidate instances, pinned in "
              f"KNOWN_FALSE_CERTIFICATES, get a certified answer off the "
              f"ground truth; left out of the stream")
    for problem in res.problems:
        print(f"  FAILED: {problem}")
    noise = {"env": common.environment(ROOT), **res.noise}
    print("noise " + json.dumps(noise, sort_keys=True))
    print(json.dumps({
        "correct": res.correct,
        "attempted": int(res.attempted),
        "failed": int(res.failed),
        "metrics": {
            name: {"value": res.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Append perfbench end-to-end records to BENCH_perfbench.json.

    python3 bench/record_perfbench.py --workloads snap_w lj_bulk \\
        --seeds 1 2 3 4 5 [--repo PATH] [--label TEXT]

For every seed and, within it, every workload, runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from the checkout at --repo (default: the checkout holding this script, so a
clone of another commit can be recorded into this checkout's file), with T
the run_seconds of that checkout's BENCHMARK.json. It reads each run's final
JSON line and its `# host_scale` line, then appends one record per workload
to BENCH_perfbench.json in the checkout holding this script, a JSON list. A
record holds the recorded checkout's git sha and whether its tree was dirty,
the seeds, the run count, the median host_scale, and the median, q1 and q3
of each end-to-end metric of BENCHMARK.json. Quartiles are
statistics.quantiles(n=4, method="inclusive").

Exit status: 0 when every run passed its correctness checks; 1 when any run
reported "correct": false (its record is still written, with the failing
seeds listed); 2 when a run printed no result, in which case nothing is
written.
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_perfbench.json"


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(repo, workload, seed, seconds):
    """One perfbench run: (correct, host_scale, {metric: value})."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=repo, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    scale = [float(l.split()[2]) for l in lines if l.startswith("# host_scale ")]
    result = [l for l in lines if l.startswith("{")]
    if not scale or not result:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"record_perfbench: {workload} seed {seed} printed "
                         f"no result (exit {proc.returncode})")
    out = json.loads(result[-1])
    values = {k: v["value"] for k, v in out["metrics"].items()}
    return out["correct"], scale[-1], values


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--repo", type=Path, default=ROOT)
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    repo = args.repo.resolve()
    bench = json.loads((repo / "BENCHMARK.json").read_text())
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    sha = git(repo, "rev-parse", "HEAD")
    dirty = bool(git(repo, "status", "--porcelain", "--untracked-files=no"))

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            correct, scale, values = run_once(repo, w, seed, seconds)
            runs[w].append((seed, correct, scale, values))
            print(f"{w} seed {seed}: correct={correct} host_scale={scale:.4g} "
                  f"atom_steps_per_s={values['atom_steps_per_s']:.6g}",
                  file=sys.stderr, flush=True)

    when = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    records = []
    for w, rs in runs.items():
        failed = [seed for seed, correct, _, _ in rs if not correct]
        records.append({
            "workload": w,
            "git_sha": sha,
            "dirty": dirty,
            "label": args.label,
            "recorded_utc": when,
            "seconds": seconds,
            "seeds": [seed for seed, *_ in rs],
            "runs": len(rs),
            "failed_seeds": failed,
            "host_scale_median": statistics.median(s for _, _, s, _ in rs),
            "metrics": {
                m["name"]: {"unit": m["unit"], "better": m["better"],
                            **summary([v[m["name"]] for *_, v in rs])}
                for m in spec
            },
        })

    existing = json.loads(OUT.read_text()) if OUT.exists() else []
    OUT.write_text(json.dumps(existing + records, indent=1) + "\n")
    for r in records:
        m = r["metrics"]["atom_steps_per_s"]
        print(f"{r['workload']}: atom_steps_per_s median {m['median']:.6g} "
              f"[{m['q1']:.6g}, {m['q3']:.6g}] over {r['runs']} runs")
    return 1 if any(r["failed_seeds"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Append perfbench end-to-end records to BENCH_perfbench.json.

    python3 bench/record_perfbench.py --workloads snap_w lj_bulk \\
        --seeds 1 2 3 4 5 [--repo PATH [PATH ...]] [--label TEXT]

For every seed and, within it, every workload and every checkout, runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from that checkout, with T the run_seconds of the checkout's BENCHMARK.json.
--repo names one or more checkouts (default: the checkout holding this
script, so a clone of another commit can be recorded into this checkout's
file). With more than one, the checkouts take turns going first from seed
to seed (A B, then B A, ...), so a slow stretch of a shared host lands on
every side instead of skewing one side's quartiles. It reads each run's
final JSON line and its `# host_scale` line, then appends one record per
checkout and workload to BENCH_perfbench.json in the checkout holding this
script, a JSON list. A record holds the recorded checkout's git sha and
whether its tree was dirty, the seeds, the run count, the median
host_scale, and the median, q1 and q3 of each end-to-end metric of that
checkout's BENCHMARK.json. Quartiles are statistics.quantiles(n=4,
method="inclusive").

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
    ap.add_argument("--repo", type=Path, nargs="+", default=[ROOT])
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")

    repos = []
    for path in args.repo:
        repo = path.resolve()
        bench = json.loads((repo / "BENCHMARK.json").read_text())
        repos.append({
            "path": repo,
            "spec": bench["end_to_end"],
            "seconds": bench["run_seconds"],
            "sha": git(repo, "rev-parse", "HEAD"),
            "dirty": bool(git(repo, "status", "--porcelain",
                              "--untracked-files=no")),
            "runs": {w: [] for w in args.workloads},
        })

    for k, seed in enumerate(args.seeds):
        order = repos if k % 2 == 0 else repos[::-1]
        for w in args.workloads:
            for r in order:
                correct, scale, values = run_once(r["path"], w, seed,
                                                  r["seconds"])
                r["runs"][w].append((seed, correct, scale, values))
                print(f"{r['path']} {w} seed {seed}: correct={correct} "
                      f"host_scale={scale:.4g} "
                      f"atom_steps_per_s={values['atom_steps_per_s']:.6g}",
                      file=sys.stderr, flush=True)

    when = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds")
    records = []
    for r in repos:
        for w, rs in r["runs"].items():
            failed = [seed for seed, correct, _, _ in rs if not correct]
            records.append({
                "workload": w,
                "git_sha": r["sha"],
                "dirty": r["dirty"],
                "label": args.label,
                "recorded_utc": when,
                "seconds": r["seconds"],
                "seeds": [seed for seed, *_ in rs],
                "runs": len(rs),
                "failed_seeds": failed,
                "host_scale_median": statistics.median(s for _, _, s, _ in rs),
                "metrics": {
                    m["name"]: {"unit": m["unit"], "better": m["better"],
                                **summary([v[m["name"]] for *_, v in rs])}
                    for m in r["spec"]
                },
            })

    existing = json.loads(OUT.read_text()) if OUT.exists() else []
    OUT.write_text(json.dumps(existing + records, indent=1) + "\n")
    for r in records:
        m = r["metrics"]["atom_steps_per_s"]
        print(f"{r['git_sha'][:7]} {r['workload']}: atom_steps_per_s median "
              f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}] over "
              f"{r['runs']} runs")
    return 1 if any(r["failed_seeds"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end MD benchmark: five workloads through the engine's public API.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The first run builds the engine and the
harness into .bench_build/ (about a minute). `--trace 0` measures the
end-to-end metrics with tracing off; `--trace 1` alternates untraced and
traced stretches of the same run and reports the per-layer metrics. Metric
names and units come from BENCHMARK.json. Every run checks the physics; a
failed check sets "correct": false and the exit code to 1.

Output: an environment fingerprint line, one line per metric with its base,
a jobs_per_s line (server_cohort only), an error_rate line, and, last, one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "cmake" / "perfbench_harness"
DEADLINE_S = 170  # the run after the build stays under 180 s

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# Relative TotEng agreement of a multi-rank run with the 1-rank run of the
# same script (the bound examples/multirank_scaling uses).
RANK_MATCH_TOL = 1e-6
# The tail percentile is the highest one with at least this many samples
# beyond it, capped at TAIL_CAP: on the LJ workloads one step in 20 rebuilds
# the neighbor list, so p97.5 sits inside the rebuild steps rather than on
# the host's rarest stalls.
TAIL_BEYOND = 10
TAIL_CAP = 97.5
# Every end-to-end time is scaled to a reference host speed: multiplied by
# CAL_REF_S / c, where c is the run's median time of the harness's
# calibration kernel (README.md, "Host-speed scaling"). The shared host's
# speed drifts by up to 1.5x over minutes, longer than one run, so unscaled
# times of the same code spread wider between runs than any useful bound.
CAL_REF_S = 1e-3


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Build and environment
# --------------------------------------------------------------------------

def build():
    """Configure once, then build the harness incrementally."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"engine sources not found under {ROOT}; run from a "
                         "checkout of the repository")
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "cmake" / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD / "cmake"),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD / "cmake"), "--target",
                  "perfbench_harness", "-j", jobs])
    with open(logfile, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = logfile.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def source_id():
    """Git commit when available, else a hash of the sources built."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", HERE.name):
        files += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env(threads):
    """Pinned environment: no inherited MLK_* switches, explicit pool size."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MLK_")}
    env["MLK_NUM_THREADS"] = str(threads)
    return env


def fingerprint(nproc):
    probe = subprocess.run([str(HARNESS), "--probe", str(nproc)],
                           capture_output=True, text=True, timeout=60,
                           env=child_env(1))
    if probe.returncode != 0:
        raise BenchError("spin probe failed: " + probe.stderr.strip())
    p = json.loads(probe.stdout.strip().splitlines()[-1])
    return {"cpu": cpu_model(), "nproc": nproc,
            "effective_parallelism": round(p["effective"], 3),
            "source": source_id()}


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    s = sorted(values)
    r = p / 100.0 * (len(s) - 1)
    lo = math.floor(r)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (r - lo)


def tail_percentile(n):
    """Highest percentile with TAIL_BEYOND samples beyond it (capped)."""
    if n <= TAIL_BEYOND + 1:
        return 100.0
    return min(TAIL_CAP, 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1))


def mean(values):
    return sum(values) / len(values) if values else 0.0


def span_self_times(spans):
    """Self time of every span, in seconds: its duration minus the part of
    it that its child spans cover (children may overlap, as the job steps
    of one cohort do)."""
    children = {}
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = []
    for i, (_, t0, t1, _, _) in enumerate(spans):
        covered, end = 0.0, t0
        for a, b in sorted((max(t0, spans[c][1]), min(t1, spans[c][2]))
                           for c in children.get(i, [])):
            if b > end:
                covered += b - max(a, end)
                end = b
        out.append(t1 - t0 - covered)
    return out


def self_times(spans):
    """Per span name: (count, mean duration, mean self time) in seconds."""
    acc = {}
    for (name, t0, t1, _, _), own in zip(spans, span_self_times(spans)):
        n, d, s = acc.get(name, (0, 0.0, 0.0))
        acc[name] = (n + 1, d + (t1 - t0), s + own)
    return {k: (n, d / n, s / n) for k, (n, d, s) in acc.items()}


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------

def chunks(values, n):
    return [values[i:i + n] for i in range(0, len(values) - n + 1, n)]


def fastest(replicas, stretches, cost=sum):
    """For every k, stretch k of the replica that ran it in the least time.

    Replicas are copies of the same workload run at once, one per CPU, and
    kept in step stretch by stretch. Another tenant of the shared host that
    lands on one CPU slows that copy by up to 1.7x while the others run on,
    so the fastest copy of each stretch is the one the host left alone.
    With one replica this is that replica's stretches."""
    per = [stretches(r) for r in replicas]
    n = min(len(p) for p in per)
    return [min((p[k] for p in per), key=cost) for k in range(n)]


def fastest_each(replicas, key):
    """The least of the replicas' k-th values of `key`, for every k."""
    return fastest(replicas, lambda r: r[key], cost=lambda x: x)


def host_scale(raw):
    """CAL_REF_S / the run's median calibration time."""
    return CAL_REF_S / statistics.median(fastest_each(raw["replicas"],
                                                      "cal_s"))


def end_to_end(kind, raw, wl):
    """End-to-end metrics: name -> (value, base), and the tail percentile.
    Every time is first multiplied by host_scale(raw).

    Throughput divides the work of one segment (MD: `segment` steps, which
    hold the same number of neighbor rebuilds) or one cohort (server) by the
    median wall time over segments or cohorts, so a stall that hits one
    stretch of the run does not move the figure. With replicas, each
    segment, cohort and set-up counts in the copy that ran it fastest, and
    the step times are those of that copy. `jobs_per_s` exists on the
    server only; it is printed but kept out of the result line (README.md).
    """
    reps = raw["replicas"]
    copies = (f", fastest of {len(reps)} copies each" if len(reps) > 1
              else "")
    scale = host_scale(raw)
    setups = fastest_each(reps, "setup_s")
    m = {
        "setup_s": (scale * statistics.median(setups),
                    f"median of {len(setups)} set-ups{copies}"),
        "peak_rss_mb": (raw["peak_rss_mb"], "VmHWM of the workload process"
                        + (f", which holds {len(reps)} copies"
                           if len(reps) > 1 else "")
                        + ", extra set-up batches left out"),
    }
    if kind == "md":
        seg = wl["segment"]
        chosen = fastest(reps, lambda r: chunks(r["step_s"], seg))
        if not chosen:
            raise BenchError("no timed segments recorded")
        steps = [scale * t for c in chosen for t in c]
        p_tail = tail_percentile(len(steps))
        m["step_ms_p50"] = (1e3 * statistics.median(steps),
                            f"median of {len(steps)} steps")
        m["step_ms_tail"] = (1e3 * percentile(steps, p_tail),
                             f"p{p_tail:.2f} of {len(steps)} steps")
        segs = [sum(c) for c in chunks(steps, seg)]
        per_step = statistics.median(segs) / seg
        m["atom_steps_per_s"] = (raw["natoms"] / per_step,
                                 f"{raw['natoms']} atoms x {seg} steps / "
                                 f"median of {len(segs)} segments{copies}")
    else:
        # Job-step intervals of one cohort: every job sees every round.
        def cohorts(r):
            per = len(r["step_s"]) // max(1, len(r["cohort_s"]))
            return list(zip(r["cohort_s"], chunks(r["step_s"], per)))
        chosen = fastest(reps, cohorts, cost=lambda c: c[0])
        if not chosen:
            raise BenchError("no timed cohorts recorded")
        per_cohort = [[scale * t for t in c] for _, c in chosen]
        p_tail = tail_percentile(len(per_cohort[0]))
        n = len(per_cohort)
        m["step_ms_p50"] = (
            1e3 * statistics.median(statistics.median(c) for c in per_cohort),
            f"median over {n} cohorts of the median job-step interval")
        m["step_ms_tail"] = (
            1e3 * statistics.median(percentile(c, p_tail) for c in per_cohort),
            f"median over {n} cohorts of p{p_tail:.2f} of "
            f"{len(per_cohort[0])} job-step intervals")
        cohort = scale * statistics.median(t for t, _ in chosen)
        m["atom_steps_per_s"] = (raw["atom_steps_per_cohort"] / cohort,
                                 f"median of {n} cohorts{copies}")
        m["jobs_per_s"] = (raw["jobs"] / cohort,
                           f"{raw['jobs']} jobs / median cohort wall time")
    return m, p_tail


def per_layer(kind, raw, spans):
    """Per-layer metrics of a traced run: name -> (value, base)."""
    c = raw["counters"]
    st = self_times(spans)

    def span_mean(name, field=1):
        return st[name][field] if name in st else 0.0

    def probe_ms(name):
        durs = [t1 - t0 for (n, t0, t1, _, _) in spans if n == name]
        return 1e3 * statistics.median(durs) if durs else 0.0

    m = {}
    if kind == "md":
        steps = len(raw["traced_step_s"])
        traced_s = raw["traced_loop_s"]
        untraced = (raw["loop_s"]
                    / max(1, len(raw["replicas"][0]["step_s"])))
        overhead = (traced_s / steps) / untraced - 1.0
        base = f"{steps} traced steps on rank 0"
        rebuilds = set(raw["rebuild_steps"])
        rb = [t1 - t0 for (n, t0, t1, _, g) in spans
              if n == "step_begin" and g in rebuilds]
        m["verlet.step_begin_ms"] = (1e3 * span_mean("step_begin"),
                                     "per step, " + base)
        m["verlet.step_force_ms"] = (1e3 * span_mean("step_force"),
                                     "per step, " + base)
        m["verlet.step_end_ms"] = (1e3 * span_mean("step_end"),
                                   "per step, " + base)
        m["verlet.rebuild_step_ms"] = (1e3 * mean(rb),
                                       f"step_begin of {len(rb)} rebuild steps")
        m["verlet.loop_self_ms"] = (1e3 * span_mean("step", 2),
                                    "step span minus its phase spans, per "
                                    "step, " + base)
        wall_per_step = traced_s / steps
    else:
        steps = c["traced_job_steps"]
        cohort_s = sum(raw["traced_cohort_s"])
        overhead = (mean(raw["traced_cohort_s"])
                    / mean(raw["replicas"][0]["cohort_s"])
                    - 1.0)
        base = f"{int(steps)} traced job steps"
        for k in ("step_begin", "step_force", "step_end", "rebuild_step",
                  "loop_self"):
            m[f"verlet.{k}_ms"] = (0.0, "not applicable: the scheduler "
                                   "drives the phases")
        wall_per_step = cohort_s / steps

    pair, neigh, comm = (1e3 * c[k] / steps for k in
                         ("timer_pair_s", "timer_neigh_s", "timer_comm_s"))
    m["engine.pair_ms_per_step"] = (pair, "TimerSet Pair per step, " + base)
    m["engine.neigh_ms_per_step"] = (neigh, "TimerSet Neigh per step, " + base)
    m["engine.comm_ms_per_step"] = (comm, "TimerSet Comm per step, " + base)
    m["engine.other_ms_per_step"] = (1e3 * wall_per_step - pair - neigh - comm,
                                     "wall minus Pair/Neigh/Comm per step, " + base)

    samples = int(c["missed_samples"])
    m["neighbor.builds"] = (1e3 * c["builds"] / steps,
                            "per 1000 steps, " + base)
    m["neighbor.avg_neighbors"] = (c["avg_neighbors"], "rank 0 list, final "
                                   "state")
    m["neighbor.build_ms"] = (probe_ms("probe.neighbor_build"),
                              "median Neighbor::build probe, final state")
    m["neighbor.useful_pair_frac"] = (
        c["useful_pairs"] / max(1.0, c["stored_pairs"]),
        f"{int(c['useful_pairs'])} in cutoff of {int(c['stored_pairs'])} "
        "stored pairs")
    m["neighbor.missed_pairs"] = (c["missed_pairs"],
                                  f"summed over {samples} pre-rebuild "
                                  "samples vs brute_force_list")

    m["comm.ghosts_per_owned"] = (c["nghost"] / max(1.0, c["nlocal"]),
                                  f"{int(c['nghost'])} ghosts / "
                                  f"{int(c['nlocal'])} owned, all ranks")
    m["comm.forward_bytes_per_step"] = (c["forward_bytes"],
                                        "forward_doubles_per_step x 8, "
                                        "all ranks")
    m["comm.forward_ms"] = (probe_ms("probe.comm_forward"),
                            "median forward_positions probe")
    m["comm.reverse_ms"] = (probe_ms("probe.comm_reverse"),
                            "median reverse_forces probe")
    m["comm.rank_spread_ms"] = (c.get("comm_ms_per_step_max", 0.0)
                                - c.get("comm_ms_per_step_min", 0.0),
                                "max - min over ranks of Comm ms/step")

    m["kokkos.launches_per_step"] = (c["launches"] / steps,
                                     "all ranks, per step, " + base)
    m["kokkos.device_launches_per_step"] = (c["device_launches"] / steps,
                                            "all ranks, per step, " + base)
    m["kokkos.deep_copies_per_step"] = (c["deep_copies"] / steps,
                                        "all ranks, per step, " + base)
    m["kokkos.deep_copy_bytes_per_step"] = (c["deep_copy_bytes"] / steps,
                                            "all ranks, per step, " + base)
    traced_wall = raw["traced_loop_s"] if kind == "md" else cohort_s
    m["kokkos.kernel_busy_frac"] = (c["kernel_s"] / traced_wall,
                                    "KernelTimer kernel time / traced loop "
                                    "time (rank 0)")

    pair_ms = probe_ms("probe.pair_compute")
    m["pair.compute_ms"] = (pair_ms, "median Pair::compute probe, final state")
    m["pair.pairs_per_s"] = (c["stored_pairs_rank0"] / (pair_ms * 1e-3)
                             if pair_ms > 0 else 0.0,
                             f"{int(c['stored_pairs_rank0'])} stored pairs "
                             "(rank 0) / pair.compute_ms")
    for k in ("ui", "yi", "deidrj"):
        m[f"snap.{k}_ms"] = (1e3 * c[f"snap_{k}_s"] / steps,
                             "KernelTimer per step, " + base)

    reax = "reax_nlocal" in c
    m["reaxff.compute_ms"] = (pair_ms if reax else 0.0,
                              "median PairReaxFFLite::compute probe")
    m["reaxff.qeq_iters"] = (c["qeq_iters"] / c["qeq_steps"]
                             if c.get("qeq_steps") else 0.0,
                             "CG iterations per traced step")
    m["reaxff.bonds_per_atom"] = (c["reax_bonds"] / c["reax_nlocal"]
                                  if reax else 0.0, "final state")
    m["reaxff.quad_survival_frac"] = (c.get("reax_quad_survival", 0.0),
                                      "kept quads / candidates, final state")

    server = kind == "server"
    rounds = c.get("rounds", 0.0)
    m["server.rounds"] = (rounds, "per cohort")
    m["server.fused_launches_per_round"] = (
        c["fused_launches"] / rounds if server else 0.0, "per cohort")
    m["server.fused_job_frac"] = (
        c["fused_jobs"] / c["cohort_job_steps"] if server else 0.0,
        "fused job steps / job steps, per cohort")
    m["server.solo_forces"] = (c.get("solo_forces", 0.0), "per cohort")

    m["tools.trace_overhead_frac"] = (overhead, "traced / untraced loop time "
                                      "per step - 1, same run")
    return m


# --------------------------------------------------------------------------
# Correctness
# --------------------------------------------------------------------------

def checks(kind, raw, wl):
    """(attempted, failed, failure messages). The server counts jobs; an
    exception that ended the run counts as one failed attempt."""
    error = raw.get("error")
    if kind == "server":
        failed = int(raw["failed"])
        fails = ([f"{failed} of {int(raw['attempted'])} attempts failed: "
                  + "; ".join(raw["failures"])] if failed else [])
        if error:
            fails.append("exception: " + error)
        return int(raw["attempted"]), failed, fails
    if error:
        return 1, 1, ["exception: " + error]
    fails = []
    attempted = 0
    for i, rep in enumerate(raw["replicas"]):
        attempted += 1
        who = f" (copy {i})" if len(raw["replicas"]) > 1 else ""
        e0, e1 = rep["energy_first"], rep["energy_last"]
        if e0 is None or e1 is None:
            fails.append("non-finite total energy" + who)
            continue
        drift = abs(e1 - e0) / max(abs(e0), 1e-300)
        if not drift <= wl["drift_tol"]:
            fails.append(f"NVE energy drift {drift:.3g} exceeds "
                         f"{wl['drift_tol']:.3g}{who}")
    if wl["ref_step"] > 0:
        attempted += 1
        a, b = raw["energy_ref"], raw["energy_ref_serial"]
        if a is None or b is None or not abs(a - b) <= RANK_MATCH_TOL * abs(b):
            fails.append(f"TotEng at step {wl['ref_step']} on "
                         f"{wl['ranks']} ranks ({a}) differs from 1 rank ({b})")
    if raw["qeq_maxiter"] > 0:
        attempted += 1
        if not max(r["qeq_max_iters"] for r in raw["replicas"]) \
                < raw["qeq_maxiter"]:
            fails.append(f"QEq hit its {raw['qeq_maxiter']}-iteration limit")
    return attempted, len(fails), fails


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def run(args, bench):
    build()
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    wl = workloads.make(args.workload, args.seed, tiny=args.tiny)
    if args.break_check == "check" and wl["kind"] == "md":
        # Self-test hook: a correctness check that must fail.
        wl["drift_tol"] = 0.0
    elif args.break_check:
        # Self-test hook: the engine throws inside the timed loop (MD) or
        # inside the first job (server, where a failed job is the check).
        if wl["kind"] == "md":
            wl["script"].append(f"fault_inject {wl['segment'] + 2}")
        else:
            wl["jobs"][0]["setup"].append("fault_inject 5")
    if args.trace:
        wl["replicas"] = 1  # per-layer counters are process-wide
    busy = wl["ranks"] * wl["replicas"] * wl["threads"]
    if busy > nproc:
        raise BenchError(f"{args.workload} needs {busy} busy threads, "
                         f"only {nproc} CPUs available")

    env_info = fingerprint(nproc)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    (BUILD / "runs").mkdir(exist_ok=True)
    spec_path = BUILD / "runs" / f"{tag}.spec.json"
    spans_path = BUILD / "runs" / f"{tag}.spans.json"
    spec = dict(wl, seconds=args.seconds, trace=bool(args.trace),
                spans_path=str(spans_path))
    spec_path.write_text(json.dumps(spec))
    timeout = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run([str(HARNESS), str(spec_path)],
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout),
                              env=child_env(wl["threads"]), cwd=BUILD)
    except subprocess.TimeoutExpired:
        raise BenchError(f"harness exceeded {timeout:.0f} s")
    finally:
        spec_path.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise BenchError("harness failed: " + proc.stderr.strip()[-2000:])
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    kind = raw["kind"]
    env_info.update(pool_threads=raw["pool_threads"], ranks=wl["ranks"],
                    replicas=wl["replicas"], busy_threads=busy, simd=raw["simd"],
                    build_type=raw["build_type"])

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    if raw.get("error"):
        values = {m["name"]: (0.0, "not measured: the run raised an exception")
                  for m in wanted}
    elif args.trace:
        spans = json.loads(spans_path.read_text())["spans"]
        values = per_layer(kind, raw, spans)
    else:
        values, p_tail = end_to_end(kind, raw, wl)
    attempted, failed, fails = checks(kind, raw, wl)

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env_info, sort_keys=True))
    metrics = {}
    for spec_m in wanted:
        name, unit = spec_m["name"], spec_m["unit"]
        value, base = values[name]
        if not math.isfinite(value):
            attempted, failed = attempted + 1, failed + 1
            fails.append(f"metric {name} is not finite")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:34s} {value:14.6g} {unit:8s} ({base})")
    if args.trace:
        print(f"# spans: {spans_path}")
    if raw.get("error"):
        pass
    elif args.trace:
        st = self_times(spans)
        if "step" in st:
            parts = sum(st[n][2] for n in ("step_begin", "step_force",
                                           "step_end", "step") if n in st)
            untraced = (raw["loop_s"]
                        / max(1, len(raw["replicas"][0]["step_s"])))
            print(f"# phase self times + loop self = {1e3 * parts:.4f} ms; "
                  f"traced step mean = {1e3 * st['step'][1]:.4f} ms; "
                  f"untraced step mean = {1e3 * untraced:.4f} ms")
    else:
        print(f"# step_ms_tail is p{p_tail:.2f}")
        cal = fastest_each(raw["replicas"], "cal_s")
        print(f"# host_scale {host_scale(raw):.6g} = CAL_REF_S / median of "
              f"{len(cal)} calibrations ({1e3 * statistics.median(cal):.4f} "
              "ms); every time above is its unscaled value times host_scale")
        if "jobs_per_s" in values:
            value, base = values["jobs_per_s"]
            print(f"{'jobs_per_s':34s} {value:14.6g} {'1/s':8s} ({base})")
    print(f"{'error_rate':34s} {failed / attempted:14.6g} {'frac':8s} "
          f"({failed} of {attempted} checks failed)")
    for f in fails:
        print("# FAILED: " + f)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken inputs (self-test only)")
    ap.add_argument("--break-check", choices=("check", "fault"),
                    help="self-test: make a correctness check fail, or make "
                         "the engine throw")
    args = ap.parse_args()
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        return run(args, bench)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

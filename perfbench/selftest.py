#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny-size smoke of every workload.

    python3 perfbench/selftest.py [workload ...]

For each workload it runs run.py on shrunken inputs (--tiny, 1 s) with
tracing off and on, and asserts that
  * every end-to-end and per-layer metric named in BENCHMARK.json is
    emitted with its unit and a finite value;
  * every span's self time is >= 0 (to 1 ns of clock rounding);
  * a deliberately failed correctness check (--break-check check) and an
    exception thrown by the engine (--break-check fault) each make the run
    report correct=false, a non-zero error_rate and exit code 1.
Exits 0 when every assertion holds. Takes about two minutes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def invoke(name, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, lines, result


def check_metrics(name, result, wanted):
    for m in wanted:
        got = result["metrics"].get(m["name"])
        expect(got is not None, f"{name}: metric {m['name']} missing")
        if got is None:
            continue
        expect(got.get("unit") == m["unit"],
               f"{name}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        v = got.get("value")
        expect(isinstance(v, (int, float)) and math.isfinite(v),
               f"{name}: {m['name']} value {v!r} is not finite")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sys.argv[1:] or workloads.NAMES
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, lines, result = invoke(name, trace)
            expect(proc.returncode == 0 and result is not None,
                   f"{name} trace={trace}: exit {proc.returncode}: "
                   f"{proc.stderr.strip()[-500:]}")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace={trace}: correctness failed: "
                   + " | ".join(l for l in lines if "FAILED" in l))
            check_metrics(f"{name} trace={trace}", result, spec[key])
            if trace:
                path = next((l.split(": ", 1)[1] for l in lines
                             if l.startswith("# spans: ")), None)
                expect(path is not None, f"{name}: no spans file reported")
                if path:
                    spans = json.loads(Path(path).read_text())["spans"]
                    Path(path).unlink()
                    own = bench.span_self_times(spans)
                    expect(bool(spans), f"{name}: no spans recorded")
                    expect(min(own, default=0.0) >= -1e-9,
                           f"{name}: negative span self time {min(own)}")

            if not trace and name == "server_cohort":
                expect(any(l.startswith("jobs_per_s") for l in lines),
                       f"{name}: jobs_per_s not printed")

        for mode in ("check", "fault"):
            proc, lines, result = invoke(name, 0, "--break-check", mode)
            expect(proc.returncode == 1, f"{name} --break-check {mode}: exit "
                   f"{proc.returncode}, expected 1")
            rate = next((float(l.split()[1]) for l in lines
                         if l.startswith("error_rate")), 0.0)
            expect(result is not None and not result["correct"]
                   and result["failed"] > 0 and rate > 0,
                   f"{name} --break-check {mode}: error_rate not raised "
                   f"({rate})")
        print(f"{name}: done", flush=True)

    print("selftest: " + ("OK" if not failures
                          else f"{len(failures)} failure(s)"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

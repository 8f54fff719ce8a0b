"""Workload definitions: script lines and run shape, generated from a seed.

Each workload pins its rank and thread counts, so a later change of the
engine's default pool size cannot silently change what a workload measures.
The seed feeds every random choice (velocity and jitter seeds, server job
temperatures); the engine receives only the generated script lines.

Why each workload exists (README.md has the longer version):
  lj_bulk        Pair and Neigh dominate; kernel, SIMD and neighbor-build
                 changes show here, halo changes should not.
  lj_halo        ~216 owned atoms per rank over 4 simmpi ranks; packing,
                 sendrecv, host<->device syncs and launches dominate.
  snap_w         Pair is >99% of the loop, no rebuilds: the SNAP kernels only.
  reaxff_hns     plain host styles, ghost-row lists, dynamic bonds, QEq CG.
  server_cohort  16 small LJ jobs through server::Scheduler, fused PairBatch.
"""

import random

NAMES = ["lj_bulk", "lj_halo", "snap_w", "reaxff_hns", "server_cohort"]

# The one-thread workloads run this many identical copies at once, one per
# CPU, and each stretch of the run counts in the copy that ran it fastest
# (run.py, fastest()): on the shared host another tenant slows one CPU at
# a time by up to 1.7x. Traced runs use one copy.
REPLICAS = 4


def _seeds(name, seed, n):
    """n positive engine seeds for one workload, reproducible from `seed`."""
    rng = random.Random(f"{name}/{seed}")
    return [rng.randrange(1, 2**30) for _ in range(n)]


def _lj_script(cells, temp, vseed, jseed, suffix="kk"):
    """LAMMPS bench/in.lj settings, with a small seeded lattice jitter."""
    return [
        "units lj",
        "lattice fcc 0.8442",
        f"create_atoms {cells} {cells} {cells} jitter 0.01 {jseed}",
        "mass 1 1.0",
        f"velocity all create {temp!r} {vseed}",
        f"suffix {suffix}",
        "pair_style lj/cut 2.5",
        "pair_coeff * * 1.0 1.0",
        "neighbor 0.3 bin",
        "neigh_modify every 20 delay 0 check no",
        "fix 1 all nve",
        "thermo 0",
    ]


def _md(script, ranks, threads, segment, drift_tol, setups, probe_reps,
        ref_step=0, missed_samples=3, replicas=1):
    return {
        "kind": "md",
        "script": script,
        "ranks": ranks,
        "replicas": replicas,
        "threads": threads,
        "segment": segment,
        "setups": setups,
        "ref_step": ref_step,
        "missed_samples": missed_samples,
        "probe_reps": probe_reps,
        "drift_tol": drift_tol,
    }


def make(name, seed, tiny=False):
    """The spec of workload `name` for `seed` (without run length or trace).

    `tiny` shrinks every workload for the self-test; it is never used for
    reported numbers.
    """
    if name == "lj_bulk":
        vseed, jseed = _seeds(name, seed, 2)
        cells = 5 if tiny else 20
        return _md(_lj_script(cells, 1.44, vseed, jseed), ranks=1, threads=4,
                   segment=40, drift_tol=2e-3, setups=15, probe_reps=5,
                   missed_samples=1)
    if name == "lj_halo":
        vseed, jseed = _seeds(name, seed, 2)
        # Step 200 is a segment boundary (warm-up 100 + timed 100 + ...), where
        # TotEng is compared with a 1-rank run of the same script.
        return _md(_lj_script(6, 1.44, vseed, jseed), ranks=4, threads=1,
                   segment=100, drift_tol=2e-3, setups=100, ref_step=200,
                   probe_reps=50)
    if name == "snap_w":
        vseed, jseed = _seeds(name, seed, 2)
        cells = 3 if tiny else 4
        script = [
            "units metal",
            "lattice bcc 3.16",
            f"create_atoms {cells} {cells} {cells} jitter 0.01 {jseed}",
            "mass 1 183.84",
            f"velocity all create 600.0 {vseed}",
            "pair_style snap/kk",
            "pair_coeff * * 4.7 8 7771",  # rcut, twojmax, coefficient set
            "timestep 0.0005",
            "fix 1 all nve/kk",
            "thermo 0",
        ]
        # A segment ends with an energy step (about 1.6x a plain step); at 10
        # steps those are 10% of steps, so step_ms_tail (at most p97.5)
        # lies inside them rather than on their edge, where the run's step
        # count moves it.
        return _md(script, ranks=1, threads=1, segment=5 if tiny else 10,
                   drift_tol=1e-4, setups=25, probe_reps=5,
                   replicas=REPLICAS)
    if name == "reaxff_hns":
        vseed, jseed = _seeds(name, seed, 2)
        cells = 2 if tiny else 3
        script = [
            "units real",
            "lattice hns_like 5.2",
            f"create_atoms {cells} {cells} {cells} jitter 0.02 {jseed}",
            "mass 1 12.0",
            "mass 2 16.0",
            f"velocity all create 300.0 {vseed}",
            "pair_style reaxff-lite",
            "pair_coeff * * hns",
            "timestep 0.1",
            "fix 1 all nve",
            "thermo 0",
        ]
        return _md(script, ranks=1, threads=1, segment=20, drift_tol=1e-3,
                   setups=40, probe_reps=10, replicas=REPLICAS)
    if name == "server_cohort":
        njobs, steps = (4, 40) if tiny else (16, 400)
        seeds = _seeds(name, seed, 3 * njobs)
        jobs = []
        for i in range(njobs):
            vseed, jseed, tseed = seeds[3 * i:3 * i + 3]
            temp = round(1.0 + 0.8 * random.Random(tseed).random(), 4)
            jobs.append({"name": f"job-{i}",
                         "setup": _lj_script(3, temp, vseed, jseed),
                         "steps": steps})
        return {
            "kind": "server",
            "jobs": jobs,
            "threads": 1,
            "ranks": 1,
            "replicas": REPLICAS,
            "max_resident": 2 if tiny else 8,
            "setups": 40,
            "missed_samples": 3,
            "probe_reps": 50,
        }
    raise KeyError(name)

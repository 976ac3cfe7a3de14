#!/usr/bin/env python3
"""The benchmark's own tests: layer map, heavy layers and sensitivity.

    python3 perfbench/selftest.py [--seed N]

Run from the repository root (builds like run.py).  Checks, at one seed:

  * every workload's traced run is correct, with error_rate 0;
  * the intended heavy layer shows: amr.init_host_s is at least 70% of
    setup_s on amr64_gpfs; mpi.messages_per_dump on ranks256_pvfs is at
    least 50x that on amr64_gpfs; query.*, stage.* counts and
    fault.retries are nonzero on query_staged and zero elsewhere;
  * sensitivity: with the GPFS I/O nodes' disk service 10% slower
    (--slow-gpfs 0.1), amr64_gpfs raises dump_virtual_s and
    stor.queue_wait_virtual_s or pfs.io_virtual_s, keeps its amr.* counts,
    and ranks256_pvfs (PVFS, untouched) reports identical virtual metrics
    and counts - which also checks that two processes at one seed agree.

Exits 1 and names every failed check.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step)

# Per-layer metrics read from the host clock; every other one is a
# virtual time or a count and must repeat exactly.
HOST_METRICS = {
    "amr.init_host_s", "amr.make_particles_per_s", "enzo.evolve_host_s",
    "enzo.dump_host_s", "enzo.restart_host_s",
    "mpi.barrier_host_us", "mpi.allgatherv_host_ms", "mpi.alltoallv_host_ms",
    "query.host_us", "query.index_host_s", "obs.overhead_s",
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def measure(exe, workload, seed, trace, slow=0.0):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", str(trace), "--slow-gpfs", str(slow)]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=run.RUN_TIMEOUT_S)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(out.returncode == 0 and result["correct"] and result["failed"] == 0,
          f"{workload} trace={trace} slow={slow}: correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    exe = run.build()

    e2e = {w: measure(exe, w, seed, 0)
           for w in ("amr64_gpfs", "ranks256_pvfs")}
    layer = {w: measure(exe, w, seed, 1)
             for w in ("amr64_gpfs", "ranks256_pvfs", "query_staged")}
    for w, m in layer.items():
        check(m["error_rate"] == 0, f"{w}: error_rate is 0")

    amr, many, query = (layer["amr64_gpfs"], layer["ranks256_pvfs"],
                        layer["query_staged"])
    check(amr["amr.init_host_s"] >= 0.7 * e2e["amr64_gpfs"]["setup_s"],
          "amr64_gpfs: amr.init_host_s >= 70% of setup_s")
    check(many["mpi.messages_per_dump"] >= 50 * amr["mpi.messages_per_dump"],
          "ranks256_pvfs: mpi.messages_per_dump >= 50x amr64_gpfs")
    idle_on_others = [k for k in query if k.startswith(("query.", "stage."))]
    idle_on_others.append("fault.retries")
    busy_on_query = [k for k in idle_on_others
                     if k != "stage.drain_wait_virtual_s"]
    for k in busy_on_query:
        check(query[k] > 0, f"query_staged: {k} nonzero")
    for w in ("amr64_gpfs", "ranks256_pvfs"):
        for k in idle_on_others:
            check(layer[w][k] == 0, f"{w}: {k} is zero")

    slow_e2e = measure(exe, "amr64_gpfs", seed, 0, slow=0.1)
    slow_layer = measure(exe, "amr64_gpfs", seed, 1, slow=0.1)
    check(slow_e2e["dump_virtual_s"] > e2e["amr64_gpfs"]["dump_virtual_s"],
          "slow GPFS raises amr64_gpfs dump_virtual_s")
    check(slow_layer["stor.queue_wait_virtual_s"] >
          amr["stor.queue_wait_virtual_s"] or
          slow_layer["pfs.io_virtual_s"] > amr["pfs.io_virtual_s"],
          "slow GPFS raises stor.queue_wait_virtual_s or pfs.io_virtual_s")
    check(slow_layer["amr.particles"] == amr["amr.particles"],
          "slow GPFS leaves amr.particles unchanged")

    slow_many_e2e = measure(exe, "ranks256_pvfs", seed, 0, slow=0.1)
    slow_many = measure(exe, "ranks256_pvfs", seed, 1, slow=0.1)
    for k in ("dump_virtual_s", "restart_virtual_s"):
        check(slow_many_e2e[k] == e2e["ranks256_pvfs"][k],
              f"ranks256_pvfs {k} unchanged by slow GPFS")
    for k, v in many.items():
        if k not in HOST_METRICS:
            check(slow_many[k] == v, f"ranks256_pvfs {k} unchanged by slow GPFS")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

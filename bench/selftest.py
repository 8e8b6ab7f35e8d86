"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload and two seeds it checks that one seed always gives the
same job list and two seeds give different ones, then runs one cycle of a
cut-down job mix with tracing off and on and checks that the result line
names every metric of ``BENCHMARK.json`` with its unit.  It also checks
that the coverage guard names a layer that recorded no span, and that the
benchmark refuses to run, without printing a result, in a directory that
holds no program sources.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run  # first: it pins the BLAS threads before numpy loads

run.import_program()
import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)
TINY_MIX = {
    "screen_photon": (("custom", None), ("circular", 9)),
    "agreement_trials": ((0, 2), (1, 3)),
    "fock_scan": ((5, 2), (4, 3)),
}


def fail(message):
    raise SystemExit(f"selftest: {message}")


def same_jobs(a, b):
    if a.keys() != b.keys():
        return False
    return all(np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k]
               for k in a)


def job_lists_repeat(name, workdir):
    cls = workloads.WORKLOADS[name]
    lists = {}
    for seed in SEEDS:
        first = [cls(seed, workdir).cycle(k) for k in range(2)]
        again = [cls(seed, workdir).cycle(k) for k in range(2)]
        for c1, c2 in zip(first, again):
            if len(c1) != len(c2) or not all(map(same_jobs, c1, c2)):
                fail(f"{name}: seed {seed} gave two different job lists")
        lists[seed] = first[0]
    a, b = (lists[s] for s in SEEDS)
    if len(a) == len(b) and all(map(same_jobs, a, b)):
        fail(f"{name}: seeds {SEEDS} gave the same job list")


def tiny_run(name, seed, trace):
    args = run.parse_args(["--workload", name, "--seed", str(seed), "--seconds", "0",
                           "--trace", str(trace)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run_one(args)
    if code != 0:
        fail(f"{name} seed {seed} trace {trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_result(name, seed, trace, result, expected):
    where = f"{name} seed {seed} trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: {result['failed']} of {result['attempted']} jobs failed")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != expected:
        fail(f"{where}: metrics {got} != {expected}")
    if not all(isinstance(m["value"], float) for m in result["metrics"].values()):
        fail(f"{where}: a metric value is not a float")


def coverage_guard_names_layer():
    class Stub:
        name = "stub"
        layers = ("fock.apply_unitary",)

    args = run.parse_args(["--workload", "fock_scan", "--seed", "1", "--seconds", "0"])
    try:
        run.per_layer(args, Stub(), spans.Tracer(), [])
    except SystemExit as e:
        if "fock.apply_unitary" in str(e):
            return
    fail("coverage guard did not name the layer without spans")


def refuses_without_sources(workdir):
    bare = os.path.join(workdir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fock_scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if done.returncode == 0 or '"metrics"' in done.stdout:
        fail("the benchmark ran without program sources")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        for name, mix in TINY_MIX.items():
            job_lists_repeat(name, workdir)
            workloads.WORKLOADS[name].MIX = mix
            for seed in SEEDS:
                for trace in (0, 1):
                    check_result(name, seed, trace, tiny_run(name, seed, trace), expected[trace])
            print(f"selftest: {name} ok")
        coverage_guard_names_layer()
        refuses_without_sources(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no run uses it
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

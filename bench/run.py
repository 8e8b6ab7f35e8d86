"""Benchmark for maskmodes: three job workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload screen_photon --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client runs jobs back to back (a closed loop) in this process until
``--seconds`` have passed, then finishes the current cycle of jobs (see
``workloads.py``).  Every job's output is checked after the timed window.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and a table of the metrics.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: import ``maskmodes.cli``, make the workload's input files
  and run one untimed warm-up job; the median of three set-ups, two of them
  in fresh child processes, so BLAS start-up and lazy initialisation count;
* ``job_p50_ref`` and ``job_tail_ref``: median and tail percentile of the
  wall time of one verified job divided by the reference kernel's time
  measured around it (see ``Reference``); the percentile is fixed per
  workload so that a run holds at least ten jobs beyond it;
* ``jobs_per_ref``: verified jobs per unit of those normalised job times;
* ``peak_rss_mb``: peak resident memory of this process.

The same job times in seconds (``job_p50_s``, ``job_tail_s``,
``jobs_per_s``), the reference time, the tail percentile and the share of
jobs that raised or failed their check (``failed_frac``, with its base; the
``failed``/``attempted`` pair) are printed on the lines before the result.

``--trace 1`` runs every job twice, once plain and once with the span
tracer of ``spans.py`` installed, in alternating order, and reports the
per-layer metrics of the traced copies plus ``trace.overhead_frac``.  It
fails, naming the layer, when a layer the workload is meant to load
recorded no span.

BLAS runs on one thread (set below, before numpy is imported), so timings
do not depend on how many cores the machine lends the process.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("MASKMODES_OUTPUT_DIR", None)

WORKLOAD_NAMES = ("screen_photon", "agreement_trials", "fock_scan")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import maskmodes from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import maskmodes.cli  # noqa: F401  (timed as part of set-up)

    if not os.path.abspath(maskmodes.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: maskmodes imported from {maskmodes.cli.__file__}, not {SRC}")


def set_up(name, seed, workdir):
    """Import, make inputs, run the warm-up job; return (workload, seconds)."""
    t0 = time.perf_counter()
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    job = workload.warmup_job()
    workload.check(job, workload.run(job, None))
    return workload, time.perf_counter() - t0


def probe_setup(args):
    """Time a set-up in a fresh interpreter; returns its seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"bench: set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_job(workload, job, tracer=None):
    """Run one job; returns (seconds, output or None, error text or None)."""
    t = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(job, None)
        else:
            with tracer.job():
                out = workload.run(job, tracer)
        err = None
    except Exception as e:  # a failed job is counted, never fatal
        out, err = None, f"{type(e).__name__}: {e}"
    return time.perf_counter() - t, out, err


class Reference:
    """Fixed work that runs no maskmodes code, timed between jobs.

    The machine a benchmark shares can run the same work 1.6 times slower
    for seconds to minutes.  Each job's time is divided by this kernel's
    time measured around it, which cancels most of that drift while a gain
    in maskmodes still shows in full.  The kernel mixes the kinds of work
    the jobs do: LAPACK, streaming over arrays larger than the caches, many
    small numpy calls, dicts keyed by tuples and JSON encoding.
    """

    EVERY_S = 0.25

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.matrix = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        self.big = rng.normal(size=(2, 1 << 17)) + 0j
        self.small = rng.normal(size=4)
        self.samples = []  # (records before it, seconds)

    def measure(self, position):
        np = self.np
        t = time.perf_counter()
        np.linalg.svd(self.matrix)
        self.big[0] += 0.5 * self.big[1]
        self.big[0] *= 0.5
        for _ in range(1500):
            np.abs(self.small).sum()
        table = {(i, i & 7): i * 0.5 for i in range(10000)}
        json.dumps(list(table.values()))
        seconds = time.perf_counter() - t
        self.samples.append((position, seconds))
        return seconds

    def around(self, i):
        """Median of the two samples before and the two after record ``i``.

        Two on each side, so that one sample slowed by the job next to it
        (a large free, say) does not set the ratio of a long job.
        """
        before = [s for pos, s in self.samples if pos <= i]
        after = [s for pos, s in self.samples if pos > i]
        return statistics.median(before[-2:] + after[:2])


def timed_window(workload, seconds, tracer=None, reference=None):
    """Run whole cycles until ``seconds`` of job time have passed.

    With a ``reference``, its kernel runs before a job once
    ``Reference.EVERY_S`` of jobs have passed since it last ran, and once
    after the last job; its time is not part of the window.  Returns
    (elapsed, records, cycles).  A record is (job, tag, seconds, output,
    error); when tracing, each job yields a "plain" and a "traced" record,
    otherwise one record tagged None.
    """
    records = []
    t0 = time.perf_counter()
    paused = 0.0
    since_reference = Reference.EVERY_S
    k = 0
    while True:
        for i, job in enumerate(workload.cycle(k)):
            if tracer is None:
                if reference is not None and since_reference >= Reference.EVERY_S:
                    paused += reference.measure(len(records))
                    since_reference = 0.0
                records.append((job, None) + run_job(workload, job))
                since_reference += records[-1][2]
                continue
            order = (None, tracer) if (k + i) % 2 == 0 else (tracer, None)
            for tr in order:
                records.append((job, "traced" if tr else "plain") + run_job(workload, job, tr))
        k += 1
        elapsed = time.perf_counter() - t0 - paused
        if elapsed >= seconds:
            if reference is not None:
                reference.measure(len(records))
            return elapsed, records, k


def check_all(workload, records):
    """Check every job's output; returns the list of (job tag, seconds, ok)."""
    from workloads import CheckFailed

    results = []
    errors = []
    for job, tag, seconds, out, err in records:
        if err is None:
            try:
                workload.check(job, out)
            except CheckFailed as e:
                err = f"check failed: {e}"
        if err is not None:
            errors.append(err)
        results.append((tag, seconds, err is None))
    for err in errors[:5]:
        print(f"bench: job failed: {err}", file=sys.stderr)
    return results


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment(args):
    import numpy

    from importlib.metadata import version

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload, setups, elapsed, cycles, results, reference):
    """The end-to-end metrics; job times also in seconds in the details."""
    times = [s for _, s, ok in results if ok]
    attempted, verified = len(results), len(times)
    p = workload.tail_percentile
    details = {
        "environment": environment(args),
        "cycles": cycles,
        "elapsed_s": elapsed,
        "failed_frac": {"value": (attempted - verified) / attempted, "base": attempted},
        "tail_percentile": p,
        "setup_samples_s": setups,
        "reference_samples": len(reference.samples),
    }
    if verified < 2 or not reference.samples:
        return details, {}
    ratios = [s / reference.around(i) for i, (_, s, ok) in enumerate(results) if ok]
    tail = percentile(times, p)
    details.update({
        "jobs_beyond_tail": sum(1 for s in times if s > tail),
        "reference_s": statistics.median(s for _, s in reference.samples),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "jobs_per_s": verified / elapsed,
    })
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "job_p50_ref": metric(statistics.median(ratios), "ref"),
        "job_tail_ref": metric(percentile(ratios, p), "ref"),
        "jobs_per_ref": metric(verified / sum(ratios), "1/ref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return details, metrics


def per_layer(args, workload, tracer, results):
    from spans import LAYER_UNITS

    plain = sum(s for tag, s, _ in results if tag == "plain")
    traced = sum(s for tag, s, _ in results if tag == "traced")
    missing = [layer for layer in workload.layers if layer not in tracer.span_names()]
    if missing:
        raise SystemExit(
            f"bench: coverage guard: workload {workload.name} recorded no span for "
            + ", ".join(missing)
        )
    values = tracer.layer_metrics()
    values["trace.overhead_frac"] = (traced - plain) / plain if plain else 0.0
    metrics = {name: metric(v, LAYER_UNITS.get(name, "s")) for name, v in sorted(values.items())}
    details = {"environment": environment(args), "traced_jobs": tracer.jobs,
               "spans": len(tracer.spans)}
    return details, metrics


def print_result(details, metrics, attempted, failed):
    print(json.dumps(details, sort_keys=True))
    if "failed_frac" in details:
        ff = details["failed_frac"]
        print(f"  {'failed_frac':36s} {ff['value']:.6g} ratio (of {ff['base']} jobs)")
    for name, unit in (("job_p50_s", "s"), ("job_tail_s", "s"), ("jobs_per_s", "1/s"),
                       ("reference_s", "s")):
        if name in details:
            print(f"  {name:36s} {details[name]:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    ok = failed == 0 and bool(metrics)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_one(args):
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            _, seconds = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        setups = [] if args.trace else [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        workload, seconds = set_up(args.workload, args.seed, workdir)
        setups.append(seconds)
        tracer = reference = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        else:
            reference = Reference()
        elapsed, records, cycles = timed_window(workload, args.seconds, tracer, reference)
        results = check_all(workload, records)
        if tracer is None:
            details, metrics = end_to_end(args, workload, setups, elapsed, cycles, results,
                                          reference)
        else:
            details, metrics = per_layer(args, workload, tracer, results)
        failed = sum(1 for _, _, ok in results if not ok)
        print_result(details, metrics, len(results), failed)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other run uses it


def run_all(args):
    """Each workload in its own child process, so each pays its own set-up."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"bench: workload {name} failed", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            total["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maskmodes", "__init__.py")):
        print(f"bench: no maskmodes sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

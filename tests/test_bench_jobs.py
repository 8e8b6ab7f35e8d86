"""The benchmark's own jobs, run and checked in-process as ``bench/run.py`` does.

Every workload's warm-up job, one ``screen_photon`` job of each screen
class and one ``fock_scan`` job of each (modes, photons) class of its cycle
goes through the workload's ``run`` and then its ``check``.  A change that
the benchmark would count as a failed job fails here first.

The span tracer of ``bench/spans.py`` is built and run over a few jobs of
each workload, so a function it probes by name that no longer exists, or a
layer a workload is meant to load that records no span, fails here and not
only in a ``--trace 1`` run.

The states the ``fock_scan`` jobs and a ``screen_photon`` job make are
full-support, so their Schmidt spectra must take the full-support layout of
``maskmodes.entanglement``; a change that sent them back to the general
layout would slow the benchmark without failing a job.
"""

import importlib.util
import pathlib
import tracemalloc

import numpy as np
import pytest

from maskmodes import entanglement, fock
from util import count_full_support_calls


def _load_bench_module(name):
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_bench_module("workloads")
spans = _load_bench_module("spans")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warmup_job_passes_its_check(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    job = workload.warmup_job()
    workload.check(job, workload.run(job, None))


@pytest.mark.parametrize("modes, photons", sorted(set(workloads.FockScan.MIX)))
def test_fock_scan_job_of_each_class_passes_its_check(tmp_path, modes, photons):
    workload = workloads.FockScan(1, str(tmp_path))
    job = workload._job(np.random.default_rng([modes, photons]), modes, photons)
    workload.check(job, workload.run(job, None))


@pytest.mark.parametrize("kind, steps", sorted(set(workloads.ScreenPhoton.MIX), key=str))
def test_screen_photon_job_of_each_class_passes_its_check(tmp_path, kind, steps):
    workload = workloads.ScreenPhoton(1, str(tmp_path))
    job = next(j for j in workload.cycle(0) if (j["kind"], j.get("steps")) == (kind, steps))
    workload.check(job, workload.run(job, None))


def _traced_jobs(workload):
    """The warm-up job, plus one custom and one 9-step screen job for ``screen_photon``."""
    jobs = [workload.warmup_job()]
    if workload.name == "screen_photon":
        cycle = workload.cycle(0)
        jobs += [next(j for j in cycle if j["kind"] == "custom"),
                 next(j for j in cycle if j.get("steps") == 9)]
    return jobs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_jobs_record_every_layer(tmp_path, name):
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    tracer = spans.Tracer()  # resolves every probed name
    for job in _traced_jobs(workload):
        with tracer.job():
            out = workload.run(job, tracer)
        workload.check(job, out)
    missing = [layer for layer in workload.layers if layer not in tracer.span_names()]
    assert not missing, f"{name} recorded no span for {missing}"


def test_fock_scan_and_screen_states_take_the_full_support_layout(tmp_path, monkeypatch):
    """Every ``fock_scan`` class and a one-photon screen report (keys of several int64
    words) go through the full-support layout, and a (9, 5) scan stays small."""
    calls = count_full_support_calls(monkeypatch)
    scan = workloads.FockScan(1, str(tmp_path))
    for modes, photons in sorted(set(workloads.FockScan.MIX)):
        job = scan._job(np.random.default_rng([modes, photons]), modes, photons)
        paths = scan.run(job, None)
        assert sum(calls) == 2 ** (modes - 1) - 1, (modes, photons)
        calls.clear()
        if (modes, photons) == (9, 5):
            state = fock.MultimodeFockState.load(paths["state"])
        scan.check(job, paths)
    tracemalloc.start()
    try:
        entanglement.full_separability_scan(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.8e6

    calls.clear()
    screen = workloads.ScreenPhoton(1, str(tmp_path))
    job = next(j for j in screen.cycle(0) if j.get("steps") == 9)
    out = screen.run(job, None)
    assert out["state"].mode_count == 162 and calls == [1]
    assert fock._layout(163, 1).shape[1] > 1
    screen.check(job, out)

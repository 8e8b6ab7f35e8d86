"""The benchmark's own jobs, run and checked in-process as ``bench/run.py`` does.

Every workload's warm-up job, one ``screen_photon`` job of each screen
class and one ``fock_scan`` job of each (modes, photons) class of its cycle
goes through the workload's ``run`` and then its ``check``.  A change that
the benchmark would count as a failed job fails here first.
"""

import importlib.util
import pathlib

import numpy as np
import pytest


def _load_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


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

"""Span tracer for the benchmark's traced runs.

A traced run replaces public functions of the ``maskmodes`` modules with
wrappers that record one span (name, start, end, parent, job) per call.
The program's source is not touched: the wrappers are installed around a
traced job and removed after it, so untraced jobs run the original code.
A function imported into several modules (``from .fock import
apply_unitary`` in ``cli`` and ``agreement``) is replaced in every module
that holds it, so calls through any of those names are seen.

A span's self time is its duration minus the durations of its direct
child spans.  Every per-layer time the benchmark reports is a self time
per traced job, so the layer times of a job add up to at most its wall
time and a layer's share bounds what speeding it up can gain.
"""

import contextlib
import functools
import sys
import time
from collections import Counter


class Probe:
    """One traced entry point: ``owner.attr`` recorded as span ``name``.

    ``owner`` is a module or class path inside ``maskmodes``; ``attr`` names
    a function, method or classmethod on it.  ``count(counts, result)``
    records sizes at the boundary.  A call made while a span named
    ``fold_under`` is open gets no span of its own (its time stays in that
    span) but is still counted.
    """

    def __init__(self, name, owner, attr, count=None, fold_under=None):
        self.name = name
        self.owner = owner
        self.attr = attr
        self.count = count
        self.fold_under = fold_under


def _count_dim(counts, unit):
    counts["diffraction.unitaries"] += 1
    counts["diffraction.unitary_dim_sum"] += unit.dim


def _count_terms(counts, state):
    counts["fock.outputs"] += 1
    counts["fock.output_terms_sum"] += len(state.amplitudes)


def _count_bipartition(counts, _report):
    counts["entanglement.bipartitions"] += 1


def _count_check(counts, _verdict):
    counts["separability.checks"] += 1


def _count_trial(counts, _record):
    counts["agreement.trials"] += 1


PROBES = (
    Probe("diffraction.unitarize", "maskmodes.diffraction", "unitarize", count=_count_dim),
    Probe("diffraction.plane_wave_coupling", "maskmodes.diffraction", "plane_wave_coupling"),
    Probe("diffraction.overlap_unitary", "maskmodes.diffraction", "overlap_unitary"),
    Probe("diffraction.unitary_load", "maskmodes.diffraction.UnitaryMatrix", "load"),
    Probe("modes.field_ops", "maskmodes.modes", "sample_field"),
    Probe("modes.field_ops", "maskmodes.modes", "field_overlap"),
    Probe("modes.field_ops", "maskmodes.modes", "apply_mask_to_field"),
    Probe("fock.input_spec", "maskmodes.fock.InputStateSpec", "__init__"),
    Probe("fock.build_input_state", "maskmodes.fock", "build_input_state"),
    Probe("fock.apply_unitary", "maskmodes.fock", "apply_unitary", count=_count_terms),
    Probe("fock.state_load", "maskmodes.fock.MultimodeFockState", "from_json"),
    # the per-cut reports of a scan are the scan's own work
    Probe("entanglement.report", "maskmodes.entanglement", "entanglement_report",
          count=_count_bipartition, fold_under="entanglement.scan"),
    Probe("entanglement.scan", "maskmodes.entanglement", "full_separability_scan"),
    Probe("separability.check", "maskmodes.separability", "check_no_entanglement",
          count=_count_check),
    Probe("separability.covariance_oracle", "maskmodes.separability",
          "gaussian_covariance_propagate"),
    Probe("separability.covariance_oracle", "maskmodes.separability", "covariance_separable"),
    Probe("agreement.trial", "maskmodes.agreement", "run_trial", count=_count_trial),
    Probe("agreement.random_unitary", "maskmodes.agreement", "random_unitary"),
)

#: Per-layer time metrics: metric name -> span whose self time it sums.
SELF_TIME_METRICS = {
    "cli.self_s": "cli.main",
    "diffraction.unitarize_s": "diffraction.unitarize",
    "diffraction.plane_wave_coupling_s": "diffraction.plane_wave_coupling",
    "diffraction.overlap_unitary_s": "diffraction.overlap_unitary",
    "diffraction.unitary_load_s": "diffraction.unitary_load",
    "modes.field_ops_s": "modes.field_ops",
    "fock.input_spec_s": "fock.input_spec",
    "fock.build_input_state_s": "fock.build_input_state",
    "fock.apply_unitary_s": "fock.apply_unitary",
    "fock.state_load_s": "fock.state_load",
    "entanglement.report_s": "entanglement.report",
    "entanglement.scan_s": "entanglement.scan",
    "separability.check_s": "separability.check",
    "separability.covariance_oracle_s": "separability.covariance_oracle",
    "agreement.self_s": "agreement.trial",
    "agreement.random_unitary_s": "agreement.random_unitary",
}


#: Units of the per-layer metrics that are not times in seconds.
LAYER_UNITS = {
    "cli.artifact_bytes": "bytes",
    "diffraction.unitary_dim": "modes",
    "fock.output_terms": "terms",
    "entanglement.bipartitions": "count",
    "agreement.draw_acceptance": "ratio",
    "trace.overhead_frac": "ratio",
}


def _resolve(path):
    """Module or class object for a dotted path under ``maskmodes``."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        mod = sys.modules.get(".".join(parts[:cut]))
        if mod is not None:
            obj = mod
            for p in parts[cut:]:
                obj = getattr(obj, p)
            return obj
    raise LookupError(f"{path} is not imported")


class Tracer:
    """Records spans of traced jobs and sums them into per-layer metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job]
        self.counts = Counter()
        self.jobs = 0
        self._open = []
        self._patches = []  # (holder, attr, original, replacement)
        for probe in PROBES:
            self._plan(probe)

    def _plan(self, probe):
        owner = _resolve(probe.owner)
        if isinstance(owner, type):
            raw = owner.__dict__[probe.attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(probe, raw.__func__))
            else:
                wrapped = self._wrap(probe, raw)
            self._patches.append((owner, probe.attr, raw, wrapped))
            return
        original = getattr(owner, probe.attr)
        wrapped = self._wrap(probe, original)
        for name, mod in list(sys.modules.items()):
            if (name == "maskmodes" or name.startswith("maskmodes.")) and mod is not None:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, wrapped))

    def _wrap(self, probe, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe.fold_under and tracer._open and tracer._open[-1][0] == probe.fold_under:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(probe.name):
                    result = fn(*args, **kwargs)
            if probe.count is not None:
                probe.count(tracer.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1][1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.jobs]
        self.spans.append(record)
        self._open.append((name, len(self.spans) - 1))
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def job(self):
        """Trace one job: probes installed, a root ``job`` span open."""
        for holder, attr, _, wrapped in self._patches:
            setattr(holder, attr, wrapped)
        try:
            with self.span("job"):
                yield
        finally:
            for holder, attr, original, _ in self._patches:
                setattr(holder, attr, original)
            self.jobs += 1

    def self_times(self):
        """Summed self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def span_names(self):
        return {s[0] for s in self.spans}

    def layer_metrics(self):
        """Per-layer metrics averaged over the traced jobs (see ``SELF_TIME_METRICS``)."""
        jobs = max(self.jobs, 1)
        selfs = self.self_times()
        c = self.counts
        out = {m: selfs.get(span, 0.0) / jobs for m, span in SELF_TIME_METRICS.items()}
        out["cli.artifact_bytes"] = c["cli.artifact_bytes"] / jobs
        out["diffraction.unitary_dim"] = _ratio(c["diffraction.unitary_dim_sum"], c["diffraction.unitaries"])
        out["fock.output_terms"] = _ratio(c["fock.output_terms_sum"], c["fock.outputs"])
        out["entanglement.bipartitions"] = c["entanglement.bipartitions"] / jobs
        out["agreement.draw_acceptance"] = _ratio(c["agreement.trials"], c["separability.checks"])
        return out


def _ratio(num, den):
    return num / den if den else 0.0

"""The benchmark's workloads: job plans made from a seed, jobs, output checks.

A workload is an endless sequence of cycles.  Cycle ``k`` is a fixed mix of
job classes (the same every cycle and every seed); the seed decides each
job's inputs and the order of the jobs inside the cycle.  A run stops at
the first cycle boundary after its time is up, so every run measures whole
copies of the mix and its medians and percentiles fall inside one class.

Each job is a sequence of in-process calls to ``maskmodes.cli.main`` and to
public library functions, the calls a user of the README makes.  A job
returns what its check needs; the check runs after the timed window.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import maskmodes.cli as cli
from maskmodes import agreement, diffraction, entanglement, fock, modes

WAVENUMBER = 2 * np.pi


class CheckFailed(Exception):
    """A job's output is wrong."""


def call_cli(tracer, args, out_path):
    """Run one CLI command in-process, as ``maskmodes ARGS`` would."""
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            cli.main(args, standalone_mode=False)
            return
        with tracer.span("cli.main"):
            cli.main(args, standalone_mode=False)
    tracer.counts["cli.artifact_bytes"] += os.path.getsize(out_path)


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _binary_entropy(p):
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


# --------------------------------------------------------------------------
# screen_photon


class ScreenPhoton:
    """Compile a screen, send one photon into its incident mode, judge the split.

    Two thirds of the jobs compile a circular aperture on a direction lattice
    (flux-faithful dilation, 162-578 modes); the rest compile a seeded
    sampled mask against a Hermite-Gaussian basis by field overlaps.
    """

    name = "screen_photon"
    tail_percentile = 70
    layers = (
        "cli.main",
        "diffraction.unitarize",
        "diffraction.plane_wave_coupling",
        "diffraction.overlap_unitary",
        "modes.field_ops",
        "diffraction.unitary_load",
        "fock.apply_unitary",
        "entanglement.report",
    )
    # job classes of one cycle: ("circular", aperture steps) or ("custom", None);
    # the median falls among the 9-step jobs and the 70th percentile among
    # the 11-step ones, away from the class edges
    MIX = (
        (("custom", None),) * 6
        + (("circular", 9),) * 6
        + (("circular", 11),) * 4
        + (("circular", 13),) * 2
        + (("circular", 17),)
    )
    RADII = (1.5, 2.0, 3.0)
    MASKS = 4
    GRID = 256
    EXTENT = 14.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.artifact = os.path.join(workdir, "screen.json")
        rng = np.random.default_rng([seed, 1 << 20])
        self.mask_files = []
        for m in range(self.MASKS):
            path = os.path.join(workdir, f"mask{m}.json")
            with open(path, "w") as fh:
                json.dump(diffraction.mask_to_json(self._sampled_mask(rng)), fh)
            self.mask_files.append(path)
        self._incident = {}

    def _sampled_mask(self, rng):
        """A smooth passive screen: a few Gaussian openings under a phase ramp."""
        n = self.GRID
        grid = modes.Grid2D(n, n, self.EXTENT / n, self.EXTENT / n)
        x, y = grid.meshgrid()
        amp = np.zeros_like(x)
        for _ in range(int(rng.integers(2, 5))):
            cx, cy = rng.uniform(-2.0, 2.0, size=2)
            w = rng.uniform(1.0, 2.5)
            amp += np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * w * w))
        amp /= amp.max()
        a, b, c = rng.uniform(-0.5, 0.5, size=3)
        phase = a * x + b * y + c * (x * x + y * y) / 10.0
        return diffraction.CustomSampled(grid, amp * np.exp(1j * phase))

    def incident_mode(self, radius, steps):
        """Index of the normally incident direction in the compiled lattice."""
        key = (radius, steps)
        if key not in self._incident:
            grid, _ = diffraction.aperture_output_grid(
                diffraction.CircularAperture(radius), (0.0, 0.0), WAVENUMBER, 0.2, steps
            )
            self._incident[key] = int(np.argmin(np.sum(grid.transverse**2, axis=1)))
        return self._incident[key]

    def cycle(self, k):
        rng = np.random.default_rng([self.seed, k])
        jobs = []
        for kind, steps in self.MIX:
            if kind == "circular":
                radius = float(rng.choice(self.RADII))
                jobs.append({"kind": kind, "steps": steps, "radius": radius,
                             "incident": self.incident_mode(radius, steps)})
            else:
                jobs.append({"kind": kind, "mask": int(rng.integers(self.MASKS)),
                             "order": int(rng.integers(2, 4)), "incident": 0})
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def warmup_job(self):
        return {"kind": "circular", "steps": 9, "radius": 2.0,
                "incident": self.incident_mode(2.0, 9)}

    def run(self, job, tracer):
        if job["kind"] == "circular":
            args = ["compile-mask", "--mask", "circular", "--radius", repr(job["radius"]),
                    "--aperture-steps", str(job["steps"])]
        else:
            args = ["compile-mask", "--mask", "custom", "--mask-file",
                    self.mask_files[job["mask"]], "--grid", str(self.GRID),
                    "--basis-order", str(job["order"])]
        call_cli(tracer, args + ["--out", self.artifact], self.artifact)
        unit = diffraction.UnitaryMatrix.load(self.artifact)
        j = job["incident"]
        occupation = [0] * unit.dim
        occupation[j] = 1
        out = fock.apply_unitary(fock.MultimodeFockState.from_occupation(occupation), unit)
        report = entanglement.entanglement_report(out, entanglement.Bipartition((j,), unit.dim))
        return {"residual": unit.residual, "u_jj": complex(unit.matrix[j, j]),
                "state": out, "entropy": report.entropy_bits}

    def check(self, job, out):
        _require(out["residual"] <= 1e-10, f"unitarity residual {out['residual']:.3e}")
        state = out["state"]
        _require(abs(state.norm_sq() - 1.0) <= 1e-12, "output norm is not 1")
        _require(all(sum(t) == 1 for t in state.amplitudes), "a term does not hold one photon")
        want = _binary_entropy(abs(out["u_jj"]) ** 2)
        _require(abs(out["entropy"] - want) <= 1e-9,
                 f"entropy {out['entropy']!r} != h2(|U_jj|^2) = {want!r}")


# --------------------------------------------------------------------------
# agreement_trials


class AgreementTrials:
    """Randomized checker-versus-oracle trials of the agreement suite.

    A job is one ``agreement.run_trial``, the unit ``agreement-suite`` repeats;
    a trial's mode count is the first draw of its generator.  Four-mode trials
    are left out: their cost runs from milliseconds to seconds with the
    drawn cutoffs, which no short window averages out.
    """

    name = "agreement_trials"
    tail_percentile = 90
    layers = (
        "fock.input_spec",
        "fock.build_input_state",
        "fock.apply_unitary",
        "entanglement.report",
        "separability.check",
        "separability.covariance_oracle",
        "agreement.trial",
        "agreement.random_unitary",
    )
    # (family index, modes) classes of one cycle: every family twice on two
    # modes, then once on three.  The median falls inside the narrow cost
    # band of two-mode trials and the 90th percentile inside the three-mode
    # product-path trials, each away from the sparse gap between the bands.
    MIX = tuple((f, 2) for f in range(5)) * 2 + tuple((f, 3) for f in range(5))

    def __init__(self, seed, workdir):
        self.seed = seed

    @staticmethod
    def _draw(rng, family, modes):
        """A (root seed, trial index) whose trial has the family and mode count."""
        while True:
            root = int(rng.integers(1 << 31))
            index = family + len(agreement.FAMILIES) * int(rng.integers(1000))
            if int(agreement.trial_rng(root, index).integers(2, 5)) == modes:
                return {"root": root, "index": index, "modes": modes}

    def cycle(self, k):
        rng = np.random.default_rng([self.seed, k])
        jobs = [self._draw(rng, f, n) for f, n in self.MIX]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def warmup_job(self):
        return self._draw(np.random.default_rng(0), 1, 3)

    def run(self, job, tracer):
        return agreement.run_trial(job["root"], job["index"])

    def check(self, job, record):
        _require(record["modes"] == job["modes"],
                 f"trial drew {record['modes']} modes, planned {job['modes']}")
        _require(record["agree"], f"checker and oracles disagree: {record}")


# --------------------------------------------------------------------------
# fock_scan


class FockScan:
    """Propagate a Fock input through a Haar network and scan every cut.

    A job saves a seeded Haar unitary on 8-9 modes, runs ``propagate`` with
    4-5 photons spread over the modes, then ``entropy --scan`` on the state
    artifact: a dense (N+1)^M product-path tensor and 127-255 bipartitions.
    """

    name = "fock_scan"
    tail_percentile = 75
    layers = (
        "cli.main",
        "diffraction.unitary_load",
        "fock.input_spec",
        "fock.build_input_state",
        "fock.apply_unitary",
        "fock.state_load",
        "entanglement.scan",
    )
    # (modes, photons) classes of one cycle; the median falls among the
    # (8, 5) jobs and the 75th percentile among the (9, 4) ones
    MIX = ((8, 4),) * 8 + ((8, 5),) * 7 + ((9, 4),) * 5 + ((9, 5),)

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.jobs_run = 0

    @staticmethod
    def _job(rng, m, n):
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        q, r = np.linalg.qr(g)
        haar = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        occupation = np.bincount(rng.integers(m, size=n), minlength=m).tolist()
        cut = (0,) + tuple(int(i) for i in np.nonzero(rng.integers(2, size=m - 1))[0] + 1)
        if len(cut) == m:
            cut = cut[:-1]
        return {"modes": m, "photons": n, "unitary": haar, "occupation": occupation,
                "cut": cut}

    def cycle(self, k):
        rng = np.random.default_rng([self.seed, k])
        jobs = [self._job(rng, m, n) for m, n in self.MIX]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def warmup_job(self):
        return self._job(np.random.default_rng(0), 8, 4)

    def run(self, job, tracer):
        stem = os.path.join(self.workdir, f"scan{self.jobs_run:05d}")
        self.jobs_run += 1
        paths = {p: f"{stem}-{p}.json" for p in ("unitary", "state", "report")}
        diffraction.UnitaryMatrix(job["unitary"]).save(paths["unitary"])
        state_text = ",".join(f"fock:{n}" if n else "vac" for n in job["occupation"])
        call_cli(tracer, ["propagate", "--state", state_text, "--unitary", paths["unitary"],
                          "--out", paths["state"]], paths["state"])
        call_cli(tracer, ["entropy", "--state-file", paths["state"], "--scan",
                          "--out", paths["report"]], paths["report"])
        return paths

    def check(self, job, paths):
        try:
            with open(paths["state"]) as fh:
                state = fock.MultimodeFockState.from_json(json.load(fh)["result"]["state"])
            with open(paths["report"]) as fh:
                reports = json.load(fh)["result"]["bipartitions"]
        finally:
            for p in paths.values():
                os.unlink(p)
        m, n = job["modes"], job["photons"]
        _require(abs(state.norm_sq() - 1.0) <= 1e-12, "output norm is not 1")
        _require(all(sum(t) == n for t in state.amplitudes), f"a term does not hold {n} photons")
        _require(len(reports) == 2 ** (m - 1) - 1,
                 f"{len(reports)} bipartition reports, expected {2 ** (m - 1) - 1}")
        cut = next((r for r in reports if tuple(r["bipartition"]) == job["cut"]), None)
        _require(cut is not None, f"no report for cut {job['cut']}")
        probs = _schmidt_probabilities_by_svd(state, job["cut"])
        top = np.array(cut["schmidt_top"]) ** 2
        _require(np.max(np.abs(top - probs[: len(top)])) <= 1e-12,
                 f"Schmidt spectrum of cut {job['cut']} differs from the SVD")
        live = probs[probs > 1e-18]
        _require(abs(cut["entropy_bits"] + float(np.sum(live * np.log2(live)))) <= 1e-9,
                 f"entropy of cut {job['cut']} differs from the SVD")
        generic = fock.apply_unitary(
            fock.MultimodeFockState.from_occupation(job["occupation"]),
            diffraction.UnitaryMatrix(job["unitary"]),
        )
        fidelity = fock.state_fidelity(state, generic)
        _require(abs(fidelity - 1.0) <= 1e-12, f"product and generic paths differ: {fidelity!r}")


def _schmidt_probabilities_by_svd(state, subset):
    """Squared singular values of the amplitude matrix over ``subset`` x rest."""
    rest = [i for i in range(state.mode_count) if i not in subset]
    rows, cols, entries = {}, {}, []
    for occ, amp in state.amplitudes.items():
        r = rows.setdefault(tuple(occ[i] for i in subset), len(rows))
        c = cols.setdefault(tuple(occ[i] for i in rest), len(cols))
        entries.append((r, c, amp))
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    for r, c, amp in entries:
        mat[r, c] = amp
    return np.linalg.svd(mat, compute_uv=False) ** 2


WORKLOADS = {w.name: w for w in (ScreenPhoton, AgreementTrials, FockScan)}

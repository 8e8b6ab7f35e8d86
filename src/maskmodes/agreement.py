"""Randomized cross-validation of the separability checker against oracles.

Each trial draws a network and a separable input, asks the closed-form
split-mode checker for a verdict, and compares it with (i) the entropy of
the exactly propagated, degree-capped Fock state and (ii), for all-Gaussian
inputs, the covariance-matrix oracle.  Verdicts must agree on every trial.

The ensembles keep clear of the region where a verdict would be numerically
borderline: unitaries are redrawn until every entry magnitude is at least
1e-3, unequal squeezing strengths differ by at least 0.05, and trials that
should be entangled are redrawn until the checker's witness residual is at
least 1e-2 (which keeps the oracle entropies well above the 1e-6-bit
threshold).  After 50 draws the last one is kept; each trial records its
draw count and whether the draw it kept is borderline.  Per-trial
generators derive from one root seed by counter hashing, so a fixed seed
reproduces the suite bit for bit.
"""

import hashlib

import numpy as np

from .diffraction import UnitaryMatrix, polar_factor
from .entanglement import Bipartition, entanglement_report
from .fock import Coherent, Fock, InputStateSpec, SqueezedVacuum, Vacuum, apply_unitary, build_input_state
from .separability import check_no_entanglement, covariance_separable, gaussian_covariance_propagate

FAMILIES = (
    "coherent",
    "equal_squeeze_real",
    "equal_squeeze_complex",
    "unequal_squeeze",
    "mixed_fock",
)

MIN_ENTRY = 1e-3
MIN_RESIDUAL = 1e-2
MIN_LAMBDA_GAP = 0.05


def trial_rng(root_seed, index):
    """Independent generator for one trial, derived by counter hashing."""
    digest = hashlib.sha256(f"{root_seed}:{index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def random_unitary(rng, n, real=False):
    """Haar-like unitary (polar factor of a Ginibre draw), entries bounded away from 0."""
    for _ in range(200):
        g = rng.normal(size=(n, n))
        if not real:
            g = g + 1j * rng.normal(size=(n, n))
        w = polar_factor(g)
        if np.min(np.abs(w)) >= MIN_ENTRY:
            return UnitaryMatrix(w)
    raise RuntimeError("could not draw a well-connected unitary")


def _draw_inputs(rng, family, n):
    if family == "coherent":
        descs = []
        for _ in range(n):
            if rng.random() < 0.25:
                descs.append(Vacuum())
            else:
                r = 1.5 * np.sqrt(rng.random())
                ph = 2 * np.pi * rng.random()
                descs.append(Coherent(r * np.exp(1j * ph)))
        return descs
    if family in ("equal_squeeze_real", "equal_squeeze_complex"):
        lam = float(rng.uniform(0.1, 0.4))
        return [SqueezedVacuum(lam) for _ in range(n)]
    if family == "unequal_squeeze":
        while True:
            lams = np.sort(rng.uniform(0.05, 0.4, size=n))
            if n == 1 or np.min(np.diff(lams)) >= MIN_LAMBDA_GAP:
                break
        lams = rng.permutation(lams)
        return [SqueezedVacuum(float(l)) for l in lams]
    if family == "mixed_fock":
        descs = []
        fock_at = int(rng.integers(n))
        for i in range(n):
            if i == fock_at:
                descs.append(Fock(int(rng.integers(1, 3))))
            elif rng.random() < 0.5:
                descs.append(Vacuum())
            else:
                descs.append(Coherent(complex(rng.uniform(-1.0, 1.0))))
        return descs
    raise ValueError(f"unknown family {family!r}")


def run_trial(root_seed, index):
    """One randomized trial; returns a record with all three verdicts."""
    rng = trial_rng(root_seed, index)
    family = FAMILIES[index % len(FAMILIES)]
    n = int(rng.integers(2, 5))
    real = family == "equal_squeeze_real"

    for draws in range(1, 51):
        u = random_unitary(rng, n, real=real)
        descs = _draw_inputs(rng, family, n)
        size = int(rng.integers(1, n + 1))
        subset = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        spec = InputStateSpec(descs)
        checker = check_no_entanglement(spec, u, subset)
        borderline = (
            not checker.separable
            and checker.witness.residual is not None
            and checker.witness.residual < MIN_RESIDUAL
        )
        if not borderline:
            break
    state = apply_unitary(build_input_state(spec), u)
    fock_sep = all(
        entanglement_report(state, Bipartition((k,), n)).separable
        for k in subset
    )
    record = {
        "index": index,
        "family": family,
        "modes": n,
        "subset": list(subset),
        "checker_separable": bool(checker.separable),
        "fock_separable": bool(fock_sep),
        "witness": None if checker.witness is None else checker.witness.to_json(),
        "draws": draws,
        "borderline_kept": borderline,
    }
    gauss_sep = None
    if not spec.photons.any():
        cov = gaussian_covariance_propagate(spec, u)
        gauss_sep = all(covariance_separable(cov, Bipartition((k,), n)) for k in subset)
    record["gaussian_separable"] = gauss_sep
    record["agree"] = fock_sep == checker.separable and gauss_sep in (None, checker.separable)
    return record


def run_agreement_suite(n_trials=100, seed=7):
    """Run the full suite; 100% agreement is the acceptance requirement."""
    trials = [run_trial(seed, i) for i in range(n_trials)]
    agreed = sum(1 for t in trials if t["agree"])
    return {
        "seed": seed,
        "trials": trials,
        "n_trials": n_trials,
        "agreed": agreed,
        "agreement_rate": agreed / n_trials if n_trials else 1.0,
        "all_agree": agreed == n_trials,
    }

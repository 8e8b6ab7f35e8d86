"""Order-by-order no-entanglement criterion and Gaussian oracles.

A separable pure input is described per mode by the Maclaurin coefficients
``lam_j[d]`` of the log of its amplitude generating function; degree 1 is
displacement, degree 2 squeezing, anything above degree 2 (or a function
with no such expansion at all, like a Fock state) is non-Gaussian.  For a
chosen subset of output modes the criterion reads:

* modes that do not couple to the subset are unconstrained;
* coupled modes must carry no degree-above-2 structure;
* the degree-2 coefficients must leave no cross term:
  ``sum_j lam_j U[j,k] U[j,k']`` must vanish for every subset ``k`` and
  ``k' != k``.  For a unitary ``U`` this forces ``lam_j U[j,k] =
  xi_k conj(U[j,k])`` (equal squeezing magnitudes on coupled modes), so no
  separate phase condition is checked.

Degrees 0 and 1 impose nothing.  The Gaussian covariance propagation serves
as an oracle that never truncates.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, NonAnalyticInput, NotPure

D_MAX_DEFAULT = 4
TOL_COUPLE = 1e-12
TOL_COEFF = 1e-12


def squeezing_to_quadratic_coeff(lam):
    """Degree-2 log-expansion coefficient of a squeezed vacuum: ``tanh(lam)/2``.

    Single source of truth for the squeezing-strength map; the checker and
    both oracles share it.
    """
    return np.tanh(lam) / 2.0


class BargmannInput:
    """Per-mode log-expansion coefficients of a separable pure input.

    ``coefficients[j, d]`` holds ``lam_j[d]`` for ``d = 0..d_max``; modes
    whose amplitude function has no valid log expansion (Fock states with
    one photon or more) are flagged non-Gaussian instead.
    """

    def __init__(self, coefficients, non_gaussian=None, d_max=D_MAX_DEFAULT):
        rows = []
        for lst in coefficients:
            row = np.zeros(d_max + 1, dtype=complex)
            arr = np.asarray(list(lst), dtype=complex)
            if len(arr) > d_max + 1:
                raise ValueError(f"coefficient list longer than d_max={d_max}")
            row[: len(arr)] = arr
            rows.append(row)
        self.coefficients = np.array(rows)
        if not np.all(np.isfinite(self.coefficients)):
            raise NonAnalyticInput("coefficients must be finite")
        self.non_gaussian = (
            [False] * len(rows) if non_gaussian is None else list(non_gaussian)
        )
        if len(self.non_gaussian) != len(rows):
            raise DimensionMismatch("one non-Gaussian flag per mode")
        self.d_max = d_max

    @property
    def mode_count(self):
        return self.coefficients.shape[0]

    @classmethod
    def from_input_spec(cls, spec, d_max=D_MAX_DEFAULT):
        """Read the spec's arrays; a mode with Fock photons is flagged non-Gaussian."""
        coeffs = np.zeros((spec.mode_count, d_max + 1), dtype=complex)
        coeffs[:, 0] = -np.abs(spec.alpha) ** 2 / 2.0 - 0.5 * np.log(np.cosh(spec.lam))
        coeffs[:, 1] = spec.alpha
        coeffs[:, 2] = squeezing_to_quadratic_coeff(spec.lam)
        return cls(coeffs, non_gaussian=(spec.photons >= 1).tolist(), d_max=d_max)


@dataclass(frozen=True)
class Witness:
    """The condition a non-separable verdict violated."""

    kind: str  # "non_gaussian" | "higher_order" | "d2_cross_term"
    order: Optional[int]
    modes: tuple
    residual: Optional[float]

    def to_json(self):
        return {
            "kind": self.kind,
            "order": self.order,
            "modes": list(self.modes),
            "residual": self.residual,
        }


@dataclass
class SeparabilityVerdict:
    separable: bool
    witness: Optional[Witness]
    coupled_modes: frozenset
    subset: tuple

    def __post_init__(self):
        assert (self.witness is None) == self.separable

    def to_json(self):
        return {
            "separable": bool(self.separable),
            "witness": None if self.witness is None else self.witness.to_json(),
            "coupled_modes": sorted(self.coupled_modes),
            "subset": list(self.subset),
        }


def coupled_input_modes(u, out_subset, tol_couple=TOL_COUPLE):
    """Input modes with any coupling above ``tol_couple`` into the subset."""
    subset = sorted(set(int(k) for k in out_subset))
    m = np.abs(u.matrix[:, subset])
    return frozenset(int(j) for j in np.nonzero(np.any(m > tol_couple, axis=1))[0])


def check_no_entanglement(bargmann, u, out_subset, tol_coeff=TOL_COEFF,
                          tol_couple=TOL_COUPLE):
    """Decide whether the input leaves the chosen output modes separable.

    The verdict is exact (symbolic in the coefficients, numeric only through
    float arithmetic): uncoupled modes are ignored, coupled modes must be
    Gaussian with no degree-above-2 coefficients, and the degree-2
    coefficients must leave no cross term between a subset mode and any other.
    """
    if bargmann.mode_count != u.dim:
        raise DimensionMismatch("input mode count does not match the network")
    subset = tuple(sorted(set(int(k) for k in out_subset)))
    if not subset or any(k < 0 or k >= u.dim for k in subset):
        raise ValueError("output subset must be a nonempty set of valid mode indices")
    U = u.matrix
    coupled = coupled_input_modes(u, subset, tol_couple=tol_couple)

    def verdict(witness=None):
        return SeparabilityVerdict(
            separable=witness is None,
            witness=witness,
            coupled_modes=coupled,
            subset=subset,
        )

    # non-Gaussian inputs on coupled modes can never satisfy the expansion
    for j in sorted(coupled):
        if bargmann.non_gaussian[j]:
            return verdict(Witness("non_gaussian", None, (j,), None))

    # degree > 2 must vanish on coupled modes
    for j in sorted(coupled):
        for d in range(3, bargmann.d_max + 1):
            mag = abs(bargmann.coefficients[j, d])
            if mag > tol_coeff:
                return verdict(Witness("higher_order", d, (j,), mag))

    lam2 = bargmann.coefficients[:, 2].copy()
    lam2[[j for j in range(u.dim) if j not in coupled]] = 0.0  # uncoupled: free

    # cross terms z_k z_k' (k in subset, any k' != k) must not appear
    for k in subset:
        for kp in range(u.dim):
            if kp == k:
                continue
            t = complex(np.sum(lam2 * U[:, k] * U[:, kp]))
            if abs(t) > tol_coeff:
                return verdict(Witness("d2_cross_term", 2, (k, kp), abs(t)))

    return verdict(None)


# --------------------------------------------------------------------------
# Gaussian covariance oracle (no Fock truncation)


def gaussian_covariance_propagate(pairs, u):
    """Propagate per-mode ``(alpha, lam)`` displaced-squeezed inputs.

    Quadratures are ordered ``(x_1..x_N, p_1..p_N)`` with the vacuum
    covariance equal to the identity; the input is
    ``sigma = diag(e^{2 lam}, e^{-2 lam})`` per mode with mean
    ``(2 Re alpha, 2 Im alpha)``.  A passive network acts by the symplectic
    orthogonal built from the transpose of the operator-oriented matrix
    (same orientation as :func:`~maskmodes.fock.apply_unitary`).

    Returns ``(mean, covariance)``.
    """
    n = u.dim
    if len(pairs) != n:
        raise DimensionMismatch("one (alpha, lam) pair per network mode")
    alphas = np.array([complex(a) for a, _ in pairs])
    lams = np.array([float(l) for _, l in pairs])
    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, :n] = np.diag(np.exp(2.0 * lams))
    sigma[n:, n:] = np.diag(np.exp(-2.0 * lams))
    mean = np.concatenate([2.0 * alphas.real, 2.0 * alphas.imag])
    ut = u.matrix.T
    a, b = ut.real, ut.imag
    s = np.block([[a, -b], [b, a]])
    return s @ mean, s @ sigma @ s.T


def symplectic_purity_residual(sigma):
    n = sigma.shape[0] // 2
    omega = np.zeros_like(sigma)
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    nu = np.abs(np.linalg.eigvals(1j * omega @ sigma))
    return float(np.max(np.abs(nu - 1.0)))


def covariance_separable(sigma, part, tol=1e-9, purity_tol=1e-8):
    """Whether a pure Gaussian state factorizes across the bipartition.

    A pure Gaussian state is a product across a partition iff every
    inter-partition covariance entry vanishes; the purity precondition is
    checked first since the criterion certifies only pure products.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    res = symplectic_purity_residual(sigma)
    if res > purity_tol:
        raise NotPure(f"purity residual {res:.3e} above {purity_tol:.1e}")
    a = list(part.subset) + [n + i for i in part.subset]
    b = list(part.complement) + [n + i for i in part.complement]
    cross = sigma[np.ix_(a, b)]
    return bool(np.max(np.abs(cross), initial=0.0) <= tol)


def gaussian_pairs_from_spec(spec):
    """``(alpha, lam)`` pairs of an input spec, or None if any mode holds Fock photons."""
    if np.any(spec.photons):
        return None
    return list(zip(spec.alpha.tolist(), spec.lam.tolist()))

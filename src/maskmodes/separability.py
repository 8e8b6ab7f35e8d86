"""Exact no-entanglement rule for separable inputs, and Gaussian oracles.

A separable pure input is read from its :class:`~maskmodes.fock.InputStateSpec`:
Fock photons, displacements ``alpha`` and squeezings ``lam`` per mode.  For
an output mode ``k``, take the cut ``{k}`` versus the other modes.  Input
mode ``j`` is *split* by that cut if ``|U[j,k]|`` and some ``|U[j,k']|``
(``k' != k``) are both above ``TOL_COUPLE``.  The output is a product
across the cut iff

* no split mode carries Fock photons, and
* the output Bargmann exponent ``B = Uᵀ diag(tanh lam) U`` has no cross
  term: ``|B[k,k']|/2 <= TOL_CROSS`` for every ``k' != k``.

This is the quantum Darmois-Skitovich condition: a non-Gaussian mode split
by a passive network always entangles the two sides (Kim, Son, Bužek &
Knight, PRA 65, 032323 (2002); Jiang, Lang & Caves, PRA 88, 044301
(2013)), and a Gaussian output factorizes iff its exponent does.  A mode
that is not split acts on one side only, and displacements never entangle.
The Gaussian covariance propagation serves as an oracle that never
truncates.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diffraction import TOL_COUPLE
from .errors import DimensionMismatch, EmptyPartition, NotPure
from .entanglement import _indices
from .fock import bargmann_exponent

TOL_CROSS = 1e-12


@dataclass(frozen=True)
class Witness:
    """The condition a non-separable verdict violated."""

    kind: str  # "non_gaussian" | "d2_cross_term"
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
    split_modes: frozenset
    subset: tuple

    def __post_init__(self):
        assert (self.witness is None) == self.separable

    def to_json(self):
        return {
            "separable": bool(self.separable),
            "witness": None if self.witness is None else self.witness.to_json(),
            "split_modes": sorted(self.split_modes),
            "subset": list(self.subset),
        }


def check_no_entanglement(spec, u, out_subset):
    """Whether every cut ``{k}`` versus the rest, ``k`` in the subset, stays separable.

    The witness of an entangled verdict is the lowest split mode with Fock
    photons (``non_gaussian``) or else the first cross term ``(k, k')`` in
    subset-major order (``d2_cross_term``, residual ``|B[k,k']|/2``).  A
    subset that is no sequence, or an entry that is no integer, raises
    :class:`EmptyPartition` naming it.
    """
    if spec.mode_count != u.dim:
        raise DimensionMismatch("input mode count does not match the network")
    subset = _indices(out_subset, "output subset")
    if not subset or any(k < 0 or k >= u.dim for k in subset):
        raise EmptyPartition("output subset must be a nonempty set of valid mode indices")
    reach = np.abs(u.matrix) > TOL_COUPLE
    split = np.any(reach[:, subset], axis=1) & (np.sum(reach, axis=1) > 1)
    split_modes = frozenset(np.flatnonzero(split).tolist())

    def verdict(witness=None):
        return SeparabilityVerdict(witness is None, witness, split_modes, subset)

    fock = np.flatnonzero(split & (spec.photons >= 1))
    if fock.size:
        return verdict(Witness("non_gaussian", None, (int(fock[0]),), None))
    cross = np.abs(bargmann_exponent(u.matrix, spec.lam)[subset, :]) / 2
    cross[np.arange(len(subset)), subset] = 0.0
    over = np.argwhere(cross > TOL_CROSS)
    if over.size:
        i, kp = over[0]
        return verdict(Witness("d2_cross_term", 2, (subset[i], int(kp)), float(cross[i, kp])))
    return verdict()


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
    checked first since the criterion certifies only pure products.  A
    covariance that is not ``2n x 2n`` for the bipartition's ``n`` modes
    raises :class:`DimensionMismatch`.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = part.mode_count
    if sigma.shape != (2 * n, 2 * n):
        raise DimensionMismatch(f"covariance of shape {sigma.shape} for a {n}-mode "
                                f"bipartition; it needs {(2 * n,) * 2}")
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

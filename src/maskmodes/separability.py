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

from .errors import DimensionMismatch, EmptyPartition, NotGaussian, NotPure, OutOfRange, PrecisionLoss
from .entanglement import _indices
from .fock import bargmann_exponent

#: Entry magnitude ``|U[j,k]|`` above which a network couples input ``j`` to output ``k``.
TOL_COUPLE = 1e-12
TOL_CROSS = 1e-12
#: Largest inter-partition covariance entry of a product state.
TOL_COVARIANCE = 1e-9
#: Largest symplectic-eigenvalue residual ``max |nu - 1|`` of a pure state.
TOL_PURITY = 1e-8
#: ``c`` of the purity residual's first-order rounding bound ``c * n * eps * ‖σ‖₂²``.
PURITY_ROUNDING = 8.0

_EPS = float(np.finfo(float).eps)
#: Largest ``|lam|`` whose ``e^{2|lam|}`` is finite.
_MAX_LAMBDA = float(np.log(np.finfo(float).max)) / 2


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


def gaussian_covariance_propagate(spec, u):
    """Output covariance of an all-Gaussian input spec through a passive network.

    Quadratures are ordered ``(x_1..x_N, p_1..p_N)`` with the vacuum
    covariance equal to the identity (Weedbrook et al., RMP 84, 621 (2012),
    §II).  The output is ``O diag(d) Oᵀ`` with ``d = e^{[2 lam, -2 lam]}``
    and ``O = [[Re Uᵀ, -Im Uᵀ], [Im Uᵀ, Re Uᵀ]]`` (same orientation as
    :func:`~maskmodes.fock.apply_unitary`); displacements move only the
    mean, which no verdict reads.  A spec of another mode count raises
    :class:`DimensionMismatch`, one with Fock photons :class:`NotGaussian`,
    and a squeezing whose ``e^{2|lam|}`` overflows :class:`OutOfRange`.
    """
    if spec.mode_count != u.dim:
        raise DimensionMismatch("input mode count does not match the network")
    fock = np.flatnonzero(spec.photons)
    if fock.size:
        raise NotGaussian(f"input mode {fock[0]} holds Fock photons; "
                          "the covariance oracle takes Gaussian inputs only")
    big = np.flatnonzero(np.abs(spec.lam) > _MAX_LAMBDA)
    if big.size:
        raise OutOfRange(f"input mode {big[0]} squeezing {spec.lam[big[0]]:g}: "
                         "its covariance e^(2|lam|) overflows")
    ut = u.matrix.T
    a, b = ut.real, ut.imag
    o = np.block([[a, -b], [b, a]])
    d = np.exp(np.concatenate([2.0 * spec.lam, -2.0 * spec.lam]))
    return (o * d) @ o.T


def symplectic_purity_residual(sigma):
    n = sigma.shape[0] // 2
    omega = np.zeros_like(sigma)
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    nu = np.abs(np.linalg.eigvals(1j * omega @ sigma))
    return float(np.max(np.abs(nu - 1.0)))


def covariance_separable(sigma, part):
    """Whether a pure Gaussian state factorizes across the bipartition.

    A pure Gaussian state is a product across a partition iff every
    inter-partition covariance entry is at most ``TOL_COVARIANCE``.  The
    purity precondition is checked first since the criterion certifies only
    pure products: a symplectic-eigenvalue residual above ``TOL_PURITY``
    raises :class:`NotPure`, or :class:`PrecisionLoss` while it is within
    the rounding bound ``PURITY_ROUNDING * n * eps * ‖σ‖₂²`` of a float64
    ``σ`` (a pure state's ``σ`` is as ill-conditioned as it is squeezed).
    A covariance that is not ``2n x 2n`` for the bipartition's ``n`` modes
    raises :class:`DimensionMismatch`.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = part.mode_count
    if sigma.shape != (2 * n, 2 * n):
        raise DimensionMismatch(f"covariance of shape {sigma.shape} for a {n}-mode "
                                f"bipartition; it needs {(2 * n,) * 2}")
    res = symplectic_purity_residual(sigma)
    if res > TOL_PURITY:
        top = float(np.linalg.eigvalsh(sigma)[-1])
        # Python floats, so an overflow gives inf and no warning
        bound = PURITY_ROUNDING * n * _EPS * top * top
        if res <= bound:
            raise PrecisionLoss(f"purity residual {res:.3e} above {TOL_PURITY:.1e} but within "
                                f"its rounding bound {bound:.3e}: the covariance is too "
                                "squeezed for float64 to tell")
        raise NotPure(f"purity residual {res:.3e} above {TOL_PURITY:.1e}")
    a = list(part.subset) + [n + i for i in part.subset]
    b = list(part.complement) + [n + i for i in part.complement]
    cross = sigma[np.ix_(a, b)]
    return bool(np.max(np.abs(cross), initial=0.0) <= TOL_COVARIANCE)

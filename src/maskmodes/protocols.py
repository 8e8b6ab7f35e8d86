"""End-to-end demonstrations: null-detection Bell projection, the
Hong-Ou-Mandel dip and the NOON-attainability scan, each a closed form over
the network's matrix (the dip is the two-mode permanent) with no Fock state."""

from dataclasses import asdict, dataclass

import numpy as np

from ._special import log, log_factorial, xlogy
from .errors import DimensionMismatch, InvalidEfficiency

ATOM_BASIS = ("gg", "ge", "eg", "ee")


@dataclass
class AtomPair:
    """Joint state of two two-level atoms over the basis (gg, ge, eg, ee)."""

    amplitudes: np.ndarray
    efficiency: float

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.shape != (4,):
            raise DimensionMismatch("an atom pair has four amplitudes")
        self.amplitudes = a

    def normalized(self):
        n = np.linalg.norm(self.amplitudes)
        return AtomPair(self.amplitudes / n, self.efficiency)

    def fidelity_with(self, target):
        t = np.asarray(target, dtype=complex)
        t = t / np.linalg.norm(t)
        return float(abs(np.vdot(t, self.amplitudes)) ** 2)

    def bell_fidelity(self):
        """Overlap with the symmetric Bell state ``(|eg> + |ge>)/sqrt(2)``."""
        bell = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        return self.fidelity_with(bell)

    def to_json(self):
        return {
            "basis": list(ATOM_BASIS),
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
            "efficiency": self.efficiency,
        }


def ifm_project(eta, splitter_block):
    """Project two absorber atoms on a null detection behind a 2-port screen.

    One photon enters input port 0 and splits over the two output paths with
    the block's first-row amplitudes.  Each path holds a ground-state atom
    that absorbs with amplitude ``sqrt(eta)`` (photon destroyed, atom
    excited) and passes the photon on with amplitude ``sqrt(1 - eta)``; a
    single perfect bucket detector covers both paths.  Null detection means
    the photon was absorbed, so the returned (post-selected, normalized)
    atom state carries the path amplitudes:

    ``eta = 1`` with the balanced block gives ``(|eg> + |ge>)/sqrt(2)`` with
    null probability 1.

    Returns ``(AtomPair, null_probability)``; probabilities (null plus
    detected) always sum to one.  The single-shot absorber is an idealized
    model: what survives of the projection for ``eta < 1`` is a consequence
    of that model, not an input to it.
    """
    if not 0.0 < eta <= 1.0:
        raise InvalidEfficiency(f"efficiency must be in (0, 1], got {eta}")
    if splitter_block.dim != 2:
        raise DimensionMismatch("the interferometric block must have two modes")
    a1, a2 = splitter_block.matrix[0, 0], splitter_block.matrix[0, 1]
    w = abs(a1) ** 2 + abs(a2) ** 2  # 1 up to float error, row of a unitary
    null_probability = float(eta * w)
    atoms = AtomPair(
        np.array([0.0, a2, a1, 0.0], dtype=complex), efficiency=eta
    ).normalized()
    return atoms, null_probability


def hom_coincidence(u):
    """Probability of a (1, 1) coincidence after sending in ``|1> x |1>``:
    ``|perm U|^2 = |U00 U11 + U01 U10|^2``."""
    if u.dim != 2:
        raise DimensionMismatch("Hong-Ou-Mandel needs a two-mode network")
    m = u.matrix
    return float(abs(m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]) ** 2)


#: Rounds of local refinement around the best grid angle, each ten times narrower.
_REFINE_ROUNDS = 4
#: Angles each refinement round tries.
_REFINE_POINTS = 33


@dataclass
class ScanResult:
    photons: int
    best_fidelity: float
    best_split: int
    best_theta: float
    theta_steps: int

    def __post_init__(self):
        # a fidelity is a probability; strip float dust above 1
        self.best_fidelity = float(min(max(self.best_fidelity, 0.0), 1.0))

    def to_json(self):
        return asdict(self)


def noon_overlap_amplitudes(m, n, theta):
    """|<N,0|out>| and |<0,N|out>| for the split ``(m, n)`` (phi drops out).

    ``sqrt(C(m+n, m)) |c|^m |s|^n`` and its mirror with ``c = cos(theta/2)``,
    ``s = sin(theta/2)``, taken in log space so no photon number overflows.
    """
    c, s = np.abs(np.cos(theta / 2.0)), np.abs(np.sin(theta / 2.0))
    log_c, log_s = log(c), log(s)
    log_pref = 0.5 * (log_factorial(m + n) - log_factorial(m) - log_factorial(n))
    return (
        np.exp(log_pref + xlogy(m, c, log_c) + xlogy(n, s, log_s)),
        np.exp(log_pref + xlogy(n, c, log_c) + xlogy(m, s, log_s)),
    )


def _noon_fidelity_theta(m, n, thetas):
    a, b = noon_overlap_amplitudes(m, n, thetas)
    return (np.abs(a) + np.abs(b)) ** 2 / 2.0


def _noon_table(photons, steps):
    """The ``steps + 1`` splitter angles on ``[0, pi]`` and the NOON fidelity
    of every split ``m + n = photons`` at each: row ``m``, one column per angle.

    The angles include both ends, so doubling ``steps`` refines the grid in
    place.
    """
    if photons < 1:
        raise ValueError("need at least one photon")
    if steps < 64:
        raise ValueError("the scan needs at least 64 angle steps")
    thetas = np.linspace(0.0, np.pi, steps + 1)
    m = np.arange(photons + 1)[:, None]
    return thetas, _noon_fidelity_theta(m, photons - m, thetas)


def noon_scan(photons, steps=256):
    """Best NOON fidelity reachable from any separable two-mode Fock input,
    and the fidelity at each splitter angle.

    Scans every split ``m + n = photons`` over ``steps + 1`` splitter angles
    ``theta`` on ``[0, pi]``, computing
    ``max_chi |<NOON_chi|out>|^2 = (|<N,0|out>| + |<0,N|out>|)^2 / 2``.
    The relative NOON phase is maximized analytically, which also removes the
    splitter phase ``phi``.  The first best entry of the table (lowest split,
    then lowest angle) is sharpened by a few rounds of local refinement; the
    running maximum never decreases under refinement.

    Returns ``(ScanResult, thetas, surface)``, the surface being the grid
    fidelity at each angle maximized over splits, for CSV export and plots.
    """
    thetas, table = _noon_table(photons, steps)
    m, i = np.unravel_index(np.argmax(table), table.shape)
    m, fid, theta = int(m), float(table[m, i]), float(thetas[i])
    half = np.pi / steps
    for _ in range(_REFINE_ROUNDS):
        lo, hi = max(0.0, theta - half), min(np.pi, theta + half)
        ts = np.linspace(lo, hi, _REFINE_POINTS)
        f = _noon_fidelity_theta(m, photons - m, ts)
        i = int(np.argmax(f))
        if f[i] > fid:
            fid, theta = float(f[i]), float(ts[i])
        half *= 0.1
    res = ScanResult(photons=photons, best_fidelity=fid, best_split=m, best_theta=theta,
                     theta_steps=steps)
    return res, thetas, table.max(axis=0)

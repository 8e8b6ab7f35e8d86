"""Modal entanglement of pure multimode Fock states.

Bipartite entanglement is read off the singular values of the amplitude
matrix ``Psi[a, b]`` indexed by occupation tuples of the two subsystems:
the squared singular values are the reduced-state eigenvalues, and the von
Neumann entropy (base 2, bits) decides separability against a tolerance.

A term with ``k`` photons in the subset and ``j`` in the complement puts an
entry in row count ``k`` and column count ``j``, so ``Psi`` is block-diagonal
over the connected components of those ``(k, j)`` pairs: one block per ``k``
for a state of definite photon number, two (by parity) for squeezed inputs,
one for anything with a coherent input.  Schmidt spectra take one SVD per
block; the dense matrix is only built where a caller asks for it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPartition, TooManyModes
from .fock import row_codes

#: Entropy threshold (bits) for verdicts on truncated coherent/squeezed
#: inputs; exact Fock inputs support the tighter 1e-9.
DEFAULT_TOL_TRUNCATED = 1e-6
DEFAULT_TOL_EXACT = 1e-9

_EIG_FLOOR = 1e-18
_MAX_SCAN_MODES = 12
_MAX_DENSITY_DIM = 4096


@dataclass(frozen=True)
class Bipartition:
    """Subset of mode indices versus the rest."""

    subset: tuple
    mode_count: int

    def __post_init__(self):
        s = tuple(sorted(set(int(i) for i in self.subset)))
        object.__setattr__(self, "subset", s)
        if not s:
            raise EmptyPartition("bipartition subset is empty")
        if any(i < 0 or i >= self.mode_count for i in s):
            raise EmptyPartition("subset indices outside the mode range")
        if len(s) >= self.mode_count:
            raise EmptyPartition("subset must be a proper subset of the modes")

    @property
    def complement(self):
        return tuple(i for i in range(self.mode_count) if i not in self.subset)

    def mask(self):
        """0/1 membership list, subset marked 1."""
        return [1 if i in self.subset else 0 for i in range(self.mode_count)]


@dataclass
class EntanglementReport:
    schmidt_coefficients: np.ndarray
    entropy_bits: float
    separable: bool
    tolerance: float
    bipartition: Bipartition

    def to_json(self, top_k=8):
        return {
            "bipartition": list(self.bipartition.subset),
            "complement": list(self.bipartition.complement),
            "mask": self.bipartition.mask(),
            "entropy_bits": self.entropy_bits,
            "schmidt_top": [float(s) for s in self.schmidt_coefficients[:top_k]],
            "separable": bool(self.separable),
            "tolerance": self.tolerance,
        }


def _codes(state, modes):
    """Lexicographic rank per term of its occupations on ``modes``, and a state
    row per rank."""
    return row_codes(state.occupations[:, list(modes)])


def _dense(state, a_code, b_code):
    """The whole amplitude matrix, given each term's row and column rank."""
    m = np.zeros((a_code.max() + 1, b_code.max() + 1), dtype=complex)
    m[a_code, b_code] = state.values
    return m


def _basis(state, rows, modes):
    return [tuple(r) for r in state.occupations[np.ix_(rows, modes)].tolist()]


def bipartition_matrix(state, part):
    """Dense amplitude matrix over (subset basis) x (complement basis).

    Returns ``(matrix, row_basis, col_basis)`` where the bases list the
    occupation tuples actually present in the state's support.
    """
    a_code, a_rows = _codes(state, part.subset)
    b_code, b_rows = _codes(state, part.complement)
    m = _dense(state, a_code, b_code)
    return m, _basis(state, a_rows, part.subset), _basis(state, b_rows, part.complement)


def reduced_density(state, part):
    """Reduced density matrix of the subset, with its occupation-tuple basis.

    Positive semidefinite with unit trace (up to float error); the basis is
    restricted to tuples present in the state's support.
    """
    a_code, a_rows = _codes(state, part.subset)
    if len(a_rows) > _MAX_DENSITY_DIM:
        raise TooManyModes(
            f"subset basis has {len(a_rows)} tuples; reduced density capped at "
            f"{_MAX_DENSITY_DIM} (use entanglement_report instead)"
        )
    m = _dense(state, a_code, _codes(state, part.complement)[0])
    return m @ m.conj().T, _basis(state, a_rows, part.subset)


def _count_blocks(k, j):
    """Per term, a block label: the least subset photon count in its block.

    ``k`` and ``j`` are the subset and complement photon counts per term; the
    blocks are the connected components of those ``(k, j)`` pairs."""
    pairs = np.zeros((k.max() + 1, j.max() + 1), dtype=bool)
    pairs[k, j] = True
    link = pairs @ pairs.T  # subset counts that share a complement count
    for _ in range(len(link).bit_length()):  # each squaring doubles the path length
        link = link @ link
    return link.argmax(axis=1)[k]


def _block_ranks(block, occ):
    """Per term, the lexicographic rank of its row of ``occ`` among the distinct
    rows of its block, and the number of distinct rows per block label."""
    code, rows = row_codes(np.column_stack([block, occ]))
    size = np.bincount(block[rows], minlength=block.max() + 1)
    return code - (size.cumsum() - size)[block], size


def entanglement_report(state, part, tol=DEFAULT_TOL_TRUNCATED):
    """Schmidt spectrum (singular values of the amplitude matrix), entropy in
    bits and a separability verdict.

    The spectrum joins one SVD per photon-number block of the amplitude
    matrix (rows and columns in lexicographic order inside a block), sorted
    descending and padded with exact zeros to ``min(rows, cols)``; the dense
    matrix is never allocated.  A one-block state gives the dense SVD's values
    bit for bit.
    """
    sub = state.occupations[:, list(part.subset)]
    comp = state.occupations[:, list(part.complement)]
    block = _count_blocks(sub.sum(axis=1), comp.sum(axis=1))
    r, r_size = _block_ranks(block, sub)
    c, c_size = _block_ranks(block, comp)
    order = block.argsort(kind="stable")
    count = np.bincount(block)
    end = count.cumsum()
    spectra = []
    for b in np.flatnonzero(count):
        t = order[end[b] - count[b]:end[b]]
        m = np.zeros((r_size[b], c_size[b]), dtype=complex)
        m[r[t], c[t]] = state.values[t]
        spectra.append(np.linalg.svd(m, compute_uv=False))
    flat = np.concatenate(spectra)
    s = np.zeros(min(r_size.sum(), c_size.sum()))
    s[: flat.size] = -np.sort(-flat)
    p = s**2
    live = p[p > _EIG_FLOOR]
    entropy = float(-(live * np.log2(live)).sum()) if live.size else 0.0
    entropy = max(entropy, 0.0)
    return EntanglementReport(
        schmidt_coefficients=s,
        entropy_bits=entropy,
        separable=entropy < tol,
        tolerance=tol,
        bipartition=part,
    )


def all_bipartitions(mode_count):
    """Every distinct bipartition, canonicalized to subsets containing mode 0."""
    if mode_count > _MAX_SCAN_MODES:
        raise TooManyModes(f"bipartition scan supports at most {_MAX_SCAN_MODES} modes")
    parts = []
    others = list(range(1, mode_count))
    for bits in range(2 ** (mode_count - 1)):
        subset = (0,) + tuple(others[i] for i in range(mode_count - 1) if bits >> i & 1)
        if len(subset) < mode_count:
            parts.append(Bipartition(subset, mode_count))
    return parts


def full_separability_scan(state, tol=DEFAULT_TOL_TRUNCATED):
    """One report per distinct bipartition (2^(N-1) - 1 of them).

    The state is fully separable iff every report's verdict is separable.
    """
    return [
        (part, entanglement_report(state, part, tol=tol))
        for part in all_bipartitions(state.mode_count)
    ]


def fully_separable(scan):
    return all(report.separable for _, report in scan)


def scan_to_json(scan):
    return {
        "fully_separable": fully_separable(scan),
        "bipartitions": [report.to_json() for _, report in scan],
    }

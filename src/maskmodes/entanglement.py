"""Modal entanglement of pure multimode Fock states.

Bipartite entanglement is read off the singular values of the amplitude
matrix ``Psi[a, b]`` indexed by occupation tuples of the two subsystems:
the squared singular values are the reduced-state eigenvalues, and the von
Neumann entropy (base 2, bits) decides separability against a tolerance.

A term with ``k`` photons in the subset and ``j`` in the complement puts an
entry in row count ``k`` and column count ``j``, so ``Psi`` is block-diagonal
over the connected components of those ``(k, j)`` pairs: one block per ``k``
for a state of definite photon number, two (by parity) for squeezed inputs,
one for anything with a coherent input.  The dense matrix is only built
where a caller asks for it.

A scan and a single report share one core that takes a chunk of cuts at
once (the report is the one-cut chunk); chunks take cuts of one subset size
together, since those share block shapes.  A layout step turns a chunk into
stacks of blocks, and one shared assembly hands each stack to one
``np.linalg.svd`` call and sorts each cut's singular values.

A *full-support* state, every occupation of one photon number N in M modes
as a term (C(N+M-1, N) of them: a Fock input through a network whose
couplings are all nonzero), has full blocks: block k of a cut S|C is
C(k+|S|-1, k) x C(N-k+|C|-1, N-k), and its entries, row-major, are the
terms in ascending order of one packed key (k, the S occupations, the C
occupations), each side in mode order.  One sort per cut of that key lays
out every block as a slice, reshaped and stacked per (|S|, k).  The key is
an integer product per cut in base N + 1 (:func:`~maskmodes.fock._layout`);
a key longer than one int64 word is sorted by ``lexsort``.

Every other state takes the general layout.  Integer products of the
occupations with every cut's mask, one per int64 key word over that word's
modes, give each term's packed (block label, occupations) keys, and one
more its subset photon count; at one photon number the counts are the
block labels, and otherwise one stacked closure of the count link
matrices gives them (counts that outnumber the terms are ranked first);
one sort per row ranks the keys; and every block of the
chunk is scattered into one zero-filled stack per block shape.

Both layouts build the same matrices, and the gufunc makes the same LAPACK
call per matrix as a lone SVD, so spectra are bit-identical to one SVD per
block.  Chunks are capped by ``_CHUNK_ENTRIES`` (terms plus link-matrix
entries, per cut, times cuts).
"""

import math
import operator
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import DimensionMismatch, EmptyPartition, TooManyModes
from .fock import _layout, _pack

#: Entropy threshold (bits) for verdicts on truncated coherent/squeezed
#: inputs; exact Fock inputs support the tighter 1e-9.
DEFAULT_TOL_TRUNCATED = 1e-6

_EIG_FLOOR = 1e-18
_MAX_SCAN_MODES = 12
_CHUNK_ENTRIES = 1 << 14  # per-cut entries x cuts handled at once by a scan
_SCHMIDT_TOP = 8  # largest Schmidt coefficients a report serializes


@dataclass(frozen=True)
class Bipartition:
    """Subset of mode indices versus the rest."""

    subset: tuple
    mode_count: int

    def __post_init__(self):
        n = _index(self.mode_count, "bipartition mode count")
        s = _indices(self.subset, "bipartition subset")
        object.__setattr__(self, "subset", s)
        object.__setattr__(self, "mode_count", n)
        if not s:
            raise EmptyPartition("bipartition subset is empty")
        if s[0] < 0 or s[-1] >= n:
            raise EmptyPartition("subset indices outside the mode range")
        if len(s) >= n:
            raise EmptyPartition("subset must be a proper subset of the modes")

    @classmethod
    def _trusted(cls, subset, mode_count):
        """The bipartition of a sorted, proper ``subset`` tuple of ints, not checked again."""
        part = object.__new__(cls)
        object.__setattr__(part, "subset", subset)
        object.__setattr__(part, "mode_count", mode_count)
        return part

    @property
    def complement(self):
        inside = set(self.subset)
        return tuple(i for i in range(self.mode_count) if i not in inside)

    def mask(self):
        """0/1 membership list, subset marked 1."""
        mask = [0] * self.mode_count
        for i in self.subset:
            mask[i] = 1
        return mask


def _index(value, what):
    """``value`` as a Python int, or :class:`EmptyPartition` naming it when it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise EmptyPartition(f"{what} {value!r} is not an integer") from None


def _indices(subset, what):
    """The distinct entries of ``subset`` as sorted Python ints, or :class:`EmptyPartition`
    naming ``subset`` when it is no sequence or an entry when it is no integer."""
    try:
        entries = tuple(subset)
    except TypeError:
        raise EmptyPartition(f"{what} {subset!r} is not a sequence") from None
    return tuple(sorted({_index(i, f"{what} entry") for i in entries}))


@dataclass
class EntanglementReport:
    schmidt_coefficients: np.ndarray
    entropy_bits: float
    separable: bool
    tolerance: float
    bipartition: Bipartition

    def to_json(self):
        return {
            "bipartition": list(self.bipartition.subset),
            "complement": list(self.bipartition.complement),
            "mask": self.bipartition.mask(),
            "entropy_bits": self.entropy_bits,
            "schmidt_top": self.schmidt_coefficients[:_SCHMIDT_TOP].tolist(),
            "separable": bool(self.separable),
            "tolerance": self.tolerance,
        }


def _dense_ranks(x):
    """Each entry's rank among the distinct values of its row."""
    order = x.argsort(axis=1)
    ordered = np.take_along_axis(x, order, axis=1)
    new = np.zeros(x.shape, dtype=np.int64)
    new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    rank = np.empty_like(new)
    np.put_along_axis(rank, order, new.cumsum(axis=1), axis=1)
    return rank


def _count_blocks(k, j):
    """Per cut and term, a block label: the least value of ``k`` in its block.

    ``k`` and ``j`` are the subset and complement photon counts (cuts x
    terms), or their ranks; a cut's blocks are the connected components of
    its ``(k, j)`` pairs."""
    counts = int(k.max()) + 1
    row = k + counts * np.arange(len(k))[:, None]  # (cut, k)
    pairs = np.zeros((len(k) * counts, j.max() + 1))
    pairs[row, j] = 1.0
    pairs = pairs.reshape(len(k), counts, -1)
    # 0/1 reachability between subset counts; each squaring doubles the path
    # length, until nothing changes
    link = np.minimum(pairs @ pairs.transpose(0, 2, 1), 1.0)
    while (closed := np.minimum(link @ link, 1.0)).sum() > link.sum():
        link = closed
    return link.argmax(axis=2).ravel()[row]


def _block_labels(k, total):
    """Per cut and term, its block's label, given the subset photon counts ``k``
    (cuts x terms) and the terms' photon numbers ``total``.

    At one photon number N a count k links only to N - k, so each k is its
    own block and labels itself; otherwise :func:`_count_blocks` closes the
    links.  When the counts may outnumber the terms they are ranked first,
    which bounds the link matrices by the terms."""
    ranked = int(total.max()) >= k.shape[1]
    if total.min() == total.max():
        return _dense_ranks(k) if ranked else k
    j = total - k
    if ranked:
        k, j = _dense_ranks(k), _dense_ranks(j)
    return _count_blocks(k, j)


def _ranks(keys, lead, labels):
    """Per row of ``keys`` (rows x terms x words; word 0 is led by the block
    label times ``lead``): each term's rank among the distinct keys of its
    block, and the number of distinct keys per row and label.

    Every row is sorted by one call; in the flat sorted order the (row,
    label) slots ascend, so a block's first rank counts the keys before it."""
    rows, terms = keys.shape[:2]
    if keys.shape[2] == 1:
        order = keys[:, :, 0].argsort(axis=1)
    else:
        order = np.lexsort(keys.transpose(2, 0, 1)[::-1], axis=1)
    order = (order + terms * np.arange(rows)[:, None]).ravel()
    ordered = keys.reshape(-1, keys.shape[2])[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    new[::terms] = True
    slot = ordered[:, 0] // lead + labels * (order // terms)
    size = np.bincount(slot[new], minlength=rows * labels)
    rank = np.empty_like(order)
    rank[order] = new.cumsum() - 1 - (size.cumsum() - size)[slot]
    return rank.reshape(rows, terms), size.reshape(rows, labels)


def _general_stacks(occ, total, values, masks):
    """The block stacks of the cuts ``masks`` (cuts x modes, subset 1), for
    :func:`_spectra`, and each cut's spectrum length ``min(rows, cols)``.
    ``occ`` holds the terms' occupations as int64, ``total`` their photon
    numbers and ``values`` their amplitudes."""
    cuts, top = len(masks), int(total.max())
    # digit 0 of a key is the block label, then the occupations
    digits = _layout(occ.shape[1] + 1, top)
    subset = _pack(occ, digits[1:], masks)
    keys = np.concatenate([subset, _pack(occ, digits[1:]) - subset])  # then complements
    label = _block_labels(masks @ occ.T, total)
    labels = int(label.max()) + 1
    keys += np.concatenate([label, label])[:, :, None] * digits[0]
    rank, size = _ranks(keys, digits[0, 0], labels)
    # block (cut, label) is slot cut * labels + label; one buffer holds every
    # block, grouped by shape (empty slots have shape 0 and come first)
    r_size, c_size = size[:cuts], size[cuts:]
    radix = c_size.max() + 1
    shape = (r_size * radix + c_size).ravel()
    by_shape = shape.argsort(kind="stable")
    extent = (r_size * c_size).ravel()[by_shape]
    offset = np.empty_like(extent)
    offset[by_shape] = extent.cumsum() - extent
    slot = label + labels * np.arange(cuts)[:, None]
    flat = np.zeros(extent.sum(), dtype=complex)
    flat[offset[slot] + rank[:cuts] * c_size.ravel()[slot] + rank[cuts:]] = values
    # a block's singular values follow those of its cut's earlier blocks
    kept = np.minimum(r_size, c_size)
    first = (kept.cumsum(axis=1) - kept).ravel()
    ordered = shape[by_shape]
    starts = np.flatnonzero(ordered > np.append(0, ordered[:-1]))
    stacks = []
    for lo, hi in zip(starts, [*starts[1:], len(shape)]):
        b = by_shape[lo:hi]
        r, c = divmod(shape[b[0]], radix)
        stack = flat[offset[b[0]]:offset[b[0]] + len(b) * r * c].reshape(len(b), r, c)
        stacks.append((stack, b[:, None] // labels, first[b, None] + np.arange(min(r, c))))
    return stacks, np.minimum(r_size.sum(axis=1), c_size.sum(axis=1))


def _full_support_stacks(occ, total, values, masks):
    """:func:`_general_stacks` for a full-support state: its terms are every
    occupation of one photon number N in its modes.

    Block k of a cut S|C is then full, C(k+|S|-1, k) x C(N-k+|C|-1, N-k),
    and its entries, row-major, are the terms in ascending order of the key
    (k, S occupations, C occupations), each side in mode order: one sort
    per cut lays out every block as a slice, with no ranks and no scatter."""
    cuts, modes = masks.shape
    photons = int(total[0])
    digits = _layout(modes + 1, photons)
    side = masks.sum(axis=1)
    if digits.shape[1] == 1:
        # each mode's key digit: the subset's modes first, then the complement's
        before = masks.cumsum(axis=1) - masks
        place = np.where(masks == 1, before, side[:, None] + np.arange(modes) - before)
        strides = digits[1 + place, 0] + masks * digits[0, 0]  # k leads
        order = (strides @ occ.T).argsort(axis=1)
    else:
        # the subset's words, led by k, then the complement's, each in mode order
        subset = _pack(occ, digits[1:], masks)
        complement = _pack(occ, digits[1:]) - subset
        subset[:, :, 0] += (masks @ occ.T) * digits[0, 0]
        keys = np.concatenate([subset, complement], axis=2)
        order = np.lexsort(keys.transpose(2, 0, 1)[::-1], axis=1)
    stacks, width = [], np.empty(cuts, dtype=np.int64)
    for s in sorted(set(side.tolist())):
        cut = np.flatnonzero(side == s)
        block = values[order[cut]]
        rows = [math.comb(k + s - 1, k) for k in range(photons + 1)]
        cols = [math.comb(photons - k + modes - s - 1, photons - k) for k in range(photons + 1)]
        lo = first = 0
        for r, c in zip(rows, cols):
            stacks.append((block[:, lo:lo + r * c].reshape(len(cut), r, c), cut[:, None],
                           np.arange(first, first + min(r, c))))
            lo, first = lo + r * c, first + min(r, c)
        width[cut] = min(sum(rows), sum(cols))
    return stacks, width


def _spectra(stacks, width):
    """Schmidt coefficients of each cut, one row per cut, sorted descending and
    zero-padded, from block ``stacks``: (matrices, their cuts, the columns of
    their singular values in the cut's row), one ``np.linalg.svd`` call each."""
    s = np.zeros((len(width), width.max()))
    for stack, cut, column in stacks:
        s[cut, column] = np.linalg.svd(stack, compute_uv=False)
    return -np.sort(-s, axis=1)


def _reports(state, parts, tol, masks=None):
    """One :class:`EntanglementReport` per bipartition, chunk by chunk of cuts;
    ``masks`` holds the parts' masks as int64 rows when the caller has them."""
    if masks is None:
        masks = np.array([part.mask() for part in parts], dtype=np.int64)
    occ = state.occupations.astype(np.int64)
    total = occ.sum(axis=1)
    # per cut the general layout holds a rank per term and side, and a (k, j)
    # link matrix of the counts; the full-support layout holds less
    top, terms = int(total.max()), len(occ)
    step = max(1, _CHUNK_ENTRIES // (terms + min(top + 1, terms) ** 2))
    # rows are distinct, so C(N+M-1, N) terms of one photon number N are all of them
    full = total.min() == top and terms == math.comb(top + state.mode_count - 1, top)
    layout = _full_support_stacks if full else _general_stacks
    # cuts of one subset size share block shapes, so chunks take them together
    by_size = masks.sum(axis=1).argsort(kind="stable")
    reports = [None] * len(parts)
    for lo in range(0, len(parts), step):
        chunk = by_size[lo:lo + step]
        stacks, width = layout(occ, total, state.values, masks[chunk])
        s = _spectra(stacks, width)
        p = s**2
        live = p > _EIG_FLOOR  # a prefix of each row: s is sorted
        h = p * np.log2(np.where(live, p, 1.0))
        for i, s_cut, n, h_cut, n_live in zip(chunk.tolist(), s, width, h, live.sum(axis=1)):
            # 0.0 first: max keeps it over the -0.0 of a single coefficient 1
            entropy = max(0.0, float(-h_cut[:n_live].sum()))
            reports[i] = EntanglementReport(
                schmidt_coefficients=s_cut[:n],
                entropy_bits=entropy,
                separable=entropy < tol,
                tolerance=tol,
                bipartition=parts[i],
            )
    return reports


def entanglement_report(state, part, tol=DEFAULT_TOL_TRUNCATED):
    """Schmidt spectrum (singular values of the amplitude matrix), entropy in
    bits and a separability verdict.

    The spectrum joins one SVD per photon-number block of the amplitude
    matrix (rows and columns in lexicographic order inside a block), sorted
    descending and padded with exact zeros to ``min(rows, cols)``; the dense
    matrix is never allocated.  A full-support state (every occupation of its
    photon number is a term) reads its blocks as slices of one sort of the
    terms; any other state ranks rows and columns per block, with the same
    bits.  A one-block state gives the dense SVD's values bit for bit.  This
    is the one-cut case of :func:`full_separability_scan`.
    A bipartition of another mode count raises :class:`DimensionMismatch`.
    """
    if part.mode_count != state.mode_count:
        raise DimensionMismatch(
            f"bipartition has {part.mode_count} modes, state has {state.mode_count}")
    return _reports(state, [part], tol)[0]


def _bipartitions(mode_count):
    """Every distinct bipartition, canonicalized to subsets containing mode 0,
    and their masks, one int64 row per cut.

    Cut b holds mode 0 and mode i + 1 where bit i of b is set, for b below
    ``2^(M-1) - 1`` (all bits set would leave no complement)."""
    if mode_count > _MAX_SCAN_MODES:
        raise TooManyModes(f"bipartition scan supports at most {_MAX_SCAN_MODES} modes")
    others = max(mode_count - 1, 0)
    masks = np.ones((2**others - 1, mode_count), dtype=np.int64)
    masks[:, 1:] = np.arange(len(masks))[:, None] >> np.arange(others) & 1
    modes = range(mode_count)
    parts = [Bipartition._trusted(tuple(compress(modes, row)), mode_count)
             for row in masks.tolist()]
    return parts, masks


def full_separability_scan(state, tol=DEFAULT_TOL_TRUNCATED):
    """One report per distinct bipartition (2^(M-1) - 1 of them, for M modes), each
    holding its cut in ``bipartition``.

    The state is fully separable iff every report's verdict is separable.
    Cuts go in chunks of one subset size.  A full-support state (every
    occupation of one photon number N in M modes is a term, as for a Fock
    input through a network with no zero coupling) takes one sort per cut:
    block k of a cut S|C is then the full C(k+|S|-1, k) x C(N-k+|C|-1, N-k)
    matrix, a slice of the sorted terms.  Any other state (a term missing, a
    mode left empty, several photon numbers) ranks its rows and columns per
    block, with the same bits where both apply.
    """
    parts, masks = _bipartitions(state.mode_count)
    return _reports(state, parts, tol, masks)


def fully_separable(scan):
    return all(report.separable for report in scan)


def scan_to_json(scan):
    return {
        "fully_separable": fully_separable(scan),
        "bipartitions": [report.to_json() for report in scan],
    }

"""Multimode occupation-number states and exact propagation through networks.

A state is an occupation matrix (one row per term, one column per mode, rows
in lexicographic order) with a vector of complex amplitudes.  A network acts
by substituting every creation operator according to
``a_j+ -> sum_k U[j, k] a_k+`` and expanding; a passive network conserves
total photon number, so the expansion is exact sector by sector.

One routine expands every state, in normalized amplitudes.  The Gaussian
part of a product input (its displacements and squeezings) becomes the
output Bargmann exponent ``exp(½ zᵀBz + γᵀz)`` with ``B = Uᵀ diag(tanh lam) U``
and ``γ = Uᵀ alpha``; its sectors come from the multidimensional Hermite
recurrence (Miatto & Quesada, Quantum 4, 366 (2020)), read off sector
tables that hold, per mode count and degree, the rows and their links to the
degree below; the tables are built once and cached up to
``SECTOR_TABLE_BYTES``.  A Gaussian part whose amplitudes lose their norm in
the recurrence raises :class:`~maskmodes.errors.PrecisionLoss`.  Every Fock
photon then goes in as one creation step ``w_j+ = sum_k U[j, k] a_k+``, in
one pass over all rows of a state: a product input is its one-row case.

The demonstrations' closed forms need no state and live in
:mod:`maskmodes.protocols`; this module holds states and propagation only.
"""

import bisect
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from math import comb
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._jsonio import decode_array, encode_array, read_file, reading, text_pieces, typed, write_file
from ._special import log_factorial, xlogy
from .errors import (
    DimensionMismatch,
    MalformedDocument,
    NonPhysical,
    OutOfRange,
    PrecisionLoss,
    StateTooLarge,
)

#: Amplitudes below this magnitude are dropped from every state.
DEFAULT_PRUNE = 1e-14
#: Most terms a state may need before it is built (StateTooLarge beyond).
MAX_TERMS = 1_000_000
#: Version of the state document layout that :meth:`MultimodeFockState.to_json` writes.
SCHEMA_VERSION = 2
#: Stored occupations are little-endian int64, whatever type the state holds them in.
_STORED_OCCUPATION = np.dtype("<i8")
#: Largest ``|norm² - 1|`` of a stored state; every state the package writes is within ~1e-15.
_STORED_NORM_TOL = 1e-12
#: Largest ``|Σ|ψ|² - 1|`` of a Gaussian seed (PrecisionLoss beyond); sound seeds are within ~1e-14.
_SEED_NORM_TOL = 2e-10
#: Bytes of sector tables kept between calls (arrays plus per-table overhead).
SECTOR_TABLE_BYTES = 4 * 2**20


# --------------------------------------------------------------------------
# Per-mode descriptors


@dataclass(frozen=True)
class Fock:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise NonPhysical("negative photon number")


@dataclass(frozen=True)
class Coherent:
    alpha: complex

    def __post_init__(self):
        if not np.isfinite(complex(self.alpha)):
            raise NonPhysical(f"coherent amplitude {self.alpha!r} is not finite")


@dataclass(frozen=True)
class SqueezedVacuum:
    lam: float

    def __post_init__(self):
        if not np.isfinite(float(self.lam)):
            raise NonPhysical(f"squeezing {self.lam!r} is not finite")


@dataclass(frozen=True)
class Vacuum:
    pass


def parse_descriptor(text):
    """Parse one mode descriptor: ``vac``, ``fock:N``, ``coh:A``, ``sq:L``."""
    t = text.strip().lower()
    if t in ("vac", "vacuum"):
        return Vacuum()
    if ":" not in t:
        raise ValueError(f"cannot parse mode descriptor {text!r}")
    kind, arg = t.split(":", 1)
    if kind == "fock":
        return Fock(int(arg))
    if kind == "coh":
        return Coherent(complex(arg))
    if kind == "sq":
        return SqueezedVacuum(float(arg))
    raise ValueError(f"unknown descriptor kind {kind!r}")


def _gaussian_amplitudes(alpha, lam, tail=1e-30):
    """Fock amplitudes of a coherent (``lam = 0``) or squeezed vacuum, in log space.

    Coherent: ``exp(-|a|^2/2) a^n / sqrt(n!)``, as far as the Poisson bound
    ``P(N >= mu + t) <= exp(-t^2 / (2 (mu + t/3)))`` reaches ``tail``.
    Squeezed, ``exp(lam (a+^2 - a^2)/2) |0>``: ``amp(2m) = sech(lam)^(1/2)
    tanh(lam)^m sqrt((2m)!) / (2^m m!)`` (the positive-``tanh`` branch of this
    ordering, whose quadrature variances are ``exp(+-2 lam)``), as far as
    ``P(N > 2m) <= cosh(lam) tanh(lam)^(2m+2)`` reaches ``tail``.  At most
    ``MAX_TERMS + 1`` amplitudes, beyond which no state is built anyway.
    """
    c = -np.log(tail)
    if lam == 0:
        mu = abs(alpha) ** 2
        n = np.arange(min(int(mu + c / 3 + np.sqrt(c * c / 9 + 2 * c * mu)) + 2, MAX_TERMS + 1))
        mag = np.exp(-mu / 2 + xlogy(n, abs(alpha)) - 0.5 * log_factorial(n))
        return mag * np.exp(1j * np.angle(alpha) * n)
    t = np.tanh(lam)
    n = np.arange(min(int((c + np.log(np.cosh(lam))) / -np.log(abs(t))) + 3, MAX_TERMS + 1))
    m, odd = np.divmod(n, 2)
    log_mag = (xlogy(m, abs(t)) + 0.5 * log_factorial(2 * m) - log_factorial(m)
               - m * np.log(2.0) - 0.5 * np.log(np.cosh(lam)))
    return np.where(odd, 0.0, np.sign(t) ** m * np.exp(log_mag)).astype(complex)


def _total_degree_cap(probabilities, tail=1e-20):
    """Smallest total degree above which the product's weight is at most ``tail``.

    ``probabilities`` are per-mode photon-number distributions.  The weight
    above each degree is summed from the top, so it is resolved far below
    the float64 spacing of the total weight.
    """
    dist = np.ones(1)
    for p in probabilities:
        dist = np.convolve(dist, p)
    above = np.append(np.cumsum(dist[::-1])[::-1][1:], 0.0)
    return int(np.argmax(above <= tail))


class InputStateSpec:
    """Separable input, translated once into per-mode arrays.

    Mode j is ``(a_j+)^photons[j] / sqrt(photons[j]!)`` applied to the vacuum
    displaced by ``alpha[j]`` or squeezed by ``lam[j]`` (a descriptor sets at
    most one of the three).  The engine, the checker and the covariance
    oracle all read these arrays.

    The total photon number T above which the input weight is at most 1e-20
    (Fock photons plus the cap of the Gaussian modes' convolved
    photon-number distribution) and the Gaussian modes' amplitudes up to it
    are computed on first use, by :func:`build_input_state` or
    :func:`apply_unitary`; the checker needs neither.  A mode whose mean
    photon number alone makes ``C(n + M, M)`` over M modes exceed
    ``MAX_TERMS`` then raises :class:`~maskmodes.errors.StateTooLarge` before
    any vector is allocated.  A Fock mode of more than ``MAX_TERMS`` photons,
    which no state holds, is refused here.
    """

    def __init__(self, descriptors):
        descriptors = list(descriptors)
        if not descriptors:
            raise ValueError("need at least one mode")
        n_modes = len(descriptors)
        self.alpha = np.zeros(n_modes, dtype=complex)
        self.lam = np.zeros(n_modes)
        photons = [0] * n_modes
        for j, d in enumerate(descriptors):
            if isinstance(d, Coherent):
                self.alpha[j] = d.alpha
            elif isinstance(d, SqueezedVacuum):
                self.lam[j] = d.lam
            elif isinstance(d, Fock):
                photons[j] = int(d.n)
            elif not isinstance(d, Vacuum):
                raise TypeError(f"unknown descriptor {d!r}")
        if max(photons) > MAX_TERMS:
            _check_one_mode(MAX_TERMS, n_modes)
        self.photons = np.array(photons, dtype=np.int64)

    @cached_property
    def _truncation(self):
        """T and the amplitudes of each Gaussian mode up to it: ``(T, {mode: amplitudes})``."""
        # mean photon number per mode, clipped where it alone passes MAX_TERMS
        root = 2 * np.sqrt(MAX_TERMS)
        mean = (np.minimum(np.abs(self.alpha), root) ** 2
                + np.sinh(np.minimum(np.abs(self.lam), np.arcsinh(root))) ** 2)
        _check_one_mode(min((self.photons + mean).max(), MAX_TERMS), self.mode_count)
        amps = {j: _gaussian_amplitudes(self.alpha[j], self.lam[j])
                for j in np.flatnonzero((self.alpha != 0) | (self.lam != 0)).tolist()}
        top = _total_degree_cap([np.abs(a) ** 2 for a in amps.values()])
        return int(self.photons.sum()) + top, {j: a[: top + 1] for j, a in amps.items()}

    @classmethod
    def parse(cls, text):
        """Build from a comma-separated descriptor string, e.g. ``"fock:2,vac"``."""
        return cls([parse_descriptor(p) for p in text.split(",")])

    @property
    def mode_count(self):
        return len(self.photons)


# --------------------------------------------------------------------------
# Occupation rows packed into int64 words

_INT64_MAX = int(np.iinfo(np.int64).max)
#: Natural log of the smallest normal float64.
_LOG_TINY = float(np.log(np.finfo(float).tiny))


def _layout(n_modes, top):
    """The (modes x words) stride matrix: mode k is digit ``k % per`` of int64 word ``k // per``.

    Base ``top + 1``, most significant digit first, so packed rows sort like
    occupation rows; all modes share one word unless that overflows."""
    base = max(int(top), 1) + 1
    per = 1
    while per < n_modes and base ** (per + 1) <= _INT64_MAX:
        per += 1
    k = np.arange(n_modes)
    strides = np.zeros((n_modes, (n_modes - 1) // per + 1), dtype=np.int64)
    strides[k, k // per] = base ** (per - 1 - k % per)
    return strides


def _int_type(n):
    """The narrowest signed integer type that holds ``n`` (int64 at most)."""
    return np.min_scalar_type(-min(int(n) + 1, 2**63))


def _occupation_type(top):
    """The narrowest signed integer type that holds ``top + 1`` (int64 at most)."""
    return _int_type(top + 1)


def _pack(occ, strides, masks=None):
    """Occupation rows (terms x modes) as int64 words (terms x words).

    ``strides`` is a :func:`_layout` matrix (or rows of one); each word is one
    integer product over its own modes, so packing costs terms x modes
    however many words there are.  With ``masks`` (cuts x modes of 0/1) every
    cut packs the rows with its other modes zeroed: (cuts x terms x words)."""
    if strides.shape[1] == 1:  # one word: one product, without the per-word split
        return occ @ strides if masks is None else ((masks * strides[:, 0]) @ occ.T)[..., None]
    word = strides.argmax(axis=1)  # modes in word order: each word is a slice
    bounds = np.searchsorted(word, np.arange(strides.shape[1] + 1)).tolist()
    out = []
    for w, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        digit = strides[lo:hi, w]
        out.append(occ[:, lo:hi] @ digit if masks is None
                   else (masks[:, lo:hi] * digit) @ occ[:, lo:hi].T)
    return np.stack(out, axis=-1)


def _lex_runs(words):
    """Lexicographic order of packed rows and where each run of equal rows starts."""
    order = np.lexsort(words.T[::-1])
    w = words.take(order, axis=0)
    start = np.ones(len(w), dtype=bool)
    start[1:] = (w[1:] != w[:-1]).any(axis=1)
    return order, start


def _merge(words, vals):
    """Index of each distinct packed row (in lexicographic order) and its summed amplitude."""
    order, start = _lex_runs(words)
    first = start.nonzero()[0]
    return order.take(first), np.add.reduceat(vals.take(order), first)


def row_codes(occ):
    """Each row's rank among the distinct rows (lexicographic), and a row index per rank."""
    order, start = _lex_runs(_pack(occ, _layout(occ.shape[1], occ.max(initial=0))))
    codes = np.empty(len(occ), dtype=np.int64)
    codes[order] = np.cumsum(start) - 1
    return codes, order[start]


def _check_stored_rows(occ):
    """Refuse stored rows that no state holds (see :meth:`MultimodeFockState.from_json`)."""
    negative = np.any(occ < 0, axis=1)
    if negative.any():
        raise NonPhysical(f"negative occupation in stored row {occ[negative][0].tolist()}")
    step = np.diff(occ, axis=0)  # no overflow: every entry is at least 0
    lead = (step != 0).argmax(axis=1)  # the first mode where a row differs from the one before
    bad = np.flatnonzero(step[np.arange(len(step)), lead] <= 0)
    if bad.size:
        raise MalformedDocument(f"stored rows {bad[0]} and {bad[0] + 1} are not distinct and in "
                                "strictly increasing lexicographic order")
    if len(occ) and occ.max() > _INT64_MAX // occ.shape[1]:  # only then can a total pass int64
        total = int(occ.astype(object).sum(axis=1).max())  # Python integers do not wrap
        if total > _INT64_MAX:
            raise MalformedDocument(f"a stored row holds {total} photons, more than int64 counts")


# --------------------------------------------------------------------------
# States


class MultimodeFockState:
    """Sparse multimode pure state.

    ``occupations`` is a read-only int matrix (terms x modes), rows distinct and
    lexicographic, of the narrowest signed type that holds its largest entry
    plus one (int8 for up to 126 photons in a mode); arithmetic on it must
    widen.  ``values`` holds their amplitudes.  ``amplitudes`` is a
    read-only ``{tuple: complex}`` view.  Amplitudes below ``DEFAULT_PRUNE``
    are dropped."""

    def __init__(self, mode_count, amplitudes, normalize=True):
        mode_count = int(mode_count)
        bad = next((t for t in amplitudes if len(t) != mode_count), None)
        if bad is not None:
            raise DimensionMismatch(f"tuple {bad} does not have {mode_count} modes")
        occ = np.array(list(amplitudes), dtype=np.int64).reshape(len(amplitudes), mode_count)
        if np.any(occ < 0):
            raise NonPhysical(f"negative occupation in {tuple(occ[np.any(occ < 0, axis=1)][0])}")
        vals = np.array(list(amplitudes.values()), dtype=complex)
        order = np.lexsort(occ.T[::-1])
        self._set(mode_count, occ[order], vals[order], normalize)

    @classmethod
    def _from_sorted(cls, mode_count, occ, vals, normalize=True):
        """Build from distinct rows already in lexicographic order (arrays kept, not copied)."""
        state = cls.__new__(cls)
        state._set(mode_count, occ, vals, normalize)
        return state

    def _set(self, mode_count, occ, vals, normalize):
        if not np.all(np.isfinite(vals)):
            raise NonPhysical("state has a non-finite amplitude")
        keep = np.abs(vals) >= DEFAULT_PRUNE
        if not keep.all():
            occ, vals = occ[keep], vals[keep]
        if not len(vals):
            raise NonPhysical("state has no amplitude above the prune threshold")
        if normalize:
            with np.errstate(over="ignore"):  # a norm past the float range is refused below
                norm = np.linalg.norm(vals)
            if not np.isfinite(norm):
                raise OutOfRange("state amplitudes are too large for their norm to be computed")
            vals = vals / norm
        occ = occ.astype(_occupation_type(occ.max(initial=0)), copy=False)
        occ.flags.writeable = vals.flags.writeable = False
        self.mode_count, self.occupations, self.values = mode_count, occ, vals
        self._spec = None  # the InputStateSpec of a product input, set by build_input_state

    @classmethod
    def from_occupation(cls, tup):
        return cls(len(tup), {tuple(tup): 1.0})

    @classmethod
    def vacuum(cls, mode_count):
        return cls(mode_count, {(0,) * mode_count: 1.0})

    @property
    def amplitudes(self):
        """Read-only ``{occupation tuple: amplitude}`` view, in lexicographic order."""
        return MappingProxyType(
            dict(zip(map(tuple, self.occupations.tolist()), self.values.tolist()))
        )

    def norm_sq(self):
        return float(np.sum(np.abs(self.values) ** 2))

    def amplitude(self, tup):
        if len(tup) != self.mode_count:
            return 0.0 + 0.0j
        hit = np.flatnonzero(np.all(self.occupations == np.asarray(tup), axis=1))
        return complex(self.values[hit[0]]) if hit.size else 0.0 + 0.0j

    def to_json(self):
        """The state document: ``terms`` x ``mode_count`` little-endian int64
        occupations (rows lexicographic) and ``terms`` complex128 amplitudes,
        each one base64 payload; the round trip is bit-exact."""
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "state",
            "mode_count": self.mode_count,
            "terms": len(self.values),
            "occupations_b64": encode_array(self.occupations, _STORED_OCCUPATION),
            "values_b64": encode_array(self.values),
        }

    @classmethod
    def from_json(cls, doc):
        """Read a state document, or the ``propagate`` artifact that holds one.

        A document that :meth:`to_json` cannot have written is refused:
        :class:`MalformedDocument` for a schema-1 pair list, rows that repeat
        or break lexicographic order, or a row whose photon total passes
        int64; :class:`NonPhysical` for a negative occupation or a norm²
        further than ``1e-12`` from 1.
        """
        with reading():
            doc = typed(doc, "state", "state")
            if "amplitudes" in doc and "occupations_b64" not in doc:
                raise MalformedDocument(
                    "schema-1 [occupation, re, im] list state: states are now stored as base64 "
                    "'occupations_b64' (int64) and 'values_b64' (complex128), "
                    f"schema {SCHEMA_VERSION}"
                )
            mode_count, terms = operator.index(doc["mode_count"]), doc["terms"]
            if mode_count < 1:
                raise MalformedDocument(f"a state needs at least one mode, not {mode_count}")
            occ = decode_array(doc["occupations_b64"], (terms, mode_count), _STORED_OCCUPATION)
            vals = decode_array(doc["values_b64"], (terms,))
        _check_stored_rows(occ)
        state = cls._from_sorted(mode_count, occ, vals, normalize=False)
        with np.errstate(over="ignore"):  # a huge amplitude gives an infinite norm, refused here
            norm_sq = state.norm_sq()
        if not abs(norm_sq - 1.0) <= _STORED_NORM_TOL:
            raise NonPhysical(f"stored state has norm² {norm_sq!r}; a state has norm 1")
        return state

    def save(self, path):
        write_file(path, text_pieces(self.to_json()))

    @classmethod
    def load(cls, path):
        return read_file(path, cls.from_json)

    def __repr__(self):
        return f"<MultimodeFockState modes={self.mode_count} terms={len(self.values)}>"


def state_fidelity(a, b):
    """``|<a|b>|^2``; 1 iff the states agree up to a global phase."""
    if a.mode_count != b.mode_count:
        raise DimensionMismatch("states have different mode counts")
    codes, distinct = row_codes(np.vstack([a.occupations, b.occupations]))
    va = np.zeros(len(distinct), dtype=complex)
    va[codes[: len(a.values)]] = np.conj(a.values)
    return float(abs(va[codes[len(a.values):]] @ b.values) ** 2 / (a.norm_sq() * b.norm_sq()))


def _check_size(estimate, what):
    if estimate > MAX_TERMS:
        raise StateTooLarge(f"up to {estimate} {what}; the limit is {MAX_TERMS}",
                            estimated_terms=estimate)


def _check_one_mode(photons, n_modes):
    """Refuse ``photons`` in one of ``n_modes`` modes if that alone passes ``MAX_TERMS`` terms."""
    n = int(photons)
    _check_size(comb(n + n_modes, n_modes), f"terms for at least {n} photons in one mode over "
                f"{n_modes} modes")


def build_input_state(spec):
    """Product state of the spec's modes up to its total degree T, renormalized.

    The row of Fock photons is expanded over each Gaussian mode in turn; a
    Fock or vacuum mode never branches.  The spec is kept on the state:
    :func:`apply_unitary` expands a product input from it instead of term by
    term.
    """
    top, gaussian = spec._truncation
    occ = np.array([spec.photons])
    vals = np.ones(1, dtype=complex)
    deg = occ.sum(axis=1)
    for j, amps in gaussian.items():  # ascending modes, so rows stay lexicographic
        _check_size(len(vals) * len(amps), "input terms")
        grown = (vals[:, None] * amps).ravel()
        total = (deg[:, None] + np.arange(len(amps))).ravel()
        keep = (np.abs(grown) >= DEFAULT_PRUNE) & (total <= top)
        row, occ_j = np.divmod(np.flatnonzero(keep), len(amps))  # every row then its extensions
        occ = occ[row]
        occ[:, j] = occ_j
        vals, deg = grown[keep], total[keep]
    state = MultimodeFockState._from_sorted(spec.mode_count, occ, vals)
    state._spec = spec
    return state


# --------------------------------------------------------------------------
# Propagation


def bargmann_exponent(U, lam):
    """``B = Uᵀ diag(tanh lam) U``: the quadratic exponent of the squeezed part of the output."""
    return U.T @ (np.tanh(lam)[:, None] * U)


class _SectorTable(NamedTuple):
    """The rows of one total degree d over M modes and their links to degree d - 1.

    ``occ`` holds the rows in lexicographic order and ``sqrt_n`` their
    ``sqrt(n)``.  ``down[r, l]`` is the index of ``n - e_l`` in degree
    d - 1, or that degree's row count (a zero slot) where ``n_l = 0``.  A
    row n is built from its first mode ``k`` with ``n_k >= 1`` and its parent
    ``n - e_k``: ``rk`` is the flat index of ``(r, k)`` in ``down`` (so
    ``down.take(rk)`` is the parent) and in ``sqrt_n``, ``pk`` that of
    ``(parent, k)`` in a (degree d - 1) x M matrix.  ``cum_bytes`` counts
    this table and those of the degrees below it.
    """

    occ: np.ndarray
    k: np.ndarray
    rk: np.ndarray
    pk: np.ndarray
    down: np.ndarray
    sqrt_n: np.ndarray
    cum_bytes: int


def _sector_table(prev, n_modes, degree):
    """The read-only table of ``degree`` over ``n_modes`` modes; ``prev`` is that of ``degree - 1``."""
    if prev is None:
        occ = np.zeros((1, n_modes), dtype=np.int8)
        arrays = (occ,) + tuple(np.zeros(0, dtype=np.int8) for _ in range(4)) + (occ + 0.0,)
    else:
        rows = len(prev.occ)
        # n + e_k for every row n and mode k, k-major: the first of equal rows has the least k
        cand = (prev.occ[None] + np.eye(n_modes, dtype=np.int64)[:, None]).reshape(-1, n_modes)
        order, start = _lex_runs(_pack(cand, _layout(n_modes, degree)))
        k, parent = np.divmod(order[start], rows)
        occ = cand[order[start]].astype(_occupation_type(degree))
        down = np.full((len(occ), n_modes), rows, dtype=_int_type(rows))
        down[np.cumsum(start) - 1, order // rows] = order % rows
        rk = np.arange(len(occ)) * n_modes + k
        pk = parent * n_modes + k
        arrays = (occ, k.astype(_int_type(n_modes - 1)), rk.astype(_int_type(rk[-1])),
                  pk.astype(_int_type(rows * n_modes)), down, np.sqrt(occ, dtype=float))
    for a in arrays:
        a.flags.writeable = False
    size = sum(map(sys.getsizeof, arrays)) + sys.getsizeof(arrays)
    return _SectorTable(*arrays, size + (prev.cum_bytes if prev else 0))


#: Sector tables per mode count, degrees 0, 1, ... in order; least recently used first.
_sector_tables_cache = {}
#: The slot after a sector's amplitudes that ``down`` points at where ``n_l = 0``.
_ZERO = np.zeros(1, dtype=complex)


def _sector_tables(n_modes, top):
    """The sector tables of degrees ``0..top`` (or more) over ``n_modes`` modes.

    Each degree is built once from the one before, and the cache holds at
    most ``SECTOR_TABLE_BYTES``.  Tables that fit the budget make room by
    dropping the least recently used mode counts; tables that do not keep
    only the degrees that fit the room left, so they never push out the
    others, and the rest are built for this call only.
    """
    tables = _sector_tables_cache.pop(n_modes, None) or [_sector_table(None, n_modes, 0)]
    while len(tables) <= top:
        tables.append(_sector_table(tables[-1], n_modes, len(tables)))
    others = sum(t[-1].cum_bytes for t in _sector_tables_cache.values())
    keep = tables
    if tables[-1].cum_bytes <= SECTOR_TABLE_BYTES:
        while others + tables[-1].cum_bytes > SECTOR_TABLE_BYTES:
            others -= _sector_tables_cache.pop(next(iter(_sector_tables_cache)))[-1].cum_bytes
    else:
        room = SECTOR_TABLE_BYTES - others
        keep = tables[: bisect.bisect_right([t.cum_bytes for t in tables], room)]
    if keep:
        _sector_tables_cache[n_modes] = keep
    return tables


def _gaussian_sectors(U, alpha, lam, top, e_k, dtype):
    """Sectors ``0..top`` of ``C exp(½ zᵀBz + γᵀz) |vac>``, ``B = Uᵀ diag(tanh lam) U``, ``γ = Uᵀ alpha``.

    ``C`` normalizes the input.  In normalized amplitudes the Hermite
    recurrence reads ``sqrt(n_k+1) ψ_{n+e_k} = γ_k ψ_n + Σ_l B_kl sqrt(n_l) ψ_{n-e_l}``.
    The rows of each degree and their links to the degree below come from
    the cached :class:`_SectorTable` of the mode count: a row n is taken
    from its first mode k with ``n_k >= 1``, and
    ``A[n, l] = sqrt(n_l) ψ_{n-e_l}`` is one gather of the sector before.  A
    seed ``C`` below the smallest normal float (``|alpha|² > 1416``) starts
    as a mantissa times ``2**e``, ``e < 0``, and each sector is rescaled by
    an exact power of two, its largest mantissa in [1/2, 1), until ``e``
    reaches 0; nothing underflows on the way.

    With no displacement (``γ = 0``) every odd sector is exactly 0, so
    degree d + 2 is made from degree d: ``A`` of degree d + 1 from its
    table's ``down`` and ``sqrt_n``, then the new sector through the ``pk``
    and ``rk`` of degree d + 2.  The only term left out is ``γ_k ψ_{n-e_k}``,
    a signed zero.  Returns packed rows, occupations (of ``dtype``) and
    amplitudes of the rows that are not exactly 0, sector after sector.
    """
    n_modes = len(U)
    B = bargmann_exponent(U, lam)
    gamma = U.T @ alpha
    tables = _sector_tables(n_modes, top)[: top + 1]
    log_seed = -0.5 * np.sum(np.abs(alpha) ** 2 + np.log(np.cosh(lam)))
    e = 0 if log_seed >= _LOG_TINY else int(np.floor(log_seed / np.log(2.0)))
    psi = np.full(1, np.exp(log_seed - e * np.log(2.0)), dtype=complex)
    A = np.zeros((1, n_modes), dtype=complex)  # held on the same scale 2**e as psi
    sectors = [psi * 2.0**e]
    displaced = gamma.any()
    step = 1 if displaced else 2
    with np.errstate(over="ignore", invalid="ignore"):  # _expand refuses a runaway recurrence
        for d in range(step, top + 1, step):
            t = tables[d]
            if displaced:
                low = np.concatenate((psi, _ZERO)).take(t.down)  # ψ_{n-e_l}
                nxt = (gamma.take(t.k) * low.take(t.rk) + (A @ B).take(t.pk)) / t.sqrt_n.take(t.rk)
                A = t.sqrt_n * low
            else:  # ψ of degree d - 1 is 0: A of that degree from ψ of d - 2
                odd = tables[d - 1]
                A = odd.sqrt_n * np.concatenate((psi, _ZERO)).take(odd.down)
                nxt = (A @ B).take(t.pk) / t.sqrt_n.take(t.rk)
            if e < 0:
                shift = min(int(np.frexp(np.max(np.abs(nxt)))[1]), -e)
                nxt, A, e = nxt * 2.0**-shift, A * 2.0**-shift, e + shift
            psi = nxt
            sectors.append(psi * 2.0**e if e else psi)
    vals = np.concatenate(sectors)
    nonzero = np.flatnonzero(vals)
    occ = np.concatenate([t.occ for t in tables[::step]], dtype=dtype)[nonzero]
    return _pack(occ, e_k), occ, vals[nonzero]


def _expand(U, top, rows, scales, seed=None):
    """``Σ_r scales[r] Π_j (w_j+)^{n_rj} / sqrt(n_rj!)`` applied to a seed, to total degree ``top``.

    ``rows`` holds the photon numbers ``n_r`` and ``w_j+ = Σ_k U[j, k] a_k+``.
    The seed is the vacuum, or for ``seed = (alpha, lam)`` (a product input:
    one row of scale 1) the :func:`_gaussian_sectors` up to degree
    ``top - Σ_j n_rj``.  Those carry at least ``1 - 1e-20`` of the input's
    weight and a passive network keeps it, so only rounding in the
    recurrence can move their norm²: further than ``2e-10`` from 1 raises
    :class:`~maskmodes.errors.PrecisionLoss`.

    All rows go through one creation pass.  A term's packed key holds the
    photons it has still to create (one leading digit per input mode that
    some row fills) and then its output occupations; terms are merged into
    key order first and stay in it.  The i-th step of input mode j takes
    ``w_j+ / sqrt(i)`` from every term with a photon of j left: it moves that
    photon to output mode k, weights the term by
    ``U[j, k] sqrt(n_k + 1) / sqrt(i)`` and merges equal keys, so rows that
    share what is left share its work (Horner's scheme).  The modes before j
    are done, so the terms with none of j left sort first and the active
    terms are a suffix.  A product input is the one-row case: every term is
    active at every step.  Degrees never fall, so every sector up to
    ``top`` is exact.  Returns lexicographic occupation rows and their
    amplitudes.
    """
    filled = rows.any(axis=0).nonzero()[0]
    keys = _layout(len(filled) + len(U), top)
    left, e_k = keys[: len(filled)], keys[len(filled):]
    if seed is None:
        words, occ = 0, np.zeros((len(rows), len(U)), dtype=_occupation_type(top))
        vals = np.asarray(scales, dtype=complex)
    else:
        words, occ, vals = _gaussian_sectors(U, *seed, top - int(rows.sum()), e_k,
                                             _occupation_type(top))
        norm_sq = float(np.vdot(vals, vals).real)
        if not abs(norm_sq - 1.0) <= _SEED_NORM_TOL:
            raise PrecisionLoss("the Hermite recurrence lost the Gaussian input's precision: its "
                                f"amplitudes have norm² {norm_sq!r}, not 1 within {_SEED_NORM_TOL}")
    words = words + _pack(rows[:, filled], left)
    idx, vals = _merge(words, vals)  # terms stay in key order from here on
    words, occ = words[idx], occ[idx]
    for j, digit in zip(filled, left):
        ks = U[j].nonzero()[0]
        u_j, w, shift = U[j, ks, None], int(digit.argmax()), (e_k[ks] - digit)[:, None, :]
        for i in range(1, int(rows[:, j].max()) + 1):
            p = int(words[:, w].searchsorted(digit[w]))  # terms with no photon of j left
            cand = np.concatenate((words[:p], (shift + words[p:]).reshape(-1, e_k.shape[1])))
            idx, vals = _merge(cand, np.concatenate((vals[:p], (
                u_j / np.sqrt(i) * np.sqrt(occ[p:].take(ks, axis=1).T + 1.0) * vals[p:]).ravel())))
            at, parent = np.divmod(idx - p, len(words) - p)  # at < 0: a term kept as it was
            words, occ = cand.take(idx, axis=0), occ.take(np.minimum(idx, parent + p), axis=0)
            moved = (at >= 0).nonzero()[0]
            occ[moved, ks.take(at.take(moved))] += 1
    return occ, vals


def apply_unitary(state, u):
    """Propagate a state through a unitary network (exact expansion).

    A product input from :func:`build_input_state` is expanded from its spec
    up to the total photon number T above which its weight is at most 1e-20
    (so no dropped amplitude exceeds 1e-10): the Gaussian modes as the
    output Bargmann exponent, then one creation step per Fock photon: the
    one-row case of :func:`_expand`.  Any other state, such as the output of
    an earlier network, goes through the same creation pass with all its
    rows at once, so a cascade of networks needs no composed matrix.
    Amplitudes are pruned and renormalized.  Raises
    :class:`~maskmodes.errors.StateTooLarge` before expanding when
    ``C(T + M, M)`` over M modes exceeds ``MAX_TERMS``.
    """
    if u.dim != state.mode_count:
        raise DimensionMismatch(f"network has {u.dim} modes, state has {state.mode_count}")
    n_modes = state.mode_count
    spec = state._spec
    if spec is not None:
        top = spec._truncation[0]
        rows, scales = spec.photons[None], [1.0]
        seed = (spec.alpha, spec.lam) if spec.alpha.any() or spec.lam.any() else None
    else:
        top = int(state.occupations.sum(axis=1).max())
        rows, scales, seed = state.occupations, state.values, None
    _check_size(comb(top + n_modes, n_modes), f"output terms ({top} photons over {n_modes} modes)")
    occ, vals = _expand(u.matrix, top, rows, scales, seed)
    return MultimodeFockState._from_sorted(n_modes, occ, vals)

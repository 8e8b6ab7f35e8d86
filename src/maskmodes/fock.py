"""Multimode occupation-number states and exact propagation through networks.

A state is an occupation matrix (one row per term, one column per mode, rows
in lexicographic order) with a vector of complex amplitudes.  A network acts
by substituting every creation operator according to
``a_j+ -> sum_k U[j, k] a_k+`` and expanding; a passive network conserves
total photon number, so the expansion is exact sector by sector.

One routine expands every state: it multiplies per-mode polynomials into a
sparse coefficient array capped at a total degree, by Horner steps.  A
product input from :func:`build_input_state` is one list of per-mode
factors; any other state is a sum of monomials, each a list of single-power
factors.
"""

import json
from dataclasses import dataclass
from math import comb, factorial
from types import MappingProxyType

import numpy as np
from scipy.special import gammaln

from .errors import CutoffTooSmall, DimensionMismatch, NonPhysical, StateTooLarge

DEFAULT_PRUNE = 1e-14
TRUNCATION_BUDGET = 1e-10
#: Most terms a state may need before it is built (StateTooLarge beyond).
MAX_TERMS = 1_000_000


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


@dataclass(frozen=True)
class SqueezedVacuum:
    lam: float


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


def coherent_amplitudes(alpha, cutoff):
    """``exp(-|a|^2/2) a^n / sqrt(n!)`` up to the cutoff."""
    n = np.arange(cutoff + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    if alpha == 0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return amps
    mag = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - log_fact / 2)
    phase = np.exp(1j * np.angle(complex(alpha)) * n)
    return mag * phase


def squeezed_vacuum_amplitudes(lam, cutoff):
    """Even-n expansion of ``exp(lam (a+^2 - a^2)/2) |0>``.

    ``amp(2m) = sech(lam)^(1/2) tanh(lam)^m sqrt((2m)!) / (2^m m!)``; the
    positive-``tanh`` branch belongs to this operator ordering, for which
    the quadrature variances come out as ``exp(+-2 lam)``.
    """
    m = np.arange(cutoff // 2 + 1)
    amps = np.zeros(cutoff + 1, dtype=complex)
    log_mag = 0.5 * gammaln(2 * m + 1) - gammaln(m + 1) - m * np.log(2.0)
    amps[::2] = np.tanh(lam) ** m * np.exp(log_mag) / np.sqrt(np.cosh(lam))
    return amps


def _one_hot(n):
    return np.eye(n + 1, dtype=complex)[n]


def descriptor_amplitudes(desc, cutoff):
    if isinstance(desc, (Vacuum, Fock)):
        return _one_hot(desc.n if isinstance(desc, Fock) else 0)
    if isinstance(desc, Coherent):
        return coherent_amplitudes(desc.alpha, cutoff)
    if isinstance(desc, SqueezedVacuum):
        return squeezed_vacuum_amplitudes(desc.lam, cutoff)
    raise TypeError(f"unknown descriptor {desc!r}")


def required_cutoff(desc, budget=TRUNCATION_BUDGET, hard_limit=300):
    """Smallest cutoff whose lost squared norm is within the budget."""
    if isinstance(desc, (Vacuum, Fock)):
        return desc.n if isinstance(desc, Fock) else 0
    for c in range(1, hard_limit):
        amps = descriptor_amplitudes(desc, c)
        if 1.0 - float(np.sum(np.abs(amps) ** 2)) <= budget:
            return c
    raise CutoffTooSmall(
        f"descriptor {desc!r} needs a cutoff beyond {hard_limit}", required_cutoff=hard_limit
    )


class InputStateSpec:
    """Separable input: one descriptor per mode plus a Fock cutoff.

    ``cutoff=None`` picks, per mode, the smallest cutoff whose truncation
    error (lost squared norm before renormalization) is at most 1e-10.  An
    explicit cutoff that loses more than that raises
    :class:`~maskmodes.errors.CutoffTooSmall` with the required value.
    """

    def __init__(self, descriptors, cutoff=None):
        self.descriptors = list(descriptors)
        if not self.descriptors:
            raise ValueError("need at least one mode")
        self.cutoff = cutoff
        self.mode_amplitudes = []
        self.truncation_errors = []
        for d in self.descriptors:
            need = required_cutoff(d)
            use = need if cutoff is None else cutoff
            if isinstance(d, Fock) and use < d.n:
                raise CutoffTooSmall(
                    f"Fock({d.n}) does not fit under cutoff {use}", required_cutoff=d.n
                )
            amps = descriptor_amplitudes(d, use)
            lost = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
            if lost > TRUNCATION_BUDGET:
                raise CutoffTooSmall(
                    f"cutoff {use} loses {lost:.3e} of norm for {d!r}; need {need}",
                    required_cutoff=need,
                )
            self.mode_amplitudes.append(amps)
            self.truncation_errors.append(lost)

    @classmethod
    def parse(cls, text, cutoff=None):
        """Build from a comma-separated descriptor string, e.g. ``"fock:2,vac"``."""
        return cls([parse_descriptor(p) for p in text.split(",")], cutoff=cutoff)

    @property
    def mode_count(self):
        return len(self.descriptors)


# --------------------------------------------------------------------------
# Occupation rows packed into int64 words

_INT64_MAX = int(np.iinfo(np.int64).max)


def _layout(n_modes, top):
    """``(per, strides, base)``: mode k is digit ``k % per`` of int64 word ``k // per``.

    Base ``top + 1``, most significant digit first, so packed rows sort like
    occupation rows; all modes share one word unless that overflows."""
    base = max(int(top), 1) + 1
    per = 1
    while per < n_modes and base ** (per + 1) <= _INT64_MAX:
        per += 1
    strides = np.array([base ** (per - 1 - k % per) for k in range(n_modes)], dtype=np.int64)
    return per, strides, base


def _pack(occ, layout):
    per, strides, _ = layout
    return np.add.reduceat(occ * strides, np.arange(0, occ.shape[1], per), axis=1)


def _unpack(words, layout):
    per, strides, base = layout
    return words[:, np.arange(len(strides)) // per] // strides % base


def _lex_runs(words):
    """Lexicographic order of packed rows and where each run of equal rows starts."""
    order = np.lexsort(words.T[::-1])
    w = words[order]
    start = np.ones(len(w), dtype=bool)
    start[1:] = np.any(w[1:] != w[:-1], axis=1)
    return order, start


def _merge(words, vals):
    """Index of each distinct packed row (in lexicographic order) and its summed amplitude."""
    order, start = _lex_runs(words)
    first = np.flatnonzero(start)
    return order[first], np.add.reduceat(vals[order], first)


def row_codes(occ):
    """Each row's rank among the distinct rows (lexicographic), and a row index per rank."""
    order, start = _lex_runs(_pack(occ, _layout(occ.shape[1], occ.max(initial=0))))
    codes = np.empty(len(occ), dtype=np.int64)
    codes[order] = np.cumsum(start) - 1
    return codes, order[start]


# --------------------------------------------------------------------------
# States


class MultimodeFockState:
    """Sparse multimode pure state.

    ``occupations`` is a read-only int matrix (terms x modes), rows distinct and
    lexicographic; ``values`` holds their amplitudes.  ``amplitudes`` is a
    read-only ``{tuple: complex}`` view."""

    def __init__(self, mode_count, amplitudes, prune_threshold=DEFAULT_PRUNE, normalize=True):
        mode_count = int(mode_count)
        bad = next((t for t in amplitudes if len(t) != mode_count), None)
        if bad is not None:
            raise DimensionMismatch(f"tuple {bad} does not have {mode_count} modes")
        occ = np.array(list(amplitudes), dtype=np.int64).reshape(len(amplitudes), mode_count)
        if np.any(occ < 0):
            raise NonPhysical(f"negative occupation in {tuple(occ[np.any(occ < 0, axis=1)][0])}")
        vals = np.array(list(amplitudes.values()), dtype=complex)
        order = np.lexsort(occ.T[::-1])
        self._set(mode_count, occ[order], vals[order], prune_threshold, normalize)

    @classmethod
    def _from_sorted(cls, mode_count, occ, vals, prune_threshold, normalize=True):
        """Build from distinct rows already in lexicographic order."""
        state = cls.__new__(cls)
        state._set(mode_count, occ, vals, prune_threshold, normalize)
        return state

    def _set(self, mode_count, occ, vals, prune_threshold, normalize):
        keep = np.abs(vals) >= prune_threshold
        occ, vals = occ[keep], vals[keep]
        if not len(vals):
            raise ValueError("state has no amplitude above the prune threshold")
        if normalize:
            vals = vals / np.linalg.norm(vals)
        occ.flags.writeable = vals.flags.writeable = False
        self.mode_count, self.occupations, self.values = mode_count, occ, vals
        self.prune_threshold = prune_threshold
        self._factors = None  # per-mode factors, set by build_input_state

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

    def sector_norms(self):
        """Squared norm per total photon number."""
        totals = self.occupations.sum(axis=1)
        weights = np.bincount(totals, weights=np.abs(self.values) ** 2)
        return {int(n): float(weights[n]) for n in np.unique(totals)}

    def to_json(self):
        return {
            "schema_version": 1,
            "type": "state",
            "mode_count": self.mode_count,
            "amplitudes": [[t, a.real, a.imag]
                           for t, a in zip(self.occupations.tolist(), self.values.tolist())],
        }

    @classmethod
    def from_json(cls, doc):
        if doc.get("type") != "state":
            raise ValueError("document is not a serialized state")
        amps = {tuple(t): complex(re, im) for t, re, im in doc["amplitudes"]}
        return cls(doc["mode_count"], amps, normalize=False)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

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


def build_input_state(spec, prune_threshold=DEFAULT_PRUNE):
    """Product state from per-mode descriptors, renormalized to unit norm.

    The per-mode factors are kept on the state: :func:`apply_unitary`
    expands them as one product instead of term by term.
    """
    occ = np.zeros((1, 0), dtype=np.int64)
    vals = np.ones(1, dtype=complex)
    for amps in spec.mode_amplitudes:
        _check_size(len(vals) * len(amps), "input terms")
        # rows stay lexicographic: every old row is followed by its extensions
        grown = (vals[:, None] * amps[None, :]).ravel()
        keep = np.abs(grown) >= prune_threshold
        occ = np.column_stack(
            [np.repeat(occ, len(amps), axis=0), np.tile(np.arange(len(amps)), len(vals))]
        )[keep]
        vals = grown[keep]
    state = MultimodeFockState._from_sorted(spec.mode_count, occ, vals, prune_threshold)
    state._factors = [np.array(f, dtype=complex) for f in spec.mode_amplitudes]
    return state


# --------------------------------------------------------------------------
# Propagation


def _total_degree_cap(factors, tail=1e-20):
    """Smallest total degree above which the input weight is at most ``tail``.

    The weight above each degree is summed from the top, so it is resolved
    far below the float64 spacing of the total weight.
    """
    dist = np.abs(np.asarray(factors[0])) ** 2
    for f in factors[1:]:
        dist = np.convolve(dist, np.abs(np.asarray(f)) ** 2)
    above = np.append(np.cumsum(dist[::-1])[::-1][1:], 0.0)
    return int(np.argmax(above <= tail))


def _expand(terms, U, top):
    """Sum of ``scale * prod_j g_j(w_j) |vac>`` over ``terms``, to total degree ``top``.

    A term is ``(factors, scale)``; ``g_j(x) = sum_n c_jn x^n / sqrt(n!)`` for
    the factor ``c_j`` of mode j, and ``w_j = sum_k U[j, k] a_k+``.  Factors
    go in by Horner steps: multiplying by ``w_j`` adds the packed ``e_k`` to
    every row, drops rows past ``top`` and merges equal rows; degrees never
    fall, so every sector up to ``top`` is exact.  Returns lexicographic
    occupation rows and their amplitudes.
    """
    n_modes = len(U)
    layout = _layout(n_modes, top)
    per, strides, _ = layout
    e_k = np.zeros((n_modes, (n_modes - 1) // per + 1), dtype=np.int64)
    e_k[np.arange(n_modes), np.arange(n_modes) // per] = strides
    out_words, out_vals = [], []
    for factors, scale in terms:
        words = np.zeros((1, e_k.shape[1]), dtype=np.int64)
        vals = np.full(1, scale, dtype=complex)
        deg = np.zeros(1, dtype=np.int64)
        for j, c in enumerate(factors):
            b = np.asarray(c, dtype=complex)[: np.flatnonzero(c)[-1] + 1]
            b = b * np.exp(-0.5 * gammaln(np.arange(1, len(b) + 1)))
            ks = np.flatnonzero(U[j])
            q_words, q_vals, q_deg = words, b[-1] * vals, deg
            for n in range(len(b) - 2, -1, -1):
                live = q_deg < top
                cw = (q_words[live][None] + e_k[ks][:, None]).reshape(-1, e_k.shape[1])
                cv = (U[j, ks][:, None] * q_vals[live]).ravel()
                cd = np.tile(q_deg[live] + 1, len(ks))
                if b[n] != 0:
                    cw = np.concatenate([cw, words])
                    cv = np.concatenate([cv, b[n] * vals])
                    cd = np.concatenate([cd, deg])
                idx, q_vals = _merge(cw, cv)
                q_words, q_deg = cw[idx], cd[idx]
            words, vals, deg = q_words, q_vals, q_deg
        out_words.append(words)
        out_vals.append(vals)
    words, vals = np.concatenate(out_words), np.concatenate(out_vals)
    if len(terms) > 1:
        idx, vals = _merge(words, vals)
        words = words[idx]
    occ = _unpack(words, layout)
    return occ, vals * np.exp(0.5 * gammaln(occ + 1).sum(axis=1))


def apply_unitary(state, u, prune_threshold=None):
    """Propagate a state through a unitary network (exact expansion).

    A product input from :func:`build_input_state` is expanded as one
    product up to the total photon number T above which its weight is at most
    1e-20 (so no dropped amplitude exceeds 1e-10); any other state is
    expanded exactly, monomial by monomial (see :func:`_expand`).  Amplitudes
    are pruned and renormalized.  Raises
    :class:`~maskmodes.errors.StateTooLarge` before expanding when
    ``C(T + M, M)`` over M modes exceeds ``MAX_TERMS``.
    """
    if u.dim != state.mode_count:
        raise DimensionMismatch(f"network has {u.dim} modes, state has {state.mode_count}")
    prune = state.prune_threshold if prune_threshold is None else prune_threshold
    n_modes = state.mode_count
    if state._factors is not None:
        top = _total_degree_cap(state._factors)
        terms = [(state._factors, 1.0)]
    else:
        top = int(state.occupations.sum(axis=1).max())
        terms = [([_one_hot(n) for n in row], a)
                 for row, a in zip(state.occupations.tolist(), state.values)]
    _check_size(comb(top + n_modes, n_modes), f"output terms ({top} photons over {n_modes} modes)")
    occ, vals = _expand(terms, u.matrix, top)
    return MultimodeFockState._from_sorted(n_modes, occ, vals, prune)


# --------------------------------------------------------------------------
# Exact two-mode output of |m> x |n> through an SU(2) block


def two_mode_closed_form(m, n, theta, phi):
    """Closed-form output of ``|m> x |n>`` through the two-mode splitter.

    The splitter convention is that of :meth:`UnitaryMatrix.su2`:
    ``a+ -> cos(t/2) a+ + e^{i phi} sin(t/2) b+`` and
    ``b+ -> -e^{-i phi} sin(t/2) a+ + cos(t/2) b+``.  The double sum runs
    over binomial contributions landing on kets ``|n+k-l> x |m+l-k>``; pairs
    with equal ``k - l`` interfere (Hong-Ou-Mandel at ``m = n = 1``).
    """
    if m < 0 or n < 0:
        raise NonPhysical("negative photon numbers")
    if not (0.0 <= theta <= np.pi):
        raise ValueError("theta must lie in [0, pi]")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    norm0 = np.sqrt(float(factorial(m)) * float(factorial(n)))
    amps = {}
    for k in range(m + 1):
        for l in range(n + 1):
            na, nb = n + k - l, m + l - k
            term = (
                comb(m, k)
                * comb(n, l)
                * np.sqrt(float(factorial(na)) * float(factorial(nb)))
                * c ** (k + l)
                * s ** (m + n - k - l)
                * np.exp(1j * phi * (m - n + l - k))
                * (-1.0) ** (n - l)
            ) / norm0
            amps[(na, nb)] = amps.get((na, nb), 0.0 + 0.0j) + term
    return MultimodeFockState(2, amps)


def noon_overlap_amplitudes(m, n, theta):
    """|<N,0|out>| and |<0,N|out>| for the split ``(m, n)`` (phi drops out)."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    pref = np.sqrt(float(factorial(m + n)) / (float(factorial(m)) * float(factorial(n))))
    return pref * c**m * s**n, pref * c**n * s**m

"""Shared helpers for the test suite."""

from itertools import permutations, product
from math import factorial, sqrt

import numpy as np


def gauge_fix(m):
    """Strip column and row phase freedom: first row, then first column real-positive."""
    m = np.array(m, dtype=complex)
    col_phase = np.where(np.abs(m[0, :]) > 1e-12, m[0, :] / np.abs(np.where(np.abs(m[0, :]) > 0, m[0, :], 1)), 1.0)
    m = m / col_phase[None, :]
    row_phase = np.where(np.abs(m[:, 0]) > 1e-12, m[:, 0] / np.abs(np.where(np.abs(m[:, 0]) > 0, m[:, 0], 1)), 1.0)
    return m / row_phase[:, None]


def align_global_phase(ref, other):
    """Rotate ``other``'s amplitude map so its largest-|ref| entry matches ``ref``."""
    amps = ref.amplitudes
    key = max(amps, key=lambda t: abs(amps[t]))
    a, b = amps[key], other.amplitude(key)
    if abs(b) < 1e-15:
        return dict(other.amplitudes)
    phase = (a / abs(a)) / (b / abs(b))
    return {t: v * phase for t, v in other.amplitudes.items()}


def max_amplitude_diff(a, b):
    """Largest amplitude difference after global-phase alignment of b to a."""
    rot = align_global_phase(a, b)
    keys = set(a.amplitudes) | set(rot)
    return max(abs(a.amplitude(t) - rot.get(t, 0.0)) for t in keys)


def is_connected_dfs(adj):
    """Reference connectivity of the bipartite graph of a boolean matrix, by depth-first search."""
    n, m = adj.shape
    if n == 0:
        return False
    seen_in = np.zeros(n, dtype=bool)
    seen_out = np.zeros(m, dtype=bool)
    stack = [("in", 0)]
    seen_in[0] = True
    while stack:
        side, i = stack.pop()
        if side == "in":
            for k in np.nonzero(adj[i])[0]:
                if not seen_out[k]:
                    seen_out[k] = True
                    stack.append(("out", k))
        else:
            for j in np.nonzero(adj[:, i])[0]:
                if not seen_in[j]:
                    seen_in[j] = True
                    stack.append(("in", j))
    return bool(np.all(seen_in) and np.all(seen_out))


def haar_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def permanent(m):
    """Permanent by brute force over permutations (small matrices only)."""
    n = len(m)
    return sum(np.prod(m[np.arange(n), list(p)]) for p in permutations(range(n)))


def oracle_apply(amplitudes, u, max_photons=5):
    """Output ``{tuple: amplitude}`` of ``amplitudes`` through ``u``, from permanents.

    ``<t|U|s> = perm(U[s, t]) / sqrt(prod s! prod t!)``, where ``U[s, t]``
    repeats row ``j`` of ``U`` ``s_j`` times and column ``k`` ``t_k`` times
    (Scheel, "Permanents in linear optical networks", 2004).
    """
    u = np.asarray(u)
    out = {}
    for s, a in amplitudes.items():
        n = sum(s)
        assert n <= max_photons, "the brute-force oracle is for a few photons"
        rows = np.repeat(np.arange(len(s)), s)
        for t in product(range(n + 1), repeat=len(s)):
            if sum(t) != n:
                continue
            cols = np.repeat(np.arange(len(t)), t)
            norm = sqrt(np.prod([factorial(k) for k in s + t]))
            out[t] = out.get(t, 0.0) + a * permanent(u[np.ix_(rows, cols)]) / norm
    return out

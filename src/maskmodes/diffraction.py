"""Compiling masks and impulse responses into mode-coupling matrices.

A thin diffracting screen multiplies the field by a mask ``M(x, y)``; in the
plane-wave picture the screen couples direction ``n`` to ``n'`` with weight
``|k nz'| * Mspec[k(nx'-nx), k(ny'-ny)] * dOmega_n``, where ``Mspec`` is the
mask spectrum.  Compiled matrices come in two orientations:

* :class:`CouplingMatrix` is scattering-oriented, ``phi_out = C @ phi_in``
  (rows are output modes, columns input modes).
* :class:`UnitaryMatrix` is operator-oriented: row ``j`` holds the output
  decomposition of input mode ``j`` (creation operators map as
  ``a_j+ -> sum_k U[j, k] a_k+``).

:func:`unitarize` bridges the two, transposing the polar factor into the
operator orientation.
"""

import base64
import json

import numpy as np
from scipy.special import j1

from ._jsonio import json_chunks
from .errors import (
    AliasingDetected,
    DimensionMismatch,
    EmptyGrid,
    GridMismatch,
    SingularNetwork,
    SpectralMismatch,
    UnitarityError,
)
from .modes import (
    Grid2D,
    PlaneWaveGrid,
    SampledField,
    centered_fft2,
    centered_ifft2,
    field_overlap,
    sample_field,
)

SCHEMA_VERSION = 1


def jinc(x):
    """``J1(x)/x`` with the exact limit value 1/2 at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-6
    xs = x[small]
    # series J1(x)/x = 1/2 - x^2/16 + O(x^4)
    out[small] = 0.5 - xs**2 / 16.0
    xl = x[~small]
    out[~small] = j1(xl) / xl
    return out if out.ndim else float(out)


# --------------------------------------------------------------------------
# Mask functions


class CosineGrating:
    """Cosine amplitude grating ``cos(k (ux x + uy y))`` for unit vector u.

    The stored direction is the full unit 3-vector ``(ux, uy, uz)``; only the
    transverse part enters the mask.  The spatial period is tied to the
    wavenumber ``k`` supplied at evaluation time so that a plane wave with
    transverse direction ``n`` is sent to the two diffraction orders
    ``n +- (ux, uy)``.
    """

    kind = "cosine_grating"

    def __init__(self, u_transverse):
        ux, uy = float(u_transverse[0]), float(u_transverse[1])
        s2 = ux * ux + uy * uy
        if s2 > 1.0:
            raise ValueError("grating direction must have ux^2 + uy^2 <= 1")
        self.u = np.array([ux, uy, np.sqrt(1.0 - s2)])
        self.u.setflags(write=False)
        assert abs(np.linalg.norm(self.u) - 1.0) < 1e-12

    def sample(self, grid, k=None):
        if k is None:
            raise ValueError("a cosine grating needs the wavenumber k to be sampled")
        X, Y = grid.meshgrid()
        return np.cos(k * (self.u[0] * X + self.u[1] * Y)).astype(complex)

    def params(self):
        return {"u": [self.u[0], self.u[1]]}


class CircularAperture:
    """Open disk of radius R in an absorbing screen: ``M = 1`` inside, 0 outside."""

    kind = "circular_aperture"

    def __init__(self, radius):
        if not radius > 0:
            raise ValueError("aperture radius must be positive")
        self.radius = float(radius)

    def sample(self, grid, k=None):
        X, Y = grid.meshgrid()
        return (X**2 + Y**2 <= self.radius**2).astype(complex)

    def sample_antialiased(self, grid, subsamples=8):
        """Area-weighted samples: each cell holds its covered-area fraction."""
        X, Y = grid.meshgrid()
        off = (np.arange(subsamples) + 0.5) / subsamples - 0.5
        acc = np.zeros_like(X)
        for ox in off:
            for oy in off:
                acc += (X + ox * grid.dx) ** 2 + (Y + oy * grid.dy) ** 2 <= self.radius**2
        return (acc / subsamples**2).astype(complex)

    def analytic_spectrum(self, fsq):
        """Continuous FT ``2 pi R^2 jinc(R |f|)`` evaluated at |f|^2 = fsq."""
        r = self.radius
        return 2.0 * np.pi * r**2 * jinc(r * np.sqrt(fsq))

    def params(self):
        return {"radius": self.radius}


class Pinhole(CircularAperture):
    """Alias for a small circular aperture; same transmission function."""

    kind = "pinhole"


class CustomSampled:
    """Arbitrary complex mask given by samples on a grid."""

    kind = "custom"

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.ny, grid.nx):
            raise GridMismatch("mask samples do not match the stated grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("mask samples must be finite")
        self.grid = grid
        self.values = values.copy()
        self.values.setflags(write=False)

    def sample(self, grid, k=None):
        if grid != self.grid:
            raise GridMismatch("custom mask sampled on a different grid")
        return self.values

    def params(self):
        return {"grid": self.grid.header()}


def mask_to_json(mask):
    doc = {"schema_version": SCHEMA_VERSION, "type": "mask", "kind": mask.kind}
    doc.update(mask.params())
    if isinstance(mask, CustomSampled):
        doc["values_b64"] = base64.b64encode(
            np.ascontiguousarray(mask.values, dtype=np.complex128).tobytes()
        ).decode("ascii")
    return doc


def mask_from_json(doc):
    kind = doc["kind"]
    if kind == "cosine_grating":
        return CosineGrating(doc["u"])
    if kind == "circular_aperture":
        return CircularAperture(doc["radius"])
    if kind == "pinhole":
        return Pinhole(doc["radius"])
    if kind == "custom":
        grid = Grid2D.from_header(doc["grid"])
        raw = base64.b64decode(doc["values_b64"])
        values = np.frombuffer(raw, dtype=np.complex128).reshape(grid.ny, grid.nx)
        return CustomSampled(grid, values)
    raise ValueError(f"unknown mask kind {kind!r}")


# --------------------------------------------------------------------------
# Spectra


def mask_spectrum(mask, grid, k=None, band_edge_tol=1e-2):
    """Discrete Fourier transform of the sampled mask (DC-centered).

    Sign convention ``sum M(x, y) exp(-i (x fx + y fy)) dx dy`` on the grid's
    angular frequency lattice.

    Raises
    ------
    AliasingDetected
        For a cosine grating whose spatial frequency exceeds Nyquist, or for
        generic masks whose band-edge spectral content exceeds
        ``band_edge_tol`` relative to the spectral peak.
    """
    if isinstance(mask, CosineGrating):
        if k is None:
            raise ValueError("a cosine grating needs the wavenumber k")
        fx_max = np.pi / grid.dx
        fy_max = np.pi / grid.dy
        if abs(k * mask.u[0]) > fx_max or abs(k * mask.u[1]) > fy_max:
            raise AliasingDetected(
                "cosine grating frequency beyond the grid Nyquist limit"
            )
    spec = centered_fft2(mask.sample(grid, k=k), grid)
    if not isinstance(mask, CosineGrating):
        peak = float(np.max(np.abs(spec)))
        if peak > 0:
            edge = max(
                float(np.max(np.abs(spec[0, :]))),
                float(np.max(np.abs(spec[-1, :]))),
                float(np.max(np.abs(spec[:, 0]))),
                float(np.max(np.abs(spec[:, -1]))),
            )
            if edge / peak > band_edge_tol:
                raise AliasingDetected(
                    f"band-edge spectral content {edge / peak:.3e} above {band_edge_tol:.1e}"
                )
    return spec


def _interp_spectrum(spec, grid, fx, fy):
    """Bilinear interpolation of a DC-centered spectrum at angular freqs."""
    gx = grid.freq_x()
    gy = grid.freq_y()
    ix = np.interp(fx, gx, np.arange(len(gx)))
    iy = np.interp(fy, gy, np.arange(len(gy)))
    x0 = np.clip(np.floor(ix).astype(int), 0, len(gx) - 2)
    y0 = np.clip(np.floor(iy).astype(int), 0, len(gy) - 2)
    tx = ix - x0
    ty = iy - y0
    v00 = spec[y0, x0]
    v01 = spec[y0, x0 + 1]
    v10 = spec[y0 + 1, x0]
    v11 = spec[y0 + 1, x0 + 1]
    return (1 - ty) * ((1 - tx) * v00 + tx * v01) + ty * ((1 - tx) * v10 + tx * v11)


# --------------------------------------------------------------------------
# Compiled matrices


class CouplingMatrix:
    """Scattering-oriented coupling compiled from a mask or element.

    ``matrix[row, col]`` couples input mode ``col`` to output mode ``row``;
    column norms never exceed 1 (absorptive elements give less).
    """

    def __init__(self, matrix, row_labels, col_labels, provenance=None):
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (len(row_labels), len(col_labels)):
            raise DimensionMismatch("matrix shape does not match label counts")
        if np.max(np.abs(m), initial=0.0) > 1.0 + 1e-9:
            raise ValueError("coupling entries must have magnitude <= 1")
        col_norms = np.linalg.norm(m, axis=0)
        if np.max(col_norms, initial=0.0) > 1.0 + 1e-9:
            raise ValueError("coupling column norms must not exceed 1")
        self.matrix = m.copy()
        self.matrix.setflags(write=False)
        self.row_labels = list(row_labels)
        self.col_labels = list(col_labels)
        self.provenance = dict(provenance or {})

    @property
    def shape(self):
        return self.matrix.shape

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "coupling",
            "rows": [str(l) for l in self.row_labels],
            "cols": [str(l) for l in self.col_labels],
            "matrix": _matrix_to_pairs(self.matrix),
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, doc):
        if doc.get("type") != "coupling":
            raise ValueError("document is not a serialized coupling matrix")
        return cls(
            _pairs_to_matrix(doc["matrix"]),
            doc["rows"],
            doc["cols"],
            provenance=doc.get("provenance"),
        )


def _matrix_to_pairs(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _pairs_to_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


class UnitaryMatrix:
    """Operator-oriented unitary network: ``a_j+ -> sum_k U[j, k] a_k+``.

    The unitarity residual ``||U+ U - I||_F`` is checked at construction and
    recorded.  The ``connected`` flag marks networks that cannot be split
    into independent sub-networks (all ``|U[j, k]| < 1`` then holds).
    """

    RESIDUAL_TOL = 1e-10

    def __init__(self, matrix, provenance=None, tol_couple=1e-12):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("a unitary must be square")
        residual = float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))
        if residual > self.RESIDUAL_TOL:
            raise UnitarityError(
                f"unitarity residual {residual:.3e} above {self.RESIDUAL_TOL:.1e}"
            )
        self.matrix = m.copy()
        self.matrix.setflags(write=False)
        self.residual = residual
        # a unit-magnitude entry is a perfect one-to-one transfer, i.e. a
        # split-off subnetwork: never marked connected
        self.connected = _is_connected(np.abs(m) > tol_couple) and bool(
            np.max(np.abs(m)) < 1.0
        )
        self.provenance = dict(provenance or {})

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def su2(cls, theta, phi=0.0):
        """Two-mode splitter ``[[cos(t/2), e^{i phi} sin(t/2)], [-e^{-i phi} sin(t/2), cos(t/2)]]``."""
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return cls(
            np.array(
                [[c, np.exp(1j * phi) * s], [-np.exp(-1j * phi) * s, c]], dtype=complex
            )
        )

    @classmethod
    def balanced_splitter(cls):
        """The symmetric grating block ``[[1, 1], [1, -1]] / sqrt(2)``."""
        r = 1.0 / np.sqrt(2.0)
        return cls(np.array([[r, r], [r, -r]], dtype=complex))

    def to_json(self):
        return {**self._json_doc(), "matrix": _matrix_to_pairs(self.matrix)}

    def _json_doc(self):
        """``to_json()`` with the matrix left as an ndarray, for the streaming writer."""
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "unitary",
            "dim": self.dim,
            "matrix": self.matrix,
            "unitarity_residual": self.residual,
            "connected": self.connected,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, doc):
        if doc.get("type") != "unitary" and isinstance(doc.get("result"), dict):
            doc = doc["result"]  # artifact envelope written by the CLI
        if doc.get("type") != "unitary":
            raise ValueError("document is not a serialized unitary")
        return cls(_pairs_to_matrix(doc["matrix"]), provenance=doc.get("provenance"))

    def save(self, path):
        with open(path, "w") as fh:
            fh.writelines(json_chunks(self._json_doc()))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("row,col,re,im\n")
            for i in range(self.dim):
                for j in range(self.dim):
                    v = self.matrix[i, j]
                    fh.write(f"{i},{j},{float(v.real)!r},{float(v.imag)!r}\n")


def _is_connected(adj):
    """Connectivity of the bipartite input/output graph given by a boolean matrix.

    Grows the component of input 0 one frontier at a time: the outputs any
    reached input couples to, then the inputs coupled to any reached output.
    """
    n = adj.shape[0]
    if n == 0:
        return False
    seen_in = np.zeros(n, dtype=bool)
    seen_in[0] = True
    reached = 1
    while True:
        seen_out = adj[seen_in].any(axis=0)
        seen_in |= adj[:, seen_out].any(axis=1)
        grown = int(np.count_nonzero(seen_in))
        if grown == reached:
            return bool(reached == n and seen_out.all())
        reached = grown


# --------------------------------------------------------------------------
# Plane-wave coupling (Fourier picture of a thin screen)


def plane_wave_coupling(mask, input_grid, output_grid, k, match_tol=1e-9):
    """Compile a mask into a plane-wave coupling matrix.

    Entry ``(n', n)`` is ``|k nz'| * Mspec[k(n' - n)] * dOmega_n``, then the
    whole matrix is rescaled by one global factor so the largest column norm
    is 1 (the pre-normalization scale is recorded in provenance).

    Analytic masks use their exact spectra: the cosine grating couples each
    input to exactly its two diffraction orders, the circular aperture to the
    jinc profile.  Sampled masks fall back to interpolating the FFT spectrum.
    """
    if len(input_grid) == 0 or len(output_grid) == 0:
        raise EmptyGrid("empty direction grid")
    n_in = input_grid.transverse
    n_out = output_grid.transverse
    nz_out = output_grid.nz
    w_in = input_grid.weights
    m = np.zeros((len(n_out), len(n_in)), dtype=complex)

    if isinstance(mask, CosineGrating):
        u = mask.u[:2]
        for col in range(len(n_in)):
            for sign in (+1.0, -1.0):
                target = n_in[col] + sign * u
                d = np.linalg.norm(n_out - target, axis=1)
                hits = np.nonzero(d <= match_tol)[0]
                for row in hits:
                    m[row, col] += 0.5 * abs(k * nz_out[row]) * w_in[col]
    elif isinstance(mask, CircularAperture):
        for col in range(len(n_in)):
            delta = n_out - n_in[col]
            fsq = (k * delta[:, 0]) ** 2 + (k * delta[:, 1]) ** 2
            m[:, col] = np.abs(k * nz_out) * mask.analytic_spectrum(fsq) * w_in[col]
    elif isinstance(mask, CustomSampled):
        spec = mask_spectrum(mask, mask.grid)
        for col in range(len(n_in)):
            delta = n_out - n_in[col]
            vals = _interp_spectrum(spec, mask.grid, k * delta[:, 0], k * delta[:, 1])
            m[:, col] = np.abs(k * nz_out) * vals * w_in[col]
    else:
        raise TypeError(f"unsupported mask type {type(mask).__name__}")

    scale = float(np.max(np.linalg.norm(m, axis=0), initial=0.0))
    if scale > 0:
        m = m / scale
    prov = {
        "mask": getattr(mask, "kind", "unknown"),
        "k": k,
        "prenormalization_scale": scale,
        "inputs": len(n_in),
        "outputs": len(n_out),
    }
    rows = [tuple(np.round(t, 12)) for t in n_out]
    cols = [tuple(np.round(t, 12)) for t in n_in]
    return CouplingMatrix(m, rows, cols, provenance=prov)


def jinc_envelope(x):
    """Monotone bound on |jinc|: 1/2 near the axis, ``sqrt(2/pi) x^-3/2`` beyond."""
    x = np.asarray(x, dtype=float)
    tail = np.full_like(x, np.inf)
    pos = x > 0
    tail[pos] = np.sqrt(2.0 / np.pi) * x[pos] ** -1.5
    return np.minimum(0.5, tail)


def aperture_output_grid(mask, input_dir, k, half_extent, steps, envelope_floor=1e-4):
    """Direction lattice for a circular aperture, truncated at the jinc envelope.

    Directions where the monotone amplitude envelope (not the oscillating
    profile itself, whose interior zeros stay retained) falls below
    ``envelope_floor`` of its peak are dropped; the discarded squared
    envelope weight is returned alongside the grid.
    """
    lattice = PlaneWaveGrid.lattice(input_dir, half_extent, steps)
    delta = lattice.transverse - np.asarray(input_dir)
    arg = mask.radius * k * np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
    env = lattice.nz * jinc_envelope(arg)
    peak = float(np.max(env))
    keep = env >= envelope_floor * peak
    dropped = float(np.sum(env[~keep] ** 2) / np.sum(env**2))
    grid = PlaneWaveGrid(lattice.transverse[keep], weights=lattice.weights[keep])
    return grid, dropped


# --------------------------------------------------------------------------
# Overlap compilation against mode bases


def overlap_unitary(element, in_basis, out_basis, grid, k=2 * np.pi, loss_threshold=0.05):
    """Couplings ``C[n, m] = <out_n | element(in_m)>`` on a common grid.

    ``element`` may be ``None`` (free space, identity), a mask, or an
    :class:`ImpulseResponse`.  Columns that lose more than ``loss_threshold``
    of their transformed norm to basis truncation are listed in provenance
    under ``truncation_losses`` (reported, not fatal).
    """
    out_fields = [sample_field(l, out_basis, grid, k=k) for l in out_basis.labels]
    cols = []
    losses = {}
    for m_idx, label in enumerate(in_basis.labels):
        f = sample_field(label, in_basis, grid, k=k)
        if element is None:
            tf = f
        elif isinstance(element, ImpulseResponse):
            tf = apply_impulse_response(element, f)
        else:
            from .modes import apply_mask_to_field

            tf = apply_mask_to_field(f, element)
        col = np.array([field_overlap(g, tf) for g in out_fields])
        captured = float(np.sum(np.abs(col) ** 2))
        total = tf.norm_sq()
        if total > 0 and 1.0 - captured / total > loss_threshold:
            losses[str(label)] = 1.0 - captured / total
        cols.append(col)
    matrix = np.column_stack(cols)
    # guard against tiny quadrature overshoot of the unit column bound
    top = float(np.max(np.linalg.norm(matrix, axis=0), initial=0.0))
    if top > 1.0:
        matrix = matrix / top
    prov = {
        "element": getattr(element, "kind", "identity" if element is None else "kernel"),
        "grid": grid.header(),
        "in_basis": in_basis.name,
        "out_basis": out_basis.name,
        "truncation_losses": losses,
    }
    return CouplingMatrix(matrix, list(out_basis.labels), list(in_basis.labels), provenance=prov)


# --------------------------------------------------------------------------
# Unitarization


def polar_factor(m):
    """Closest unitary in Frobenius norm (polar decomposition)."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def unitarize(c, flux_faithful=False, smin_tol=1e-6):
    """Project a compiled coupling onto an exact unitary network.

    Plain mode returns the polar factor of the (square) coupling matrix;
    ``flux_faithful=True`` first embeds any loss into explicitly appended
    ancilla modes via the beam-splitter dilation
    ``[[C, sqrt(I - C C+)], [sqrt(I - C+ C), -C+]]`` so that flux reaching
    the ancillas accounts exactly for absorption.  Either way the result is
    transposed into the operator orientation of :class:`UnitaryMatrix` and
    satisfies the 1e-10 unitarity bound; the Frobenius distance between the
    coupling and its projection is recorded as ``unitarization_distance``.
    """
    m = c.matrix if isinstance(c, CouplingMatrix) else np.asarray(c, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("only square couplings can be unitarized")
    svals = np.linalg.svd(m, compute_uv=False)
    if flux_faithful:
        smax = float(svals[0])
        if smax > 1.0:
            m = m / smax
        d = m.shape[0]
        left = _psd_sqrt(np.eye(d) - m @ m.conj().T)
        right = _psd_sqrt(np.eye(d) - m.conj().T @ m)
        dil = np.block([[m, left], [right, -m.conj().T]])
        w = polar_factor(dil)
        dist = float(np.linalg.norm(w[:d, :d] - m))
    else:
        if float(svals[-1]) <= smin_tol:
            raise SingularNetwork(
                f"smallest singular value {svals[-1]:.3e} at or below {smin_tol:.1e}"
            )
        w = polar_factor(m)
        dist = float(np.linalg.norm(m - w))
    prov = dict(getattr(c, "provenance", {}) or {})
    prov["unitarization_distance"] = dist
    prov["flux_faithful"] = bool(flux_faithful)
    return UnitaryMatrix(w.T, provenance=prov)


def _psd_sqrt(h):
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def complete_to_unitary(columns):
    """Extend orthonormal columns to a full unitary, deterministically.

    The appended columns span the orthogonal complement: (modified)
    Gram-Schmidt runs over the columns of the complement projector
    ``I - V V+`` in order, keeping each one whose residual norm exceeds 1e-9.
    Each kept column is gauge-fixed so its first entry of magnitude above
    1e-12 is real and positive.  Used to realize an effective square network
    from a physical few-column isometry (for example the single-input
    two-order splitting of a cosine grating).
    """
    v = np.atleast_2d(np.asarray(columns, dtype=complex))
    if v.ndim != 2:
        raise ValueError("columns must form a 2D array")
    d, r = v.shape
    if r > d:
        raise DimensionMismatch("more columns than dimensions")
    gram = v.conj().T @ v
    if np.linalg.norm(gram - np.eye(r)) > 1e-9:
        raise ValueError("columns must be orthonormal before completion")
    proj = np.eye(d) - v @ v.conj().T
    basis = []
    for i in range(d):
        w = proj[:, i].copy()
        for b in basis:
            w = w - b * np.vdot(b, w)
        n = np.linalg.norm(w)
        if n > 1e-9:
            w = w / n
            idx = np.argmax(np.abs(w) > 1e-12)
            phase = w[idx] / abs(w[idx])
            basis.append(w / phase)
        if len(basis) == d - r:
            break
    full = np.column_stack([v] + basis)
    return full


def grating_block(mask, k=2 * np.pi):
    """Effective two-port unitary of a cosine grating at normal incidence.

    The physical transformation sends one input plane wave to its two
    diffraction orders; the returned block is that single unit column
    completed to a square unitary (any finite plane-wave truncation of the
    grating ladder is singular, so the completion is the faithful two-mode
    effective network).  For the symmetric grating the result is exactly
    ``[[1, 1], [1, -1]] / sqrt(2)``.
    """
    inp = PlaneWaveGrid.single(0.0, 0.0)
    u = mask.u[:2]
    out = PlaneWaveGrid(np.array([u, -u]))
    c = plane_wave_coupling(mask, inp, out, k)
    col = c.matrix[:, 0]
    col = col / np.linalg.norm(col)
    full = complete_to_unitary(col.reshape(-1, 1))
    prov = dict(c.provenance)
    prov["completion"] = "orthogonal complement, gauge-fixed"
    return UnitaryMatrix(full.T, provenance=prov)


# --------------------------------------------------------------------------
# Impulse-response design (inverse problem)


class ImpulseResponse:
    """Translation-invariant kernel ``h(r - r0)`` sampled on a grid."""

    kind = "impulse_response"

    def __init__(self, grid, values, spectral_cap=None, provenance=None):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.ny, grid.nx):
            raise GridMismatch("kernel samples do not match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel must be finite")
        self.grid = grid
        self.values = values.copy()
        self.values.setflags(write=False)
        self.spectral_cap = spectral_cap
        self.provenance = dict(provenance or {})

    def transfer(self):
        return centered_fft2(self.values, self.grid)

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "impulse_response",
            "grid": self.grid.header(),
            "values_b64": base64.b64encode(
                np.ascontiguousarray(self.values, dtype=np.complex128).tobytes()
            ).decode("ascii"),
            "spectral_cap": self.spectral_cap,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, doc):
        grid = Grid2D.from_header(doc["grid"])
        raw = base64.b64decode(doc["values_b64"])
        values = np.frombuffer(raw, dtype=np.complex128).reshape(grid.ny, grid.nx)
        return cls(grid, values, spectral_cap=doc.get("spectral_cap"))


def inverse_design_response(e_in, e_out, eps_rel=1e-6, lost_tol=1e-3):
    """Kernel turning ``e_in`` into ``e_out`` by the convolution theorem.

    The spectral division is Tikhonov-regularized:
    ``H = F(e_out) conj(F(e_in)) / (|F(e_in)|^2 + eps^2)`` with
    ``eps = eps_rel * max |F(e_in)|``.

    Raises
    ------
    SpectralMismatch
        If more than ``lost_tol`` of the target energy sits at frequencies
        where the input spectrum is below ``eps`` (the division is then
        meaningless there); the error carries the lost fraction.
    """
    if e_in.grid != e_out.grid:
        raise GridMismatch("design requires both fields on one grid")
    si = e_in.spectrum()
    so = e_out.spectrum()
    peak = float(np.max(np.abs(si)))
    if peak == 0:
        raise SpectralMismatch("input spectrum is identically zero", lost_fraction=1.0)
    eps = eps_rel * peak
    dead = np.abs(si) < eps
    total = float(np.sum(np.abs(so) ** 2))
    lost = float(np.sum(np.abs(so[dead]) ** 2)) / total if total > 0 else 0.0
    if lost > lost_tol:
        raise SpectralMismatch(
            f"target has {lost:.3e} of its energy outside the input band",
            lost_fraction=lost,
        )
    transfer = so * np.conj(si) / (np.abs(si) ** 2 + eps**2)
    kernel = centered_ifft2(transfer, e_in.grid)
    cap = float(np.max(np.abs(transfer)))
    prov = {"eps_rel": eps_rel, "lost_fraction": lost}
    return ImpulseResponse(e_in.grid, kernel, spectral_cap=cap, provenance=prov)


def apply_impulse_response(h, field):
    """Convolve a field with a kernel (spectral multiplication)."""
    if h.grid != field.grid:
        raise GridMismatch("kernel and field grids differ")
    out = centered_ifft2(h.transfer() * field.spectrum(), field.grid)
    return SampledField(field.grid, out, field.k)


def design_fidelity(h, e_in, e_out):
    """Overlap fidelity between the designed output and the target."""
    got = apply_impulse_response(h, e_in)
    num = abs(field_overlap(e_out, got)) ** 2
    den = e_out.norm_sq() * got.norm_sq()
    return float(num / den)

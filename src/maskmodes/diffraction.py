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

:func:`unitarize` bridges the two, transposing its unitary projection into
the operator orientation.  A cosine grating at normal incidence needs no
projection: its two orders carry equal weight, so :func:`grating_block`
returns the exact balanced splitter.  A pinhole is a small
:class:`CircularAperture`.
"""

import math

import numpy as np

from ._jsonio import decode_complex, encode_complex, read_file, reading, text_pieces, typed, write_file
from ._special import j1
from .errors import (
    AliasingDetected,
    DimensionMismatch,
    EmptyGrid,
    GridMismatch,
    MalformedDocument,
    OutOfRange,
    SingularNetwork,
    SpectralMismatch,
    UnitarityError,
)
from .modes import (
    Grid2D,
    PlaneWaveGrid,
    SampledField,
    _basis_samples,
    centered_fft2,
    centered_ifft2,
    field_overlap,
)

SCHEMA_VERSION = 2

#: Subsamples per axis of a cell in ``CircularAperture.sample_antialiased``.
_SUBSAMPLES = 8
#: Band-edge spectral content, relative to the peak, that marks a sampled mask as aliased.
_BAND_EDGE_TOL = 1e-2
#: Distance in transverse direction within which a plane wave hits a grating order.
_MATCH_TOL = 1e-9
#: Share of its peak below which the aperture lattice drops the jinc envelope.
_ENVELOPE_FLOOR = 1e-4
#: Share of its transformed norm an overlap column may lose before it is reported.
_LOSS_THRESHOLD = 0.05
#: Most bytes of transformed fields ``overlap_unitary`` holds at once (one field at least).
_BLOCK_BYTES = 1 << 22
#: Smallest singular value that plain unitarization accepts.
_SMIN_TOL = 1e-6
#: Share of the target's energy the kernel design may find outside the input band.
_LOST_TOL = 1e-3


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
        if not s2 <= 1.0:
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
        if not math.isfinite(2.0 * math.pi * radius * radius):
            raise OutOfRange(f"aperture radius {radius!r}: its spectrum scale 2 pi R^2 overflows")
        self.radius = float(radius)

    def sample(self, grid, k=None):
        X, Y = grid.meshgrid()
        return (X**2 + Y**2 <= self.radius**2).astype(complex)

    def sample_antialiased(self, grid):
        """Area-weighted samples: each cell holds its covered-area fraction."""
        X, Y = grid.meshgrid()
        off = (np.arange(_SUBSAMPLES) + 0.5) / _SUBSAMPLES - 0.5
        acc = np.zeros_like(X)
        for ox in off:
            for oy in off:
                acc += (X + ox * grid.dx) ** 2 + (Y + oy * grid.dy) ** 2 <= self.radius**2
        return (acc / _SUBSAMPLES**2).astype(complex)

    def analytic_spectrum(self, fsq):
        """Continuous FT ``2 pi R^2 jinc(R |f|)`` evaluated at |f|^2 = fsq."""
        r = self.radius
        return 2.0 * np.pi * r**2 * jinc(r * np.sqrt(fsq))

    def params(self):
        return {"radius": self.radius}


class CustomSampled:
    """Arbitrary complex mask given by samples on a grid."""

    kind = "custom"

    def __init__(self, grid, values):
        values = np.array(values, dtype=complex, order="C")
        if values.shape != (grid.ny, grid.nx):
            raise GridMismatch("mask samples do not match the stated grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("mask samples must be finite")
        self.grid = grid
        self.values = values
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
        doc.update(encode_complex("values", mask.values))
    return doc


def mask_from_json(doc):
    with reading():
        if not isinstance(doc, dict):
            raise MalformedDocument("document is not a serialized mask")
        kind = doc["kind"]
        if kind == "cosine_grating":
            return CosineGrating(doc["u"])
        if kind in ("circular_aperture", "pinhole"):  # a pinhole is a small circular aperture
            return CircularAperture(doc["radius"])
        if kind == "custom":
            grid = Grid2D.from_header(doc["grid"])
            return CustomSampled(grid, decode_complex(doc, "values", (grid.ny, grid.nx)))
        raise MalformedDocument(f"unknown mask kind {kind!r}")


# --------------------------------------------------------------------------
# Spectra


def mask_spectrum(mask, grid, k=None):
    """Discrete Fourier transform of the sampled mask (DC-centered).

    Sign convention ``sum M(x, y) exp(-i (x fx + y fy)) dx dy`` on the grid's
    angular frequency lattice.

    Raises
    ------
    AliasingDetected
        For a cosine grating whose spatial frequency exceeds Nyquist, or for
        generic masks whose band-edge spectral content exceeds 1e-2 of
        the spectral peak.
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
            if edge / peak > _BAND_EDGE_TOL:
                raise AliasingDetected(
                    f"band-edge spectral content {edge / peak:.3e} above {_BAND_EDGE_TOL:.1e}"
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

    def __init__(self, matrix, provenance=None):
        m = np.array(matrix, dtype=complex, order="C")
        if m.ndim != 2:
            raise DimensionMismatch(f"a coupling must be 2-D, not of shape {m.shape}")
        # written so that a nan entry fails them
        if not np.max(np.abs(m), initial=0.0) <= 1.0 + 1e-9:
            raise ValueError("coupling entries must be finite with magnitude <= 1")
        col_norms = np.linalg.norm(m, axis=0)
        if not np.max(col_norms, initial=0.0) <= 1.0 + 1e-9:
            raise ValueError("coupling column norms must not exceed 1")
        self.matrix = m
        self.matrix.setflags(write=False)
        self.provenance = dict(provenance or {})


class UnitaryMatrix:
    """Operator-oriented unitary network: ``a_j+ -> sum_k U[j, k] a_k+``.

    The unitarity residual ``||U+ U - I||_F`` is checked at construction and
    recorded.

    ``matrix`` is always row-major, read-only ``complex128``.  A real input
    (an aperture's network from :func:`unitarize`, or the ``float64``
    payload of its saved document) is checked as one row-major ``float64``
    array and widened once at the end, with imaginary parts ``+0.0``.  A
    complex input none of whose imaginary parts is nonzero is checked in
    real arithmetic too, and any other in complex arithmetic.
    """

    RESIDUAL_TOL = 1e-10

    def __init__(self, matrix, provenance=None):
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("a unitary must be square")
        if m.dtype.kind in "biuf":  # real: checked as it is, widened once at the end
            a = m = np.ascontiguousarray(m, dtype=float)
        else:
            m = np.asarray(m, dtype=complex)
            a = _working(m)
        if not np.all(np.isfinite(a)):
            raise UnitarityError("a unitary must have finite entries")
        residual = _unitarity_residual(a)
        if residual > self.RESIDUAL_TOL:
            raise UnitarityError(
                f"unitarity residual {residual:.3e} above {self.RESIDUAL_TOL:.1e}"
            )
        del a  # a work array, released before the matrix is made
        self.matrix = m.astype(complex, order="C")  # a new array: widened or copied
        self.matrix.setflags(write=False)
        self.residual = residual
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
        """The 50:50 splitter ``[[1, 1], [1, -1]] / sqrt(2)``: the block of every cosine grating.

        This is the balanced SU(2) element of Campos, Saleh & Teich (PRA 40,
        1371 (1989)); :func:`grating_block` returns exactly these bits.
        """
        r = 1.0 / np.sqrt(2.0)
        return cls(np.array([[r, r], [r, -r]], dtype=complex))

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "type": "unitary",
            "dim": self.dim,
            **encode_complex("matrix", self.matrix),
            "unitarity_residual": self.residual,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, doc):
        with reading():
            doc = typed(doc, "unitary", "unitary")
            if "matrix" in doc and "matrix_b64" not in doc:
                raise MalformedDocument(
                    "schema-1 [re, im] pair-list matrix: compiled matrices are now stored as "
                    f"base64 complex128 (float64 when real-valued) under 'matrix_b64' "
                    f"(schema {SCHEMA_VERSION})"
                )
            dim = doc["dim"]
            return cls(decode_complex(doc, "matrix", (dim, dim)),
                       provenance=doc.get("provenance"))

    def save(self, path):
        write_file(path, text_pieces(self.to_json()))

    @classmethod
    def load(cls, path):
        return read_file(path, cls.from_json)

    def csv_rows(self):
        """One ``row,col,re,im`` line per entry, row-major, floats as their ``repr``."""
        return [
            f"{i},{j},{re!r},{im!r}"
            for i, (re_row, im_row) in enumerate(zip(self.matrix.real.tolist(),
                                                     self.matrix.imag.tolist()))
            for j, (re, im) in enumerate(zip(re_row, im_row))
        ]


def _working(m):
    """``m`` in the arithmetic its entries need.

    A matrix none of whose imaginary parts is nonzero comes back as a
    contiguous ``float64`` array, on which SVDs, products and norms take
    about a third of the time of their complex counterparts; any other
    matrix comes back as it is, so its complex results do not change by a bit.
    """
    m = np.asarray(m)
    if np.iscomplexobj(m) and m.imag.any():
        return m
    return np.ascontiguousarray(m.real, dtype=float)


def _unitarity_residual(m):
    """``||U+ U - I||_F`` of a finite square matrix, from real products.

    A real-valued ``U = X`` (see :func:`_working`) takes one symmetric
    product: ``||X^T X - I||_F``.  Otherwise, with ``U = X + iY`` and
    ``Z = [X; Y]``, ``Re(U+ U) = Z^T Z`` (one symmetric product) and
    ``Im(U+ U) = X^T Y - (X^T Y)^T``.
    """
    a = _working(m)
    n = a.shape[0]
    is_complex = np.iscomplexobj(a)
    if is_complex:  # row-major whatever the layout of ``m``, so its products round alike
        z = np.empty((2 * n, n))
        z[:n] = a.real
        z[n:] = a.imag
    else:
        z = a
    re = z.T @ z
    re.flat[:: n + 1] -= 1.0
    sq = np.vdot(re, re)
    if is_complex:
        xy = z[:n].T @ z[n:]
        im = np.subtract(xy, xy.T, out=re)  # the real part is summed: its buffer is reused
        sq += np.vdot(im, im)
    return math.sqrt(sq)


# --------------------------------------------------------------------------
# Plane-wave coupling (Fourier picture of a thin screen)


def plane_wave_coupling(mask, input_grid, output_grid, k):
    """Compile a mask into a plane-wave coupling matrix.

    Entry ``(n', n)`` is ``|k nz'| * Mspec[k(n' - n)] * dOmega_n``, then the
    whole matrix is rescaled by one global factor so the largest column norm
    is 1 (the pre-normalization scale is recorded in provenance).

    Analytic masks use their exact spectra: the cosine grating couples each
    input to exactly its two diffraction orders, the circular aperture to the
    jinc profile.  The jinc depends on a pair only through its squared offsets
    along x and along y, so it is evaluated once per distinct pair of them:
    on a direction lattice, 256 values for the 6561 entries at 9 steps.
    Sampled masks fall back to interpolating the FFT spectrum.
    """
    if len(input_grid) == 0 or len(output_grid) == 0:
        raise EmptyGrid("empty direction grid")
    n_in = input_grid.transverse
    n_out = output_grid.transverse
    nz_out = output_grid.nz
    w_in = input_grid.weights
    weight = np.abs(k * nz_out)[:, None]

    # extreme k or radius overflow (inf, nan) or underflow: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(mask, CosineGrating):
            delta = n_out[:, None, :] - n_in[None, :, :]
            u = mask.u[:2]
            # at u = 0 the screen is transparent: both orders are the input direction,
            # which takes their two halves
            hits = sum(np.linalg.norm(delta - sign * u, axis=2) <= _MATCH_TOL
                       for sign in (+1.0, -1.0))
            m = hits * (0.5 * weight * w_in[None, :])
        elif isinstance(mask, CircularAperture):
            fx, ix = _squared_offsets(k, n_out[:, 0], n_in[:, 0])
            fy, iy = _squared_offsets(k, n_out[:, 1], n_in[:, 1])
            if fx.size * fy.size < ix.size:
                # a lattice has few distinct offsets: one jinc for each pair of them
                spec = mask.analytic_spectrum(fx[:, None] + fy).reshape(-1)[ix * fy.size + iy]
            else:
                spec = mask.analytic_spectrum(fx[ix] + fy[iy])
            m = weight * spec * w_in[None, :]
        elif isinstance(mask, CustomSampled):
            delta = n_out[:, None, :] - n_in[None, :, :]
            spec = mask_spectrum(mask, mask.grid)
            vals = _interp_spectrum(spec, mask.grid, k * delta[..., 0], k * delta[..., 1])
            m = weight * vals * w_in[None, :]
        else:
            raise TypeError(f"unsupported mask type {type(mask).__name__}")
        # complex before the rescale: dividing a real matrix rounds differently
        m = m.astype(complex)
        scale = float(np.max(np.linalg.norm(m, axis=0), initial=0.0))
    # a disk couples every pair of directions, so its all-zero coupling is underflow
    # (of 2 pi R^2 or of the weights); an all-zero sampled mask is an opaque screen
    underflow = scale == 0 and (np.any(m) or isinstance(mask, CircularAperture))
    if not math.isfinite(scale) or underflow:
        raise OutOfRange(f"coupling column norm {scale!r} at wavenumber {k!r}: "
                         "the entries or their squares over- or underflow float64")
    if scale > 0:
        m = m / scale
    prov = {
        "mask": getattr(mask, "kind", "unknown"),
        "k": k,
        "prenormalization_scale": scale,
        "inputs": len(n_in),
        "outputs": len(n_out),
    }
    return CouplingMatrix(m, provenance=prov)


def _squared_offsets(k, out_coords, in_coords):
    """The distinct values of ``(k (o - i))**2`` over output and input coordinates, and the
    index of each pair's value, one row per output; each value is the bits the pair's own
    expression gives."""
    uo, io = np.unique(out_coords, return_inverse=True)
    ui, ii = np.unique(in_coords, return_inverse=True)
    values, index = np.unique((k * (uo[:, None] - ui[None, :])) ** 2, return_inverse=True)
    return values, index.reshape(-1)[io[:, None] * len(ui) + ii]


def jinc_envelope(x):
    """Monotone bound on |jinc|: 1/2 near the axis, ``sqrt(2/pi) x^-3/2`` beyond."""
    x = np.asarray(x, dtype=float)
    tail = np.full_like(x, np.inf)
    pos = x > 0
    with np.errstate(over="ignore"):  # x^-1.5 of a tiny x overflows to inf, above the cap
        tail[pos] = np.sqrt(2.0 / np.pi) * x[pos] ** -1.5
    return np.minimum(0.5, tail)


def aperture_output_grid(mask, input_dir, k, half_extent, steps):
    """Direction lattice for a circular aperture, truncated at the jinc envelope.

    Directions where the monotone amplitude envelope (not the oscillating
    profile itself, whose interior zeros stay retained) falls below
    1e-4 of its peak are dropped; the discarded squared
    envelope weight is returned alongside the grid.
    """
    lattice = PlaneWaveGrid.lattice(input_dir, half_extent, steps)
    delta = lattice.transverse - np.asarray(input_dir)
    arg = mask.radius * k * np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2)
    env = lattice.nz * jinc_envelope(arg)
    peak = float(np.max(env))
    keep = env >= _ENVELOPE_FLOOR * peak
    dropped = float(np.sum(env[~keep] ** 2) / np.sum(env**2))
    grid = PlaneWaveGrid(lattice.transverse[keep], weights=lattice.weights[keep])
    return grid, dropped


# --------------------------------------------------------------------------
# Overlap compilation against mode bases


def overlap_unitary(element, in_basis, out_basis, grid, k=2 * np.pi):
    """Couplings ``C[n, m] = <out_n | element(in_m)>`` on a common grid.

    ``element`` may be ``None`` (free space, identity), a mask, or an
    :class:`ImpulseResponse`.  Each basis is sampled once.  Columns that lose
    more than 5% of their transformed norm to basis truncation are listed in
    provenance under ``truncation_losses`` (reported, not fatal).  If a column
    norm exceeds 1, the whole matrix is divided by the largest one, which
    provenance records as ``prenormalization_scale`` (1.0 when nothing is
    divided).
    """
    out_flat = _basis_samples(out_basis, grid, k)
    in_flat = out_flat if in_basis is out_basis else _basis_samples(in_basis, grid, k)
    kernel = isinstance(element, ImpulseResponse)
    if kernel and element.grid != grid:
        raise GridMismatch("kernel and field grids differ")
    factor = 1.0 if element is None else element.transfer() if kernel else element.sample(grid, k)
    matrix = np.empty((out_basis.count, in_basis.count), dtype=complex)
    totals = np.empty(in_basis.count)
    step = max(1, _BLOCK_BYTES // out_flat[0].nbytes)
    for lo in range(0, in_basis.count, step):
        block = in_flat[lo:lo + step].reshape(-1, grid.ny, grid.nx)
        tf = centered_ifft2(factor * centered_fft2(block, grid), grid) if kernel else factor * block
        tf = tf.reshape(len(block), -1)
        totals[lo:lo + step] = np.vecdot(tf, tf).real * grid.cell_area
        # conj(out) . tf = conj(out . conj(tf)); tf is a new array, conjugated in place
        matrix[:, lo:lo + step] = np.conj(out_flat @ np.conj(tf, out=tf).T) * grid.cell_area
        del tf  # released before the next block is made
    captured = np.sum(np.abs(matrix) ** 2, axis=0)
    losses = {str(in_basis.labels[i]): 1.0 - float(captured[i] / totals[i])
              for i in np.flatnonzero(captured < (1.0 - _LOSS_THRESHOLD) * totals)}
    # a column norm above 1 (quadrature overshoot, or a mask with gain) is divided out
    scale = max(1.0, float(np.max(np.linalg.norm(matrix, axis=0), initial=0.0)))
    if scale > 1.0:
        matrix = matrix / scale
    prov = {
        "element": getattr(element, "kind", "identity" if element is None else "kernel"),
        "grid": grid.header(),
        "in_basis": in_basis.name,
        "out_basis": out_basis.name,
        "prenormalization_scale": scale,
        "truncation_losses": losses,
    }
    return CouplingMatrix(matrix, provenance=prov)


# --------------------------------------------------------------------------
# Unitarization


def _svd(m):
    """``(a, w, s, vh)``: ``m`` in its working arithmetic and the SVD ``a = W S V+``.

    Raises
    ------
    DimensionMismatch
        If ``m`` is not a non-empty square matrix.
    UnitarityError
        If an entry is not finite.
    """
    if m.ndim != 2 or m.size == 0:
        raise DimensionMismatch(
            f"a matrix to unitarize must be 2-D and non-empty, not of shape {m.shape}"
        )
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("only square couplings can be unitarized")
    a = _working(m)
    if not np.all(np.isfinite(a)):
        raise UnitarityError("a matrix to unitarize must have finite entries")
    return (a, *np.linalg.svd(a))


def polar_factor(m):
    """Closest unitary in Frobenius norm (polar decomposition).

    Computed in real arithmetic, and returned as ``float64``, when no
    imaginary part of ``m`` is nonzero.
    """
    _, w, _, vh = _svd(np.asarray(m))
    return w @ vh


def unitarize(c, flux_faithful=False):
    """Project a compiled coupling onto an exact unitary network from one SVD.

    With ``C = W S V+``, plain mode returns the polar factor ``W V+`` and
    raises :class:`SingularNetwork` if the smallest singular value is at or
    below 1e-6.  ``flux_faithful=True`` instead embeds any loss into
    ``n`` appended ancilla modes, so that flux reaching the ancillas accounts
    exactly for absorption.  If ``s[0] > 1`` the coupling is first divided by
    ``s[0]``; the resulting contraction is dilated in closed form (Halmos):
    ``diag(W, V) [[S, D], [D, -S]] diag(V+, W+)`` with ``D = sqrt(1 - S^2)``,
    i.e. ``[[C, sqrt(I - C C+)], [sqrt(I - C+ C), -C+]]``.

    Either way the result is transposed into the operator orientation of
    :class:`UnitaryMatrix`.  The Frobenius distance between the coupling as
    passed in and the scattering block of the result is recorded as
    ``unitarization_distance``, so a flux-faithful rescale shows there.

    A coupling none of whose imaginary parts is nonzero (an aperture's jinc
    lattice) is unitarized in real arithmetic: SVD, dilation blocks and
    distance.  Its unitary then has imaginary parts of exactly ``+0.0``.
    Any other coupling takes the complex path.

    Raises
    ------
    DimensionMismatch
        If the coupling is not a non-empty square matrix.
    UnitarityError
        If an entry is not finite.
    SingularNetwork
        In plain mode, if the smallest singular value is at or below 1e-6.
    """
    m = c.matrix if isinstance(c, CouplingMatrix) else np.asarray(c, dtype=complex)
    a, w, s, vh = _svd(m)
    if flux_faithful:
        if s[0] > 1.0:
            s = s / s[0]
        d = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
        v, wh = vh.conj().T, w.conj().T
        block = (w * s) @ vh
        u = np.block([[block, (w * d) @ wh], [(v * d) @ vh, -(v * s) @ wh]])
    else:
        if float(s[-1]) <= _SMIN_TOL:
            raise SingularNetwork(
                f"smallest singular value {s[-1]:.3e} at or below {_SMIN_TOL:.1e}"
            )
        u = block = w @ vh
    prov = dict(getattr(c, "provenance", {}) or {})
    prov["unitarization_distance"] = float(np.linalg.norm(block - a))
    prov["flux_faithful"] = bool(flux_faithful)
    return UnitaryMatrix(u.T, provenance=prov)


def grating_block(mask):
    """Effective two-port unitary of a cosine grating at normal incidence.

    The physical transformation sends one input plane wave to its two
    diffraction orders ``+-u``.  They carry the same weight ``0.5 |k nz| w``,
    since ``nz(u) = nz(-u)`` bit for bit, so the normalized column is
    ``[1, 1] / sqrt(2)`` for every grating, and its gauge-fixed completion
    (any finite plane-wave truncation of the grating ladder is singular) is
    ``[1, -1] / sqrt(2)``.  The block is therefore exactly
    :meth:`UnitaryMatrix.balanced_splitter`, with the provenance of the
    grating's coupling compiled at ``k = 2 pi`` (the wavenumber cancels in
    the normalized column).

    Raises
    ------
    SingularNetwork
        If the orders graze the screen (``ux^2 + uy^2 = 1``), or if ``u = 0``:
        that screen is transparent, and its two orders are one direction.
    """
    inp = PlaneWaveGrid.single(0.0, 0.0)
    u = mask.u[:2]
    if not u.any():
        raise SingularNetwork("a grating with u = (0, 0) is a transparent screen: its two "
                              "orders are the one incident direction")
    out = PlaneWaveGrid(np.array([u, -u]))
    if not out.nz.all():  # each order couples with weight |k nz|: the column would be zero
        raise SingularNetwork(f"the diffraction orders +-({u[0]:g}, {u[1]:g}) graze the screen "
                              "(nz = 0) and carry no flux")
    c = plane_wave_coupling(mask, inp, out, 2 * np.pi)
    return UnitaryMatrix(UnitaryMatrix.balanced_splitter().matrix, provenance=c.provenance)


# --------------------------------------------------------------------------
# Impulse-response design (inverse problem)


class ImpulseResponse:
    """Translation-invariant kernel ``h(r - r0)`` sampled on a grid."""

    kind = "impulse_response"

    def __init__(self, grid, values, spectral_cap=None, provenance=None):
        values = np.array(values, dtype=complex, order="C")
        if values.shape != (grid.ny, grid.nx):
            raise GridMismatch("kernel samples do not match the grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel must be finite")
        self.grid = grid
        self.values = values
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
            **encode_complex("values", self.values),
            "spectral_cap": self.spectral_cap,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, doc):
        with reading():
            doc = typed(doc, "impulse_response", "impulse response")
            grid = Grid2D.from_header(doc["grid"])
            values = decode_complex(doc, "values", (grid.ny, grid.nx))
            return cls(grid, values, spectral_cap=doc.get("spectral_cap"),
                       provenance=doc.get("provenance"))


def inverse_design_response(e_in, e_out, eps_rel=1e-6):
    """Kernel turning ``e_in`` into ``e_out`` by the convolution theorem.

    The spectral division is Tikhonov-regularized:
    ``H = F(e_out) conj(F(e_in)) / (|F(e_in)|^2 + eps^2)`` with
    ``eps = eps_rel * max |F(e_in)|``.

    Raises
    ------
    SpectralMismatch
        If more than 1e-3 of the target energy sits at frequencies
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
    if lost > _LOST_TOL:
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

"""Sampled scalar fields, plane-wave grids and orthonormal mode bases.

Fields live on centered, power-of-two grids.  Spectra use the DC-centered
layout: every transform goes through an explicit ``ifftshift``/``fftshift``
sandwich so that the discrete Fourier transform of samples at
``x_n = (n - N/2) dx`` is evaluated exactly at angular spatial frequencies
``f_k = 2*pi*(k - N/2)/(N dx)`` with the sign convention
``sum E(x) exp(-i x f) dx dy``.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._special import genlaguerre, hermite, log_factorial
from .errors import (
    EmptyGrid,
    GridMismatch,
    GridTooSmall,
    MaskModesError,
    OutOfRange,
    UnknownLabel,
)

#: Largest share of a sampled mode's energy allowed on the grid's outer ring.
_BOUNDARY_TOL = 1e-10
#: Bit pattern of ``-0.0`` as float64.
_NEGATIVE_ZERO = np.uint64(1 << 63)


def _is_power_of_two(n):
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    """Centered 2D sampling grid.

    Parameters
    ----------
    nx, ny : int
        Sample counts per axis; powers of two, at least 2.
    dx, dy : float
        Physical sample spacing (length units).

    The grid is centered on the origin: sample ``i`` along x sits at
    ``(i - nx/2) * dx``, so the origin itself is always a sample point.
    """

    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        if not (_is_power_of_two(self.nx) and _is_power_of_two(self.ny)):
            raise ValueError(f"grid sizes must be powers of two >= 2, got {self.nx}x{self.ny}")
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("grid spacings must be positive")

    @property
    def cell_area(self):
        return self.dx * self.dy

    def x_axis(self):
        return (np.arange(self.nx) - self.nx // 2) * self.dx

    def y_axis(self):
        return (np.arange(self.ny) - self.ny // 2) * self.dy

    def meshgrid(self):
        """Return ``X, Y`` coordinate arrays of shape ``(ny, nx)``."""
        return np.meshgrid(self.x_axis(), self.y_axis(), indexing="xy")

    def freq_x(self):
        """Angular spatial frequencies along x, DC-centered."""
        return 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(self.nx, d=self.dx))

    def freq_y(self):
        return 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(self.ny, d=self.dy))

    def header(self):
        return {"nx": self.nx, "ny": self.ny, "dx": self.dx, "dy": self.dy}

    @classmethod
    def from_header(cls, h):
        return cls(nx=int(h["nx"]), ny=int(h["ny"]), dx=float(h["dx"]), dy=float(h["dy"]))


_PLANE = (-2, -1)


def centered_fft2(values, grid):
    """DC-centered discrete Fourier transform with physical measure.

    Approximates the continuous transform
    ``F(f) = int E(r) exp(-i r.f) d^2r``; inverse of :func:`centered_ifft2`.
    Transforms the last two axes, so a stack of fields goes in one call.
    """
    shifted = np.fft.ifftshift(values, axes=_PLANE)
    return np.fft.fftshift(np.fft.fft2(shifted), axes=_PLANE) * grid.cell_area


def centered_ifft2(spectrum, grid):
    shifted = np.fft.ifftshift(spectrum, axes=_PLANE)
    return np.fft.fftshift(np.fft.ifft2(shifted), axes=_PLANE) / grid.cell_area


def _check_shape(values, grid):
    if values.shape != (grid.ny, grid.nx):
        raise GridMismatch(
            f"values shape {values.shape} does not match grid ({grid.ny}, {grid.nx})"
        )


class SampledField:
    """Complex scalar field sampled on a :class:`Grid2D`.

    Parameters
    ----------
    grid : Grid2D
    values : ndarray, shape (ny, nx)
        Complex amplitudes; copied and frozen.
    k : float
        Wavenumber ``2*pi / wavelength``.
    """

    def __init__(self, grid, values, k):
        values = np.asarray(values, dtype=complex)
        _check_shape(values, grid)
        self._adopt(grid, values.copy(), k)

    @classmethod
    def _of(cls, grid, values, k):
        """The field over ``values``, a new complex array of the grid's shape, not copied."""
        field = cls.__new__(cls)
        field._adopt(grid, values, k)
        return field

    def _adopt(self, grid, values, k):
        if not k > 0:
            raise ValueError("wavenumber k must be positive")
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.k = float(k)

    def norm_sq(self):
        return float(np.sum(np.abs(self.values) ** 2)) * self.grid.cell_area

    def norm(self):
        return float(np.sqrt(self.norm_sq()))

    def spectrum(self):
        """DC-centered spectrum of the field (see :func:`centered_fft2`)."""
        return centered_fft2(self.values, self.grid)

    def __mul__(self, scalar):
        return SampledField(self.grid, self.values * scalar, self.k)

    __rmul__ = __mul__

    def __add__(self, other):
        if self.grid != other.grid:
            raise GridMismatch("cannot add fields on different grids")
        return SampledField(self.grid, self.values + other.values, self.k)

    def __sub__(self, other):
        return self + (-1.0) * other


def field_overlap(a, b):
    """Discrete inner product ``sum conj(a) * b * dx * dy``.

    Conjugate-symmetric: ``field_overlap(a, b) == conj(field_overlap(b, a))``.
    """
    if a.grid != b.grid:
        raise GridMismatch("overlap requires identical grids")
    return complex(np.sum(np.conj(a.values) * b.values) * a.grid.cell_area)


def apply_mask_to_field(field, mask):
    """Multiply a field by a thin-screen mask, point by point.

    The mask is any object exposing ``sample(grid, k)``; analytic masks are
    evaluated at the field's grid points, sampled masks must share the grid.
    """
    mv = mask.sample(field.grid, k=field.k)
    return SampledField(field.grid, mv * field.values, field.k)


# --------------------------------------------------------------------------
# Mode bases


class ModeBasis:
    """Finite family of modes addressed by label.

    Parameters
    ----------
    labels : sequence
        Hashable labels, order defines matrix indexing.
    sampler : callable
        ``sampler(label, grid) -> ndarray`` returning (possibly unnormalized)
        complex samples of the mode.
    name : str
        Short tag recorded in provenance.
    """

    def __init__(self, labels, sampler, name="custom"):
        self.labels = list(labels)
        if not self.labels:
            raise ValueError("a mode basis needs at least one label")
        self._sampler = sampler
        self.name = name

    @property
    def count(self):
        return len(self.labels)

    def raw_values(self, label, grid):
        if label not in self.labels:
            raise UnknownLabel(f"label {label!r} not in basis {self.name!r}")
        return self._sampler(label, grid)


def sample_field(mode_label, basis, grid, k=2 * np.pi):
    """Realize one basis mode on a grid as a unit-norm :class:`SampledField`.

    Raises
    ------
    UnknownLabel
        If the label is not in the basis.
    GridTooSmall
        If more than 1e-10 of the mode energy sits on the grid rim,
        i.e. the grid does not contain the mode.
    MaskModesError
        If a sample is not finite (a mode order beyond float64 range).
    GridMismatch
        If the sampler's array is not of the grid's shape.
    OutOfRange
        If the samples have norm 0 (all zero, or underflowing when squared).
    """
    # a mode order beyond float64 range leaves inf/nan samples: rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.ascontiguousarray(basis.raw_values(mode_label, grid), dtype=complex)
    if not np.all(np.isfinite(values)):
        raise MaskModesError(f"mode {mode_label!r}: samples are not finite at this order")
    _check_shape(values, grid)
    power = np.abs(values)
    np.multiply(power, power, out=power)  # |v|^2 once, for the rim fraction and the norm
    total = float(np.sum(power))
    # the inner block is copied out so that its sum rounds as a contiguous block's
    frac = 1.0 - float(np.sum(power[1:-1, 1:-1].copy())) / total if total else 0.0
    if frac > _BOUNDARY_TOL:
        raise GridTooSmall(
            f"mode {mode_label!r}: boundary energy fraction {frac:.3e} above {_BOUNDARY_TOL:.1e}"
        )
    norm = float(np.sqrt(total * grid.cell_area))
    if norm == 0:
        raise OutOfRange("cannot normalize a field whose norm is 0 "
                         "(identically zero, or its samples underflow when squared)")
    return SampledField._of(grid, _divided(values, norm), k)


def _divided(values, c):
    """``values / c`` for a contiguous complex array and a float ``c > 0``, bit for bit.

    numpy divides by ``c + 0j`` as complex division: ``re = (a + b*0) * (1/c)``
    and ``im = (b - a*0) * (1/c)``.  One multiply of the float view by ``1/c``
    gives the same bits for every part but ``-0.0``, whose result sign the
    other part of its pair decides; those pairs are recomputed by the formula.
    """
    inv = 1.0 / c
    parts = values.view(float).reshape(-1, 2)
    out = parts * inv
    pairs = np.flatnonzero(parts.view(np.uint64) == _NEGATIVE_ZERO) // 2
    re, im = parts[pairs, 0], parts[pairs, 1]
    out[pairs, 0] = (re + im * 0.0) * inv
    out[pairs, 1] = (im - re * 0.0) * inv
    return out.view(complex).reshape(values.shape)


def _hg_1d(order, coords, waist):
    if not math.isfinite(waist * waist):
        raise OutOfRange(f"waist {waist!r}: its square overflows")
    xi = np.sqrt(2.0) * coords / waist
    h = hermite(order, xi)
    # (2/pi)^(1/4) / sqrt(2^order order! waist), in log space
    norm = np.exp(0.25 * np.log(2.0 / np.pi) - 0.5 * (order * np.log(2.0) + log_factorial(order) + np.log(waist)))
    return norm * h * np.exp(-(coords**2) / waist**2)


def hermite_gaussian_mode(label, grid, waist):
    """Samples of the Hermite-Gaussian mode ``label = (m, n)``: order m along x, n along y.

    A :class:`ModeBasis` sampler once ``waist`` is bound, so a basis can hold
    just the modes it needs, whatever their order.
    """
    m, n = label
    ux = _hg_1d(m, grid.x_axis(), waist)
    uy = _hg_1d(n, grid.y_axis(), waist)
    return np.outer(uy, ux).astype(complex)


def hermite_gaussian_basis(max_order, waist):
    """All Hermite-Gaussian modes ``(m, n)`` with ``m, n <= max_order``.

    Labels are index pairs; ``(0, 0)`` is the fundamental Gaussian.
    """
    labels = [(m, n) for m in range(max_order + 1) for n in range(max_order + 1)]
    return ModeBasis(labels, partial(hermite_gaussian_mode, waist=waist),
                     name=f"hg(max={max_order},w0={waist:g})")


def laguerre_gaussian_basis(labels, waist):
    """Laguerre-Gaussian modes addressed by ``(p, l)`` (radial, azimuthal)."""

    def sampler(label, grid):
        p, l = label
        X, Y = grid.meshgrid()
        r2 = (X**2 + Y**2) / waist**2
        phi = np.arctan2(Y, X)
        al = abs(l)
        norm = np.exp(0.5 * (np.log(2.0 / np.pi) + log_factorial(p) - log_factorial(p + al))) / waist
        radial = (np.sqrt(2.0 * r2)) ** al * genlaguerre(p, al, 2.0 * r2)
        return norm * radial * np.exp(-r2) * np.exp(1j * l * phi)

    return ModeBasis(list(labels), sampler, name=f"lg(w0={waist:g})")


def _basis_samples(basis, grid, k):
    """Every mode of a basis through :func:`sample_field`, one flattened mode per row."""
    fields = (sample_field(label, basis, grid, k=k).values.ravel() for label in basis.labels)
    return np.fromiter(fields, dtype=(complex, grid.ny * grid.nx), count=basis.count)


# --------------------------------------------------------------------------
# Plane-wave grids


class PlaneWaveGrid:
    """Finite family of propagating plane-wave directions.

    Directions are unit vectors with ``n_z = +sqrt(1 - nx^2 - ny^2)``;
    transverse components with ``nx^2 + ny^2 > 1`` (evanescent waves) are
    discarded at construction and the share of directions dropped is
    recorded in ``evanescent_fraction``.  The solid-angle weights
    ``dOmega = dnx dny / nz`` enter the coupling integrals.
    """

    def __init__(self, transverse, weights=None):
        t = np.atleast_2d(np.asarray(transverse, dtype=float))
        if t.ndim != 2 or t.shape[1] != 2:
            raise ValueError("transverse must be an (M, 2) array of (nx, ny)")
        w = np.ones(len(t)) if weights is None else np.asarray(weights, dtype=float)
        if len(w) != len(t):
            raise ValueError("weights length must match directions")

        keep = np.sum(t**2, axis=1) <= 1.0
        kept = np.count_nonzero(keep)
        if not kept:
            raise EmptyGrid("all directions are evanescent")
        self.evanescent_fraction = 1.0 - kept / len(t)
        self.transverse = t[keep]
        self.weights = w[keep]
        for arr in (self.transverse, self.weights):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.transverse)

    @property
    def nz(self):
        return np.sqrt(np.clip(1.0 - np.sum(self.transverse**2, axis=1), 0.0, None))

    @property
    def directions(self):
        """Unit direction vectors, shape (M, 3)."""
        d = np.column_stack([self.transverse, self.nz])
        norms = np.linalg.norm(d, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)
        return d

    @classmethod
    def single(cls, nx=0.0, ny=0.0):
        """One plane wave travelling along (nx, ny, nz)."""
        return cls([[nx, ny]])

    @classmethod
    def lattice(cls, center, half_extent, steps):
        """Uniform transverse lattice of directions around ``center``.

        ``steps`` points per axis spanning ``center +- half_extent``; weights
        are the solid-angle elements ``dnx dny / nz`` of each sample.
        """
        cx, cy = center
        ax = np.linspace(cx - half_extent, cx + half_extent, steps)
        ay = np.linspace(cy - half_extent, cy + half_extent, steps)
        pts = np.column_stack([np.tile(ax, steps), np.repeat(ay, steps)])  # x fastest
        d = (2 * half_extent / (steps - 1)) ** 2 if steps > 1 else 1.0
        s2 = np.sum(pts**2, axis=1)
        nz = np.sqrt(np.clip(1.0 - s2, 1e-12, None))
        return cls(pts, weights=d / nz)

import numpy as np
import pytest

from maskmodes.diffraction import CircularAperture, CosineGrating, CustomSampled
from maskmodes.errors import (
    EmptyGrid,
    GridMismatch,
    GridTooSmall,
    MaskModesError,
    OutOfRange,
    UnknownLabel,
)
from maskmodes.modes import (
    Grid2D,
    ModeBasis,
    PlaneWaveGrid,
    SampledField,
    _basis_samples,
    _divided,
    apply_mask_to_field,
    centered_fft2,
    centered_ifft2,
    field_overlap,
    hermite_gaussian_basis,
    laguerre_gaussian_basis,
    sample_field,
)
from util import (
    basis_samples_reference,
    boundary_energy_fraction,
    gram_matrix,
    load_field,
    sample_field_reference,
    save_field,
    spectrum_norm_sq,
)

GRID = Grid2D(256, 256, 14.0 / 256, 14.0 / 256)
HG = hermite_gaussian_basis(2, waist=1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(100, 64, 0.1, 0.1)  # not a power of two
    with pytest.raises(ValueError):
        Grid2D(64, 64, -0.1, 0.1)
    g = Grid2D(64, 64, 0.25, 0.5)
    assert g.x_axis()[32] == 0.0 and g.y_axis()[32] == 0.0


def test_fundamental_gaussian_unit_norm_peak_center():
    f = sample_field((0, 0), HG, GRID)
    assert abs(f.norm() - 1.0) < 1e-10
    j, i = np.unravel_index(np.argmax(np.abs(f.values)), f.values.shape)
    assert (i, j) == (GRID.nx // 2, GRID.ny // 2)


def test_hg10_odd_in_x():
    f = sample_field((1, 0), HG, GRID)
    c = GRID.nx // 2
    for d in (1, 5, 40):
        np.testing.assert_allclose(
            f.values[:, c + d], -f.values[:, c - d], rtol=0, atol=1e-12
        )
    assert np.max(np.abs(f.values[:, c])) < 1e-12


def test_hg00_hg10_orthogonal_against_quadrature_oracle():
    # independent oracle: dense 1-D trapezoid quadrature of the analytic product
    x = np.linspace(-9, 9, 20001)
    w = 1.0
    u0 = (2 / np.pi) ** 0.25 / np.sqrt(w) * np.exp(-(x**2) / w**2)
    u1 = (2 / np.pi) ** 0.25 / np.sqrt(2 * w) * 2 * (np.sqrt(2) * x / w) * np.exp(-(x**2) / w**2)
    oracle = np.trapezoid(u0 * u1, x)  # odd integrand
    assert abs(oracle) < 1e-12

    f0 = sample_field((0, 0), HG, GRID)
    f1 = sample_field((1, 0), HG, GRID)
    assert abs(field_overlap(f0, f1) - oracle) < 1e-8


def test_overlap_self_phase_and_conjugate_symmetry():
    f = sample_field((0, 0), HG, GRID)
    g = sample_field((2, 1), HG, GRID)
    assert abs(field_overlap(f, f) - 1.0) < 1e-12
    assert abs(field_overlap(f, 1j * f) - 1j) < 1e-12
    assert abs(field_overlap(f, g) - np.conj(field_overlap(g, f))) < 1e-14


def test_overlap_grid_mismatch():
    f = sample_field((0, 0), HG, GRID)
    other = Grid2D(128, 128, 14.0 / 128, 14.0 / 128)
    g = sample_field((0, 0), HG, other)
    with pytest.raises(GridMismatch):
        field_overlap(f, g)


def test_unit_mask_is_identity():
    f = sample_field((1, 1), HG, GRID)
    mask = CustomSampled(GRID, np.ones((GRID.ny, GRID.nx)))
    out = apply_mask_to_field(f, mask)
    np.testing.assert_array_equal(out.values, f.values)


def test_pinhole_support():
    f = sample_field((0, 0), HG, GRID)
    out = apply_mask_to_field(f, CircularAperture(1.5))
    X, Y = GRID.meshgrid()
    outside = X**2 + Y**2 > 1.5**2
    assert np.all(out.values[outside] == 0)
    assert np.any(out.values[~outside] != 0)


def test_cosine_mask_makes_two_spectral_peaks():
    # plane wave at normal incidence = constant field; grating frequency on-lattice
    g = Grid2D(64, 64, 0.5, 0.5)
    df = 2 * np.pi / (64 * 0.5)
    k = 8 * df / 0.6
    f = SampledField(g, np.ones((64, 64), dtype=complex), k)
    out = apply_mask_to_field(f, CosineGrating((0.6, 0.0)))
    spec = np.abs(out.spectrum())
    flat = spec.ravel()
    top2 = np.argsort(flat)[-2:]
    peaks = {tuple(np.unravel_index(i, spec.shape)) for i in top2}
    assert peaks == {(32, 32 + 8), (32, 32 - 8)}  # +-(k ux) offsets from DC
    third = np.sort(flat)[-3]
    assert third < 1e-9 * flat[top2[0]]
    assert abs(flat[top2[0]] - flat[top2[1]]) < 1e-9 * flat[top2[0]]


def test_mask_application_linear_in_field():
    f = sample_field((0, 0), HG, GRID)
    g = sample_field((1, 0), HG, GRID)
    mask = CircularAperture(2.0)
    a, b = 0.3 - 0.2j, 1.1 + 0.7j
    lhs = apply_mask_to_field(a * f + b * g, mask).values
    rhs = a * apply_mask_to_field(f, mask).values + b * apply_mask_to_field(g, mask).values
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_parseval_random_fields():
    rng = np.random.default_rng(42)
    g = Grid2D(64, 64, 0.3, 0.7)
    for _ in range(5):
        v = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        f = SampledField(g, v, 2 * np.pi)
        assert abs(spectrum_norm_sq(f.spectrum(), g) - f.norm_sq()) < 1e-10 * f.norm_sq()


def test_hg_gram_matrix_is_identity():
    g = gram_matrix(HG, GRID)
    assert np.max(np.abs(g - np.eye(HG.count))) < 1e-8


@pytest.mark.parametrize("basis", [
    HG, laguerre_gaussian_basis([(0, 0), (1, 0), (0, 1), (0, -1), (1, 2)], waist=1.0),
], ids=["hg", "lg"])
def test_gram_matrix_matches_per_pair_overlaps(basis):
    fields = [sample_field(label, basis, GRID) for label in basis.labels]
    pairs = np.array([[field_overlap(f, g) for g in fields] for f in fields])
    assert np.max(np.abs(gram_matrix(basis, GRID) - pairs)) <= 1e-13


def test_centered_transforms_of_a_stack_equal_each_slice():
    grid = Grid2D(64, 32, 0.3, 0.2)
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(3, 32, 64)) + 1j * rng.normal(size=(3, 32, 64))
    for transform in (centered_fft2, centered_ifft2):
        whole = transform(stack, grid)
        assert all(np.array_equal(whole[i], transform(stack[i], grid)) for i in range(3))


def test_lg_gram_matrix_is_identity():
    lg = laguerre_gaussian_basis([(0, 0), (1, 0), (0, 1), (0, -1), (0, 2)], waist=1.0)
    g = gram_matrix(lg, GRID)
    assert np.max(np.abs(g - np.eye(lg.count))) < 1e-8


def test_sample_field_unknown_label():
    with pytest.raises(UnknownLabel):
        sample_field((7, 7), HG, GRID)


def test_sample_field_grid_too_small():
    tiny = Grid2D(32, 32, 0.05, 0.05)  # extent 1.6 around a waist-1 mode
    with pytest.raises(GridTooSmall):
        sample_field((0, 0), HG, tiny)


LG = laguerre_gaussian_basis([(p, l) for p in range(3) for l in range(-2, 3)], waist=1.0)


def _speckle(label, grid):
    """Seeded complex noise under a Gaussian envelope: real and imaginary parts both matter."""
    rng = np.random.default_rng(label)
    x, y = np.meshgrid(grid.x_axis(), grid.y_axis())
    noise = rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
    return noise * np.exp(-(x**2 + y**2) / 2.0)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("basis", [hermite_gaussian_basis(4, waist=1.0), LG,
                                   ModeBasis(range(4), _speckle)], ids=["hg4", "lg", "speckle"])
def test_sampled_modes_are_bit_identical_to_the_reference(n, basis):
    grid = Grid2D(n, n, 14.0 / n, 14.0 / n)
    k = 3.7
    for label in basis.labels:
        got, ref = sample_field(label, basis, grid, k=k), sample_field_reference(label, basis, grid, k=k)
        assert got.values.tobytes() == ref.values.tobytes()
        assert (got.grid, got.k) == (ref.grid, ref.k) and not got.values.flags.writeable
    stack = _basis_samples(basis, grid, k)
    assert stack.shape == (basis.count, n * n)
    assert stack.tobytes() == basis_samples_reference(basis, grid, k).tobytes()


_PARTS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300, -1e-300,
                   1e300, -1e300, 1.7976931348623157e308, 1.5, -2.5])


@pytest.mark.parametrize("c", [1.0, 3.7, 0.1, 1e-300, 5e-324, 1e300, np.inf])
def test_real_view_division_is_bit_identical_to_complex_division(c):
    # pairs of special parts (signed zeros, subnormals, extremes) in every
    # combination, then random parts over the whole exponent range
    rng = np.random.default_rng(18)
    pairs = np.array(np.meshgrid(_PARTS, _PARTS)).reshape(2, -1).T
    noise = rng.normal(size=(1 << 17, 2)) * 10.0 ** rng.integers(-300, 300, size=(1 << 17, 2))
    special = rng.random(noise.shape) < 0.3
    noise[special] = rng.choice(_PARTS, size=int(np.count_nonzero(special)))
    values = np.concatenate([pairs, noise]).view(complex)[: 1 << 17].reshape(256, 512)
    with np.errstate(all="ignore"):
        expected = values / c
        got = _divided(values, c)
    assert got.shape == values.shape and got.dtype == complex
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def _raised(call):
    with pytest.raises(MaskModesError) as info:
        call()
    return type(info.value), str(info.value)


def _gaussian_on_the_default_grid(label, grid):
    return np.exp(-np.add.outer(GRID.y_axis() ** 2, GRID.x_axis() ** 2))


@pytest.mark.parametrize("basis, label, grid, expected", [
    (HG, (0, 0), Grid2D(32, 32, 0.05, 0.05), GridTooSmall),  # energy on the rim
    (hermite_gaussian_basis(400, waist=1.0), (400, 0), GRID, MaskModesError),  # not finite
    (ModeBasis(["zero"], lambda label, grid: np.zeros((grid.ny, grid.nx))), "zero", GRID,
     OutOfRange),
    (ModeBasis(["tiny"], lambda label, grid: np.full((grid.ny, grid.nx), 1e-170)), "tiny", GRID,
     OutOfRange),  # underflows when squared
    (ModeBasis(["shape"], _gaussian_on_the_default_grid), "shape", Grid2D(64, 64, 0.25, 0.25),
     GridMismatch),
], ids=["rim", "order", "zero", "underflow", "shape"])
def test_sampling_errors_keep_their_type_and_message(basis, label, grid, expected):
    got = _raised(lambda: sample_field(label, basis, grid))
    assert got == _raised(lambda: sample_field_reference(label, basis, grid))
    assert got[0] is expected


def test_a_flat_sampler_is_a_grid_mismatch():
    flat = ModeBasis(["flat"], lambda label, grid: np.ones(grid.nx * grid.ny))
    with pytest.raises(GridMismatch, match=r"values shape \(65536,\)"):
        sample_field("flat", flat, GRID)


def test_sampling_leaves_the_samplers_array_untouched():
    values = np.exp(-np.add.outer(GRID.y_axis() ** 2, GRID.x_axis() ** 2)).astype(complex)
    before = values.copy()
    f = sample_field("own", ModeBasis(["own"], lambda label, grid: values), GRID)
    assert values.flags.writeable and values.tobytes() == before.tobytes()
    assert f.values is not values and abs(f.norm() - 1.0) < 1e-12


def test_boundary_energy_fraction_concentrated_center():
    v = np.zeros((16, 16))
    v[8, 8] = 1.0
    assert boundary_energy_fraction(v) == 0.0
    v[0, 0] = 1.0
    assert abs(boundary_energy_fraction(v) - 0.5) < 1e-15


def test_plane_wave_grid_discards_evanescent():
    pw = PlaneWaveGrid([[0.0, 0.0], [0.8, 0.0], [0.9, 0.9]])
    assert len(pw) == 2
    assert abs(pw.evanescent_fraction - 1.0 / 3.0) < 1e-15
    d = pw.directions
    np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-12)
    with pytest.raises(EmptyGrid):
        PlaneWaveGrid([[1.0, 1.0]])


def test_plane_wave_lattice_weights():
    pw = PlaneWaveGrid.lattice((0.0, 0.0), 0.2, 5)
    assert len(pw) == 25
    # solid angle element dnx dny / nz, nz <= 1 so weights >= (0.1)^2
    assert np.all(pw.weights >= 0.01 - 1e-15)


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.13, -0.31)])
@pytest.mark.parametrize("steps", [1, 2, 9, 17, 45])
def test_plane_wave_lattice_bit_identical_to_the_point_loop(steps, center):
    half_extent = 0.27
    pw = PlaneWaveGrid.lattice(center, half_extent, steps)
    ax = np.linspace(center[0] - half_extent, center[0] + half_extent, steps)
    ay = np.linspace(center[1] - half_extent, center[1] + half_extent, steps)
    pts = np.array([(x, y) for y in ay for x in ax])
    d = (2 * half_extent / (steps - 1)) ** 2 if steps > 1 else 1.0
    weights = d / np.sqrt(np.clip(1.0 - np.sum(pts**2, axis=1), 1e-12, None))
    assert pw.transverse.shape == pts.shape
    assert np.array_equal(pw.transverse.view(np.uint64), pts.view(np.uint64))
    assert np.array_equal(pw.weights.view(np.uint64), weights.view(np.uint64))


def test_field_io_round_trip(tmp_path):
    f = sample_field((2, 1), HG, GRID, k=3.7)
    p = tmp_path / "field.mmf"
    save_field(p, f)
    g = load_field(p)
    assert g.grid == f.grid and g.k == f.k
    np.testing.assert_array_equal(g.values, f.values)


def test_field_io_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.mmf"
    p.write_bytes(b"NOTAFIELDxxxx")
    with pytest.raises(ValueError):
        load_field(p)

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from maskmodes import diffraction, modes
from maskmodes.diffraction import (
    CircularAperture,
    CosineGrating,
    CouplingMatrix,
    CustomSampled,
    ImpulseResponse,
    UnitaryMatrix,
    _unitarity_residual,
    aperture_output_grid,
    apply_impulse_response,
    design_fidelity,
    grating_block,
    inverse_design_response,
    jinc,
    mask_from_json,
    mask_spectrum,
    mask_to_json,
    overlap_unitary,
    plane_wave_coupling,
    polar_factor,
    unitarize,
)
from maskmodes.errors import (
    AliasingDetected,
    DimensionMismatch,
    EmptyGrid,
    SingularNetwork,
    SpectralMismatch,
    UnitarityError,
)
from maskmodes.modes import (
    Grid2D,
    PlaneWaveGrid,
    SampledField,
    centered_fft2,
    hermite_gaussian_basis,
    laguerre_gaussian_basis,
    sample_field,
)
from util import (
    dilation_reference,
    haar_unitary,
    orthogonal_matrix,
    overlap_unitary_pairs,
    plane_wave_coupling_columns,
    unitarity_residual_complex_reference,
    unitarize_complex_reference,
)

GRID = Grid2D(256, 256, 14.0 / 256, 14.0 / 256)
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def test_jinc_limit_and_values():
    assert jinc(0.0) == 0.5
    from scipy.special import j1

    for x in (0.3, 2.0, 7.7):
        assert abs(jinc(x) - j1(x) / x) < 1e-15


def test_unit_mask_spectrum_is_dc_peak():
    mask = CustomSampled(GRID, np.ones((GRID.ny, GRID.nx)))
    spec = mask_spectrum(mask, GRID)
    dc = spec[GRID.ny // 2, GRID.nx // 2]
    assert abs(dc - GRID.nx * GRID.ny * GRID.cell_area) < 1e-6 * abs(dc)
    off = spec.copy()
    off[GRID.ny // 2, GRID.nx // 2] = 0
    assert np.max(np.abs(off)) < 1e-9 * abs(dc)


def test_cosine_spectrum_two_equal_peaks_match_analytic_area():
    g = Grid2D(64, 64, 0.5, 0.5)
    df = 2 * np.pi / (64 * 0.5)
    k = 8 * df / 0.6  # grating frequency exactly on the lattice
    spec = mask_spectrum(CosineGrating((0.6, 0.0)), g, k=k)
    c = 32
    plus, minus = spec[c, c + 8], spec[c, c - 8]
    # windowed FT of cos: half the window area at each of the two frequencies
    expected = 0.5 * (64 * 0.5) ** 2
    assert abs(plus - expected) < 1e-9 * expected
    assert abs(minus - expected) < 1e-9 * expected
    rest = spec.copy()
    rest[c, c + 8] = rest[c, c - 8] = 0
    assert np.max(np.abs(rest)) < 1e-9 * expected


def test_cosine_spectrum_aliasing_detected():
    g = Grid2D(64, 64, 0.5, 0.5)
    with pytest.raises(AliasingDetected):
        mask_spectrum(CosineGrating((1.0, 0.0)), g, k=3 * np.pi / 0.5)


def test_custom_mask_band_edge_aliasing_detected():
    rng = np.random.default_rng(1)
    noisy = CustomSampled(GRID, rng.normal(size=(GRID.ny, GRID.nx)))
    with pytest.raises(AliasingDetected):
        mask_spectrum(noisy, GRID)


def test_aperture_fft_matches_jinc_at_grid_accuracy():
    # Aliasing of the sharp edge floors the raw-FFT comparison near 1e-3 of
    # the peak on desk grids; assert that level and its refinement decay.
    errs = {}
    for n in (256, 512):
        grid = Grid2D(n, n, 14.0 / n, 14.0 / n)
        ap = CircularAperture(2.0)
        spec = centered_fft2(ap.sample_antialiased(grid), grid)
        fx, fy = grid.freq_x(), grid.freq_y()
        FX, FY = np.meshgrid(fx, fy, indexing="xy")
        analytic = ap.analytic_spectrum(FX**2 + FY**2)
        errs[n] = float(np.max(np.abs(spec - analytic)) / np.max(np.abs(analytic)))
    assert errs[256] < 2e-3
    assert errs[512] < 0.6 * errs[256]


def test_custom_mask_spectrum_round_trip():
    rng = np.random.default_rng(5)
    g = Grid2D(64, 64, 0.3, 0.3)
    x = g.x_axis()
    smooth = np.exp(-np.add.outer(g.y_axis() ** 2, x**2) / 4.0) * (
        1 + 0.3j * rng.normal()
    )
    mask = CustomSampled(g, smooth)
    spec = mask_spectrum(mask, g)
    back = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(spec))) / g.cell_area
    np.testing.assert_allclose(back, smooth, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# Plane-wave coupling


def test_grating_coupling_two_equal_orders():
    inp = PlaneWaveGrid.single(0.0, 0.0)
    u = (0.6, 0.0)
    out = PlaneWaveGrid([[0.6, 0.0], [-0.6, 0.0], [0.3, 0.3]])
    c = plane_wave_coupling(CosineGrating(u), inp, out, k=2 * np.pi)
    col = c.matrix[:, 0]
    assert abs(abs(col[0]) ** 2 - 0.5) < 1e-12
    assert abs(abs(col[1]) ** 2 - 0.5) < 1e-12
    assert col[2] == 0
    assert abs(np.linalg.norm(col) - 1.0) < 1e-12


def test_aperture_coupling_matches_analytic_law():
    # independent statement of the output profile: |nz'/nz| jinc(R k |dn|),
    # rescaled the same way the compiler rescales
    k = 2 * np.pi
    ap = CircularAperture(2.0)
    grid, dropped = aperture_output_grid(ap, (0.0, 0.0), k, 0.25, 9)
    inp = PlaneWaveGrid.single(0.0, 0.0)
    c = plane_wave_coupling(ap, inp, grid, k)
    col = np.abs(c.matrix[:, 0])

    dn = np.linalg.norm(grid.transverse - np.array([0.0, 0.0]), axis=1)
    law = np.abs(grid.nz / 1.0) * np.abs(jinc(ap.radius * k * dn))
    law = law / np.linalg.norm(law * 2 * np.pi * ap.radius**2 * k)  # same global scale shape
    col_n = col / np.linalg.norm(col)
    law_n = law / np.linalg.norm(law)
    np.testing.assert_allclose(col_n, law_n, rtol=0, atol=1e-6)
    assert 0.0 <= dropped < 0.05


def test_plane_wave_coupling_empty_grid():
    # an all-evanescent grid cannot even be constructed, so the coupling
    # compiler never sees an empty direction set
    with pytest.raises(EmptyGrid):
        PlaneWaveGrid([[0.9, 0.9], [1.2, 0.0]])
    with pytest.raises(TypeError):
        plane_wave_coupling(object(), PlaneWaveGrid.single(), PlaneWaveGrid.single(), k=1.0)


def test_an_all_zero_sampled_mask_compiles_as_an_opaque_screen():
    lattice = PlaneWaveGrid.lattice((0.0, 0.0), 0.15, 3)
    opaque = CustomSampled(Grid2D(16, 16, 0.5, 0.5), np.zeros((16, 16)))
    c = plane_wave_coupling(opaque, lattice, lattice, 2 * np.pi)
    assert not c.matrix.any() and c.provenance["prenormalization_scale"] == 0.0


@pytest.mark.parametrize(
    "mask",
    [CosineGrating((0.6, 0.0)), CosineGrating((0.3, 0.4)), CosineGrating((0.0, 0.0))],
    ids=["u=(0.6,0)", "u=(0.3,0.4)", "u=(0,0)"],
)
def test_cosine_coupling_bit_identical_to_column_loop(mask):
    # on a lattice with step 0.1 both orders of most inputs land on outputs;
    # at u = 0 they coincide and the one output takes both
    lattice = PlaneWaveGrid.lattice((0.0, 0.0), 0.6, 13)
    c = plane_wave_coupling(mask, lattice, lattice, 2 * np.pi)
    ref, scale = plane_wave_coupling_columns(mask, lattice, lattice, 2 * np.pi)
    assert np.count_nonzero(ref) >= len(lattice)
    assert np.array_equal(c.matrix, ref)
    assert c.provenance["prenormalization_scale"] == scale


@pytest.mark.parametrize("steps", [9, 17])
def test_aperture_coupling_bit_identical_to_column_loop(steps):
    k = 2 * np.pi
    ap = CircularAperture(2.0)
    grid, _ = aperture_output_grid(ap, (0.0, 0.0), k, 0.2, steps)
    c = plane_wave_coupling(ap, grid, grid, k)
    ref, scale = plane_wave_coupling_columns(ap, grid, grid, k)
    assert np.array_equal(c.matrix, ref)
    assert c.provenance["prenormalization_scale"] == scale


def test_aperture_coupling_between_two_lattices_bit_identical_to_column_loop():
    # distinct input and output lattices: few distinct offsets, evaluated as a table
    k, ap = 2 * np.pi, CircularAperture(1.5)
    out = PlaneWaveGrid.lattice((0.0, 0.0), 0.3, 11)
    inp = PlaneWaveGrid.lattice((0.05, -0.02), 0.1, 5)
    c = plane_wave_coupling(ap, inp, out, k)
    ref, scale = plane_wave_coupling_columns(ap, inp, out, k)
    assert np.array_equal(c.matrix, ref)
    assert c.provenance["prenormalization_scale"] == scale


_DIRECTIONS = st.lists(
    st.tuples(*[st.one_of(st.sampled_from([-0.2, -0.1, 0.0, 0.1, 0.3]), st.floats(-0.6, 0.6))] * 2),
    min_size=1, max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(_DIRECTIONS, _DIRECTIONS, st.floats(0.2, 4.0))
def test_aperture_coupling_on_any_grids_bit_identical_to_column_loop(out_dirs, in_dirs, radius):
    # repeated coordinates take the table of distinct offsets, scattered ones the pairs
    k, ap = 2 * np.pi, CircularAperture(radius)
    inp, out = PlaneWaveGrid(np.array(in_dirs)), PlaneWaveGrid(np.array(out_dirs))
    c = plane_wave_coupling(ap, inp, out, k)
    ref, scale = plane_wave_coupling_columns(ap, inp, out, k)
    assert np.array_equal(c.matrix, ref)
    assert c.provenance["prenormalization_scale"] == scale


def test_custom_coupling_bit_identical_to_column_loop():
    g = Grid2D(64, 64, 0.25, 0.25)
    X, Y = g.meshgrid()
    mask = CustomSampled(g, np.exp(-(X**2 + Y**2) / 4.0) * np.exp(0.3j * X))
    lattice = PlaneWaveGrid.lattice((0.0, 0.0), 0.15, 5)
    c = plane_wave_coupling(mask, lattice, lattice, 2 * np.pi)
    ref, scale = plane_wave_coupling_columns(mask, lattice, lattice, 2 * np.pi)
    assert np.array_equal(c.matrix, ref)
    assert c.provenance["prenormalization_scale"] == scale


# --------------------------------------------------------------------------
# Overlap compilation


def test_unit_mask_couples_plane_wave_to_itself():
    g = Grid2D(64, 64, 0.5, 0.5)
    unit = CustomSampled(g, np.ones((64, 64)))
    inp = PlaneWaveGrid.single(0.0, 0.0)
    out = PlaneWaveGrid([[0.0, 0.0], [0.3, 0.0], [0.0, 0.35]])
    c = plane_wave_coupling(unit, inp, out, k=2 * np.pi)
    col = np.abs(c.matrix[:, 0])
    assert abs(col[0] - 1.0) < 1e-9  # the co-propagating direction takes all flux
    assert np.all(col[1:] < 1e-9)


def test_aperture_grid_truncates_below_envelope_floor():
    # an aperture hundreds of wavelengths wide scatters into a narrow cone;
    # the far wings of the direction lattice fall below 1e-4 of the peak
    k = 2 * np.pi
    ap = CircularAperture(200.0)
    grid, dropped = aperture_output_grid(ap, (0.0, 0.0), k, 0.8, 41)
    kept_radius = np.max(np.linalg.norm(grid.transverse, axis=1))
    assert len(grid) < 41 * 41
    assert kept_radius < 0.6  # wings beyond the envelope floor are gone
    assert 0.0 < dropped < 1e-4


def test_overlap_identity_same_basis():
    basis = hermite_gaussian_basis(1, waist=1.0)
    c = overlap_unitary(None, basis, basis, GRID)
    assert np.max(np.abs(c.matrix - np.eye(basis.count))) < 1e-8


def test_overlap_records_the_divisor_of_its_column_bound():
    # a uniform mask of amplitude 3 compiles to the transparent network once divided:
    # only the recorded divisor tells the two apart
    grid = Grid2D(64, 64, 14.0 / 64, 14.0 / 64)
    basis = hermite_gaussian_basis(1, waist=1.0)
    scales = {}
    for amplitude in (1.0, 3.0):
        mask = CustomSampled(grid, np.full((64, 64), amplitude))
        scales[amplitude] = overlap_unitary(mask, basis, basis, grid).provenance[
            "prenormalization_scale"]
    assert 1.0 <= scales[1.0] <= 1.0 + 1e-12
    assert abs(scales[3.0] - 3.0) <= 1e-12


def test_gaussian_through_aperture_couples_only_zero_azimuthal_lg():
    hg0 = hermite_gaussian_basis(0, waist=1.0)
    lg = laguerre_gaussian_basis([(0, 0), (1, 0), (0, 1), (0, -1), (0, 2), (1, 1)], waist=1.0)
    c = overlap_unitary(CircularAperture(1.2), hg0, lg, GRID)
    for row, (p, l) in enumerate(lg.labels):
        mag = abs(c.matrix[row, 0])
        if l == 0:
            assert mag > 1e-3
        else:
            assert mag < 1e-10


def test_overlap_with_delta_kernel_is_gram_matrix():
    basis = hermite_gaussian_basis(1, waist=1.0)
    f = sample_field((0, 0), basis, GRID)
    delta_kernel = inverse_design_response(f, f)  # near-delta on this band
    c = overlap_unitary(delta_kernel, basis, basis, GRID)
    assert np.max(np.abs(c.matrix - np.eye(basis.count))) < 1e-6


def test_overlap_records_truncation_loss():
    hg0 = hermite_gaussian_basis(0, waist=1.0)
    # a pinhole much smaller than the waist scatters well outside one mode
    c = overlap_unitary(CircularAperture(0.3), hg0, hg0, GRID)
    assert "(0, 0)" in c.provenance["truncation_losses"]


def _phase_screen(grid, rng):
    """A sampled mask: a random Gaussian opening under a random phase ramp."""
    x, y = grid.meshgrid()
    cx, cy = rng.uniform(-1.5, 1.5, size=2)
    a, b = rng.uniform(-0.5, 0.5, size=2)
    opening = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * rng.uniform(0.5, 2.5) ** 2))
    return CustomSampled(grid, opening * np.exp(1j * (a * x + b * y)))


_LG = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 2)]


@settings(max_examples=40)
@given(n=st.sampled_from([32, 64, 128, 256]),
       element=st.sampled_from(["identity", "mask", "aperture", "kernel"]),
       bases=st.sampled_from(["shared", "hg_to_lg", "lg_to_hg", "hg1_to_hg2"]),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_overlap_matches_per_pair_reference(n, element, bases, seed):
    grid = Grid2D(n, n, 14.0 / n, 14.0 / n)
    rng = np.random.default_rng(seed)
    hg1, hg2 = hermite_gaussian_basis(1, waist=1.0), hermite_gaussian_basis(2, waist=1.0)
    lg = laguerre_gaussian_basis(_LG, waist=1.0)
    in_basis, out_basis = {"shared": (hg2, hg2), "hg_to_lg": (hg2, lg), "lg_to_hg": (lg, hg2),
                           "hg1_to_hg2": (hg1, hg2)}[bases]
    screen = {
        "identity": None,
        "mask": _phase_screen(grid, rng),
        "aperture": CircularAperture(float(rng.uniform(0.3, 2.5))),
        "kernel": ImpulseResponse(grid, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))),
    }[element]
    got = overlap_unitary(screen, in_basis, out_basis, grid)
    want = overlap_unitary_pairs(screen, in_basis, out_basis, grid)
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-13
    lost, want_lost = got.provenance["truncation_losses"], want.provenance["truncation_losses"]
    assert list(lost) == list(want_lost)
    assert all(abs(lost[key] - want_lost[key]) <= 1e-12 for key in lost)


def test_shared_basis_is_sampled_once(monkeypatch):
    calls = []
    original = modes.sample_field

    def counting(label, *args, **kwargs):
        calls.append(label)
        return original(label, *args, **kwargs)

    for module in (modes, diffraction):
        if getattr(module, "sample_field", None) is original:
            monkeypatch.setattr(module, "sample_field", counting)
    basis = hermite_gaussian_basis(3, waist=1.0)
    overlap_unitary(_phase_screen(GRID, np.random.default_rng(3)), basis, basis, GRID)
    assert sorted(calls) == sorted(basis.labels)  # 16 calls, one per mode


def test_stacked_overlap_holds_one_basis_and_one_block():
    basis = hermite_gaussian_basis(3, waist=1.0)
    screen = _phase_screen(GRID, np.random.default_rng(4))
    tracemalloc.start()
    try:
        overlap_unitary(screen, basis, basis, GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16 sampled fields of 1 MiB, one 4 MiB block of transformed fields
    assert peak <= 26e6


# --------------------------------------------------------------------------
# Unitarization


def test_unitarize_symmetric_unitary_unchanged():
    c = CouplingMatrix(HADAMARD)
    u = unitarize(c)
    assert np.max(np.abs(u.matrix - HADAMARD)) < 1e-12
    assert u.provenance["unitarization_distance"] < 1e-12


def test_unitarize_transposes_into_operator_orientation():
    rng = np.random.default_rng(2)
    w = haar_unitary(rng, 3)
    u = unitarize(CouplingMatrix(w))
    assert np.max(np.abs(u.matrix - w.T)) < 1e-12


def test_unitarize_scaled_hadamard():
    c = CouplingMatrix(0.9 * HADAMARD)
    u = unitarize(c)
    assert np.max(np.abs(u.matrix - HADAMARD)) < 1e-12
    assert abs(u.provenance["unitarization_distance"] - 0.1 * np.sqrt(2)) < 1e-12


def test_unitarize_flux_faithful_dilation():
    c = CouplingMatrix(np.diag([0.9, 0.5]))
    u = unitarize(c, flux_faithful=True)
    assert u.dim == 4
    # scattering block sits in the transpose's top-left corner
    np.testing.assert_allclose(u.matrix.T[:2, :2], np.diag([0.9, 0.5]), atol=1e-12)
    assert u.residual <= 1e-10
    assert u.provenance["unitarization_distance"] < 1e-12


def test_unitarize_idempotent():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = m / np.linalg.norm(m, 2)
    once = unitarize(CouplingMatrix(m))
    twice = unitarize(CouplingMatrix(once.matrix.T))
    assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-12


def test_unitarize_singular_network():
    c = CouplingMatrix(np.diag([1.0, 1e-8]))
    with pytest.raises(SingularNetwork):
        unitarize(c)


def test_compiled_unitary_singular_values():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = unitarize(CouplingMatrix(m / np.linalg.norm(m, 2)))
    s = np.linalg.svd(u.matrix, compute_uv=False)
    assert np.max(np.abs(s - 1.0)) < 1e-10


def test_unitarize_flux_faithful_records_rescale():
    # rank one with singular value sqrt(2): the network realizes C / sqrt(2)
    c = CouplingMatrix(np.array([[0.6, 0.6], [0.8, 0.8]]))
    u = unitarize(c, flux_faithful=True)
    assert abs(u.provenance["unitarization_distance"] - (np.sqrt(2) - 1)) < 1e-12
    np.testing.assert_allclose(u.matrix.T[:2, :2], c.matrix / np.sqrt(2), rtol=0, atol=1e-12)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    svals=st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0), st.floats(1.0, 3.0)),
        min_size=1,
        max_size=6,
    ),
)
def test_unitarize_closed_form_matches_iterative_dilation(seed, svals):
    # C = W S V+ with Haar W, V: zeros make it rank-deficient, exact ones and
    # values above 1 exercise the clip and the rescale
    rng = np.random.default_rng(seed)
    n = len(svals)
    s = np.array(svals)
    c = (haar_unitary(rng, n) * s) @ haar_unitary(rng, n).conj().T
    scale = max(float(np.linalg.svd(c, compute_uv=False)[0]), 1.0)

    # a spectral norm above 1 is no valid CouplingMatrix, so pass the bare array
    u = unitarize(c, flux_faithful=True)
    scattering = u.matrix.T
    assert u.dim == 2 * n
    assert u.residual <= 1e-10
    np.testing.assert_allclose(scattering[:n, :n], c / scale, rtol=0, atol=1e-12)
    np.testing.assert_allclose(scattering, dilation_reference(c), rtol=0, atol=1e-7)
    assert abs(u.provenance["unitarization_distance"] - np.linalg.norm(c - c / scale)) < 1e-12

    # the same singular values on real singular vectors: a real-valued complex array
    real = ((orthogonal_matrix(rng, n) * s) @ orthogonal_matrix(rng, n).T).astype(complex)
    if np.min(s) > 2e-6:  # clear of the 1e-6 singular-value floor after rounding
        assert np.array_equal(unitarize(c).matrix, polar_factor(c).T)
        assert np.array_equal(unitarize(real).matrix, polar_factor(real).T)
    elif np.min(s) == 0.0:
        with pytest.raises(SingularNetwork):
            unitarize(c)


def _exactly_real(u):
    """Every imaginary part of a complex array is ``+0.0``."""
    return not u.imag.any() and not np.signbit(u.imag).any()


def _check_real_unitarization(c, flux_faithful):
    u = unitarize(c, flux_faithful=flux_faithful)
    raw = c.matrix if isinstance(c, CouplingMatrix) else c
    matrix, distance = unitarize_complex_reference(raw, flux_faithful=flux_faithful)
    assert u.matrix.dtype == complex and _exactly_real(u.matrix)
    assert np.max(np.abs(u.matrix - matrix)) <= 1e-13
    assert abs(u.provenance["unitarization_distance"] - distance) <= 1e-13
    assert u.residual <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["contraction", "rank-deficient", "above-one"]))
def test_real_couplings_unitarize_in_real_arithmetic(n, seed, kind):
    # singular values stay clear of 1 below the top: sqrt(1 - s^2) is steep there,
    # so any two SVDs of one matrix would disagree in the dilation beyond 1e-13
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.2, 0.95, size=n)
    if kind == "rank-deficient":
        s[rng.random(n) < 0.5] = 0.0
    elif kind == "above-one":
        s[0] = rng.uniform(1.05, 3.0)
    c = ((orthogonal_matrix(rng, n) * s) @ orthogonal_matrix(rng, n).T).astype(complex)
    _check_real_unitarization(c, flux_faithful=True)
    if kind == "contraction":
        _check_real_unitarization(c, flux_faithful=False)


@pytest.mark.parametrize("radius", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("steps", [3, 5, 7, 9])
def test_aperture_couplings_unitarize_in_real_arithmetic(radius, steps):
    mask = CircularAperture(radius)
    lattice, _ = aperture_output_grid(mask, (0.0, 0.0), 2 * np.pi, 0.2, steps)
    coupling = plane_wave_coupling(mask, lattice, lattice, 2 * np.pi)
    assert _exactly_real(coupling.matrix)
    _check_real_unitarization(coupling, flux_faithful=True)


def test_loading_an_aperture_unitary_checks_it_in_real_arithmetic(tmp_path):
    mask = CircularAperture(2.0)
    lattice, _ = aperture_output_grid(mask, (0.0, 0.0), 2 * np.pi, 0.2, 17)
    unit = unitarize(plane_wave_coupling(mask, lattice, lattice, 2 * np.pi), flux_faithful=True)
    path = tmp_path / "u.json"
    peaks = []
    tracemalloc.start()
    try:
        unit.save(path)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        loaded = UnitaryMatrix.load(path)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert loaded.dim == 578 and loaded.matrix.tobytes() == unit.matrix.tobytes()
    assert loaded.residual == unit.residual
    # saved as a 2.7 MB float64 payload (3.6 MB of text), not 5.3 MB of complex128 (7.1 MB);
    # loaded from it: the text, the payload checked as it is, one 2.7 MB product and the
    # 5.3 MB widened matrix.  A complex payload passes 14 MB either way, and so does a
    # complex copy made before the checks.
    save_peak, load_peak = peaks
    assert save_peak <= 10e6 and load_peak <= 13e6


# unitarize hands over a column-major float transpose; a loaded payload is row-major
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", [1, 2, 7, 33, 100])
def test_a_real_unitary_is_checked_as_it_is_and_widened_once(dim, order):
    rng = np.random.default_rng(dim)
    blocks = block_diag(orthogonal_matrix(rng, dim), orthogonal_matrix(rng, 2))
    for x in (orthogonal_matrix(rng, dim), blocks):
        x = np.asarray(x, order=order)
        real, widened = UnitaryMatrix(x), UnitaryMatrix(x.astype(complex))
        assert real.matrix.tobytes() == widened.matrix.tobytes()
        assert real.residual == widened.residual
        for m in (real.matrix, widened.matrix):
            assert m.dtype == np.complex128 and m.flags.c_contiguous and not m.flags.writeable
        assert real.matrix.real.tobytes() == np.ascontiguousarray(x).tobytes()
        assert not real.matrix.imag.view(np.uint64).any()  # every imaginary part is +0.0


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("bad, message", [(1.5, "unitarity residual"), (np.nan, "finite entries"),
                                          (np.inf, "finite entries")])
def test_a_real_input_is_refused_as_its_complex_twin_is(bad, message, order):
    x = np.asarray(orthogonal_matrix(np.random.default_rng(4), 4), order=order)
    x[1, 2] = bad
    with pytest.raises(UnitarityError, match=message) as real:
        UnitaryMatrix(x)
    with pytest.raises(UnitarityError) as widened:
        UnitaryMatrix(x.astype(complex))
    assert str(real.value) == str(widened.value)


def test_integer_empty_and_non_square_real_inputs():
    want = np.eye(3, dtype=complex).tobytes()
    assert UnitaryMatrix(np.eye(3, dtype=int)).matrix.tobytes() == want
    swap = np.array([[0, 1], [1, 0]], dtype=complex).tobytes()
    assert UnitaryMatrix(np.array([[0, 1], [1, 0]], dtype=bool)).matrix.tobytes() == swap
    for empty in (UnitaryMatrix.identity(0), UnitaryMatrix(np.zeros((0, 0)))):
        back = UnitaryMatrix.from_json(json.loads(json.dumps(empty.to_json())))
        assert back.matrix.shape == (0, 0) and back.matrix.dtype == np.complex128
        assert back.residual == 0.0
    with pytest.raises(DimensionMismatch):
        UnitaryMatrix(np.eye(3)[:2])


@pytest.mark.parametrize("flux_faithful", [False, True])
@pytest.mark.parametrize("shape", [(0, 0), (3,), (0, 3)])
def test_unitarize_refuses_what_is_not_a_nonempty_matrix(shape, flux_faithful):
    with pytest.raises(DimensionMismatch):
        unitarize(np.zeros(shape), flux_faithful=flux_faithful)
    with pytest.raises(DimensionMismatch):
        polar_factor(np.zeros(shape))


@pytest.mark.parametrize("flux_faithful", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_unitarize_refuses_non_finite_entries(bad, flux_faithful):
    # as UnitaryMatrix does, in both modes, before any SVD could fail to converge
    m = np.eye(3, dtype=complex) / 2
    m[1, 2] = bad
    with pytest.raises(UnitarityError, match="finite entries"):
        unitarize(m, flux_faithful=flux_faithful)
    with pytest.raises(UnitarityError, match="finite entries"):
        polar_factor(m)


def test_unitary_matrix_rejects_nonunitary():
    with pytest.raises(UnitarityError):
        UnitaryMatrix(np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrices_refuse_non_finite_entries(bad):
    # a nan compares false with every tolerance, so each check must fail on it
    for m in (np.full((2, 2), bad), np.diag([1.0, bad])):
        with pytest.raises(UnitarityError):
            UnitaryMatrix(m)
        with pytest.raises(ValueError, match="finite"):
            CouplingMatrix(m / 2)
    with pytest.raises(ValueError):
        CosineGrating((bad, 0.0))


def test_a_coupling_is_a_two_dimensional_matrix():
    for shape in ((), (3,), (2, 2, 2)):
        with pytest.raises(DimensionMismatch, match="2-D"):
            CouplingMatrix(np.zeros(shape))
    # an empty or non-square coupling is a matrix; unitarize refuses it later
    for shape in ((0, 3), (3, 0), (2, 3)):
        c = CouplingMatrix(np.zeros(shape), provenance={"mask": "x"})
        assert c.matrix.shape == shape and c.matrix.dtype == np.complex128
        assert not c.matrix.flags.writeable and c.provenance == {"mask": "x"}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.one_of(st.integers(1, 8), st.integers(9, 300)), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 3e-11]))
def test_unitarity_residual_matches_the_complex_gram(dim, seed, scale):
    rng = np.random.default_rng(seed)
    m = haar_unitary(rng, dim)
    m = m + scale * (rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape))
    reference = float(np.linalg.norm(m.conj().T @ m - np.eye(dim)))
    residual = _unitarity_residual(m)
    assert abs(residual - reference) <= 1e-15 * dim
    if residual > UnitaryMatrix.RESIDUAL_TOL:
        with pytest.raises(UnitarityError):
            UnitaryMatrix(m)
    else:
        assert UnitaryMatrix(m).residual == residual


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.one_of(st.integers(1, 8), st.integers(9, 300)), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 3e-11]))
def test_unitarity_residual_takes_real_products_for_real_values(dim, seed, scale):
    rng = np.random.default_rng(seed)
    real = orthogonal_matrix(rng, dim) + scale * rng.normal(size=(dim, dim))
    residual = _unitarity_residual(real.astype(complex))
    assert residual == _unitarity_residual(real)
    assert abs(residual - unitarity_residual_complex_reference(real)) <= 1e-15 * dim
    # a complex matrix takes the stacked products, bit for bit
    m = haar_unitary(rng, dim) + scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    assert _unitarity_residual(m) == unitarity_residual_complex_reference(m)


@pytest.mark.parametrize("dim", [8, 32, 33, 100])
def test_unitarity_residual_does_not_depend_on_memory_layout(dim):
    # unitarize passes the transpose of a row-major array; at 32 and 33 modes a
    # column-major stack of real and imaginary parts rounds differently
    m = haar_unitary(np.random.default_rng(dim), dim)
    for u in (m.T, m.T.real):
        assert _unitarity_residual(u) == _unitarity_residual(np.ascontiguousarray(u))
    assert _unitarity_residual(m.T) == unitarity_residual_complex_reference(m.T)


@pytest.mark.parametrize("dim", [1, 7, 300])
def test_a_unitary_just_past_the_residual_tolerance_is_refused(dim):
    u = haar_unitary(np.random.default_rng(dim), dim)
    # scaling one column by 1 + t puts (1 + t)^2 - 1 ~ 2t on one diagonal entry of U+ U
    for t, refused in ((0.49e-10, False), (0.51e-10, True)):
        m = u.copy()
        m[:, 0] *= 1.0 + t
        if refused:
            with pytest.raises(UnitarityError, match="unitarity residual 1.0"):
                UnitaryMatrix(m)
        else:
            assert 0.97e-10 < UnitaryMatrix(m).residual <= 1e-10
        # a non-finite entry is refused before any residual is taken
        m[-1, -1] = np.nan
        with pytest.raises(UnitarityError, match="finite entries"):
            UnitaryMatrix(m)


def test_grating_block_reproduces_two_mode_splitting():
    block = grating_block(CosineGrating((0.6, 0.0)))
    assert block.matrix.tobytes() == UnitaryMatrix.balanced_splitter().matrix.tobytes()
    assert block.residual <= 1e-10


# 0 < ux^2 + uy^2 < 1, tiny and near-grazing directions included
_GRATING_DIRECTIONS = st.tuples(
    st.one_of(st.floats(1e-150, 1e-6), st.floats(1e-6, 1 - 1e-6),
              st.floats(1 - 1e-6, 1.0, exclude_max=True)),
    st.one_of(st.sampled_from([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi]), st.floats(0.0, 2 * np.pi)),
).map(lambda p: (p[0] * np.cos(p[1]), p[0] * np.sin(p[1]))).filter(
    lambda u: 0.0 < u[0] ** 2 + u[1] ** 2 < 1.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(u=_GRATING_DIRECTIONS)
def test_every_grating_block_is_the_balanced_splitter(u):
    # the orders +-u carry the same weight, so the column is [1, 1] / sqrt(2) for every u
    mask = CosineGrating(u)
    block = grating_block(mask)
    assert block.matrix.tobytes() == UnitaryMatrix.balanced_splitter().matrix.tobytes()
    orders = PlaneWaveGrid(np.array([mask.u[:2], -mask.u[:2]]))
    want = plane_wave_coupling(mask, PlaneWaveGrid.single(), orders, 2 * np.pi)
    assert block.provenance == want.provenance


def test_grating_block_refuses_a_transparent_grating():
    # cos(0) = 1: both orders are the incident direction, not two modes
    with pytest.raises(SingularNetwork, match="transparent screen"):
        grating_block(CosineGrating((0.0, 0.0)))


@pytest.mark.parametrize("u", [(1.0, 0.0), (0.0, -1.0), (0.6, 0.8)])
def test_grating_block_refuses_grazing_orders(u):
    # a valid screen, but its orders leave along it: the coupling column is zero
    with pytest.raises(SingularNetwork, match="graze the screen"):
        grating_block(CosineGrating(u))


# --------------------------------------------------------------------------
# Inverse design


def test_inverse_design_identity():
    basis = hermite_gaussian_basis(0, waist=1.0)
    f = sample_field((0, 0), basis, GRID)
    h = inverse_design_response(f, f)
    assert abs(design_fidelity(h, f, f) - 1.0) < 1e-10
    j, i = np.unravel_index(np.argmax(np.abs(h.values)), h.values.shape)
    assert (i, j) == (GRID.nx // 2, GRID.ny // 2)


def test_inverse_design_gaussian_to_hg10():
    basis = hermite_gaussian_basis(1, waist=1.0)
    e_in = sample_field((0, 0), basis, GRID)
    e_out = sample_field((1, 0), basis, GRID)
    h = inverse_design_response(e_in, e_out)
    assert design_fidelity(h, e_in, e_out) >= 0.999


def test_inverse_design_out_of_band_raises():
    basis = hermite_gaussian_basis(0, waist=1.0)
    e_in = sample_field((0, 0), basis, GRID)
    X, _ = GRID.meshgrid()
    carrier = np.exp(1j * 0.8 * np.pi / GRID.dx * X)
    e_out = SampledField(GRID, e_in.values * carrier, e_in.k)
    with pytest.raises(SpectralMismatch) as err:
        inverse_design_response(e_in, e_out)
    assert err.value.lost_fraction > 0.99


def test_designed_kernel_round_trips_with_its_provenance():
    basis = hermite_gaussian_basis(1, waist=1.0)
    e_in = sample_field((0, 0), basis, GRID)
    e_out = sample_field((1, 0), basis, GRID)
    h = inverse_design_response(e_in, e_out, eps_rel=1e-5)
    back = ImpulseResponse.from_json(json.loads(json.dumps(h.to_json())))
    assert back.values.tobytes() == h.values.tobytes()
    assert back.provenance == h.provenance
    assert h.provenance == {"eps_rel": 1e-5, "lost_fraction": h.provenance["lost_fraction"]}
    assert back.spectral_cap == h.spectral_cap


def test_apply_impulse_response_linearity_with_spectrum():
    basis = hermite_gaussian_basis(1, waist=1.0)
    e_in = sample_field((0, 0), basis, GRID)
    e_out = sample_field((1, 1), basis, GRID)
    h = inverse_design_response(e_in, e_out)
    got = apply_impulse_response(h, e_in)
    assert abs(abs(np.vdot(got.values, e_out.values)) * GRID.cell_area) > 0.999


# --------------------------------------------------------------------------
# Serialization


def test_mask_json_round_trip():
    for mask in (
        CosineGrating((0.6, 0.0)),
        CircularAperture(1.5),
        CustomSampled(
            Grid2D(32, 32, 0.2, 0.2),
            np.exp(-np.add.outer(np.arange(32) / 16.0, np.arange(32) / 16.0) * 1j),
        ),
    ):
        doc = json.loads(json.dumps(mask_to_json(mask)))
        back = mask_from_json(doc)
        assert back.kind == mask.kind
        g = Grid2D(32, 32, 0.2, 0.2)
        np.testing.assert_array_equal(back.sample(g, k=2.0), mask.sample(g, k=2.0))


def test_unitary_json_and_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    u = UnitaryMatrix(haar_unitary(rng, 3))
    p = tmp_path / "u.json"
    u.save(p)
    v = UnitaryMatrix.load(p)
    assert np.max(np.abs(u.matrix - v.matrix)) < 1e-15

    csv = "".join(f"{line}\n" for line in ["row,col,re,im", *u.csv_rows()])
    lines = csv.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    rows = [l.split(",") for l in lines[1:]]
    rebuilt = np.zeros((3, 3), dtype=complex)
    for r, c, re, im in rows:
        rebuilt[int(r), int(c)] = float(re) + 1j * float(im)
    np.testing.assert_array_equal(rebuilt, u.matrix)

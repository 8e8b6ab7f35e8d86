import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from maskmodes.diffraction import (
    CircularAperture,
    CosineGrating,
    CouplingMatrix,
    CustomSampled,
    UnitaryMatrix,
    _is_connected,
    aperture_output_grid,
    apply_impulse_response,
    complete_to_unitary,
    design_fidelity,
    grating_block,
    inverse_design_response,
    jinc,
    mask_from_json,
    mask_spectrum,
    mask_to_json,
    overlap_unitary,
    plane_wave_coupling,
    unitarize,
)
from maskmodes.errors import (
    AliasingDetected,
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
from util import gauge_fix, haar_unitary, is_connected_dfs

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


# --------------------------------------------------------------------------
# Unitarization


def test_unitarize_symmetric_unitary_unchanged():
    c = CouplingMatrix(HADAMARD, [0, 1], [0, 1])
    u = unitarize(c)
    assert np.max(np.abs(u.matrix - HADAMARD)) < 1e-12
    assert u.provenance["unitarization_distance"] < 1e-12


def test_unitarize_transposes_into_operator_orientation():
    rng = np.random.default_rng(2)
    w = haar_unitary(rng, 3)
    u = unitarize(CouplingMatrix(w, range(3), range(3)))
    assert np.max(np.abs(u.matrix - w.T)) < 1e-12


def test_unitarize_scaled_hadamard():
    c = CouplingMatrix(0.9 * HADAMARD, [0, 1], [0, 1])
    u = unitarize(c)
    assert np.max(np.abs(u.matrix - HADAMARD)) < 1e-12
    assert abs(u.provenance["unitarization_distance"] - 0.1 * np.sqrt(2)) < 1e-12


def test_unitarize_flux_faithful_dilation():
    c = CouplingMatrix(np.diag([0.9, 0.5]), [0, 1], [0, 1])
    u = unitarize(c, flux_faithful=True)
    assert u.dim == 4
    # scattering block sits in the transpose's top-left corner
    np.testing.assert_allclose(u.matrix.T[:2, :2], np.diag([0.9, 0.5]), atol=1e-12)
    assert u.residual <= 1e-10


def test_unitarize_idempotent():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = m / np.linalg.norm(m, 2)
    once = unitarize(CouplingMatrix(m, range(3), range(3)))
    twice = unitarize(CouplingMatrix(once.matrix.T, range(3), range(3)))
    assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-12


def test_unitarize_singular_network():
    c = CouplingMatrix(np.diag([1.0, 1e-8]), [0, 1], [0, 1])
    with pytest.raises(SingularNetwork):
        unitarize(c)


def test_compiled_unitary_singular_values():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = unitarize(CouplingMatrix(m / np.linalg.norm(m, 2), range(4), range(4)))
    s = np.linalg.svd(u.matrix, compute_uv=False)
    assert np.max(np.abs(s - 1.0)) < 1e-10


def test_unitary_matrix_rejects_nonunitary():
    with pytest.raises(UnitarityError):
        UnitaryMatrix(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_connectivity_flag():
    assert UnitaryMatrix.balanced_splitter().connected
    assert not UnitaryMatrix.identity(2).connected
    blockdiag = np.zeros((4, 4), dtype=complex)
    blockdiag[:2, :2] = HADAMARD
    blockdiag[2:, 2:] = HADAMARD
    assert not UnitaryMatrix(blockdiag).connected


def _permuted(data, adj):
    rows = data.draw(st.permutations(range(adj.shape[0])))
    cols = data.draw(st.permutations(range(adj.shape[1])))
    return adj[np.ix_(rows, cols)]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_is_connected_matches_dfs_reference(data):
    kind = data.draw(st.sampled_from(["pattern", "blocks", "chain"]))
    if kind == "pattern":
        n, m = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
        cells = data.draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
        adj = np.array(cells, dtype=bool).reshape(n, m)
    elif kind == "blocks":
        # each block is fully coupled, so the graph is connected iff there is one block
        shapes = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4))
        adj = _permuted(data, block_diag(*[np.ones(s, dtype=bool) for s in shapes]))
        assert _is_connected(adj) == (len(shapes) == 1)
    else:
        # input j couples to outputs j and j+1: the longest path a square graph can have
        n = data.draw(st.integers(1, 120))
        adj = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool)
        cut = data.draw(st.one_of(st.none(), st.integers(0, n - 2))) if n > 1 else None
        if cut is not None:
            adj[cut, cut + 1] = False
        adj = _permuted(data, adj)
        assert _is_connected(adj) == (cut is None)
    assert _is_connected(adj) == is_connected_dfs(adj)


def test_is_connected_smallest_graphs():
    assert not _is_connected(np.zeros((0, 0), dtype=bool))
    assert not _is_connected(np.zeros((1, 1), dtype=bool))
    assert _is_connected(np.ones((1, 1), dtype=bool))


def test_complete_to_unitary_balanced_column():
    col = np.array([[1.0], [1.0]]) / np.sqrt(2)
    full = complete_to_unitary(col)
    np.testing.assert_allclose(full, HADAMARD, atol=1e-15)


def test_grating_block_reproduces_two_mode_splitting():
    block = grating_block(CosineGrating((0.6, 0.0)))
    fixed = gauge_fix(block.matrix)
    np.testing.assert_allclose(fixed, HADAMARD, rtol=0, atol=1e-9)
    assert block.residual <= 1e-10


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


def test_coupling_json_round_trip():
    inp = PlaneWaveGrid.single(0.0, 0.0)
    out = PlaneWaveGrid([[0.6, 0.0], [-0.6, 0.0]])
    c = plane_wave_coupling(CosineGrating((0.6, 0.0)), inp, out, k=2 * np.pi)
    back = CouplingMatrix.from_json(json.loads(json.dumps(c.to_json())))
    np.testing.assert_array_equal(back.matrix, c.matrix)
    assert back.provenance["mask"] == "cosine_grating"


def test_unitary_json_and_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    u = UnitaryMatrix(haar_unitary(rng, 3))
    p = tmp_path / "u.json"
    u.save(p)
    v = UnitaryMatrix.load(p)
    assert np.max(np.abs(u.matrix - v.matrix)) < 1e-15

    csv = tmp_path / "u.csv"
    u.to_csv(csv)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    rows = [l.split(",") for l in lines[1:]]
    rebuilt = np.zeros((3, 3), dtype=complex)
    for r, c, re, im in rows:
        rebuilt[int(r), int(c)] = float(re) + 1j * float(im)
    np.testing.assert_array_equal(rebuilt, u.matrix)

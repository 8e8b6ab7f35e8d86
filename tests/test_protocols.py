import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskmodes.diffraction import UnitaryMatrix
from maskmodes.errors import DimensionMismatch, InvalidEfficiency
from maskmodes.fock import MultimodeFockState, apply_unitary
from maskmodes.protocols import _noon_fidelity_theta, hom_coincidence, ifm_project, noon_scan
from util import haar_unitary, two_mode_closed_form

BALANCED = UnitaryMatrix.balanced_splitter()
BELL = np.array([0, 1, 1, 0]) / np.sqrt(2)


def test_ifm_perfect_absorption_projects_bell_state():
    atoms, p_null = ifm_project(1.0, BALANCED)
    assert abs(p_null - 1.0) < 1e-12
    assert abs(atoms.fidelity_with(BELL) - 1.0) < 1e-12


def test_ifm_partial_absorption_same_bell_state():
    atoms, p_null = ifm_project(0.5, BALANCED)
    assert abs(p_null - 0.5) < 1e-12
    assert abs(atoms.fidelity_with(BELL) - 1.0) < 1e-12


def test_ifm_unbalanced_block():
    theta = 1.1
    atoms, _ = ifm_project(1.0, UnitaryMatrix.su2(theta))
    target = np.array([0, np.sin(theta / 2), np.cos(theta / 2), 0])
    assert abs(atoms.fidelity_with(target) - 1.0) < 1e-12


def test_ifm_probability_conservation():
    for eta in (0.25, 0.5, 1.0):
        for theta in (np.pi / 2, 0.7, 2.4):
            _, p_null = ifm_project(eta, UnitaryMatrix.su2(theta))
            detected = (1.0 - eta)  # photon always reaches the detector if not absorbed
            assert abs(p_null + detected - 1.0) < 1e-12


def test_ifm_invalid_efficiency():
    with pytest.raises(InvalidEfficiency):
        ifm_project(0.0, BALANCED)
    with pytest.raises(InvalidEfficiency):
        ifm_project(1.2, BALANCED)
    with pytest.raises(DimensionMismatch):
        ifm_project(1.0, UnitaryMatrix.identity(3))


def test_hom_dip_at_balanced_block():
    assert hom_coincidence(BALANCED) < 1e-12
    assert hom_coincidence(UnitaryMatrix.su2(np.pi / 2)) < 1e-12


def test_hom_identity_always_coincides():
    assert abs(hom_coincidence(UnitaryMatrix.identity(2)) - 1.0) < 1e-15


def test_hom_third_pi_splitter():
    got = hom_coincidence(UnitaryMatrix.su2(np.pi / 3))
    assert abs(got - 0.25) < 1e-9


def test_hom_sweep_matches_cos_squared():
    for theta in np.linspace(0.0, np.pi, 64):
        got = hom_coincidence(UnitaryMatrix.su2(theta))
        assert abs(got - np.cos(theta) ** 2) < 1e-9


_ANGLES = st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False)
_PHASED_PERMUTATIONS = st.builds(  # diagonal or anti-diagonal: two zero entries
    lambda swap, a, b: UnitaryMatrix(
        np.diag(np.exp(1j * np.array([a, b])))[:, [1, 0] if swap else [0, 1]]),
    st.booleans(), _ANGLES, _ANGLES)
_TWO_MODE_NETWORKS = st.one_of(
    st.integers(0, 2**32 - 1).map(
        lambda seed: UnitaryMatrix(haar_unitary(np.random.default_rng(seed), 2))),
    st.builds(UnitaryMatrix.su2, _ANGLES, _ANGLES),
    _PHASED_PERMUTATIONS,
    st.just(UnitaryMatrix.identity(2)),
    st.just(UnitaryMatrix.balanced_splitter()),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_TWO_MODE_NETWORKS)
def test_hom_permanent_matches_the_fock_engine(u):
    """The closed form reads what the engine writes for |1,1> through the network."""
    out = apply_unitary(MultimodeFockState.from_occupation((1, 1)), u)
    assert abs(hom_coincidence(u) - abs(out.amplitude((1, 1))) ** 2) <= 1e-14


def test_hom_refuses_a_network_that_is_not_two_mode():
    with pytest.raises(DimensionMismatch):
        hom_coincidence(UnitaryMatrix.identity(3))


def test_noon_scan_small_photon_numbers_reach_unity():
    for n in (1, 2):
        res = noon_scan(n, 64)[0]
        assert res.best_fidelity >= 1.0 - 1e-9


def test_noon_two_photons_uses_hong_ou_mandel_point():
    res = noon_scan(2, 64)[0]
    assert res.best_split == 1
    assert abs(res.best_theta - np.pi / 2) < 1e-9


def test_noon_three_and_four_photons_capped():
    for n, known_best in ((3, 0.75), (4, 0.75)):
        res = noon_scan(n, 256)[0]
        assert res.best_fidelity <= 1.0 - 1e-3
        # brute maximum of the closed-form family lands on 3/4
        assert abs(res.best_fidelity - known_best) < 1e-9


def test_noon_scan_monotone_under_refinement():
    # doubling the steps keeps every angle, so the grid maximum cannot fall,
    # and the refined best is never below the grid maximum of its own table
    last = 0.0
    for steps in (64, 128, 256):
        res, _, values = noon_scan(3, steps)
        assert values.max() >= last
        last = values.max()
        assert res.best_fidelity >= last


def _loop_scan(photons, steps):
    """The scan split by split: a strict ``>`` keeps the first best split and
    angle, then four rounds of 33 angles refine it."""
    thetas = np.linspace(0.0, np.pi, steps + 1)
    rows = [_noon_fidelity_theta(m, photons - m, thetas) for m in range(photons + 1)]
    fid, split, theta = -1.0, 0, 0.0
    for m, f in enumerate(rows):
        i = int(np.argmax(f))
        if f[i] > fid:
            fid, split, theta = float(f[i]), m, float(thetas[i])
    half = np.pi / steps
    for _ in range(4):
        ts = np.linspace(max(0.0, theta - half), min(np.pi, theta + half), 33)
        f = _noon_fidelity_theta(split, photons - split, ts)
        i = int(np.argmax(f))
        if f[i] > fid:
            fid, theta = float(f[i]), float(ts[i])
        half *= 0.1
    return (min(max(fid, 0.0), 1.0), split, theta), np.max(rows, axis=0)


@pytest.mark.parametrize("steps", [64, 100])
def test_noon_table_matches_the_split_by_split_loop(steps):
    for photons in (*range(1, 13), 40):
        best, surface = _loop_scan(photons, steps)
        res, _, values = noon_scan(photons, steps)
        assert (res.best_fidelity, res.best_split, res.best_theta) == best
        assert values.tobytes() == surface.tobytes()


def test_noon_scan_consistent_with_closed_form_states():
    # the scan's overlap amplitudes must match the full closed-form state
    for (m, n, theta) in ((1, 1, np.pi / 2), (2, 1, 1.0), (3, 1, 2.0)):
        st = two_mode_closed_form(m, n, theta, 0.0)
        total = m + n
        a = abs(st.amplitude((total, 0)))
        b = abs(st.amplitude((0, total)))
        direct = (a + b) ** 2 / 2
        assert abs(direct - _noon_fidelity_theta(m, n, np.array([theta]))[0]) < 1e-12


@pytest.mark.parametrize("m, n, theta", [(1, 1, np.pi / 2), (2, 1, 1.0), (3, 2, 2.4), (0, 4, 0.9)])
def test_noon_fidelity_does_not_depend_on_the_splitter_phase(m, n, theta):
    """The scan has no phi axis: the engine's output through su2(theta, phi)
    gives the same NOON fidelity at every phi."""
    total = m + n
    for phi in (0.0, 0.7, 2.9, -1.3):
        out = apply_unitary(MultimodeFockState.from_occupation((m, n)),
                            UnitaryMatrix.su2(theta, phi))
        got = (abs(out.amplitude((total, 0))) + abs(out.amplitude((0, total)))) ** 2 / 2
        assert abs(got - _noon_fidelity_theta(m, n, theta)) < 1e-12


def test_noon_scan_grid_validation():
    with pytest.raises(ValueError):
        noon_scan(0)
    with pytest.raises(ValueError):
        noon_scan(2, 32)


def test_noon_surface_shape_and_range():
    _, thetas, vals = noon_scan(2, 64)
    assert thetas.shape == vals.shape == (65,)
    assert np.all(vals >= 0) and np.all(vals <= 1 + 1e-12)
    assert abs(np.max(vals) - 1.0) < 1e-12


def test_scan_result_serialization():
    doc = noon_scan(2, 64)[0].to_json()
    assert doc["photons"] == 2
    assert 0 <= doc["best_fidelity"] <= 1

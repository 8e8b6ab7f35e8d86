import itertools
import json
import sys
import tracemalloc
import warnings
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maskmodes import fock
from maskmodes._jsonio import decode_array, dumps, encode_array
from maskmodes.diffraction import UnitaryMatrix
from maskmodes.errors import (
    DimensionMismatch,
    MalformedDocument,
    NonPhysical,
    OutOfRange,
    PrecisionLoss,
    StateTooLarge,
)
from maskmodes.entanglement import Bipartition, entanglement_report
from maskmodes.fock import (
    DEFAULT_PRUNE,
    MAX_TERMS,
    SECTOR_TABLE_BYTES,
    Coherent,
    Fock,
    InputStateSpec,
    MultimodeFockState,
    SqueezedVacuum,
    Vacuum,
    apply_unitary,
    build_input_state,
    parse_descriptor,
    state_fidelity,
    _expand,
    _gaussian_amplitudes,
    _gaussian_sectors,
    _layout,
    _occupation_type,
    _pack,
    _total_degree_cap,
)
from maskmodes.separability import gaussian_covariance_propagate
from util import (
    expand_row_by_row,
    gaussian_mode_entropy,
    gaussian_sectors_full_recurrence,
    haar_unitary,
    max_amplitude_diff,
    oracle_apply,
    sector_norms,
    state_document,
    two_mode_closed_form,
)

BALANCED = UnitaryMatrix.balanced_splitter()


def test_parse_descriptors():
    assert parse_descriptor("vac") == Vacuum()
    assert parse_descriptor("fock:3") == Fock(3)
    assert parse_descriptor("coh:1+0.5j") == Coherent(1 + 0.5j)
    assert parse_descriptor("sq:0.3") == SqueezedVacuum(0.3)
    with pytest.raises(ValueError):
        parse_descriptor("banana")


def test_build_fock_vacuum_product():
    st = build_input_state(InputStateSpec([Fock(1), Vacuum()]))
    assert st.amplitudes == {(1, 0): pytest.approx(1.0)}


def test_coherent_zero_is_vacuum():
    st = build_input_state(InputStateSpec([Coherent(0.0)]))
    assert st.amplitudes == {(0,): pytest.approx(1.0)}


def test_squeezed_vacuum_amplitudes():
    st = build_input_state(InputStateSpec([SqueezedVacuum(0.3)]))
    for (n,), a in st.amplitudes.items():
        if n % 2 == 1:
            raise AssertionError("odd occupation in squeezed vacuum")
    ratio = st.amplitude((2,)) / st.amplitude((0,))
    # operator convention exp(lam (a+^2 - a^2)/2) gives the +tanh branch
    assert abs(ratio - np.tanh(0.3) / sqrt(2)) < 1e-12
    assert abs(st.norm_sq() - 1.0) < 1e-10


_MODES = st.one_of(
    st.just(Vacuum()),
    st.integers(0, 3).map(Fock),
    st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False).map(Coherent),
    st.floats(-0.4, 0.4).map(SqueezedVacuum),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(descs=st.lists(_MODES, min_size=1, max_size=4))
def test_product_input_is_the_product_over_every_mode(descs):
    # reference: every mode in turn, each row extended by each of the mode's levels
    # up to the total degree T; the amplitude is pruned once, at the end.  A Python
    # complex product can round an ulp apart from numpy's loop, so values get a tolerance.
    spec = InputStateSpec(descs)
    top, gaussian = spec._truncation
    rows = {(): 1 + 0j}
    for j, n in enumerate(spec.photons.tolist()):
        levels = list(enumerate(gaussian[j])) if j in gaussian else [(n, 1)]
        rows = {row + (k,): value * a for row, value in rows.items() for k, a in levels
                if sum(row) + k <= top}
    want = MultimodeFockState(len(descs), {row: v for row, v in rows.items()
                                           if abs(v) >= DEFAULT_PRUNE})
    got = build_input_state(spec)
    assert np.array_equal(got.occupations, want.occupations)
    np.testing.assert_allclose(got.values, want.values, rtol=0, atol=8 * np.finfo(float).eps)


def test_negative_photon_number_rejected():
    with pytest.raises(NonPhysical):
        Fock(-1)
    with pytest.raises(NonPhysical):
        MultimodeFockState(1, {(-2,): 1.0})


def test_non_finite_parameters_rejected():
    for make in (lambda: Coherent(complex("nan")), lambda: Coherent(float("inf")),
                 lambda: Coherent(complex(0, float("-inf"))), lambda: SqueezedVacuum(float("inf")),
                 lambda: SqueezedVacuum(float("nan"))):
        with pytest.raises(NonPhysical, match="not finite"):
            make()
    for bad in (float("nan"), float("inf"), complex(0.1, float("nan"))):
        with pytest.raises(NonPhysical, match="non-finite"):
            MultimodeFockState(2, {(1, 0): 0.6, (0, 1): bad})
        with pytest.raises(NonPhysical, match="non-finite"):
            MultimodeFockState.from_json({**MultimodeFockState.vacuum(1).to_json(),
                                          "values_b64": encode_array([bad])})


def test_oversized_mode_refused_before_allocation():
    tracemalloc.start()
    try:
        # a Gaussian mode is refused at its first expansion, a Fock count no state holds at once
        with pytest.raises(StateTooLarge):
            build_input_state(InputStateSpec([Coherent(1e4)]))
        with pytest.raises(StateTooLarge):
            InputStateSpec([Fock(10**30), Vacuum()])
        with pytest.raises(StateTooLarge):
            build_input_state(InputStateSpec([SqueezedVacuum(1e200)]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_apply_identity_leaves_state():
    st = build_input_state(InputStateSpec([Coherent(0.6), SqueezedVacuum(0.2)]))
    out = apply_unitary(st, UnitaryMatrix.identity(2))
    assert max_amplitude_diff(st, out) < 1e-14


def test_single_photon_through_balanced_block():
    out = apply_unitary(MultimodeFockState.from_occupation((1, 0)), BALANCED)
    assert abs(out.amplitude((1, 0)) - 1 / sqrt(2)) < 1e-15
    assert abs(out.amplitude((0, 1)) - 1 / sqrt(2)) < 1e-15


def test_two_photons_through_balanced_block():
    out = apply_unitary(MultimodeFockState.from_occupation((2, 0)), BALANCED)
    assert abs(out.amplitude((2, 0)) - 0.5) < 1e-14
    assert abs(out.amplitude((1, 1)) - 1 / sqrt(2)) < 1e-14
    assert abs(out.amplitude((0, 2)) - 0.5) < 1e-14


def test_binomial_line_up_to_six_photons():
    for n_tot in range(1, 7):
        out = apply_unitary(MultimodeFockState.from_occupation((n_tot, 0)), BALANCED)
        for j in range(n_tot + 1):
            expected = sqrt(comb(n_tot, j) / 2**n_tot)
            assert abs(out.amplitude((j, n_tot - j)) - expected) < 1e-12


def test_norm_preserved_random_states_and_networks():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n_modes = int(rng.integers(2, 5))
        u = UnitaryMatrix(haar_unitary(rng, n_modes))
        amps = {}
        for _ in range(6):
            tup = tuple(int(x) for x in rng.integers(0, 3, size=n_modes))
            amps[tup] = complex(rng.normal(), rng.normal())
        st = MultimodeFockState(n_modes, amps)
        out = apply_unitary(st, u)
        assert abs(out.norm_sq() - 1.0) < 1e-10


def test_photon_sectors_conserved_exactly():
    rng = np.random.default_rng(11)
    u = UnitaryMatrix(haar_unitary(rng, 3))
    st = MultimodeFockState(3, {(1, 0, 0): 0.6, (0, 2, 1): 0.8})
    out = apply_unitary(st, u)
    assert set(sector_norms(out)) == {1, 3}
    for total, weight in sector_norms(st).items():
        assert abs(sector_norms(out)[total] - weight) < 1e-10


def test_composition_is_matrix_product_in_application_order():
    # applying U then V equals applying UV: substitution composes rowwise
    rng = np.random.default_rng(12)
    u = haar_unitary(rng, 3)
    v = haar_unitary(rng, 3)
    st = MultimodeFockState(3, {(2, 1, 0): 0.5, (0, 1, 2): 0.5j, (1, 1, 1): 0.2})
    seq = apply_unitary(apply_unitary(st, UnitaryMatrix(u)), UnitaryMatrix(v))
    par = apply_unitary(st, UnitaryMatrix(u @ v))
    assert max_amplitude_diff(seq, par) < 1e-9


def test_product_fast_path_matches_generic():
    spec = InputStateSpec([Coherent(0.8), SqueezedVacuum(0.3), Vacuum()])
    st = build_input_state(spec)
    rng = np.random.default_rng(13)
    u = UnitaryMatrix(haar_unitary(rng, 3))
    fast = apply_unitary(st, u)
    slow = apply_unitary(MultimodeFockState(3, dict(st.amplitudes)), u)
    assert max_amplitude_diff(fast, slow) < 1e-9
    # sectors of at most five photons against the permanent oracle
    low = {t: a for t, a in st.amplitudes.items() if sum(t) <= 5}
    want = oracle_apply(low, u.matrix)
    assert max(abs(fast.amplitude(t) - a) for t, a in want.items()) < 1e-12


def _squeezed_photon_distribution(lam, length):
    """``P(2m) = sech(lam) tanh(lam)^(2m) C(2m, m) / 4^m``, from the ratio of successive terms."""
    p = np.zeros(length)
    p[0] = 1 / np.cosh(lam)
    for m in range(1, (length + 1) // 2):
        p[2 * m] = p[2 * m - 2] * np.tanh(lam) ** 2 * (2 * m - 1) / (2 * m)
    return p


def test_total_degree_cap_leaves_at_most_1e20_above_it():
    spec = InputStateSpec([SqueezedVacuum(0.3), SqueezedVacuum(-0.3), Fock(2)])
    cap = spec._truncation[0] - 2
    dist = np.convolve(*(_squeezed_photon_distribution(lam, 200) for lam in (0.3, -0.3)))
    assert dist[cap + 1:][::-1].sum() <= 1e-20  # summed from the smallest tail up
    assert dist[cap:][::-1].sum() > 1e-20  # and the cap is the smallest such degree
    assert _total_degree_cap([_squeezed_photon_distribution(0.3, 200)] * 2) == cap


def test_state_size_checked_before_allocation():
    spec = InputStateSpec([Coherent(2.0)] + [Vacuum()] * 19)
    u = UnitaryMatrix(haar_unitary(np.random.default_rng(15), 20))
    with pytest.raises(StateTooLarge) as err:
        apply_unitary(build_input_state(spec), u)
    assert err.value.estimated_terms == comb(spec._truncation[0] + 20, 20) > MAX_TERMS
    with pytest.raises(StateTooLarge) as err:
        build_input_state(InputStateSpec([Coherent(3.0)] * 6))
    assert err.value.estimated_terms > MAX_TERMS


def test_gaussian_input_wider_than_64_modes():
    # 70 modes at T = 2 need two packed words per row
    u = UnitaryMatrix(haar_unitary(np.random.default_rng(14), 70))
    spec = InputStateSpec([Coherent(1e-4 + 2e-5j)] + [Vacuum()] * 69)
    out = apply_unitary(build_input_state(spec), u)
    assert spec._truncation[0] == 2 and len(out.values) == comb(72, 70)
    cov = gaussian_covariance_propagate(spec, u)
    for k in (0, 38, 39, 69):
        bits = entanglement_report(out, Bipartition((k,), 70)).entropy_bits
        assert abs(bits - gaussian_mode_entropy(cov, k)) <= 1e-9
    # the output is the coherent product with amplitudes beta = U^T alpha
    beta = u.matrix.T @ spec.alpha
    for occ in ((0,) * 70, (0,) * 39 + (1,) + (0,) * 30, (1,) + (0,) * 68 + (1,)):
        want = np.exp(-np.sum(np.abs(beta) ** 2) / 2) * np.prod(beta ** np.array(occ))
        assert abs(out.amplitude(occ) - want) < 1e-14


def test_opposite_coherent_pair_leaves_exact_vacuum():
    # a balanced splitter sends coh:1,coh:-1 to coh:0,coh:sqrt(2) (up to sign)
    out = apply_unitary(build_input_state(InputStateSpec([Coherent(1.0), Coherent(-1.0)])),
                        BALANCED)
    assert len(out.values) == 27
    assert np.all(out.occupations[:, 0] == 0) or np.all(out.occupations[:, 1] == 0)


_GAUSSIAN_BOUNDS = {2: (1.5, 3.0), 3: (0.8, 1.5), 4: (0.5, 1.0)}  # modes: (max |lam|, max |alpha|)


@st.composite
def _gaussian_inputs(draw):
    m = draw(st.sampled_from(sorted(_GAUSSIAN_BOUNDS)))
    lam_max, alpha_max = _GAUSSIAN_BOUNDS[m]
    descs = []
    for kind in draw(st.lists(st.sampled_from("vcs"), min_size=m, max_size=m)):
        if kind == "c":
            r, phase = draw(st.floats(0, alpha_max)), draw(st.floats(0, 2 * np.pi))
            descs.append(Coherent(r * np.exp(1j * phase)))
        elif kind == "s":
            descs.append(SqueezedVacuum(draw(st.floats(-lam_max, lam_max))))
        else:
            descs.append(Vacuum())
    return descs, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=12, derandomize=True, deadline=None)
@given(case=_gaussian_inputs())
@example(case=([Coherent(12 * np.exp(0.4j)), SqueezedVacuum(0.5)], 5))  # 20272 terms
def test_gaussian_inputs_match_covariance_oracle(case):
    descs, seed = case
    m = len(descs)
    u = UnitaryMatrix(haar_unitary(np.random.default_rng(seed), m))
    spec = InputStateSpec(descs)
    # the raw expansion (before pruning and renormalization) carries the whole norm
    top = spec._truncation[0]
    _, vals = _expand(u.matrix, top, spec.photons[None], [1.0], (spec.alpha, spec.lam))
    assert abs(np.vdot(vals, vals).real - 1.0) <= 1e-12
    out = apply_unitary(build_input_state(spec), u)
    cov = gaussian_covariance_propagate(spec, u)
    for k in range(m):
        bits = entanglement_report(out, Bipartition((k,), m)).entropy_bits
        assert abs(bits - gaussian_mode_entropy(cov, k)) <= 1e-9


def test_product_input_wider_than_64_modes():
    rng = np.random.default_rng(14)
    u = UnitaryMatrix(haar_unitary(rng, 70))
    out = apply_unitary(build_input_state(InputStateSpec([Fock(1)] + [Vacuum()] * 69)), u)
    assert len(out.values) == 70
    assert np.all(out.occupations.sum(axis=1) == 1)
    assert abs(out.amplitude((0,) * 69 + (1,)) - u.matrix[0, 69]) < 1e-14


def _occupations(m):
    return st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(lambda t: sum(t) <= 4)


@settings(max_examples=60)
@given(data=st.data())
def test_engine_matches_permanent_oracle(data):
    m = data.draw(st.integers(2, 5))
    rows = [tuple(t) for t in data.draw(st.lists(_occupations(m), min_size=1, max_size=4))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    amps = {t: complex(rng.normal(), rng.normal()) for t in rows}
    first = rows[0]
    u, v = haar_unitary(rng, m), haar_unitary(rng, m)
    state = MultimodeFockState(m, amps)
    out = apply_unitary(state, UnitaryMatrix(u))

    want = oracle_apply(state.amplitudes, u)
    assert max(abs(out.amplitude(t) - a) for t, a in want.items()) < 1e-12
    assert all(abs(a) < 1e-12 for t, a in out.amplitudes.items() if t not in want)

    product_input = build_input_state(InputStateSpec([Fock(n) for n in first]))
    by_factors = apply_unitary(product_input, UnitaryMatrix(u))
    by_terms = apply_unitary(MultimodeFockState.from_occupation(first), UnitaryMatrix(u))
    assert np.array_equal(by_factors.occupations, by_terms.occupations)
    assert np.max(np.abs(by_factors.values - by_terms.values)) < 1e-12

    seq = apply_unitary(out, UnitaryMatrix(v))
    par = apply_unitary(state, UnitaryMatrix(u @ v))
    assert max_amplitude_diff(seq, par) < 1e-12

    assert abs(out.norm_sq() - 1.0) < 1e-12
    sectors = sector_norms(state)
    assert sector_norms(out).keys() == sectors.keys()
    assert all(abs(sector_norms(out)[n] - w) < 1e-12 for n, w in sectors.items())


@st.composite
def _networks(draw, m):
    """A Haar, real-orthogonal or phased-permutation network on ``m`` modes.

    A phased permutation gives every row of U a single nonzero entry."""
    kind = draw(st.sampled_from(["haar", "orthogonal", "permutation"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "haar":
        return haar_unitary(rng, m)
    if kind == "orthogonal":
        return np.linalg.qr(rng.normal(size=(m, m)))[0].astype(complex)
    u = np.zeros((m, m), dtype=complex)
    u[np.arange(m), rng.permutation(m)] = np.exp(2j * np.pi * rng.random(m))
    return u


@st.composite
def _one_row_inputs(draw):
    """Fock photons on some of 1-4 modes, the others vacuum, coherent or squeezed."""
    m = draw(st.integers(1, 4))
    descs = []
    for _ in range(m):
        kind = draw(st.sampled_from("fvcs"))
        if kind == "f":
            descs.append(Fock(draw(st.integers(1, 3))))
        elif kind == "c":
            phase = np.exp(2j * np.pi * draw(st.floats(0, 1)))
            descs.append(Coherent(draw(st.floats(0.05, 0.8)) * phase))
        elif kind == "s":
            sign = draw(st.sampled_from([-1, 1]))
            descs.append(SqueezedVacuum(sign * draw(st.floats(0.05, 0.4))))
        else:
            descs.append(Vacuum())
    return InputStateSpec(descs), draw(_networks(m))


@settings(max_examples=40, deadline=None)
@given(case=_one_row_inputs())
@example(case=(InputStateSpec.parse("fock:2,coh:0.5,sq:0.3"),
               haar_unitary(np.random.default_rng(3), 3)))
def test_one_row_pass_is_bit_identical_to_the_row_by_row_reference(case):
    spec, u = case
    seed = (spec.alpha, spec.lam) if spec.alpha.any() or spec.lam.any() else None
    args = (u, spec._truncation[0], spec.photons[None], [1.0], seed)
    occ, vals = _expand(*args)
    ref_occ, ref_vals = expand_row_by_row(*args)
    assert occ.dtype == ref_occ.dtype and np.array_equal(occ, ref_occ)
    assert vals.tobytes() == ref_vals.tobytes()  # signed zeros included


@st.composite
def _multi_row_states(draw):
    """A normalized state of 2-5 rows over 2-5 modes, each row 0-4 photons."""
    m = draw(st.integers(2, 5))
    rows = draw(st.lists(_occupations(m), min_size=2, max_size=5, unique_by=tuple))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = {tuple(t): complex(rng.normal(), rng.normal()) for t in rows}
    return MultimodeFockState(m, amps), draw(_networks(m))


@settings(max_examples=30, deadline=None)
@given(case=_multi_row_states())
@example(case=(MultimodeFockState(3, {(0, 0, 0): 0.6, (1, 0, 2): 0.48, (2, 1, 1): 0.64j}),
               haar_unitary(np.random.default_rng(5), 3)))
def test_multi_row_pass_matches_the_reference_and_the_permanent_oracle(case):
    state, u = case
    top = int(state.occupations.sum(axis=1).max())
    occ, vals = _expand(u, top, state.occupations, state.values)
    ref_occ, ref_vals = expand_row_by_row(u, top, state.occupations, state.values)
    assert np.array_equal(occ, ref_occ)
    assert np.max(np.abs(vals - ref_vals)) <= 1e-12
    got = dict(zip(map(tuple, occ.tolist()), vals))
    want = oracle_apply(state.amplitudes, u)
    assert all(abs(got.get(t, 0.0) - a) <= 1e-12 for t, a in want.items())
    assert all(abs(a) <= 1e-12 for t, a in got.items() if t not in want)


def test_cascade_of_two_networks_stays_small():
    # a (9 modes, 5 photons) Haar output, 1287 rows, through a second Haar network
    rng = np.random.default_rng(21)
    u, v = UnitaryMatrix(haar_unitary(rng, 9)), UnitaryMatrix(haar_unitary(rng, 9))
    first = apply_unitary(MultimodeFockState.from_occupation((1, 0, 2, 0, 1, 0, 0, 1, 0)), u)
    assert len(first.values) == 1287
    tracemalloc.start()
    try:
        second = apply_unitary(first, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"
    composed = apply_unitary(MultimodeFockState.from_occupation((1, 0, 2, 0, 1, 0, 0, 1, 0)),
                             UnitaryMatrix(u.matrix @ v.matrix))
    assert max_amplitude_diff(second, composed) < 1e-12


def test_photon_loss_through_flux_faithful_dilation():
    from maskmodes.diffraction import CouplingMatrix, unitarize

    u = unitarize(CouplingMatrix(np.diag([0.9, 0.5])), flux_faithful=True)
    out = apply_unitary(MultimodeFockState.from_occupation((1, 0, 0, 0)), u)
    p_kept = sum(abs(a) ** 2 for t, a in out.amplitudes.items() if t[0] + t[1] == 1)
    assert abs(p_kept - 0.81) < 1e-12  # transmission amplitude 0.9 squared
    out2 = apply_unitary(MultimodeFockState.from_occupation((0, 1, 0, 0)), u)
    p_kept2 = sum(abs(a) ** 2 for t, a in out2.amplitudes.items() if t[0] + t[1] == 1)
    assert abs(p_kept2 - 0.25) < 1e-12


def test_dimension_mismatch():
    st = MultimodeFockState.from_occupation((1, 0))
    with pytest.raises(DimensionMismatch):
        apply_unitary(st, UnitaryMatrix.identity(3))


# --------------------------------------------------------------------------
# Closed form


def test_closed_form_single_photon_balanced():
    out = two_mode_closed_form(1, 0, np.pi / 2, 0.0)
    bell = MultimodeFockState(2, {(1, 0): 1 / sqrt(2), (0, 1): 1 / sqrt(2)})
    assert abs(state_fidelity(out, bell) - 1.0) < 1e-12


def test_closed_form_hong_ou_mandel_cancellation():
    out = two_mode_closed_form(1, 1, np.pi / 2, 0.0)
    assert abs(out.amplitude((1, 1))) < 1e-12
    assert abs(abs(out.amplitude((2, 0))) - 1 / sqrt(2)) < 1e-12
    assert abs(abs(out.amplitude((0, 2))) - 1 / sqrt(2)) < 1e-12


def test_closed_form_vacuum_is_fixed_point():
    for theta in (0.0, 1.0, np.pi):
        out = two_mode_closed_form(0, 0, theta, 0.7)
        assert abs(out.amplitude((0, 0)) - 1.0) < 1e-12


def test_closed_form_matches_multinomial_expansion():
    thetas = np.linspace(0.0, np.pi, 5)
    phis = np.linspace(0.0, 2 * np.pi, 5, endpoint=False)
    for m in range(3):
        for n in range(3):
            if m + n == 0:
                continue
            st = MultimodeFockState.from_occupation((m, n))
            for th in thetas:
                for ph in phis:
                    brute = apply_unitary(st, UnitaryMatrix.su2(th, ph))
                    closed = two_mode_closed_form(m, n, th, ph)
                    assert max_amplitude_diff(brute, closed) < 1e-9


def test_closed_form_domain_checks():
    with pytest.raises(NonPhysical):
        two_mode_closed_form(-1, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        two_mode_closed_form(1, 0, 4.0, 0.0)


def test_closed_form_raises_past_its_rounding_bound():
    # at |n,n> and theta = pi/2 the odd-na amplitudes vanish exactly; the
    # cancelling sum leaves ~7e-13 of them at n = 15 (bound 1.7e-11) and
    # ~5e-10 at n = 20 (bound 6.1e-10), past the 1e-10 accuracy
    out = two_mode_closed_form(15, 15, np.pi / 2, 0.0)
    assert max(abs(out.amplitude((na, 30 - na))) for na in range(1, 30, 2)) <= 1e-10
    with pytest.raises(PrecisionLoss, match="rounding bound"):
        two_mode_closed_form(20, 20, np.pi / 2, 0.0)


# --------------------------------------------------------------------------
# Fidelity and serialization


def test_fidelity_properties():
    s = build_input_state(InputStateSpec([Coherent(0.5), Vacuum()]))
    assert abs(state_fidelity(s, s) - 1.0) < 1e-12
    rotated = MultimodeFockState(
        2, {t: a * np.exp(0.7j) for t, a in s.amplitudes.items()}
    )
    assert abs(state_fidelity(s, rotated) - 1.0) < 1e-12
    a = MultimodeFockState.from_occupation((1, 0))
    b = MultimodeFockState.from_occupation((0, 1))
    assert state_fidelity(a, b) == 0.0


def test_state_json_round_trip(tmp_path):
    s = build_input_state(InputStateSpec([Coherent(0.9), SqueezedVacuum(0.2)]))
    p = tmp_path / "state.json"
    s.save(p)
    t = MultimodeFockState.load(p)
    assert set(s.amplitudes) == set(t.amplitudes)
    assert max(abs(s.amplitudes[k] - t.amplitudes[k]) for k in s.amplitudes) == 0.0
    # deterministic ordering: lexicographic occupation tuples
    doc = json.loads(p.read_text())
    occ = decode_array(doc["occupations_b64"], (doc["terms"], doc["mode_count"]), "<i8")
    tuples = [tuple(r) for r in occ.tolist()]
    assert tuples == sorted(tuples) and len(tuples) == len(set(tuples)) == len(s.values)


def test_pruning_threshold_recorded_and_applied():
    s = MultimodeFockState(1, {(0,): 1.0, (1,): 1e-16})
    assert (1,) not in s.amplitudes
    assert DEFAULT_PRUNE == 1e-14


def _int64_twin(state):
    """The same state with its occupations held as int64, the type before narrowing."""
    twin = MultimodeFockState.__new__(MultimodeFockState)
    twin.mode_count, twin.values, twin._spec = state.mode_count, state.values, None
    twin.occupations = state.occupations.astype(np.int64)
    return twin


@pytest.mark.parametrize("n, dtype", [(126, np.int8), (127, np.int16), (32766, np.int16),
                                      (32767, np.int32)])
def test_occupations_at_dtype_edges_match_int64_input(n, dtype):
    # mode 0 moves to mode 1, mode 1 splits over modes 0 and 2
    r = 1 / sqrt(2)
    u = UnitaryMatrix(np.array([[0, 1, 0], [r, 0, r], [r, 0, -r]], dtype=complex))
    state = MultimodeFockState(3, {(n, 1, 0): 0.6, (0, n, 1): 0.8})
    assert state.occupations.dtype == dtype
    pairs = [(state, _int64_twin(state))]
    if comb(n + 1 + 3, 3) <= MAX_TERMS:  # beyond that only a one-mode network is allowed
        pairs.append((apply_unitary(state, u), apply_unitary(pairs[0][1], u)))
    for s, t in pairs:
        assert np.array_equal(s.occupations, t.occupations)
        assert np.array_equal(s.values, t.values)
        assert s.to_json() == t.to_json()
        for part in (Bipartition((0,), 3), Bipartition((1,), 3), Bipartition((0, 2), 3)):
            a, b = entanglement_report(s, part), entanglement_report(t, part)
            assert np.array_equal(a.schmidt_coefficients, b.schmidt_coefficients)
            assert a.entropy_bits == b.entropy_bits


@pytest.mark.parametrize("n", [32766, 32767])
def test_one_mode_at_dtype_edges_propagates(n):
    # every photon of the stored row is one creation step: n steps through a phase
    out = apply_unitary(MultimodeFockState(1, {(n,): 1.0}),
                        UnitaryMatrix(np.array([[np.exp(0.3j)]])))
    assert out.occupations.tolist() == [[n]]
    assert abs(out.values[0] - np.exp(0.3j * n)) <= 1e-9


def test_coherent_seed_below_the_float_range_propagates():
    # exp(-|alpha|^2 / 2) = exp(-800) underflows; the sectors carry a binary exponent instead
    out = apply_unitary(build_input_state(InputStateSpec([Coherent(40)])),
                        UnitaryMatrix(np.array([[np.exp(0.3j)]])))
    weights = np.abs(out.values) ** 2
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert abs(out.occupations[:, 0] @ weights / 1600 - 1.0) <= 1e-9
    # n photons through the phase pick up exp(0.3j n) on a real, positive amplitude
    n = out.occupations[:, 0].astype(float)
    assert np.allclose(np.angle(out.values * np.exp(-0.3j * n)), 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# Gaussian sectors: sector tables and the precision guard


def _sectors(u, alpha, lam, top):
    return _gaussian_sectors(np.asarray(u, dtype=complex), np.asarray(alpha, dtype=complex),
                             np.asarray(lam, dtype=float), top, _layout(len(u), top),
                             _occupation_type(top))


@st.composite
def _permuted_gaussian_inputs(draw):
    """Up to 4 coherent, squeezed or vacuum modes, a phased permutation and a degree cap."""
    m = draw(st.integers(1, 4))
    alpha, lam = np.zeros(m, dtype=complex), np.zeros(m)
    for j, kind in enumerate(draw(st.lists(st.sampled_from("vcs"), min_size=m, max_size=m))):
        if kind == "c":
            alpha[j] = draw(st.floats(0, 1.5)) * np.exp(1j * draw(st.floats(0, 2 * np.pi)))
        elif kind == "s":
            lam[j] = draw(st.floats(-0.8, 0.8))
    perm = draw(st.permutations(range(m)))
    phases = draw(st.lists(st.floats(0, 2 * np.pi), min_size=m, max_size=m))
    return alpha, lam, perm, phases, draw(st.integers(0, 12))


@settings(max_examples=40)
@given(case=_permuted_gaussian_inputs())
@example(case=([0.9, 0.3j, 0.0], [0.0, 0.0, 0.6], [0, 1, 2], [0.0] * 3, 12))  # identity
def test_sectors_through_a_permutation_are_the_per_mode_product(case):
    alpha, lam, perm, phases, top = case
    m = len(alpha)
    u = np.zeros((m, m), dtype=complex)
    u[np.arange(m), perm] = np.exp(1j * np.array(phases))  # input j leaves in mode perm[j]
    words, occ, vals = _sectors(u, alpha, lam, top)
    assert np.array_equal(words, _pack(occ, _layout(m, top)))
    got = dict(zip(map(tuple, occ.tolist()), vals))
    assert len(got) == len(vals) and np.all(vals != 0)
    amps = [np.pad(_gaussian_amplitudes(a, l), (0, top + 1))[: top + 1] for a, l in zip(alpha, lam)]
    for n in itertools.product(range(top + 1), repeat=m):
        if sum(n) <= top:
            want = np.prod([amps[j][n[perm[j]]] * np.exp(1j * phases[j] * n[perm[j]])
                            for j in range(m)])
            assert abs(got.get(n, 0.0) - want) <= 1e-13, n


def test_sector_table_cache_hit_matches_a_cold_build(monkeypatch):
    u = haar_unitary(np.random.default_rng(3), 3)
    alpha, lam = [0.7 - 0.2j, 0.0, 0.0], [0.0, 0.3, -0.25]
    monkeypatch.setattr(fock, "_sector_tables_cache", {})
    cold = _sectors(u, alpha, lam, 24)
    hit = _sectors(u, alpha, lam, 24)
    monkeypatch.setattr(fock, "_sector_tables_cache", {})
    _sectors(u, alpha, lam, 9)
    grown = _sectors(u, alpha, lam, 24)  # degrees 10..24 built on the cached ones
    for a, b, c in zip(cold, hit, grown):
        assert a.dtype == b.dtype == c.dtype and a.tobytes() == b.tobytes() == c.tobytes()


def test_sector_tables_are_read_only_and_within_budget(monkeypatch):
    monkeypatch.setattr(fock, "_sector_tables_cache", {})
    _sectors(haar_unitary(np.random.default_rng(4), 3), [0.5, 0, 0], [0, 0.4, 0.2], 30)
    # coh:60 through a phase runs 4170 one-row sectors
    apply_unitary(build_input_state(InputStateSpec([Coherent(60)])),
                  UnitaryMatrix(np.array([[np.exp(0.3j)]])))
    cache = fock._sector_tables_cache
    assert sorted(cache) == [1, 3] and len(cache[1]) == 4171
    total = 0
    for tables in cache.values():
        for t in tables:
            arrays = tuple(t)[:-1]
            assert not any(a.flags.writeable for a in arrays)
            total += sum(map(sys.getsizeof, arrays)) + sys.getsizeof(arrays)
    assert total == sum(tables[-1].cum_bytes for tables in cache.values())
    assert total <= SECTOR_TABLE_BYTES <= 4 * 2**20
    with pytest.raises(ValueError, match="read-only"):
        cache[3][5].down[0, 0] = 0


def test_degrees_past_the_budget_are_built_for_the_call_only(monkeypatch):
    u = haar_unitary(np.random.default_rng(8), 3)
    alpha, lam = [0.0, 1.1, 0.0], [0.2, 0.0, 0.0]
    monkeypatch.setattr(fock, "_sector_tables_cache", {})
    want = _sectors(u, alpha, lam, 25)
    monkeypatch.setattr(fock, "SECTOR_TABLE_BYTES", fock._sector_tables_cache[3][10].cum_bytes)
    monkeypatch.setattr(fock, "_sector_tables_cache", {})
    got = _sectors(u, alpha, lam, 25)
    assert len(fock._sector_tables_cache[3]) == 11  # degrees 0..10 fit, 11..25 were dropped
    for a, b in zip(want, got):
        assert a.tobytes() == b.tobytes()
    # tables that fit make room by dropping the least recently used mode count
    _sectors(haar_unitary(np.random.default_rng(9), 2), [0.3, 0.0], [0.0, 0.0], 4)
    assert list(fock._sector_tables_cache) == [2]
    # tables that do not fit take only the room left
    got = _sectors(u, alpha, lam, 25)
    assert list(fock._sector_tables_cache) == [2, 3]
    assert 0 < len(fock._sector_tables_cache[3]) < 11
    assert sum(t[-1].cum_bytes for t in fock._sector_tables_cache.values()) <= fock.SECTOR_TABLE_BYTES
    for a, b in zip(want, got):
        assert a.tobytes() == b.tobytes()


def test_undisplaced_seed_holds_no_zero_row():
    # gamma = 0: every odd sector is exactly 0 and is left out
    words, occ, vals = _sectors(haar_unitary(np.random.default_rng(2), 3), np.zeros(3),
                                [0.5, -0.3, 0.0], 20)
    assert np.all(vals != 0)
    assert np.all(occ.sum(axis=1) % 2 == 0)
    assert len(vals) == sum(comb(d + 2, 2) for d in range(0, 21, 2))


@st.composite
def _gaussian_seeds(draw):
    """A 1-4-mode network (Haar, real orthogonal or a phased or plain permutation)
    with undisplaced, unsqueezed, both or neither inputs, and a degree cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(1, 5))
    u = haar_unitary(rng, m)
    network = draw(st.sampled_from(["haar", "real", "phased", "plain"]))
    if network == "real":
        u = np.linalg.qr(rng.normal(size=(m, m)))[0].astype(complex)
    elif network != "haar":
        u = np.eye(m, dtype=complex)[rng.permutation(m)]
        if network == "phased":
            u = u * np.exp(1j * rng.uniform(0, 2 * np.pi, size=m))
    alpha, lam = np.zeros(m, dtype=complex), np.zeros(m)
    if draw(st.booleans()):
        alpha = rng.uniform(-1.2, 1.2, size=m) * np.where(rng.random(m) < 0.5, 1, 1j)
        alpha[rng.random(m) < 0.3] = 0
    if draw(st.booleans()):
        lam = rng.uniform(-0.7, 0.7, size=m) * (rng.random(m) < 0.7)
    return u, alpha, lam, draw(st.integers(0, 14))


@settings(max_examples=80, derandomize=True)
@given(case=_gaussian_seeds())
@example(case=(np.eye(2, dtype=complex)[::-1], np.full(2, -0.7 + 0j), np.zeros(2), 12))
@example(case=(np.eye(1, dtype=complex), np.zeros(1, dtype=complex), np.array([0.5]), 13))
def test_sector_shortcut_matches_the_full_recurrence_bit_for_bit(case):
    """γ = 0 steps two degrees at a time; every row, amplitude bit and signed
    zero part stays that of the full recurrence (the other inputs take it)."""
    u, alpha, lam, top = case
    got = _sectors(u, alpha, lam, top)
    want = gaussian_sectors_full_recurrence(u, alpha, lam, top, _layout(len(u), top),
                                            _occupation_type(top))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed, text", [
    (5, "sq:1.5,sq:-1.5"),  # raw norm² 1.10: 2.95 bits where the covariance oracle gives 2.41
    (5, "sq:1.5,sq:1.5"),  # 3.5e3: 4.14 bits against 2.60
    (6, "sq:1.5,sq:-1.5"),  # 8.3e15
    (5, "coh:25,sq:-0.7"),  # 2.0e37
    (5, "coh:20,sq:0.5"),  # 1 + 6.6e-9
])
def test_imprecise_gaussian_expansion_raises_precision_loss(seed, text):
    u = UnitaryMatrix(haar_unitary(np.random.default_rng(seed), 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionLoss, match="norm²"):
            apply_unitary(build_input_state(InputStateSpec.parse(text)), u)


def test_huge_amplitude_is_refused_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="too large"):
            MultimodeFockState(2, {(1, 0): 1e200, (0, 1): 1.0})
        # a large but finite norm still normalizes
        state = MultimodeFockState(2, {(1, 0): 1e150, (0, 1): 1e150})
    assert np.allclose(state.values, np.sqrt(0.5))


# ---------------------------------------------------------------------------
# State documents

_EDGE_OCCUPATIONS = st.sampled_from([126, 127, 32766, 32767])
_EDGE_PARTS = st.sampled_from([-0.0, 0.0, DEFAULT_PRUNE, -DEFAULT_PRUNE,
                               np.nextafter(DEFAULT_PRUNE, 1.0), np.nextafter(DEFAULT_PRUNE, 0.0)])


@st.composite
def _stored_states(draw):
    """Occupations at the int8/int16/int32 edges; amplitudes with signed zeros and parts at
    the prune threshold (those below it are dropped), the first row making the norm 1."""
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.one_of(st.integers(0, 3), _EDGE_OCCUPATIONS), min_size=m,
                                  max_size=m).map(tuple), min_size=1, max_size=6, unique=True))
    parts = draw(st.lists(st.one_of(_EDGE_PARTS, st.floats(-0.3, 0.3)),
                          min_size=2 * len(rows) - 2, max_size=2 * len(rows) - 2))
    small = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
    first = complex(draw(st.sampled_from([0.0, -0.0])),
                    np.sqrt(1.0 - sum(abs(v) ** 2 for v in small)))
    return MultimodeFockState(m, dict(zip(rows, [first] + small)), normalize=False)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(state=_stored_states())
def test_state_documents_round_trip_bit_exactly(state, tmp_path_factory):
    back = MultimodeFockState.from_json(json.loads(dumps(state.to_json())))
    assert back.occupations.dtype == state.occupations.dtype
    assert np.array_equal(back.occupations, state.occupations)
    assert back.values.tobytes() == state.values.tobytes()
    path = tmp_path_factory.mktemp("state") / "s.json"
    state.save(path)
    text = path.read_bytes()
    MultimodeFockState.load(path).save(path)
    assert path.read_bytes() == text


@pytest.mark.parametrize("rows, values, error, match", [
    ([[1, 0], [1, 0], [0, 1]], [0.6, 0.8, 0.8], MalformedDocument, "rows 0 and 1 are not distinct"),
    ([[1, 0], [0, 1]], [0.6, 0.8], MalformedDocument, "rows 0 and 1 .* lexicographic"),
    ([[0, 1], [1, 0], [1, 0]], [0.6, 0.0, 0.8], MalformedDocument, "rows 1 and 2"),
    ([[0, 1], [1, 0]], [1.0, 1.0], NonPhysical, "norm² 2.0"),
    ([[0, 1], [1, 0]], [1e200, 1.0], NonPhysical, "norm² inf"),
    ([[0, 1], [-1, 2]], [0.6, 0.8], NonPhysical, "negative occupation"),
    ([[2**62, 2**62]], [1.0], MalformedDocument, "9223372036854775808 photons"),
])
def test_reader_refuses_what_no_state_holds(rows, values, error, match):
    with pytest.raises(error, match=match):
        MultimodeFockState.from_json(state_document(rows, values))


def test_reader_refuses_payloads_of_another_size_or_layout():
    good = MultimodeFockState(2, {(0, 1): 0.6, (1, 0): 0.8}).to_json()
    assert MultimodeFockState.from_json(good).amplitudes == {(0, 1): 0.6, (1, 0): 0.8}
    for bad, match in (
        ({"terms": 3}, "bytes"),
        ({"mode_count": 3}, "shape \\(2, 3\\) of int64 needs 48"),
        ({"mode_count": 0}, "at least one mode"),
        ({"occupations_b64": encode_array(np.zeros(4), "<i4")}, "holds 16 bytes"),
        ({"values_b64": good["values_b64"][:-4]}, "bytes"),
        ({"occupations_b64": "%" + good["occupations_b64"]}, "not base64"),
        ({"terms": 2.0}, "integer"),
        ({"values_b64": 5}, "not base64"),
    ):
        with pytest.raises(MalformedDocument, match=match):
            MultimodeFockState.from_json({**good, **bad})
    schema_1 = {"schema_version": 1, "type": "state", "mode_count": 2,
                "amplitudes": [[[0, 1], 0.6, 0.0], [[1, 0], 0.8, 0.0]]}
    with pytest.raises(MalformedDocument, match="occupations_b64.*values_b64"):
        MultimodeFockState.from_json(schema_1)

import re
import tracemalloc
from math import comb, log2, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskmodes import entanglement
from maskmodes.diffraction import CosineGrating, UnitaryMatrix, grating_block
from maskmodes.entanglement import (
    DEFAULT_TOL_TRUNCATED,
    Bipartition,
    _bipartitions,
    _block_labels,
    _count_blocks,
    _dense_ranks,
    entanglement_report,
    full_separability_scan,
    fully_separable,
)
from maskmodes.errors import DimensionMismatch, EmptyPartition, TooManyModes
from maskmodes.fock import (
    Coherent,
    Fock,
    InputStateSpec,
    MultimodeFockState,
    SqueezedVacuum,
    Vacuum,
    _layout,
    apply_unitary,
    build_input_state,
    state_fidelity,
)
from util import (
    bipartition_matrix,
    count_full_support_calls,
    haar_unitary,
    reduced_density,
    schmidt_dense_reference,
)

BALANCED = UnitaryMatrix.balanced_splitter()

W_STATE = MultimodeFockState(
    3,
    {(1, 0, 0): 1 / sqrt(3), (0, 1, 0): 1 / sqrt(3), (0, 0, 1): 1 / sqrt(3)},
)

H_ONE_THIRD = log2(3) - 2.0 / 3.0  # binary-ish entropy of eigenvalues {1/3, 2/3}


def test_bipartition_validation():
    with pytest.raises(EmptyPartition):
        Bipartition((), 3)
    with pytest.raises(EmptyPartition):
        Bipartition((0, 1, 2), 3)
    with pytest.raises(EmptyPartition):
        Bipartition((5,), 3)
    part = Bipartition((2, 0), 4)
    assert part.subset == (0, 2)
    assert part.complement == (1, 3)
    assert part.mask() == [1, 0, 1, 0]


@pytest.mark.parametrize("subset, modes, bad", [
    ((1.7,), 3, "entry 1.7"),
    (("1",), 3, "entry '1'"),
    ((0,), 2.5, "mode count 2.5"),
    ((0, None), 3, "entry None"),
    ((0, 1.0), 3, "entry 1.0"),
    (0, 3, "subset 0 is not a sequence"),
])
def test_bipartition_takes_only_integer_indices(subset, modes, bad):
    with pytest.raises(EmptyPartition, match=re.escape(bad)):
        Bipartition(subset, modes)


def test_bipartition_reads_integer_types_as_python_ints():
    part = Bipartition((np.int64(2), np.int8(0), True), np.int64(4))
    assert part.subset == (0, 1, 2) and part.mode_count == 4
    assert all(type(i) is int for i in (*part.subset, part.mode_count))
    assert part.complement == (3,) and part.mask() == [1, 1, 1, 0]
    assert part == Bipartition((0, 1, 2), 4)


@pytest.mark.parametrize("modes", [2, 4])
def test_report_on_another_mode_count_is_a_dimension_mismatch(modes):
    with pytest.raises(DimensionMismatch, match=f"bipartition has {modes} modes, state has 3"):
        entanglement_report(W_STATE, Bipartition((0,), modes))


def test_reduced_density_product_state():
    st = MultimodeFockState.from_occupation((1, 0))
    rho, basis = reduced_density(st, Bipartition((0,), 2))
    assert basis == [(1,)]
    np.testing.assert_allclose(rho, [[1.0]], atol=1e-12)


def test_reduced_density_bell_like():
    st = MultimodeFockState(2, {(1, 0): 1 / sqrt(2), (0, 1): 1 / sqrt(2)})
    rho, basis = reduced_density(st, Bipartition((0,), 2))
    assert basis == [(0,), (1,)]
    np.testing.assert_allclose(rho, np.diag([0.5, 0.5]), atol=1e-12)


def test_reduced_density_two_photon_splitter_eigenvalues():
    out = apply_unitary(MultimodeFockState.from_occupation((2, 0)), BALANCED)
    rho, _ = reduced_density(out, Bipartition((0,), 2))
    np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-10)
    evals = np.sort(np.linalg.eigvalsh(rho))
    np.testing.assert_allclose(evals, [0.25, 0.25, 0.5], atol=1e-12)


def test_entropy_single_photon_split_is_one_bit():
    out = apply_unitary(MultimodeFockState.from_occupation((1, 0)), BALANCED)
    rep = entanglement_report(out, Bipartition((0,), 2), tol=1e-9)
    assert abs(rep.entropy_bits - 1.0) < 1e-10
    assert not rep.separable


def test_entropy_two_photon_split_is_one_and_a_half_bits():
    out = apply_unitary(MultimodeFockState.from_occupation((2, 0)), BALANCED)
    rep = entanglement_report(out, Bipartition((0,), 2), tol=1e-9)
    assert abs(rep.entropy_bits - 1.5) < 1e-9


def test_coherent_product_stays_separable_through_any_network():
    rng = np.random.default_rng(21)
    spec = InputStateSpec([Coherent(0.6), Coherent(-0.4 + 0.3j)])
    st = build_input_state(spec)
    for _ in range(3):
        u = UnitaryMatrix(haar_unitary(rng, 2))
        out = apply_unitary(st, u)
        rep = entanglement_report(out, Bipartition((0,), 2), tol=1e-9)
        assert rep.entropy_bits <= 1e-9
        assert rep.separable


def test_w_state_every_bipartition():
    scan = full_separability_scan(W_STATE, tol=1e-9)
    assert len(scan) == 3
    for rep in scan:
        assert abs(rep.entropy_bits - H_ONE_THIRD) < 1e-9
        assert not rep.separable
    assert not fully_separable(scan)


def test_three_mode_product_fock_fully_separable():
    st = build_input_state(InputStateSpec([Fock(1), Fock(2), Fock(0)]))
    scan = full_separability_scan(st, tol=1e-9)
    assert fully_separable(scan)


def test_a_product_cut_reads_positive_zero_bits():
    # one Schmidt coefficient 1: its p log p is 0.0, whose negation is -0.0
    for st in (MultimodeFockState.vacuum(3), MultimodeFockState.from_occupation((1, 0, 2)),
               MultimodeFockState(2, {(1, 0): 0.6, (1, 1): 0.8})):
        reports = full_separability_scan(st)
        reports.append(entanglement_report(st, Bipartition((0,), st.mode_count)))
        assert [rep.entropy_bits for rep in reports] == [0.0] * len(reports)
        assert not any(np.signbit(rep.entropy_bits) for rep in reports)


def test_unpropagated_products_separable_at_tight_tolerance():
    from maskmodes.fock import Coherent as C, SqueezedVacuum as S

    st = build_input_state(InputStateSpec([C(0.7), S(0.25), Fock(1)]))
    assert fully_separable(full_separability_scan(st, tol=1e-9))


def test_vacuum_third_mode_factorizes():
    split = apply_unitary(MultimodeFockState.from_occupation((1, 0)), BALANCED)
    amps = {t + (0,): a for t, a in split.amplitudes.items()}
    st = MultimodeFockState(3, amps)
    rep_vac = entanglement_report(st, Bipartition((2,), 3), tol=1e-9)
    assert rep_vac.separable
    rep_first = entanglement_report(st, Bipartition((0,), 3), tol=1e-9)
    assert not rep_first.separable
    assert abs(rep_first.entropy_bits - 1.0) < 1e-9


def test_entropy_invariant_under_local_unitaries():
    rng = np.random.default_rng(22)
    out = apply_unitary(MultimodeFockState.from_occupation((2, 1, 0)), UnitaryMatrix(haar_unitary(rng, 3)))
    part = Bipartition((0,), 3)
    before = entanglement_report(out, part).entropy_bits
    local = np.zeros((3, 3), dtype=complex)
    local[0, 0] = np.exp(1j * 0.3)
    local[1:, 1:] = haar_unitary(rng, 2)
    after_state = apply_unitary(out, UnitaryMatrix(local))
    after = entanglement_report(after_state, part).entropy_bits
    assert abs(before - after) < 1e-9


def test_entropy_symmetric_under_swap():
    rng = np.random.default_rng(23)
    out = apply_unitary(
        MultimodeFockState.from_occupation((2, 1, 1)), UnitaryMatrix(haar_unitary(rng, 3))
    )
    s_a = entanglement_report(out, Bipartition((0,), 3)).entropy_bits
    s_b = entanglement_report(out, Bipartition((1, 2), 3)).entropy_bits
    assert abs(s_a - s_b) < 1e-10


def test_schmidt_coefficients_normalized():
    rng = np.random.default_rng(24)
    out = apply_unitary(
        MultimodeFockState.from_occupation((1, 2)), UnitaryMatrix(haar_unitary(rng, 2))
    )
    rep = entanglement_report(out, Bipartition((0,), 2))
    assert abs(np.sum(rep.schmidt_coefficients**2) - 1.0) < 1e-10
    assert np.all(np.diff(rep.schmidt_coefficients) <= 1e-15)


def test_schmidt_reconstruction():
    rng = np.random.default_rng(25)
    out = apply_unitary(
        MultimodeFockState.from_occupation((2, 0, 1)), UnitaryMatrix(haar_unitary(rng, 3))
    )
    part = Bipartition((0, 2), 3)
    m, rows, cols = bipartition_matrix(out, part)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    rebuilt = {}
    order = part.subset + part.complement
    inverse = np.argsort(order)
    for r, ra in enumerate(rows):
        for c, cb in enumerate(cols):
            amp = np.sum(u[r] * s * vh[:, c])
            if abs(amp) > 1e-16:
                joint = tuple(np.array(ra + cb)[inverse])
                rebuilt[joint] = amp
    re_state = MultimodeFockState(3, rebuilt, normalize=False)
    assert state_fidelity(out, re_state) >= 1.0 - 1e-10


def test_all_bipartitions_count_and_canonical_form():
    parts = _bipartitions(4)[0]
    assert len(parts) == 2 ** 3 - 1
    assert all(0 in p.subset for p in parts)


def _bipartitions_by_loop(mode_count):
    """The cuts in the order of the earlier per-bit loop, each a checked Bipartition."""
    others = list(range(1, mode_count))
    parts = []
    for bits in range(2 ** (mode_count - 1)):
        subset = (0,) + tuple(others[i] for i in range(mode_count - 1) if bits >> i & 1)
        if len(subset) < mode_count:
            parts.append(Bipartition(subset, mode_count))
    return parts


@pytest.mark.parametrize("modes", range(1, 13))
def test_all_bipartitions_keep_their_order(modes):
    parts, masks = _bipartitions(modes)
    assert parts == _bipartitions_by_loop(modes)
    assert masks.dtype == np.int64 and masks.shape == (len(parts), modes)
    assert masks.tolist() == [part.mask() for part in parts]
    for part in parts:
        assert all(type(i) is int for i in part.subset)
        assert set(part.complement) == set(range(modes)) - set(part.subset)
        assert part.complement == tuple(sorted(part.complement))


def test_too_many_modes_guard():
    st = MultimodeFockState(13, {(0,) * 13: 1.0})
    with pytest.raises(TooManyModes):
        full_separability_scan(st)


def test_report_json_shape():
    out = apply_unitary(MultimodeFockState.from_occupation((1, 0)), BALANCED)
    doc = entanglement_report(out, Bipartition((0,), 2)).to_json()
    assert doc["mask"] == [1, 0]
    assert set(doc) >= {"entropy_bits", "schmidt_top", "separable", "tolerance"}


def _entropy_bits(s):
    p = s**2
    live = p[p > 1e-18]
    return max(float(-(live * np.log2(live)).sum()), 0.0)


def _haar_fock_state(modes, photons, seed):
    """``photons`` single photons in the first modes, through a Haar network."""
    descs = [Fock(1)] * photons + [Vacuum()] * (modes - photons)
    u = UnitaryMatrix(haar_unitary(np.random.default_rng(seed), modes))
    return apply_unitary(build_input_state(InputStateSpec(descs)), u)


@st.composite
def blocked_cases(draw):
    """(kind, state, bipartition) through a Haar network: Fock inputs, 2-7 modes
    and 1-5 photons (one block per subset photon count); squeezed inputs with or
    without a Fock mode (two parity blocks); inputs with a coherent mode (one
    block).  Sizes come from a drawn seed, so small and large cases mix."""
    kind = draw(st.sampled_from(["fock", "squeezed", "coherent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "fock":
        modes = int(rng.integers(2, 8))
        photons = rng.multinomial(rng.integers(1, 6), np.full(modes, 1.0 / modes))
        descs = [Fock(int(n)) if n else Vacuum() for n in photons]
    else:
        modes = int(rng.integers(2, 5))
        makers = [
            lambda: SqueezedVacuum(float(rng.uniform(-0.5, 0.5))),
            Vacuum,
            lambda: Fock(int(rng.integers(1, 3))),
            lambda: Coherent(complex(*rng.uniform(-0.7, 0.7, size=2))),
        ]
        if kind == "squeezed":
            makers.pop()
        descs = [SqueezedVacuum(float(rng.choice([-1, 1]) * rng.uniform(0.05, 0.5)))]
        descs += [makers[rng.integers(len(makers))]() for _ in range(modes - 1)]
        if kind == "coherent":
            descs[rng.integers(modes)] = makers[-1]()
    state = apply_unitary(build_input_state(InputStateSpec(descs)), UnitaryMatrix(haar_unitary(rng, modes)))
    subset = rng.choice(modes, size=rng.integers(1, modes), replace=False)
    return kind, state, Bipartition(tuple(subset.tolist()), modes)


@settings(max_examples=60)
@given(blocked_cases())
def test_blocked_spectrum_matches_dense_reference(case):
    kind, state, part = case
    ref = schmidt_dense_reference(state, part)
    rep = entanglement_report(state, part)
    s = rep.schmidt_coefficients
    assert s.shape == ref.shape
    assert np.all(np.diff(s) <= 0)
    np.testing.assert_allclose(s, ref, rtol=0, atol=1e-12)
    assert abs(rep.entropy_bits - _entropy_bits(ref)) <= 1e-12
    if kind == "coherent":
        assert np.array_equal(s, ref)


def test_chain_of_photon_counts_is_one_block():
    """Terms |n, n> and |n + 1, n> link subset count n + 1 to n only through the
    counts between them, so the whole chain is one block."""
    rng = np.random.default_rng(26)
    amps = {t: complex(*rng.normal(size=2)) for n in range(12) for t in ((n, n), (n + 1, n))}
    state = MultimodeFockState(2, amps)
    part = Bipartition((0,), 2)
    assert np.array_equal(entanglement_report(state, part).schmidt_coefficients,
                          schmidt_dense_reference(state, part))


def test_blocked_spectrum_at_scale():
    """A 12|12 cut of 4 photons in 24 modes: 1820 x 1820 dense, 78 x 78 at most per block."""
    state = _haar_fock_state(24, 4, seed=3)
    part = Bipartition(tuple(range(12)), 24)
    tracemalloc.start()
    try:
        rep = entanglement_report(state, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.schmidt_coefficients) == 1820
    assert abs(np.sum(rep.schmidt_coefficients**2) - 1.0) <= 1e-12
    assert peak < 16e6


def test_reduced_density_refuses_before_allocating():
    """A 12-mode subset of 5 photons in 24 modes has 6188 rows: refused, with no 6188^2 matrix."""
    state = _haar_fock_state(24, 5, seed=4)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyModes):
            reduced_density(state, Bipartition(tuple(range(12)), 24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@st.composite
def scan_cases(draw):
    """(kind, state) for a whole scan, sizes from a drawn seed:
    - "fock": 1-4 photons through a Haar network on 2-6 modes (one block per k)
    - "squeezed": a squeezed mode with vacua or a Fock mode (parity blocks)
    - "coherent": a coherent mode among others (one block)
    - "vacuum": a Haar output padded with modes that stay empty
    - "mixed": a random non-product state, 1-25 terms of mixed photon number
    - "wide": like "mixed" on 9-10 modes with up to ~100 photons per term,
      so a packed (label, occupations) key spans two int64 words
    """
    kind = draw(st.sampled_from(["fock", "squeezed", "coherent", "vacuum", "mixed", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("mixed", "wide"):
        modes = int(rng.integers(2, 7)) if kind == "mixed" else int(rng.integers(9, 11))
        top = 3 if kind == "mixed" else 40
        occ = rng.integers(0, top + 1, size=(int(rng.integers(1, 26)), modes))
        occ[rng.random(occ.shape) < 0.5] = 0
        if kind == "wide":
            occ[0, :3] = 40  # a term of 120 or more photons: key base above 120
        amps = {tuple(t): complex(*rng.normal(size=2)) for t in occ.tolist()}
        return kind, MultimodeFockState(modes, amps)
    if kind == "fock":
        modes = int(rng.integers(2, 7))
        photons = rng.multinomial(rng.integers(1, 5), np.full(modes, 1.0 / modes))
        descs = [Fock(int(n)) if n else Vacuum() for n in photons]
    elif kind == "vacuum":
        modes = int(rng.integers(2, 5))
        descs = [Fock(1)] + [Vacuum()] * (modes - 1)
    else:
        modes = int(rng.integers(2, 5))
        descs = [SqueezedVacuum(float(rng.choice([-1, 1]) * rng.uniform(0.05, 0.4)))]
        descs += [Vacuum() if rng.random() < 0.5 else Fock(1) for _ in range(modes - 1)]
        if kind == "coherent":
            descs[rng.integers(modes)] = Coherent(complex(*rng.uniform(-0.6, 0.6, size=2)))
    state = apply_unitary(build_input_state(InputStateSpec(descs)),
                          UnitaryMatrix(haar_unitary(rng, modes)))
    if kind == "vacuum":
        pad = int(rng.integers(1, 3))
        amps = {t + (0,) * pad: a for t, a in state.amplitudes.items()}
        state = MultimodeFockState(modes + pad, amps)
    return kind, state


@settings(max_examples=40)
@given(scan_cases())
def test_scan_matches_dense_reference_and_single_cut(case):
    kind, state = case
    if kind == "wide":
        top = int(state.occupations.sum(axis=1).max())
        assert _layout(state.mode_count + 1, top).shape[1] >= 2
    scan = full_separability_scan(state)
    assert [rep.bipartition for rep in scan] == _bipartitions(state.mode_count)[0]
    for rep in scan:
        part = rep.bipartition
        ref = schmidt_dense_reference(state, part)
        s = rep.schmidt_coefficients
        assert s.shape == ref.shape
        np.testing.assert_allclose(s, ref, rtol=0, atol=1e-12)
        assert abs(rep.entropy_bits - _entropy_bits(ref)) <= 1e-12
        single = entanglement_report(state, part)
        assert np.array_equal(s, single.schmidt_coefficients)
        assert rep.entropy_bits == single.entropy_bits


def test_scan_memory_stays_small():
    """A (9, 5) scan, 1287 terms and 255 cuts, is ranked a chunk of cuts at a time."""
    state = _haar_fock_state(9, 5, seed=5)
    full_separability_scan(state)
    tracemalloc.start()
    try:
        scan = full_separability_scan(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scan) == 255
    assert peak <= 8e6


def test_link_matrices_are_bounded_by_terms():
    """20000 photons in one term ask for 2 link rows, not 20001."""
    state = MultimodeFockState(2, {(20000, 0): 0.6, (0, 1): 0.8})
    tracemalloc.start()
    try:
        rep = entanglement_report(state, Bipartition((0,), 2))
        scan = full_separability_scan(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.schmidt_coefficients.tolist() == [0.8, 0.6]
    assert scan[0].schmidt_coefficients.tolist() == [0.8, 0.6]
    assert peak < 1e6


@st.composite
def fixed_number_states(draw):
    """1-30 random terms of one photon number N (1-40) on 2-7 modes: N often
    reaches the number of terms, so the counts are ranked first."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes, photons = int(rng.integers(2, 8)), int(rng.integers(1, 41))
    occ = rng.multinomial(photons, rng.dirichlet(np.ones(modes)), size=int(rng.integers(1, 31)))
    return MultimodeFockState(modes, {tuple(t): complex(*rng.normal(size=2)) for t in occ.tolist()})


def _closure_labels(k, total):
    """Block labels by the closure of the count links, with no fixed-number rule."""
    j = total - k
    if int(total.max()) >= k.shape[1]:
        k, j = _dense_ranks(k), _dense_ranks(j)
    return _count_blocks(k, j)


@settings(max_examples=60, derandomize=True)
@given(fixed_number_states())
def test_fixed_photon_number_labels_match_the_closure(state):
    occ = state.occupations.astype(np.int64)
    total = occ.sum(axis=1)
    k = _bipartitions(state.mode_count)[1] @ occ.T
    assert np.array_equal(_block_labels(k, total), _closure_labels(k, total))
    scan = full_separability_scan(state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(entanglement, "_block_labels", _closure_labels)
        closed = [entanglement_report(state, rep.bipartition) for rep in scan]
    for rep, ref in zip(scan, closed):
        assert rep.schmidt_coefficients.tobytes() == ref.schmidt_coefficients.tobytes()
        assert rep.entropy_bits == ref.entropy_bits
        np.testing.assert_allclose(rep.schmidt_coefficients,
                                   schmidt_dense_reference(state, rep.bipartition),
                                   rtol=0, atol=1e-12)


def _general_layout(monkeypatch):
    """Send every state through the general layout for the rest of the test."""
    monkeypatch.setattr(entanglement, "_full_support_stacks", entanglement._general_stacks)


@st.composite
def full_support_states(draw):
    """Fock inputs of 0-5 photons on 2-8 modes through a Haar network: every
    occupation of the photon number is a term, the vacuum included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    modes = draw(st.integers(2, 8))
    photons = rng.multinomial(draw(st.integers(0, 5)), np.full(modes, 1.0 / modes))
    descs = [Fock(int(n)) if n else Vacuum() for n in photons]
    state = apply_unitary(build_input_state(InputStateSpec(descs)),
                          UnitaryMatrix(haar_unitary(rng, modes)))
    n = int(photons.sum())
    assert len(state.values) == comb(n + modes - 1, n)
    return state


@settings(max_examples=40, derandomize=True, deadline=None)
@given(full_support_states())
def test_full_support_layout_gives_the_general_layouts_bits(state):
    with pytest.MonkeyPatch.context() as mp:
        calls = count_full_support_calls(mp)
        scan = full_separability_scan(state)
        singles = [entanglement_report(state, rep.bipartition) for rep in scan]
        assert len(calls) >= 1 + len(scan)
    with pytest.MonkeyPatch.context() as mp:
        _general_layout(mp)
        general = full_separability_scan(state)
        general_singles = [entanglement_report(state, rep.bipartition) for rep in scan]
    for reps in zip(scan, singles, general, general_singles):
        for rep in reps[:3]:
            assert np.array_equal(rep.schmidt_coefficients, reps[3].schmidt_coefficients)
            assert rep.entropy_bits == reps[3].entropy_bits
            assert rep.bipartition == reps[3].bipartition


def _fallback_states():
    """States that miss at least one occupation of their photon number, or hold several."""
    rng = np.random.default_rng(27)
    full = _haar_fock_state(4, 3, seed=27)
    holed = dict(full.amplitudes)
    del holed[(1, 1, 1, 0)]
    padded = {t + (0,): a for t, a in full.amplitudes.items()}
    grating = np.eye(4, dtype=complex)
    grating[:2, :2] = grating_block(CosineGrating((0.6, 0.0))).matrix
    permutation = np.exp(2j * np.pi * rng.random(3))[:, None] * np.eye(3)[[2, 0, 1]]

    def through(text, u):
        return apply_unitary(build_input_state(InputStateSpec.parse(text)), UnitaryMatrix(u))

    return {
        "term removed": MultimodeFockState(4, holed),
        "vacuum padded": MultimodeFockState(5, padded),
        "squeezed": through("sq:0.3,fock:1,vac", haar_unitary(rng, 3)),
        "coherent": through("coh:0.5,fock:1,vac", haar_unitary(rng, 3)),
        "embedded grating": through("fock:1,fock:1,fock:1,vac", grating),
        "permutation": through("fock:2,fock:1,vac", permutation),
        "hom": through("fock:1,fock:1", BALANCED.matrix),
        # as many terms as the occupations of one photon in 3 modes
        "mixed photon numbers": MultimodeFockState(3, {(0, 0, 0): 0.6, (1, 0, 0): 0.64j,
                                                       (0, 0, 1): -0.48}),
    }


@pytest.mark.parametrize("modes, photons", [(70, 1), (40, 2)])
def test_full_support_keys_of_several_words_give_the_general_layouts_bits(monkeypatch, modes,
                                                                          photons):
    state = _haar_fock_state(modes, photons, seed=modes)
    assert len(state.values) == comb(photons + modes - 1, photons)
    assert _layout(modes + 1, photons).shape[1] > 1
    rng = np.random.default_rng(modes)
    parts = [Bipartition(tuple(rng.choice(modes, size=size, replace=False).tolist()), modes)
             for size in (1, 2, 3, modes // 2, modes - 2, modes - 1)]
    calls = count_full_support_calls(monkeypatch)
    fast = entanglement._reports(state, parts, DEFAULT_TOL_TRUNCATED)
    assert sum(calls) == len(parts)
    _general_layout(monkeypatch)
    for rep, ref in zip(fast, entanglement._reports(state, parts, DEFAULT_TOL_TRUNCATED)):
        assert np.array_equal(rep.schmidt_coefficients, ref.schmidt_coefficients)
        assert rep.entropy_bits == ref.entropy_bits


@pytest.mark.parametrize("name", sorted(_fallback_states()))
def test_states_without_full_support_take_the_general_layout(monkeypatch, name):
    state = _fallback_states()[name]
    calls = count_full_support_calls(monkeypatch)
    scan = full_separability_scan(state)
    single = entanglement_report(state, scan[-1].bipartition)
    assert calls == []
    for rep in scan + [single]:
        np.testing.assert_allclose(rep.schmidt_coefficients,
                                   schmidt_dense_reference(state, rep.bipartition),
                                   rtol=0, atol=1e-12)

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maskmodes import agreement
from maskmodes.agreement import run_agreement_suite, run_trial
from maskmodes.diffraction import CosineGrating, UnitaryMatrix, grating_block
from maskmodes.entanglement import DEFAULT_TOL_TRUNCATED, Bipartition, entanglement_report
from maskmodes.errors import (
    DimensionMismatch,
    EmptyPartition,
    NotGaussian,
    NotPure,
    OutOfRange,
    PrecisionLoss,
)
from maskmodes.fock import (
    Coherent,
    Fock,
    InputStateSpec,
    SqueezedVacuum,
    Vacuum,
    apply_unitary,
    bargmann_exponent,
    build_input_state,
)
from maskmodes.separability import (
    check_no_entanglement,
    covariance_separable,
    gaussian_covariance_propagate,
)
from util import haar_unitary

BALANCED = UnitaryMatrix.balanced_splitter()
SWAP = UnitaryMatrix(np.array([[0, 1], [1, 0]], dtype=complex))


def block_diag_unitary(*blocks):
    n = sum(b.shape[0] for b in blocks)
    m = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        d = b.shape[0]
        m[at : at + d, at : at + d] = b
        at += d
    return UnitaryMatrix(m)


def _split_modes(u, subset):
    return check_no_entanglement(InputStateSpec([Vacuum()] * u.dim), u, subset).split_modes


def test_coupled_modes_block_diagonal():
    rng = np.random.default_rng(31)
    u = block_diag_unitary(BALANCED.matrix, haar_unitary(rng, 2))
    assert _split_modes(u, {0}) == {0, 1}
    assert _split_modes(u, {0, 1}) == {0, 1}
    assert _split_modes(u, {2}) == {2, 3}


def test_coupled_modes_grating_block():
    assert _split_modes(BALANCED, {0}) == {0, 1}
    # a mode that reaches the subset alone, or only the rest, is not split
    assert _split_modes(SWAP, {1}) == set()
    assert _split_modes(block_diag_unitary(np.eye(1), BALANCED.matrix), {0}) == set()


def test_coupled_modes_fully_connected():
    rng = np.random.default_rng(32)
    u = UnitaryMatrix(haar_unitary(rng, 4))
    assert _split_modes(u, {2}) == {0, 1, 2, 3}


def test_bargmann_conversion():
    """The checker's exponent is the engine's: two-photon output amplitudes are ``C B``."""
    spec = InputStateSpec([SqueezedVacuum(0.3), SqueezedVacuum(-0.2), Vacuum()])
    assert spec.lam.tolist() == [0.3, -0.2, 0.0]
    np.testing.assert_array_equal(bargmann_exponent(np.eye(3), spec.lam),
                                  np.diag(np.tanh(spec.lam)))
    u = UnitaryMatrix(haar_unitary(np.random.default_rng(38), 3))
    B = bargmann_exponent(u.matrix, spec.lam)
    amps = apply_unitary(build_input_state(spec), u).amplitudes
    c = amps[(0, 0, 0)]
    for k in range(3):
        for kp in range(k, 3):
            occ = [0, 0, 0]
            occ[k] += 1
            occ[kp] += 1
            expected = c * B[k, kp] / (np.sqrt(2) if k == kp else 1)
            assert abs(amps.get(tuple(occ), 0) - expected) < 1e-12


def test_all_coherent_always_separable():
    rng = np.random.default_rng(33)
    spec = InputStateSpec([Coherent(1.2), Coherent(-0.3 + 0.8j), Coherent(0.1j)])
    for _ in range(5):
        u = UnitaryMatrix(haar_unitary(rng, 3))
        for subset in ({0}, {1, 2}, {0, 1, 2}):
            assert check_no_entanglement(spec, u, subset).separable


def test_equal_squeezing_real_balanced_separable():
    spec = InputStateSpec([SqueezedVacuum(0.15), SqueezedVacuum(0.15)])
    v = check_no_entanglement(spec, BALANCED, {0, 1})
    assert v.separable
    assert v.split_modes == {0, 1}


def test_opposite_squeezing_fails_with_cross_term_witness():
    v = check_no_entanglement(InputStateSpec.parse("sq:0.15,sq:-0.15"), BALANCED, {0, 1})
    assert not v.separable
    assert v.witness.kind == "d2_cross_term"
    assert v.witness.order == 2
    assert v.witness.modes == (0, 1)
    # |B[0,1]|/2 = (tanh(0.15)/2 + tanh(0.15)/2) / 2
    assert abs(v.witness.residual - np.tanh(0.15) / 2) < 1e-12


def test_unequal_magnitude_squeezing_not_separable():
    spec = InputStateSpec([SqueezedVacuum(0.3), SqueezedVacuum(0.1)])
    assert not check_no_entanglement(spec, BALANCED, {0}).separable


def test_fock_input_on_coupled_mode_not_separable():
    spec = InputStateSpec([Fock(1), Vacuum()])
    v = check_no_entanglement(spec, BALANCED, {0})
    assert not v.separable
    assert v.witness.kind == "non_gaussian"
    assert v.witness.modes == (0,)


def test_fock_two_on_coupled_mode_entangles_well_above_threshold():
    spec = InputStateSpec([Fock(2), Vacuum()])
    v = check_no_entanglement(spec, BALANCED, {0})
    assert not v.separable
    out = apply_unitary(build_input_state(spec), BALANCED)
    rep = entanglement_report(out, Bipartition((0,), 2))
    assert rep.entropy_bits > 1e-3


_PASS_AND_SPLIT = block_diag_unitary(np.eye(1), BALANCED.matrix)


@pytest.mark.parametrize("inputs, network, k", [
    ("fock:1,vac", UnitaryMatrix(np.eye(2, dtype=complex)), 0),
    ("fock:2,coh:0.5", UnitaryMatrix(np.eye(2, dtype=complex)), 0),
    ("fock:1,vac", SWAP, 1),
    ("fock:1,coh:0.5,vac", _PASS_AND_SPLIT, 0),
    ("fock:1,sq:0.3,sq:0.3", _PASS_AND_SPLIT, 0),
])
def test_fock_mode_that_is_not_split_leaves_the_cut_separable(inputs, network, k):
    spec = InputStateSpec.parse(inputs)
    v = check_no_entanglement(spec, network, {k})
    assert v.separable, v.to_json()
    out = apply_unitary(build_input_state(spec), network)
    rep = entanglement_report(out, Bipartition((k,), spec.mode_count), tol=DEFAULT_TOL_TRUNCATED)
    assert rep.entropy_bits <= 1e-12


def _structured_network(kind, rng, m):
    """A phased permutation, a permuted block-diagonal Haar network or an embedded grating block."""
    if kind == "permutation":
        return np.exp(2j * np.pi * rng.random(m))[:, None] * np.eye(m)[rng.permutation(m)]
    if kind == "blocks":
        cuts = np.flatnonzero(rng.random(m - 1) < 0.5) + 1
        sizes = np.diff(np.concatenate([[0], cuts, [m]]))
        core = block_diag_unitary(*(haar_unitary(rng, int(d)) for d in sizes)).matrix
        return core[rng.permutation(m)][:, rng.permutation(m)]
    core = block_diag_unitary(grating_block(CosineGrating((0.6, 0.0))).matrix,
                              np.eye(m - 2)).matrix
    return core[rng.permutation(m)][:, rng.permutation(m)]


_STRUCTURED_INPUTS = ("vac", "fock:1", "fock:2", "coh:0.7", "coh:-0.4+0.5j", "sq:0.3")


@st.composite
def _structured_cases(draw):
    m = draw(st.integers(2, 4))
    inputs = draw(st.lists(st.sampled_from(_STRUCTURED_INPUTS), min_size=m, max_size=m))
    kind = draw(st.sampled_from(["permutation", "blocks", "grating"]))
    return ",".join(inputs), kind, draw(st.integers(0, 2**32 - 1))


def test_structured_networks_match_both_oracles():
    """Every single-mode cut of sparse networks, where both verdicts occur."""
    verdicts = set()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(case=_structured_cases())
    def check(case):
        inputs, kind, seed = case
        spec = InputStateSpec.parse(inputs)
        m = spec.mode_count
        u = UnitaryMatrix(_structured_network(kind, np.random.default_rng(seed), m))
        out = apply_unitary(build_input_state(spec), u)
        cov = None if spec.photons.any() else gaussian_covariance_propagate(spec, u)
        for k in range(m):
            part = Bipartition((k,), m)
            verdict = check_no_entanglement(spec, u, {k}).separable
            verdicts.add(verdict)
            rep = entanglement_report(out, part, tol=DEFAULT_TOL_TRUNCATED)
            assert rep.separable == verdict, (inputs, kind, seed, k, rep.entropy_bits)
            if cov is not None:
                assert covariance_separable(cov, part) == verdict

    check()
    assert verdicts == {True, False}


def test_uncoupled_mode_freedom():
    rng = np.random.default_rng(34)
    u = block_diag_unitary(BALANCED.matrix, np.array([[np.exp(0.4j)]]))
    base = InputStateSpec([SqueezedVacuum(0.2), SqueezedVacuum(0.2), Vacuum()])
    wild = InputStateSpec([SqueezedVacuum(0.2), SqueezedVacuum(0.2), SqueezedVacuum(0.39)])
    for spec in (base, wild):
        v = check_no_entanglement(spec, u, {0, 1})
        assert v.separable
        assert v.split_modes == {0, 1}
    # Fock oracle: subset-mode entropies unchanged by squeezing the spectator
    outs = [
        apply_unitary(build_input_state(spec), u) for spec in (base, wild)
    ]
    for k in (0, 1):
        part = Bipartition((k,), 3)
        s0 = entanglement_report(outs[0], part).entropy_bits
        s1 = entanglement_report(outs[1], part).entropy_bits
        assert abs(s0 - s1) < 1e-9


def test_fock_on_uncoupled_mode_is_fine():
    u = block_diag_unitary(BALANCED.matrix, np.eye(1, dtype=complex))
    spec = InputStateSpec([SqueezedVacuum(0.2), SqueezedVacuum(0.2), Fock(2)])
    v = check_no_entanglement(spec, u, {0, 1})
    assert v.separable


def test_verdict_invariant_under_paired_rephasing():
    """Output phases, and input sign flips that leave every descriptor as it is, keep each verdict."""
    rng = np.random.default_rng(35)
    u = block_diag_unitary(haar_unitary(rng, 3), BALANCED.matrix)
    signs = np.array([1, -1, -1, 1, -1])
    betas = rng.uniform(0, 2 * np.pi, size=5)
    u2 = UnitaryMatrix(signs[:, None] * u.matrix * np.exp(1j * betas))
    for inputs in ("sq:0.25,sq:0.25,sq:0.25,fock:1,vac", "sq:0.25,sq:-0.25,vac,sq:0.1,sq:0.1",
                   "fock:2,vac,vac,sq:0.2,sq:0.2", "vac,vac,vac,sq:0.2,sq:-0.2"):
        spec = InputStateSpec.parse(inputs)
        for subset in ({0}, {0, 2}, {3}, {0, 1, 2, 3, 4}):
            v1 = check_no_entanglement(spec, u, subset)
            v2 = check_no_entanglement(spec, u2, subset)
            assert v1.separable == v2.separable
            assert v1.split_modes == v2.split_modes
            if v1.witness is not None:
                assert (v1.witness.kind, v1.witness.modes) == (v2.witness.kind, v2.witness.modes)


def _network(kind, rng, m):
    if kind == "haar":
        return UnitaryMatrix(haar_unitary(rng, m))
    if kind == "real_haar":
        q, r = np.linalg.qr(rng.normal(size=(m, m)))
        return UnitaryMatrix((q * np.sign(np.diag(r))).astype(complex))
    return UnitaryMatrix(np.eye(m, dtype=complex)[rng.permutation(m)])


@st.composite
def _gaussian_trials(draw):
    """Coherent, vacuum and squeezed modes whose squeezings are equal, sign-flipped or random."""
    m = draw(st.integers(2, 4))
    pattern = draw(st.sampled_from(["equal", "equal", "sign_flipped", "random"]))
    lam = draw(st.sampled_from([0.1, 0.2, 0.3]))
    descs = []
    for kind in draw(st.lists(st.sampled_from(["sq", "sq", "coh", "vac"]), min_size=m, max_size=m)):
        if kind == "coh":
            descs.append(Coherent(complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))))
        elif kind == "vac":
            descs.append(Vacuum())
        elif pattern == "equal":
            descs.append(SqueezedVacuum(lam))
        elif pattern == "sign_flipped":
            descs.append(SqueezedVacuum(draw(st.sampled_from([lam, -lam]))))
        else:
            descs.append(SqueezedVacuum(draw(st.sampled_from([-0.3, -0.2, -0.1, 0.1, 0.2, 0.3]))))
    network = draw(st.sampled_from(["haar", "real_haar", "real_haar", "permutation"]))
    subset = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    return descs, network, draw(st.integers(0, 2**32 - 1)), tuple(sorted(subset))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(trial=_gaussian_trials())
def test_cross_term_test_alone_matches_both_oracles(trial):
    descs, network, seed, subset = trial
    m = len(descs)
    u = _network(network, np.random.default_rng(seed), m)
    spec = InputStateSpec(descs)
    verdict = check_no_entanglement(spec, u, subset)
    # keep clear of the numerically borderline band, as the agreement suite does
    assume(verdict.separable or verdict.witness.residual >= agreement.MIN_RESIDUAL)
    assert verdict.separable or verdict.witness.kind == "d2_cross_term"
    cov = gaussian_covariance_propagate(spec, u)
    out = apply_unitary(build_input_state(spec), u)
    parts = [Bipartition((k,), m) for k in subset]
    assert all(covariance_separable(cov, p) for p in parts) == verdict.separable
    assert all(entanglement_report(out, p, tol=DEFAULT_TOL_TRUNCATED).separable for p in parts) \
        == verdict.separable


def test_checker_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        check_no_entanglement(InputStateSpec.parse("sq:0.1"), BALANCED, {0})


@pytest.mark.parametrize("subset", [set(), {2}, {-1}, {0, 5}])
def test_checker_subset_outside_the_network_is_an_empty_partition(subset):
    with pytest.raises(EmptyPartition):
        check_no_entanglement(InputStateSpec.parse("vac,vac"), BALANCED, subset)


@pytest.mark.parametrize("subset, bad", [
    ((1.7,), "entry 1.7"),
    (("1",), "entry '1'"),
    ((None,), "entry None"),
    ((0, 1.0), "entry 1.0"),
    (1, "output subset 1 is not a sequence"),
])
def test_checker_takes_only_integer_modes(subset, bad):
    with pytest.raises(EmptyPartition, match=re.escape(bad)):
        check_no_entanglement(InputStateSpec.parse("vac,vac"), BALANCED, subset)


def test_checker_reads_integer_types_as_python_ints():
    verdict = check_no_entanglement(InputStateSpec.parse("vac,vac"), BALANCED, (np.int64(1), True))
    assert verdict.subset == (1,) and type(verdict.subset[0]) is int


# --------------------------------------------------------------------------
# Gaussian covariance oracle


def test_coherent_covariance_identity_under_any_network():
    rng = np.random.default_rng(36)
    u = UnitaryMatrix(haar_unitary(rng, 3))
    cov = gaussian_covariance_propagate(InputStateSpec.parse("coh:0.5,coh:0.2-0.1j,vac"), u)
    np.testing.assert_allclose(cov, np.eye(6), atol=1e-12)


def test_equal_squeezing_through_real_orthogonal_stays_uncorrelated():
    rng = np.random.default_rng(37)
    g = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(g)
    u = UnitaryMatrix(q.astype(complex))
    lam = 0.3
    cov = gaussian_covariance_propagate(InputStateSpec([SqueezedVacuum(lam)] * 3), u)
    np.testing.assert_allclose(cov, np.diag([np.e ** (2 * lam)] * 3 + [np.e ** (-2 * lam)] * 3), atol=1e-12)


def test_opposite_squeezing_balanced_gives_sinh_correlations():
    lam = 0.3
    cov = gaussian_covariance_propagate(InputStateSpec.parse(f"sq:{lam},sq:{-lam}"), BALANCED)
    assert abs(cov[0, 1] - np.sinh(2 * lam)) < 1e-12
    assert abs(cov[2, 3] + np.sinh(2 * lam)) < 1e-12
    assert not covariance_separable(cov, Bipartition((0,), 2))


def test_covariance_separable_identity_and_blocks():
    assert covariance_separable(np.eye(4), Bipartition((0,), 2))
    lam1, lam2 = 0.2, 0.4
    cov = np.diag(
        [np.e ** (2 * lam1), np.e ** (2 * lam2), np.e ** (-2 * lam1), np.e ** (-2 * lam2)]
    )
    assert covariance_separable(cov, Bipartition((0,), 2))


def test_covariance_not_pure_raises():
    with pytest.raises(NotPure):
        covariance_separable(2 * np.eye(4), Bipartition((0,), 2))


@pytest.mark.parametrize("lam", [5.0, 6.0, 10.0, 30.0])
def test_strongly_squeezed_pure_covariance_is_a_precision_loss(lam):
    """A pure state's residual grows as ``eps * ‖σ‖₂²``; within that bound it is no verdict."""
    cov = gaussian_covariance_propagate(InputStateSpec.parse(f"sq:{lam},sq:{-lam}"), BALANCED)
    with pytest.raises(PrecisionLoss, match="rounding bound"):
        covariance_separable(cov, Bipartition((0,), 2))


def test_covariance_oracle_refuses_fock_photons_and_other_mode_counts():
    with pytest.raises(NotGaussian, match="input mode 1 holds Fock photons"):
        gaussian_covariance_propagate(InputStateSpec.parse("sq:0.3,fock:1"), BALANCED)
    with pytest.raises(DimensionMismatch):
        gaussian_covariance_propagate(InputStateSpec.parse("sq:0.3,vac,vac"), BALANCED)


def test_squeezing_whose_exponential_overflows_is_out_of_range():
    # the suite turns a numpy RuntimeWarning into an error, so an overflowing exp would fail here
    with pytest.raises(OutOfRange, match="overflows"):
        gaussian_covariance_propagate(InputStateSpec.parse("sq:400,vac"), BALANCED)
    cov = gaussian_covariance_propagate(InputStateSpec.parse("sq:354,vac"), SWAP)
    assert np.all(np.isfinite(cov))


@pytest.mark.parametrize("modes", [2, 4])
def test_covariance_of_another_mode_count_is_a_dimension_mismatch(modes):
    u = UnitaryMatrix(haar_unitary(np.random.default_rng(8), 3))
    cov = gaussian_covariance_propagate(InputStateSpec.parse("sq:0.3,sq:-0.3,vac"), u)
    assert not covariance_separable(cov, Bipartition((0,), 3))
    with pytest.raises(DimensionMismatch, match="3-mode|6, 6"):
        covariance_separable(cov, Bipartition((0,), modes))


def test_fock_oracle_matches_gaussian_oracle_on_squeezed_pair():
    lam = 0.3
    spec = InputStateSpec([SqueezedVacuum(lam), SqueezedVacuum(-lam)])
    out = apply_unitary(build_input_state(spec), BALANCED)
    rep = entanglement_report(out, Bipartition((0,), 2), tol=1e-6)
    assert not rep.separable
    # two-mode squeezed vacuum entropy: cosh^2 log2 cosh^2 - sinh^2 log2 sinh^2
    ch2, sh2 = np.cosh(lam) ** 2, np.sinh(lam) ** 2
    expected = ch2 * np.log2(ch2) - sh2 * np.log2(sh2)
    assert abs(rep.entropy_bits - expected) < 1e-6


def test_agreement_mini_suite():
    res = run_agreement_suite(n_trials=20, seed=11)
    assert res["all_agree"]
    for t in res["trials"]:
        # the covariance oracle judges every Gaussian trial, and only those
        if t["family"] == "mixed_fock":
            assert t["gaussian_separable"] is None, t
        else:
            assert t["gaussian_separable"] == t["checker_separable"], t


def test_trial_records_borderline_draws(monkeypatch):
    fair = run_trial(7, 3)
    assert (fair["family"], fair["draws"], fair["borderline_kept"]) == ("unequal_squeeze", 1, False)

    def weak_witness(*args, **kwargs):
        verdict = check_no_entanglement(*args, **kwargs)
        if verdict.witness is not None and verdict.witness.residual is not None:
            verdict.witness = dataclasses.replace(verdict.witness, residual=agreement.MIN_RESIDUAL / 2)
        return verdict

    monkeypatch.setattr(agreement, "check_no_entanglement", weak_witness)
    kept = run_trial(7, 3)
    assert kept["draws"] == 50
    assert kept["borderline_kept"] is True
    assert kept["witness"]["residual"] < agreement.MIN_RESIDUAL


def test_verdict_json_schema():
    spec = InputStateSpec([Fock(1), Vacuum()])
    v = check_no_entanglement(spec, BALANCED, {0})
    doc = v.to_json()
    assert doc["separable"] is False
    assert doc["witness"] == {"kind": "non_gaussian", "order": None, "modes": [0], "residual": None}
    assert doc["split_modes"] == [0, 1]
    assert doc["subset"] == [0]

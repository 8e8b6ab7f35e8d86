"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; any assertion failure marks that criterion red.
"""

import json
from math import comb, sqrt

import numpy as np
from click.testing import CliRunner

from maskmodes.agreement import run_agreement_suite
from maskmodes.cli import main as cli_main
from maskmodes.diffraction import (
    CircularAperture,
    CosineGrating,
    UnitaryMatrix,
    aperture_output_grid,
    design_fidelity,
    grating_block,
    inverse_design_response,
    jinc,
    plane_wave_coupling,
    polar_factor,
)
from maskmodes.entanglement import Bipartition, entanglement_report, full_separability_scan
from maskmodes.fock import (
    Coherent,
    InputStateSpec,
    MultimodeFockState,
    SqueezedVacuum,
    apply_unitary,
    build_input_state,
)
from maskmodes.modes import Grid2D, PlaneWaveGrid, hermite_gaussian_basis, sample_field
from maskmodes.protocols import hom_coincidence, ifm_project, noon_scan
from maskmodes.separability import check_no_entanglement
from util import haar_unitary, max_amplitude_diff, sector_norms, two_mode_closed_form


def report(n, text):
    print(f"[acceptance] criterion {n:>2}: PASS  ({text})")


def test_criterion_01_grating_block_binomial_line_and_entropies():
    block = grating_block(CosineGrating((0.6, 0.0)))
    for n_tot in range(1, 7):
        out = apply_unitary(MultimodeFockState.from_occupation((n_tot, 0)), block)
        for j in range(n_tot + 1):
            expected = sqrt(comb(n_tot, j) / 2**n_tot)
            assert abs(out.amplitude((j, n_tot - j)) - expected) <= 1e-12

    one = apply_unitary(MultimodeFockState.from_occupation((1, 0)), block)
    s1 = entanglement_report(one, Bipartition((0,), 2)).entropy_bits
    assert abs(s1 - 1.0) <= 1e-9

    two = apply_unitary(MultimodeFockState.from_occupation((2, 0)), block)
    s2 = entanglement_report(two, Bipartition((0,), 2)).entropy_bits
    assert abs(s2 - 1.5) <= 1e-9
    report(1, f"binomial amplitudes to 1e-12; entropies {s1:.9f}, {s2:.9f} bits")


def test_criterion_02_closed_form_vs_brute_force_oracle():
    thetas = np.linspace(0.0, np.pi, 16)
    phis = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    worst = 0.0
    checked = 0
    for total in range(1, 7):
        for m in range(total + 1):
            n = total - m
            st = MultimodeFockState.from_occupation((m, n))
            for th in thetas:
                for ph in phis:
                    brute = apply_unitary(st, UnitaryMatrix.su2(th, ph))
                    closed = two_mode_closed_form(m, n, th, ph)
                    worst = max(worst, max_amplitude_diff(brute, closed))
                    checked += 1
    assert worst <= 1e-9
    report(2, f"{checked} propagations, worst amplitude deviation {worst:.2e}")


def test_criterion_03_hong_ou_mandel_dip_and_sweep():
    dip = hom_coincidence(UnitaryMatrix.balanced_splitter())
    assert dip <= 1e-12
    worst = 0.0
    for theta in np.linspace(0.0, np.pi, 64):
        got = hom_coincidence(UnitaryMatrix.su2(theta))
        worst = max(worst, abs(got - np.cos(theta) ** 2))
    assert worst <= 1e-9
    report(3, f"dip {dip:.2e}, sweep deviation {worst:.2e} over 64 angles")


def test_criterion_04_noon_attainability():
    results = {}
    for n in (1, 2, 3, 4):
        results[n] = noon_scan(n, 256)[0].best_fidelity
    assert results[1] >= 1 - 1e-9
    assert results[2] >= 1 - 1e-9
    assert results[3] <= 1 - 1e-3
    assert results[4] <= 1 - 1e-3
    report(4, "best fidelities " + ", ".join(f"N={n}: {f:.9f}" for n, f in results.items()))


def test_criterion_05_coherent_inputs_never_entangle():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        u = UnitaryMatrix(haar_unitary(rng, 3))
        descs = []
        for _ in range(3):
            r = 1.5 * np.sqrt(rng.random())
            descs.append(Coherent(r * np.exp(2j * np.pi * rng.random())))
        state = apply_unitary(build_input_state(InputStateSpec(descs)), u)
        for rep in full_separability_scan(state, tol=1e-6):
            worst = max(worst, rep.entropy_bits)
            assert rep.entropy_bits <= 1e-6
    report(5, f"20 seeds x 3 bipartitions, worst entropy {worst:.2e} bits")


def test_criterion_06_equal_vs_opposite_squeezing():
    block = UnitaryMatrix.balanced_splitter()

    equal = InputStateSpec([SqueezedVacuum(0.3), SqueezedVacuum(0.3)])
    out = apply_unitary(build_input_state(equal), block)
    s_eq = entanglement_report(out, Bipartition((0,), 2)).entropy_bits
    assert s_eq <= 1e-6

    # opposite signs: build the coefficients directly (lam and -lam)
    opposite = InputStateSpec([SqueezedVacuum(0.3), SqueezedVacuum(-0.3)])
    out2 = apply_unitary(build_input_state(opposite), block)
    s_op = entanglement_report(out2, Bipartition((0,), 2)).entropy_bits
    assert s_op >= 0.1

    verdict = check_no_entanglement(opposite, block, {0, 1})
    assert not verdict.separable
    assert verdict.witness.kind == "d2_cross_term"
    report(6, f"equal: {s_eq:.2e} bits; opposite: {s_op:.4f} bits with cross-term witness")


def test_criterion_07_checker_oracle_agreement():
    res = run_agreement_suite(n_trials=100, seed=7)
    assert res["all_agree"], [t for t in res["trials"] if not t["agree"]]
    assert not any(t["borderline_kept"] for t in res["trials"])
    gauss = sum(1 for t in res["trials"] if t["gaussian_separable"] is not None)
    report(7, f"100/100 verdicts agree ({gauss} trials also cross-checked vs covariance oracle)")


def test_criterion_08_aperture_profile_matches_jinc_law():
    assert jinc(0.0) == 0.5

    k = 2 * np.pi
    ap = CircularAperture(2.0)
    out_grid, dropped = aperture_output_grid(ap, (0.0, 0.0), k, 0.3, 11)
    c = plane_wave_coupling(ap, PlaneWaveGrid.single(0.0, 0.0), out_grid, k)

    # independent restatement of the output law, same global rescale rule;
    # the single input wave carries unit weight
    dn = np.linalg.norm(out_grid.transverse, axis=1)
    law = np.abs(out_grid.nz) * 2 * np.pi * ap.radius**2 * jinc(ap.radius * k * dn) * k
    law = law / np.linalg.norm(law)
    col = c.matrix[:, 0]
    rel = np.max(np.abs(np.abs(col) - np.abs(law))) / np.max(np.abs(law))
    assert rel <= 1e-6
    report(8, f"profile deviation {rel:.2e} over {len(out_grid)} retained directions "
              f"(truncated weight {dropped:.1e})")


def test_criterion_09_inverse_design_round_trips():
    grid = Grid2D(256, 256, 14.0 / 256, 14.0 / 256)
    basis = hermite_gaussian_basis(1, waist=1.0)
    g0 = sample_field((0, 0), basis, grid)
    g1 = sample_field((1, 0), basis, grid)

    ident = inverse_design_response(g0, g0)
    f_id = design_fidelity(ident, g0, g0)
    assert abs(f_id - 1.0) <= 1e-10

    kern = inverse_design_response(g0, g1)
    f_hg = design_fidelity(kern, g0, g1)
    assert f_hg >= 0.999
    report(9, f"identity fidelity 1{f_id - 1.0:+.1e}; Gaussian->HG(1,0) fidelity {f_hg:.6f}")


def test_criterion_10_unitarity_norm_and_sector_conservation():
    rng = np.random.default_rng(77)
    worst_res, worst_norm = 0.0, 0.0
    for _ in range(50):
        n_modes = int(rng.integers(2, 5))
        raw = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
        raw = raw / np.linalg.norm(raw, 2)
        u = UnitaryMatrix(polar_factor(raw).T)
        worst_res = max(worst_res, u.residual)
        assert u.residual <= 1e-10

        amps = {}
        for _ in range(5):
            tup = tuple(int(x) for x in rng.integers(0, 3, size=n_modes))
            if sum(tup) <= 5:
                amps[tup] = complex(rng.normal(), rng.normal())
        state = MultimodeFockState(n_modes, amps)
        out = apply_unitary(state, u)
        worst_norm = max(worst_norm, abs(out.norm_sq() - 1.0))
        assert abs(out.norm_sq() - 1.0) <= 1e-10
        sectors_in = sector_norms(state)
        sectors_out = sector_norms(out)
        assert set(sectors_out) <= set(sectors_in)
        for total, w in sectors_in.items():
            assert abs(sectors_out.get(total, 0.0) - w) <= 1e-10
    report(10, f"50 pairs; worst residual {worst_res:.2e}, worst norm drift {worst_norm:.2e}")


def test_criterion_11_interaction_free_bell_projection():
    bell = np.array([0, 1, 1, 0]) / np.sqrt(2)
    atoms, p_null = ifm_project(1.0, UnitaryMatrix.balanced_splitter())
    fid = atoms.fidelity_with(bell)
    assert abs(fid - 1.0) <= 1e-12
    assert abs(p_null - 1.0) <= 1e-12
    for eta in (0.25, 0.5, 1.0):
        _, p = ifm_project(eta, UnitaryMatrix.balanced_splitter())
        assert abs(p + (1 - eta) - 1.0) <= 1e-12
    report(11, f"Bell fidelity 1{fid - 1.0:+.1e}, null probability {p_null:.12f}, "
               "conservation at eta in {0.25, 0.5, 1}")


def test_criterion_12_cli_determinism(tmp_path):
    runner = CliRunner()

    def run_all(tag):
        files = {}
        for name, args in {
            "unitary": ["compile-mask", "--mask", "cosine", "--u", "0.6,0.0"],
            "verdict": ["check-separability", "--inputs", "sq:0.3,fock:1", "--unitary",
                        str(tmp_path / "unitary.json"), "--subset", "1,0"],
            "state": ["propagate", "--state", "fock:2,coh:0.5", "--unitary",
                      str(tmp_path / "unitary.json")],
            "entropy": ["entropy", "--state-file", str(tmp_path / "state.json"), "--scan"],
            "scan": ["scan-noon", "--photons", "2", "--grid", "64"],
            "agree": ["agreement-suite", "--trials", "6", "--seed", "13"],
        }.items():
            path = tmp_path / f"{name}.json"  # same path both runs: same config
            r = runner.invoke(cli_main, args + ["--out", str(path)])
            assert r.exit_code == 0, r.output
            files[name] = path.read_bytes()
            text = files[name].decode()  # the writer's text is json's, byte for byte
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
        return files

    first = run_all("a")
    second = run_all("b")
    assert first == second
    report(12, "compile/verdict/state/entropy-scan/NOON-scan/agreement artifacts "
               "byte-identical across repeated runs")

import json
import os
import stat
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from maskmodes import protocols
from maskmodes._jsonio import decode_array, read_file
from maskmodes.cli import _NOON_VALUE_BYTES, main
from maskmodes.diffraction import (
    CircularAperture,
    CosineGrating,
    CustomSampled,
    ImpulseResponse,
    UnitaryMatrix,
    aperture_output_grid,
    grating_block,
    inverse_design_response,
    mask_to_json,
    plane_wave_coupling,
    unitarize,
)
from maskmodes.fock import InputStateSpec, MultimodeFockState, apply_unitary, build_input_state
from maskmodes.modes import Grid2D, ModeBasis, hermite_gaussian_mode, sample_field
from maskmodes.protocols import noon_scan
from util import haar_unitary, state_document


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args, expect=0):
    result = runner.invoke(main, list(args), catch_exceptions=False)
    assert result.exit_code == expect, result.output
    return result


def test_compile_mask_cosine(runner, tmp_path):
    out = tmp_path / "u.json"
    csv = tmp_path / "u.csv"
    invoke(
        runner,
        "compile-mask", "--mask", "cosine", "--u", "0.6,0.0",
        "--out", str(out), "--csv", str(csv),
    )
    doc = json.loads(out.read_text())
    assert doc["result"]["unitarity_residual"] <= 1e-10
    assert doc["tool"]["name"] == "maskmodes"
    assert "config_hash" in doc
    u = UnitaryMatrix.load(out)
    np.testing.assert_allclose(
        u.matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12
    )
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# maskmodes")
    assert lines[1] == "row,col,re,im"
    assert len(lines) == 2 + 4
    # the exact real splitter: a float64 payload, and no -0.0 in the CSV
    assert doc["result"]["matrix_dtype"] == "float64"
    stored = decode_array(doc["result"]["matrix_b64"], (2, 2), "<f8")
    assert stored.tobytes() == UnitaryMatrix.balanced_splitter().matrix.real.tobytes()
    assert "-0.0" not in [v for line in lines[2:] for v in line.split(",")[2:]]


def test_pinhole_compiles_the_circular_aperture(runner, tmp_path):
    docs = {}
    for mask in ("pinhole", "circular"):
        out = tmp_path / f"{mask}.json"
        invoke(runner, "compile-mask", "--mask", mask, "--radius", "0.5",
               "--aperture-steps", "3", "--out", str(out))
        docs[mask] = json.loads(out.read_text())
    assert docs["pinhole"]["result"]["matrix_b64"] == docs["circular"]["result"]["matrix_b64"]
    assert docs["pinhole"]["result"]["provenance"] == docs["circular"]["result"]["provenance"]
    assert docs["pinhole"]["config"]["mask"] == "pinhole"


def test_compile_mask_circular_flux_faithful(runner, tmp_path):
    out = tmp_path / "ap.json"
    invoke(
        runner,
        "compile-mask", "--mask", "circular", "--radius", "2.0",
        "--aperture-steps", "5", "--aperture-extent", "0.15",
        "--out", str(out),
    )
    doc = json.loads(out.read_text())
    assert doc["result"]["unitarity_residual"] <= 1e-10
    assert "truncated_weight" in doc["result"]["provenance"]
    assert doc["result"]["dim"] >= 25  # lattice plus loss ancillas


def test_compile_mask_csv_body_is_the_unitarys_csv(runner, tmp_path):
    out, csv = tmp_path / "ap.json", tmp_path / "ap.csv"
    invoke(runner, "compile-mask", "--mask", "circular", "--radius", "2.0",
           "--aperture-steps", "3", "--aperture-extent", "0.15",
           "--out", str(out), "--csv", str(csv))
    u = UnitaryMatrix.load(out)
    plain = "".join(f"{line}\n" for line in ["row,col,re,im", *u.csv_rows()])
    comment, body = csv.read_text().split("\n", 1)
    assert comment.startswith("# maskmodes") and body == plain
    assert len(body.splitlines()) == 1 + u.dim**2


def test_propagate_reports_entropy(runner, tmp_path):
    u = tmp_path / "u.json"
    st = tmp_path / "state.json"
    invoke(runner, "compile-mask", "--mask", "cosine", "--u", "0.6,0.0", "--out", str(u))
    r = invoke(
        runner,
        "propagate", "--state", "fock:2,vac", "--unitary", str(u),
        "--report", "entropy", "--out", str(st),
    )
    doc = json.loads(st.read_text())
    assert abs(doc["result"]["entropy"]["entropy_bits"] - 1.5) < 1e-9
    assert "1.5" in r.output
    state = MultimodeFockState.from_json(doc["result"]["state"])
    assert abs(state.norm_sq() - 1.0) < 1e-10


def test_entropy_command_scan(runner, tmp_path):
    u = tmp_path / "u.json"
    st = tmp_path / "state.json"
    rep = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    invoke(runner, "compile-mask", "--mask", "cosine", "--u", "0.6,0.0", "--out", str(u))
    invoke(runner, "propagate", "--state", "fock:1,vac", "--unitary", str(u), "--out", str(st))
    invoke(
        runner,
        "entropy", "--state-file", str(st), "--scan", "--out", str(rep), "--csv", str(csv),
    )
    doc = json.loads(rep.read_text())
    assert doc["result"]["fully_separable"] is False
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("# maskmodes")
    assert lines[1] == "mask,entropy_bits,separable,s1,s2,s3,s4"


def test_check_separability_verdict(runner, tmp_path):
    u = tmp_path / "u.json"
    v = tmp_path / "verdict.json"
    invoke(runner, "compile-mask", "--mask", "cosine", "--u", "0.6,0.0", "--out", str(u))
    invoke(
        runner,
        "check-separability", "--inputs", "sq:0.3,sq:0.3",
        "--unitary", str(u), "--subset", "1,1", "--out", str(v),
    )
    doc = json.loads(v.read_text())
    assert doc["result"]["separable"] is True
    invoke(
        runner,
        "check-separability", "--inputs", "sq:0.3,fock:1",
        "--unitary", str(u), "--subset", "1,0", "--out", str(v),
    )
    doc = json.loads(v.read_text())
    assert doc["result"]["separable"] is False
    assert doc["result"]["split_modes"] == [0, 1]

    # a Fock photon that no network splits stays a product with the rest
    eye = tmp_path / "eye.json"
    UnitaryMatrix(np.eye(2, dtype=complex)).save(eye)
    invoke(
        runner,
        "check-separability", "--inputs", "fock:1,vac",
        "--unitary", str(eye), "--subset", "1,0", "--out", str(v),
    )
    doc = json.loads(v.read_text())
    assert doc["result"] == {"separable": True, "witness": None, "split_modes": [], "subset": [0]}


def test_pinhole_splits_a_photon_but_not_a_coherent_state(runner, tmp_path):
    """The headline screen: one photon into a pinhole entangles its incident mode."""
    u = tmp_path / "pinhole.json"
    invoke(runner, "compile-mask", "--mask", "pinhole", "--radius", "0.5",
           "--aperture-steps", "3", "--out", str(u))
    unit = UnitaryMatrix.load(u)
    assert unit.dim == 18 and np.all(np.abs(unit.matrix) > 1e-12)
    lattice, _ = aperture_output_grid(CircularAperture(0.5), (0.0, 0.0), 2 * np.pi, 0.2, 3)
    j = int(np.flatnonzero(np.all(lattice.transverse == 0.0, axis=1))[0])
    mask = ",".join("1" if i == j else "0" for i in range(unit.dim))
    v = tmp_path / "v.json"
    out = tmp_path / "out.json"

    def verdict(desc):
        inputs = ",".join(desc if i == j else "vac" for i in range(unit.dim))
        invoke(runner, "check-separability", "--inputs", inputs, "--unitary", str(u),
               "--subset", mask, "--out", str(v))
        return inputs, json.loads(v.read_text())["result"]

    assert verdict("coh:0.5")[1]["separable"] is True
    photon, doc = verdict("fock:1")
    assert doc["separable"] is False
    assert doc["witness"] == {"kind": "non_gaussian", "order": None, "modes": [j], "residual": None}
    invoke(runner, "propagate", "--state", photon, "--unitary", str(u),
           "--report", "entropy", "--subset", mask, "--out", str(out))
    entropy = json.loads(out.read_text())["result"]["entropy"]["entropy_bits"]
    p = abs(unit.matrix[j, j]) ** 2
    assert 0 < p < 1
    assert abs(entropy - (-p * np.log2(p) - (1 - p) * np.log2(1 - p))) < 1e-10


def test_protocol_commands(runner, tmp_path):
    ifm = tmp_path / "ifm.json"
    invoke(runner, "protocol-ifm", "--eta", "0.5", "--out", str(ifm))
    doc = json.loads(ifm.read_text())
    assert abs(doc["result"]["null_probability"] - 0.5) < 1e-12
    assert abs(doc["result"]["bell_fidelity"] - 1.0) < 1e-12

    hom = tmp_path / "hom.json"
    csv = tmp_path / "hom.csv"
    invoke(runner, "protocol-hom", "--sweep", "16", "--out", str(hom), "--csv", str(csv))
    doc = json.loads(hom.read_text())
    sweep = doc["result"]["sweep"]
    assert len(sweep) == 16
    for row in sweep:
        assert abs(row["coincidence"] - np.cos(row["theta"]) ** 2) < 1e-9

    noon = tmp_path / "noon.json"
    surf = tmp_path / "surface.csv"
    invoke(
        runner,
        "scan-noon", "--photons", "2", "--grid", "64",
        "--out", str(noon), "--surface", str(surf),
    )
    doc = json.loads(noon.read_text())
    assert doc["result"]["best_fidelity"] >= 1 - 1e-9
    assert surf.read_text().splitlines()[1] == "theta,fidelity"


@pytest.mark.parametrize("grid", [256, 1024])
def test_scan_noon_surface_holds_one_row_per_angle(runner, tmp_path, grid):
    surf = tmp_path / "surface.csv"
    invoke(runner, "scan-noon", "--photons", "2", "--grid", str(grid),
           "--out", str(tmp_path / "noon.json"), "--surface", str(surf))
    comment, header, *rows = surf.read_text().splitlines()
    assert header == "theta,fidelity" and len(rows) == grid + 1
    _, thetas, values = noon_scan(2, grid)
    assert rows == [f"{t!r},{v!r}" for t, v in zip(thetas.tolist(), values.tolist())]


def test_noon_table_stays_within_the_bytes_its_size_check_counts():
    photons, grid = 2000, 256
    noon_scan(2, 64)  # first-call set-up happens outside the measurement
    tracemalloc.start()
    try:
        noon_scan(photons, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the table's arrays, a few of one row or one column
    assert peak <= _NOON_VALUE_BYTES * (photons + 1) * (grid + 1) + 64 * (photons + grid)


def test_scan_noon_with_surface_builds_the_table_once(runner, tmp_path, monkeypatch):
    calls = []
    table = protocols._noon_table

    def counted(photons, steps):
        calls.append((photons, steps))
        return table(photons, steps)

    monkeypatch.setattr(protocols, "_noon_table", counted)
    out, surf = tmp_path / "noon.json", tmp_path / "surface.csv"
    invoke(runner, "scan-noon", "--photons", "3", "--grid", "64", "--out", str(out),
           "--surface", str(surf))
    assert calls == [(3, 64)]
    monkeypatch.undo()
    res, thetas, values = noon_scan(3, 64)
    assert json.loads(out.read_text())["result"] == res.to_json()
    assert surf.read_text().splitlines()[2:] == [
        f"{t!r},{v!r}" for t, v in zip(thetas.tolist(), values.tolist())]


def test_protocol_hom_csv_without_sweep_writes_one_row(runner, tmp_path):
    out, csv = tmp_path / "hom.json", tmp_path / "hom.csv"
    invoke(runner, "protocol-hom", "--theta", "0.3", "--out", str(out), "--csv", str(csv))
    result = json.loads(out.read_text())["result"]
    comment, header, *rows = csv.read_text().splitlines()
    assert header == "theta,coincidence"
    assert rows == [f"{0.3!r},{result['coincidence']!r}"]


def test_agreement_suite_command(runner, tmp_path):
    out = tmp_path / "agree.json"
    invoke(runner, "agreement-suite", "--trials", "5", "--seed", "3", "--out", str(out))
    doc = json.loads(out.read_text())
    assert doc["result"]["all_agree"] is True
    assert doc["seed"] == 3


def test_determinism_byte_identical(runner, tmp_path):
    # identical config (including the output path) => identical bytes
    a = tmp_path / "a.json"
    args = ["scan-noon", "--photons", "3", "--grid", "64", "--out", str(a)]
    invoke(runner, *args)
    first = a.read_bytes()
    invoke(runner, *args)
    assert a.read_bytes() == first

    c = tmp_path / "c.json"
    invoke(runner, "agreement-suite", "--trials", "4", "--seed", "9", "--out", str(c))
    first = c.read_bytes()
    invoke(runner, "agreement-suite", "--trials", "4", "--seed", "9", "--out", str(c))
    assert c.read_bytes() == first

    # the result payload does not depend on where it is written
    d, e = tmp_path / "d.json", tmp_path / "e.json"
    invoke(runner, "protocol-hom", "--theta", "0.8", "--out", str(d))
    invoke(runner, "protocol-hom", "--theta", "0.8", "--out", str(e))
    assert json.loads(d.read_text())["result"] == json.loads(e.read_text())["result"]


def test_unitary_round_trip_through_cli_artifact(runner, tmp_path):
    out = tmp_path / "u.json"
    invoke(runner, "compile-mask", "--mask", "cosine", "--u", "0.28,0.1", "--out", str(out))
    u = UnitaryMatrix.load(out)
    u.save(tmp_path / "direct.json")
    v = UnitaryMatrix.load(tmp_path / "direct.json")
    assert np.max(np.abs(u.matrix - v.matrix)) < 1e-15


def test_design_response_artifact(runner, tmp_path):
    out = tmp_path / "kernel.json"
    invoke(
        runner,
        "design-response", "--input-mode", "hg:0,0", "--target-mode", "hg:1,0",
        "--out", str(out),
    )
    doc = json.loads(out.read_text())
    assert doc["result"]["fidelity"] >= 0.999


@pytest.mark.parametrize("order, message",
                         [(171, "boundary energy"), (400, "not finite"), (100000, "not finite")])
def test_design_response_high_order_exits_1(runner, tmp_path, order, message):
    # order 171 overflows a float factorial; order 400 overflows the Hermite polynomial;
    # only the two modes of the design are built, never the (order + 1)^2 labels of a basis
    tracemalloc.start()
    try:
        result = invoke(
            runner,
            "design-response", "--input-mode", f"hg:{order},0", "--target-mode", "hg:0,0",
            "--out", str(tmp_path / "kernel.json"), expect=1,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message in result.output
    assert "Traceback" not in result.output
    assert peak < 16e6


def test_missing_required_parameter_exits_2(runner):
    result = runner.invoke(main, ["compile-mask", "--mask", "cosine"])
    assert result.exit_code == 2
    assert "out" in result.output


def test_unknown_command_exits_2(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


def _propagate(runner, tmp_path, state, unitary):
    return runner.invoke(main, ["propagate", "--state", state, "--unitary", str(unitary),
                                "--report", "entropy", "--out", str(tmp_path / "x.json")])


def _exited_cleanly(result):
    """No exception escaped the command: click turned every error into an exit code."""
    return result.exception is None or isinstance(result.exception, SystemExit)


@pytest.fixture
def grating(runner, tmp_path):
    u = tmp_path / "u.json"
    invoke(runner, "compile-mask", "--mask", "cosine", "--u", "0.6,0.0", "--out", str(u))
    return u


def test_numerical_failure_exits_1(runner, tmp_path, grating):
    # a squeezing whose expansion is too large, and descriptors no state can hold
    for state, message in (
        ("sq:3.0,vac", "the limit is"),
        ("coh:1e4,vac", "the limit is"),
        ("coh:1e200,vac", "the limit is"),
        ("fock:100000000000000000000,vac", "the limit is"),
        ("coh:nan,vac", "not finite"),
        ("sq:inf,vac", "not finite"),
        ("fock:-1,vac", "negative photon number"),
    ):
        result = _propagate(runner, tmp_path, state, grating)
        assert result.exit_code == 1, (state, result.output)
        assert message in result.output, (state, result.output)
        assert _exited_cleanly(result) and "Traceback" not in result.output


def test_imprecise_gaussian_expansion_exits_1(runner, tmp_path):
    # strong opposite squeezing through a Haar network: the Hermite recurrence loses precision
    u = tmp_path / "haar.json"
    UnitaryMatrix(haar_unitary(np.random.default_rng(5), 2)).save(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = _propagate(runner, tmp_path, "sq:1.5,sq:-1.5", u)
    assert result.exit_code == 1, result.output
    assert "lost the Gaussian input's precision" in result.output
    assert _exited_cleanly(result) and "Traceback" not in result.output
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("args, message", [
    # 2 pi R^2 overflows
    (["compile-mask", "--mask", "circular", "--radius", "1e300", "--aperture-steps", "3"],
     "overflows"),
    # the coupling's column norm overflows
    (["compile-mask", "--mask", "circular", "--radius", "1e100", "--aperture-steps", "3"],
     "over- or underflow"),
    # waist^2 overflows
    (["design-response", "--waist", "1e300", "--input-mode", "hg:1,0", "--target-mode", "hg:0,0"],
     "overflows"),
    # the samples underflow when squared
    (["design-response", "--waist", "1e100", "--input-mode", "hg:1,0", "--target-mode", "hg:0,0"],
     "norm is 0"),
    # the aperture coupling's column norm underflows to 0
    (["compile-mask", "--mask", "circular", "--radius", "2.0", "--aperture-steps", "3",
      "--wavenumber", "1e-300"], "over- or underflow"),
    # 2 pi R^2 underflows to 0, so every aperture coupling is 0
    (["compile-mask", "--mask", "circular", "--radius", "1e-170", "--aperture-steps", "3"],
     "over- or underflow"),
    # the lattice weights underflow to 0, so every aperture coupling is 0
    (["compile-mask", "--mask", "pinhole", "--radius", "0.5", "--aperture-steps", "3",
      "--aperture-extent", "1e-200"], "over- or underflow"),
])
def test_extreme_magnitudes_exit_1(runner, tmp_path, args, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, args + ["--out", str(tmp_path / "x.json")])
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert _exited_cleanly(result) and "Traceback" not in result.output
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("args, message", [
    (["compile-mask", "--mask", "custom", "--grid", "65536"],
     "4 sampled fields of 65536^2 points"),
    (["compile-mask", "--mask", "custom", "--basis-order", "100000"],
     "10000200001 sampled fields"),
    (["compile-mask", "--mask", "circular", "--radius", "2", "--aperture-steps", "10000"],
     "a 200000000-mode unitary"),
    (["compile-mask", "--mask", "pinhole", "--radius", "2", "--aperture-steps", "46"],
     "a 4232-mode unitary"),
    (["protocol-hom", "--sweep", "10000000000", "--csv", "sweep.csv"],
     "10000000000 angles and their records"),
    (["scan-noon", "--photons", "100000000", "--grid", "64"], "6500000065 fidelity values"),
    (["scan-noon", "--photons", "2", "--grid", "1048576", "--surface", "surface.csv"],
     "3145731 fidelity values and 1048577 surface points"),
])
def test_oversized_compile_exits_1_before_allocating(runner, cli_files, tmp_path, monkeypatch,
                                                     args, message):
    monkeypatch.chdir(tmp_path)
    if args[:3] == ["compile-mask", "--mask", "custom"]:
        args = [*args, "--mask-file", str(cli_files["mask"])]
    tracemalloc.start()
    try:
        result = runner.invoke(main, [*args, "--out", "x.json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 1, result.output
    assert message in result.output and "the limit is 256 MiB" in result.output
    assert _exited_cleanly(result) and "Traceback" not in result.output
    assert peak < 16e6
    assert not any(tmp_path.iterdir())


def test_removed_cutoff_option_exits_2(runner, tmp_path, grating):
    result = runner.invoke(main, ["propagate", "--state", "coh:1.5,vac", "--cutoff", "4",
                                  "--unitary", str(grating), "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state_text": "coh:1.5,vac", "cutoff": 30}))
    result = runner.invoke(main, ["propagate", "--config", str(cfg), "--unitary", str(grating),
                                  "--out", str(tmp_path / "x.json")])
    assert result.exit_code == 2
    assert "cutoff" in result.output


def test_garbage_descriptor_exits_2(runner, tmp_path, grating):
    for state in ("banana,vac", "fock:1.5,vac", "coh:,vac", "sq:x,vac", "vac,"):
        result = _propagate(runner, tmp_path, state, grating)
        assert result.exit_code == 2, (state, result.output)
        assert _exited_cleanly(result)


def test_opposite_squeezing_through_grating_is_two_mode_squeezed(runner, tmp_path, grating):
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        invoke(runner, "propagate", "--state", "sq:1.2,sq:-1.2", "--unitary", str(grating),
               "--report", "entropy", "--out", str(out))
        bits = json.loads(out.read_text())["result"]["entropy"]["entropy_bits"]
        assert abs(bits - 2.909124) <= 1e-6
        # two-mode squeezed vacuum: cosh^2 log2 cosh^2 - sinh^2 log2 sinh^2
        ch2, sh2 = np.cosh(1.2) ** 2, np.sinh(1.2) ** 2
        assert abs(bits - (ch2 * np.log2(ch2) - sh2 * np.log2(sh2))) <= 1e-9
        result = invoke(runner, "propagate", "--state", "sq:1.5,sq:-1.5", "--unitary",
                        str(grating), "--report", "entropy", "--out", str(out))
    assert "3.771972 bits" in result.output


def test_non_finite_state_file_exits_1(runner, tmp_path):
    for bad in (float("nan"), float("inf")):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_document([[0, 1], [1, 0]], [0.6, bad])))
        result = runner.invoke(main, ["entropy", "--state-file", str(path),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 1, result.output
        assert "non-finite amplitude" in result.output
        assert _exited_cleanly(result)


# state documents the reader refuses, and what its message says
_FAULTY_STATES = {
    "state_b64": ({**state_document([[0, 1]], [1.0]), "values_b64": "AAAA!"}, "not base64"),
    "state_bytes": ({**state_document([[0, 1]], [1.0]), "terms": 2}, "bytes"),
    "state_repeated": (state_document([[1, 0], [1, 0], [0, 1]], [0.6, 0.8, 0.8]), "not distinct"),
    "state_order": (state_document([[1, 0], [0, 1]], [0.6, 0.8]), "lexicographic"),
    "state_norm": (state_document([[0, 1], [1, 0]], [1.0, 1.0]), "norm² 2.0"),
    "state_negative": (state_document([[0, 1], [-1, 2]], [0.6, 0.8]), "negative occupation"),
    "state_total": (state_document([[2**62, 2**62]], [1.0]), "more than int64"),
    "state_schema_1": ({"schema_version": 1, "type": "state", "mode_count": 2, "amplitudes":
                        [[[0, 1], 0.6, 0.0], [[1, 0], 0.8, 0.0]]}, "occupations_b64"),
}


def test_faulty_state_files_exit_1(runner, tmp_path):
    for name, (doc, message) in _FAULTY_STATES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for scan in ("--scan", "--no-scan"):
            result = runner.invoke(main, ["entropy", "--state-file", str(path), scan,
                                          "--out", str(tmp_path / "r.json")])
            assert result.exit_code == 1, (name, result.output)
            assert message in result.output, (name, result.output)
            assert _exited_cleanly(result) and "Traceback" not in result.output
    assert not (tmp_path / "r.json").exists()


_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "1e200", "-1e200", "1e-300", "1e400"]),
    st.floats(-1.5, 1.5).map(repr),
)
_DESCRIPTORS = st.one_of(
    st.just("vac"),
    st.one_of(st.integers(0, 4), st.sampled_from([10**6, 10**9, 10**30, -3])).map("fock:{}".format),
    st.sampled_from(["1e200", "1e400", "nan", "1.5", "x"]).map("fock:{}".format),
    _NUMBERS.map("coh:{}".format),
    st.tuples(_NUMBERS, _NUMBERS).map(lambda p: f"coh:{p[0]}+{p[1]}j".replace("+-", "-")),
    st.one_of(st.sampled_from(["nan", "inf", "-0.0", "1e200", "1e-300"]),
              st.floats(-0.6, 0.6).map(repr)).map("sq:{}".format),
    st.text(max_size=8),
)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Input files for the robustness property: good ones of every kind, and bad ones."""
    base = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(21)
    paths = {"dir": base, "missing": base / "missing.json"}
    for m in (1, 2, 3):
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        u, _, vh = np.linalg.svd(g)
        paths[f"u{m}"] = base / f"u{m}.json"
        UnitaryMatrix(u @ vh).save(paths[f"u{m}"])
    paths["state"] = base / "state.json"
    invoke(CliRunner(), "propagate", "--state", "fock:1,coh:0.5", "--unitary", str(paths["u2"]),
           "--out", str(paths["state"]))
    paths["state_doc"] = base / "state_doc.json"
    MultimodeFockState.load(paths["state"]).save(paths["state_doc"])
    for name, (doc, _) in _FAULTY_STATES.items():
        paths[name] = base / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    grid = Grid2D(16, 16, 14 / 16, 14 / 16)
    x, y = grid.meshgrid()
    paths["mask"] = base / "mask.json"
    paths["mask"].write_text(json.dumps(mask_to_json(CustomSampled(grid, np.exp(-(x * x + y * y))))))
    for name, text in (("junk", "not json {"), ("list", "[1, 2]"), ("object", '{"a": 1}')):
        paths[name] = base / f"{name}.txt"
        paths[name].write_text(text)
    paths["out"] = base / "out.json"
    paths["csv"] = base / "out.csv"
    paths["under_file"] = base / "junk.txt" / "x.json"
    return paths


_BAD_NUMBERS = ("nan", "inf", "-inf", "-1", "0", "1e400", "-0.0", "x", "")
_BAD_INTS = ("-1", "0", "3.5", "1e400", "x")
_BAD_FILES = ("@u1", "@state", "@mask", "@junk", "@list", "@object", "@missing", "@dir", "x")
_BAD_OUT = ("@under_file", "@dir")
_UNITARIES = st.sampled_from(["@u1", "@u2", "@u3"])
_STATES = st.lists(_DESCRIPTORS, min_size=1, max_size=3).map(",".join)
_SUBSETS = st.sampled_from([None, "1,0", "0,1", "1,0,1"])
_OUT = st.just("@out")
_CSV = st.sampled_from([None, "@csv"])


_APERTURE_FLAGS = {
    "--radius": (st.sampled_from(["0.5", "2.0"]), _BAD_NUMBERS),
    "--wavenumber": (st.sampled_from([None, "3.0"]), _BAD_NUMBERS),
    "--aperture-steps": (st.sampled_from([None, "1", "2", "5", "7"]), _BAD_INTS),
    "--aperture-extent": (st.sampled_from([None, "0.1", "0.5"]), _BAD_NUMBERS),
    "--out": (_OUT, _BAD_OUT),
    "--csv": (_CSV, _BAD_OUT),
}


# Every command's flags, each with a strategy of good values (None: left out)
# and a tuple of bad ones.  --grid and --trials bound the work of an example,
# so they are never left out.  compile-mask holds the flags of each --mask
# kind, those that kind reads; a bad --mask names another kind, which refuses
# them.
_FLAGS = {
    "compile-mask": {
        "cosine": {
            "--mask": (st.just("cosine"), ("x", "circular", "custom")),
            "--u": (st.sampled_from(["0.6,0.0", "0.28,0.1"]),
                    ("nan,0", "inf,0", "2,0", "1,0", "0,0", "0.6", "x,y", "1e400,0")),
            "--out": (_OUT, _BAD_OUT),
            "--csv": (_CSV, _BAD_OUT),
        },
        "circular": {"--mask": (st.just("circular"), ("x", "cosine", "custom")),
                     **_APERTURE_FLAGS},
        "pinhole": {"--mask": (st.just("pinhole"), ("x", "cosine", "custom")),
                    **_APERTURE_FLAGS},
        "custom": {
            "--mask": (st.just("custom"), ("x", "cosine", "pinhole")),
            "--grid": (st.sampled_from(["16"]),
                       ("-1", "0", "1", "10", "32", "3.5", "x", "1e400")),
            "--extent": (st.sampled_from([None, "14"]), _BAD_NUMBERS),
            "--waist": (st.sampled_from([None, "0.5", "2"]), _BAD_NUMBERS),
            "--basis-order": (st.sampled_from([None, "0", "2", "3"]), _BAD_INTS),
            "--mask-file": (st.sampled_from(["@mask"]), _BAD_FILES),
            "--out": (_OUT, _BAD_OUT),
            "--csv": (_CSV, _BAD_OUT),
        },
    },
    "design-response": {
        "--input-mode": (st.sampled_from(["hg:0,0", "hg:1,0", "hg:3,2", "hg:100000,0"]),
                         ("hg:a", "hg:1", "hg:-1,0", "gauss:0,0", "")),
        "--target-mode": (st.sampled_from(["hg:0,0", "hg:1,0", "hg:2,3"]), ("hg:", "hg:1,2,3", "x")),
        "--grid": (st.sampled_from(["16", "32", "64"]), ("-1", "0", "1", "10", "3.5", "x")),
        "--extent": (st.sampled_from([None, "14", "3"]), _BAD_NUMBERS),
        "--waist": (st.sampled_from([None, "0.5"]), _BAD_NUMBERS),
        "--eps-rel": (st.sampled_from([None, "1e-3", "0.5"]), _BAD_NUMBERS),
        "--out": (_OUT, _BAD_OUT),
    },
    "propagate": {
        "--state": (_STATES, ("", "x", "vac,")),
        "--unitary": (_UNITARIES, _BAD_FILES),
        "--out": (_OUT, _BAD_OUT),
        "--report": (st.sampled_from([None, "entropy", "none"]), ("x",)),
        "--subset": (_SUBSETS, ("0,0", "1", "x", "")),
    },
    "entropy": {
        "--state-file": (st.sampled_from(["@state", "@state_doc"]),
                         _BAD_FILES + tuple(f"@{name}" for name in _FAULTY_STATES)),
        "--subset": (_SUBSETS, ("0,0", "1", "x", "")),
        "--scan": (st.sampled_from([None, True, False]), ("x",)),
        "--tolerance": (st.sampled_from([None, "1e-12", "0.5"]), _BAD_NUMBERS),
        "--out": (_OUT, _BAD_OUT),
        "--csv": (_CSV, _BAD_OUT),
    },
    "check-separability": {
        "--inputs": (_STATES, ("", "x", "vac,")),
        "--unitary": (_UNITARIES, _BAD_FILES),
        "--subset": (st.sampled_from(["1,0", "1,1", "0,1,1"]), ("0,0", "1", "x", "")),
        "--out": (_OUT, _BAD_OUT),
    },
    "protocol-ifm": {
        "--eta": (st.sampled_from([None, "0.5", "1e-3"]), _BAD_NUMBERS + ("2",)),
        "--theta": (st.sampled_from([None, "1.0", "7"]), _BAD_NUMBERS),
        "--phi": (st.sampled_from([None, "0.3"]), _BAD_NUMBERS),
        "--out": (_OUT, _BAD_OUT),
    },
    "protocol-hom": {
        "--theta": (st.sampled_from([None, "0.8", "7"]), _BAD_NUMBERS),
        "--sweep": (st.sampled_from([None, "0", "1", "16"]), ("-3", "2.5", "1e400", "x")),
        "--out": (_OUT, _BAD_OUT),
        "--csv": (_CSV, _BAD_OUT),
    },
    "scan-noon": {
        "--photons": (st.sampled_from(["1", "3", "50"]), _BAD_INTS),
        "--grid": (st.sampled_from(["64", "100"]), ("-1", "10", "63", "3.5", "x")),
        "--out": (_OUT, _BAD_OUT),
        "--surface": (_CSV, _BAD_OUT),
    },
    "agreement-suite": {
        "--trials": (st.sampled_from(["1", "2"]), _BAD_INTS),
        "--seed": (st.sampled_from([None, "7", "-1"]), ("1.5", "1e400", "x", "")),
        "--out": (_OUT, _BAD_OUT),
    },
}
_NEVER_LEFT_OUT = {"--grid", "--trials"}


@st.composite
def _invocations(draw, command=None, kind=None):
    """A command and its flag values, at most two of them bad.

    Each value goes in on the command line or through a --config file; a
    bad value may also be a required flag left out.  ``command`` and the
    ``--mask`` ``kind`` of compile-mask are drawn unless given.
    """
    command = command or draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    if command == "compile-mask":
        flags = flags[kind or draw(st.sampled_from(sorted(flags)))]
    bad = draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True))
    values = {}
    for flag, (good, wrong) in flags.items():
        if flag in bad:
            value = draw(st.sampled_from(wrong if flag in _NEVER_LEFT_OUT else wrong + (None,)))
        else:
            value = draw(good)
        if value is not None:
            values[flag] = (value, draw(st.booleans()))
    return command, values


def _json_value(text):
    """What a config file holds for a flag's text: the JSON number or boolean it spells, or the text."""
    if isinstance(text, bool):
        return text
    try:
        return json.loads(text)
    except ValueError:
        return text


@settings(max_examples=300, derandomize=True, deadline=None)
@given(invocation=_invocations())
def test_cli_never_leaks_an_exception(cli_files, invocation):
    _invoke_cleanly(cli_files, *invocation)


# every --mask kind, with its own flags and, under a bad --mask, those of another kind
@pytest.mark.parametrize("kind", sorted(_FLAGS["compile-mask"]))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_compile_mask_never_leaks_an_exception(cli_files, kind, data):
    _invoke_cleanly(cli_files, *data.draw(_invocations("compile-mask", kind)))


def _invoke_cleanly(cli_files, command, values):
    """Run a drawn invocation: it exits 0, 1 or 2, never with a traceback."""
    names = {opt: p.name for p in main.commands[command].params for opt in p.opts}
    args, config = [command], {}
    for flag, (value, via_config) in values.items():
        if isinstance(value, str) and value.startswith("@"):
            value = str(cli_files[value[1:]])
        if via_config:
            config[names[flag]] = _json_value(value)
        elif isinstance(value, bool):
            args.append(flag if value else "--no-" + flag[2:])
        else:
            args += [flag, value]
    if config:
        path = cli_files["dir"] / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), result.output
    assert _exited_cleanly(result), repr(result.exception)
    assert "Traceback" not in result.output


def test_propagate_beyond_64_modes(runner, tmp_path):
    u = tmp_path / "ap.json"
    st = tmp_path / "st.json"
    invoke(runner, "compile-mask", "--mask", "circular", "--radius", "2.0",
           "--aperture-steps", "9", "--out", str(u))
    unit = UnitaryMatrix.load(u)
    assert unit.dim == 162
    state_text = ",".join(["fock:1"] + ["vac"] * (unit.dim - 1))
    invoke(runner, "propagate", "--state", state_text, "--unitary", str(u),
           "--report", "entropy", "--out", str(st))
    doc = json.loads(st.read_text())
    stored = doc["result"]["state"]
    occ = decode_array(stored["occupations_b64"], (stored["terms"], unit.dim), "<i8")
    assert len(occ) and np.all(occ.sum(axis=1) == 1)
    p = abs(unit.matrix[0, 0]) ** 2
    h2 = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
    assert abs(doc["result"]["entropy"]["entropy_bits"] - h2) <= 1e-9


def test_circular_screen_artifact_matches_reference_encoder(runner, tmp_path):
    out = tmp_path / "ap.json"
    invoke(runner, "compile-mask", "--mask", "circular", "--radius", "2.0",
           "--aperture-steps", "9", "--out", str(out))
    text = out.read_text()
    doc = json.loads(text)
    assert doc["result"]["dim"] == 162
    assert text == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    mask = CircularAperture(2.0)
    lattice, _ = aperture_output_grid(mask, (0.0, 0.0), 2 * np.pi, 0.2, 9)
    unit = unitarize(plane_wave_coupling(mask, lattice, lattice, 2 * np.pi), flux_faithful=True)
    assert doc["result"]["schema_version"] == 2 and "matrix" not in doc["result"]
    # a real-valued unitary is stored as its float64 real parts
    assert doc["result"]["matrix_dtype"] == "float64"
    stored = decode_array(doc["result"]["matrix_b64"], (162, 162), "<f8")
    assert stored.tobytes() == unit.matrix.real.tobytes()
    assert not unit.matrix.imag.view(np.uint64).any()


def test_scan_noon_many_photons(runner, tmp_path):
    out = tmp_path / "noon.json"
    invoke(runner, "scan-noon", "--photons", "200", "--grid", "64", "--out", str(out))
    best = json.loads(out.read_text())["result"]["best_fidelity"]
    assert 0.5 - 1e-12 <= best <= 1.0


def test_large_coherent_input_propagates(runner, tmp_path):
    u = tmp_path / "u.json"
    invoke(runner, "compile-mask", "--mask", "cosine", "--u", "0.6,0.0", "--out", str(u))
    invoke(runner, "propagate", "--state", "coh:12,vac", "--unitary", str(u),
           "--out", str(tmp_path / "x.json"))


def test_oversized_output_exits_1(runner, tmp_path):
    u = tmp_path / "u.json"
    g = np.random.default_rng(16).normal(size=(20, 40)).view(complex)
    UnitaryMatrix(np.linalg.qr(g)[0]).save(u)
    result = runner.invoke(
        main,
        ["propagate", "--state", ",".join(["coh:2"] + ["vac"] * 19), "--unitary", str(u),
         "--out", str(tmp_path / "x.json")],
    )
    assert result.exit_code == 1
    assert "output terms" in result.output
    assert not (tmp_path / "x.json").exists()


def test_bad_subset_mask_exits_2(runner, tmp_path):
    u = tmp_path / "u.json"
    st = tmp_path / "st.json"
    invoke(runner, "compile-mask", "--mask", "cosine", "--u", "0.6,0.0", "--out", str(u))
    invoke(runner, "propagate", "--state", "fock:1,vac", "--unitary", str(u), "--out", str(st))
    result = runner.invoke(
        main, ["entropy", "--state-file", str(st), "--subset", "1,1,1", "--out", "r.json"]
    )
    assert result.exit_code == 2


# (arguments, --config contents or None, exit code, message fragment).  In the
# arguments {u} is a compiled grating, {tmp} the test directory and {missing}
# a file that does not exist.
_PROBES = [
    (["propagate", "--state", "fock:1,vac"], {"unitary_file": "{missing}"}, 2, "does not exist"),
    (["entropy"], {"state_file": "{missing}"}, 2, "does not exist"),
    (["agreement-suite"], {"trials": "abc"}, 2, "'abc' is not a valid integer"),
    (["scan-noon"], {"photons": 3.5}, 2, "photons cannot be 3.5"),
    (["scan-noon"], {"photons": 2, "surface_file": 5}, 2, "surface_file cannot be 5"),
    (["design-response", "--input-mode", "hg:0,0", "--target-mode", "hg:1,0"], {"grid_n": 100},
     2, "100 is not a power of two"),
    (["design-response", "--input-mode", "hg:a", "--target-mode", "hg:1,0"], None, 2, "hg:a"),
    (["design-response", "--input-mode", "hg:1", "--target-mode", "hg:1,0"], None, 2, "hg:1"),
    (["compile-mask", "--mask", "cosine", "--u", "0.6,0", "--wavenumber", "0"], None, 2,
     "--wavenumber"),
    (["compile-mask", "--mask", "circular", "--radius", "-1"], None, 2, "--radius"),
    (["compile-mask", "--mask", "cosine", "--u", "2,0"], None, 2, "ux^2 + uy^2 < 1"),
    (["compile-mask", "--mask", "circular", "--radius", "1", "--aperture-steps", "0"], None, 2,
     "--aperture-steps"),
    (["scan-noon", "--photons", "0"], None, 2, "--photons"),
    (["scan-noon", "--photons", "2", "--grid", "10"], None, 2, "--grid"),
    (["protocol-hom", "--sweep", "-3"], None, 2, "--sweep"),
    (["agreement-suite", "--trials", "-1"], None, 2, "--trials"),
    # files that are not JSON, JSON of the wrong type, and an output nobody can write
    (["propagate", "--state", "fock:1,vac", "--unitary", "{tmp}/junk.txt"], None, 1, "junk.txt"),
    (["entropy", "--state-file", "{tmp}/junk.txt"], None, 1, "junk.txt"),
    (["propagate", "--state", "fock:1,vac", "--unitary", "{tmp}/cfg.json"], None, 1,
     "cfg.json: document is not a serialized unitary"),
    (["compile-mask", "--mask", "custom", "--mask-file", "{u}"], None, 1, "missing key 'kind'"),
    (["scan-noon", "--photons", "2", "--grid", "64", "--out", "{tmp}/junk.txt/x.json"], None, 1,
     "junk.txt/x.json"),
    # a cut that selects every mode is refused before the input is expanded
    (["propagate", "--state", "coh:1e4,vac", "--unitary", "{u}", "--report", "entropy",
      "--subset", "1,1"], None, 1, "subset must be a proper subset of the modes"),
    # a --subset that the command would not read is refused before anything is loaded
    (["propagate", "--state", "fock:1,vac", "--unitary", "{u}", "--subset", "1,1"], None, 2,
     "--subset is read only with --report entropy"),
    (["propagate", "--state", "fock:1,vac", "--unitary", "{tmp}/junk.txt", "--report", "none",
      "--subset", "banana"], None, 2, "--subset is read only with --report entropy"),
    (["entropy", "--state-file", "{tmp}/junk.txt", "--scan", "--subset", "banana"], None, 2,
     "--subset is not read with --scan"),
    # an exact product reads entropy 0, which is not below a tolerance of 0
    (["entropy", "--state-file", "{u}", "--tolerance", "0"], None, 2, "--tolerance"),
    # grazing orders carry no flux
    (["compile-mask", "--mask", "cosine", "--u", "1,0"], None, 2, "ux^2 + uy^2 < 1"),
    # --sweep sets the angles, so a --theta it would not read is refused, before the size check
    (["protocol-hom", "--theta", "0.3", "--sweep", "4"], None, 2, "--theta and --sweep"),
    (["protocol-hom", "--sweep", "4"], {"theta": 0.3}, 2, "--theta and --sweep"),
    (["protocol-hom", "--theta", "0.3", "--sweep", "10000000000"], None, 2, "--theta and --sweep"),
    # the kernel design does not depend on the wavenumber, so there is no such flag
    (["design-response", "--input-mode", "hg:0,0", "--target-mode", "hg:1,0",
      "--wavenumber", "3.7"], None, 2, "No such option '--wavenumber'"),
    (["design-response", "--input-mode", "hg:0,0", "--target-mode", "hg:1,0"],
     {"wavenumber": 3.7}, 2, "unknown fields ['wavenumber']"),
    # a flag the --mask kind would not read is refused, before any file is loaded and
    # before the size check
    (["compile-mask", "--mask", "circular", "--radius", "2", "--grid", "1024",
      "--basis-order", "7", "--u", "0.3,0"], None, 2, "--mask circular does not read --u"),
    (["compile-mask", "--mask", "cosine", "--u", "0.6,0", "--aperture-steps", "3"], None, 2,
     "--mask cosine does not read --aperture-steps"),
    (["compile-mask", "--mask", "pinhole", "--radius", "0.5"], {"basis_order": 7}, 2,
     "--mask pinhole does not read --basis-order"),
    (["compile-mask", "--mask", "custom", "--mask-file", "{u}", "--wavenumber", "3.7"], None, 2,
     "--mask custom does not read --wavenumber"),
    (["compile-mask", "--mask", "custom", "--mask-file", "{u}"], {"radius": 2.0}, 2,
     "--mask custom does not read --radius"),
    (["compile-mask", "--mask", "circular", "--radius", "2", "--aperture-steps", "10000",
      "--extent", "3"], None, 2, "--mask circular does not read --extent"),
    # a grating's block is one normalized column, in which the wavenumber cancels
    (["compile-mask", "--mask", "cosine", "--u", "0.6,0", "--wavenumber", "3.7"], None, 2,
     "--mask cosine does not read --wavenumber"),
    (["compile-mask", "--mask", "cosine", "--u", "0.6,0"], {"wavenumber": 3.7}, 2,
     "--mask cosine does not read --wavenumber"),
    # cos(0) = 1 is a transparent screen: its two orders are the one incident direction
    (["compile-mask", "--mask", "cosine", "--u", "0,0"], None, 2, "0 < ux^2 + uy^2 < 1"),
]


@pytest.mark.parametrize("args, config, code, message", _PROBES)
def test_bad_input_exits_with_one_line(runner, tmp_path, grating, args, config, code, message):
    (tmp_path / "junk.txt").write_text("not json {")
    (tmp_path / "cfg.json").write_text(json.dumps({"photons": 2}))
    names = {"u": grating, "tmp": tmp_path, "missing": tmp_path / "missing.json"}
    args = [a.format(**names) for a in args]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "x.json")]
    if config is not None:
        for key, value in config.items():
            if isinstance(value, str):
                config[key] = value.format(**names)
        (tmp_path / "c.json").write_text(json.dumps(config))
        args += ["--config", str(tmp_path / "c.json")]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error")]
    assert len(errors) == 1 and message in errors[0], result.output
    assert _exited_cleanly(result) and "Traceback" not in result.output


def test_help_shows_defaults_and_artifacts_record_them(runner, tmp_path):
    text = " ".join(runner.invoke(main, ["compile-mask", "--help"]).output.split())
    assert "[default: 256; x>=2]" in text and "[default: 9; x>=1]" in text
    assert "Kind of screen. [required]" in text
    out = tmp_path / "hom.json"
    invoke(runner, "protocol-hom", "--out", str(out))
    config = json.loads(out.read_text())["config"]
    assert config == {"theta": np.pi / 2, "sweep": 0, "out_file": str(out), "csv_file": None}


def test_config_file_with_flag_override(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"photons": 2, "grid_n": 64, "out_file": str(tmp_path / "from_cfg.json")}))
    invoke(runner, "scan-noon", "--config", str(cfg))
    assert (tmp_path / "from_cfg.json").exists()
    # flag overrides the file
    invoke(runner, "scan-noon", "--config", str(cfg), "--out", str(tmp_path / "flag.json"))
    doc = json.loads((tmp_path / "flag.json").read_text())
    assert doc["result"]["photons"] == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"no_such_field": 1}))
    result = runner.invoke(main, ["scan-noon", "--config", str(bad), "--out", "x.json"])
    assert result.exit_code == 2


def test_output_dir_env_var(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("MASKMODES_OUTPUT_DIR", str(tmp_path / "artifacts"))
    invoke(runner, "protocol-ifm", "--out", "ifm.json")
    assert (tmp_path / "artifacts" / "ifm.json").exists()


@pytest.fixture(scope="module")
def screens(tmp_path_factory):
    """The 18-mode pinhole and the 162-mode circular screen, compiled once."""
    base, runner, paths = tmp_path_factory.mktemp("screens"), CliRunner(), {}
    for mask, radius, steps in (("pinhole", "0.5", "3"), ("circular", "2.0", "9")):
        paths[mask] = base / f"{mask}.json"
        invoke(runner, "compile-mask", "--mask", mask, "--radius", radius,
               "--aperture-steps", steps, "--out", str(paths[mask]))
    return paths


@pytest.mark.parametrize("mask, dim", [("pinhole", 18), ("circular", 162)])
@pytest.mark.parametrize("desc, separable", [("coh:2", True), ("coh:3", True), ("sq:1.5", False)])
def test_checker_answers_gaussian_inputs_at_screen_scale(runner, tmp_path, screens, mask, dim,
                                                         desc, separable):
    # most of these inputs pass MAX_TERMS in a Fock expansion; the checker never expands them
    inputs = ",".join([desc] + ["vac"] * (dim - 1))
    out = tmp_path / "v.json"
    invoke(runner, "check-separability", "--inputs", inputs, "--unitary", str(screens[mask]),
           "--subset", ",".join(["1"] + ["0"] * (dim - 1)), "--out", str(out))
    assert json.loads(out.read_text())["result"]["separable"] is separable


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_each_artifact_loads_through_its_reader_bit_exactly(runner, tmp_path, screens):
    u, state = tmp_path / "u.json", tmp_path / "state.json"
    invoke(runner, "compile-mask", "--mask", "cosine", "--u", "0.6,0.0", "--out", str(u))
    want = grating_block(CosineGrating((0.6, 0.0)))
    got = UnitaryMatrix.load(u)
    _same_bits(got.matrix, want.matrix)
    assert got.provenance == want.provenance
    # a real-valued screen, stored as float64
    lattice, dropped = aperture_output_grid(CircularAperture(0.5), (0.0, 0.0), 2 * np.pi, 0.2, 3)
    want = unitarize(plane_wave_coupling(CircularAperture(0.5), lattice, lattice, 2 * np.pi),
                     flux_faithful=True)
    got = UnitaryMatrix.load(screens["pinhole"])
    _same_bits(got.matrix, want.matrix)
    assert got.provenance == {**want.provenance, "truncated_weight": dropped}

    spec = "fock:1,coh:0.3"
    invoke(runner, "propagate", "--state", spec, "--unitary", str(u), "--report", "entropy",
           "--out", str(state))
    want = apply_unitary(build_input_state(InputStateSpec.parse(spec)), UnitaryMatrix.load(u))
    got = MultimodeFockState.load(state)
    _same_bits(got.occupations, want.occupations)
    _same_bits(got.values, want.values)

    kernel = tmp_path / "kernel.json"
    invoke(runner, "design-response", "--input-mode", "hg:0,0", "--target-mode", "hg:1,0",
           "--grid", "64", "--out", str(kernel))
    grid = Grid2D(64, 64, 14.0 / 64, 14.0 / 64)
    basis = ModeBasis([(0, 0), (1, 0)], partial(hermite_gaussian_mode, waist=1.0))
    want = inverse_design_response(sample_field((0, 0), basis, grid, k=2 * np.pi),
                                   sample_field((1, 0), basis, grid, k=2 * np.pi))
    got = read_file(kernel, ImpulseResponse.from_json)
    _same_bits(got.values, want.values)
    assert got.grid == want.grid and got.spectral_cap == want.spectral_cap
    assert got.provenance == want.provenance


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_files_are_created_with_the_mode_open_gives(runner, tmp_path, umask):
    u, csv, saved, plain = (tmp_path / name for name in ("u.json", "u.csv", "saved.json", "plain"))
    saved.write_text("an older file\n")
    old = os.umask(umask)
    try:
        invoke(runner, "compile-mask", "--mask", "cosine", "--u", "0.6,0.0", "--out", str(u),
               "--csv", str(csv))
        UnitaryMatrix.load(u).save(saved)
        plain.write_text("")
    finally:
        os.umask(old)
    assert stat.S_IMODE(plain.stat().st_mode) == 0o666 & ~umask
    for path in (u, csv, saved):
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "saved.json", "u.csv", "u.json"]

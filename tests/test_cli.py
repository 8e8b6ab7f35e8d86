import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from maskmodes.cli import main
from maskmodes.diffraction import (
    CircularAperture,
    UnitaryMatrix,
    aperture_output_grid,
    plane_wave_coupling,
    unitarize,
)
from maskmodes.fock import MultimodeFockState


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
    assert surf.read_text().splitlines()[1] == "theta,phi,fidelity"


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


@pytest.mark.parametrize("order, message", [(171, "boundary energy"), (400, "not finite")])
def test_design_response_high_order_exits_1(runner, tmp_path, order, message):
    # order 171 overflows a float factorial; order 400 overflows the Hermite polynomial
    result = invoke(
        runner,
        "design-response", "--input-mode", f"hg:{order},0", "--target-mode", "hg:0,0",
        "--out", str(tmp_path / "kernel.json"), expect=1,
    )
    assert message in result.output
    assert "Traceback" not in result.output


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
    for bad in ("NaN", "Infinity"):
        path = tmp_path / "state.json"
        path.write_text('{"type": "state", "schema_version": 1, "mode_count": 2, "amplitudes": '
                        f'[[[0, 1], 0.6, 0.0], [[1, 0], {bad}, 0.0]]}}')
        result = runner.invoke(main, ["entropy", "--state-file", str(path),
                                      "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 1, result.output
        assert "non-finite amplitude" in result.output
        assert _exited_cleanly(result)


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
def haar_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("haar")
    rng = np.random.default_rng(21)
    paths = {}
    for m in (1, 2, 3):
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        u, _, vh = np.linalg.svd(g)
        paths[m] = base / f"u{m}.json"
        UnitaryMatrix(u @ vh).save(paths[m])
    return base, paths


@settings(max_examples=60, derandomize=True, deadline=None)
@given(descriptors=st.lists(_DESCRIPTORS, min_size=1, max_size=3), mismatch=st.booleans())
def test_propagate_never_leaks_an_exception(haar_files, descriptors, mismatch):
    base, paths = haar_files
    dim = len(descriptors) % 3 + 1 if mismatch else len(descriptors)
    report = ["--report", "entropy"] if dim > 1 else []
    result = CliRunner().invoke(main, ["propagate", "--state", ",".join(descriptors),
                                       "--unitary", str(paths[dim]), *report,
                                       "--out", str(base / "out.json")])
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
    assert all(sum(t) == 1 for t, _, _ in doc["result"]["state"]["amplitudes"])
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
    assert doc["result"]["matrix"] == unit.to_json()["matrix"]


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

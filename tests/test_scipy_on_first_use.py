"""No command loads scipy, and the ports of its special functions keep their bits.

The package evaluates ``j1``, ``gammaln``, ``xlogy``, ``eval_hermite`` and
``eval_genlaguerre`` through the numpy ports of ``maskmodes._special``; scipy
stays the tests' oracle.  The start-up guard runs in a fresh interpreter,
because this test process has already imported scipy.  The bit-identity
tests evaluate each formula directly with ``scipy.special`` and compare the
bits, so a port that rounds differently fails here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_hermite, gammaln, j1, xlogy

import maskmodes
from maskmodes.diffraction import CustomSampled, jinc, mask_to_json
from maskmodes.fock import _gaussian_amplitudes
from maskmodes.modes import Grid2D, _hg_1d, laguerre_gaussian_basis
from maskmodes.protocols import noon_overlap_amplitudes

# Runs each command of argv[2:] (JSON lists of CLI arguments) in turn and
# prints, after the import, after each command and after importing
# scipy.special itself (the probe's positive control), whether scipy is loaded.
_CHILD = """
import json, sys
import numpy as np
import maskmodes, maskmodes.cli
from maskmodes.diffraction import UnitaryMatrix

def loaded():
    return any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)

seen = [loaded()]
rng = np.random.default_rng(3)
q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
UnitaryMatrix(q).save(sys.argv[1])
for args in sys.argv[2:]:
    maskmodes.cli.main(json.loads(args), standalone_mode=False)
    seen.append(loaded())
import scipy.special
seen.append(loaded())
print(json.dumps(seen))
"""


def _scipy_loaded_after(tmp_path, *commands):
    src = os.path.dirname(os.path.dirname(maskmodes.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "u.json"), *map(json.dumps, commands)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_fock_only_commands_start_without_scipy(tmp_path):
    u, s = str(tmp_path / "u.json"), str(tmp_path / "s.json")
    commands = [
        ["propagate", "--state", "fock:2,vac,fock:1", "--unitary", u, "--out", s, "--report", "entropy"],
        ["entropy", "--state-file", s, "--scan", "--out", str(tmp_path / "scan.json")],
        ["check-separability", "--inputs", "fock:2,vac,fock:1", "--unitary", u,
         "--subset", "1,0,0", "--out", str(tmp_path / "verdict.json")],
        # the checker reads Gaussian inputs without expanding them
        ["check-separability", "--inputs", "sq:0.3,vac,sq:0.3", "--unitary", u,
         "--subset", "1,0,0", "--out", str(tmp_path / "sq.json")],
        ["check-separability", "--inputs", "coh:2,vac,vac", "--unitary", u,
         "--subset", "0,1,0", "--out", str(tmp_path / "coh.json")],
    ]
    seen = _scipy_loaded_after(tmp_path, *commands)
    assert seen == [False] * (len(commands) + 1) + [True]


def test_no_command_loads_scipy(tmp_path):
    u, s, mask = str(tmp_path / "u.json"), str(tmp_path / "s.json"), tmp_path / "mask.json"
    grid = Grid2D(16, 16, 14.0 / 16, 14.0 / 16)
    x, y = grid.meshgrid()
    mask.write_text(json.dumps(mask_to_json(CustomSampled(grid, np.exp(-(x * x + y * y) / 8.0)))))
    aperture = ["--aperture-steps", "3", "--aperture-extent", "0.15"]
    commands = [
        ["compile-mask", "--mask", "cosine", "--u", "0.6,0", "--out", str(tmp_path / "cos.json")],
        ["compile-mask", "--mask", "circular", "--radius", "2.0", *aperture,
         "--out", str(tmp_path / "circ.json")],
        ["compile-mask", "--mask", "pinhole", "--radius", "0.5", *aperture,
         "--out", str(tmp_path / "pin.json")],
        ["compile-mask", "--mask", "custom", "--mask-file", str(mask), "--grid", "16",
         "--out", str(tmp_path / "custom.json")],
        ["propagate", "--state", "coh:0.5,vac,fock:1", "--unitary", u, "--out", s],
        ["propagate", "--state", "sq:0.3,vac,vac", "--unitary", u,
         "--out", str(tmp_path / "sq.json")],
        ["agreement-suite", "--trials", "6", "--seed", "13", "--out", str(tmp_path / "agree.json")],
        ["scan-noon", "--photons", "6", "--grid", "64", "--out", str(tmp_path / "noon.json")],
        ["protocol-hom", "--out", str(tmp_path / "hom.json")],
        ["design-response", "--input-mode", "hg:0,0", "--target-mode", "hg:1,0", "--grid", "32",
         "--out", str(tmp_path / "kernel.json")],
        ["entropy", "--state-file", s, "--scan", "--out", str(tmp_path / "scan.json")],
        ["check-separability", "--inputs", "coh:0.5,vac,sq:0.3", "--unitary", u,
         "--subset", "1,0,0", "--out", str(tmp_path / "verdict.json")],
    ]
    seen = _scipy_loaded_after(tmp_path, *commands)
    assert seen == [False] * (len(commands) + 1) + [True]


def test_no_module_imports_scipy():
    package = Path(maskmodes.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], (path.name, names)


def _maskmodes_imports(name):
    """``(module, names)`` of each import in ``maskmodes/<name>`` from the package
    itself, the module given relative to the package (``""`` for the package)."""
    path = Path(maskmodes.__file__).parent / name
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "maskmodes":
                    yield alias.name.partition(".")[2], []
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                yield module, [alias.name for alias in node.names]
            elif module.split(".")[0] == "maskmodes":
                yield module.partition(".")[2], [alias.name for alias in node.names]


def test_protocols_and_cli_keep_to_the_public_boundary():
    # the demonstrations are closed forms: none reaches into the Fock engine
    for module, names in _maskmodes_imports("protocols.py"):
        assert module != "fock" and not (module == "" and "fock" in names), (module, names)
    # the command line uses what the modules export, not their private helpers
    for module, names in _maskmodes_imports("cli.py"):
        private = [n for n in names if n.startswith("_") and not n.endswith("__")]
        assert not private, (module, private)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_jinc_is_j1_over_x_bit_for_bit():
    x = np.array([0.3, -1.1, 2.0, 7.7, 31.4, 1e-3])
    _same_bits(jinc(x), j1(x) / x)


@pytest.mark.parametrize("order", range(5))
def test_hermite_gaussian_factor_is_bit_identical(order):
    coords, waist = np.linspace(-3.0, 3.0, 17), 1.3
    xi = np.sqrt(2.0) * coords / waist
    norm = np.exp(0.25 * np.log(2.0 / np.pi)
                  - 0.5 * (order * np.log(2.0) + gammaln(order + 1) + np.log(waist)))
    _same_bits(_hg_1d(order, coords, waist), norm * eval_hermite(order, xi) * np.exp(-(coords**2) / waist**2))


def test_laguerre_gaussian_mode_is_bit_identical():
    grid, waist, (p, l) = Grid2D(16, 16, 0.4, 0.4), 1.5, (2, -1)
    X, Y = grid.meshgrid()
    r2 = (X**2 + Y**2) / waist**2
    norm = np.exp(0.5 * (np.log(2.0 / np.pi) + gammaln(p + 1) - gammaln(p + abs(l) + 1))) / waist
    radial = (np.sqrt(2.0 * r2)) ** abs(l) * eval_genlaguerre(p, abs(l), 2.0 * r2)
    want = norm * radial * np.exp(-r2) * np.exp(1j * l * np.arctan2(Y, X))
    _same_bits(laguerre_gaussian_basis([(p, l)], waist).raw_values((p, l), grid), want)


def test_gaussian_amplitudes_are_bit_identical():
    alpha = np.complex128(0.8)
    got = _gaussian_amplitudes(alpha, 0.0)
    n = np.arange(len(got))
    mag = np.exp(-abs(alpha) ** 2 / 2 + xlogy(n, abs(alpha)) - 0.5 * gammaln(n + 1))
    _same_bits(got, mag * np.exp(1j * np.angle(alpha) * n))

    t = np.tanh(0.3)
    got = _gaussian_amplitudes(0j, 0.3)
    m, odd = np.divmod(np.arange(len(got)), 2)
    log_mag = (xlogy(m, t) + 0.5 * gammaln(2 * m + 1) - gammaln(m + 1)
               - m * np.log(2.0) - 0.5 * np.log(np.cosh(0.3)))
    _same_bits(got, np.where(odd, 0.0, np.sign(t) ** m * np.exp(log_mag)).astype(complex))


def test_noon_overlap_amplitudes_are_bit_identical():
    m, n, theta = 7, 4, 1.1
    c, s = abs(np.cos(theta / 2.0)), abs(np.sin(theta / 2.0))
    log_pref = 0.5 * (gammaln(m + n + 1.0) - gammaln(m + 1.0) - gammaln(n + 1.0))
    got = noon_overlap_amplitudes(m, n, theta)
    _same_bits(got[0], np.exp(log_pref + xlogy(m, c) + xlogy(n, s)))
    _same_bits(got[1], np.exp(log_pref + xlogy(n, c) + xlogy(m, s)))

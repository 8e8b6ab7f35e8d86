"""``scipy.special`` loads on first use, and its call sites keep their bits.

The package imports ``scipy.special`` inside the functions that call it, so
Fock-only commands, and the checker on any input, start without it.  The start-up guard runs in a fresh
interpreter, because this test process has already imported scipy.  The
bit-identity tests evaluate each formula directly with ``scipy.special`` and
compare the bits, so a later swap to a ``math`` or numpy equivalent (which
rounds differently) fails here.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, eval_hermite, gammaln, j1, xlogy

import maskmodes
from maskmodes.diffraction import jinc
from maskmodes.fock import _gaussian_amplitudes, noon_overlap_amplitudes
from maskmodes.modes import Grid2D, _hg_1d, laguerre_gaussian_basis

# Runs each command of argv[2:] (JSON lists of CLI arguments) in turn and
# prints, after the import and after each command, whether scipy is loaded.
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
    seen = _scipy_loaded_after(
        tmp_path,
        ["propagate", "--state", "fock:2,vac,fock:1", "--unitary", u, "--out", s, "--report", "entropy"],
        ["entropy", "--state-file", s, "--scan", "--out", str(tmp_path / "scan.json")],
        ["check-separability", "--inputs", "fock:2,vac,fock:1", "--unitary", u,
         "--subset", "1,0,0", "--out", str(tmp_path / "verdict.json")],
        # the checker reads Gaussian inputs without expanding them
        ["check-separability", "--inputs", "sq:0.3,vac,sq:0.3", "--unitary", u,
         "--subset", "1,0,0", "--out", str(tmp_path / "sq.json")],
        ["check-separability", "--inputs", "coh:2,vac,vac", "--unitary", u,
         "--subset", "0,1,0", "--out", str(tmp_path / "coh.json")],
        # positive control: a coherent input needs gammaln and xlogy
        ["propagate", "--state", "coh:0.5,vac,vac", "--unitary", u, "--out", str(tmp_path / "c.json")],
    )
    assert seen == [False, False, False, False, False, False, True]


def test_compiling_a_circular_screen_loads_scipy(tmp_path):
    seen = _scipy_loaded_after(
        tmp_path,
        ["compile-mask", "--mask", "circular", "--radius", "2.0", "--aperture-steps", "3",
         "--aperture-extent", "0.15", "--out", str(tmp_path / "ap.json")],
    )
    assert seen == [False, True]


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

"""Command-line entry point for reproducible runs.

Every command accepts ``--config FILE`` (a JSON object of parameter
defaults; explicit flags override the file) and writes artifacts atomically
(temp file + rename).  Artifacts embed the tool version, a hash of the
resolved configuration and the root seed, and contain no timestamps, so a
repeated run with the same configuration is byte-identical.  The
``MASKMODES_OUTPUT_DIR`` environment variable supplies the default output
directory for relative paths.

Exit codes: 0 success, 1 numerical failure (the module error is surfaced
verbatim), 2 configuration or usage errors.
"""

import hashlib
import json
import os
import tempfile

import click
import numpy as np

from . import __version__
from ._jsonio import json_chunks
from .agreement import run_agreement_suite
from .diffraction import (
    CircularAperture,
    CosineGrating,
    Pinhole,
    UnitaryMatrix,
    aperture_output_grid,
    design_fidelity,
    grating_block,
    inverse_design_response,
    mask_from_json,
    overlap_unitary,
    plane_wave_coupling,
    unitarize,
)
from .entanglement import Bipartition, entanglement_report, full_separability_scan, scan_to_json
from .errors import MaskModesError
from .fock import InputStateSpec, MultimodeFockState, apply_unitary, build_input_state
from .modes import Grid2D, hermite_gaussian_basis, sample_field
from .protocols import hom_coincidence, ifm_project, noon_fidelity_scan, noon_surface
from .separability import BargmannInput, check_no_entanglement


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(resolved):
    return hashlib.sha256(_canonical(resolved).encode()).hexdigest()[:16]


def _out_path(path):
    base = os.environ.get("MASKMODES_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _atomic_write(path, chunks):
    """Write the strings of ``chunks`` to a temp file, then rename it onto ``path``."""
    path = _out_path(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".maskmodes-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_artifact(path, command, resolved, result, seed=None):
    doc = {
        "schema_version": 1,
        "tool": {"name": "maskmodes", "version": __version__},
        "command": command,
        "config": resolved,
        "config_hash": _config_hash(resolved),
        "seed": seed,
        "result": result,
    }
    _atomic_write(path, json_chunks(doc))


def _write_csv(path, header, rows, resolved, seed=None):
    lines = [
        f"# maskmodes {__version__} config={_config_hash(resolved)} seed={seed}",
        header,
    ]
    lines.extend(rows)
    _atomic_write(path, ["\n".join(lines) + "\n"])


def _resolve(config_file, **flags):
    """Merge config-file defaults with explicit flags (flags win)."""
    cfg = {}
    if config_file:
        try:
            with open(config_file) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise click.UsageError(f"config file {config_file}: {e}")
        if not isinstance(cfg, dict):
            raise click.UsageError(f"config file {config_file}: expected a JSON object")
        unknown = set(cfg) - set(flags)
        if unknown:
            raise click.UsageError(
                f"config file {config_file}: unknown fields {sorted(unknown)}"
            )
    out = {}
    for key, val in flags.items():
        out[key] = cfg.get(key) if val is None else val
    return out


def _require(resolved, *keys):
    for k in keys:
        if resolved[k] is None:
            raise click.UsageError(f"missing required parameter: {k.replace('_', '-')}")


def _parse_pair(text, what):
    try:
        a, b = (float(p) for p in text.split(","))
        return a, b
    except ValueError:
        raise click.UsageError(f"{what} must be two comma-separated numbers, got {text!r}")


def _parse_subset_mask(text, n_modes):
    try:
        mask = [int(p) for p in text.split(",")]
    except ValueError:
        raise click.UsageError(f"subset mask must be comma-separated 0/1, got {text!r}")
    if len(mask) != n_modes or any(m not in (0, 1) for m in mask):
        raise click.UsageError(
            f"subset mask needs {n_modes} entries of 0/1, got {text!r}"
        )
    subset = tuple(i for i, m in enumerate(mask) if m)
    if not subset:
        raise click.UsageError("subset mask selects no modes")
    return subset


def _parse_inputs(text):
    try:
        return InputStateSpec.parse(text)
    except ValueError as e:
        raise click.UsageError(f"input descriptors {text!r}: {e}")


def _run(fn):
    try:
        fn()
    except MaskModesError as e:
        raise click.ClickException(str(e))


@click.group()
@click.version_option(version=__version__, prog_name="maskmodes")
def main():
    """Diffractive screens as mode-coupling networks, with entanglement analysis."""


@main.command("compile-mask")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--mask", type=click.Choice(["cosine", "circular", "pinhole", "custom"]), default=None)
@click.option("--u", "u_text", default=None, help="Grating direction ux,uy (unit transverse part).")
@click.option("--radius", type=float, default=None, help="Aperture radius (length units).")
@click.option("--wavenumber", type=float, default=None, help="Wavenumber k (default 2*pi).")
@click.option("--grid", "grid_n", type=int, default=None, help="Samples per axis for overlap compilation (default 256).")
@click.option("--extent", type=float, default=None, help="Grid physical extent (default 14).")
@click.option("--waist", type=float, default=None, help="Gaussian basis waist (default 1).")
@click.option("--basis-order", type=int, default=None, help="Max Hermite-Gaussian order per axis (default 1).")
@click.option("--mask-file", type=click.Path(exists=True), default=None, help="Custom mask JSON.")
@click.option("--aperture-steps", type=int, default=None, help="Direction lattice points per axis (default 9).")
@click.option("--aperture-extent", type=float, default=None, help="Direction lattice half-extent (default 0.2).")
@click.option("--out", "out_file", default=None, help="Unitary JSON artifact.")
@click.option("--csv", "csv_file", default=None, help="Also export the matrix as CSV.")
def compile_mask(config_file, **flags):
    """Compile a mask into a unitary mode-coupling network."""

    def go():
        r = _resolve(config_file, **flags)
        _require(r, "mask", "out_file")
        k = r["wavenumber"] if r["wavenumber"] is not None else 2 * np.pi
        kind = r["mask"]
        if kind == "cosine":
            _require(r, "u_text")
            ux, uy = _parse_pair(r["u_text"], "--u")
            block = grating_block(CosineGrating((ux, uy)), k=k)
            unit = block
        elif kind in ("circular", "pinhole"):
            _require(r, "radius")
            mask = CircularAperture(r["radius"]) if kind == "circular" else Pinhole(r["radius"])
            steps = r["aperture_steps"] if r["aperture_steps"] is not None else 9
            half = r["aperture_extent"] if r["aperture_extent"] is not None else 0.2
            lattice, dropped = aperture_output_grid(mask, (0.0, 0.0), k, half, steps)
            coupling = plane_wave_coupling(mask, lattice, lattice, k)
            unit = unitarize(coupling, flux_faithful=True)
            unit.provenance["truncated_weight"] = dropped
        else:
            _require(r, "mask_file")
            with open(r["mask_file"]) as fh:
                mask = mask_from_json(json.load(fh))
            n = r["grid_n"] if r["grid_n"] is not None else 256
            extent = r["extent"] if r["extent"] is not None else 14.0
            waist = r["waist"] if r["waist"] is not None else 1.0
            order = r["basis_order"] if r["basis_order"] is not None else 1
            grid = Grid2D(n, n, extent / n, extent / n)
            basis = hermite_gaussian_basis(order, waist)
            coupling = overlap_unitary(mask, basis, basis, grid, k=k)
            unit = unitarize(coupling, flux_faithful=True)
        _write_artifact(r["out_file"], "compile-mask", r, unit._json_doc())
        if r["csv_file"]:
            rows = [
                f"{i},{j},{float(v.real)!r},{float(v.imag)!r}"
                for i, row in enumerate(unit.matrix)
                for j, v in enumerate(row)
            ]
            _write_csv(r["csv_file"], "row,col,re,im", rows, r)
        click.echo(
            f"wrote {r['out_file']} (dim {unit.dim}, unitarity residual {unit.residual:.2e})"
        )

    _run(go)


@main.command("design-response")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--input-mode", default=None, help="e.g. hg:0,0")
@click.option("--target-mode", default=None, help="e.g. hg:1,0")
@click.option("--grid", "grid_n", type=int, default=None)
@click.option("--extent", type=float, default=None)
@click.option("--waist", type=float, default=None)
@click.option("--wavenumber", type=float, default=None)
@click.option("--eps-rel", type=float, default=None, help="Tikhonov regularization (default 1e-6).")
@click.option("--out", "out_file", default=None)
def design_response(config_file, **flags):
    """Design the impulse-response kernel mapping one mode onto another."""

    def parse_mode(text):
        kind, _, arg = text.partition(":")
        if kind != "hg":
            raise click.UsageError(f"only hg:M,N modes are supported, got {text!r}")
        m, n = (int(p) for p in arg.split(","))
        return m, n

    def go():
        r = _resolve(config_file, **flags)
        _require(r, "input_mode", "target_mode", "out_file")
        n = r["grid_n"] if r["grid_n"] is not None else 256
        extent = r["extent"] if r["extent"] is not None else 14.0
        waist = r["waist"] if r["waist"] is not None else 1.0
        k = r["wavenumber"] if r["wavenumber"] is not None else 2 * np.pi
        eps = r["eps_rel"] if r["eps_rel"] is not None else 1e-6
        grid = Grid2D(n, n, extent / n, extent / n)
        order = max(*parse_mode(r["input_mode"]), *parse_mode(r["target_mode"]))
        basis = hermite_gaussian_basis(order, waist)
        e_in = sample_field(parse_mode(r["input_mode"]), basis, grid, k=k)
        e_out = sample_field(parse_mode(r["target_mode"]), basis, grid, k=k)
        kernel = inverse_design_response(e_in, e_out, eps_rel=eps)
        fid = design_fidelity(kernel, e_in, e_out)
        doc = kernel.to_json()
        doc["fidelity"] = fid
        _write_artifact(r["out_file"], "design-response", r, doc)
        click.echo(f"wrote {r['out_file']} (round-trip fidelity {fid:.6f})")

    _run(go)


@main.command("propagate")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--state", "state_text", default=None, help='Input spec, e.g. "fock:2,vac".')
@click.option("--unitary", "unitary_file", type=click.Path(exists=True), default=None)
@click.option("--out", "out_file", default=None)
@click.option("--report", type=click.Choice(["entropy", "none"]), default=None)
@click.option("--subset", "subset_text", default=None, help="Bipartition mask, e.g. 1,0.")
def propagate(config_file, **flags):
    """Propagate an input state through a compiled unitary."""

    def go():
        r = _resolve(config_file, **flags)
        _require(r, "state_text", "unitary_file", "out_file")
        unit = UnitaryMatrix.load(r["unitary_file"])
        spec = _parse_inputs(r["state_text"])
        out = apply_unitary(build_input_state(spec), unit)
        result = {"state": out.to_json()}
        if (r["report"] or "none") == "entropy":
            subset = (
                _parse_subset_mask(r["subset_text"], out.mode_count)
                if r["subset_text"]
                else (0,)
            )
            part = Bipartition(subset, out.mode_count)
            result["entropy"] = entanglement_report(out, part).to_json()
        _write_artifact(r["out_file"], "propagate", r, result)
        msg = f"wrote {r['out_file']} ({len(out.values)} amplitudes)"
        if "entropy" in result:
            msg += f", entropy {result['entropy']['entropy_bits']:.6f} bits"
        click.echo(msg)

    _run(go)


@main.command("entropy")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--state-file", type=click.Path(exists=True), default=None, help="Serialized state JSON.")
@click.option("--subset", "subset_text", default=None, help="Bipartition mask, e.g. 1,0.")
@click.option("--scan/--no-scan", default=None, help="Report every bipartition.")
@click.option("--tolerance", type=float, default=None)
@click.option("--out", "out_file", default=None)
@click.option("--csv", "csv_file", default=None)
def entropy_cmd(config_file, **flags):
    """Entanglement report(s) for a stored state."""

    def go():
        r = _resolve(config_file, **flags)
        _require(r, "state_file", "out_file")
        with open(r["state_file"]) as fh:
            doc = json.load(fh)
        state = MultimodeFockState.from_json(doc.get("result", {}).get("state", doc))
        tol = r["tolerance"] if r["tolerance"] is not None else 1e-6
        if r["scan"]:
            scan = full_separability_scan(state, tol=tol)
            result = scan_to_json(scan)
            rows = [
                ",".join(
                    [
                        "".join(str(b) for b in rep.bipartition.mask()),
                        repr(rep.entropy_bits),
                        str(int(rep.separable)),
                    ]
                    + [repr(float(s)) for s in rep.schmidt_coefficients[:4]]
                )
                for _, rep in scan
            ]
            header = "mask,entropy_bits,separable,s1,s2,s3,s4"
        else:
            subset = (
                _parse_subset_mask(r["subset_text"], state.mode_count)
                if r["subset_text"]
                else (0,)
            )
            rep = entanglement_report(state, Bipartition(subset, state.mode_count), tol=tol)
            result = rep.to_json()
            rows = [
                ",".join(
                    ["".join(str(b) for b in rep.bipartition.mask()),
                     repr(rep.entropy_bits), str(int(rep.separable))]
                )
            ]
            header = "mask,entropy_bits,separable"
        _write_artifact(r["out_file"], "entropy", r, result)
        if r["csv_file"]:
            _write_csv(r["csv_file"], header, rows, r)
        click.echo(f"wrote {r['out_file']}")

    _run(go)


@main.command("check-separability")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--inputs", "inputs_text", default=None, help='Per-mode descriptors, e.g. "sq:0.3,sq:0.3".')
@click.option("--unitary", "unitary_file", type=click.Path(exists=True), default=None)
@click.option("--subset", "subset_text", default=None, help="Output subset mask, e.g. 1,1.")
@click.option("--out", "out_file", default=None)
def check_separability(config_file, **flags):
    """Symbolic no-entanglement verdict for a separable input and network."""

    def go():
        r = _resolve(config_file, **flags)
        _require(r, "inputs_text", "unitary_file", "subset_text", "out_file")
        unit = UnitaryMatrix.load(r["unitary_file"])
        spec = _parse_inputs(r["inputs_text"])
        subset = _parse_subset_mask(r["subset_text"], unit.dim)
        verdict = check_no_entanglement(BargmannInput.from_input_spec(spec), unit, subset)
        _write_artifact(r["out_file"], "check-separability", r, verdict.to_json())
        click.echo(
            f"wrote {r['out_file']} (separable: {verdict.separable})"
        )

    _run(go)


@main.command("protocol-ifm")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--eta", type=float, default=None, help="Absorption efficiency in (0, 1].")
@click.option("--theta", type=float, default=None, help="Splitter angle (default pi/2, balanced).")
@click.option("--phi", type=float, default=None)
@click.option("--out", "out_file", default=None)
def protocol_ifm(config_file, **flags):
    """Null-detection Bell projection behind a two-port screen."""

    def go():
        r = _resolve(config_file, **flags)
        _require(r, "out_file")
        eta = r["eta"] if r["eta"] is not None else 1.0
        if r["theta"] is None and r["phi"] is None:
            block = UnitaryMatrix.balanced_splitter()
        else:
            block = UnitaryMatrix.su2(
                r["theta"] if r["theta"] is not None else np.pi / 2,
                r["phi"] if r["phi"] is not None else 0.0,
            )
        atoms, p_null = ifm_project(eta, block)
        result = {
            "atoms": atoms.to_json(),
            "null_probability": p_null,
            "bell_fidelity": atoms.bell_fidelity(),
        }
        _write_artifact(r["out_file"], "protocol-ifm", r, result)
        click.echo(
            f"wrote {r['out_file']} (null probability {p_null:.6f}, "
            f"Bell fidelity {result['bell_fidelity']:.6f})"
        )

    _run(go)


@main.command("protocol-hom")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--theta", type=float, default=None, help="Splitter angle (default pi/2).")
@click.option("--sweep", type=int, default=None, help="Sweep this many angles over [0, pi].")
@click.option("--out", "out_file", default=None)
@click.option("--csv", "csv_file", default=None)
def protocol_hom(config_file, **flags):
    """Hong-Ou-Mandel coincidence probability for |1,1> input."""

    def go():
        r = _resolve(config_file, **flags)
        _require(r, "out_file")
        if r["sweep"]:
            thetas = np.linspace(0.0, np.pi, r["sweep"])
            probs = [hom_coincidence(UnitaryMatrix.su2(t)) for t in thetas]
            result = {
                "sweep": [{"theta": float(t), "coincidence": p} for t, p in zip(thetas, probs)]
            }
            rows = [f"{float(t)!r},{float(p)!r}" for t, p in zip(thetas, probs)]
            if r["csv_file"]:
                _write_csv(r["csv_file"], "theta,coincidence", rows, r)
        else:
            theta = r["theta"] if r["theta"] is not None else np.pi / 2
            result = {
                "theta": theta,
                "coincidence": hom_coincidence(UnitaryMatrix.su2(theta)),
            }
        _write_artifact(r["out_file"], "protocol-hom", r, result)
        click.echo(f"wrote {r['out_file']}")

    _run(go)


@main.command("scan-noon")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--photons", type=int, default=None)
@click.option("--grid", "grid_n", type=int, default=None, help="Steps per axis (default 256).")
@click.option("--out", "out_file", default=None)
@click.option("--surface", "surface_file", default=None, help="CSV surface (theta, phi, fidelity).")
def scan_noon(config_file, **flags):
    """Best NOON fidelity reachable from separable two-mode Fock inputs."""

    def go():
        r = _resolve(config_file, **flags)
        _require(r, "photons", "out_file")
        g = r["grid_n"] if r["grid_n"] is not None else 256
        res = noon_fidelity_scan(r["photons"], grid=(g, g))
        _write_artifact(r["out_file"], "scan-noon", r, res.to_json())
        if r["surface_file"]:
            thetas, phis, vals = noon_surface(r["photons"], grid=(g, g))
            rows = [
                f"{float(t)!r},{float(p)!r},{float(vals[i, j])!r}"
                for i, t in enumerate(thetas)
                for j, p in enumerate(phis)
            ]
            _write_csv(r["surface_file"], "theta,phi,fidelity", rows, r)
        click.echo(
            f"wrote {r['out_file']} (best fidelity {res.best_fidelity:.9f} "
            f"at split {res.best_split})"
        )

    _run(go)


@main.command("agreement-suite")
@click.option("--config", "config_file", type=click.Path(exists=True), default=None)
@click.option("--trials", type=int, default=None, help="Number of randomized trials (default 100).")
@click.option("--seed", type=int, default=None, help="Root seed (default 7).")
@click.option("--out", "out_file", default=None)
def agreement_suite(config_file, **flags):
    """Cross-validate the separability checker against both oracles."""

    def go():
        r = _resolve(config_file, **flags)
        _require(r, "out_file")
        trials = r["trials"] if r["trials"] is not None else 100
        seed = r["seed"] if r["seed"] is not None else 7
        res = run_agreement_suite(n_trials=trials, seed=seed)
        _write_artifact(r["out_file"], "agreement-suite", r, res, seed=seed)
        click.echo(
            f"wrote {r['out_file']} (agreement {res['agreed']}/{res['n_trials']})"
        )
        if not res["all_agree"]:
            raise click.ClickException("checker-oracle disagreement detected")

    _run(go)


if __name__ == "__main__":
    main()

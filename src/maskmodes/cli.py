"""Command-line entry point for reproducible runs.

Every parameter is a click option that declares its type, range and
default; ``--help`` shows the defaults.  ``--config FILE`` names a JSON
object keyed by parameter name (``grid_n``, ``state_text``, ...).  Its
values become click's default map, so they pass the same conversion, range
and file checks as the flags, and an explicit flag overrides them.

Artifacts are written atomically (temp file + rename).  They embed the tool
version, the resolved configuration (every parameter, defaults included),
its hash and the root seed, and contain no timestamps, so a repeated run
with the same configuration is byte-identical.  The ``MASKMODES_OUTPUT_DIR``
environment variable supplies the default output directory for relative
paths.

Exit codes: 0 success, 1 numerical failure, malformed input document or
failed write (the message is shown verbatim), 2 configuration or usage
errors.
"""

import hashlib
import json
import math
import os
from functools import partial

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from ._jsonio import read_file, text_pieces, write_file
from .agreement import run_agreement_suite
from .diffraction import (
    CircularAperture,
    CosineGrating,
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
from .entanglement import (
    DEFAULT_TOL_TRUNCATED,
    Bipartition,
    entanglement_report,
    full_separability_scan,
    scan_to_json,
)
from .errors import CompileTooLarge, MaskModesError
from .fock import InputStateSpec, MultimodeFockState, apply_unitary, build_input_state
from .modes import Grid2D, ModeBasis, hermite_gaussian_basis, hermite_gaussian_mode, sample_field
from .protocols import hom_coincidence, ifm_project, noon_scan
from .separability import check_no_entanglement


#: Most bytes the largest arrays of a command may take: the sampled basis
#: fields of a custom mask, the dilated unitary of an aperture, the records
#: of a HOM sweep or the fidelity values of a NOON scan.  Larger requests
#: exit 1 before anything is allocated.
MAX_COMPILE_BYTES = 1 << 28

#: Bytes one ``protocol-hom --sweep`` angle holds: its array entries, its
#: record and its JSON and CSV text (about 950 measured).
_SWEEP_ANGLE_BYTES = 1024
#: Bytes one entry of the ``scan-noon`` fidelity table takes while the table
#: is built: the broadcast holds it and three working arrays of its shape at
#: once (a peak of 4.0 tables measured).
_NOON_VALUE_BYTES = 32
#: Bytes one row of the ``scan-noon --surface`` CSV holds: its angle, its
#: fidelity and their text (about 180 measured, on top of the fidelity table).
_SURFACE_POINT_BYTES = 256
#: The k of every compile, so lengths are in wavelengths.  An aperture's
#: network depends on k and R only through kR: --radius alone reaches it.
_K = 2 * np.pi


def _config_hash(resolved):
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _atomic_write(path, pieces):
    """Write the strings ``pieces`` to ``path``, under ``MASKMODES_OUTPUT_DIR`` if relative."""
    base = os.environ.get("MASKMODES_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        write_file(path, pieces)
    except OSError as e:
        raise click.FileError(path, hint=e.strerror) from e


def _write_artifact(path, result, seed=None):
    """Write the current command's artifact: its resolved parameters and ``result``."""
    ctx = click.get_current_context()
    doc = {
        "schema_version": 1,
        "tool": {"name": "maskmodes", "version": __version__},
        "command": ctx.command.name,
        "config": ctx.params,
        "config_hash": _config_hash(ctx.params),
        "seed": seed,
        "result": result,
    }
    _atomic_write(path, text_pieces(doc))


def _write_csv(path, header, rows):
    config = _config_hash(click.get_current_context().params)
    lines = [f"# maskmodes {__version__} config={config} seed=None", header]
    lines.extend(rows)
    _atomic_write(path, ["\n".join(lines) + "\n"])


# --------------------------------------------------------------------------
# Parameter types and checks


class _Float(click.FloatRange):
    """A float range that also refuses nan, inf and integers beyond float range."""

    def convert(self, value, param, ctx):
        try:
            rv = super().convert(value, param, ctx)
        except OverflowError:
            rv = math.inf
        if not math.isfinite(rv):
            self.fail(f"{value!r} is not a finite number.", param, ctx)
        return rv

    def _describe_range(self):
        # the help text of click's range, which reads "x<=None" for an unbounded one
        if self.min is None and self.max is None:
            return "finite"
        return super()._describe_range()


_POSITIVE = _Float(min=0, min_open=True)
_IN_FILE = click.Path(exists=True, dir_okay=False)


def _power_of_two(ctx, param, n):
    if n & (n - 1):
        raise click.BadParameter(f"{n} is not a power of two.", ctx, param)
    return n


def _direction(ctx, param, text):
    """``--u ux,uy`` as a pair with ``0 < ux^2 + uy^2 < 1``: two distinct orders leave the screen."""
    if text is None:
        return None
    try:
        ux, uy = (float(p) for p in text.split(","))
    except ValueError:
        raise click.BadParameter(f"expected two comma-separated numbers, got {text!r}.",
                                 ctx, param)
    if not 0.0 < ux * ux + uy * uy < 1.0:
        raise click.BadParameter(f"need 0 < ux^2 + uy^2 < 1, got {text!r}.", ctx, param)
    return ux, uy


def _hg_label(ctx, param, text):
    """``hg:M,N`` as the Hermite-Gaussian label ``(M, N)``."""
    kind, _, arg = text.partition(":")
    try:
        m, n = (int(p) for p in arg.split(","))
    except ValueError:
        kind = None
    if kind != "hg" or m < 0 or n < 0:
        raise click.BadParameter(f"expected hg:M,N with orders M, N >= 0, got {text!r}.",
                                 ctx, param)
    return m, n


def _flag_could_give(param, value):
    """Whether a JSON value is of a kind the parameter's flag can give.

    Text always (click converts it as it converts a flag), a boolean for an
    on/off flag, an integer for a numeric option, a float for a float option,
    and null, which leaves the parameter at its default.
    """
    if isinstance(value, bool):
        return param.is_flag
    if isinstance(value, int):
        return isinstance(param.type, (click.types.IntParamType, click.types.FloatParamType))
    if isinstance(value, float):
        return isinstance(param.type, click.types.FloatParamType)
    return value is None or isinstance(value, str)


def _load_config(ctx, param, path):
    """Load a ``--config`` file into the command's default map."""
    if path is None:
        return
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except ValueError as e:
        raise click.BadParameter(f"{path}: {e}", ctx, param)
    if not isinstance(cfg, dict):
        raise click.BadParameter(f"{path}: expected a JSON object", ctx, param)
    params = {p.name: p for p in ctx.command.params if p is not param}
    unknown = sorted(set(cfg) - set(params))
    if unknown:
        raise click.BadParameter(f"{path}: unknown fields {unknown}", ctx, param)
    for name, value in cfg.items():
        if not _flag_could_give(params[name], value):
            raise click.BadParameter(f"{path}: {name} cannot be {value!r}", ctx, param)
    ctx.default_map = {name: value for name, value in cfg.items() if value is not None}


_config = click.option(
    "--config", "config_file", type=_IN_FILE, is_eager=True, expose_value=False,
    callback=_load_config,
    help="JSON object of parameter values, keyed by parameter name; flags override it.",
)


def _check_compile_size(nbytes, what):
    """Refuse a command whose arrays would take more than ``MAX_COMPILE_BYTES``."""
    if nbytes > MAX_COMPILE_BYTES:
        raise CompileTooLarge(f"{what} would take {nbytes / 2**20:.4g} MiB; the limit is "
                              f"{MAX_COMPILE_BYTES / 2**20:g} MiB")


_APERTURE_READS = ("radius", "aperture_steps", "aperture_extent")
#: The parameters each ``compile-mask --mask`` kind reads, beyond ``--out`` and ``--csv``.
_MASK_READS = {
    "cosine": ("u_text",),
    "circular": _APERTURE_READS,
    "pinhole": _APERTURE_READS,
    "custom": ("mask_file", "grid_n", "extent", "waist", "basis_order"),
}


def _refuse_unread(ctx, mask):
    """A usage error for a parameter, given by flag or ``--config``, that ``--mask`` does not read."""
    unread = {name for reads in _MASK_READS.values() for name in reads} - set(_MASK_READS[mask])
    for param in ctx.command.params:
        if (param.name in unread
                and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT):
            raise click.UsageError(f"--mask {mask} does not read {param.opts[0]}")


def _require(flag, value, mask):
    """A parameter that only some ``--mask`` kinds need."""
    if value is None:
        raise click.UsageError(f"--mask {mask} needs {flag}")
    return value


def _parse_subset_mask(text, n_modes):
    """The modes a 0/1 mask selects; mode 0 alone when no mask is given."""
    if not text:
        return (0,)
    try:
        mask = [int(p) for p in text.split(",")]
    except ValueError:
        raise click.UsageError(f"subset mask must be comma-separated 0/1, got {text!r}")
    if len(mask) != n_modes or any(m not in (0, 1) for m in mask):
        raise click.UsageError(f"subset mask needs {n_modes} entries of 0/1, got {text!r}")
    subset = tuple(i for i, m in enumerate(mask) if m)
    if not subset:
        raise click.UsageError("subset mask selects no modes")
    return subset


def _parse_inputs(text):
    try:
        return InputStateSpec.parse(text)
    except ValueError as e:
        raise click.UsageError(f"input descriptors {text!r}: {e}")


class _Commands(click.Group):
    """The command group; a :class:`MaskModesError` from any command exits 1 with its message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MaskModesError as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Commands, context_settings={"show_default": True})
@click.version_option(version=__version__, prog_name="maskmodes")
def main():
    """Diffractive screens as mode-coupling networks, with entanglement analysis."""


@main.command("compile-mask")
@_config
@click.option("--mask", type=click.Choice(["cosine", "circular", "pinhole", "custom"]),
              required=True, help="Kind of screen.")
@click.option("--u", "u_text", callback=_direction,
              help="Grating direction ux,uy, 0 < ux^2 + uy^2 < 1; --mask cosine.")
@click.option("--radius", type=_POSITIVE,
              help="Aperture radius in wavelengths; --mask circular or pinhole.")
@click.option("--grid", "grid_n", type=click.IntRange(min=2), default=256,
              callback=_power_of_two, help="Samples per axis; --mask custom.")
@click.option("--extent", type=_POSITIVE, default=14.0, help="Grid physical extent; --mask custom.")
@click.option("--waist", type=_POSITIVE, default=1.0, help="Gaussian basis waist; --mask custom.")
@click.option("--basis-order", type=click.IntRange(min=0), default=1,
              help="Max Hermite-Gaussian order per axis; --mask custom.")
@click.option("--mask-file", type=_IN_FILE, help="Custom mask JSON; --mask custom.")
@click.option("--aperture-steps", type=click.IntRange(min=1), default=9,
              help="Direction lattice points per axis; --mask circular or pinhole.")
@click.option("--aperture-extent", type=_POSITIVE, default=0.2,
              help="Direction lattice half-extent; --mask circular or pinhole.")
@click.option("--out", "out_file", required=True, help="Unitary JSON artifact.")
@click.option("--csv", "csv_file", help="Also export the matrix as CSV.")
def compile_mask(mask, u_text, radius, grid_n, extent, waist, basis_order, mask_file,
                 aperture_steps, aperture_extent, out_file, csv_file):
    """Compile a mask into a unitary mode-coupling network.

    Each --mask kind reads only its own flags; a flag it would not read is
    refused, given on the command line or through --config.  Lengths are in
    wavelengths (k = 2 pi): an aperture's network depends on k and R only
    through kR.
    """
    _refuse_unread(click.get_current_context(), mask)
    if mask == "cosine":
        unit = grating_block(CosineGrating(_require("--u", u_text, mask)))
    elif mask in ("circular", "pinhole"):
        screen = CircularAperture(_require("--radius", radius, mask))  # a pinhole is a small one
        dim = 2 * aperture_steps**2
        _check_compile_size(16 * dim**2, f"--aperture-steps {aperture_steps}: a {dim}-mode unitary")
        lattice, dropped = aperture_output_grid(screen, (0.0, 0.0), _K, aperture_extent,
                                                aperture_steps)
        unit = unitarize(plane_wave_coupling(screen, lattice, lattice, _K))
        unit.provenance["truncated_weight"] = dropped
    else:
        path = _require("--mask-file", mask_file, mask)
        fields = (basis_order + 1) ** 2
        _check_compile_size(16 * fields * grid_n**2, f"--grid {grid_n} and --basis-order "
                            f"{basis_order}: {fields} sampled fields of {grid_n}^2 points")
        screen = read_file(path, mask_from_json)
        grid = Grid2D(grid_n, grid_n, extent / grid_n, extent / grid_n)
        basis = hermite_gaussian_basis(basis_order, waist)
        unit = unitarize(overlap_unitary(screen, basis, basis, grid))
    _write_artifact(out_file, unit.to_json())
    if csv_file:
        _write_csv(csv_file, "row,col,re,im", unit.csv_rows())
    click.echo(f"wrote {out_file} (dim {unit.dim}, unitarity residual {unit.residual:.2e})")


@main.command("design-response")
@_config
@click.option("--input-mode", required=True, callback=_hg_label, help="Mode to start from, hg:M,N.")
@click.option("--target-mode", required=True, callback=_hg_label, help="Mode to reach, hg:M,N.")
@click.option("--grid", "grid_n", type=click.IntRange(min=2), default=256,
              callback=_power_of_two, help="Samples per axis.")
@click.option("--extent", type=_POSITIVE, default=14.0, help="Grid physical extent.")
@click.option("--waist", type=_POSITIVE, default=1.0, help="Gaussian mode waist.")
@click.option("--eps-rel", type=_POSITIVE, default=1e-6, help="Tikhonov regularization.")
@click.option("--out", "out_file", required=True, help="Kernel JSON artifact.")
def design_response(input_mode, target_mode, grid_n, extent, waist, eps_rel, out_file):
    """Design the impulse-response kernel mapping one mode onto another."""
    grid = Grid2D(grid_n, grid_n, extent / grid_n, extent / grid_n)
    basis = ModeBasis([input_mode, target_mode], partial(hermite_gaussian_mode, waist=waist),
                      name=f"hg(w0={waist:g})")
    e_in = sample_field(input_mode, basis, grid)
    e_out = sample_field(target_mode, basis, grid)
    kernel = inverse_design_response(e_in, e_out, eps_rel=eps_rel)
    fid = design_fidelity(kernel, e_in, e_out)
    doc = kernel.to_json()
    doc["fidelity"] = fid
    _write_artifact(out_file, doc)
    click.echo(f"wrote {out_file} (round-trip fidelity {fid:.6f})")


@main.command("propagate")
@_config
@click.option("--state", "state_text", required=True, help='Input spec, e.g. "fock:2,vac".')
@click.option("--unitary", "unitary_file", type=_IN_FILE, required=True,
              help="Compiled unitary JSON.")
@click.option("--out", "out_file", required=True, help="State JSON artifact.")
@click.option("--report", type=click.Choice(["entropy", "none"]), default="none",
              help="Also report the entanglement across --subset.")
@click.option("--subset", "subset_text",
              help="Bipartition mask of --report entropy, e.g. 1,0 "
                   "(default: mode 0 against the rest).")
def propagate(state_text, unitary_file, out_file, report, subset_text):
    """Propagate an input state through a compiled unitary."""
    if subset_text is not None and report != "entropy":
        raise click.UsageError("--subset is read only with --report entropy")
    unit = UnitaryMatrix.load(unitary_file)
    spec = _parse_inputs(state_text)
    part = None
    if report == "entropy":  # checked before the expansion, which may be large or refused
        part = Bipartition(_parse_subset_mask(subset_text, unit.dim), unit.dim)
    out = apply_unitary(build_input_state(spec), unit)
    result = {"state": out.to_json()}
    if part is not None:
        result["entropy"] = entanglement_report(out, part).to_json()
    _write_artifact(out_file, result)
    msg = f"wrote {out_file} ({len(out.values)} amplitudes)"
    if "entropy" in result:
        msg += f", entropy {result['entropy']['entropy_bits']:.6f} bits"
    click.echo(msg)


@main.command("entropy")
@_config
@click.option("--state-file", type=_IN_FILE, required=True, help="Serialized state JSON.")
@click.option("--subset", "subset_text",
              help="Bipartition mask without --scan, e.g. 1,0 "
                   "(default: mode 0 against the rest).")
@click.option("--scan/--no-scan", default=False, help="Report every bipartition.")
@click.option("--tolerance", type=_POSITIVE, default=DEFAULT_TOL_TRUNCATED,
              help="Entropy (bits) below which a cut counts as separable.")
@click.option("--out", "out_file", required=True, help="Report JSON artifact.")
@click.option("--csv", "csv_file", help="Also export the report as CSV.")
def entropy_cmd(state_file, subset_text, scan, tolerance, out_file, csv_file):
    """Entanglement report(s) for a stored state."""
    if subset_text is not None and scan:
        raise click.UsageError("--subset is not read with --scan, which reports every cut")
    state = MultimodeFockState.load(state_file)
    header = "mask,entropy_bits,separable"
    if scan:
        reports = full_separability_scan(state, tol=tolerance)
        result = scan_to_json(reports)
        header, coefficients = header + ",s1,s2,s3,s4", 4
    else:
        part = Bipartition(_parse_subset_mask(subset_text, state.mode_count), state.mode_count)
        reports = [entanglement_report(state, part, tol=tolerance)]
        result, coefficients = reports[0].to_json(), 0
    _write_artifact(out_file, result)
    if csv_file:
        rows = [
            ",".join(["".join(str(b) for b in rep.bipartition.mask()), repr(rep.entropy_bits),
                      str(int(rep.separable))]
                     + [repr(float(s)) for s in rep.schmidt_coefficients[:coefficients]])
            for rep in reports
        ]
        _write_csv(csv_file, header, rows)
    click.echo(f"wrote {out_file}")


@main.command("check-separability")
@_config
@click.option("--inputs", "inputs_text", required=True,
              help='Per-mode descriptors, e.g. "sq:0.3,sq:0.3".')
@click.option("--unitary", "unitary_file", type=_IN_FILE, required=True,
              help="Compiled unitary JSON.")
@click.option("--subset", "subset_text", required=True, help="Output subset mask, e.g. 1,1.")
@click.option("--out", "out_file", required=True, help="Verdict JSON artifact.")
def check_separability(inputs_text, unitary_file, subset_text, out_file):
    """Exact verdict: does each subset mode stay a product with the rest?

    Entangled iff a Fock mode is split across the cut or the Bargmann
    exponent couples the mode to another.
    """
    unit = UnitaryMatrix.load(unitary_file)
    spec = _parse_inputs(inputs_text)
    subset = _parse_subset_mask(subset_text, unit.dim)
    verdict = check_no_entanglement(spec, unit, subset)
    _write_artifact(out_file, verdict.to_json())
    click.echo(f"wrote {out_file} (separable: {verdict.separable})")


@main.command("protocol-ifm")
@_config
@click.option("--eta", type=_Float(min=0, min_open=True, max=1), default=1.0,
              help="Absorption efficiency.")
@click.option("--theta", type=_Float(),
              help="Splitter angle (default: the balanced grating block).")
@click.option("--phi", type=_Float(), help="Splitter phase (default 0 when --theta is given).")
@click.option("--out", "out_file", required=True, help="Result JSON artifact.")
def protocol_ifm(eta, theta, phi, out_file):
    """Null-detection Bell projection behind a two-port screen."""
    if theta is None and phi is None:
        block = UnitaryMatrix.balanced_splitter()
    else:
        block = UnitaryMatrix.su2(
            theta if theta is not None else np.pi / 2, phi if phi is not None else 0.0
        )
    atoms, p_null = ifm_project(eta, block)
    result = {
        "atoms": atoms.to_json(),
        "null_probability": p_null,
        "bell_fidelity": atoms.bell_fidelity(),
    }
    _write_artifact(out_file, result)
    click.echo(
        f"wrote {out_file} (null probability {p_null:.6f}, "
        f"Bell fidelity {result['bell_fidelity']:.6f})"
    )


@main.command("protocol-hom")
@_config
@click.option("--theta", type=_Float(), default=np.pi / 2,
              help="Splitter angle; not read with --sweep.")
@click.option("--sweep", type=click.IntRange(min=0), default=0,
              help="Sweep this many angles over [0, pi] instead (0: no sweep).")
@click.option("--out", "out_file", required=True, help="Result JSON artifact.")
@click.option("--csv", "csv_file", help="Also export the coincidences as CSV.")
def protocol_hom(theta, sweep, out_file, csv_file):
    """Hong-Ou-Mandel coincidence probability for |1,1> input."""
    ctx = click.get_current_context()
    if sweep and ctx.get_parameter_source("theta") is not ParameterSource.DEFAULT:
        raise click.UsageError("--theta and --sweep exclude each other: --sweep sets the angles")
    _check_compile_size(_SWEEP_ANGLE_BYTES * sweep,
                        f"--sweep {sweep}: {sweep} angles and their records")
    thetas = np.linspace(0.0, np.pi, sweep).tolist() if sweep else [theta]
    records = [{"theta": t, "coincidence": hom_coincidence(UnitaryMatrix.su2(t))}
               for t in thetas]
    _write_artifact(out_file, {"sweep": records} if sweep else records[0])
    if csv_file:
        _write_csv(csv_file, "theta,coincidence",
                   [f"{r['theta']!r},{r['coincidence']!r}" for r in records])
    click.echo(f"wrote {out_file}")


@main.command("scan-noon")
@_config
@click.option("--photons", type=click.IntRange(min=1), required=True, help="Total photon number.")
@click.option("--grid", "grid_n", type=click.IntRange(min=64), default=256,
              help="Splitter angle steps over [0, pi].")
@click.option("--out", "out_file", required=True, help="Result JSON artifact.")
@click.option("--surface", "surface_file",
              help="CSV of the fidelity at each angle, best split (theta, fidelity).")
def scan_noon(photons, grid_n, out_file, surface_file):
    """Best NOON fidelity reachable from separable two-mode Fock inputs."""
    values = (photons + 1) * (grid_n + 1)
    points = grid_n + 1 if surface_file else 0
    _check_compile_size(_NOON_VALUE_BYTES * values + _SURFACE_POINT_BYTES * points,
                        f"--photons {photons} and --grid {grid_n}: {values} fidelity values"
                        + (f" and {points} surface points" if points else ""))
    res, thetas, vals = noon_scan(photons, grid_n)
    _write_artifact(out_file, res.to_json())
    if surface_file:
        _write_csv(surface_file, "theta,fidelity",
                   [f"{t!r},{v!r}" for t, v in zip(thetas.tolist(), vals.tolist())])
    click.echo(
        f"wrote {out_file} (best fidelity {res.best_fidelity:.9f} at split {res.best_split})"
    )


@main.command("agreement-suite")
@_config
@click.option("--trials", type=click.IntRange(min=1), default=100,
              help="Number of randomized trials.")
@click.option("--seed", type=int, default=7, help="Root seed.")
@click.option("--out", "out_file", required=True, help="Result JSON artifact.")
def agreement_suite(trials, seed, out_file):
    """Cross-validate the separability checker against both oracles."""
    res = run_agreement_suite(n_trials=trials, seed=seed)
    _write_artifact(out_file, res, seed=seed)
    click.echo(f"wrote {out_file} (agreement {res['agreed']}/{res['n_trials']})")
    if not res["all_agree"]:
        raise click.ClickException("checker-oracle disagreement detected")


if __name__ == "__main__":
    main()

"""Shared helpers for the test suite."""

import struct
from itertools import permutations, product
from math import factorial, sqrt

import numpy as np
from scipy.special import gammaln, xlogy

from maskmodes import entanglement
from maskmodes._jsonio import encode_array
from maskmodes.diffraction import (
    CircularAperture,
    CosineGrating,
    CouplingMatrix,
    ImpulseResponse,
    _interp_spectrum,
    apply_impulse_response,
    mask_spectrum,
)
from maskmodes.fock import (
    _LOG_TINY,
    _SEED_NORM_TOL,
    _ZERO,
    MultimodeFockState,
    _gaussian_sectors,
    _layout,
    _merge,
    _occupation_type,
    _pack,
    _sector_tables,
    bargmann_exponent,
    row_codes,
)
from maskmodes.errors import (
    GridTooSmall,
    MaskModesError,
    NonPhysical,
    OutOfRange,
    PrecisionLoss,
    TooManyModes,
)
from maskmodes.modes import (
    Grid2D,
    SampledField,
    _basis_samples,
    apply_mask_to_field,
    field_overlap,
    sample_field,
)


def max_amplitude_diff(a, b):
    """Largest amplitude difference after global-phase alignment of b to a.

    The phase is fixed on the largest-|a| row (the first such, lexicographic);
    rows missing from either state count as amplitude 0.
    """
    codes, distinct = row_codes(np.vstack([a.occupations, b.occupations]))
    va = np.zeros(len(distinct), dtype=complex)
    vb = np.zeros(len(distinct), dtype=complex)
    va[codes[: len(a.values)]] = a.values
    vb[codes[len(a.values):]] = b.values
    key = codes[int(np.argmax(np.abs(a.values)))]
    if abs(vb[key]) >= 1e-15:
        vb = vb * (va[key] / abs(va[key])) / (vb[key] / abs(vb[key]))
    return float(np.max(np.abs(va - vb)))


def haar_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u, _, vh = np.linalg.svd(g)
    return u @ vh


def permanent(m):
    """Permanent by brute force over permutations (small matrices only)."""
    n = len(m)
    return sum(np.prod(m[np.arange(n), list(p)]) for p in permutations(range(n)))


def oracle_apply(amplitudes, u, max_photons=5):
    """Output ``{tuple: amplitude}`` of ``amplitudes`` through ``u``, from permanents.

    ``<t|U|s> = perm(U[s, t]) / sqrt(prod s! prod t!)``, where ``U[s, t]``
    repeats row ``j`` of ``U`` ``s_j`` times and column ``k`` ``t_k`` times
    (Scheel, "Permanents in linear optical networks", 2004).
    """
    u = np.asarray(u)
    out = {}
    for s, a in amplitudes.items():
        n = sum(s)
        assert n <= max_photons, "the brute-force oracle is for a few photons"
        rows = np.repeat(np.arange(len(s)), s)
        for t in product(range(n + 1), repeat=len(s)):
            if sum(t) != n:
                continue
            cols = np.repeat(np.arange(len(t)), t)
            norm = sqrt(np.prod([factorial(k) for k in s + t]))
            out[t] = out.get(t, 0.0) + a * permanent(u[np.ix_(rows, cols)]) / norm
    return out


def psd_sqrt(h):
    """Square root of a Hermitian positive semi-definite matrix, negative eigenvalues clipped."""
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def dilation_reference(m):
    """Scattering-oriented loss dilation by the iterative route, for checking the closed form.

    Divides ``m`` by its largest singular value if that exceeds 1, assembles
    ``[[C, sqrt(I - C C+)], [sqrt(I - C+ C), -C+]]`` from two eigendecompositions
    and takes the polar factor of the 2n x 2n block.
    """
    smax = float(np.linalg.svd(m, compute_uv=False)[0])
    if smax > 1.0:
        m = m / smax
    d = m.shape[0]
    left = psd_sqrt(np.eye(d) - m @ m.conj().T)
    right = psd_sqrt(np.eye(d) - m.conj().T @ m)
    u, _, vh = np.linalg.svd(np.block([[m, left], [right, -m.conj().T]]))
    return u @ vh


def orthogonal_matrix(rng, n):
    """Random real orthogonal matrix (polar factor of a real Ginibre draw)."""
    u, _, vh = np.linalg.svd(rng.normal(size=(n, n)))
    return u @ vh


def unitarize_complex_reference(m, flux_faithful=False):
    """``unitarize`` in complex arithmetic whatever the data: ``(matrix, unitarization_distance)``.

    Reference for the real-arithmetic path of ``diffraction.unitarize``: one
    complex SVD and complex products even when every imaginary part is zero.
    The matrix is in operator orientation; no singular-value floor is applied.
    """
    m = np.asarray(m, dtype=complex)
    w, s, vh = np.linalg.svd(m)
    if flux_faithful:
        if s[0] > 1.0:
            s = s / s[0]
        d = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
        v, wh = vh.conj().T, w.conj().T
        block = (w * s) @ vh
        u = np.block([[block, (w * d) @ wh], [(v * d) @ vh, -(v * s) @ wh]])
    else:
        u = block = w @ vh
    return u.T, float(np.linalg.norm(block - m))


def unitarity_residual_complex_reference(m):
    """``||U+ U - I||_F`` from complex-sized real products whatever the data.

    Reference for ``diffraction._unitarity_residual``: ``Z = [X; Y]`` is
    stacked and ``X^T Y - (X^T Y)^T`` is summed even when ``Y = 0``.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    z = np.empty((2 * n, n))
    z[:n] = m.real
    z[n:] = m.imag
    re = z.T @ z
    re.flat[:: n + 1] -= 1.0
    sq = np.vdot(re, re)
    xy = z[:n].T @ z[n:]
    im = np.subtract(xy, xy.T, out=re)
    return sqrt(sq + np.vdot(im, im))


def plane_wave_coupling_columns(mask, input_grid, output_grid, k, match_tol=1e-9):
    """Rescaled plane-wave coupling matrix built one input column at a time, and its scale.

    Reference for the broadcast in ``diffraction.plane_wave_coupling``.
    """
    n_in = input_grid.transverse
    n_out = output_grid.transverse
    nz_out = output_grid.nz
    w_in = input_grid.weights
    spec = None if isinstance(mask, (CosineGrating, CircularAperture)) else mask_spectrum(mask, mask.grid)
    m = np.zeros((len(n_out), len(n_in)), dtype=complex)
    for col in range(len(n_in)):
        delta = n_out - n_in[col]
        if isinstance(mask, CosineGrating):
            for sign in (+1.0, -1.0):
                d = np.linalg.norm(n_out - (n_in[col] + sign * mask.u[:2]), axis=1)
                for row in np.nonzero(d <= match_tol)[0]:
                    m[row, col] += 0.5 * abs(k * nz_out[row]) * w_in[col]
        elif isinstance(mask, CircularAperture):
            fsq = (k * delta[:, 0]) ** 2 + (k * delta[:, 1]) ** 2
            m[:, col] = np.abs(k * nz_out) * mask.analytic_spectrum(fsq) * w_in[col]
        else:
            vals = _interp_spectrum(spec, mask.grid, k * delta[:, 0], k * delta[:, 1])
            m[:, col] = np.abs(k * nz_out) * vals * w_in[col]
    scale = float(np.max(np.linalg.norm(m, axis=0), initial=0.0))
    return (m / scale if scale > 0 else m), scale


def overlap_unitary_pairs(element, in_basis, out_basis, grid, k=2 * np.pi, loss_threshold=0.05):
    """Overlap coupling built one input field and one overlap at a time.

    Reference for the stacked compile in ``diffraction.overlap_unitary``:
    each input field is sampled, sent through the element on its own, and
    every ``<out_n | element(in_m)>`` is its own ``field_overlap``.
    """
    out_fields = [sample_field(l, out_basis, grid, k=k) for l in out_basis.labels]
    cols = []
    losses = {}
    for label in in_basis.labels:
        f = sample_field(label, in_basis, grid, k=k)
        if element is None:
            tf = f
        elif isinstance(element, ImpulseResponse):
            tf = apply_impulse_response(element, f)
        else:
            tf = apply_mask_to_field(f, element)
        col = np.array([field_overlap(g, tf) for g in out_fields])
        captured = float(np.sum(np.abs(col) ** 2))
        total = tf.norm_sq()
        if total > 0 and 1.0 - captured / total > loss_threshold:
            losses[str(label)] = 1.0 - captured / total
        cols.append(col)
    matrix = np.column_stack(cols)
    top = float(np.max(np.linalg.norm(matrix, axis=0), initial=0.0))
    if top > 1.0:
        matrix = matrix / top
    return CouplingMatrix(matrix, provenance={"truncation_losses": losses})


def _codes(state, modes):
    """Lexicographic rank per term of its occupations on ``modes``, and a state
    row per rank."""
    return row_codes(state.occupations[:, list(modes)])


def _dense(state, a_code, b_code):
    """The whole amplitude matrix, given each term's row and column rank."""
    m = np.zeros((a_code.max() + 1, b_code.max() + 1), dtype=complex)
    m[a_code, b_code] = state.values
    return m


def _basis(state, rows, modes):
    return [tuple(r) for r in state.occupations[np.ix_(rows, modes)].tolist()]


_MAX_DENSITY_DIM = 4096


def reduced_density(state, part):
    """Reduced density matrix of the subset, with its occupation-tuple basis.

    Positive semidefinite with unit trace (up to float error); the basis is
    restricted to tuples present in the state's support.  A subset basis
    above ``_MAX_DENSITY_DIM`` tuples raises ``TooManyModes`` before the
    dense matrix is allocated.
    """
    a_code, a_rows = _codes(state, part.subset)
    if len(a_rows) > _MAX_DENSITY_DIM:
        raise TooManyModes(
            f"subset basis has {len(a_rows)} tuples; reduced density capped at "
            f"{_MAX_DENSITY_DIM} (use entanglement_report instead)"
        )
    m = _dense(state, a_code, _codes(state, part.complement)[0])
    return m @ m.conj().T, _basis(state, a_rows, part.subset)


def bipartition_matrix(state, part):
    """Dense amplitude matrix over (subset basis) x (complement basis).

    Returns ``(matrix, row_basis, col_basis)`` where the bases list the
    occupation tuples actually present in the state's support.
    """
    a_code, a_rows = _codes(state, part.subset)
    b_code, b_rows = _codes(state, part.complement)
    m = _dense(state, a_code, b_code)
    return m, _basis(state, a_rows, part.subset), _basis(state, b_rows, part.complement)


def gaussian_sectors_full_recurrence(U, alpha, lam, top, e_k, dtype):
    """Reference for ``fock._gaussian_sectors``: every sector by the full Hermite
    recurrence, one degree at a time, the odd sectors of ``γ = 0`` included."""
    n_modes = len(U)
    B = bargmann_exponent(U, lam)
    gamma = U.T @ alpha
    tables = _sector_tables(n_modes, top)[: top + 1]
    log_seed = -0.5 * np.sum(np.abs(alpha) ** 2 + np.log(np.cosh(lam)))
    e = 0 if log_seed >= _LOG_TINY else int(np.floor(log_seed / np.log(2.0)))
    psi = np.full(1, np.exp(log_seed - e * np.log(2.0)), dtype=complex)
    A = np.zeros((1, n_modes), dtype=complex)
    sectors = [psi * 2.0**e]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in tables[1:]:
            low = np.concatenate((psi, _ZERO)).take(t.down)
            nxt = (gamma.take(t.k) * low.take(t.rk) + (A @ B).take(t.pk)) / t.sqrt_n.take(t.rk)
            A = t.sqrt_n * low
            if e < 0:
                shift = min(int(np.frexp(np.max(np.abs(nxt)))[1]), -e)
                nxt, A, e = nxt * 2.0**-shift, A * 2.0**-shift, e + shift
            psi = nxt
            sectors.append(psi * 2.0**e if e else psi)
    vals = np.concatenate(sectors)
    nonzero = np.flatnonzero(vals)
    occ = np.concatenate([t.occ for t in tables], dtype=dtype)[nonzero]
    return _pack(occ, e_k), occ, vals[nonzero]


def expand_row_by_row(U, top, rows, scales, seed=None):
    """Reference for ``fock._expand``: one full expansion per row, then one merge.

    Each row ``n_r`` starts from the vacuum scaled by ``scales[r]``, or for
    ``seed = (alpha, lam)`` (one row of scale 1) from the Gaussian sectors up
    to degree ``top - Σ_j n_rj``, whose norm² must be within the engine's
    tolerance of 1.  Every photon is one creation step ``w_j+ / sqrt(i)``
    over the row's own terms; the rows' outputs are joined and merged at
    the end.  Returns lexicographic occupation rows and their amplitudes.
    """
    n_modes = len(U)
    e_k = _layout(n_modes, top)
    dtype = _occupation_type(top)
    out = []
    for row, scale in zip(rows, scales):
        if seed is None:
            words = np.zeros((1, e_k.shape[1]), dtype=np.int64)
            occ = np.zeros((1, n_modes), dtype=dtype)
            vals = np.full(1, scale, dtype=complex)
        else:
            words, occ, vals = _gaussian_sectors(U, *seed, top - int(row.sum()), e_k, dtype)
            norm_sq = float(np.vdot(vals, vals).real)
            if not abs(norm_sq - 1.0) <= _SEED_NORM_TOL:
                raise PrecisionLoss(
                    "the Hermite recurrence lost the Gaussian input's precision: its amplitudes "
                    f"have norm² {norm_sq!r}, not 1 within {_SEED_NORM_TOL}")
        for j in np.flatnonzero(row):
            ks = np.flatnonzero(U[j])
            for i in range(1, int(row[j]) + 1):
                cand = (e_k[ks][:, None, :] + words).reshape(-1, e_k.shape[1])
                idx, vals = _merge(cand, (U[j, ks, None] / np.sqrt(i)
                                          * np.sqrt(occ[:, ks].T + 1.0) * vals).ravel())
                at, parent = np.divmod(idx, len(words))
                words, occ = cand[idx], occ[parent]
                occ[np.arange(len(idx)), ks[at]] += 1
        out.append((words, occ, vals))
    words, occ, vals = (np.concatenate(part) for part in zip(*out))
    idx, vals = _merge(words, vals)
    return occ[idx], vals


def sector_norms(state):
    """Squared norm of a state per total photon number."""
    totals = state.occupations.sum(axis=1)
    weights = np.bincount(totals, weights=np.abs(state.values) ** 2)
    return {int(n): float(weights[n]) for n in np.unique(totals)}


#: Largest rounding bound on an amplitude of :func:`two_mode_closed_form` (PrecisionLoss beyond).
_AMPLITUDE_TOL = 1e-10


def _log_factorial(x):
    return gammaln(x + 1.0)


def two_mode_closed_form(m, n, theta, phi):
    """Closed-form output of ``|m> x |n>`` through the two-mode splitter: an
    oracle for the engine on two modes.

    The splitter convention is that of :meth:`UnitaryMatrix.su2`:
    ``a+ -> cos(t/2) a+ + e^{i phi} sin(t/2) b+`` and
    ``b+ -> -e^{-i phi} sin(t/2) a+ + cos(t/2) b+``.  The double sum runs
    over binomial contributions landing on kets ``|n+k-l> x |m+l-k>``; pairs
    with equal ``k - l`` interfere (Hong-Ou-Mandel at ``m = n = 1``).

    The alternating sum cancels terms far larger than its result.  At most
    ``min(m, n) + 1`` terms land on one ket, so its rounding error is bounded
    by ``eps (min(m, n) + 1) Σ|term|`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 4); a bound above ``1e-10`` raises
    ``PrecisionLoss``, so the oracle never vouches for a cancelled amplitude.
    At ``|n, n>`` and ``theta = pi/2`` it is 1.7e-11 at n = 15 and 6.1e-10 at
    n = 20.
    """
    if m < 0 or n < 0:
        raise NonPhysical("negative photon numbers")
    if not (0.0 <= theta <= np.pi):
        raise ValueError("theta must lie in [0, pi]")
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    k = np.arange(m + 1)[:, None]
    l = np.arange(n + 1)[None, :]
    na, nb = n + k - l, m + l - k
    # comb(m, k) comb(n, l) sqrt(na! nb! / (m! n!)) c^(k+l) s^(m+n-k-l), in log space
    log_mag = (
        0.5 * (_log_factorial(m) + _log_factorial(n) + _log_factorial(na) + _log_factorial(nb))
        - _log_factorial(k) - _log_factorial(m - k) - _log_factorial(l) - _log_factorial(n - l)
        + xlogy(k + l, c) + xlogy(m + n - k - l, s)
    )
    terms = (np.exp(log_mag + 1j * phi * (m - n + l - k)) * (-1.0) ** (n - l)).ravel()
    # kets |na, m+n-na> in lexicographic order, na = 0 .. m+n; pairs sum in loop order
    na = na.ravel()
    vals = np.bincount(na, weights=terms.real) + 1j * np.bincount(na, weights=terms.imag)
    bound = np.finfo(float).eps * (min(m, n) + 1) * np.bincount(na, weights=np.abs(terms)).max()
    if bound > _AMPLITUDE_TOL:
        raise PrecisionLoss(
            f"the closed form of |{m},{n}> cancels too far: its amplitudes' rounding bound "
            f"{bound:.2e} passes {_AMPLITUDE_TOL}")
    occ = np.column_stack([np.arange(m + n + 1), m + n - np.arange(m + n + 1)])
    return MultimodeFockState._from_sorted(2, occ, vals)


def state_document(rows, values):
    """A state document of occupation ``rows`` and amplitude ``values``, written as they are."""
    occ = np.array(rows, dtype=np.int64)
    return {"schema_version": 2, "type": "state", "mode_count": occ.shape[1], "terms": len(occ),
            "occupations_b64": encode_array(occ, "<i8"), "values_b64": encode_array(values)}


def schmidt_dense_reference(state, part):
    """Schmidt spectrum from one SVD of the whole dense amplitude matrix.

    Reference for the photon-number-blocked spectrum of
    ``entanglement.entanglement_report``.
    """
    return np.linalg.svd(bipartition_matrix(state, part)[0], compute_uv=False)


def count_full_support_calls(monkeypatch):
    """A list that gains, per call into the full-support Schmidt layout, the number of cuts."""
    calls, layout = [], entanglement._full_support_stacks

    def counted(occ, total, values, masks):
        calls.append(len(masks))
        return layout(occ, total, values, masks)

    monkeypatch.setattr(entanglement, "_full_support_stacks", counted)
    return calls


def gaussian_mode_entropy(cov, k):
    """Entropy (bits) of mode ``k`` of a pure Gaussian state with covariance ``cov``.

    Quadratures ``(x_1..x_N, p_1..p_N)``, vacuum covariance the identity: the
    mode's symplectic eigenvalue is ``nu = sqrt(det)`` of its 2x2 block and
    its thermal occupation ``(nu - 1) / 2``.
    """
    n = cov.shape[0] // 2
    nu = np.sqrt(np.linalg.det(cov[np.ix_([k, n + k], [k, n + k])]))
    occ = max((nu - 1.0) / 2.0, 0.0)
    return float((occ + 1) * np.log2(occ + 1) - (occ * np.log2(occ) if occ > 0 else 0.0))


def spectrum_norm_sq(spectrum, grid):
    """Squared norm of a DC-centered spectrum, matching the field norm (Parseval)."""
    return float(np.sum(np.abs(spectrum) ** 2)) / (grid.nx * grid.ny * grid.cell_area)


def boundary_energy_fraction(values):
    """Fraction of total |values|^2 living in the outermost ring of pixels."""
    total = float(np.sum(np.abs(values) ** 2))
    if total == 0:
        return 0.0
    inner = np.abs(values[1:-1, 1:-1]) ** 2
    return 1.0 - float(np.sum(inner)) / total


def sample_field_reference(mode_label, basis, grid, k=2 * np.pi):
    """One basis mode as a unit-norm field, one array pass per step.

    Reference for the one-pass ``modes.sample_field``: the rim fraction and
    the norm each take their own ``|v|^2``, and the samples are copied into
    one field, then divided into a second.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = basis.raw_values(mode_label, grid)
    if not np.all(np.isfinite(values)):
        raise MaskModesError(f"mode {mode_label!r}: samples are not finite at this order")
    frac = boundary_energy_fraction(values)
    if frac > 1e-10:
        raise GridTooSmall(f"mode {mode_label!r}: boundary energy fraction {frac:.3e} above 1.0e-10")
    field = SampledField(grid, values, k)
    norm = float(np.sqrt(float(np.sum(np.abs(field.values) ** 2)) * grid.cell_area))
    if norm == 0:
        raise OutOfRange("cannot normalize a field whose norm is 0 "
                         "(identically zero, or its samples underflow when squared)")
    return SampledField(grid, field.values / norm, k)


def basis_samples_reference(basis, grid, k=2 * np.pi):
    """Every mode of a basis through :func:`sample_field_reference`, one flattened mode per row."""
    return np.array([sample_field_reference(label, basis, grid, k).values.ravel()
                     for label in basis.labels])


def gram_matrix(basis, grid, k=2 * np.pi):
    """Pairwise overlaps of every basis mode on the grid, as one matrix product."""
    flat = _basis_samples(basis, grid, k)
    return (np.conj(flat) @ flat.T) * grid.cell_area


# Binary field files: magic, header (nx, ny, dx, dy, k), then row-major complex128 samples
FIELD_MAGIC = b"MMFIELD1"
_FIELD_HEADER = "<IIddd"


def save_field(path, f):
    header = struct.pack(_FIELD_HEADER, f.grid.nx, f.grid.ny, f.grid.dx, f.grid.dy, f.k)
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(header)
        fh.write(np.ascontiguousarray(f.values, dtype=np.complex128).tobytes())


def load_field(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(FIELD_MAGIC))
        if magic != FIELD_MAGIC:
            raise ValueError(f"not a maskmodes field file (magic {magic!r})")
        nx, ny, dx, dy, k = struct.unpack(_FIELD_HEADER, fh.read(struct.calcsize(_FIELD_HEADER)))
        data = np.frombuffer(fh.read(), dtype=np.complex128).reshape(ny, nx)
    return SampledField(Grid2D(nx=nx, ny=ny, dx=dx, dy=dy), data, k)

"""Independent reference values for the outputs of the benchmark's commands.

Every matrix here is built from its defining formula with numpy and scipy,
without importing anglekit, so a fast wrong answer from the program cannot
agree with its own oracle.  Spectra and commutation defects come from LAPACK
(``numpy.linalg.eigvalsh`` / ``eigh``); lower symbols from the direct trace
formula tr(rho D(z)* A D(z)).

Each ``check_*`` function takes the text a command printed and returns None
when it agrees with the reference, or a one-line reason when it does not.
"""

import math
import re

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

# Stated tolerances.  The program's Jacobi eigensolver and its quadratures
# agree with these references to about 1e-12 on every workload input; the
# margins leave room for a different but equally accurate algorithm.
SPECTRUM_TOL = 1e-9  # absolute, on eigenvalues of norm ~ 2 pi
DEFECT_RTOL = 1e-6  # relative, on commutation defects of size 1e-3 .. 1e-1
DEFECT_ATOL = 1e-9
SYMBOL_TOL = 1e-9  # absolute, on lower symbols of size ~ pi
ATOM_TOL = 1e-8  # C-eigenvalue within this of -1 is the spectral atom
SIGN_ZERO_REL = 1e-8  # sign_part dead zone, relative to max |S_ij|


def two_sided_labels(dim):
    offset = -dim // 2
    return np.arange(offset, offset + dim)


def shift_cos_sin(mode, dim):
    """C = (U + U*)/2 and S = (U - U*)/(2i) for U e_n = e_{n+1}."""
    U = np.zeros((dim, dim))
    U[np.arange(1, dim), np.arange(dim - 1)] = 1.0
    if mode == "cyclic":
        U[0, dim - 1] = 1.0
    return (U + U.T) / 2.0, (U - U.T) / 2.0j


def full_angle_spectrum(mode, dim):
    """Spectrum of the doubled-space angle: ArcCos(C) and ArcCos(C) + pi - pi P_{-1}."""
    C, _ = shift_cos_sin(mode, dim)
    lam = np.linalg.eigvalsh(C)
    upper = np.arccos(np.clip(lam, -1.0, 1.0))
    lower = upper + math.pi - math.pi * (np.abs(lam + 1.0) <= ATOM_TOL)
    return np.sort(np.concatenate([upper, lower]))


def commutator_table(dims, margins):
    """Rows (D, margin, lo, hi, max |[ArcCos C, N] - i sign S|) on interior windows."""
    rows = []
    for dim in dims:
        labels = two_sided_labels(dim)
        C, S = shift_cos_sin("two_sided", dim)
        w, V = np.linalg.eigh(C)
        angle = (V * np.arccos(np.clip(w, -1.0, 1.0))) @ V.conj().T
        ws, Vs = np.linalg.eigh(S)
        zero = SIGN_ZERO_REL * np.abs(S).max()
        sigma = (Vs * np.where(np.abs(ws) <= zero, 0.0, np.sign(ws))) @ Vs.conj().T
        dev = angle * labels[None, :] - labels[:, None] * angle - 1j * sigma
        for margin in margins:
            if 2 * margin >= dim:
                continue
            lo, hi = int(labels[0]) + margin, int(labels[-1]) - margin
            keep = (labels >= lo) & (labels <= hi)
            rows.append((dim, margin, lo, hi, float(np.abs(dev[np.ix_(keep, keep)]).max())))
    return rows


def published_angle_matrix(t, dim):
    """pi on the diagonal, i F_{nn'}(t)/(n'-n) above it, Hermitian.

    F_{nn'}(t) = Gamma((n+n')/2 + 1)/sqrt(n! n'!) (1-t)^{1+(n'-n)/2}
    2F1(-n, (n'-n)/2; -(n+n')/2; t) for n < n'.  Every term of the
    terminating sum is positive there, so it is summed as it stands.
    """
    n, npr = np.triu_indices(dim, 1)
    lo, hi = n.astype(float), npr.astype(float)
    log_mag = (
        gammaln((lo + hi) / 2.0 + 1.0)
        - 0.5 * (gammaln(lo + 1.0) + gammaln(hi + 1.0))
        + (1.0 + (hi - lo) / 2.0) * math.log1p(-t)
    )
    b, c = (hi - lo) / 2.0, -(lo + hi) / 2.0
    term = np.ones_like(lo)
    total = np.ones_like(lo)
    if t > 0.0:
        for k in range(dim - 1):
            active = k < lo
            den = np.where(active, (c + k) * (k + 1.0), 1.0)
            term = np.where(active, term * (k - lo) * (b + k) / den * t, 0.0)
            total += term
    A = np.diag(np.full(dim, math.pi)).astype(complex)
    A[n, npr] = 1j * np.exp(log_mag) * total / (hi - lo)
    A[npr, n] = A[n, npr].conj()
    return A


def circle_angle_matrix(sigma, dim):
    """Band matrix p_{|d|} c_d with Gaussian overlaps p_m = exp(-m^2/(8 sigma^2))."""
    idx = np.arange(dim)
    d = (idx[:, None] - idx[None, :]).astype(float)
    coeff = np.where(d == 0.0, math.pi + 0j, 1j / np.where(d == 0.0, 1.0, d))
    return np.exp(-d * d / (8.0 * sigma * sigma)) * coeff


def displaced_fock_columns(J, dim, cols):
    """Columns k < cols of D(sqrt J) in the number basis, rows n < dim.

    D_nk = sqrt(k!/n!) r^{n-k} e^{-J/2} L_k^{(n-k)}(J) for n >= k, and the
    reflection (-1)^{k-n} sqrt(n!/k!) r^{k-n} e^{-J/2} L_n^{(k-n)}(J) below.
    """
    r = math.sqrt(J)
    n = np.arange(dim, dtype=float)[:, None]
    k = np.arange(cols, dtype=float)[None, :]
    small, big = np.minimum(n, k), np.maximum(n, k)
    log_pref = 0.5 * (gammaln(small + 1.0) - gammaln(big + 1.0)) + (big - small) * math.log(r) - J / 2.0
    sign = np.where((n < k) & ((k - n) % 2 == 1), -1.0, 1.0)
    return sign * np.exp(log_pref) * eval_genlaguerre(small.astype(int), big - small, J)


def wh_lower_symbols(t, J, dim, gammas):
    """tr(rho_t D(z)* A D(z)) at z = sqrt(J) e^{i gamma}, rho_t = (1-t) t^k.

    Rotation covariance gives D(z)_nk = e^{i(n-k) gamma} D(sqrt J)_nk.
    Columns whose weight falls below 1e-20 are dropped.
    """
    A = published_angle_matrix(t, dim)
    if t == 0.0:
        cols, rho = 1, np.ones(1)
    else:
        cols = min(dim, int(math.ceil(math.log(1e-20) / math.log(t))) + 1)
        rho = (1.0 - t) * t ** np.arange(cols)
    D0 = displaced_fock_columns(J, dim, cols)
    n = np.arange(dim)
    out = []
    for gamma in gammas:
        phase = np.exp(1j * gamma * n)
        Dz = phase[:, None] * D0 * phase[:cols].conj()[None, :]
        out.append(complex(np.sum(rho * np.einsum("mk,mk->k", Dz.conj(), A @ Dz))))
    return np.array(out)


def circle_lower_symbols(sigma, J, dim, phis):
    """<J,phi| A |J,phi> for circle coherent states with Gaussian densities."""
    A = circle_angle_matrix(sigma, dim)
    labels = two_sided_labels(dim)
    pdf = lambda x: np.exp(-x * x / (2.0 * sigma * sigma)) / math.sqrt(2.0 * math.pi * sigma * sigma)
    lattice = np.arange(round(J) - int(40 * sigma) - 10, round(J) + int(40 * sigma) + 11)
    amps = np.sqrt(pdf(J - labels) / pdf(J - lattice).sum())
    out = []
    for phi in phis:
        v = amps * np.exp(-1j * phi * labels)
        out.append(complex(v.conj() @ A @ v))
    return np.array(out)


def symbol_grid(count):
    return np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)


# ------------------------------------------------------------ output checks


def _csv_rows(text, header, width):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != width for row in rows):
        raise ValueError(f"expected {width} columns per row")
    return rows


def check_spectrum(text, expected):
    """CSV construction,D,param,index,eigenvalue against ascending eigenvalues."""
    try:
        rows = _csv_rows(text, "construction,D,param,index,eigenvalue", 5)
        got = np.array([float(row[4]) for row in rows])
    except ValueError as exc:
        return f"unreadable spectrum: {exc}"
    if got.size != expected.size:
        return f"spectrum has {got.size} eigenvalues, expected {expected.size}"
    err = float(np.abs(got - expected).max())
    if not err <= SPECTRUM_TOL:
        return f"spectrum differs from LAPACK by {err:.3e} > {SPECTRUM_TOL:.0e}"
    return None


def check_commutator(text, expected):
    try:
        rows = _csv_rows(text, "D,margin,window_lo,window_hi,defect", 5)
        got = [(int(a), int(b), int(c), int(d), float(e)) for a, b, c, d, e in rows]
    except ValueError as exc:
        return f"unreadable commutator table: {exc}"
    if [row[:4] for row in got] != [row[:4] for row in expected]:
        return "commutator table rows differ from the requested dims and margins"
    for row, ref in zip(got, expected):
        if not abs(row[4] - ref[4]) <= DEFECT_ATOL + DEFECT_RTOL * abs(ref[4]):
            return f"defect at D={row[0]} margin={row[1]} is {row[4]!r}, LAPACK gives {ref[4]!r}"
    return None


def check_symbols(text, J, grid, expected):
    """CSV J,gamma_or_phi,re,im against reference symbols on the grid."""
    try:
        rows = _csv_rows(text, "J,gamma_or_phi,re,im", 4)
        vals = np.array([[float(x) for x in row] for row in rows])
    except ValueError as exc:
        return f"unreadable symbol table: {exc}"
    if vals.shape[0] != grid.size:
        return f"symbol table has {vals.shape[0]} rows, expected {grid.size}"
    if np.any(vals[:, 0] != J) or float(np.abs(vals[:, 1] - grid).max()) > 1e-15:
        return "symbol table J or angle column differs from the requested grid"
    err = float(np.abs(vals[:, 2] + 1j * vals[:, 3] - expected).max())
    if not err <= SYMBOL_TOL:
        return f"symbol differs from the trace formula by {err:.3e} > {SYMBOL_TOL:.0e}"
    return None


_CHECK_LINE = re.compile(r"^(\w+)/(\w+): (\w+) \(measured=(\S+), tolerance=(\S+)\)$")


def check_suite(text, suite):
    """Every invariant line of the suite reads PASS, and there is at least one."""
    lines = text.splitlines()
    if not lines:
        return f"check {suite} printed no invariants"
    for line in lines:
        m = _CHECK_LINE.match(line)
        if m is None or m.group(1) != suite:
            return f"unexpected check output line {line!r}"
        if m.group(3) != "PASS":
            return f"invariant {m.group(1)}/{m.group(2)} is {m.group(3)}"
    return None

"""Angle operators built from the cosine of a shift operator.

`build_shift_family` gives the one shift family on a one-sided,
two-sided or cyclic basis: the shift U, the label operator N and the
cosine/sine contractions C and S.  From the spectrum of C come the
upper half-circle angle operator ArcCos(C) and the doubled-space full
angle operator, whose lower block is ArcCos(C) + pi;
`angle_upper_series` is the MacLaurin reference for ArcCos(C), used
only to check the spectral route.  The sign inversion Sigma of S is
`linalg.sign_part(fam.S)`.  `commutator_defect` and `covariance_flow`
measure their defects on interior label windows, away from truncation
edges.

C and S carry their exact eigensystems (`TruncatedOperator.eig`), so
this route runs no eigensolver.  On the one- and two-sided bases C is
tridiagonal Toeplitz, with eigenvalues cos(k pi/(D+1)) and DST-I sine
vectors (Noschese, Pasquini & Reichel, NLAA 20 (2013) 302), and
S = V C V* with V = diag((-i)^n).  In cyclic mode both are circulant:
the DFT columns diagonalize them, with eigenvalues cos(2 pi k/D) and
-sin(2 pi k/D).  The full angle carries its block system as well, and
so does the rotated cosine cos(theta) C - sin(theta) S of
`covariance_flow`.  An operator made from these by arithmetic carries
none and goes to the general solve of `linalg.hermitian_eig`, like
every other matrix.

Sign conventions (fixed numerically, see `commutator_defect`): with
U e_n = e_{n+1}, N e_n = n e_n, C = (U + U*)/2, S = (U - U*)/(2i) and
Sigma = sign(S), the finite-window identity is [ArcCos(C), N] = i Sigma,
equivalently d/dtheta of the conjugated angle at 0 equals +Sigma for
the flow exp(i theta N) (.) exp(-i theta N).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DomainError, ConvergenceError
from .linalg import BasisSpec, EigenSystem, TruncatedOperator
from .specfun import arccos_coefficient

__all__ = [
    "ShiftFamily",
    "build_shift_family",
    "angle_upper",
    "angle_upper_series",
    "full_angle",
    "commutator_defect",
    "covariance_flow",
]

MINUS_ONE_ATOM_TOL = 1e-8  # eigenvalue within this of -1 counts as the spectral atom
EDGE_TOL = 1e-12  # eigenvalue within this of +-1 is the spectral edge: arccos 0 or pi
SERIES_TERM_TOL = 1e-6  # angle_upper_series stops on a term of max-norm below this


def _arccos(lam):
    """Principal arccos of an eigenvalue, with the edge band mapped to 0 or pi.

    arccos has slope -1/sqrt(1 - lam^2), so a one-ulp error in an
    eigenvalue at +-1 would become an angle error near sqrt(2 eps) ~ 1e-8.
    C is a contraction and the shift family's interior eigenvalues stay
    at least 1 - cos(pi/(D+1)) ~ 2.9e-7 from +-1 up to D = 4096, so an
    absolute band of EDGE_TOL catches only the edge itself.
    """
    if lam >= 1.0 - EDGE_TOL:
        return 0.0
    if lam <= -1.0 + EDGE_TOL:
        return math.pi
    return math.acos(lam)


def _sin_pi(num, den):
    """sin(pi num / den) for integers num (an array) and den > 0.

    num is reduced in integers to [-den/2, den/2], where sin is odd and
    monotone, so equal values come out bit-equal, opposite ones exactly
    opposite, and zeros and quarter turns exactly 0 and +-1.
    """
    num = np.mod(num, 2 * den)
    num = np.where(num > den, num - 2 * den, num)
    num = np.where(2 * num > den, den - num, num)
    num = np.where(2 * num < -den, -den - num, num)
    mag = np.where(2 * np.abs(num) == den, 1.0, np.sin(math.pi * np.abs(num) / den))
    return np.sign(num) * mag


def _cos_pi(num, den):
    """cos(pi num / den) = sin(pi (den - 2 num) / (2 den)), see `_sin_pi`."""
    return _sin_pi(den - 2 * num, 2 * den)


def _ascending(values, vectors):
    order = np.argsort(values, kind="stable")
    return EigenSystem(values[order], vectors[:, order])


def _dft_symbols(dim):
    """DFT columns F of the cyclic basis and, column by column, the eigenvalues of C and S."""
    # U multiplies the DFT column e^{2 pi i k r / D} by e^{-2 pi i k / D}
    rows = np.arange(dim)
    kr = np.outer(rows, rows)
    F = (_cos_pi(2 * kr, dim) + 1j * _sin_pi(2 * kr, dim)) / math.sqrt(dim)
    return F, _cos_pi(2 * rows, dim), _sin_pi(-2 * rows, dim)


def _shift_eigensystems(basis):
    """Exact eigensystems of C = (U + U*)/2 and S = (U - U*)/(2i) on basis."""
    dim = basis.dim
    rows = np.arange(dim)
    if basis.mode == "cyclic":
        F, cos_k, sin_k = _dft_symbols(dim)
        return _ascending(cos_k, F), _ascending(sin_k, F)
    # DST-I column k is sqrt(2/(D+1)) sin(pi (r+1) k/(D+1)); k = D..1 so cos(k pi/(D+1)) ascends
    k = np.arange(dim, 0, -1)
    Q = math.sqrt(2.0 / (dim + 1)) * _sin_pi(np.outer(rows + 1, k), dim + 1)
    values = _cos_pi(k, dim + 1)
    phases = np.array([1.0, -1j, -1.0, 1j])[rows % 4]  # (-i)^n
    return EigenSystem(values, Q), EigenSystem(values, phases[:, None] * Q)


@dataclass(frozen=True, eq=False)
class ShiftFamily:
    """Shift U, diagonal label operator N, and C = (U + U*)/2, S = (U - U*)/(2i).

    C and S are commuting contractions that carry their closed-form
    eigensystems, written so that the -1 atom of C and the kernel of S
    come out exact.
    """

    U: TruncatedOperator
    N: TruncatedOperator
    C: TruncatedOperator
    S: TruncatedOperator
    basis: BasisSpec


def build_shift_family(basis):
    """Shift U, ones on diagonal n - n' = 1 (wrapped on a cyclic basis), N, C and S."""
    if basis.dim < 4:
        raise DomainError(f"shift family needs dim >= 4, got {basis.dim}")
    U = linalg.fill_diagonals({1: 1.0}, basis)
    N = np.diag(basis.labels().astype(float)).astype(complex)
    eig_C, eig_S = _shift_eigensystems(basis)
    return ShiftFamily(
        U=TruncatedOperator(U, basis),
        N=TruncatedOperator(N, basis),
        C=TruncatedOperator((U + U.conj().T) / 2.0, basis, eig_C),
        S=TruncatedOperator((U - U.conj().T) / 2.0j, basis, eig_S),
        basis=basis,
    )


def _check_contraction_spectrum(eig):
    lo, hi = eig.eigenvalues[0], eig.eigenvalues[-1]
    if lo < -1.0 - 1e-10 or hi > 1.0 + 1e-10:
        raise DomainError(f"spectrum [{lo}, {hi}] leaves [-1, 1] beyond tolerance 1e-10")


def angle_upper(C):
    """Upper half-circle angle operator ArcCos(C), spectrum in [0, pi].

    The arccos of the eigenvalues of C, the edges mapped to 0 or pi.
    DomainError unless the spectrum of C, from `hermitian_eig(C)`, lies
    in [-1, 1]; a C that carries its eigensystem is not solved.
    """
    eig = linalg.hermitian_eig(C)
    _check_contraction_spectrum(eig)
    angles = np.array([_arccos(lam) for lam in eig.eigenvalues])
    return linalg.from_spectrum(angles, eig.eigenvectors, C.basis)


def angle_upper_series(C):
    """MacLaurin reference (pi/2) I - sum_n c_n C^{2n+1} for ArcCos(C).

    c_n are the coefficients of `arccos_coefficient`; terms are added
    until one has max-norm below SERIES_TERM_TOL = 1e-6.  The spectrum
    of C is checked as in `angle_upper`, so max|C^k| <= ||C||^k stays
    within 1 + 1e-10 and the loop ends by n ~ 4300, where c_n itself
    drops below the tolerance.  Near eigenvalues +-1 the terms decay
    only like n^(-3/2), so the result is accurate to the tolerance away
    from them; the spectral `angle_upper` is the reference.
    """
    _check_contraction_spectrum(linalg.hermitian_eig(C))
    dim = C.dim
    acc = np.zeros((dim, dim), dtype=complex)
    power = np.array(C.entries)  # C^{2n+1}, starting at n = 0
    C2 = C.entries @ C.entries
    for n in itertools.count():
        coeff = arccos_coefficient(n)
        acc += coeff * power
        if coeff * float(np.abs(power).max()) < SERIES_TERM_TOL:
            break
        power = power @ C2
    out = (math.pi / 2.0) * np.eye(dim) - acc
    out = (out + out.conj().T) / 2.0
    return TruncatedOperator(out, C.basis)


def full_angle(fam):
    """Block angle operator on the doubled space.

    Upper block ArcCos(C); lower block ArcCos(C) + pi, corrected by
    -pi times the projector onto the C-eigenvalue -1 so the total
    spectrum stays inside [0, 2 pi] without double-covering 2 pi = 0.
    Rows are indexed 0..2 dim-1, upper block first.

    The result carries its eigensystem: blockdiag(V, V) for the
    eigenvectors V of C, with both blocks and the eigenvalues built from
    the same per-eigenvalue angles, sorted stably.
    """
    eig = fam.C.eig
    lam, V = eig.eigenvalues, eig.eigenvectors
    upper = np.array([_arccos(x) for x in lam])
    lower = upper + math.pi - math.pi * (np.abs(lam + 1.0) <= MINUS_ONE_ATOM_TOL)
    dim = fam.basis.dim
    out = np.zeros((2 * dim, 2 * dim), dtype=complex)
    out[:dim, :dim] = linalg.from_spectrum(upper, V, fam.basis).entries
    out[dim:, dim:] = linalg.from_spectrum(lower, V, fam.basis).entries
    W = np.zeros((2 * dim, 2 * dim), dtype=V.dtype)
    W[:dim, :dim] = V
    W[dim:, dim:] = V
    system = _ascending(np.concatenate([upper, lower]), W)
    return TruncatedOperator(out, BasisSpec("one_sided", 2 * dim, 0), system)


def commutator_defect(fam, window_margins):
    """Max-norm defects of [ArcCos(C), N] - i Sigma, Sigma = sign(S), one per window margin.

    Each margin gives the interior window of `linalg.interior_window`;
    every margin is validated before anything is built, and the
    commutator is formed once for all of them.  This orientation (angle
    first) is the one the truncated model satisfies; the defect decays
    as the truncation grows at a fixed window.
    """
    if fam.basis.mode == "one_sided":
        raise DomainError("commutator defect needs a two_sided or cyclic basis")
    windows = [linalg.interior_window(fam.basis, margin) for margin in window_margins]
    angle = angle_upper(fam.C)
    dev = linalg.commutator(angle, fam.N) - 1j * linalg.sign_part(fam.S)
    return [linalg.op_norm_max(linalg.window_restrict(dev, lo, hi)) for lo, hi in windows]


def _rotated_cosine_system(C, theta):
    """Exact eigensystem of cos(theta) C - sin(theta) S, C of a shift family.

    Two-sided, the matrix is U(theta) C U(theta)* with U(theta) =
    diag(e^{i theta n}), so its eigenvectors are U(theta) V for those V
    of C, with C's eigenvalues.  Cyclic, it is circulant: DFT column k
    has eigenvalue cos(theta) cos(2 pi k/D) + sin(theta) sin(2 pi k/D),
    which is cos(2 pi k/D - theta).
    """
    if C.basis.mode == "cyclic":
        F, cos_k, sin_k = _dft_symbols(C.dim)
        return _ascending(math.cos(theta) * cos_k - math.sin(theta) * sin_k, F)
    phases = np.exp(1j * theta * C.basis.labels())
    return EigenSystem(C.eig.eigenvalues, phases[:, None] * C.eig.eigenvectors)


def covariance_flow(fam, theta):
    """Rotate the pair (C, S) by theta and rebuild the angle operator.

    The conjugation exp(i theta N) . exp(-i theta N) is computed both
    by linalg.rotate and with the closed forms
    cos(theta) C - sin(theta) S and cos(theta) S + sin(theta) C; the two
    must agree to 1e-10 on the interior window of margin max(1, dim // 4),
    else ConvergenceError.  The rotated angle operator is then formed
    from the closed-form cosine, which carries its exact eigensystem, so
    no eigensolver runs.
    """
    if fam.basis.mode == "one_sided":
        raise DomainError("covariance flow needs a two_sided or cyclic basis")
    ct, st = math.cos(theta), math.sin(theta)
    C_closed = TruncatedOperator((ct * fam.C - st * fam.S).entries, fam.basis,
                                 _rotated_cosine_system(fam.C, theta))
    S_closed = ct * fam.S + st * fam.C
    lo, hi = linalg.interior_window(fam.basis, max(1, fam.basis.dim // 4))
    for closed, op in ((C_closed, fam.C), (S_closed, fam.S)):
        dev = linalg.op_norm_max(linalg.window_restrict(closed - linalg.rotate(op, theta), lo, hi))
        if dev > 1e-10:
            raise ConvergenceError(
                f"covariance routes disagree by {dev:.3e} on interior window"
            )
    A_theta = angle_upper(C_closed)
    return C_closed, S_closed, A_theta

"""Dense complex Hermitian linear algebra on truncated operators.

The eigensolver is a Jacobi iteration with complex rotations in a fixed
round-robin order: each round rotates dim/2 disjoint index pairs at once
with elementwise numpy and no BLAS, so identical inputs give
bit-identical output on a given platform, whatever the BLAS thread
count.  Its eigenvalues are the Rayleigh quotients of the computed
eigenvectors against the input.  An operator whose construction gives
its eigensystem in closed form carries it (`TruncatedOperator.eig`), and
`hermitian_eig` returns that instead of solving.  Everything downstream
(spectral functional calculus, sign/polar parts, anti-Hermitian
exponentials) is built on `hermitian_eig`.  `chiral_eigenvalues` is the
eigenvalues-only route for matrices of the form center I + i K with K
real antisymmetric (the WH, circle and canonical angle matrices): it
verifies that structure, reduces K to tridiagonal form and bisects,
with no Jacobi solve and no BLAS call.  Rotation covariance under
U(theta) = diag(e^{i theta n}) lives here too, shared by both integral
quantizations and the checks: `rotate`, `diagonal_sums` and
`rotated_traces`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, ConvergenceError, DomainError

__all__ = [
    "BasisSpec",
    "TruncatedOperator",
    "EigenSystem",
    "hermitian_eig",
    "chiral_eigenvalues",
    "spectral_function",
    "from_spectrum",
    "sign_part",
    "anti_hermitian_exp",
    "commutator",
    "op_norm_max",
    "window_restrict",
    "interior_window",
    "rotate",
    "diagonal_sums",
    "rotated_traces",
]

_MODES = ("one_sided", "two_sided", "cyclic")
_MAX_SWEEPS = 60  # Jacobi sweeps before ConvergenceError
_REL_OFF_TOL = 1e-14  # Jacobi stops at off-diagonal Frobenius mass below this times ||M||_F


@dataclass(frozen=True)
class BasisSpec:
    """Indexing convention mapping abstract basis labels to matrix rows.

    one_sided labels 0..dim-1, two_sided labels offset..offset+dim-1
    (offset typically -dim//2), cyclic labels 0..dim-1 understood mod dim.
    """

    mode: str
    dim: int
    offset: int = 0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.dim < 1:
            raise DomainError(f"dim must be positive, got {self.dim}")
        if self.mode in ("one_sided", "cyclic") and self.offset != 0:
            raise DomainError(f"{self.mode} basis requires offset 0, got {self.offset}")

    def labels(self):
        return np.arange(self.offset, self.offset + self.dim)

    def row_of(self, label):
        if self.mode == "cyclic":
            return int(label) % self.dim
        row = int(label) - self.offset
        if not 0 <= row < self.dim:
            raise DomainError(f"label {label} outside basis range")
        return row


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues and the unitary matrix of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Dense complex square matrix plus the basis labelling its rows.

    eig, when set, is an exact eigensystem of the matrix known from its
    construction; `hermitian_eig` returns it instead of solving.  Every
    operation that builds a new operator (arithmetic, .H, `rotate`,
    `window_restrict`) leaves it unset.
    """

    entries: np.ndarray
    basis: BasisSpec
    eig: EigenSystem = None

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"entries must be square, got shape {mat.shape}")
        if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
            raise DomainError("entries contain non-finite values")
        if mat.shape[0] != self.basis.dim:
            raise DomainError(
                f"basis dim {self.basis.dim} does not match matrix dim {mat.shape[0]}"
            )
        if self.eig is not None and self.eig.eigenvectors.shape != mat.shape:
            raise DomainError(
                f"eigenvectors of shape {self.eig.eigenvectors.shape} for matrix {mat.shape}"
            )
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self):
        return self.basis.dim

    @property
    def H(self):
        return TruncatedOperator(self.entries.conj().T, self.basis)

    def __matmul__(self, other):
        _require_same_basis(self, other)
        return TruncatedOperator(self.entries @ other.entries, self.basis)

    def __add__(self, other):
        _require_same_basis(self, other)
        return TruncatedOperator(self.entries + other.entries, self.basis)

    def __sub__(self, other):
        _require_same_basis(self, other)
        return TruncatedOperator(self.entries - other.entries, self.basis)

    def __mul__(self, scalar):
        return TruncatedOperator(self.entries * scalar, self.basis)

    __rmul__ = __mul__


def _require_same_basis(a, b):
    if a.basis != b.basis:
        raise BasisMismatchError(f"basis mismatch: {a.basis} vs {b.basis}")


def from_matrix(entries, basis=None, mode="one_sided", offset=0):
    """Wrap a bare matrix, synthesizing a BasisSpec when none is given."""
    entries = np.asarray(entries, dtype=complex)
    if basis is None:
        basis = BasisSpec(mode, entries.shape[0], offset)
    return TruncatedOperator(entries, basis)


def op_norm_max(op):
    """Max absolute entry."""
    mat = op.entries if isinstance(op, TruncatedOperator) else np.asarray(op)
    return float(np.abs(mat).max()) if mat.size else 0.0


def _offdiag_frobenius(mat):
    off = mat.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def _round_robin(dim):
    """Pair schedule of one sweep: round-robin rounds of disjoint pairs p < q.

    Indices 0..n-1 (n = dim rounded up to even; the extra index is idle)
    sit on a ring with 0 fixed; each of the n-1 rounds pairs the i-th
    ring position with the (n-1-i)-th and then turns the ring by one.
    Every pair p < q meets exactly once per sweep.
    """
    n = dim + dim % 2
    ring = np.arange(1, n)
    rounds = []
    for turn in range(n - 1):
        order = np.concatenate(([0], np.roll(ring, turn)))
        a, b = order[: n // 2], order[::-1][: n // 2]
        keep = np.maximum(a, b) < dim
        rounds.append((np.minimum(a, b)[keep], np.maximum(a, b)[keep]))
    return rounds


def _rotate_rows(M, p, q, c, sph, sphc, work):
    """Rows p, q <- (c p - sph q, sphc p + c q) for every pair at once.

    work holds four scratch blocks of at least len(p) rows, so a round
    allocates no matrix-sized temporaries.
    """
    rp, rq, x, y = work[:, : len(p)]
    # the indices are in range; mode "clip" only skips take's buffered copy
    np.take(M, p, axis=0, out=rp, mode="clip")
    np.take(M, q, axis=0, out=rq, mode="clip")
    np.multiply(rp, c, out=x)
    np.multiply(rq, sph, out=y)
    M[p] = np.subtract(x, y, out=x)
    np.multiply(rq, c, out=x)
    np.multiply(rp, sphc, out=y)
    M[q] = np.add(x, y, out=x)


def hermitian_eig(op):
    """Eigendecomposition of a Hermitian operator.

    An operator that carries an exact eigensystem (`op.eig`) gets it
    back unchanged, with no solve: the shift family's C and S and the
    full angle built from them carry closed-form systems (see
    `halfcircle`).  On a 2-core x86 machine with one BLAS thread,
    `spectrum --construction halfcircle --dim 1024` then takes 1.1 s,
    and criterion 3's defect sweep up to D=512 0.5 s where the solves
    below took 95 s.

    Every other matrix goes to round-robin Jacobi sweeps, which give
    eigenvectors as well as eigenvalues for any Hermitian input.  When
    only the eigenvalues of a chiral matrix center I + i K are needed,
    `chiral_eigenvalues` is the faster route.  Each sweep
    runs the fixed round-robin schedule of `_round_robin` (Brent & Luk,
    SIAM J. Sci. Stat. Comput. 6 (1985) 69): n - 1 rounds
    for n = dim rounded up to even, each annihilating dim // 2 disjoint
    pivots at once (an odd dim leaves one index idle per round).  Every
    pivot (p, q) is removed by a phase rotation composed with a real
    Jacobi rotation; pivots with |A_pq| <= 1e-14 ||M||_F / dim are
    skipped.  A round applies all its rotations to the rows, then to
    the columns by rotating the rows of the conjugate transpose, with
    elementwise numpy only.  Sweeps stop once the off-diagonal Frobenius
    mass drops below 1e-14 ||M||_F (with a stagnation guard at the
    float64 rounding floor).

    The eigenvalues are the Rayleigh quotients Re(v^H M v) / (v^H v) of
    the computed eigenvectors against the input M, so an eigenvector
    whose image is exact gives an exact eigenvalue.  Output eigenvalues
    ascend; ties keep the index order of the diagonal, so the result is
    deterministic.

    Raises ConvergenceError when 60 sweeps do not converge, and
    DomainError for visibly non-Hermitian input.
    """
    if op.eig is not None:
        return op.eig
    mat = op.entries
    dim = op.dim
    scale = op_norm_max(op)
    if scale > 0 and op_norm_max(mat - mat.conj().T) > 1e-12 * scale:
        raise DomainError("hermitian_eig requires a Hermitian matrix")
    A = np.array(mat, dtype=complex)
    W = np.eye(dim, dtype=complex)  # V^H: the rotations act on its rows
    norm_f = float(np.linalg.norm(A))
    if norm_f == 0.0:
        return EigenSystem(np.zeros(dim), W)
    target = _REL_OFF_TOL * norm_f
    skip = target / dim
    floor = 1e-12 * norm_f
    prev_off = math.inf
    converged = False
    schedule = _round_robin(dim)
    spare = np.empty_like(A)
    work = np.empty((4, dim // 2, dim), dtype=complex)
    for _ in range(_MAX_SWEEPS):
        off = _offdiag_frobenius(A)
        if off <= target or (off >= prev_off and off <= floor):
            converged = True
            break
        prev_off = off
        for p, q in schedule:
            apq = A[p, q]
            r = np.abs(apq)
            live = r > skip
            if not live.all():
                p, q, apq, r = p[live], q[live], apq[live], r[live]
                if p.size == 0:
                    continue
            phase = apq / r
            tau = (A[q, q].real - A[p, p].real) / (2.0 * r)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            c = c[:, None]
            sph = (s * phase)[:, None]
            sphc = (s * phase.conj())[:, None]
            _rotate_rows(A, p, q, c, sph, sphc, work)
            _rotate_rows(W, p, q, c, sph, sphc, work)
            A, spare = np.conjugate(A.T, out=spare), A
            _rotate_rows(A, p, q, c, sph, sphc, work)
            A[p, q] = 0.0
            A[q, p] = 0.0
    if not converged:
        raise ConvergenceError(f"Jacobi did not converge in {_MAX_SWEEPS} sweeps (dim {dim})")
    w = np.einsum("ij,jk,ik->i", W, mat, W.conj()).real / np.einsum("ij,ij->i", W, W.conj()).real
    order = np.argsort(w, kind="stable")
    return EigenSystem(w[order], W.conj().T[:, order])


# The circle quantizer's diagonal is pi times a Gram diagonal, 2-5 ulp off pi.
CHIRAL_DIAG_ULPS = 16
_SECTIONS = 8  # multisection: 7 Sturm counts per interval and round
_ROUNDS = 18  # 8^18 = 2^54: the final width lies below the rounding of the bound


def chiral_eigenvalues(op, center):
    """Ascending eigenvalues of a matrix M = center I + i K, K real antisymmetric.

    The structure is verified first, and DomainError raised if it fails:
    the off-diagonal real part must be exactly 0, K + K^T (K the
    imaginary part) exactly 0, and the diagonal d within
    CHIRAL_DIAG_ULPS ulp of |center|.  The values returned are
    center + x_k for the spectrum x of i K, so by Weyl's inequality they
    lie within max|d - center| of the spectrum of M.

    K is reduced to antisymmetric tridiagonal form T = Q^T K Q by
    Householder reflectors (Ward & Gray, ACM TOMS 4 (1978) 278), whose
    spectrum under i is that of the zero-diagonal symmetric tridiagonal
    with off-diagonals |T_{k+1,k}|.  Its non-negative half is found by
    vectorised Sturm-count bisection (Barth, Martin & Wilkinson, Numer.
    Math. 9 (1967) 386), eight sections per round, and mirrored, so
    x_{D-1-k} == -x_k bit for bit and an odd D has the middle value
    exactly center.  All of it is elementwise numpy with no BLAS call, so
    the bits do not depend on the BLAS thread count.  Eigenvalues only:
    eigenvectors come from `hermitian_eig`.
    """
    mat = op.entries
    diag = mat.diagonal().real
    real_off = mat.real - np.diag(diag)
    K = mat.imag
    if np.any(real_off != 0.0):
        raise DomainError("chiral_eigenvalues needs a purely imaginary off-diagonal")
    if np.any(K + K.T != 0.0):
        raise DomainError("chiral_eigenvalues needs an antisymmetric imaginary part")
    drift = float(np.abs(diag - center).max())
    if drift > CHIRAL_DIAG_ULPS * np.spacing(abs(center)):
        raise DomainError(f"diagonal lies {drift:.3e} from center {center!r}")
    return center + _mirrored_spectrum(_antisymmetric_tridiagonal(K))


def _antisymmetric_tridiagonal(K):
    """Subdiagonal e of T = Q^T K Q, antisymmetric tridiagonal, for real antisymmetric K.

    Reflector H = I - beta v v^T sends the column below the diagonal to
    alpha e_1; on the trailing antisymmetric block B, H B H = B + v p^T - p v^T
    with p = beta B v, applied with elementwise products only.
    """
    S = np.array(K, dtype=float)
    dim = S.shape[0]
    e = np.zeros(max(dim - 1, 0))
    for k in range(dim - 2):
        x = S[k + 1:, k]
        norm = math.sqrt((x * x).sum())
        if norm == 0.0:
            continue  # the tridiagonal splits here
        alpha = -math.copysign(norm, x[0])
        v = x.copy()
        v[0] -= alpha
        beta = 1.0 / (norm * (norm + abs(x[0])))
        e[k] = alpha
        B = S[k + 1:, k + 1:]
        p = beta * (B * v).sum(axis=1)
        update = np.multiply.outer(v, p)
        update -= np.multiply.outer(p, v)
        B += update
    if dim >= 2:
        e[-1] = S[-1, -2]
    return e


def _mirrored_spectrum(e):
    """Ascending eigenvalues of the zero-diagonal symmetric tridiagonal with off-diagonals |e|.

    Locates the upper half only, every eigenvalue at once, starting from
    [0, g] with g = 2 max|e| the Gershgorin bound; the lower half is its
    mirror.  Each round splits every interval into _SECTIONS equal parts
    and keeps the one whose Sturm counts bracket the eigenvalue, so
    _ROUNDS rounds narrow it to g / 2^54.
    """
    dim = e.size + 1
    half = dim // 2
    upper = np.zeros(half)
    b2 = np.concatenate(([0.0], e * e))  # b2[i] = e_{i-1}^2, with e_{-1} = 0
    g = 2.0 * float(np.abs(e).max(initial=0.0))
    if half and g > 0.0:
        pivmin = np.finfo(float).tiny * max(1.0, float(b2.max()))
        index = np.arange(dim - half, dim)[:, None]
        fractions = np.arange(1, _SECTIONS) / _SECTIONS
        lo, width = np.zeros(half), g
        for _ in range(_ROUNDS):
            points = lo[:, None] + width * fractions
            counts = _sturm_counts(b2, points.ravel(), pivmin).reshape(points.shape)
            width /= _SECTIONS
            # eigenvalue j lies above every point with at most j eigenvalues <= it
            lo = lo + width * (counts <= index).sum(axis=1)
        upper = lo + 0.5 * width
    return np.concatenate([-upper[::-1], np.zeros(dim % 2), upper])


def _sturm_counts(b2, x, pivmin):
    """Number of eigenvalues <= x, for every x at once, of the tridiagonal of `_mirrored_spectrum`.

    The LDL^T pivots of T - x are d_0 = -x and d_i = -x - b2[i] / d_{i-1};
    the count is the number of pivots <= 0.  A pivot of magnitude below
    pivmin is replaced by -pivmin before its sign is counted (LAPACK
    dstebz), so a zero pivot counts as non-positive and the next one
    stays finite.
    """
    pivots = np.ones((b2.size + 1, x.size))  # row 0 is a positive d_{-1}, never counted
    small = np.empty(x.size, dtype=bool)
    minus_x = -x
    for i, q in enumerate(b2):
        d = pivots[i + 1]
        np.divide(q, pivots[i], out=d)
        np.subtract(minus_x, d, out=d)
        np.less(d, pivmin, out=small)
        np.minimum(d, -pivmin, out=d, where=small)  # (-pivmin, pivmin) -> -pivmin
    return (pivots <= 0.0).sum(axis=0)


def spectral_function(op, f):
    """Apply a real function to a Hermitian operator through its spectrum.

    Computes V f(Lambda) V^H from `hermitian_eig(op)` and symmetrizes the
    product, which keeps the output Hermitian to rounding.  An operator
    that carries its eigensystem (`TruncatedOperator.eig`) is not solved.
    """
    es = hermitian_eig(op)
    fvals = np.array([f(lam) for lam in es.eigenvalues], dtype=float)
    return from_spectrum(fvals, es.eigenvectors, op.basis)


def from_spectrum(values, vectors, basis):
    """The Hermitian operator V diag(values) V^H, symmetrized to rounding.

    One matrix product; real eigenvectors keep it a real product.
    """
    out = (vectors * values) @ vectors.conj().T
    return TruncatedOperator((out + out.conj().T) / 2.0, basis)


def sign_part(op):
    """Spectral sign with a dead zone: 0 on |lambda| <= 1e-8 max|entry|, else +-1.

    The dead zone separates the true kernel from rounding noise.  The
    output satisfies Sigma = Sigma^3.
    """
    zero_tol = 1e-8 * op_norm_max(op)

    def thresholded_sign(lam):
        if abs(lam) <= zero_tol:
            return 0.0
        return 1.0 if lam > 0 else -1.0

    return spectral_function(op, thresholded_sign)


def anti_hermitian_exp(op):
    """Unitary exponential of an anti-Hermitian operator.

    Diagonalizes the Hermitian matrix -iG and exponentiates i*lambda on
    the spectrum, so the result is unitary to the eigensolver tolerance.
    """
    scale = op_norm_max(op)
    if scale > 0:
        defect = op_norm_max(op.entries + op.entries.conj().T)
        if defect > 1e-12 * scale:
            raise DomainError("anti_hermitian_exp requires G^H = -G")
    herm = TruncatedOperator(-1j * op.entries, op.basis)
    es = hermitian_eig(herm)
    out = (es.eigenvectors * np.exp(1j * es.eigenvalues)) @ es.eigenvectors.conj().T
    return TruncatedOperator(out, op.basis)


def commutator(a, b):
    """AB - BA on a shared basis."""
    _require_same_basis(a, b)
    return TruncatedOperator(a.entries @ b.entries - b.entries @ a.entries, a.basis)


def window_restrict(op, lo, hi):
    """Principal submatrix over basis labels in [lo, hi] inclusive."""
    labels = op.basis.labels()
    keep = np.where((labels >= lo) & (labels <= hi))[0]
    if keep.size == 0:
        raise DomainError(f"window [{lo}, {hi}] selects no labels")
    sub = op.entries[np.ix_(keep, keep)]
    mode = "two_sided" if op.basis.mode == "two_sided" else "one_sided"
    if mode == "one_sided" and int(labels[keep[0]]) != 0:
        mode = "two_sided"
    basis = BasisSpec(mode, keep.size, int(labels[keep[0]]) if mode == "two_sided" else 0)
    return TruncatedOperator(sub, basis)


def interior_window(basis, margin):
    """Label window [offset + margin, offset + dim - 1 - margin], for `window_restrict`."""
    if margin < 0 or 2 * margin >= basis.dim:
        raise DomainError(f"margin {margin} leaves no interior for dim {basis.dim}")
    lo = basis.offset + margin
    hi = basis.offset + basis.dim - 1 - margin
    return lo, hi


def rotate(op, theta):
    """U(theta) A U(theta)*, U(theta) = diag(e^{i theta n}) on the basis labels n.

    Entry (m, n) takes the phase e^{i theta (m - n)}; theta = pi is parity.
    """
    phases = np.exp(1j * theta * op.basis.labels())
    return TruncatedOperator((phases[:, None] * op.entries) * phases.conj()[None, :], op.basis)


def diagonal_sums(M, A):
    """s_d = sum_{m-n=d} M_mn A_nm of two arrays, at index d + dim - 1.

    Then tr(U(a) M U(a)* A) = sum_d e^{i a d} s_d for every angle a.
    """
    dim = M.shape[0]
    index = (np.subtract.outer(np.arange(dim), np.arange(dim)) + (dim - 1)).ravel()
    MA = (M * A.T).ravel()
    return np.bincount(index, MA.real) + 1j * np.bincount(index, MA.imag)


def rotated_traces(s_d, angles):
    """sum_d e^{i a d} s_d for every angle a, from the diagonal sums s_d."""
    dim = (len(s_d) + 1) // 2
    d = np.arange(-(dim - 1), dim)
    phases = np.exp(1j * np.outer(np.asarray(angles, dtype=float), d))
    return (phases * s_d).sum(axis=1)

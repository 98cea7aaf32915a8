"""Dense complex Hermitian linear algebra on truncated operators.

The eigensolver reduces a Hermitian matrix to real symmetric
tridiagonal form with Householder reflectors, finds every eigenvalue by
Sturm-count multisection and every eigenvector by inverse iteration on
L D L^T factors, all with elementwise numpy and no BLAS, so identical
inputs give bit-identical output on a given platform, whatever the BLAS
thread count.  Its eigenvalues are the Rayleigh quotients of the computed
eigenvectors against the input.  An operator whose construction gives
its eigensystem in closed form carries it (`TruncatedOperator.eig`), and
`hermitian_eig` returns that instead of solving.  Everything downstream
(spectral functional calculus, sign/polar parts, anti-Hermitian
exponentials) is built on `hermitian_eig`.  `chiral_eigenvalues` is the
eigenvalues-only route for matrices of the form c I + i K with K real
antisymmetric (the WH, circle and canonical angle matrices): it
verifies that structure, reads c from the diagonal, reduces K to
tridiagonal form with the same Householder kernel, run in real
arithmetic, and bisects with the same Sturm-count kernel, with no
eigenvector solve and no BLAS call.  `gauss_rule` turns the Jacobi
matrix of a weight into its Gauss quadrature rule with the same
Sturm-count kernel, so no quadrature on the product path calls LAPACK.
Rotation covariance under
U(theta) = diag(e^{i theta n}) lives here too, shared by both integral
quantizations and the checks: `rotate`, `diagonal_sums` and
`rotated_traces`, and `quantize_modes`, the one per-diagonal
quantization kernel of the plane and the cylinder, with no BLAS call.
`fill_diagonals`, the one band builder, writes every shift, Toeplitz and
circulant matrix and both quantization maps, wrapped on a cyclic basis.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, ConvergenceError, DomainError

__all__ = [
    "BasisSpec",
    "TruncatedOperator",
    "EigenSystem",
    "from_matrix",
    "hermitian_eig",
    "chiral_eigenvalues",
    "gauss_rule",
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
    "integer_modes",
    "quantize_modes",
    "fill_diagonals",
    "rotated_traces",
]

_MODES = ("one_sided", "two_sided", "cyclic")
_SECTIONS = 8  # multisection: 7 Sturm counts per interval and round
_ROUNDS = 18  # 8^18 = 2^54: the final width lies below the rounding of the bound
_INVERSE_STEPS = 3  # inverse-iteration steps, then the residual is checked
_CLUSTER_GAP = 1e-3  # eigenvalues within this times ||T||_1 are reorthogonalised together
_GAUSS_ROUNDS = 6  # gauss_rule: width / 8^6, below the Laguerre rules' smallest node gap through n = 160
_NEWTON_STEPS = 4  # then Newton steps from the bracket midpoints reach the rounding floor


@dataclass(frozen=True)
class BasisSpec:
    """Indexing convention mapping abstract basis labels to matrix rows.

    one_sided labels 0..dim-1, two_sided labels offset..offset+dim-1
    (offset -dim//2 unless given), cyclic labels 0..dim-1 understood mod dim.
    """

    mode: str
    dim: int
    offset: int = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if not isinstance(self.dim, numbers.Integral):
            raise DomainError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise DomainError(f"dim must be positive, got {self.dim}")
        if self.offset is None:
            object.__setattr__(self, "offset", -self.dim // 2 if self.mode == "two_sided" else 0)
        if not isinstance(self.offset, numbers.Integral):
            raise DomainError(f"offset must be an integer, got {self.offset!r}")
        if self.mode in ("one_sided", "cyclic") and self.offset != 0:
            raise DomainError(f"{self.mode} basis requires offset 0, got {self.offset}")

    def labels(self):
        return np.arange(self.offset, self.offset + self.dim)


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


def from_matrix(entries, basis=None):
    """Wrap a bare matrix; the basis defaults to one_sided of the matrix's size."""
    entries = np.asarray(entries, dtype=complex)
    return TruncatedOperator(entries, basis or BasisSpec("one_sided", entries.shape[0]))


def op_norm_max(op):
    """Max absolute entry."""
    mat = op.entries if isinstance(op, TruncatedOperator) else np.asarray(op)
    return float(np.abs(mat).max()) if mat.size else 0.0


def hermitian_eig(op):
    """Eigendecomposition of a Hermitian operator.

    An operator that carries an exact eigensystem (`op.eig`) gets it
    back unchanged, with no solve: the shift family's C and S and the
    full angle built from them carry closed-form systems (see
    `halfcircle`).  When only the eigenvalues of a chiral matrix
    c I + i K are needed, `chiral_eigenvalues` is the faster route.

    Every other matrix M is solved as (M + M^H) / (2 max|M_mn|) in four
    stages, all elementwise numpy with no BLAS call:

    1. Householder reflectors reduce it to a tridiagonal matrix with
       complex subdiagonal t (`_householder_tridiagonal`, the reduction
       `chiral_eigenvalues` runs too), and the diagonal phases
       phase_0 = 1, phase_{k+1} = phase_k t_k / |t_k| make that real
       symmetric with off-diagonals e_k = |t_k|;
    2. T splits into unreduced blocks where e_k == 0, and Sturm-count
       multisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)
       386) finds every eigenvalue of each block from its Gershgorin
       interval (`_multisection`);
    3. inverse iteration (Peters & Wilkinson, Handbook for Automatic
       Computation II (1971)), run at all shifts of a block at once on
       the L D L^T factors of T - shift, gives the block's eigenvectors
       (`_block_vectors`);
    4. the phases and reflectors carry them back to eigenvectors of M.

    A diagonal M splits into 1 x 1 blocks and gets exact unit vectors.
    The eigenvalues are the Rayleigh quotients Re(v^H M v) / (v^H v) of
    the computed eigenvectors against the input M, so an eigenvector
    whose image is exact gives an exact eigenvalue.  Output eigenvalues
    ascend; ties keep the order of the blocks and of the diagonal, so
    the result is deterministic.

    Raises ConvergenceError when an eigenvector misses its tridiagonal
    residual bound after _INVERSE_STEPS steps, and DomainError for
    visibly non-Hermitian input.
    """
    if op.eig is not None:
        return op.eig
    mat = op.entries
    dim = op.dim
    scale = op_norm_max(op)
    if scale > 0 and op_norm_max(mat - mat.conj().T) > 1e-12 * scale:
        raise DomainError("hermitian_eig requires a Hermitian matrix")
    if scale == 0.0:
        return EigenSystem(np.zeros(dim), np.eye(dim, dtype=complex))
    d, t, reflectors = _householder_tridiagonal((mat + mat.conj().T) / (2.0 * scale))
    e = np.abs(t)
    unit = np.ones_like(t)
    np.divide(t, e, out=unit, where=e > 0.0)
    phases = np.concatenate(([1.0 + 0j], np.cumprod(unit)))
    Z = np.zeros((dim, dim))
    cuts = np.concatenate(([0], np.flatnonzero(e == 0.0) + 1, [dim]))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        Z[lo:hi, lo:hi] = _block_vectors(d[lo:hi], e[lo:hi - 1])
    V = phases[:, None] * Z
    for k, v, beta in reversed(reflectors):
        rows = V[k + 1:]
        rows -= np.multiply.outer(beta * v, np.einsum("i,ij->j", v.conj(), rows))
    w = np.einsum("ji,jk,ki->i", V.conj(), mat, V).real / np.einsum("ji,ji->i", V.conj(), V).real
    order = np.argsort(w, kind="stable")
    return EigenSystem(w[order], V[:, order])


def _householder_tridiagonal(A):
    """Tridiagonal (d, t) similar to A, complex Hermitian or real antisymmetric, and its reflectors.

    The dtype says which: a complex A is Hermitian and a real A
    antisymmetric, reduced in real arithmetic.  Reflector k,
    H = I - beta v v^H on rows and columns k + 1.., sends the column below
    the diagonal to t_k e_1, |t_k| its norm; on the trailing block B,
    H B H = B - mirror v q^H - q v^H with p = beta B v,
    q = p - (beta / 2)(v^H p) v and B^H = mirror B (mirror = -1 for the
    antisymmetric A, where q's correction cancels).  The column is first
    scaled by a power of two to max|x| in [1/2, 1), so its squared norm
    cannot underflow and beta cannot overflow (LAPACK dlarfg rescales for
    the same reason), and the scaling rounds nothing.  A column that is
    already zero is skipped, so t_k == 0 exactly there.  Returns the
    diagonal, the subdiagonal t (complex for a complex A) and the
    reflectors (k, v, beta) in the order applied: A = Q T Q^H for Q their
    product.
    """
    B = np.array(A)
    mirror = 1.0 if np.iscomplexobj(B) else -1.0
    dim = B.shape[0]
    t = np.zeros(max(dim - 1, 0), dtype=B.dtype)
    reflectors = []
    for k in range(dim - 2):
        big = float(np.abs(B[k + 1:, k]).max())
        if big == 0.0:
            continue  # the tridiagonal splits here
        scale = math.ldexp(1.0, -max(math.frexp(big)[1], -1022))
        v = B[k + 1:, k] * scale
        norm = math.sqrt((v.real * v.real + v.imag * v.imag).sum())
        lead = abs(v[0])
        alpha = -(v[0] / lead if lead else 1.0) * norm
        t[k] = alpha / scale
        v[0] -= alpha
        beta = 1.0 / (norm * (norm + lead))
        sub = B[k + 1:, k + 1:]
        p = beta * np.einsum("ij,j->i", sub, v)
        q = p - (0.5 * beta * np.einsum("i,i->", v.conj(), p).real) * v
        update = np.multiply.outer(v, mirror * q.conj())
        update += np.multiply.outer(q, v.conj())  # exactly (anti-)Hermitian, so B stays so
        sub -= update
        reflectors.append((k, v, beta))
    if dim >= 2:
        t[-1] = B[-1, -2]
    return B.diagonal().real.copy(), t, reflectors


def _block_vectors(d, e):
    """Orthonormal eigenvector columns of the unreduced symmetric tridiagonal (d, e).

    The shifts are the block's eigenvalues from `_multisection`, each
    raised to at least 10 eps |lambda| above the one before (LAPACK
    dstein), so coincident eigenvalues away from 0 get distinct shifts;
    the raise is relative, so a long run of eigenvalues within eps ||T||_1
    of 0 cannot push its shifts past the eigenvalues above it.  Each of
    _INVERSE_STEPS steps solves (T - shift) x = b for all shifts at once
    with one L D L^T factorization each (`_shifted_ldl`), starting
    from fixed pseudorandom vectors, orthonormalises with modified
    Gram-Schmidt inside each cluster of eigenvalues at most
    _CLUSTER_GAP ||T||_1 apart (the gap rule of LAPACK dstein) and
    normalizes the rest.  Every column must then have
    ||T x - lambda x||_inf <= 4 dim eps ||T||_1, else ConvergenceError.
    """
    dim = d.size
    if dim == 1:
        return np.ones((1, 1))
    eps = np.finfo(float).eps
    radius = np.concatenate(([0.0], e)) + np.concatenate((e, [0.0]))
    norm = float((np.abs(d) + radius).max())
    lo = float((d - radius).min())
    lam = _multisection(d, e, np.arange(dim), lo, float((d + radius).max()) - lo)
    ramp = np.cumsum(10.0 * eps * np.abs(lam))
    piv, mult = _shifted_ldl(d, e, np.maximum.accumulate(lam - ramp) + ramp, eps * norm)
    cuts = np.flatnonzero(np.diff(lam) > _CLUSTER_GAP * norm) + 1
    clusters = [(a, b) for a, b in zip(np.r_[0, cuts], np.r_[cuts, dim]) if b - a > 1]
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (dim, dim))
    for _ in range(_INVERSE_STEPS):
        for k in range(1, dim):  # L^{-1}, then diag(piv)^{-1}, then L^{-T}
            X[k] -= mult[k - 1] * X[k - 1]
        X /= piv
        for k in range(dim - 2, -1, -1):
            X[k] -= mult[k] * X[k + 1]
        for a, b in clusters:
            for j in range(a, b - 1):
                X[:, j] /= math.sqrt((X[:, j] * X[:, j]).sum())
                X[:, j + 1:b] -= np.multiply.outer(X[:, j], (X[:, j:j + 1] * X[:, j + 1:b]).sum(axis=0))
        X /= np.sqrt((X * X).sum(axis=0))
    resid = d[:, None] * X - lam * X
    resid[:-1] += e[:, None] * X[1:]
    resid[1:] += e[:, None] * X[:-1]
    worst = float(np.abs(resid).max()) / (eps * norm)
    if not worst <= 4 * dim:
        raise ConvergenceError(
            f"inverse iteration left a residual of {worst:.3g} eps ||T|| after "
            f"{_INVERSE_STEPS} steps (block of {dim})"
        )
    return X


def _shifted_ldl(d, e, shifts, tiny):
    """T - s I = L diag(piv) L^T, L unit lower bidiagonal, for every shift s at once.

    The pivots run the recurrence of `_sturm_counts` with no pivoting:
    piv_0 = d_0 - s, mult_k = e_k / piv_k, piv_{k+1} = (d_{k+1} - s) - mult_k e_k.
    A pivot below tiny in magnitude becomes +-tiny as it is formed
    (LAPACK dlagts), so an exact shift stays solvable.  Arrays are
    (row, shift); mult[k] is L's entry below piv[k].
    """
    piv = np.subtract.outer(d, shifts)
    mult = np.empty((d.size - 1, shifts.size))
    for k in range(d.size):
        np.copysign(np.maximum(np.abs(piv[k]), tiny), piv[k], out=piv[k])
        if k + 1 < d.size:
            np.divide(e[k], piv[k], out=mult[k])
            piv[k + 1] -= mult[k] * e[k]
    return piv, mult


def chiral_eigenvalues(op):
    """Ascending eigenvalues of a matrix M = c I + i K, K real antisymmetric.

    The structure is verified first, and DomainError raised if it fails:
    the off-diagonal real part must be exactly 0, K + K^T (K the
    imaginary part) exactly 0, and the diagonal exactly uniform, its
    value the center c.  The values returned are c + x_k for the
    spectrum x of i K.

    K is reduced to antisymmetric tridiagonal form T = Q^T K Q by
    Householder reflectors (Ward & Gray, ACM TOMS 4 (1978) 278), in real
    arithmetic by the kernel that reduces `hermitian_eig`'s input
    (`_householder_tridiagonal`); T's
    spectrum under i is that of the zero-diagonal symmetric tridiagonal
    with off-diagonals |T_{k+1,k}|.  Its non-negative half is found by
    vectorised Sturm-count bisection (Barth, Martin & Wilkinson, Numer.
    Math. 9 (1967) 386), eight sections per round, and mirrored, so
    x_{D-1-k} == -x_k bit for bit and an odd D has the middle value
    exactly c.  All of it is elementwise numpy with no BLAS call, so
    the bits do not depend on the BLAS thread count.  Eigenvalues only:
    eigenvectors come from `hermitian_eig`.
    """
    mat = op.entries
    diag = mat.diagonal().real
    K = mat.imag
    if np.any(mat.real - np.diag(diag) != 0.0):
        raise DomainError("chiral_eigenvalues needs a purely imaginary off-diagonal")
    if np.any(K + K.T != 0.0):
        raise DomainError("chiral_eigenvalues needs an antisymmetric imaginary part")
    if np.any(diag != diag[0]):
        raise DomainError(f"diagonal spans [{diag.min():.17g}, {diag.max():.17g}], not one center")
    return diag[0] + _mirrored_spectrum(_householder_tridiagonal(K)[1])


def _mirrored_spectrum(e):
    """Ascending eigenvalues of the zero-diagonal symmetric tridiagonal with off-diagonals |e|.

    Locates the upper half only, from [0, g] with g = 2 max|e| the
    Gershgorin bound; the lower half is its mirror.
    """
    dim = e.size + 1
    half = dim // 2
    upper = np.zeros(half)
    g = 2.0 * float(np.abs(e).max(initial=0.0))
    if half and g > 0.0:
        upper = _multisection(np.zeros(dim), e, np.arange(dim - half, dim), 0.0, g)
    return np.concatenate([-upper[::-1], np.zeros(dim % 2), upper])


def _multisection(d, e, index, lo, width, rounds=_ROUNDS):
    """Eigenvalues number `index` (from 0, ascending) of the symmetric tridiagonal (d, e).

    Each lies in [lo, lo + width], lo a number or one per index, and all
    are found at once: each
    round splits every interval into _SECTIONS equal parts and keeps the
    one whose Sturm counts bracket the eigenvalue, so the default _ROUNDS
    rounds narrow it to width / 2^54.  The midpoint of each final
    interval is returned.
    """
    b2 = np.concatenate(([0.0], e * e))  # b2[i] = e_{i-1}^2, with e_{-1} = 0
    pivmin = np.finfo(float).tiny * max(1.0, float(b2.max()))
    index = index[:, None]
    fractions = np.arange(1, _SECTIONS) / _SECTIONS
    lo = np.full(index.size, lo)
    for _ in range(rounds):
        points = lo[:, None] + width * fractions
        counts = _sturm_counts(d, b2, points.ravel(), pivmin).reshape(points.shape)
        width /= _SECTIONS
        # eigenvalue j lies above every point with at most j eigenvalues <= it
        lo = lo + width * (counts <= index).sum(axis=1)
    return lo + 0.5 * width


def _sturm_counts(d, b2, x, pivmin):
    """Number of eigenvalues <= x, for every x at once, of the tridiagonal with diagonal d.

    The LDL^T pivots of T - x are p_0 = d_0 - x and
    p_i = (d_i - b2[i] / p_{i-1}) - x; the count is the number of pivots
    <= 0.  A pivot below pivmin is replaced by -pivmin before its sign is
    counted (LAPACK dstebz), so a zero pivot counts as non-positive and
    the next one stays finite.  Only the last pivot row is kept.
    """
    prev = np.ones(x.size)  # a positive p_{-1}, never counted
    piv = np.empty(x.size)
    small = np.empty(x.size, dtype=bool)
    count = np.zeros(x.size, dtype=np.intp)
    for di, q in zip(d.tolist(), b2.tolist()):
        np.divide(q, prev, out=piv)
        np.subtract(di, piv, out=piv)
        np.subtract(piv, x, out=piv)
        np.less(piv, pivmin, out=small)
        np.minimum(piv, -pivmin, out=piv, where=small)  # (-pivmin, pivmin) -> -pivmin
        count += small  # after the replacement, exactly these pivots are <= 0
        prev, piv = piv, prev
    return count


def gauss_rule(d, e, log_mu0):
    """Nodes and log weights of the n-point Gauss rule of a weight with Jacobi matrix (d, e).

    Golub & Welsch, Math. Comp. 23 (1969) 221: the orthonormal
    polynomials of a weight of mass mu_0 = exp(log_mu0) satisfy
    e_k p_{k+1} = (x - d_k) p_k - e_{k-1} p_{k-1}, and the rule's nodes
    are the eigenvalues of the symmetric tridiagonal (d, e), n = d.size.
    Sturm counts on a grid of _SECTIONS^3 cells of the Gershgorin
    interval place every node in its cell at once, where three rounds of
    `_multisection` would count the same points for every node; its
    remaining _GAUSS_ROUNDS - 3 rounds bracket each node, and
    _NEWTON_STEPS Newton steps on p_n, run by the recurrence and held
    inside the bracket, polish it.  The weight of node x is the
    Christoffel number mu_0 / sum_{k<n} p_k(x)^2, p_0 = 1, returned as
    its log, so a weight below the smallest double keeps its digits.  All
    of it is elementwise numpy with no LAPACK call.  Nodes ascend.
    """
    index = np.arange(d.size)
    radius = np.concatenate(([0.0], e)) + np.concatenate((e, [0.0]))
    lo = float((d - radius).min())
    width = float((d + radius).max()) - lo
    shared = 3  # rounds whose section points are the same for every node
    b2 = np.concatenate(([0.0], e * e))
    cells = _SECTIONS**shared
    grid = lo + width * np.arange(1, cells) / cells
    counts = _sturm_counts(d, b2, grid, np.finfo(float).tiny * max(1.0, float(b2.max())))
    width /= cells
    start = lo + width * (counts <= index[:, None]).sum(axis=1)
    x = _multisection(d, e, index, start, width, _GAUSS_ROUNDS - shared)
    half = 0.5 * width / _SECTIONS ** (_GAUSS_ROUNDS - shared)
    low, high = x - half, x + half
    for _ in range(_NEWTON_STEPS):
        p, dp, _ = _orthonormal_sweep(d, e, x)
        x = np.clip(x - p / dp, low, high)
    return x, log_mu0 - _orthonormal_sweep(d, e, x)[2]


def _orthonormal_sweep(d, e, x):
    """p_n(x) up to a constant factor, its derivative, and log sum_{k<n} p_k(x)^2, for every x at once.

    The recurrence of `gauss_rule` runs along k with p_0 = 1; its last
    step, which has no e_{n-1}, gives e_{n-1} p_n.  Whenever |p_k| passes
    1e100 at a node, that node's values and partial sum are divided by
    it and its log is kept, like `whquant._radial_fill`'s rescaling, so
    nothing overflows: a Laguerre sum grows like e^x.
    """
    inv = 1.0 / np.concatenate((e, [1.0]))  # 1 / e_k
    ratio = np.concatenate(([0.0], e)) * inv  # e_{k-1} / e_k, with e_{-1} = 0
    shift = (x - d[:, None]) * inv[:, None]  # (x - d_k) / e_k
    p_prev, p = np.zeros(x.size), np.ones(x.size)
    dp_prev, dp = np.zeros(x.size), np.zeros(x.size)
    total, scale_ln = np.zeros(x.size), np.zeros(x.size)
    for k in range(d.size):
        total += p * p
        p_next = shift[k] * p - ratio[k] * p_prev
        dp_next = shift[k] * dp + inv[k] * p - ratio[k] * dp_prev
        p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
        mag = np.abs(p)
        if mag.max() > 1e100:
            div = np.where(mag > 1e100, mag, 1.0)
            for v in (p_prev, p, dp_prev, dp):
                v /= div
            total /= div * div
            scale_ln += np.log(div)
    return p, dp, np.log(total) + 2.0 * scale_ln


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
    first = int(labels[keep[0]])
    mode = "one_sided" if op.basis.mode != "two_sided" and first == 0 else "two_sided"
    return TruncatedOperator(op.entries[np.ix_(keep, keep)], BasisSpec(mode, keep.size, first))


def interior_window(basis, margin):
    """Label window [offset + margin, offset + dim - 1 - margin], for `window_restrict`."""
    if not isinstance(margin, numbers.Integral):
        raise DomainError(f"margin must be an integer, got {margin!r}")
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


def integer_modes(fourier):
    """The Fourier map {q: c_q} keyed by int(q); DomainError for a mode q that is not integral."""
    out = {}
    for q, c in fourier.items():
        if not (isinstance(q, numbers.Real) and float(q).is_integer()):
            raise DomainError(f"Fourier mode {q!r} is not an integer")
        out[int(q)] = c
    return out


def quantize_modes(fourier, frames, basis):
    """Quantize f = sum_q c_q(J) e^{i q a} from real frames: mode q fills diagonal q alone.

    fourier maps q to c_q, a number or a callable of J (else DomainError);
    q must be integral (`integer_modes`).
    frames yields blocks (J, w, F): action nodes, weights and real frames
    at angle 0, F[:, i, :] of shape (dim, cols) at node J[i].  States at
    angle a are U(a) F, so the angle integral is exact: entry (n, n - q)
    is sum_i w_i c_q(J_i) (F_i F_i^T)_{n, n-q}, modes |q| >= dim drop, and
    frames is not read when none is left.  Every mode integrates its own
    diagonal, elementwise with no BLAS call, for `fill_diagonals` to
    write, so a number and its constant callable give the same bits.
    The adjoint is `diagonal_sums`:
    tr(quantize_modes({q: c}) A) = sum_i w_i c(J_i) s_q(F_i F_i^T, A).
    """
    for q, c in fourier.items():
        if not (isinstance(c, numbers.Number) or callable(c)):
            raise DomainError(f"c_{q} must be a number or a callable of J, got {c!r}")
    dim = basis.dim
    modes = {q: c for q, c in integer_modes(fourier).items() if abs(q) < dim}
    sums = dict.fromkeys(modes, 0.0)
    for J, w, F in frames if modes else ():
        for q, c in modes.items():
            lo, hi = max(0, q), min(dim, dim + q)
            cw = w * (np.array([c(x) for x in J.tolist()]) if callable(c) else c)
            FF = np.einsum("ikc,ikc->ik", F[lo:hi], F[lo - q : hi - q])
            sums[q] = sums[q] + (FF * cw).sum(axis=1)  # pairwise over the nodes
    return fill_diagonals(sums, basis)


def fill_diagonals(sums, basis):
    """The matrix on basis with each s_q of sums added in turn on diagonal n - n' = q.

    s_q is a number or the diagonal's values: D of them on a cyclic basis,
    where diagonal q wraps mod D, else D - |q|, and |q| >= D drops out.
    """
    dim = basis.dim
    out = np.zeros((dim, dim), dtype=complex)
    cyclic = basis.mode == "cyclic"
    for q, s in sums.items():
        rows = np.arange(dim) if cyclic else np.arange(max(0, q), min(dim, dim + q))
        out[rows, (rows - q) % dim] += s
    return out


def rotated_traces(s_d, angles):
    """sum_d e^{i a d} s_d for every angle a, from the diagonal sums s_d."""
    dim = (len(s_d) + 1) // 2
    d = np.arange(-(dim - 1), dim)
    phases = np.exp(1j * np.outer(np.asarray(angles, dtype=float), d))
    return (phases * s_d).sum(axis=1)

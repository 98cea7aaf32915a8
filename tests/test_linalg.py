import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anglekit import circlecs, linalg, specfun, whquant
from anglekit.errors import BasisMismatchError, ConvergenceError, DomainError
from anglekit.linalg import (
    BasisSpec,
    TruncatedOperator,
    anti_hermitian_exp,
    chiral_eigenvalues,
    commutator,
    diagonal_sums,
    from_matrix,
    hermitian_eig,
    op_norm_max,
    rotate,
    rotated_traces,
    sign_part,
    spectral_function,
    window_restrict,
)
from conftest import random_hermitian


def cyclic_cosine(dim):
    """C = (U + U*)/2 for the cyclic shift; eigenvalues cos(2 pi k / dim)."""
    U = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        U[(col + 1) % dim, col] = 1.0
    return from_matrix((U + U.conj().T) / 2.0, mode="cyclic")


# --------------------------------------------------------------- types

def test_basis_spec_validation():
    with pytest.raises(DomainError):
        BasisSpec("sideways", 4)
    with pytest.raises(DomainError):
        BasisSpec("one_sided", 4, offset=1)
    with pytest.raises(DomainError):
        BasisSpec("cyclic", 0)
    spec = BasisSpec("two_sided", 6, -3)
    assert list(spec.labels()) == [-3, -2, -1, 0, 1, 2]


def test_operator_requires_square_finite():
    with pytest.raises(DomainError):
        from_matrix(np.ones((2, 3)))
    with pytest.raises(DomainError):
        from_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(DomainError):
        TruncatedOperator(np.eye(3), BasisSpec("one_sided", 4))


# ----------------------------------------------------------- eigensolve

def test_eig_diagonal_permutation():
    es = hermitian_eig(from_matrix(np.diag([3.0, 1.0, 2.0])))
    assert np.allclose(es.eigenvalues, [1.0, 2.0, 3.0])
    # columns are the permutation sending sorted values to their slots
    assert np.allclose(np.abs(es.eigenvectors), np.eye(3)[:, [1, 2, 0]])


def test_eig_pauli_x():
    es = hermitian_eig(from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert np.allclose(es.eigenvalues, [-1.0, 1.0])


def test_eig_cyclic_cosine_spectrum():
    # independent oracle: circulant spectrum {cos(2 pi k / 4)} = {1, 0, -1, 0}
    oracle = sorted(math.cos(2.0 * math.pi * k / 4.0) for k in range(4))
    es = hermitian_eig(cyclic_cosine(4))
    assert np.allclose(es.eigenvalues, oracle, atol=1e-12)


def test_eig_reconstruction_and_unitarity():
    # odd 65 leaves one index idle in every round-robin round
    for dim in (96, 65):
        op = from_matrix(random_hermitian(dim, seed=7))
        es = hermitian_eig(op)
        recon = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
        scale = op_norm_max(op)
        assert np.abs(recon - op.entries).max() <= 1e-10 * scale
        eye = np.eye(dim)
        assert np.abs(es.eigenvectors.conj().T @ es.eigenvectors - eye).max() <= 1e-11
        resid = op.entries @ es.eigenvectors - es.eigenvectors * es.eigenvalues
        assert np.abs(resid).max() <= 1e-10 * scale


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2 ** 31))
def test_eig_values_match_lapack_oracle(dim, seed):
    mat = random_hermitian(dim, seed)
    ours = hermitian_eig(from_matrix(mat)).eigenvalues
    lapack = np.linalg.eigvalsh(mat)
    assert np.abs(ours - lapack).max() <= 1e-11 * max(1.0, np.abs(lapack).max())


def test_eig_rejects_non_hermitian():
    with pytest.raises(DomainError):
        hermitian_eig(from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_eig_raises_when_sweeps_run_out(monkeypatch):
    # one sweep cannot clear a dense 24x24 matrix, and 60 sweeps can
    op = from_matrix(random_hermitian(24, seed=99))
    hermitian_eig(op)
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError, match="1 sweeps"):
        hermitian_eig(op)


def test_eig_deterministic_repeat():
    mat = random_hermitian(24, seed=99)
    a = hermitian_eig(from_matrix(mat))
    b = hermitian_eig(from_matrix(mat))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


_EIG_CHILD = """
import sys
import numpy as np
from anglekit.linalg import from_matrix, hermitian_eig
mats = np.load(sys.argv[1])
out = {}
for name in mats.files:
    es = hermitian_eig(from_matrix(mats[name]))
    out[name + "_values"] = es.eigenvalues
    out[name + "_vectors"] = es.eigenvectors
np.savez(sys.argv[2], **out)
"""


def test_eig_bits_independent_of_blas_threads(tmp_path, cli_env):
    inputs = tmp_path / "inputs.npz"
    np.savez(inputs, random65=random_hermitian(65, seed=11),
             wh128=whquant.angle_matrix(0.3, 128).entries)
    results = []
    for threads in ("1", "2"):
        env = dict(cli_env, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"eig_{threads}.npz"
        proc = subprocess.run([sys.executable, "-c", _EIG_CHILD, str(inputs), str(out)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        results.append(np.load(out))
    one, two = results
    assert sorted(one.files) == sorted(two.files) and len(one.files) == 4
    for key in one.files:
        assert one[key].tobytes() == two[key].tobytes(), key


# ------------------------------------------------------ chiral eigenvalues

CHIRAL_DIMS = list(range(4, 18)) + [64, 128]


def random_chiral(dim, seed, center=math.pi):
    """center I + i K with K = R - R^T, exactly antisymmetric."""
    raw = np.random.default_rng(seed).standard_normal((dim, dim))
    return from_matrix(center * np.eye(dim) + 1j * (raw - raw.T))


def circle_angle(sigma, dim):
    basis = BasisSpec("two_sided", dim, -dim // 2)
    dist = circlecs.gaussian_distribution(sigma)
    return circlecs.quantize_cyl(dist, basis, specfun.sawtooth_fourier(dim - 1))


def chiral_matrices(dim):
    ops = {f"wh t={t}": whquant.angle_matrix(t, dim) for t in (0.0, 0.3, 0.7)}
    ops.update({f"circle sigma={s}": circle_angle(s, dim) for s in (0.5, 1.0, 10.0)})
    ops["canonical"] = whquant.canonical_angle_B(dim, "cyclic", dim // 2 - 1)
    ops["random"] = random_chiral(dim, seed=dim)
    return ops


@pytest.mark.parametrize("dim", CHIRAL_DIMS)
def test_chiral_eigenvalues_match_lapack_and_jacobi(dim):
    for name, op in chiral_matrices(dim).items():
        got = chiral_eigenvalues(op, math.pi)
        assert np.all(np.diff(got) >= 0.0), name
        assert np.abs(got - np.linalg.eigvalsh(op.entries)).max() <= 1e-12, name
        jacobi = hermitian_eig(from_matrix(op.entries, op.basis)).eigenvalues
        assert np.abs(got - jacobi).max() <= 1e-12, name


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 64, 65])
def test_chiral_offsets_mirror_exactly(dim):
    # at center 0 the values returned are the offsets themselves
    offsets = chiral_eigenvalues(random_chiral(dim, seed=dim, center=0.0), 0.0)
    assert np.array_equal(offsets[::-1], -offsets)
    values = chiral_eigenvalues(random_chiral(dim, seed=dim), math.pi)
    if dim % 2:
        assert values[dim // 2] == math.pi


def tridiagonal_chiral(e):
    K = np.diag(np.asarray(e, dtype=float), -1)
    return from_matrix(math.pi * np.eye(len(e) + 1) + 1j * (K - K.T))


def test_chiral_eigenvalues_of_split_tridiagonals():
    assert np.array_equal(chiral_eigenvalues(from_matrix(math.pi * np.eye(7)), math.pi),
                          np.full(7, math.pi))
    # block-diagonal K: the reduction meets an exactly zero column and splits
    blocks = np.zeros((11, 11), dtype=complex)
    blocks[:5, :5] = random_chiral(5, seed=1).entries
    blocks[5:, 5:] = random_chiral(6, seed=2).entries
    # off-diagonals 1, 0.5, ...: the first Sturm point g/2 = 1 makes d_1 exactly 0
    for op in (from_matrix(blocks), tridiagonal_chiral([1.0, 0.5, 0.25, 0.5, 0.0, 0.5, 0.25])):
        got = chiral_eigenvalues(op, math.pi)
        assert np.abs(got - np.linalg.eigvalsh(op.entries)).max() <= 1e-12


def test_chiral_eigenvalues_reject_other_structure():
    wh = whquant.angle_matrix(0.3, 16).entries
    ulp = np.spacing(math.pi)
    real_off = wh.copy()
    real_off[2, 5] += np.spacing(abs(wh[2, 5]))
    real_off[5, 2] += np.spacing(abs(wh[2, 5]))
    skew = wh.copy()
    skew[2, 5] += 1j * np.spacing(abs(wh[2, 5]))
    far_diag = wh.copy()
    far_diag[3, 3] += (linalg.CHIRAL_DIAG_ULPS + 1) * ulp
    for mat in (random_hermitian(16, seed=4), real_off, skew, far_diag):
        with pytest.raises(DomainError):
            chiral_eigenvalues(from_matrix(mat), math.pi)
    # the bound itself is accepted
    near_diag = wh.copy()
    near_diag[3, 3] += linalg.CHIRAL_DIAG_ULPS * ulp
    assert chiral_eigenvalues(from_matrix(near_diag), math.pi).size == 16


# ---------------------------------------------------- functional calculus

def test_spectral_identity_and_constant():
    op = from_matrix(random_hermitian(20, seed=3))
    same = spectral_function(op, lambda lam: lam)
    assert op_norm_max(same - op) <= 1e-11 * op_norm_max(op)
    one = spectral_function(op, lambda lam: 1.0)
    assert np.abs(one.entries - np.eye(20)).max() <= 1e-11


def test_spectral_arccos_on_cyclic():
    ang = spectral_function(cyclic_cosine(4), lambda lam: math.acos(min(1, max(-1, lam))))
    oracle = sorted(math.acos(v) for v in (1.0, 0.0, -1.0, 0.0))
    assert np.allclose(hermitian_eig(ang).eigenvalues, oracle, atol=1e-11)


def test_spectral_composition_for_monotone_inner():
    op = from_matrix(random_hermitian(24, seed=5))
    g = math.tanh
    f = lambda lam: lam ** 2 - lam
    direct = spectral_function(op, lambda lam: f(g(lam)))
    nested = spectral_function(spectral_function(op, g), f)
    assert op_norm_max(direct - nested) <= 1e-9


# ------------------------------------------------------------- sign part

def test_sign_part_diagonal():
    sig = sign_part(from_matrix(np.diag([2.0, -3.0, 0.0])))
    assert np.allclose(sig.entries, np.diag([1.0, -1.0, 0.0]), atol=1e-12)


def test_sign_part_zero_operator():
    sig = sign_part(from_matrix(np.zeros((4, 4))))
    assert op_norm_max(sig) == 0.0


def test_sign_part_cyclic_sine_kernel_rank():
    # S for the cyclic shift at dim 8 has eigenvalues sin(2 pi k/8):
    # two vanish, so Sigma^2 projects onto rank 6
    dim = 8
    U = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        U[(col + 1) % dim, col] = 1.0
    S = from_matrix((U - U.conj().T) / 2.0j, mode="cyclic")
    sig = sign_part(S)
    assert op_norm_max(sig @ sig @ sig - sig) <= 1e-10
    rank = round(np.real(np.trace((sig @ sig).entries)))
    assert rank == 6


def test_sign_part_invertible_squares_to_identity():
    sig = sign_part(from_matrix(np.diag([1.0, -2.0, 3.0])))
    assert np.abs((sig @ sig).entries - np.eye(3)).max() <= 1e-12


# ------------------------------------------------------------ exponential

def test_exp_of_zero():
    out = anti_hermitian_exp(from_matrix(np.zeros((5, 5))))
    assert np.allclose(out.entries, np.eye(5))


def test_exp_rotation_closed_form():
    theta = 0.7321
    G = from_matrix(np.array([[0.0, theta], [-theta, 0.0]]))
    out = anti_hermitian_exp(G)
    rot = np.array(
        [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    )
    assert np.abs(out.entries - rot).max() <= 1e-12


def test_exp_inverse_pairs(rng):
    raw = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    G = from_matrix((raw - raw.conj().T) / 2.0)
    forward = anti_hermitian_exp(G)
    backward = anti_hermitian_exp(-1.0 * G)
    assert np.abs((forward @ backward).entries - np.eye(32)).max() <= 1e-10


def test_exp_rejects_hermitian_input():
    with pytest.raises(DomainError):
        anti_hermitian_exp(from_matrix(np.diag([1.0, 2.0])))


# --------------------------------------------------- commutator & window

def test_commutator_with_self_vanishes():
    op = from_matrix(random_hermitian(10, seed=8))
    assert op_norm_max(commutator(op, op)) == 0.0


def test_commutator_of_diagonals_vanishes():
    a = from_matrix(np.diag([1.0, 2.0, 3.0]))
    b = from_matrix(np.diag([-1.0, 0.5, 4.0]))
    assert op_norm_max(commutator(a, b)) == 0.0


def test_commutator_number_shift_on_window():
    # [N, U] = U holds exactly on the interior of the two-sided truncation
    dim = 32
    basis = BasisSpec("two_sided", dim, -dim // 2)
    U = np.zeros((dim, dim), dtype=complex)
    for col in range(dim - 1):
        U[col + 1, col] = 1.0
    Uop = TruncatedOperator(U, basis)
    N = TruncatedOperator(np.diag(basis.labels().astype(complex)), basis)
    dev = commutator(N, Uop) - Uop
    assert op_norm_max(window_restrict(dev, -8, 8)) <= 1e-12


def test_commutator_requires_matching_basis():
    a = from_matrix(np.eye(4), mode="one_sided")
    b = TruncatedOperator(np.eye(4), BasisSpec("two_sided", 4, -2))
    with pytest.raises(BasisMismatchError):
        commutator(a, b)


def test_window_restrict_bounds():
    basis = BasisSpec("two_sided", 8, -4)
    op = TruncatedOperator(np.diag(np.arange(8).astype(complex)), basis)
    sub = window_restrict(op, -1, 2)
    assert sub.dim == 4
    assert np.allclose(np.diag(sub.entries).real, [3.0, 4.0, 5.0, 6.0])
    with pytest.raises(DomainError):
        window_restrict(op, 10, 12)


# ------------------------------------------------------ rotation covariance

def test_rotate_is_label_phase_pattern_and_composes():
    # dyadic angles keep theta * label exact; unit-bounded entries keep the
    # rounding of each phase product below 1e-15
    rng = np.random.default_rng(29)
    raw = rng.random((12, 12)) * np.exp(2j * math.pi * rng.random((12, 12)))
    for basis in (BasisSpec("one_sided", 12, 0), BasisSpec("two_sided", 12, -6)):
        A = TruncatedOperator(raw, basis)
        n = basis.labels()
        for theta in (0.375, -1.25):
            rotated = rotate(A, theta)
            assert rotated.basis == basis
            expected = raw * np.exp(1j * theta * np.subtract.outer(n, n))
            assert np.abs(rotated.entries - expected).max() <= 1e-15
        composed = rotate(rotate(A, 0.375), -1.25).entries
        assert np.abs(composed - rotate(A, 0.375 - 1.25).entries).max() <= 1e-15


def test_rotated_traces_match_traces_of_rotated_gram():
    rng = np.random.default_rng(31)
    M = random_hermitian(20, seed=4).real
    A = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    basis = BasisSpec("two_sided", 20, -10)
    angles = np.linspace(0.0, 2.0 * math.pi, 7)
    got = rotated_traces(diagonal_sums(M, A), angles)
    for a, val in zip(angles, got):
        direct = np.trace(rotate(TruncatedOperator(M, basis), a).entries @ A)
        assert abs(val - direct) <= 1e-12


def _random_frames(rng, dim, cols):
    """Two blocks (J, w, F) of seeded random nodes, weights and (dim, K, cols) frames."""
    return [
        (rng.random(k) + 0.5, rng.random(k), rng.standard_normal((dim, k, cols)))
        for k in (3, 5)
    ]


def test_quantize_modes_is_adjoint_of_diagonal_sums():
    # tr(Q A) = sum_q sum_i w_i c_q(J_i) s_q(F_i F_i^T, A), node by node
    rng = np.random.default_rng(37)
    dim = 9
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    fourier = {0: 1.5, 2: 0.5 - 2.0j, -3: lambda J: J * J, 4: lambda J: 1j / J, 11: 7.0}
    for cols in (1, 4):
        frames = _random_frames(rng, dim, cols)
        Q = linalg.quantize_modes(fourier, frames, dim)
        expected = 0.0
        for J, w, F in frames:
            for i in range(J.size):
                s_d = diagonal_sums(F[:, i] @ F[:, i].T, A)
                for q, c in fourier.items():
                    if abs(q) < dim:
                        c_J = c(J[i]) if callable(c) else c
                        expected += w[i] * c_J * s_d[q + dim - 1]
        assert abs(np.trace(Q @ A) - expected) <= 1e-12


def test_quantize_modes_constant_and_callable_paths_agree():
    # a number reads the weighted Gram, a callable integrates its own diagonal
    rng = np.random.default_rng(41)
    dim = 8
    for cols in (1, 3):
        frames = _random_frames(rng, dim, cols)
        for q, c in ((0, 2.5), (1, 0.75j), (-5, -1.25 + 0.5j)):
            as_number = linalg.quantize_modes({q: c}, frames, dim)
            as_callable = linalg.quantize_modes({q: lambda J, c=c: c}, frames, dim)
            assert np.count_nonzero(np.diag(as_number, -q)) == dim - abs(q)
            assert np.abs(as_number - as_callable).max() <= 1e-13


def test_quantize_modes_rejects_coefficient_of_unknown_form():
    with pytest.raises(DomainError):
        linalg.quantize_modes({1: "one"}, [], 4)

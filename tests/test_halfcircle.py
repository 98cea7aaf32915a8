import math

import numpy as np
import pytest

from anglekit import checks, halfcircle, linalg
from anglekit.errors import DomainError
from anglekit.halfcircle import (
    angle_upper,
    angle_upper_series,
    build_shift_family,
    commutator_defect,
    covariance_flow,
    full_angle,
)
from anglekit.linalg import (
    BasisSpec,
    from_matrix,
    hermitian_eig,
    op_norm_max,
    sign_part,
    window_restrict,
)

HALF_PI = math.pi / 2.0


def family(mode, dim):
    return build_shift_family(BasisSpec(mode, dim))


# ------------------------------------------------------------- shifts

def test_shift_structure_one_sided():
    fam = family("one_sided", 4)
    expected = np.zeros((4, 4))
    for col in range(3):
        expected[col + 1, col] = 1.0
    assert np.array_equal(fam.U.entries.real, expected)
    assert np.allclose(np.diag(fam.N.entries).real, [0, 1, 2, 3])


def test_shift_structure_cyclic_is_permutation():
    fam = family("cyclic", 4)
    perm = np.zeros((4, 4))
    for col in range(4):
        perm[(col + 1) % 4, col] = 1.0
    assert np.array_equal(fam.U.entries.real, perm)
    prod = fam.U.entries @ fam.U.entries.conj().T
    assert np.allclose(prod, np.eye(4))


def test_shift_two_sided_labels():
    fam = family("two_sided", 4)
    assert np.allclose(np.diag(fam.N.entries).real, [-2, -1, 0, 1])


def test_shift_rejects_tiny_dim():
    with pytest.raises(DomainError):
        build_shift_family(BasisSpec("cyclic", 3))


# -------------------------------------------------------- angle operators

def test_angle_upper_of_zero_cosine():
    C = from_matrix(np.zeros((6, 6)))
    for route in (angle_upper, angle_upper_series):
        A = route(C)
        assert np.abs(A.entries - HALF_PI * np.eye(6)).max() <= 1e-12


def test_angle_upper_spectral_endpoints():
    A = angle_upper(from_matrix(np.diag([1.0, -1.0])))
    assert np.allclose(sorted(np.diag(A.entries).real), [0.0, math.pi], atol=1e-12)


def test_angle_upper_cyclic_spectrum():
    A = angle_upper(family("cyclic", 4).C)
    # circulant oracle: ArcCos of {1, 0, -1, 0}
    oracle = sorted(math.acos(v) for v in (1.0, 0.0, -1.0, 0.0))
    assert np.allclose(hermitian_eig(A).eigenvalues, oracle, atol=1e-11)


def test_angle_upper_cyclic_spectrum_at_the_edges():
    # circulant oracle arccos(cos(2 pi k / D)); the eigenvalues +-1 of C must
    # map to exactly 0 and pi, not to the ~1e-8 that arccos makes of one ulp
    for dim in range(4, 17):
        got = hermitian_eig(angle_upper(family("cyclic", dim).C)).eigenvalues
        oracle = np.sort(np.arccos(np.cos(2.0 * math.pi * np.arange(dim) / dim)))
        assert np.abs(got - oracle).max() <= 1e-11, dim


def test_angle_upper_rejects_oversized_spectrum():
    with pytest.raises(DomainError):
        angle_upper(from_matrix(np.diag([1.5, 0.0])))


def test_angle_series_matches_spectral_off_the_endpoints():
    assert checks.measure("halfcircle", "series_vs_spectral").passed


# ------------------------------------------- closed-form eigensystems

CLOSED_FORM_DIMS = list(range(4, 18)) + [31, 64, 128]


def shift_operators(mode, dim):
    fam = family(mode, dim)
    return {"C": fam.C, "S": fam.S, "full_angle": full_angle(fam)}


@pytest.mark.parametrize("dim", CLOSED_FORM_DIMS)
@pytest.mark.parametrize("mode", ["one_sided", "two_sided", "cyclic"])
def test_closed_form_systems_match_independent_solvers(mode, dim):
    for name, op in shift_operators(mode, dim).items():
        es = op.eig
        vecs, vals = es.eigenvectors, es.eigenvalues
        assert np.abs(vals - np.linalg.eigvalsh(op.entries)).max() <= 1e-12, name
        # the general solve on a copy that carries no system
        solved = hermitian_eig(from_matrix(op.entries, op.basis)).eigenvalues
        assert np.abs(vals - solved).max() <= 1e-12, name
        scale = op_norm_max(op)
        assert np.abs((vecs * vals) @ vecs.conj().T - op.entries).max() <= 1e-12 * scale, name
        assert np.abs(vecs.conj().T @ vecs - np.eye(op.dim)).max() <= 1e-13, name


def test_closed_form_atoms_are_exact():
    for dim in CLOSED_FORM_DIMS:
        for mode in ("one_sided", "two_sided"):
            s_vals = family(mode, dim).S.eig.eigenvalues
            assert (0.0 in s_vals) == (dim % 2 == 1), (mode, dim)
        c_vals = family("cyclic", dim).C.eig.eigenvalues
        assert (-1.0 in c_vals) == (dim % 2 == 0), dim


def test_derived_operators_carry_no_system():
    C = family("two_sided", 16).C
    assert hermitian_eig(C) is C.eig
    derived = [
        C * 1.0,
        C @ C,
        C.H,
        linalg.rotate(C, 0.3),
        window_restrict(C, -4, 4),
    ]
    assert all(op.eig is None for op in derived)


# ------------------------------------------------------------ full angle

def test_full_angle_cyclic_block_spectrum():
    fam = family("cyclic", 4)
    A = full_angle(fam)
    assert A.dim == 8
    assert op_norm_max(A - A.H) <= 1e-10
    got = hermitian_eig(A).eigenvalues
    # upper block {0, pi/2, pi/2, pi}; lower block {pi, 3pi/2, 3pi/2, 2pi}
    # with 2pi pulled back to pi by the eigenvalue -1 correction
    oracle = sorted([0.0, HALF_PI, HALF_PI, math.pi, math.pi, 1.5 * math.pi, 1.5 * math.pi, math.pi])
    assert np.allclose(got, oracle, atol=1e-10)


def test_full_angle_without_minus_one_atom():
    # two-sided truncation: tridiagonal cosine has spectrum cos(k pi/(D+1)),
    # never exactly -1, so the correction projector vanishes
    fam = family("two_sided", 6)
    upper = hermitian_eig(angle_upper(fam.C)).eigenvalues
    got = hermitian_eig(full_angle(fam)).eigenvalues
    assert np.allclose(got, np.sort(np.concatenate([upper, upper + math.pi])), atol=1e-10)


def test_full_angle_spectral_support():
    for mode in ("cyclic", "two_sided"):
        A = full_angle(family(mode, 32))
        vals = hermitian_eig(A).eigenvalues
        assert vals[0] >= -1e-9
        assert vals[-1] <= 2.0 * math.pi + 1e-9


# ------------------------------------------------------- sigma isometry

def test_sigma_cube_and_polar_reconstruction():
    S = family("cyclic", 8).S
    sig = sign_part(S)
    assert op_norm_max(sig @ sig @ sig - sig) <= 1e-10
    magnitude = linalg.spectral_function(S, abs)
    assert op_norm_max(sig @ magnitude - S) <= 1e-10


def test_sigma_trivial_cases():
    assert op_norm_max(sign_part(from_matrix(np.zeros((4, 4))))) == 0.0
    sig = sign_part(from_matrix(np.diag([2.0, -1.0, 0.5])))
    assert np.abs((sig @ sig).entries - np.eye(3)).max() <= 1e-12


# ------------------------------------------------------ commutator defect

def test_number_angle_commutator_is_anti_hermitian():
    fam = family("two_sided", 64)
    A = angle_upper(fam.C)
    K = linalg.commutator(fam.N, A)
    assert op_norm_max(K + K.H) <= 1e-10


def test_defect_shrinks_with_window():
    wide, narrow = commutator_defect(family("two_sided", 128), [32, 48])
    assert narrow <= 1.5 * wide


def test_defect_decreases_with_dimension():
    values = [commutator_defect(family("two_sided", dim), [dim // 2 - 16])[0] for dim in (64, 128)]
    assert values[1] < values[0]


def test_defect_rejects_one_sided_and_empty_window():
    with pytest.raises(DomainError):
        commutator_defect(family("one_sided", 8), [2])
    with pytest.raises(DomainError):
        commutator_defect(family("two_sided", 8), [2, 4])
    with pytest.raises(DomainError, match="margin must be an integer"):
        commutator_defect(family("two_sided", 16), [2.5])


# ------------------------------------------------------- covariance flow

def test_covariance_flow_at_zero():
    fam = family("two_sided", 16)
    C0, S0, A0 = covariance_flow(fam, 0.0)
    assert op_norm_max(C0 - fam.C) == 0.0
    assert op_norm_max(S0 - fam.S) == 0.0
    assert op_norm_max(A0 - angle_upper(fam.C)) <= 1e-11


def test_covariance_flow_quarter_turn():
    fam = family("two_sided", 32)
    Cq, Sq, _ = covariance_flow(fam, math.pi / 2.0)
    lo, hi = linalg.interior_window(fam.basis, 8)
    assert op_norm_max(window_restrict(Cq + fam.S, lo, hi)) <= 1e-12
    assert op_norm_max(window_restrict(Sq - fam.C, lo, hi)) <= 1e-12


@pytest.mark.parametrize("dim", CLOSED_FORM_DIMS)
@pytest.mark.parametrize("mode", ["two_sided", "cyclic"])
def test_rotated_cosine_carries_closed_form_system(no_eig_solve, mode, dim):
    fam = family(mode, dim)
    for theta in (0.3, -1e-4, HALF_PI, 2.0):
        C_theta, _, _ = covariance_flow(fam, theta)
        vecs, vals = C_theta.eig.eigenvectors, C_theta.eig.eigenvalues
        assert np.abs(vals - np.linalg.eigvalsh(C_theta.entries)).max() <= 1e-12, theta
        scale = op_norm_max(C_theta)
        assert np.abs((vecs * vals) @ vecs.conj().T - C_theta.entries).max() <= 1e-12 * scale
        assert np.abs(vecs.conj().T @ vecs - np.eye(dim)).max() <= 1e-13, theta


def test_covariance_derivative_matches_sigma():
    # d/dtheta of the conjugated angle at 0 equals +sign(S) on the interior
    dim, margin, h = 64, 16, 1e-4
    fam = family("two_sided", dim)
    _, _, A_plus = covariance_flow(fam, h)
    _, _, A_minus = covariance_flow(fam, -h)
    derivative = (1.0 / (2.0 * h)) * (A_plus - A_minus)
    sig = sign_part(fam.S)
    (defect,) = commutator_defect(fam, [margin])
    lo, hi = linalg.interior_window(fam.basis, margin)
    dev = op_norm_max(window_restrict(derivative - sig, lo, hi))
    assert dev <= 1e-5 + defect


def test_covariance_flow_rejects_one_sided_basis():
    with pytest.raises(DomainError, match="two_sided or cyclic"):
        covariance_flow(family("one_sided", 8), 0.3)

"""Acceptance criteria, one test per numbered item.

Each test prints a single PASS/FAIL line (run with -s to see them all)
and then asserts.  Tolerances are the contracted ones; nothing is
calibrated at runtime.  Where a criterion measures an invariant that
`anglekit check` also reports, it calls `checks.measure` for it rather
than repeating the computation.  Criterion 3's sweep up to dimension
512 runs no eigensolver, because the shift family carries closed-form
eigensystems.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from anglekit import checks, circlecs, halfcircle, linalg, specfun, whquant
from anglekit.errors import TruncationWarning
from anglekit.linalg import BasisSpec, from_matrix, hermitian_eig, op_norm_max, window_restrict


def report(number, name, measured, tolerance, ok):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} "
          f"(measured={measured:.6e}, tolerance={tolerance:.6e})")
    assert ok, f"criterion {number} ({name}) failed: {measured} vs {tolerance}"


def two_sided_family(dim):
    return halfcircle.build_shift_family(BasisSpec("two_sided", dim))


def interior_defect(fam, window):
    """Half-circle commutation defect on the window |label| <= window."""
    return halfcircle.commutator_defect(fam, [fam.basis.dim // 2 - window])[0]


def test_criterion_01_half_circle_spectral_support():
    fam = halfcircle.build_shift_family(BasisSpec("cyclic", 64))
    upper_vals = hermitian_eig(halfcircle.angle_upper(fam.C)).eigenvalues
    full_vals = hermitian_eig(halfcircle.full_angle(fam)).eigenvalues
    overhang = max(
        -float(upper_vals[0]),
        float(upper_vals[-1]) - math.pi,
        -float(full_vals[0]),
        float(full_vals[-1]) - 2.0 * math.pi,
    )
    report(1, "half-circle spectra inside [0,pi] and [0,2pi]", overhang, 1e-9, overhang <= 1e-9)


def test_criterion_02_series_vs_spectral_angle():
    res = checks.measure("halfcircle", "series_vs_spectral")
    report(2, "series/spectral agreement off the endpoints", res.measured, res.tolerance,
           res.passed)


def test_criterion_03_sigma_contract_and_defect_decay():
    S = two_sided_family(64).S
    sigma = linalg.sign_part(S)
    cube = op_norm_max(sigma @ sigma @ sigma - sigma)
    polar = op_norm_max(sigma @ linalg.spectral_function(S, abs) - S)
    contract = max(cube, polar)
    defects = [interior_defect(two_sided_family(dim), window=32) for dim in (128, 256, 512)]
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    slack_ok = all(b <= 1.5 * a for a, b in zip(defects, defects[1:]))
    ok = contract <= 1e-10 and decreasing and slack_ok
    print(f"    defect trail across D=128,256,512: {[f'{d:.4e}' for d in defects]}")
    report(3, "sign-isometry contract and defect decay", contract, 1e-10, ok)


def test_criterion_04_covariance_derivative():
    dim, window, h = 128, 32, 1e-4
    fam = two_sided_family(dim)
    sigma = linalg.sign_part(fam.S)
    defect = interior_defect(fam, window)
    _, _, a_plus = halfcircle.covariance_flow(fam, h)
    _, _, a_minus = halfcircle.covariance_flow(fam, -h)
    derivative = (1.0 / (2.0 * h)) * (a_plus - a_minus)
    dev = op_norm_max(window_restrict(derivative - sigma, -window, window))
    bound = 1e-5 + defect
    report(4, "flow derivative equals the sign isometry", dev, bound, dev <= bound)


def test_criterion_05_displacement_cross_checks():
    dim = 64
    cross = 0.0
    for z in (0.7 + 0.3j, 2.0, 1.2 - 1.1j):
        a_plus = np.diag(np.sqrt(np.arange(1.0, dim)), -1).astype(complex)
        G = from_matrix(z * a_plus - np.conj(z) * a_plus.conj().T)
        via_exp = linalg.anti_hermitian_exp(G).entries
        via_laguerre = whquant.displacement_laguerre(z, dim).entries
        cross = max(cross, float(np.abs(via_exp - via_laguerre)[:32, :32].max()))
    rep = whquant.covariance_checks(0.5, 0.3j, 0.7, dim)
    rep2 = whquant.covariance_checks(2.0, 1.0 + 1.0j, 2.0, dim)
    cov = max(rep["addition"], rep["rotation"], rep2["addition"], rep2["rotation"])
    ok = cross <= 1e-8 and cov <= 1e-7
    report(5, "displacement routes and covariance identities", max(cross, cov), 1e-7, ok)


def test_criterion_06_resolution_of_identity_both_maps():
    worst = 0.0
    base = whquant.QuadratureScheme(n_J=80)
    for quad in (base, base.refined()):
        A = whquant.quantize(
            {0: ((lambda J: 1.0), 0)}, whquant.WeightSpec(t=0.0), quad, 64
        )
        worst = max(worst, float(np.abs(A.entries - np.eye(64))[:16, :16].max()))
    worst = max(worst, checks.measure("circlecs", "circle_resolution_identity").measured)
    report(6, "resolution of identity under refinement", worst, 1e-6, worst <= 1e-6)


def test_criterion_07_wh_angle_matrix_contract():
    A = whquant.angle_matrix(0.0, 48).entries
    diag_exact = bool(np.all(np.real(np.diag(A)) == math.pi))
    # f_coefficient against the published formula in the swapped order,
    # summed exactly; step 2 keeps every separation odd (840 pairs)
    sym = checks._f_swap_deviation(2)
    ratio = max(
        math.exp(
            specfun.ln_gamma((n + npr) / 2.0 + 1.0)
            - 0.5 * (specfun.ln_gamma(n + 1.0) + specfun.ln_gamma(npr + 1.0))
        )
        for n in range(0, 201, 2)
        for npr in range(n, 201, 2)
    )
    entry = abs(A[0, 1] - 1j * math.gamma(1.5))
    ok = diag_exact and sym <= 1e-10 and ratio <= 1.0 + 1e-12 and entry <= 1e-10
    report(7, "angle matrix structure and coefficients", max(sym, entry, ratio - 1.0), 1e-10, ok)


def _sawtooth_sup_error(A, J, dim):
    gammas = np.linspace(0.5, 2.0 * math.pi - 0.5, 65)
    vals = whquant.lower_symbols(A, whquant.WeightSpec(t=0.0), J, gammas)
    return float(np.abs(vals.real - gammas).max())


def test_criterion_08_semiclassical_sawtooth():
    dim = 160
    A = whquant.angle_matrix(0.0, dim)
    with pytest.warns(TruncationWarning):  # Poisson tail ~2e-8 past dim 160
        err_100 = _sawtooth_sup_error(A, 100.0, dim)
    err_25 = _sawtooth_sup_error(A, 25.0, dim)
    ok = err_100 <= 0.05 and err_25 > err_100
    print(f"    sup errors: J=100 -> {err_100:.3e}, J=25 -> {err_25:.3e}")
    report(8, "lower symbol recovers the sawtooth at large action", err_100, 0.05, ok)


def test_criterion_09_canonical_commutator_recovery():
    # the symbol of [A_angle, N + 1] on one angle grid; J = 100 leaks past
    # dim 160 once, and any other warning fails the test
    dim = 160
    K = linalg.commutator(whquant.angle_matrix(0.0, dim), from_matrix(np.diag(np.arange(dim) + 1.0)))
    with pytest.warns(TruncationWarning) as leaks:
        vals = whquant.lower_symbols(K, whquant.WeightSpec(t=0.0), 100.0, [2.0, 3.0, 4.0])
    assert len(leaks) == 1
    worst_wh = max(max(abs(abs(val) - 1.0), abs(val - (-1j))) for val in vals)
    sigma = 20.0
    dist = circlecs.gaussian_distribution(sigma)
    dim = 2 * (int(math.ceil(dist.radius)) + 3)
    basis = BasisSpec("two_sided", dim, -dim // 2)
    K, _ = circlecs.commutator_number_angle(dist, basis)
    val = circlecs.lower_symbols_cyl(K, dist, 0.0, [math.pi])[0]
    circle_dev = abs(val - (-1j))
    ok = worst_wh <= 0.05 and circle_dev <= 0.02
    print(f"    WH deviation {worst_wh:.3e}, circle deviation {circle_dev:.3e}")
    report(9, "commutator symbols reach the canonical -i", max(worst_wh, circle_dev), 0.05, ok)


def test_criterion_10_circle_cs_suite():
    dist = circlecs.gaussian_distribution(1.0)
    basis = BasisSpec("two_sided", 48, -24)
    action = checks.measure("circlecs", "action_is_number")
    harmonic_defect, p2 = circlecs.fourier_harmonic_defect(dist, basis)
    p2_dev = abs(p2 - math.exp(-0.25))
    p = circlecs.overlap_profile(dist, 47)
    K, route_dev = circlecs.commutator_number_angle(dist, basis)
    entry_dev = 0.0
    for n in range(12, 36):
        for npr in range(n - 6, n + 7):
            if n == npr or not 0 <= npr < 48:
                continue
            entry_dev = max(
                entry_dev, abs(K.entries[n, npr] - 1j * p[abs(npr - n)])
            )
    theta = checks.measure("specfun", "theta_form_equality")
    limits_ok = all(
        row["within_threshold"]
        for case, sigmas in (("small", (0.05,)), ("large", (50.0,)))
        for row in circlecs.limit_study(sigmas, case)
    )
    ok = (
        action.passed
        and harmonic_defect <= 1e-10
        and p2_dev <= 1e-10
        and route_dev <= 1e-10
        and entry_dev <= 1e-10
        and theta.passed
        and limits_ok
    )
    worst = max(action.measured, harmonic_defect, p2_dev, route_dev, entry_dev, theta.measured)
    report(10, "circle coherent-state suite", worst, 1e-9, ok)


def test_criterion_11_factorial_inequalities():
    bound = checks.measure("moments", "s_k_bounded")
    pairs = checks.measure("moments", "factorial_inequality")
    ok = bound.passed and pairs.passed
    report(11, "moment-series and half-index bounds", bound.measured, bound.tolerance, ok)


def test_criterion_12_check_determinism(tmp_path, cli_env):
    reports = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "anglekit.cli",
                "check",
                "all",
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr == ""  # no invariant reads a state that leaks past LEAK_TOL
        reports.append(out.read_bytes())
    identical = reports[0] == reports[1]
    statuses = {row["status"] for row in json.loads(reports[0])}
    ok = identical and statuses == {"pass"}
    report(12, "check suite is deterministic and green", 0.0 if ok else 1.0, 0.5, ok)

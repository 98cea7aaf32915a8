import subprocess
import sys

import pytest

from anglekit import checks, halfcircle
from anglekit.errors import DomainError

# The report's lines in order; a refactor may not reorder or rename them.
REPORT_LAYOUT = {
    "specfun": "gamma_ratio_bound laguerre_reflection theta_form_equality gauss_summation_at_one",
    "linalg": "eig_reconstruction spectral_composition sign_part_contract exp_inverse "
    "chiral_spectrum",
    "halfcircle": "angle_support series_vs_spectral contraction_norms power_commutator_identity "
    "cyclic_exact_relations",
    "whquant": "ccr_from_quantization angle_matrix_structure angle_covariance_symbol_shift "
    "f_symmetry d_q_bound wh_resolution_identity fourier_taylor_bridge boltzmann_diagonal "
    "angle_grid_vs_scalar",
    "circlecs": "circle_resolution_identity state_normalization action_is_number "
    "circle_covariance_shift d_m_bound overlap_symmetry_spot overlap_kernel_forms harmonic_trend",
    "moments": "s_k_bounded factorial_inequality",
}


def test_suite_names_cover_every_module():
    assert checks.suite_names() == list(REPORT_LAYOUT)
    registered = [(s, thunk.__name__[1:]) for s, suite in checks._SUITES.items() for thunk in suite]
    expected = [(name, inv) for name, line in REPORT_LAYOUT.items() for inv in line.split()]
    assert len(expected) == 33
    assert registered == expected


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        checks.run_suite("nonsense")
    with pytest.raises(DomainError):
        checks.measure("nonsense", "s_k_bounded")
    with pytest.raises(DomainError):
        checks.measure("moments", "nonsense")


def test_fields_read_are_the_thunk_parameters():
    assert checks.fields_read(["specfun", "linalg", "moments"]) == set()
    assert checks.fields_read(["halfcircle"]) == {"dim", "mode"}
    assert checks.fields_read(["whquant", "circlecs"]) == {"dim", "t", "sigma"}
    assert checks.fields_read(checks.suite_names()) == {"dim", "mode", "t", "sigma"}


@pytest.mark.parametrize(
    "call",
    [
        # a given value is used, so a size or width the kernels reject raises
        lambda: checks.measure("halfcircle", "angle_support", dim=0),
        lambda: checks.run_suite("circlecs", sigma=0.0),
        # a field no suite reads
        lambda: checks.run_suite("moments", dimm=3),
        lambda: checks.measure("halfcircle", "series_vs_spectral", harmonics=3),
    ],
)
def test_narrowing_rejected_loudly(call):
    with pytest.raises(DomainError):
        call()


def test_run_suite_returns_passing_records():
    results = checks.run_suite("moments")
    assert [r.invariant for r in results] == ["s_k_bounded", "factorial_inequality"]
    assert all(r.passed and r.measured <= r.tolerance for r in results)


def test_params_narrowing_changes_problem_size(monkeypatch):
    # the halfcircle suite reads dim and mode: record the basis of every shift family it builds
    seen = []
    build = halfcircle.build_shift_family

    def recording(basis):
        seen.append((basis.mode, basis.dim))
        return build(basis)

    monkeypatch.setattr(halfcircle, "build_shift_family", recording)
    bases = {}
    for invariant in REPORT_LAYOUT["halfcircle"].split():
        seen.clear()
        assert checks.measure("halfcircle", invariant, dim=32, mode="cyclic").passed, invariant
        bases[invariant] = list(seen)
    assert bases == {
        "angle_support": [("cyclic", 32)],  # reads dim and mode
        "series_vs_spectral": [("cyclic", 32)],  # pinned
        "contraction_norms": [("two_sided", 32)],  # reads dim
        "power_commutator_identity": [("two_sided", 128)],  # pinned
        "cyclic_exact_relations": [("cyclic", 32)],  # reads dim
    }


_RUN_CHILD = """
from anglekit import checks
for name in ("linalg", "moments"):
    for r in checks.run_suite(name):
        print(r.invariant, r.status, r.measured.hex())
"""


def test_threaded_run_matches_serial(cli_env):
    # suites run serially; a multi-threaded BLAS underneath must not move a bit
    runs = []
    for threads in ("1", "3"):
        proc = subprocess.run([sys.executable, "-c", _RUN_CHILD], capture_output=True,
                              text=True, env=dict(cli_env, OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    serial, threaded = runs
    assert len(serial.splitlines()) == 7
    assert serial == threaded

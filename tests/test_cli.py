import contextlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from anglekit import circlecs, cli, specfun, whquant
from anglekit.errors import TruncationWarning
from anglekit.linalg import BasisSpec


def run_main(argv):
    return cli.main(argv)


def test_spectrum_wh_small(tmp_path):
    out = tmp_path / "spec.csv"
    code = run_main(["spectrum", "--construction", "wh", "--t", "0", "--dim", "8",
                     "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "construction,D,param,index,eigenvalue"
    assert len(lines) == 9
    values = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(-0.2 <= v <= 2.0 * math.pi + 0.2 for v in values)
    assert values == sorted(values)


def test_spectrum_halfcircle_doubles_dimension(tmp_path):
    out = tmp_path / "spec.csv"
    code = run_main(["spectrum", "--construction", "halfcircle", "--mode", "cyclic",
                     "--dim", "8", "--output", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 17  # header + 2 * dim


def test_spectrum_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_main(["spectrum", "--construction", "circle", "--sigma", "1.0",
                         "--dim", "16", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_lower_symbol_grid_tracks_sawtooth(tmp_path):
    out = tmp_path / "sym.csv"
    with pytest.warns(TruncationWarning):  # Poisson tail ~2e-8 past dim 160
        code = run_main(["lower-symbol", "--construction", "wh", "--t", "0", "--J", "100",
                         "--dim", "160", "--gamma-grid", "64", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "J,gamma_or_phi,re,im"
    worst = 0.0
    for line in lines[1:]:
        _, gamma, re, _ = (float(x) for x in line.split(","))
        if 0.5 <= gamma <= 2.0 * math.pi - 0.5:
            worst = max(worst, abs(re - gamma))
    assert worst <= 0.05


def test_lower_symbol_leak_warns_on_stderr_only(tmp_path, cli_env):
    argv = ["lower-symbol", "--construction", "wh", "--t", "0", "--J", "100", "--dim", "160"]
    proc = subprocess.run([sys.executable, "-m", "anglekit.cli", *argv],
                          capture_output=True, text=True, env=cli_env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("TruncationWarning") == 1
    out = tmp_path / "sym.csv"
    with pytest.warns(TruncationWarning):
        assert run_main([*argv, "--output", str(out)]) == 0
    assert proc.stdout == out.read_text()


def test_lower_symbol_circle_csv_matches_lower_symbols_cyl(tmp_path):
    out = tmp_path / "sym.csv"
    code = run_main(["lower-symbol", "--construction", "circle", "--sigma", "1.5", "--J", "0.3",
                     "--dim", "48", "--gamma-grid", "16", "--output", str(out)])
    assert code == 0
    dist = circlecs.gaussian_distribution(1.5)
    A = circlecs.quantize_cyl(dist, BasisSpec("two_sided", 48, -24), specfun.sawtooth_fourier(47))
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    expected = circlecs.lower_symbols_cyl(A, dist, 0.3, phis)
    lines = out.read_text().splitlines()
    assert lines[0] == "J,gamma_or_phi,re,im"
    assert len(lines) == 17
    for line, phi, val in zip(lines[1:], phis, expected):
        assert line == f"{0.3!r},{float(phi)!r},{float(val.real)!r},{float(val.imag)!r}"


def test_lower_symbol_circle_reads_a_negative_action(tmp_path):
    # the cylinder's action runs over the whole line; only wh rejects J < 0
    out = tmp_path / "sym.csv"
    assert run_main(["lower-symbol", "--construction", "circle", "--J", "-2",
                     "--output", str(out)]) == 0
    dist = circlecs.gaussian_distribution(1.0)
    A = circlecs.quantize_cyl(dist, BasisSpec("two_sided", 64, -32), specfun.sawtooth_fourier(63))
    phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    expected = circlecs.lower_symbols_cyl(A, dist, -2.0, phis)
    lines = out.read_text().splitlines()
    assert len(lines) == 65
    for line, phi, val in zip(lines[1:], phis, expected):
        assert line == f"{-2.0!r},{float(phi)!r},{float(val.real)!r},{float(val.imag)!r}"


def test_commutator_defect_table(tmp_path):
    out = tmp_path / "defect.csv"
    code = run_main(["commutator", "--dims", "32,64", "--margins", "8,12",
                     "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "D,margin,window_lo,window_hi,defect"
    assert len(lines) == 5
    by_dim = {}
    for line in lines[1:]:
        dim, margin, _, _, defect = line.split(",")
        by_dim.setdefault(int(dim), []).append(float(defect))
    # same |n| <= window across D: defect must not grow with D
    assert min(by_dim[64]) <= min(by_dim[32]) * 1.5


def test_margin_that_fits_no_dim_rejected(tmp_path, capsys):
    # a margin too wide for every D would leave the table empty
    assert run_main(["commutator", "--dims", "64", "--margins", "32"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: margin 32 is at least half of every sweep dim\n"
    # one that fits some D skips the others
    out = tmp_path / "defect.csv"
    assert run_main(["commutator", "--dims", "32,64", "--margins", "16", "--output", str(out)]) == 0
    assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [["64", "16"]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--dims", ",", "--margins", ","], "dims names no sweep dim"),
        (["--dims", ","], "dims names no sweep dim"),
        (["--margins", ","], "margins names no window margin"),
    ],
)
def test_empty_sweep_rejected(capsys, argv, message):
    assert run_main(["commutator", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


def test_check_single_suite_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_main(["check", "moments", "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "moments/s_k_bounded: PASS" in printed
    report = json.loads(out.read_text())
    assert all(set(r) == {"suite", "invariant", "status", "measured", "tolerance"}
               for r in report)
    assert all(r["status"] == "pass" for r in report)


def test_check_halfcircle_narrowed_passes(capsys):
    assert run_main(["check", "halfcircle", "--dim", "64", "--mode", "cyclic"]) == 0
    assert "halfcircle/angle_support: PASS" in capsys.readouterr().out


def test_check_rejects_narrowing_no_suite_reads(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma=3\n")
    for argv, unread in (
        (["check", "moments", "--t", "0.5", "--dim", "8"], "dim, t"),
        (["check", "specfun", "--mode", "cyclic", "--sigma", "3"], "mode, sigma"),
        (["check", "halfcircle", "--dim", "32", "--config", str(cfg)], "sigma"),
    ):
        assert run_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"does not read {unread}\n")


def test_check_threads_agree(tmp_path, cli_env):
    # every invariant's report is byte-identical whatever thread count the BLAS
    # runs with: the eigensolver and both quantization maps make no BLAS call
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"all_{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "anglekit.cli", "check", "all", "--output", str(out)],
            capture_output=True, text=True, env=dict(cli_env, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert len(json.loads(reports[0])) == 33
    assert reports[0] == reports[1]


def test_threads_flag_and_key_rejected(tmp_path, capsys):
    # checks run serially; the retired thread option is a usage error
    with pytest.raises(SystemExit) as err:
        run_main(["check", "specfun", "--threads", "2"])
    assert err.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads=2\n")
    assert run_main(["check", "specfun", "--config", str(cfg)]) == 2
    assert "unknown config key 'threads' for check" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["spectrum", "--construction", "wh", "--sigma", "3"], "sigma"),
        (["spectrum", "--construction", "circle", "--t", "0.5"], "t"),
        (["spectrum", "--construction", "halfcircle", "--t", "0.2"], "t"),
        (["spectrum", "--construction", "wh", "--harmonics", "3"], "harmonics"),
        (["spectrum", "--construction", "wh", "--mode", "cyclic"], "mode"),
        (["spectrum", "--construction", "canonical", "--mode", "cyclic", "--t", "0.1"], "mode, t"),
        (["lower-symbol", "--construction", "wh", "--sigma", "4"], "sigma"),
        (["lower-symbol", "--construction", "circle", "--t", "0.3"], "t"),
        (["spectrum", "--construction", "circle", "--config", "mode=cyclic"], "mode"),
        (["commutator", "--dims", "16", "--margins", "4"], "dim"),
        (["commutator", "--dims", "16", "--config", "dim=12"], "dim"),
    ],
    ids=["wh-sigma", "circle-t", "halfcircle-t", "wh-harmonics", "wh-mode", "canonical-mode-t",
         "symbol-wh-sigma", "symbol-circle-t", "circle-mode-key", "commutator-dim",
         "commutator-dim-key"],
)
def test_construction_rejects_flags_it_does_not_read(tmp_path, capsys, argv, unread):
    if "--config" in argv:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv[-1] + "\n")
        argv = [*argv[:-1], str(cfg)]
    assert run_main([*argv, "--dim", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.endswith(f"does not read {unread}\n")


@pytest.mark.parametrize("construction", ["halfcircle", "canonical"])
def test_lower_symbol_construction_key_is_a_configuration_error(tmp_path, capsys, construction):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"construction={construction}\n")
    out = tmp_path / "sym.csv"
    assert run_main(["lower-symbol", "--config", str(cfg), "--dim", "8",
                     "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("configuration error: lower-symbol supports constructions")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["commutator", "--dims", "512", "--margins", "32"],
        ["spectrum", "--construction", "halfcircle", "--mode", "cyclic", "--dim", "256"],
        ["spectrum", "--construction", "halfcircle", "--mode", "one_sided", "--dim", "256"],
    ],
    ids=["commutator-512", "cyclic-256", "one-sided-256"],
)
def test_shift_route_runs_no_jacobi(tmp_path, no_eig_solve, argv):
    assert run_main([*argv, "--output", str(tmp_path / "out.csv")]) == 0


@pytest.mark.parametrize("command", ["spectrum", "lower-symbol"])
def test_wh_angle_matrix_makes_no_scalar_calls(tmp_path, no_scalar_angle, command):
    # the symbol's state at the default J = 25 loses 4.6e-6 past dim 64
    leak = pytest.warns(TruncationWarning, match=r"4\.626e-06")
    with leak if command == "lower-symbol" else contextlib.nullcontext():
        assert run_main([command, "--construction", "wh", "--t", "0.3", "--dim", "64",
                         "--output", str(tmp_path / "out.csv")]) == 0


def test_halfcircle_spectrum_at_dim_1024_is_closed_form(tmp_path, no_eig_solve):
    out = tmp_path / "spec.csv"
    dim = 1024
    assert run_main(["spectrum", "--construction", "halfcircle", "--mode", "two_sided",
                     "--dim", str(dim), "--output", str(out)]) == 0
    got = [float(line.split(",")[-1]) for line in out.read_text().splitlines()[1:]]
    upper = math.pi * np.arange(1, dim + 1) / (dim + 1)
    oracle = np.sort(np.concatenate([upper, upper + math.pi]))
    assert np.abs(np.array(got) - oracle).max() <= 1e-12


@pytest.mark.parametrize(
    "construction, matrix",
    [
        ("wh", lambda dim: whquant.angle_matrix(0.0, dim)),
        ("circle", lambda dim: circlecs.quantize_cyl(
            circlecs.gaussian_distribution(1.0), BasisSpec("two_sided", dim, -dim // 2),
            specfun.sawtooth_fourier(dim - 1))),
        ("canonical", lambda dim: whquant.canonical_angle_B(dim, "cyclic", dim // 2 - 1)),
    ],
    ids=["wh", "circle", "canonical"],
)
def test_chiral_spectra_run_no_jacobi(tmp_path, no_eig_solve, construction, matrix):
    out = tmp_path / "spec.csv"
    dim = 256
    assert run_main(["spectrum", "--construction", construction, "--dim", str(dim),
                     "--output", str(out)]) == 0
    got = np.array([float(line.split(",")[-1]) for line in out.read_text().splitlines()[1:]])
    assert np.abs(got - np.linalg.eigvalsh(matrix(dim).entries)).max() <= 1e-12


@pytest.mark.parametrize("construction", ["wh", "circle"])
def test_chiral_spectrum_bytes_independent_of_blas_threads(tmp_path, cli_env, construction):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"spec_{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "anglekit.cli", "spectrum", "--construction", construction,
             "--dim", "128", "--output", str(out)],
            capture_output=True, text=True, env=dict(cli_env, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_negative_harmonics_rejected(capsys):
    assert run_main(["spectrum", "--construction", "canonical", "--harmonics", "-4",
                     "--dim", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "harmonics must be nonnegative" in captured.err


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("construction=wh\ndim=8\nt=0.25\n# comment line\n")
    out = tmp_path / "spec.csv"
    code = run_main(["spectrum", "--config", str(cfg), "--output", str(out)])
    assert code == 0
    first = out.read_text().splitlines()[1]
    assert first.startswith("wh,8,0.25,")


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("construction=wh\ndim=8\n")
    out = tmp_path / "spec.csv"
    assert run_main(["spectrum", "--config", str(cfg), "--dim", "12",
                     "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 13


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dinension=8\n")
    code = run_main(["spectrum", "--config", str(cfg)])
    assert code == 2
    assert "dinension" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["fmt=json", "suite=moments"])
def test_config_unread_keys_rejected(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dim=8\n{line}\n")
    out = tmp_path / "spec.csv"
    assert run_main(["spectrum", "--config", str(cfg), "--output", str(out)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, line",
    [(["spectrum", "--dim", "8"], "J=5"), (["check", "moments"], "dims=8,16")],
)
def test_config_key_without_subcommand_flag_rejected(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    assert run_main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown config key {line.split('=')[0]!r} for {argv[0]}" in captured.err


def test_invalid_parameter_rejected(capsys):
    assert run_main(["spectrum", "--t", "1.5", "--dim", "8"]) == 2
    assert "t must lie" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "lower-symbol"])
def test_t_help_names_the_convention(command, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--help"])
    assert err.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "t > 0 uses the published angle_matrix(t)" in text
    assert "(1-t) times those of the quantized sawtooth" in text


def test_console_entry_point(tmp_path, cli_env):
    out = tmp_path / "spec.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "anglekit.cli", "spectrum", "--construction", "wh",
         "--dim", "8", "--output", str(out)],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "whquant", "--t", "0.3"],
        ["lower-symbol", "--construction", "circle", "--sigma", "1", "--J", "0", "--dim", "48"],
        ["spectrum", "--construction", "circle", "--dim", "128"],
        ["check", "circlecs"],
    ],
)
def test_product_path_imports_no_scipy(tmp_path, cli_env, argv):
    # the quadrature rules are built in-house; scipy is a test oracle only.
    # numpy.ma, which the first np.unique call of a process imports, stays out too
    child = (
        "import sys\n"
        "from anglekit import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv, "--output", str(tmp_path / "out")],
        capture_output=True, text=True, cwd=str(tmp_path), env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        cli.main(["spectrum", "--construction", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--dim", "3"], "dim must lie in [4, 1024], got 3"),
    (["spectrum", "--construction", "halfcircle", "--mode", "diagonal"],
     "unknown mode 'diagonal'"),
    (["spectrum", "--construction", "circle", "--sigma", "0"], "sigma must be positive, got 0.0"),
    (["lower-symbol", "--J", "-1"], "J must be nonnegative, got -1.0"),
    (["lower-symbol", "--gamma-grid", "4"], "gamma-grid must be at least 8, got 4"),
    (["commutator", "--dims", "4,128"], "sweep dim 4 outside [8, 1024]"),
    (["commutator", "--margins", "0"], "margin 0 must be positive"),
    (["lower-symbol", "--construction", "wh", "--J", "nan"], "J must be finite, got nan"),
    (["lower-symbol", "--construction", "circle", "--J", "inf"], "J must be finite, got inf"),
    (["spectrum", "--construction", "circle", "--sigma", "nan"], "sigma must be finite, got nan"),
    (["spectrum", "--construction", "circle", "--sigma", "inf"], "sigma must be finite, got inf"),
])
def test_out_of_range_values_rejected(capsys, argv, message):
    assert run_main(argv) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("lines", ["t=0.1\nt=0.2\n", "gamma-grid=16\ngamma_grid=32\n"])
def test_config_duplicate_key_rejected(tmp_path, capsys, lines):
    # a key given twice is an error, not last-wins; - and _ spell the same key
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    key = lines.splitlines()[1].split("=")[0].replace("-", "_")
    assert run_main(["lower-symbol", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {cfg}:2: duplicate config key {key!r}\n"


def test_config_line_without_equals_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim 8\n")
    assert run_main(["spectrum", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {cfg}:1: expected key=value, got 'dim 8'\n"
    )

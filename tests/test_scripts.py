import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anglekit import circlecs, halfcircle
from anglekit.errors import TruncationWarning
from anglekit.linalg import BasisSpec
from anglekit.whquant import WeightSpec, angle_matrix, lower_symbols

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, env, cwd):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_sawtooth_portrait_rows_match_pointwise_symbol(tmp_path, cli_env):
    out = tmp_path / "portrait.csv"
    proc = run_script("sawtooth_portrait.py",
                      ["--dim", "48", "--actions", "4,25", "--grid", "16", "--output", str(out)],
                      cli_env, tmp_path)
    assert "TruncationWarning" in proc.stderr  # J = 25 leaks past dim 48
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == "J,gamma,symbol_re,symbol_im,sawtooth"
    assert len(rows) == 2 * 16
    A = angle_matrix(0.0, 48)
    grid = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    for i, row in enumerate(rows):
        J, gamma, re, im, saw = (float(x) for x in row.split(","))
        assert J == (4.0, 25.0)[i // 16] and gamma == grid[i % 16] and saw == gamma
        if J == 25.0:
            with pytest.warns(TruncationWarning):
                val = lower_symbols(A, WeightSpec(t=0.0), J, [gamma])[0]
        else:
            val = lower_symbols(A, WeightSpec(t=0.0), J, [gamma])[0]
        assert abs(complex(re, im) - val) <= 1e-12


def test_defect_convergence_rows_match_commutator_defect(tmp_path, cli_env):
    proc = run_script("defect_convergence.py", ["--dims", "64,96", "--window", "16"], cli_env, tmp_path)
    header, *rows = proc.stdout.splitlines()
    assert header == "D,window,defect"
    assert [int(row.split(",")[0]) for row in rows] == [64, 96]
    for row in rows:
        dim, window, defect = row.split(",")
        fam = halfcircle.build_shift_family(BasisSpec("two_sided", int(dim)))
        assert int(window) == 16
        assert float(defect) == halfcircle.commutator_defect(fam, [int(dim) // 2 - 16])[0]


def test_sigma_limits_rows_match_limit_study(tmp_path, cli_env):
    proc = run_script("sigma_limits.py", [], cli_env, tmp_path)
    expected = (circlecs.limit_study([0.2, 0.1, 0.05], "small")
                + circlecs.limit_study([10.0, 20.0, 50.0], "large"))
    assert json.loads(proc.stdout) == expected
    assert "18 probes, 0 outside threshold" in proc.stderr

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anglekit.errors import TruncationWarning
from anglekit.whquant import WeightSpec, angle_matrix, lower_symbols

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_sawtooth_portrait_rows_match_pointwise_symbol(tmp_path, cli_env):
    out = tmp_path / "portrait.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "sawtooth_portrait.py"),
         "--dim", "48", "--actions", "4,25", "--grid", "16", "--output", str(out)],
        env=cli_env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
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

"""The benchmark's four workloads: fixed lists of anglekit CLI commands.

Each workload stresses a different kernel behind the three routes to the
angle operator.  The seed picks only continuous parameters (J, t, sigma)
from narrow fixed ranges; sizes never change, so the work per command is
the same for every seed.  Every command carries a check of its output
against a reference computed here, before any command is timed.
"""

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable  # output text -> None, or the reason it is wrong


def _pick(rng, lo, hi):
    """Uniform value in [lo, hi], rounded so the CLI parses the very float the oracle uses."""
    text = f"{rng.uniform(lo, hi):.4f}"
    return text, float(text)


def _suite(name, *extra):
    return Command(("check", name, *extra), lambda text: oracles.check_suite(text, name))


def _spectrum(argv, expected):
    return Command(argv, lambda text: oracles.check_spectrum(text, expected))


def _symbols(argv, J, grid, expected):
    return Command(argv, lambda text: oracles.check_symbols(text, J, grid, expected))


def _shift_defect(rng):
    # One basis mode each: two-sided in the commutator sweep, cyclic in the
    # spectrum, one-sided in the check's angle_support.
    table = oracles.commutator_table((64, 96), (16, 32))
    return [
        Command(
            ("commutator", "--dims", "64,96", "--margins", "16,32"),
            lambda text: oracles.check_commutator(text, table),
        ),
        _spectrum(
            ("spectrum", "--construction", "halfcircle", "--mode", "cyclic", "--dim", "64"),
            oracles.full_angle_spectrum("cyclic", 64),
        ),
        _suite("halfcircle", "--dim", "48", "--mode", "one_sided"),
    ]


def _dense_spectra(rng):
    t_text, t = _pick(rng, 0.29, 0.31)
    s_text, sigma = _pick(rng, 0.9, 1.1)
    return [
        _spectrum(
            ("spectrum", "--construction", "wh", "--t", t_text, "--dim", "128"),
            np.linalg.eigvalsh(oracles.published_angle_matrix(t, 128)),
        ),
        _spectrum(
            ("spectrum", "--construction", "circle", "--sigma", s_text, "--dim", "128"),
            np.linalg.eigvalsh(oracles.circle_angle_matrix(sigma, 128)),
        ),
        _suite("linalg"),
    ]


def _wh_plane(rng):
    t_text, t = _pick(rng, 0.29, 0.31)
    j_text, J = _pick(rng, 24.0, 26.0)
    j0_text, J0 = _pick(rng, 98.0, 102.0)
    check_t, _ = _pick(rng, 0.29, 0.31)
    grid96, grid64 = oracles.symbol_grid(96), oracles.symbol_grid(64)
    return [
        _symbols(
            ("lower-symbol", "--construction", "wh", "--t", t_text, "--J", j_text,
             "--dim", "160", "--gamma-grid", "96"),
            J, grid96, oracles.wh_lower_symbols(t, J, 160, grid96),
        ),
        _symbols(
            ("lower-symbol", "--construction", "wh", "--t", "0", "--J", j0_text,
             "--dim", "160", "--gamma-grid", "64"),
            J0, grid64, oracles.wh_lower_symbols(0.0, J0, 160, grid64),
        ),
        _suite("whquant", "--t", check_t),
        _suite("specfun"),
    ]


def _circle_cylinder(rng):
    s_wide_text, s_wide = _pick(rng, 9.9, 10.1)
    j_wide_text, j_wide = _pick(rng, 0.0, 0.5)
    s_narrow_text, s_narrow = _pick(rng, 0.9, 1.1)
    j_narrow_text, j_narrow = _pick(rng, 0.0, 0.5)
    grid128, grid64 = oracles.symbol_grid(128), oracles.symbol_grid(64)
    return [
        _symbols(
            ("lower-symbol", "--construction", "circle", "--sigma", s_wide_text, "--J", j_wide_text,
             "--dim", "200", "--gamma-grid", "128"),
            j_wide, grid128, oracles.circle_lower_symbols(s_wide, j_wide, 200, grid128),
        ),
        _symbols(
            ("lower-symbol", "--construction", "circle", "--sigma", s_narrow_text, "--J", j_narrow_text,
             "--dim", "48", "--gamma-grid", "64"),
            j_narrow, grid64, oracles.circle_lower_symbols(s_narrow, j_narrow, 48, grid64),
        ),
        _suite("circlecs"),
        _suite("moments"),
    ]


# Why each workload was chosen is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "shift-defect": _shift_defect,
    "dense-spectra": _dense_spectra,
    "wh-plane": _wh_plane,
    "circle-cylinder": _circle_cylinder,
}


def build(name, seed):
    """The workload's commands for this seed, with their references computed."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))

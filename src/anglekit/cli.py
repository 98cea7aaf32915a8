"""Command-line front end: spectra, lower symbols, commutator sweeps, checks.

Outputs are plain CSV for grids/spectra and JSON for check reports, and
are byte-identical across runs of the same configuration.  Exit codes:
0 success, 1 check failure, 2 usage or configuration error, 3 numerical
failure.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import checks, circlecs, halfcircle, linalg, specfun, whquant
from .errors import ConvergenceError, DomainError
from .linalg import BasisSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_CONSTRUCTIONS = ("halfcircle", "wh", "circle", "canonical")
_SYMBOL_CONSTRUCTIONS = ("wh", "circle")
# construction-specific fields; all read dim, lower-symbol also J and gamma_grid
_READS = {"halfcircle": {"mode"}, "wh": {"t"}, "circle": {"sigma"}, "canonical": {"harmonics"}}


@dataclass
class ExperimentConfig:
    """Validated bundle of experiment parameters shared by subcommands."""

    construction: str = "wh"
    dim: int = 64
    mode: str = "two_sided"
    t: float = 0.0
    sigma: float = 1.0
    harmonics: int = None
    J: float = 25.0
    gamma_grid: int = 64
    dims: tuple = (128, 256)
    margins: tuple = (32, 64)
    output: str = None

    def validate(self):
        for name in ("sigma", "J"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not 4 <= self.dim <= 1024:
            raise DomainError(f"dim must lie in [4, 1024], got {self.dim}")
        if self.mode not in ("one_sided", "two_sided", "cyclic"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if not 0.0 <= self.t < 1.0:
            raise DomainError(f"t must lie in [0, 1), got {self.t}")
        if self.sigma <= 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if self.harmonics is not None and self.harmonics < 0:
            raise DomainError(f"harmonics must be nonnegative, got {self.harmonics}")
        if self.construction == "wh" and self.J < 0:  # the cylinder's action spans the line
            raise DomainError(f"J must be nonnegative, got {self.J}")
        if self.gamma_grid < 8:
            raise DomainError(f"gamma-grid must be at least 8, got {self.gamma_grid}")
        if not self.dims:
            raise DomainError("dims names no sweep dim")
        if not self.margins:
            raise DomainError("margins names no window margin")
        for d in self.dims:
            if not 8 <= d <= 1024:
                raise DomainError(f"sweep dim {d} outside [8, 1024]")
        for m in self.margins:
            if m < 1:
                raise DomainError(f"margin {m} must be positive")
            if 2 * m >= max(self.dims):
                raise DomainError(f"margin {m} is at least half of every sweep dim")
        return self


def _parse_config_file(path, known_keys, command):
    """Flat key=value lines; keys mirror the subcommand's long flags, each given once."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in known_keys:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r} for {command}")
            if key in overrides:
                raise DomainError(f"{path}:{lineno}: duplicate config key {key!r}")
            overrides[key] = value
    return overrides


def _int_list(text):
    return tuple(int(x) for x in text.split(",") if x)


def _fmt_float(value):
    return repr(float(value))


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _spectrum_operator(cfg):
    if cfg.construction == "halfcircle":
        fam = halfcircle.build_shift_family(BasisSpec(cfg.mode, cfg.dim))
        return halfcircle.full_angle(fam), cfg.mode
    if cfg.construction == "wh":
        return whquant.angle_matrix(cfg.t, cfg.dim), _fmt_float(cfg.t)
    if cfg.construction == "circle":
        dist = circlecs.gaussian_distribution(cfg.sigma)
        basis = BasisSpec("two_sided", cfg.dim)
        op = circlecs.quantize_cyl(dist, basis, specfun.sawtooth_fourier(cfg.dim - 1))
        return op, _fmt_float(cfg.sigma)
    harmonics = cfg.harmonics if cfg.harmonics is not None else cfg.dim // 2 - 1
    op = whquant.canonical_angle_B(cfg.dim, mode="cyclic", q_cutoff=harmonics)
    return op, str(harmonics)


def cmd_spectrum(cfg):
    """Ascending eigenvalues as CSV, with no eigenvector solve.

    The half-circle full angle reads its attached closed-form system; the
    wh, circle and canonical matrices, c I + i K with K real
    antisymmetric (c = pi, pi g_0 and pi), go to `linalg.chiral_eigenvalues`.
    """
    op, param = _spectrum_operator(cfg)
    values = op.eig.eigenvalues if op.eig is not None else linalg.chiral_eigenvalues(op)
    lines = ["construction,D,param,index,eigenvalue"]
    for idx, lam in enumerate(values):
        lines.append(f"{cfg.construction},{cfg.dim},{param},{idx},{_fmt_float(lam)}")
    _write_text(cfg.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_lower_symbol(cfg):
    angles = np.linspace(0.0, 2.0 * math.pi, cfg.gamma_grid, endpoint=False)
    op, _ = _spectrum_operator(cfg)
    if cfg.construction == "wh":
        weight = whquant.WeightSpec(t=cfg.t)
        values = whquant.lower_symbols(op, weight, cfg.J, angles)
    else:
        dist = circlecs.gaussian_distribution(cfg.sigma)
        values = circlecs.lower_symbols_cyl(op, dist, cfg.J, angles)
    lines = ["J,gamma_or_phi,re,im"]
    for angle, val in zip(angles, values):
        lines.append(
            f"{_fmt_float(cfg.J)},{_fmt_float(angle)},{_fmt_float(val.real)},{_fmt_float(val.imag)}"
        )
    _write_text(cfg.output, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_commutator(cfg):
    lines = ["D,margin,window_lo,window_hi,defect"]
    for dim in cfg.dims:
        margins = [margin for margin in cfg.margins if 2 * margin < dim]
        if not margins:
            continue
        fam = halfcircle.build_shift_family(BasisSpec("two_sided", dim))
        for margin, defect in zip(margins, halfcircle.commutator_defect(fam, margins)):
            lo, hi = linalg.interior_window(fam.basis, margin)
            lines.append(f"{dim},{margin},{lo},{hi},{_fmt_float(defect)}")
    _write_text(cfg.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _suites(suite):
    return checks.suite_names() if suite == "all" else [suite]


def _unread(args, cfg, provided):
    """What the command runs, and the provided fields it would not read."""
    if args.command == "check":
        unread = provided - {"output"} - checks.fields_read(_suites(args.suite))
        return f"check {args.suite}", unread
    if args.command in ("spectrum", "lower-symbol"):
        unread = provided & set().union(*_READS.values()) - _READS[cfg.construction]
        return f"{args.command} construction {cfg.construction}", unread
    return args.command, provided - {"dims", "margins", "output"}


def cmd_check(suite, cfg, provided):
    narrowing = {key: getattr(cfg, key) for key in provided & checks.fields_read(_suites(suite))}
    results = [res for name in _suites(suite) for res in checks.run_suite(name, **narrowing)]
    for res in results:
        print(
            f"{res.suite}/{res.invariant}: {res.status.upper()} "
            f"(measured={res.measured:.6e}, tolerance={res.tolerance:.6e})"
        )
    if cfg.output:
        payload = [asdict(r) for r in results]
        _write_text(cfg.output, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


_T_HELP = (
    "wh weight parameter in [0, 1), default 0; t > 0 uses the published "
    "angle_matrix(t), whose off-diagonals are (1-t) times those of the "
    "quantized sawtooth"
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="anglekit",
        description="Finite-truncation numerics for quantum angle operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file mirroring the flags")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--dim", type=int, help="truncation dimension (default 64)")

    p_spec = sub.add_parser("spectrum", help="sorted eigenvalues of an angle operator")
    add_common(p_spec)
    p_spec.add_argument("--construction", choices=_CONSTRUCTIONS, help="default wh")
    p_spec.add_argument("--mode", help="basis mode for halfcircle (default two_sided)")
    p_spec.add_argument("--t", type=float, help=_T_HELP)
    p_spec.add_argument("--sigma", type=float, help="circle density width, default 1")
    p_spec.add_argument("--harmonics", type=int, help="canonical cutoff Q (default dim/2 - 1)")

    p_sym = sub.add_parser("lower-symbol", help="symbol of the angle operator on a grid")
    add_common(p_sym)
    p_sym.add_argument("--construction", choices=_SYMBOL_CONSTRUCTIONS, help="default wh")
    p_sym.add_argument("--t", type=float, help=_T_HELP)
    p_sym.add_argument("--sigma", type=float, help="circle density width, default 1")
    p_sym.add_argument("--J", type=float, help="action coordinate, default 25")
    p_sym.add_argument("--gamma-grid", type=int, help="angle sample count, default 64")

    p_comm = sub.add_parser("commutator", help="commutation defect vs window table")
    add_common(p_comm)
    p_comm.add_argument("--dims", help="comma-separated dimensions (default 128,256)")
    p_comm.add_argument("--margins", help="comma-separated window margins (default 32,64); "
                        "a D with 2*margin >= D is skipped, a margin no D fits is an error")

    p_check = sub.add_parser("check", help="run invariant suites")
    add_common(p_check)
    p_check.add_argument(
        "suite",
        choices=checks.suite_names() + ["all"],
        help="suite name or 'all'",
    )
    p_check.add_argument("--mode", help="basis mode narrowing, where a suite allows it")
    p_check.add_argument("--t", type=float, help="weight parameter narrowing")
    p_check.add_argument("--sigma", type=float, help="density width narrowing")
    return parser


def _config_from_args(args):
    cfg = ExperimentConfig()
    provided = set()
    # the known keys are the parsed subcommand's own flags
    keys = {field.name for field in fields(ExperimentConfig)} & set(vars(args))
    from_file = _parse_config_file(args.config, keys, args.command) if args.config else {}
    for field in fields(ExperimentConfig):
        # a flag beats a config-file key
        for value in (from_file.get(field.name), getattr(args, field.name, None)):
            if value is not None:
                cast = _int_list if field.type is tuple else field.type
                setattr(cfg, field.name, cast(value))
                provided.add(field.name)
    allowed = _SYMBOL_CONSTRUCTIONS if args.command == "lower-symbol" else _CONSTRUCTIONS
    if cfg.construction not in allowed:
        raise DomainError(
            f"{args.command} supports constructions {allowed}, got {cfg.construction!r}"
        )
    # a provided field the command does not read is reported before any value is judged
    subject, unread = _unread(args, cfg, provided)
    if unread:
        raise DomainError(f"{subject} does not read {', '.join(sorted(unread))}")
    return cfg.validate(), provided


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, provided = _config_from_args(args)
    except (DomainError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "lower-symbol":
            return cmd_lower_symbol(cfg)
        if args.command == "commutator":
            return cmd_commutator(cfg)
        if args.command == "check":
            return cmd_check(args.suite, cfg, provided)
    except (ConvergenceError, DomainError, FloatingPointError) as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())

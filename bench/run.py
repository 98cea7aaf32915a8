"""anglekit benchmark: run one workload of CLI commands and report its cost.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or ``all`` to run each in
turn.  Every command runs in its own fresh ``python child.py`` process, the
way a user runs ``python -m anglekit.cli``.  The loop is closed with one
client: a command starts only after the previous one has exited, so at most
one program process is alive at a time.  Children get an absolute
PYTHONPATH to this checkout's ``src`` and BLAS pinned to one thread, the
single-threaded baseline of a small shared machine.

The first pass runs every command once; further commands, in order, start
only while the run is expected to end within S seconds.  Every output is
checked against the reference in oracles.py; a command fails on a nonzero
exit, on a check invariant that is not PASS, or on output that disagrees
with its reference.

With ``--trace 0`` the result reports the end-to-end metrics:

  wall_s       sum over commands of the median time spent in cli.main
  setup_s      median time from process launch to the call of cli.main
               (importing numpy, scipy and anglekit)
  cpu_s        sum over commands of the median user+system CPU in cli.main
  peak_rss_mb  largest peak RSS of any process

With ``--trace 1`` each command runs untraced and then traced (tracer.py),
and the result reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The parent and child compare readings of CLOCK_MONOTONIC, which
is shared by all processes on Linux.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)  # the oracles in this process use one BLAS thread too

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, PROBE  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
HARD_LIMIT_S = 165.0  # a run must end well within 180 s, even if the program hangs

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# (function, statistic) pairs reported from the traced run, besides the
# calls, self_s and errors of every layer.
KERNEL_METRICS = (
    ("linalg.hermitian_eig", "calls"),
    ("linalg.hermitian_eig", "self_s"),
    ("linalg.hermitian_eig", "work_d3"),
    ("linalg.hermitian_eig", "repeat_frac"),
    ("linalg.hermitian_eig", "max_residual"),
    ("linalg.spectral_function", "self_s"),
    ("halfcircle.angle_upper", "total_s"),
    ("halfcircle.sigma_isometry", "total_s"),
    ("halfcircle.full_angle", "total_s"),
    ("whquant.displacement_laguerre", "calls"),
    ("whquant.displacement_laguerre", "self_s"),
    ("whquant.quantize", "calls"),
    ("whquant.quantize", "self_s"),
    ("whquant.lower_symbol", "calls"),
    ("whquant.lower_symbol", "self_s"),
    ("whquant.angle_matrix", "self_s"),
    ("whquant.f_coefficient", "calls"),
    ("specfun.ln_gamma", "calls"),
    ("specfun.gauss_2f1_terminating", "calls"),
    ("circlecs.overlap", "calls"),
    ("circlecs.overlap", "self_s"),
    ("circlecs.cs_vector", "self_s"),
    ("circlecs.quantize_cyl_grid", "self_s"),
    ("checks.run_suite", "self_s"),
)
UNITS = {
    "calls": "count",
    "errors": "count",
    "work_d3": "count",
    "self_s": "s",
    "total_s": "s",
    "repeat_frac": "frac",
    "max_residual": "rel",
    "overhead_frac": "frac",
}


def per_layer_names():
    names = [f"{layer}.{stat}" for layer in LAYERS for stat in ("calls", "self_s", "errors")]
    names += [f"{fn}.{stat}" for fn, stat in KERNEL_METRICS]
    return names + ["trace.overhead_frac"]


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "ANGLEKIT_THREADS"}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "anglekit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_PIN,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loop": "closed, 1 client, 1 program process at a time",
    }


class Runner:
    """Launches child processes inside one run directory of the checkout."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def launch(self, argv, traced):
        """Run one command; return its measurements and any failure reason."""
        self.count += 1
        base = self.run_dir / str(self.count)
        record_path, out_path, err_path = (base.with_suffix(s) for s in (".json", ".out", ".err"))
        trace_path = base.with_suffix(".npz") if traced else None
        cmd = [sys.executable, str(CHILD), str(record_path), str(trace_path or "-"), *argv]
        result = {"traced": traced, "error": None, "timed_out": False}
        launched = time.monotonic()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            try:
                proc = subprocess.run(
                    cmd, stdout=out, stderr=err, cwd=self.run_dir, env=self.env,
                    timeout=max(1.0, self.deadline - launched),
                )
            except subprocess.TimeoutExpired:
                result.update(error="timed out", timed_out=True, elapsed=time.monotonic() - launched)
                return result
        result["elapsed"] = time.monotonic() - launched
        result["output"] = out_path.read_text(errors="replace")
        try:
            record = json.loads(record_path.read_text())
        except (OSError, ValueError):
            record = None
        if proc.returncode != 0 or record is None:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            result["error"] = f"exit code {proc.returncode}" + "".join(f": {t[:200]}" for t in tail)
            return result
        result.update(
            setup_s=record["ready"] - launched,
            main_s=record["main_s"],
            cpu_s=record["cpu_s"],
            peak_rss_kb=record["peak_rss_kb"],
        )
        if traced:
            with np.load(trace_path, allow_pickle=False) as data:
                result["trace"] = {key: data[key] for key in data.files}
        return result


def run_workload(name, seed, seconds, trace):
    commands = workloads.build(name, seed)
    run_dir = ROOT / ".bench_run" / f"{name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    runner = Runner(run_dir, start + HARD_LIMIT_S)
    samples = [[] for _ in commands]  # per command: one list of launches per execution
    try:
        runner.launch([], traced=False)  # warm the file cache; not measured
        start = time.monotonic()
        stop = False
        for index in itertools.count():
            i = index % len(commands)
            if index >= len(commands):
                expected = statistics.median(sum(r["elapsed"] for r in ex) for ex in samples[i])
                if time.monotonic() - start + expected > seconds:
                    break
            execution = []
            for traced in ((False, True) if trace else (False,)):
                result = runner.launch(commands[i].argv, traced)
                reason = commands[i].check(result["output"]) if "output" in result else None
                if reason is not None:
                    result["error"] = "; ".join(filter(None, (result["error"], f"wrong output: {reason}")))
                execution.append(result)
                stop = stop or result["timed_out"]
            samples[i].append(execution)
            if stop:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    return commands, samples


def describe(values, unit):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.4f} {unit}"
    for pct in (99.9, 99, 95, 90, 75, 50):
        k = int(np.ceil(pct / 100.0 * n)) - 1
        if n - 1 - k >= 10:
            text += f", p{pct:g} {values[k]:.4f} {unit}"
            break
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f", n={n}"


def end_to_end(samples):
    """End-to-end metrics from the successful untraced launches, and the set-up samples.

    wall_s and cpu_s are sums over the workload's commands, so both are left
    out when one command never ran successfully; setup_s and peak_rss_mb are
    left out when no process did.
    """
    ok = [[r for ex in cmd for r in ex if not r["traced"] and r["error"] is None] for cmd in samples]
    setups = [r["setup_s"] for cmd in ok for r in cmd]
    values = {}
    if all(ok):
        values["wall_s"] = sum(statistics.median(r["main_s"] for r in cmd) for cmd in ok)
        values["cpu_s"] = sum(statistics.median(r["cpu_s"] for r in cmd) for cmd in ok)
    if setups:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = max(r["peak_rss_kb"] for cmd in ok for r in cmd) / 1024.0
    return values, setups


def span_times(trace):
    """Self and total seconds per traced function from one process's spans."""
    names, spans = trace["names"], trace["spans"]
    self_s = np.zeros(len(names))
    total_s = np.zeros(len(names))
    if len(spans):
        ids, parents, fns = (spans[:, c].astype(np.int64) for c in range(3))
        dur = spans[:, 4] - spans[:, 3]
        covered = np.zeros(ids.max() + 1)
        nested = parents >= 0
        np.add.at(covered, parents[nested], dur[nested])
        self_s = np.bincount(fns, weights=dur - covered[ids], minlength=len(names))
        total_s = np.bincount(fns, weights=dur, minlength=len(names))
    return dict(zip(names, self_s)), dict(zip(names, total_s))


def per_layer(samples):
    """Per-layer metrics from the traced launches of one run."""
    counts, errors, self_s, total_s = {}, {}, {}, {}
    eig_work, eig_repeats, eig_resid = 0.0, 0.0, 0.0
    traced_main, untraced_main = [], []
    for cmd in samples:
        traced = [r for ex in cmd for r in ex if r["traced"] and "trace" in r]
        plain = [r for ex in cmd for r in ex if not r["traced"] and "main_s" in r]
        if not traced or not plain:
            continue
        traced_main.append(statistics.median(r["main_s"] for r in traced))
        untraced_main.append(statistics.median(r["main_s"] for r in plain))
        first = traced[0]["trace"]
        for other in traced[1:]:
            if not np.array_equal(other["trace"]["calls"], first["calls"]):
                print("warning: call counts differ between traced executions", file=sys.stderr)
        for name, c, e in zip(first["names"], first["calls"], first["errors"]):
            counts[name] = counts.get(name, 0) + int(c)
            errors[name] = errors.get(name, 0) + int(e)
        times = [span_times(r["trace"]) for r in traced]
        for name in first["names"]:
            self_s[name] = self_s.get(name, 0.0) + statistics.median(t[0][name] for t in times)
            total_s[name] = total_s.get(name, 0.0) + statistics.median(t[1][name] for t in times)
        eig_work += first["eig"][0]
        eig_repeats += first["eig"][1]
        eig_resid = max(eig_resid, max(float(r["trace"]["eig"][2]) for r in traced))

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer and k != PROBE)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layer_sum(counts, layer)
        metrics[f"{layer}.self_s"] = layer_sum(self_s, layer)
        metrics[f"{layer}.errors"] = layer_sum(errors, layer)
    eig_calls = counts.get("linalg.hermitian_eig", 0)
    extra = {
        "work_d3": eig_work,
        "repeat_frac": eig_repeats / eig_calls if eig_calls else 0.0,
        "max_residual": eig_resid,
    }
    for fn, stat in KERNEL_METRICS:
        table = {"calls": counts, "self_s": self_s, "total_s": total_s}.get(stat)
        metrics[f"{fn}.{stat}"] = table.get(fn, 0) if table is not None else extra[stat]
    if traced_main:
        metrics["trace.overhead_frac"] = sum(traced_main) / sum(untraced_main) - 1.0
    else:
        metrics["trace.overhead_frac"] = 0.0
    return metrics


def report(name, seed, commands, samples, trace):
    """Print the workload's summary; return (attempted, failed, metrics)."""
    launches = [r for cmd in samples for ex in cmd for r in ex]
    failures = [(i, r["error"]) for i, cmd in enumerate(samples) for ex in cmd for r in ex if r["error"]]
    attempted, failed = len(launches), len(failures)
    print(f"workload {name} seed {seed} trace {trace}: {attempted} processes")
    for cmd, runs in zip(commands, samples):
        plain = [r for ex in runs for r in ex if not r["traced"] and "main_s" in r]
        if plain:
            print(f"  anglekit {' '.join(cmd.argv)}")
            print(f"    wall: {describe([r['main_s'] for r in plain], 's')}")
            print(f"    cpu:  {describe([r['cpu_s'] for r in plain], 's')}")
    for i, error in failures[:10]:
        print(f"  FAILED anglekit {' '.join(commands[i].argv)}: {error}")
    values, setups = end_to_end(samples)
    if setups:
        print(f"  setup: {describe(setups, 's')}")
    fail_frac = failed / attempted if attempted else 1.0
    print(f"  fail_frac: {fail_frac:.6g} frac ({failed} of {attempted} commands)")
    if trace:
        metrics = per_layer(samples)
        names = per_layer_names()
        units = {n: UNITS[n.rsplit(".", 1)[1]] for n in names}
    else:
        metrics, units = values, END_TO_END
    for key, value in metrics.items():
        print(f"  {key}: {value:.6g} {units[key]}")
    for key in units.keys() - metrics.keys():
        print(f"  {key}: missing, no successful run to measure it from")
    return attempted, failed, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "anglekit" / "cli.py").is_file():
        print(f"run.py: no anglekit sources at {SRC / 'anglekit'}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(), sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        commands, samples = run_workload(name, args.seed, args.seconds, args.trace)
        a, f, m = report(name, args.seed, commands, samples, args.trace)
        attempted, failed = attempted + a, failed + f
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

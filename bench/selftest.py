"""Self-test of the benchmark.

    python3 bench/selftest.py

1. Two traced runs of every workload on the same code report identical
   counts: every ``*.calls`` and ``*.errors``, plus hermitian_eig's
   ``work_d3`` and ``repeat_frac``.
2. ``linalg.hermitian_eig.calls`` is 0 on wh-plane and circle-cylinder and
   positive on shift-defect and dense-spectra.
3. Every command's output passes its oracle, so fail_frac is 0.
4. The traced run reports exactly the per_layer metrics of BENCHMARK.json.
5. In a directory holding only BENCHMARK.json and the benchmark's files,
   run.py exits nonzero without printing a result.

Prints one line per finding and exits nonzero if any check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EIG_FREE = ("wh-plane", "circle-cylinder")
COUNTED = (".calls", ".errors", ".work_d3", ".repeat_frac")
SEED = 0


def run(cwd, workload, seed, trace):
    cmd = [sys.executable, str(Path("bench") / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def traced_result(workload):
    proc = run(ROOT, workload, SEED, 1)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py failed on {workload}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected_names = [m["name"] for m in config["per_layer"]]
    problems = []

    def check(ok, text):
        print(("ok      " if ok else "FAILED  ") + text, flush=True)
        if not ok:
            problems.append(text)

    for workload in (w["name"] for w in config["workloads"]):
        first, second = traced_result(workload), traced_result(workload)
        m1, m2 = first["metrics"], second["metrics"]
        check(list(m1) == expected_names, f"{workload}: per-layer metrics match BENCHMARK.json")
        counted = [k for k in m1 if k.endswith(COUNTED)]
        differ = [k for k in counted if m1[k]["value"] != m2.get(k, {}).get("value")]
        check(not differ, f"{workload}: {len(counted)} counts repeat across two traced runs {differ or ''}")
        eig_calls = m1["linalg.hermitian_eig.calls"]["value"]
        if workload in EIG_FREE:
            check(eig_calls == 0, f"{workload}: linalg.hermitian_eig.calls is 0 (got {eig_calls})")
        else:
            check(eig_calls > 0, f"{workload}: linalg.hermitian_eig.calls is positive (got {eig_calls})")
        for result in (first, second):
            check(result["correct"] and result["failed"] == 0,
                  f"{workload}: fail_frac 0 ({result['failed']} of {result['attempted']} failed)")

    bare = ROOT / ".bench_run" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, config["workloads"][0]["name"], SEED, 0)
        printed_result = proc.stdout.strip().startswith("{") or '"correct"' in proc.stdout
        check(proc.returncode != 0 and not printed_result,
              f"without the program, run.py exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

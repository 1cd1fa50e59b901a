"""cavsta benchmark: wall time of the `cavsta` CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.

--trace 0 is the closed loop a user sees: one client starts
``cavsta run|sweep <config> --threads 1`` as a child process, waits for it to
exit, checks its artifacts, and starts the next while the next is expected
to finish within S seconds (at least one run always happens).  It reports
the median wall time and peak resident memory of those children, and the
median wall time of a fresh interpreter that imports cavsta and loads the
config (the fixed cost of every CLI call), taken SETUP_REPEATS times.

--trace 1 runs layers.py instead: in-process runs untraced, traced and
untraced again, reporting every per-layer metric and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Children run single-threaded (OMP_NUM_THREADS etc.
set to 1) and write only under .bench_work/ in the checkout, where a traced
run also leaves its spans (trace-<workload>-seed<N>.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads
from layers import METRICS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # whole benchmark, leaving margin under the 180 s limit
SETUP_CODE = (
    "import sys, cavsta, numpy, scipy; cavsta.load_config(sys.argv[1]); "
    "print(cavsta.__file__, numpy.__version__, scipy.__version__, sep='\\n')"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad setup)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd, env, log_prefix: str, timeout: float):
    """Run `cmd` to completion: (wall seconds, peak RSS in MB, exit code).

    os.wait4 gives the rusage of this one child; RUSAGE_CHILDREN would be a
    running maximum over every child reaped so far."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(env, ini: str, work: str, deadline: float):
    """Median wall time of SETUP_REPEATS fresh interpreters importing cavsta
    and loading `ini`; also returns (numpy, scipy) versions.  Raises
    BenchError when cavsta does not import from this checkout's src."""
    times, versions = [], None
    for i in range(SETUP_REPEATS):
        prefix = os.path.join(work, f"setup{i}")
        wall, _, code = spawn([sys.executable, "-c", SETUP_CODE, ini], env, prefix,
                              max(1.0, deadline - time.perf_counter()))
        with open(prefix + ".out", encoding="utf-8") as f:
            words = f.read().splitlines()
        if code != 0 or len(words) != 3:
            with open(prefix + ".err", encoding="utf-8") as f:
                raise BenchError(f"importing cavsta failed (exit {code}): {f.read()[-400:]}")
        if not os.path.abspath(words[0]).startswith(SRC + os.sep):
            raise BenchError(f"cavsta imported from {words[0]}, not from {SRC}")
        times.append(wall)
        versions = tuple(words[1:])
    return statistics.median(times), versions


def _listed(prefix: str) -> list:
    with open(prefix + ".out", encoding="utf-8") as f:
        return [line.strip() for line in f if line.strip()]


def _report_failures(label: str, fails: list, prefix: str | None = None) -> None:
    for msg in fails:
        print(f"{label}: FAIL {msg}", file=sys.stderr)
    if fails and prefix is not None:
        with open(prefix + ".err", encoding="utf-8", errors="replace") as f:
            sys.stderr.write(f.read()[-2000:])


def timed_loop(wl, seed: int, seconds: float, env, work: str, deadline: float):
    """Closed loop of CLI children for `seconds`; (metrics, attempted, failed)."""
    ini = os.path.join(work, "config.ini")
    with open(ini, "w", encoding="utf-8") as f:
        f.write(wl.ini)
    setup_s, versions = measure_setup(env, ini, work, deadline)
    print(f"env: python {platform.python_version()} numpy {versions[0]} scipy {versions[1]} "
          f"nproc {os.cpu_count()} threads 1")
    out_dir = os.path.join(work, "out")
    cmd = [sys.executable, "-m", "cavsta.cli", wl.command, ini, "--threads", "1"]
    runs = []  # (wall seconds, peak RSS MB, passed the checks)
    loop_start = time.perf_counter()
    while True:
        shutil.rmtree(out_dir, ignore_errors=True)
        prefix = os.path.join(work, f"child{len(runs)}")
        wall, peak, code = spawn(cmd, env, prefix, max(1.0, deadline - time.perf_counter()))
        fails = checks.check_run(wl, out_dir, _listed(prefix), code, reference=seed == 0)
        _report_failures(f"run {len(runs)}", fails, prefix)
        print(f"run {len(runs)}: {wall:.3f} s  {peak:.1f} MB  {'FAILED' if fails else 'ok'}")
        runs.append((wall, peak, not fails))
        now = time.perf_counter()
        if now - loop_start + wall > seconds or now + wall > deadline:
            break
    passed = [r for r in runs if r[2]] or runs
    metrics = {
        "wall_s": (statistics.median(r[0] for r in passed), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (statistics.median(r[1] for r in passed), "MB"),
    }
    return metrics, len(runs), sum(not r[2] for r in runs)


def traced(wl, seed: int, env, work: str, deadline: float):
    """In-process runs by layers.py, every one checked; (metrics, attempted, failed)."""
    cmd = [sys.executable, os.path.join(HERE, "layers.py"),
           "--workload", wl.name, "--seed", str(seed), "--dir", work]
    prefix = os.path.join(work, "layers")
    _, _, code = spawn(cmd, env, prefix, max(1.0, deadline - time.perf_counter()))
    if code != 0:
        _report_failures("traced run", [f"exit code {code}"], prefix)
        return {}, 3, 3
    with open(os.path.join(work, "trace.json"), encoding="utf-8") as f:
        report = json.load(f)
    failed = 0
    for name, r in report["runs"].items():
        fails = checks.check_run(wl, r["dir"], r["files"], r["exit_code"], reference=seed == 0)
        _report_failures(f"{name} run", fails)
        failed += bool(fails)
    print(f"env: python {platform.python_version()} numpy {report['numpy']} "
          f"scipy {report['scipy']} nproc {os.cpu_count()} threads 1")
    kept = os.path.join(ROOT, ".bench_work", f"trace-{wl.name}-seed{seed}.json")
    os.replace(os.path.join(work, "trace.json"), kept)
    print(f"traced run: untraced median {report['untraced_s']:.3f} s, traced {report['traced_s']:.3f} s, "
          f"{len(report['spans'])} spans kept in {os.path.relpath(kept, ROOT)}")
    units = dict(METRICS)
    metrics = {name: (value, units[name]) for name, value in report["metrics"].items()}
    return metrics, len(report["runs"]), failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cavsta CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "cavsta", "__init__.py")):
        print(f"error: no cavsta sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = workloads.make(args.workload, args.seed, os.path.join(work, "out"))
    print(f"workload {wl.name} seed {args.seed}: Lf={wl.Lf!r} eps={wl.eps!r} "
          f"time_step={wl.time_step}")
    try:
        if args.trace:
            metrics, attempted, failed = traced(wl, args.seed, child_env(), work, deadline)
        else:
            metrics, attempted, failed = timed_loop(
                wl, args.seed, args.seconds, child_env(), work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(f"checks: {attempted - failed}/{attempted} runs passed, failed share {failed / attempted:.3f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

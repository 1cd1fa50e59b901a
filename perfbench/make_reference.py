"""Regenerate the seed-0 reference artifacts in perfbench/reference/.

    python3 perfbench/make_reference.py

Runs each workload's seed-0 config through the CLI of this checkout and
stores every artifact under reference/<workload>/.  The seed-0 benchmark
runs compare energy.csv, sweep.csv and the critical timescale against these
files within the acceptance tolerances (checks.py).  Regenerate only at a
commit whose physics is trusted: the references define "correct".
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import checks
import workloads
from run import ROOT, child_env


def main() -> int:
    for name in sorted(workloads.WHY):
        rel_out = os.path.join(".bench_work", "reference", name)
        out = os.path.join(ROOT, rel_out)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        wl = workloads.make(name, 0, rel_out)
        ini = os.path.join(out, "config.ini")
        with open(ini, "w", encoding="utf-8") as f:
            f.write(wl.ini)
        cmd = [sys.executable, "-m", "cavsta.cli", wl.command, ini, "--threads", "1"]
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True)
        listed = [os.path.join(ROOT, p) for p in proc.stdout.split()]
        fails = checks.check_run(wl, out, listed, proc.returncode, reference=False)
        if fails:
            print(f"{name}: {fails}\n{proc.stderr}", file=sys.stderr)
            return 1
        dest = os.path.join(checks.REFERENCE_DIR, name)
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        for artifact in wl.artifacts:
            shutil.copy(os.path.join(out, artifact), dest)
        shutil.rmtree(out)
        print(f"{name}: wrote {dest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

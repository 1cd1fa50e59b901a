"""Artifacts of three fixed configs stay byte for byte what they were.

Each artifact is hashed whole with SHA-256; no artifact echoes the output
directory, so the digests do not depend on where a run writes.  A change
that is meant to keep every result bitwise (a refactor, a faster kernel
with the same arithmetic) must pass unchanged.  A change that moves the
numerics on purpose must regenerate these digests and say so, with the
shift of each artifact, in its CHANGES.md entry.  To print fresh digests:

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

import hashlib
import os
import tempfile

import numpy as np
import pytest

from cavsta import sta
from cavsta.cli import main

# the minimal config of the README
README_RUN = """\
[geometry]
family = contraction
L0 = 0.0
Lf = 0.3
R0 = 1.0
eps = 0.3
tau = 1.2

[numerics]
temperatures = 0 1
window = auto
time_step = auto

[outputs]
dir = {out}
csv = trajectories, moore, energy
"""

# perfbench's sweep_critical workload at seed 0
SWEEP_CRITICAL = """\
[geometry]
family = contraction
L0 = 0.0
Lf = 0.3
R0 = 1.0
eps = 0.3
tau = 1.2

[numerics]
temperatures = 0 1
window = auto
time_step = auto

[outputs]
dir = {out}

[sweep]
tau_list = 0.3 0.6 1.2 2.4 4.8
critical = yes
tau_min = 0.2
tau_max = 1.2
"""

# perfbench's run_slow workload at seed 0: deep backward traces and long
# kink chains
RUN_SLOW = """\
[geometry]
family = contraction
L0 = 0.0
Lf = 0.3
R0 = 1.0
eps = 0.3
tau = 40.0

[numerics]
temperatures = 0 1
window = auto
time_step = 2.0

[outputs]
dir = {out}
csv = trajectories, moore, energy
"""

CASES = {
    "readme_run": ("run", README_RUN),
    "run_slow": ("run", RUN_SLOW),
    "sweep_critical": ("sweep", SWEEP_CRITICAL),
}

GOLDEN = {
    "readme_run": {
        "energy.csv": "5f405fbedbc10f2f46c0b3d92f9272b846756009e10b3f935d5c3024717fe9a1",
        "moore.csv": "04004e071ac03fc0bf069e3005b8142b7c0c402bfc05c794edd1138acba35ceb",
        "summary.txt": "834cf77a94b9835587942c03fd7005aa65acbb5da8852f6e6923ff032acf082b",
        "trajectories.csv": "3ed5825d57c719c537ba6f47f384d6e3cacfc577da8fba1f4480b3c180f4d67d",
    },
    "run_slow": {
        "energy.csv": "84cd1e6736c62361b80660b599a184d753a577b532c40432e2382bc13bcdde2f",
        "moore.csv": "6b2f3db07f024902438b05e39bd716da78cc73e24910feff3039078db3c25652",
        "summary.txt": "ead1fbd774b5ff75cd51e9f4cd3994b14487aafd411b42ae7e05bafc838e5475",
        "trajectories.csv": "d6df5495893ddd8f0fdb700d69e41e467a1660f5c6b5adf2f9af90a37fe5bf60",
    },
    "sweep_critical": {
        "sweep.csv": "38db8be566773341a1508ca2388b42b452762df427aed2ad0e51f539a016dcc6",
        "sweep_summary.txt": "292f2b979f89019bc3b3b04d3c7f287f6165b9edb43eb97a55c2526ddfb1e272",
    },
}


# the critical_tau line of the sweep_critical case's sweep_summary.txt
CRITICAL_TAU = 1.0159397196071895


def artifact_digests(command: str, ini: str, work: str) -> dict:
    """{file name: SHA-256 hex digest} of the artifacts `cavsta command`
    writes for the config text `ini` (output directory under `work`)."""
    out = os.path.join(work, "out")
    cfg = os.path.join(work, "cfg.ini")
    with open(cfg, "w") as fh:
        fh.write(ini.format(out=out))
    code = main([command, cfg])
    assert code == 0
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_are_byte_identical(case, tmp_path, capsys):
    command, ini = CASES[case]
    assert artifact_digests(command, ini, str(tmp_path)) == GOLDEN[case]


def test_run_calls_no_linalg(tmp_path, capsys, monkeypatch):
    """A run and a critical search call no LAPACK routine: with every public
    `numpy.linalg` function made to raise, the README run still exits 0 and
    writes its golden bytes, and `sta.critical_tau` still gives the
    sweep_critical summary's tau_c.  A sweep reaches LAPACK only through
    `np.polyfit`, so the sweep itself is not covered."""

    def refuse(*args, **kw):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError, match="numpy.linalg called"):
        np.linalg.eigvals(np.eye(2))
    assert artifact_digests("run", README_RUN, str(tmp_path)) == GOLDEN["readme_run"]
    assert sta.critical_tau("contraction", 0.0, 0.3, 1.0, 0.3, 0.2, 1.2) == CRITICAL_TAU


def test_artifacts_do_not_depend_on_the_output_path(tmp_path, capsys):
    """The README run written under two directories whose paths differ in
    length gives the same bytes in every artifact."""
    short, long = tmp_path / "a", tmp_path / ("a" * 40)
    short.mkdir()
    long.mkdir()
    assert artifact_digests("run", README_RUN, str(short)) == artifact_digests(
        "run", README_RUN, str(long)
    )


if __name__ == "__main__":
    for case, (command, ini) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as work:
            digests = artifact_digests(command, ini, work)
        print(f'    "{case}": {{')
        for name, digest in digests.items():
            print(f'        "{name}": "{digest}",')
        print("    },")

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
        "energy.csv": "220e8bcdc96538593033573c82305d8f63f939316666be0e2043ad434eb83323",
        "moore.csv": "04004e071ac03fc0bf069e3005b8142b7c0c402bfc05c794edd1138acba35ceb",
        "summary.txt": "63425ecb05cc6ebf46ca37783836f58de93025c8a4c525b6806bba951d847e64",
        "trajectories.csv": "3a39d02201181424df568bd7f21dea6e70c07d48cf242d4978970d44f1cc4f45",
    },
    "run_slow": {
        "energy.csv": "8f0ee3ce8201be65c274c807253f21bdbd81ba93871b492a15b8571138c0980b",
        "moore.csv": "6b2f3db07f024902438b05e39bd716da78cc73e24910feff3039078db3c25652",
        "summary.txt": "163f3281f81b4a93d2068f117d610414516cf11b32199a583fefec28921f2db5",
        "trajectories.csv": "85c33a1213a6670d8283f5a81f033db3d10d817802040ad90d43a68f417cf77e",
    },
    "sweep_critical": {
        "sweep.csv": "74846a4a7577cdc96e50428d5dbbf3033e8794fd61835a134bba08f11dc9a815",
        "sweep_summary.txt": "9e6066251282b1207977a17c9e91cdcd857d1caa27df9476eda0055300bbebe4",
    },
}


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
    """A run calls no LAPACK routine: with every public `numpy.linalg`
    function made to raise, the README run still exits 0 and writes its
    golden bytes.  A sweep still reaches LAPACK, in `sta.critical_tau` and
    `np.polyfit`, so it is not covered."""

    def refuse(*args, **kw):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        if callable(getattr(np.linalg, name)) and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError, match="numpy.linalg called"):
        sta.critical_tau("contraction", 0.0, 0.3, 1.0, 0.3, 0.2, 1.2)
    assert artifact_digests("run", README_RUN, str(tmp_path)) == GOLDEN["readme_run"]


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

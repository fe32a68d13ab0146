"""The paper's boundary-robustness claim, through its script: the capped
and the open tube grow the same pattern on the cylinder they share."""

import re

from conftest import run_python


def test_closed_and_open_tubes_agree_on_the_shared_cylinder():
    proc = run_python(["scripts/boundary_robustness.py"])
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    found = re.fullmatch(r"(\d+) shared vertices \(1794 closed, 1344 open\): "
                         r"\|correlation\| ([0-9.]+)", last)
    assert found, last
    # every vertex of the open tube lies on the closed one's cylinder
    assert int(found[1]) == 1344
    assert float(found[2]) >= 0.99

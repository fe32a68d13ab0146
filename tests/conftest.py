import os
import subprocess
import sys

import numpy as np
import pytest

import modeiso as mi


def pytest_terminal_summary(terminalreporter):
    # echo the acceptance verdict lines past stdout capture
    mod = sys.modules.get("test_acceptance") \
        or sys.modules.get("tests.test_acceptance")
    if mod is not None and getattr(mod, "VERDICTS", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def square_mesh():
    return mi.generate_rectangle(1.0, 1.0, 16, 16)


@pytest.fixture(scope="session")
def square_matrices(square_mesh):
    return (mi.assemble_mass(square_mesh),
            mi.assemble_stiffness(square_mesh))


@pytest.fixture(scope="session")
def icosphere2():
    return mi.generate_icosphere(2)


@pytest.fixture(scope="session")
def schnakenberg_jacobian():
    model = mi.schnakenberg()
    state = model.steady_state()
    return model.jacobian(state.u, state.v)


def random_spd(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ np.diag(rng.uniform(0.5, 10.0, n)) @ Q.T


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter from the checkout's root with its `src` on
    the path; stdout and stderr captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


VTK_HEADERS = ("POINTS", "CELLS", "CELL_TYPES", "POINT_DATA", "SCALARS",
               "LOOKUP_TABLE")


def vtk_headers(path) -> tuple[bytes, dict[str, int]]:
    """The bytes of a write_vtk file with at most one field, and the byte
    offset of each header line from POINTS on, by its keyword."""
    with open(path, "rb") as fh:
        data = fh.read()
    offsets, at = {}, 0
    for word in VTK_HEADERS:
        at = data.find(b"\n" + word.encode() + b" ", at) + 1
        if at == 0:
            break
        offsets[word] = at
    return data, offsets


def replace_line(data: bytes, at: int, text: str) -> bytes:
    """`data` with the line that starts at byte `at` replaced by `text`."""
    return data[:at] + text.encode() + data[data.index(b"\n", at):]


def block_start(data: bytes, header: int) -> int:
    """The offset of the block that follows the header line at `header`."""
    return data.index(b"\n", header) + 1

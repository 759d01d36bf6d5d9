import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from agmceliece import LinearCode, hermitian_curve, suzuki_curve

# acceptance criteria append their one-line verdicts here; printed at the end
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def checkout_env() -> dict:
    """os.environ with this checkout's src first on PYTHONPATH, so that a
    subprocess imports the package under test, as pytest's pythonpath does."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def herm2():
    return hermitian_curve(2)


@pytest.fixture(scope="session")
def herm3():
    return hermitian_curve(3)


@pytest.fixture(scope="session")
def herm4():
    return hermitian_curve(4)


@pytest.fixture(scope="session")
def suz2():
    return suzuki_curve(2)


@pytest.fixture()
def rng():
    return random.Random(0xA6)


def random_code(field, n, k, rng) -> LinearCode:
    rows = [[field.random_rep(rng) for _ in range(n)] for _ in range(k)]
    return LinearCode(field, n, np.array(rows, dtype=np.int64).reshape(k, n))


def is_subcode(A: LinearCode, B: LinearCode) -> bool:
    """A within B: every generator row of A is a codeword of B."""
    return all(B.contains(row) for row in A.gen)


def random_matrix(field, rows, cols, rng) -> np.ndarray:
    return np.array(
        [[field.random_rep(rng) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


@st.composite
def rep_matrices(draw, field, rows, cols):
    """Hypothesis strategy: a rows x cols array of reps of `field`; rows and
    cols are ints or integer strategies."""
    r = rows if isinstance(rows, int) else draw(rows)
    c = cols if isinstance(cols, int) else draw(cols)
    cells = draw(st.lists(st.integers(0, field.q - 1), min_size=r * c, max_size=r * c))
    return np.array(cells, dtype=np.int64).reshape(r, c)

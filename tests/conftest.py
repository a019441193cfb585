from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from treechase import CodeParams, load_pi, make_code, make_field
from treechase.channel import SoftWeights
from treechase.rscode import encode


@pytest.fixture(scope="session")
def example1_pi() -> np.ndarray:
    path = resources.files("treechase") / "fixtures" / "example1.pi"
    return load_pi(str(path))


@pytest.fixture(scope="session")
def example1_trace() -> list[str]:
    path = resources.files("treechase") / "fixtures" / "example1.trace"
    return path.read_text().splitlines()


@pytest.fixture(scope="session")
def code54() -> CodeParams:
    return make_code(5, 1, 4, 2)


@pytest.fixture(scope="session")
def code76() -> CodeParams:
    return make_code(7, 1, 6, 2)


@pytest.fixture(scope="session")
def code16() -> CodeParams:
    return make_code(2, 4, 15, 11)


def pam_pi(code: CodeParams, rng: np.random.Generator,
           sigma: float | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """Random likelihood matrix from a toy 1-D constellation.

    Symbols map to the real points 0..q-1; a random codeword is sent through
    AWGN and scored against every symbol. Produces realistic column shapes
    (one dominant entry, reliability varying per coordinate) for any q.
    Returns (pi, transmitted codeword).
    """
    q, n = code.field.q, code.n
    if sigma is None:
        sigma = float(rng.uniform(0.4, 1.2))
    msg = [int(v) for v in rng.integers(0, q, size=code.k)]
    cw = encode(code, msg)
    y = np.asarray(cw, dtype=np.float64) + sigma * rng.standard_normal(n)
    sym = np.arange(q, dtype=np.float64)[:, None]
    pi = -((y[None, :] - sym) ** 2) / (2.0 * sigma * sigma)
    return pi, cw


@st.composite
def fields_and_pis(draw):
    """(field, pi) over GF(5), GF(7) or GF(16): pi real, or on a few levels so
    that entries of a column tie."""
    field = draw(st.sampled_from([make_field(5), make_field(7), make_field(2, 4)]))
    levels = draw(st.sampled_from([st.floats(-40.0, 5.0), st.integers(-3, 0).map(float)]))
    return field, draw(hnp.arrays(np.float64, (field.q, draw(st.integers(1, 15))),
                                  elements=levels))


def random_lam(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Random positive soft-weight table, shape (q-1, n), no ties in practice."""
    return rng.uniform(0.01, 3.0, size=(q - 1, n))


def weights_of(lam: np.ndarray) -> SoftWeights:
    """SoftWeights of a hand-made table lam, shape (q-1, n), read as the weights
    about the all-zero hard decision, whose own weight is then 0: lam[d-1][j]
    is the weight of the atom (j, d).  Symbols are integers mod q, any q >= 2
    (the chain needs no field), so W[-d mod q][j] = lam[d-1][j] and
    W[0][j] = +inf; among atoms of equal weight on one coordinate the chain
    puts the smaller symbol -d mod q, so the larger delta, first."""
    q, n = lam.shape[0] + 1, lam.shape[1]
    ring = SimpleNamespace(p=q, q=q, sub=lambda a, b: (a - b) % q)
    W = np.full((q, n), np.inf)
    W[[ring.sub(0, d) for d in range(1, q)]] = lam
    return SoftWeights(ring, W, np.zeros(n, dtype=np.int64), (0,) * n,
                       tuple(lam.min(axis=0).tolist()), 0.0)

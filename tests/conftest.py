import numpy as np
import pytest
from importlib import resources

from treechase import CodeParams, SoftWeights, load_pi, make_code, make_field
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


def random_lam(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Random positive soft-weight table, shape (q-1, n), no ties in practice."""
    return rng.uniform(0.01, 3.0, size=(q - 1, n))


def weights_of(lam: np.ndarray) -> SoftWeights:
    """SoftWeights of a hand-made table lam, read as the weights about the
    all-zero hard decision, whose own weight is then 0."""
    return SoftWeights(lam, (0,) * lam.shape[1], tuple(lam.min(axis=0).tolist()), 0.0)

import numpy as np
import pytest

import shadowlab as sl
from shadowlab import hyperbolicity, shadow


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with no memoised orbit splitting and no memoised cyclic
    factor, so a test that patches the linear algebra reaches it and no test
    sees another's stacks."""
    hyperbolicity._splittings.clear()
    shadow._factor_memo = None


def field_bytes(record):
    """Each field of a dataclass record: an array as its dtype, shape and
    bytes, anything else as its repr."""
    fields = []
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            fields.append((value.dtype.str, value.shape, value.tobytes()))
        else:
            fields.append(repr(value))
    return fields


@pytest.fixture(scope="session")
def cat():
    return sl.cat_map()


@pytest.fixture(scope="session")
def cat_sys(cat):
    return cat.system


@pytest.fixture(scope="session")
def linear_jordan2():
    """Exactly linear size-2 unit Jordan block model."""
    return sl.jordan_model(block="real", size=2, eigenvalue=1, c=0.0)


@pytest.fixture(scope="session")
def nonlinear_jordan2():
    return sl.jordan_model(block="real", size=2, eigenvalue=1, c=1.0, a_ball=0.5)


def random_hyperbolic_matrix(rng, n, moduli=(0.2, 5.0), gap=0.1):
    """Random real matrix with eigenvalue moduli in ``moduli`` away from 1."""
    blocks = []
    total = 0
    while total < n:
        modulus = rng.uniform(*moduli)
        while abs(modulus - 1.0) < gap:
            modulus = rng.uniform(*moduli)
        if total + 2 <= n and rng.uniform() < 0.4:
            th = rng.uniform(0.0, 2.0 * np.pi)
            blocks.append(
                modulus
                * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            )
            total += 2
        else:
            blocks.append(np.array([[modulus * rng.choice([-1.0, 1.0])]]))
            total += 1
    full = np.zeros((n, n))
    at = 0
    for b in blocks:
        k = b.shape[0]
        full[at : at + k, at : at + k] = b
        at += k
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ full @ q.T

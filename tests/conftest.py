import math

import numpy as np
import pytest

from skewbound import OperatorSet, bounds

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def spin_ops(j):
    """Spin matrices (Sx, Sy, Sz) for total spin j."""
    d = int(round(2 * j + 1))
    m = np.array([j - k for k in range(d)])
    Sz = np.diag(m).astype(complex)
    Sp = np.zeros((d, d))
    for k in range(1, d):
        Sp[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    Sx = ((Sp + Sp.T) / 2).astype(complex)
    Sy = (Sp - Sp.T) / 2j
    return Sx, Sy, Sz


def four_3x3_ops():
    i = 1j
    A1 = np.array([[0, 1, 0], [1, 0, i], [0, -i, 0]])
    A2 = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]])
    A3 = np.array([[1, 1, 0], [1, 0, -1], [0, -1, -1]])
    A4 = np.array([[1, 0, i], [0, 0, 0], [-i, 0, -1]])
    return A1, A2, A3, A4


def four_qubit_ops():
    s1 = np.array([[1, 1 - 0.5j], [1 + 0.5j, -1]])
    s2 = np.array([[1, 0.5 + 0.5j], [0.5 - 0.5j, -1]])
    s3 = 0.5 * np.array([[1, -1 - 1j], [-1 + 1j, -1]])
    s4 = np.array([[-1, 0.5 + 0.5j], [0.5 - 0.5j, 1]])
    return s1, s2, s3, s4


@pytest.fixture(autouse=True)
def empty_set_cache():
    """Each test starts with no cached spectral data or floors, so counts of
    h_tot builds and eigensolves do not depend on the tests run before."""
    bounds._records.clear()


@pytest.fixture
def spin_half_set():
    return OperatorSet(spin_ops(0.5))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

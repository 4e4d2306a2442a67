"""Deterministic input generation for the benchmark (numpy only).

Nothing here imports skewbound: inputs are made from the workload seed
alone, written as problem files in the format the CLI reads, and the
reference values the checks compare against are computed here too, with
plain numpy, so a defect in the library cannot hide in its own check.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent stream per (seed, key...), regardless of call order."""
    return np.random.default_rng([seed, *key])


def ginibre(d: int, rng) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(d: int, rng) -> np.ndarray:
    G = ginibre(d, rng)
    return (G + G.conj().T) / 2


def haar_unitary(d: int, rng) -> np.ndarray:
    Q, R = np.linalg.qr(ginibre(d, rng))
    ph = np.diagonal(R) / np.abs(np.diagonal(R))
    return Q * ph


def random_density(d: int, rank: int, rng) -> np.ndarray:
    """Hilbert-Schmidt state of the given rank."""
    G = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    M = G @ G.conj().T
    return M / np.trace(M).real


def spin_ops(d: int) -> list:
    """Spin-j matrices Sx, Sy, Sz with d = 2j + 1."""
    j = (d - 1) / 2
    m = j - np.arange(d)
    Sz = np.diag(m).astype(complex)
    Sp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        Sp[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    Sm = Sp.conj().T
    return [(Sp + Sm) / 2, (Sp - Sm) / 2j, Sz]


def random_kraus(d: int, n_kraus: int, rng) -> list:
    """Kraus operators of a random channel: blocks of a Haar isometry."""
    G = rng.normal(size=(d * n_kraus, d)) + 1j * rng.normal(size=(d * n_kraus, d))
    Q, _ = np.linalg.qr(G)
    return [Q[k * d:(k + 1) * d, :] for k in range(n_kraus)]


def block_diag(*blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    M = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        k = b.shape[0]
        M[i:i + k, i:i + k] = b
        i += k
    return M


def conjugate(ops, U) -> list:
    return [U @ A @ U.conj().T for A in ops]


def matrix_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def write_problem(path: str, rho=None, operators=None, channels=None) -> None:
    obj = {"version": 1}
    if rho is not None:
        obj["rho"] = matrix_json(rho)
    if operators:
        obj["operators"] = {k: matrix_json(v) for k, v in operators.items()}
    if channels:
        obj["channels"] = {k: [matrix_json(K) for K in ks] for k, ks in channels.items()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True))


def _parse_matrix(rows) -> np.ndarray:
    return np.array(
        [[complex(x[0], x[1]) if isinstance(x, list) else complex(x) for x in row] for row in rows]
    )


def read_problem(path: str):
    """(rho, operators, channels) of a problem file, as plain arrays."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    rho = raw.get("rho")
    if isinstance(rho, dict):
        x, y, z = rho["bloch"]
        rho = np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]) / 2
    elif rho is not None:
        rho = _parse_matrix(rho)
    ops = {k: _parse_matrix(v) for k, v in raw.get("operators", {}).items()}
    chans = {k: [_parse_matrix(K) for K in v] for k, v in raw.get("channels", {}).items()}
    return rho, ops, chans


def _powers(rho, s):
    """rho**s and rho**(1-s), with 0**s = 0 below the library's default tol_psd."""
    w, V = np.linalg.eigh((rho + rho.conj().T) / 2)
    w = np.where(w > 1e-10, w, 0.0)
    rs = (V * w**s) @ V.conj().T
    r1s = (V * w ** (1 - s)) @ V.conj().T
    return rs, r1s


def ref_skew(A, rho, s: float) -> float:
    """Wigner-Yanase-Dyson skew information, from its definition."""
    A = np.asarray(A, dtype=complex)
    rs, r1s = _powers(rho, s)
    Ad = A.conj().T
    val = 0.5 * (
        np.trace((Ad @ A + A @ Ad) @ rho)
        - np.trace(r1s @ Ad @ rs @ A)
        - np.trace(rs @ Ad @ r1s @ A)
    ).real
    return max(float(val), 0.0)


def ref_skew_sum(ops, rho, s: float) -> float:
    return sum(ref_skew(A, rho, s) for A in ops)


def clear_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)
    for name in os.listdir(path):
        if name.endswith(".json"):
            os.remove(os.path.join(path, name))

"""Local execution of a bilinear algorithm, kept as a test oracle.

:class:`repro.algebra.bilinear.BilinearAlgorithm` holds only the tensors of
equations (1)-(2) and the encode/decode matrices the distributed engine
(:mod:`repro.matmul.bilinear_clique`) consumes.  The functions below run an
algorithm on one machine, so the suite can check its Brent equations
against NumPy without a clique:

* :func:`apply_blocks` evaluates the algorithm on a grid of equal blocks;
* :func:`multiply` multiplies two square matrices, padding to a multiple
  of ``d``;
* :func:`verify_bilinear` compares :func:`multiply` with NumPy on random
  integer matrices.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algebra.bilinear import BilinearAlgorithm


def apply_blocks(
    algorithm: BilinearAlgorithm, s_blocks: np.ndarray, t_blocks: np.ndarray
) -> np.ndarray:
    """Run ``algorithm`` on block matrices.

    ``s_blocks``/``t_blocks`` have shape ``(d, d, r, k)`` and
    ``(d, d, k, c)`` (grids of equal blocks); returns the product block
    grid ``(d, d, r, c)``.
    """
    d, m = algorithm.d, algorithm.m
    r, k = s_blocks.shape[2], s_blocks.shape[3]
    c = t_blocks.shape[3]
    enc_a, enc_b = algorithm.encode_matrices()
    s_flat = s_blocks.reshape(d * d, r * k)
    t_flat = t_blocks.reshape(d * d, k * c)
    s_hat = (enc_a @ s_flat).reshape(m, r, k)
    t_hat = (enc_b @ t_flat).reshape(m, k, c)
    p_hat = np.einsum("wrk,wkc->wrc", s_hat, t_hat)
    p_flat = algorithm.decode_matrix() @ p_hat.reshape(m, r * c)
    return p_flat.reshape(d, d, r, c)


def multiply(algorithm: BilinearAlgorithm, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Multiply two square matrices locally via ``algorithm``.

    Pads to a multiple of ``d`` as needed.
    """
    d = algorithm.d
    s = np.asarray(s, dtype=np.int64)
    t = np.asarray(t, dtype=np.int64)
    size = s.shape[0]
    padded = math.ceil(size / d) * d
    sp = np.zeros((padded, padded), dtype=np.int64)
    tp = np.zeros((padded, padded), dtype=np.int64)
    sp[:size, :size] = s
    tp[:size, :size] = t
    blk = padded // d
    s_blocks = sp.reshape(d, blk, d, blk).transpose(0, 2, 1, 3)
    t_blocks = tp.reshape(d, blk, d, blk).transpose(0, 2, 1, 3)
    p_blocks = apply_blocks(algorithm, s_blocks, t_blocks)
    p = p_blocks.transpose(0, 2, 1, 3).reshape(padded, padded)
    return p[:size, :size]


def verify_bilinear(
    algorithm: BilinearAlgorithm,
    trials: int = 8,
    block: int = 2,
    seed: int = 0,
) -> None:
    """Check ``algorithm`` against NumPy on random integer matrices.

    Raises ``AssertionError`` on a mismatch.  This is a probabilistic check
    of the Brent equations; with random entries in ``[-100, 100)`` a false
    pass is vanishingly unlikely.
    """
    rng = np.random.default_rng(seed)
    size = algorithm.d * block
    for _ in range(trials):
        s = rng.integers(-100, 100, size=(size, size), dtype=np.int64)
        t = rng.integers(-100, 100, size=(size, size), dtype=np.int64)
        if not np.array_equal(multiply(algorithm, s, t), s @ t):
            raise AssertionError(f"{algorithm.name} disagrees with NumPy matmul")

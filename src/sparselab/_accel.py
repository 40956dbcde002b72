"""Numeric kernels with an optional numba backend.

Backend selection happens once at import time via the env var
``SPARSELAB_NUMBA``: set it to ``"0"`` to force the pure-numpy fallbacks
even when numba is installed; any other value (or unset) enables numba
when importable.  Both backends are deterministic and single-threaded;
they may differ from each other in the last few ulps because summation
order differs, which the bench command reports explicitly.
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba
except ModuleNotFoundError:
    numba = None

USE_NUMBA = numba is not None and os.environ.get("SPARSELAB_NUMBA", "1") != "0"


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"


# -- quasi-triangle constant ------------------------------------------------

def _quasi_triangle_loops(metric):
    n = metric.shape[0]
    best = 1.0
    for x in range(n):
        for y in range(n):
            dxy = metric[x, y]
            if dxy <= 0.0:
                continue
            for z in range(n):
                denom = metric[x, z] + metric[z, y]
                if denom > 0.0:
                    ratio = dxy / denom
                    if ratio > best:
                        best = ratio
    return best


def _quasi_triangle_numpy(metric):
    n = metric.shape[0]
    best = 1.0
    for x in range(n):
        dx = metric[x]
        # denom[z, y] = d(x,z) + d(z,y)
        denom = dx[:, None] + metric
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(denom > 0.0, dx[None, :] / denom, 0.0)
        ratio[:, dx <= 0.0] = 0.0
        m = float(ratio.max()) if n else 1.0
        if m > best:
            best = m
    return best


if USE_NUMBA:
    quasi_triangle_constant = numba.njit(cache=True)(_quasi_triangle_loops)
else:
    quasi_triangle_constant = _quasi_triangle_numpy


# -- fractional-integral kernels --------------------------------------------
# K is the n-by-n matrix K[x, y] = mu(ball(x, d(x, y))); w_i = f_i * masses.

def _frac_kernel_m1_loops(K, w1, expo):
    n = K.shape[0]
    out = np.zeros(n)
    for x in range(n):
        acc = 0.0
        for y in range(n):
            acc += K[x, y] ** expo * w1[y]
        out[x] = acc
    return out


def _frac_kernel_m1_numpy(K, w1, expo):
    return (K ** expo) @ w1


def _frac_kernel_m2_loops(K, w1, w2, expo):
    n = K.shape[0]
    out = np.zeros(n)
    for x in range(n):
        acc = 0.0
        for y1 in range(n):
            k1 = K[x, y1]
            a1 = w1[y1]
            if a1 == 0.0:
                continue
            for y2 in range(n):
                acc += (k1 + K[x, y2]) ** expo * a1 * w2[y2]
        out[x] = acc
    return out


def _frac_kernel_m2_numpy(K, w1, w2, expo):
    n = K.shape[0]
    out = np.empty(n)
    for x in range(n):
        kx = K[x]
        grid = (kx[:, None] + kx[None, :]) ** expo
        out[x] = w1 @ grid @ w2
    return out


def _frac_kernel_m3_loops(K, w1, w2, w3, expo):
    n = K.shape[0]
    out = np.zeros(n)
    for x in range(n):
        acc = 0.0
        for y1 in range(n):
            k1 = K[x, y1]
            a1 = w1[y1]
            if a1 == 0.0:
                continue
            for y2 in range(n):
                k12 = k1 + K[x, y2]
                a12 = a1 * w2[y2]
                if a12 == 0.0:
                    continue
                for y3 in range(n):
                    acc += (k12 + K[x, y3]) ** expo * a12 * w3[y3]
        out[x] = acc
    return out


def _frac_kernel_m3_numpy(K, w1, w2, w3, expo):
    n = K.shape[0]
    out = np.empty(n)
    for x in range(n):
        kx = K[x]
        pair = kx[:, None] + kx[None, :]
        acc = 0.0
        for y3 in range(n):
            acc += w3[y3] * (w1 @ ((pair + kx[y3]) ** expo) @ w2)
        out[x] = acc
    return out


if USE_NUMBA:
    frac_kernel_m1 = numba.njit(cache=True)(_frac_kernel_m1_loops)
    frac_kernel_m2 = numba.njit(cache=True)(_frac_kernel_m2_loops)
    frac_kernel_m3 = numba.njit(cache=True)(_frac_kernel_m3_loops)
else:
    frac_kernel_m1 = _frac_kernel_m1_numpy
    frac_kernel_m2 = _frac_kernel_m2_numpy
    frac_kernel_m3 = _frac_kernel_m3_numpy
frac_kernel_m1_numpy = _frac_kernel_m1_numpy
frac_kernel_m2_numpy = _frac_kernel_m2_numpy
frac_kernel_m3_numpy = _frac_kernel_m3_numpy

"""Level 2 BLAS: matrix-vector operations.

These two routines are exactly the ones the paper's dynamic-peeling fix-up
uses (Section 3.3): the stripped odd row/column contributions are applied
with one rank-one update (DGER) and two matrix-vector products (DGEMV).

DGEMV takes the same ``backend`` as :func:`repro.blas.level3.dgemm`
(:data:`~repro.blas.level3.BACKENDS`): ``"substrate"`` contracts with
numpy's ``einsum`` loop nest, ``"vendor"`` calls ``np.matmul``, which
hands the product to the BLAS GEMV — the vendor DGEMV the paper's
fix-ups use.  DGER has one body on both backends: numpy exposes no
vendor rank-one update, and the blocked body already makes one
streaming pass over A.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.context import ExecutionContext, ensure_context
from repro.blas.level3 import BACKENDS
from repro.blas.validate import (
    require_matrix,
    require_vector,
    require_writable,
)
from repro.errors import ArgumentError, DimensionError

__all__ = ["dgemv", "dger"]

#: elements per DGER block: 256 KiB of float64, so a block and the
#: matching window of A stay in cache between the multiply and the add
_GER_BLOCK = 1 << 15

#: shortest block line (A's extent along its fast axis) for which DGER
#: sets numpy's ufunc buffer to one line.  Measured on a 2-vCPU x86
#: host: at lines under 64 the buffered path is slower whatever the
#: other edge (37x400 F window 64 -> 75 us), from 96 on it is faster
#: (96x400 F window 120 -> 90 us, 400x400 562 -> 262 us)
_GER_MIN_LINE = 96


def dgemv(
    a: Any,
    x: Any,
    y: Any,
    alpha: float = 1.0,
    beta: float = 0.0,
    trans: bool = False,
    *,
    ctx: Optional[ExecutionContext] = None,
    backend: str = "substrate",
) -> Any:
    """``y <- alpha*op(A)*x + beta*y`` (in place); returns ``y``.

    ``op(A)`` is ``A`` or ``A.T`` according to ``trans``.  ``A`` is m-by-n;
    ``x`` has length n (m if ``trans``), ``y`` length m (n if ``trans``).

    ``backend`` selects the product kernel, as for ``dgemm``:
    ``"substrate"`` is numpy's ``einsum`` loop nest, ``"vendor"`` is
    ``np.matmul`` (BLAS GEMV), written straight into ``y`` when
    ``beta == 0`` and ``alpha == 1`` and otherwise scaled and added
    like the substrate product.  Both charge the same operation count;
    ``beta == 0`` never reads ``y``'s prior content.
    """
    ctx = ensure_context(ctx)
    if backend not in BACKENDS:
        raise ArgumentError(
            "dgemv", "backend", f"must be one of {BACKENDS}, got {backend!r}"
        )
    m, n = require_matrix("dgemv", "a", a)
    require_vector("dgemv", "x", x)
    require_vector("dgemv", "y", y)
    require_writable("dgemv", "y", y)
    rows, cols = (n, m) if trans else (m, n)
    if x.shape[0] != cols:
        raise DimensionError(
            f"dgemv: x has length {x.shape[0]}, expected {cols}"
        )
    if y.shape[0] != rows:
        raise DimensionError(
            f"dgemv: y has length {y.shape[0]}, expected {rows}"
        )
    # Operation count: M(rows, cols, 1) = 2*rows*cols - rows.
    ctx.charge(
        "dgemv",
        muls=rows * cols,
        adds=max(0, rows * cols - rows),
        seconds=ctx.model_time("t_gemv", rows, cols),
    )
    if ctx.dry:
        return y
    if rows == 0:
        return y
    opa = a.T if trans else a
    vendor = backend == "vendor"
    if vendor and beta == 0.0 and alpha == 1.0:
        np.matmul(opa, x, out=y)
        return y
    if beta == 0.0:
        y[...] = 0.0
    elif beta != 1.0:
        y *= beta
    if cols == 0 or alpha == 0.0:
        return y
    # Standard algorithm: einsum's compiled loops, or the vendor GEMV.
    prod = np.matmul(opa, x) if vendor else np.einsum("ij,j->i", opa, x)
    if alpha != 1.0:
        prod *= alpha
    y += prod
    return y


def dger(
    x: Any,
    y: Any,
    a: Any,
    alpha: float = 1.0,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """Rank-one update ``A <- A + alpha * x * y^T`` (in place); returns ``A``.

    ``x`` has length m, ``y`` length n, ``A`` is m-by-n.
    """
    ctx = ensure_context(ctx)
    m, n = require_matrix("dger", "a", a)
    require_vector("dger", "x", x)
    require_vector("dger", "y", y)
    require_writable("dger", "a", a)
    if x.shape[0] != m:
        raise DimensionError(f"dger: x has length {x.shape[0]}, expected {m}")
    if y.shape[0] != n:
        raise DimensionError(f"dger: y has length {y.shape[0]}, expected {n}")
    ctx.charge(
        "dger",
        muls=m * n,
        adds=m * n,
        seconds=ctx.model_time("t_ger", m, n),
    )
    if ctx.dry or m == 0 or n == 0 or alpha == 0.0:
        return a
    row_major = abs(a.strides[0]) > abs(a.strides[1])
    line = n if row_major else m
    if line < _GER_MIN_LINE:
        _ger_blocks(x, y, a, alpha, row_major)
        return a
    # numpy runs a 2-D ufunc whose lines are shorter than its buffer
    # (8192 elements by default) through that buffer, copying every
    # block in and out of it.  A buffer of one block line keeps the
    # block ops on the arrays themselves: the same arithmetic in about
    # half the time on long lines.  numpy keeps the size per thread (a
    # context variable), so fix-ups running on other threads are
    # unaffected.
    old = np.setbufsize(line - line % 16)   # a multiple of 16
    try:
        _ger_blocks(x, y, a, alpha, row_major)
    finally:
        np.setbufsize(old)
    return a


def _ger_blocks(x: Any, y: Any, a: Any, alpha: float,
                row_major: bool) -> None:
    """One streaming pass of ``A += (x * y^T) * alpha`` over ``a``.

    Cache-sized blocks run along A's slow axis, each laid out like A and
    written into one buffer allocated per call, so no whole-matrix
    temporary is built and no block allocates.  Per element the
    arithmetic is the textbook formula's: x*y, then *alpha, then the
    add into A.
    """
    m, n = a.shape
    xc, yr = x[:, None], y[None, :]
    dtype = np.result_type(x, y)
    if row_major:                                # row blocks
        step = min(m, max(1, _GER_BLOCK // n))
        buf = np.empty((step, n), dtype=dtype)
        for i in range(0, m, step):
            blk = buf[:min(step, m - i)]
            _ger_block(xc[i:i + step], yr, a[i:i + step], alpha, blk)
    else:                                        # column blocks
        step = min(n, max(1, _GER_BLOCK // m))
        buf = np.empty((m, step), dtype=dtype, order="F")
        for j in range(0, n, step):
            blk = buf[:, :min(step, n - j)]
            _ger_block(xc, yr[:, j:j + step], a[:, j:j + step], alpha, blk)


def _ger_block(xs: Any, ys: Any, av: Any, alpha: float, blk: Any) -> None:
    """``av += (xs * ys) * alpha`` through the block buffer ``blk``."""
    np.multiply(xs, ys, out=blk)
    if alpha != 1.0:
        blk *= alpha
    av += blk

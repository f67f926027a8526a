"""Dynamic peeling for non-divisible dimensions (paper Sections 2, 3.3).

When a dimension is not divisible by the scheme's partition divisor,
DGEFMM strips the remainder rows/columns, applies the fast construction
to the divisor-exact core, and applies the peeled contributions as
*fix-up* work.  Partitioning for the classic 2x2 case (paper eq. 9, all
dims odd)::

    A = [[A11, a12],      B = [[B11, b12],
         [a21, a22]]           [b21, b22]]

    C11 <- alpha*(A11 B11 + a12 b21) + beta*C11     (core + rank-one DGER)
    c12 <- alpha*[A11 a12][b12; b22] + beta*c12     (one DGEMV, full k)
    [c21 c22] <- alpha*[a21 a22] B + beta*[c21 c22] (one DGEMV^T, full k,n)

The three steps are exactly the paper's combined fix-up: one BLAS
rank-one update plus two matrix-vector products — no special cases
inside the Strassen schedules and no extra temporary memory.  The DGER
streams ``C11`` once, in cache-sized blocks, so the O(n²) fix-up costs
about one pass over C rather than a whole-matrix temporary.  The DGEMVs
run on the caller's ``backend``, like its base products: numpy's
``einsum`` under ``"substrate"``, the vendor GEMV (``np.matmul``) under
``"vendor"`` and in every fused plan.  For a
⟨3,3,3⟩ scheme a dimension can peel *two* indices; the construction
generalises index-wise (one DGER per peeled k column, one DGEMV per
peeled n column, one transposed DGEMV per peeled m row) — the
``divisors`` argument carries the scheme's partition shape.

This module provides the fix-up executors and the divisor-exact-core
operand views; the *decision* that a node peels (and the core dimension
arithmetic) lives in :mod:`repro.core.traversal`, whose nodes the
drivers consume.  Peeling is *dynamic*: it happens at each level where
it is needed, not once up front.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.blas.level2 import dgemv, dger
from repro.context import ExecutionContext

__all__ = [
    "apply_fixups",
    "apply_fixups_head",
    "core_views",
    "fixup_ops",
]


def core_views(
    a: Any,
    b: Any,
    c: Any,
    side: str = "tail",
    divisors: Tuple[int, int, int] = (2, 2, 2),
):
    """Divisor-exact core operand views for the chosen peeling side.

    ``side="tail"`` (the paper's choice) strips the *last* rows/columns
    of each non-divisible dimension; ``side="head"`` strips the *first*
    — one of the "alternate peeling techniques" the paper's future work
    proposes investigating.  Head peeling produces non-contiguous-
    leading cores (offset views), which on real column-major BLAS would
    shift panel alignment; numpy strides make it free here, and the
    op/time costs are identical by symmetry — which the ablation test
    verifies.
    """
    m, k = a.shape
    n = b.shape[1]
    dm, dk, dn = divisors
    mo, ko, no = m % dm, k % dk, n % dn
    if side == "tail":
        return a[: m - mo, : k - ko], b[: k - ko, : n - no], c[: m - mo, : n - no]
    if side == "head":
        return a[mo:, ko:], b[ko:, no:], c[mo:, no:]
    raise ValueError(f"unknown peeling side {side!r}")


def apply_fixups(
    a: Any,
    b: Any,
    c: Any,
    alpha: float,
    beta: float,
    *,
    ctx: Optional[ExecutionContext] = None,
    divisors: Tuple[int, int, int] = (2, 2, 2),
    backend: str = "substrate",
) -> None:
    """Apply the peeling fix-up contributions to ``C`` in place.

    ``a``, ``b``, ``c`` are the full (possibly non-divisible) operands,
    *after* transposition has been resolved to plain views; the core
    ``C[:mp,:np] += alpha*A[:mp,:kp] B[:kp,:np]`` must already have been
    computed (with its ``beta`` scaling).  The fix-ups, one BLAS call
    per peeled index:

    - each peeled ``k`` column: DGER rank-one update of the core block
      with that column of A times the matching row of B;
    - each peeled ``n`` column: DGEMV for that column of C (uses the
      **full** k, covering both the core and peeled-k contributions);
    - each peeled ``m`` row: transposed DGEMV for that row of C (full k
      and n, including the bottom-right corner block).

    ``backend`` selects the DGEMV kernel
    (:func:`repro.blas.level2.dgemv`); callers pass the one their base
    products use.
    """
    m, k = a.shape
    n = b.shape[1]
    dm, dk, dn = divisors
    mp, kp, np_ = m - m % dm, k - k % dk, n - n % dn
    if kp < k and mp and np_:
        # C11 += alpha * a1j * bj1^T   (rank-one per peeled column)
        for j in range(kp, k):
            dger(a[:mp, j], b[j, :np_], c[:mp, :np_], alpha=alpha, ctx=ctx)
    if np_ < n and mp:
        # c1j <- alpha * A[:mp, :] * B[:, j] + beta * c1j   (full k)
        for j in range(np_, n):
            dgemv(
                a[:mp, :], b[:, j], c[:mp, j],
                alpha=alpha, beta=beta, ctx=ctx, backend=backend,
            )
    if mp < m:
        # row i <- alpha * B^T * A[i, :]^T + beta * row   (full k, n)
        for i in range(mp, m):
            dgemv(
                b, a[i, :], c[i, :],
                alpha=alpha, beta=beta, trans=True, ctx=ctx,
                backend=backend,
            )


def apply_fixups_head(
    a: Any,
    b: Any,
    c: Any,
    alpha: float,
    beta: float,
    *,
    ctx: Optional[ExecutionContext] = None,
    divisors: Tuple[int, int, int] = (2, 2, 2),
    backend: str = "substrate",
) -> None:
    """Head-side fix-ups: mirror image of :func:`apply_fixups`.

    The stripped *first* rows/columns contributions: a rank-one update
    of the core with A's leading columns times B's leading rows (per
    peeled k index), a DGEMV per peeled leading column of C (full k),
    and a transposed DGEMV per peeled leading row of C (full k and n).
    """
    m, k = a.shape
    n = b.shape[1]
    dm, dk, dn = divisors
    mo, ko, no = m % dm, k % dk, n % dn
    if ko and m - mo and n - no:
        for j in range(ko):
            dger(a[mo:, j], b[j, no:], c[mo:, no:], alpha=alpha, ctx=ctx)
    if no and m - mo:
        for j in range(no):
            dgemv(a[mo:, :], b[:, j], c[mo:, j], alpha=alpha, beta=beta,
                  ctx=ctx, backend=backend)
    if mo:
        for i in range(mo):
            dgemv(b, a[i, :], c[i, :], alpha=alpha, beta=beta, trans=True,
                  ctx=ctx, backend=backend)


def fixup_ops(
    m: int, k: int, n: int, divisors: Tuple[int, int, int] = (2, 2, 2)
) -> float:
    """Operation count of the fix-up work for one peeled level.

    Per peeled k column: DGER on (mp x np), 2*mp*np; per peeled n
    column: DGEMV, 2*mp*k; per peeled m row: DGEMV, 2*n*k — only for
    the dimensions that actually carry a remainder.  Used by the
    op-count model extension and tests.
    """
    dm, dk, dn = divisors
    mo, ko, no = m % dm, k % dk, n % dn
    mp, np_ = m - mo, n - no
    ops = 0.0
    if ko:
        ops += ko * 2.0 * mp * np_
    if no:
        ops += no * 2.0 * mp * k
    if mo:
        ops += mo * 2.0 * n * k
    return ops

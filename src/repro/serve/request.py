"""Requests and futures: the unit of work the serving engine moves.

A :class:`GemmRequest` is one validated ``C <- alpha*op(A)*op(B) +
beta*C`` problem plus the knobs that shape its execution plan; its
:attr:`~GemmRequest.signature` is the :class:`~repro.plan.compiler.
PlanSignature` the micro-batcher groups by — requests that share a
signature replay one compiled plan back-to-back from one workspace
arena.  Degenerate problems (empty output, ``k == 0``, ``alpha == 0``)
carry no signature: they never reach the plan machinery (matching the
drivers' early-outs) and are served solo through ``dgefmm``.

A :class:`GemmFuture` is the caller's handle: ``result(timeout)`` blocks
until the worker publishes the output array or the failure
(:class:`~repro.errors.ServiceOverloaded` when shed,
:class:`~repro.errors.ServiceTimeout` on deadline expiry, or whatever
the execution raised).  Completed futures also expose the per-request
latency split — ``wait_s`` in queue versus ``compute_s`` on a worker —
and the size of the batch they rode in.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

import numpy as np

from repro.blas.dtypes import canonical_dtype
from repro.blas.validate import opshape, require_matrix
from repro.core.config import GemmConfig
from repro.errors import ArgumentError, DimensionError, ServiceTimeout
from repro.plan.compiler import signature_for

__all__ = ["GemmFuture", "GemmRequest", "request_dtype"]


class GemmFuture:
    """Write-once result handle for one submitted request."""

    __slots__ = ("_event", "_result", "_exception",
                 "wait_s", "compute_s", "batch_size")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._exception: Optional[BaseException] = None
        #: seconds spent queued before a worker picked the request up
        self.wait_s: Optional[float] = None
        #: seconds of worker execution for this request alone
        self.compute_s: Optional[float] = None
        #: how many requests shared the batch (1 = unbatched)
        self.batch_size: Optional[int] = None

    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        """True once a result or failure has been published."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """The output array C; blocks until published.

        Raises the request's failure if it was rejected, shed, timed
        out, or crashed; raises :class:`~repro.errors.ServiceTimeout`
        if ``timeout`` seconds elapse first (the request itself stays
        in flight — a later ``result()`` can still succeed).
        """
        if not self._event.wait(timeout):
            raise ServiceTimeout(
                f"result not available within {timeout} s"
            )
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """The failure, or None for success; blocks like :meth:`result`."""
        if not self._event.wait(timeout):
            raise ServiceTimeout(
                f"result not available within {timeout} s"
            )
        return self._exception

    # ------------------------------------------------------------------ #
    def _set_result(self, value: np.ndarray) -> None:
        self._result = value
        self._event.set()

    def _set_exception(self, exc: BaseException) -> None:
        self._exception = exc
        self._event.set()


def request_dtype(a: Any, b: Any, c: Optional[Any] = None) -> str:
    """The canonical dtype a request computes in.

    C's dtype when a C operand is given, else the promotion of A's and
    B's.  Raises :class:`~repro.errors.ArgumentError` for non-matrix
    A/B and for dtypes outside :data:`repro.blas.dtypes.DTYPES`.
    """
    require_matrix("GemmService.submit", "a", a)
    require_matrix("GemmService.submit", "b", b)
    return canonical_dtype(
        np.result_type(a, b) if c is None else np.asarray(c).dtype
    )


class GemmRequest:
    """One validated GEMM problem queued for service.

    Built by :meth:`~repro.serve.service.GemmService.submit`; not
    normally constructed directly.  Operands are held by reference —
    the caller must not mutate ``a``/``b`` until the future resolves.
    ``c0`` is the service's private snapshot of the initial C content
    (None when ``beta == 0``: conformant GEMM never reads C then), so
    the caller's C operand is never written and repeated submissions of
    one logical request stay independent.  ``config`` is the request's
    resolved :class:`~repro.core.config.GemmConfig`; its ``dtype`` must
    be :func:`request_dtype` of the operands — the dtype the output is
    allocated in and the plan signature keys on.
    """

    __slots__ = ("a", "b", "c0", "alpha", "beta", "transa", "transb",
                 "m", "k", "n", "dtype", "config", "signature",
                 "future", "deadline", "seq", "t_submit")

    def __init__(
        self,
        a: Any,
        b: Any,
        c: Optional[Any] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        transa: bool = False,
        transb: bool = False,
        *,
        config: GemmConfig,
        deadline: Optional[float] = None,
    ) -> None:
        require_matrix("GemmService.submit", "a", a)
        require_matrix("GemmService.submit", "b", b)
        m, k = opshape(a, transa)
        kb, n = opshape(b, transb)
        if kb != k:
            raise DimensionError(
                f"GemmService.submit: op(A) is {m}x{k} but op(B) is "
                f"{kb}x{n}"
            )
        if beta != 0.0:
            if c is None:
                raise ArgumentError(
                    "GemmService.submit", "c",
                    f"is required when beta != 0 (got beta={beta})",
                )
            require_matrix("GemmService.submit", "c", c)
            if tuple(c.shape) != (m, n):
                raise DimensionError(
                    f"GemmService.submit: C has shape {tuple(c.shape)}, "
                    f"expected {(m, n)}"
                )
            # private snapshot: the caller's C is read once, here, and
            # never written — the response is a fresh array
            self.c0 = np.array(c, copy=True)
        else:
            self.c0 = None

        self.a, self.b = a, b
        self.alpha, self.beta = alpha, beta
        self.transa, self.transb = bool(transa), bool(transb)
        self.m, self.k, self.n = m, k, n
        self.config = config
        self.dtype = np.dtype(config.dtype)
        self.deadline = deadline
        self.future = GemmFuture()
        self.seq = -1            # assigned at admission
        self.t_submit = time.monotonic()

        # Degenerate problems (the drivers' pre-plan early-outs) are
        # unbatchable: signature None routes them solo through dgefmm.
        if m == 0 or n == 0 or k == 0 or alpha == 0.0:
            self.signature = None
        else:
            self.signature = signature_for(
                "serial", m, k, n, self.transa, self.transb,
                False, beta == 0.0, config.dtype, config,
            )

    def expired(self, now: Optional[float] = None) -> bool:
        """True when the request's deadline has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GemmRequest({self.m}x{self.k}x{self.n}, "
            f"dtype={self.dtype}, alpha={self.alpha}, beta={self.beta}, "
            f"batchable={self.signature is not None})"
        )

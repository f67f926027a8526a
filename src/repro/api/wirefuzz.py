"""Differential fuzzing *through the network stack*.

The in-process campaign (:mod:`repro.fuzz`) already proves DGEFMM
against the naive triple product.  This module replays the same
edge-heavy case distribution through the full wire path — client
framing, HTTP/WS transport, router sharding, shm transit, worker
service, and back — and demands **bit-identical** agreement with the
direct in-process computation of the same operands.  Any divergence
means the transport corrupted, re-ordered, or re-computed something:
serialization is not allowed to cost even one ulp.

The reference is :func:`repro.serve.reference_output` — the service
output contract (``beta == 0`` outputs start from Fortran-ordered
zeros; ``beta != 0`` from a copy of C) — so the equality asserted here
is the plan-replay guarantee end to end over the wire.

Cases are drawn exactly like the service load mix: aliased cases are
skipped (the wire has no aliasing — operands are serialized), and the
pool/workers/depth knobs don't travel; everything else (degenerate
dims, zero scalars, hostile layouts, every scheme, both peels, mixed
dtypes) stays in.  After an owned-server run the campaign also asserts
the transport's no-leak invariant (every shm lease released) and
drains the pool cleanly — a leak or dirty drain is reported as a
failure even when every case matched.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api.client import GemmClient
from repro.api.protocol import WIRE_DTYPES
from repro.core.config import GemmConfig
from repro.core.cutoff import SimpleCutoff
from repro.fuzz.cases import FuzzCase, case_to_dict, draw_case, materialize
from repro.fuzz.runner import FuzzReport
from repro.serve import reference_output

__all__ = ["run_wire_fuzz", "draw_wire_cases"]

#: futures kept in flight at once — enough to keep every shard's
#: admission queue busy without racing ahead of backpressure
_WINDOW = 32


def draw_wire_cases(cases: int, seed: int,
                    max_dim: int = 32) -> List[FuzzCase]:
    """The campaign's case list: the fuzz distribution minus aliasing
    and minus the exact dtypes (the wire's dtypes are all inexact —
    integer/object serving is an in-process affair)."""
    rng = np.random.default_rng(seed)
    out: List[FuzzCase] = []
    while len(out) < cases:
        case = draw_case(rng, max_dim=max_dim)
        if case.alias != "none" or case.dtype not in WIRE_DTYPES:
            continue
        out.append(case)
    return out


def _check_one(case: FuzzCase, got: np.ndarray,
               expected: np.ndarray) -> List[str]:
    failures: List[str] = []
    if str(got.dtype) != str(expected.dtype):
        failures.append(
            f"dtype drift over the wire: sent computation in "
            f"{expected.dtype}, got {got.dtype}"
        )
    elif got.shape != expected.shape:
        failures.append(
            f"shape drift: expected {expected.shape}, got {got.shape}"
        )
    elif not np.array_equal(got, expected):
        bad = int(np.sum(got != expected))
        failures.append(
            f"wire result differs from in-process dgefmm in {bad} "
            f"of {got.size} elements (bit-identity violated)"
        )
    return failures


def run_wire_fuzz(
    cases: int = 200,
    seed: int = 0,
    max_dim: int = 32,
    *,
    scheme: Optional[str] = None,
    host: Optional[str] = None,
    port: Optional[int] = None,
    workers: int = 2,
    threads: int = 1,
    capacity: int = 512,
    policy: str = "block",
    max_batch: int = 32,
    progress: Optional[Any] = None,
) -> Tuple[FuzzReport, Dict[str, Any]]:
    """Run the over-the-wire campaign; returns ``(report, server_stats)``.

    With ``host``/``port`` the campaign targets a live server (the CI
    smoke lane's mode); otherwise it owns an embedded
    :class:`~repro.api.server.ApiServerThread` and additionally asserts
    clean drain + zero leaked shm leases on the way out.  ``scheme``
    pins every case, mirroring ``repro fuzz --scheme``.
    """
    todo = draw_wire_cases(cases, seed, max_dim=max_dim)
    if scheme is not None:
        todo = [dataclasses.replace(c, scheme=scheme) for c in todo]

    own_server = None
    if host is None:
        from repro.api.server import ApiServerThread

        own_server = ApiServerThread(
            workers=workers, threads=threads, capacity=capacity,
            policy=policy, max_batch=max_batch,
        ).start()
        host, port = "127.0.0.1", own_server.port

    report = FuzzReport()
    client = GemmClient(host, port, client_id="wirefuzz")
    stats: Dict[str, Any] = {}
    try:
        inflight: List[Tuple[FuzzCase, Any, np.ndarray]] = []

        def collect(entry) -> None:
            case, fut, expected = entry
            report.cases += 1
            report._cover(case)
            try:
                got = fut.result(timeout=120.0)
                failures = _check_one(case, got, expected)
            except Exception as exc:  # noqa: BLE001 — a failure record
                failures = [f"{type(exc).__name__}: {exc}"]
            if failures:
                report.divergent += 1
                report.failures.append(
                    {"case": case_to_dict(case), "failures": failures}
                )
            if progress is not None:
                progress(report.cases, len(todo), report.divergent)

        for case in todo:
            a, b, c, _c0 = materialize(case)
            alpha, beta = case.scalars()
            # The reference must see the operands exactly as transmitted:
            # serialization canonicalizes layout to Fortran order, and
            # BLAS picks layout-dependent accumulation paths, so bit-
            # identity is defined relative to the canonical bytes.  The
            # hostile layouts still exercise the client's serializer.
            aF = np.asarray(a, order="F")
            bF = np.asarray(b, order="F")
            cF = np.asarray(c, order="F")
            cfg = GemmConfig(
                cutoff=SimpleCutoff(case.tau), scheme=case.scheme,
                peel=case.peel, dtype=case.dtype, accuracy=case.accuracy,
            )
            expected = reference_output(aF, bF, cF, alpha, beta,
                                        case.transa, case.transb,
                                        config=cfg)
            fut = client.submit(
                a, b, c if beta != 0 else None, alpha, beta,
                case.transa, case.transb,
                cutoff=SimpleCutoff(case.tau),
                scheme=case.scheme, peel=case.peel,
                accuracy=case.accuracy,
            )
            inflight.append((case, fut, expected))
            if len(inflight) >= _WINDOW:
                collect(inflight.pop(0))
        while inflight:
            collect(inflight.pop(0))

        stats = client.stats()
    finally:
        client.close()
        if own_server is not None:
            try:
                stats = own_server.drain(timeout=30.0)
            except Exception as exc:  # noqa: BLE001 — dirty drain = fail
                own_server.kill()
                report.divergent += 1
                report.failures.append({
                    "case": None,
                    "failures": [f"drain failed: "
                                 f"{type(exc).__name__}: {exc}"],
                })

    leaked = [
        (s.get("shard"), s["arena"]["leases_outstanding"])
        for s in stats.get("shards", [])
        if s.get("arena") and s["arena"]["leases_outstanding"]
    ]
    if leaked:
        report.divergent += 1
        report.failures.append({
            "case": None,
            "failures": [f"shm leases leaked: {leaked}"],
        })
    return report, stats

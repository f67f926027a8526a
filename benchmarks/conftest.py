"""Benchmark-suite helpers.

Every bench module regenerates one paper exhibit.  The ``benchmark``
fixture times the experiment run itself (so ``--benchmark-only`` excludes
none of them); the exhibit's content is printed so the run doubles as the
reproduction log recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
import sys


def emit(title: str, body: str) -> None:
    """Print an exhibit so it lands in the benchmark session output."""
    sys.stdout.write(f"\n===== {title} =====\n{body}\n")


def emit_json(bench: str, params: dict, rows: list, **extra) -> str:
    """Write one ``BENCH_<name>.json`` trajectory document.

    The document uses the same schema as the ``--json`` mode of the
    ``python -m repro`` commands — ``{"bench", "schema", "params",
    "rows"}`` plus any extra keys — so CLI captures and benchmark runs
    can be collected and diffed with one set of tooling.  The output
    directory defaults to the current directory and can be redirected
    with the ``BENCH_JSON_DIR`` environment variable.

    Serving documents (``BENCH_serve*.json``, ``python -m repro serve
    --json``) embed the :meth:`repro.serve.GemmService.stats` snapshot
    in their rows: ``{"counters", "histograms"`` (count/sum/min/max/
    mean/p50/p95/p99 each), ``"plan_cache", "pool", "queue", "work"}``
    — schema documented in docs/api.md, "Serving".

    Every document carries a ``"host"`` block (:func:`host_block`), so
    each committed number names the conditions it was taken under; a
    caller's own ``host=`` keyword wins.
    """
    doc = {"bench": bench, "schema": 1, "params": params, "rows": rows,
           "host": host_block()}
    doc.update(extra)
    outdir = os.environ.get("BENCH_JSON_DIR", ".")
    path = os.path.join(outdir, f"BENCH_{bench}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def host_block() -> dict:
    """The host conditions a timing depends on: CPU count and affinity,
    BLAS name, version and thread setting, numpy and python."""
    import numpy as np

    from repro.tune.store import host_fingerprint

    info = host_fingerprint()
    if hasattr(os, "sched_getaffinity"):
        info["affinity"] = sorted(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), blas.get(
            "version")
    except (KeyError, TypeError):
        info["blas"] = info["blas_version"] = None
    info["blas_threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def update_json(bench: str, **sections) -> str:
    """Add top-level ``sections`` to ``BENCH_<bench>.json``, keeping what
    another test of the same module already wrote there."""
    outdir = os.environ.get("BENCH_JSON_DIR", ".")
    path = os.path.join(outdir, f"BENCH_{bench}.json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        doc = {"bench": bench, "schema": 1, "params": {}, "rows": []}
    doc.update(sections)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path

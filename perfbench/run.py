"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload large_fused --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, for half the time each, prints the
per-layer metrics and writes the spans to
``.perfbench_out/trace-<workload>-<seed>.json``.  Human-readable lines
(host block, sample counts, workload-specific metrics) come first; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
was verified and every after-drain invariant held; it is 2 when the
program's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread, set before numpy loads; server processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["large_fused", "api_hot", "serve_cold"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)

    import importlib

    from common import host_block
    from spec import END_TO_END, PER_LAYER, REPORTED, units

    workload = importlib.import_module(args.workload)
    out = workload.run(args.seed, args.seconds, bool(args.trace))
    ledger = out["ledger"]
    unit = units()
    names = [m["name"] for m in (PER_LAYER if args.trace else END_TO_END)]
    reported = [m["name"] for m in REPORTED if m["name"] in out["metrics"]]

    print(f"host: {json.dumps(host_block(), sort_keys=True)}")
    print(f"workload: {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    suffix = "" if args.trace else f" (n={out['samples']})"
    for name in names + reported:
        print(f"  {name} = {out['metrics'][name]:.6g} {unit[name]}{suffix}")
    for name, value, u, samples in out.get("notes", []):
        if name not in out["metrics"]:
            print(f"  {name} = {value:.6g} {u} (n={samples})")
    print(f"  failed_share = {ledger.failed_share:.6g} fraction "
          f"(n={ledger.attempted})")
    for reason in ledger.reasons:
        print(f"  MISS {reason}")
    tracer = out.get("tracer")
    if tracer is not None:
        path = os.path.join(ROOT, ".perfbench_out",
                            f"trace-{args.workload}-{args.seed}.json")
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "host": host_block()})
        print(f"  spans: {len(tracer.spans)} written to {path}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(out["metrics"][name]),
                           "unit": unit[name]} for name in names},
    }))
    return 0 if ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())

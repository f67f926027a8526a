"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

A smoke-length run of every workload must print every declared metric
with its unit; the output checks must turn one corrupted result element
or one failed request into an incorrect run with a non-zero exit code;
``BENCHMARK.json`` must match ``spec.py`` and its schema's limits.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import serve_cold  # noqa: E402
import spec  # noqa: E402
from common import Ledger  # noqa: E402
from repro.errors import ServiceOverloaded  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in spec.WORKLOADS]


def _run(workload: str, trace: int, cwd: str = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _printed(stdout: str, metric: dict) -> bool:
    """``  name = value unit`` with an optional ``(n=samples)``."""
    return re.search(rf"^  {re.escape(metric['name'])} = \S+ "
                     rf"{re.escape(metric['unit'])}( \(n=\d+\))?$",
                     stdout, re.M) is not None


def test_benchmark_json_matches_spec_and_schema():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path) as fh:
        doc = json.load(fh)
    assert doc == spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= doc["run_seconds"] <= 60


def test_layer_map_cites_known_names():
    e2e = {m["name"] for m in spec.END_TO_END + spec.REPORTED}
    for m in spec.PER_LAYER:
        for ref in m["moves"]:
            metric, workload = ref.split("@")
            assert metric in e2e and workload in WORKLOADS, ref
        assert set(m["still"]) <= set(WORKLOADS), m["name"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    p = _run(workload, trace)
    assert p.returncode == 0, p.stdout + p.stderr
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
        assert _printed(p.stdout, m)
    if not trace:
        for m in spec.REPORTED:
            if m["name"] in ("throughput_rps", "latency_p50_ms", "gflops",
                             "failed_share"):
                assert _printed(p.stdout, m)
    assert lines[0].startswith("host: ")
    host = json.loads(lines[0][len("host: "):])
    assert host["blas_threads_env"] == "1"
    assert {"cpus", "affinity", "blas", "numpy", "python"} <= set(host)


def test_ledger_rejects_one_corrupted_element():
    ref = np.arange(12.0).reshape(3, 4)
    ledger = Ledger()
    assert ledger.check_equal(ref.copy(), ref, "ok")
    bad = ref.copy()
    bad[2, 1] = np.nextafter(bad[2, 1], np.inf)
    assert not ledger.check_equal(bad, ref, "bad")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert not ledger.correct


class _Corrupted:
    def __init__(self, fut):
        self._fut = fut

    def result(self, timeout=None):
        out = self._fut.result(timeout).copy()
        out[0, 0] += 1.0
        return out


def _faulty_service(fault: str):
    class Faulty(serve_cold.GemmService):
        submitted = 0

        def submit(self, *args, **kwargs):
            Faulty.submitted += 1
            if Faulty.submitted == 3 and fault == "refuse":
                raise ServiceOverloaded("refused by the test")
            fut = super().submit(*args, **kwargs)
            return _Corrupted(fut) if Faulty.submitted == 3 else fut

    return Faulty


@pytest.mark.parametrize("fault", ["corrupt", "refuse"])
def test_run_with_one_bad_request_is_incorrect(fault, monkeypatch, capsys):
    # with one set-up, submit #1 is the set-up call and #3 is measured
    monkeypatch.setattr(serve_cold, "SETUPS", 1)
    monkeypatch.setattr(serve_cold, "GemmService", _faulty_service(fault))
    code = run.main(["--workload", "serve_cold", "--seed", "5",
                     "--seconds", "0.5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] >= 3


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("large_fused", 0, cwd=str(tmp_path))
    assert p.returncode != 0
    assert p.stdout.strip() == ""

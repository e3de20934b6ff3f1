"""Self-test of the host-time benchmark at its smoke size.

    pytest benchmarks/perf -q
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
COMPARE = os.path.join(HERE, "compare.py")


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


if HERE not in sys.path:
    sys.path.insert(0, HERE)
perf_run = _load("perf_run", RUN)
perf_run.import_program()

from layer_timer import TARGETS, layer_metric_specs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], capture_output=True, text=True,
        timeout=600,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _patch_targets() -> dict:
    """The current object behind every name the layer timer patches."""
    out = {}
    for t in TARGETS:
        owner = importlib.import_module(t.module)
        *path, leaf = t.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out[t.name] = vars(owner)[leaf]
    return out


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(perf_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        perf_run.END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == layer_metric_specs()


def test_observed_and_unobserved_zipf_share_their_expected_digest():
    with open(perf_run.EXPECTED_PATH) as f:
        table = json.load(f)
    for size in ("full", "smoke"):
        assert set(table[size]) == set(perf_run.WORKLOADS)
        assert table[size]["zipf_telemetry"] == table[size]["zipf_warm"]


@pytest.mark.parametrize("workload", perf_run.WORKLOADS)
def test_run_reports_every_end_to_end_metric(workload):
    proc = _cli(
        "--workload", workload, "--seed", "42", "--seconds", "0.1",
        "--trace", "0", "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= perf_run.MIN_REPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", perf_run.WORKLOADS)
def test_traced_run_restores_patches_and_keeps_digests(workload):
    before = _patch_targets()
    # Seed 42 checks every rep, traced and untraced, against the
    # committed digest, so a correct run means tracing changed nothing.
    result, _ = perf_run.run_workload(workload, 42, 0.1, True, "smoke")
    after = _patch_targets()
    assert all(after[name] is before[name] for name in before)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def test_corrupted_expected_digest_fails_every_rep(tmp_path, monkeypatch, capsys):
    with open(perf_run.EXPECTED_PATH) as f:
        table = json.load(f)
    table["smoke"]["guest_pv"] = "0" * 64
    corrupted = tmp_path / "expected_digests.json"
    corrupted.write_text(json.dumps(table))
    monkeypatch.setattr(perf_run, "EXPECTED_PATH", str(corrupted))
    code = perf_run.main(
        ["--workload", "guest_pv", "--seconds", "0.1", "--smoke"]
    )
    result = _last_json(capsys.readouterr().out)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0  # error_rate = 1.0


def test_suite_and_compare(tmp_path, monkeypatch):
    out = tmp_path / "suite.json"
    # One workload is enough to exercise the suite; each run still goes
    # through a child process of run.py.
    monkeypatch.setattr(perf_run, "WORKLOADS", ("zipf_warm",))
    code = perf_run.main(
        ["--smoke", "--runs", "2", "--seconds", "0.1", "--out", str(out)]
    )
    assert code == 0
    suite = json.loads(out.read_text())
    assert list(suite["workloads"]) == ["zipf_warm"]
    entry = suite["workloads"]["zipf_warm"]
    assert entry["error_rate"] == 0.0
    assert entry["summary"]["run_s"]["n"] == 2

    same = subprocess.run(
        [sys.executable, COMPARE, str(out), str(out)],
        capture_output=True, text=True,
    )
    assert same.returncode == 0, same.stdout
    assert "worse" not in same.stdout and "better" not in same.stdout


def _suite(values: list[float], failed: int = 0, metric: str = "run_s") -> dict:
    runs = [{"metrics": {metric: {"value": v, "unit": "s"}}} for v in values]
    return {
        "workloads": {
            "w": {
                "runs": runs,
                "summary": {metric: perf_run.summarize(values)},
                "error_rate": failed / len(values),
            }
        }
    }


@pytest.mark.parametrize(
    ("new", "expected"),
    [
        ([1.00, 1.01, 0.99, 1.02, 0.98], "unchanged"),
        ([1.30, 1.31, 1.29, 1.32, 1.28], "worse"),
        ([0.70, 0.71, 0.69, 0.72, 0.68], "better"),
        ([0.60, 1.40, 1.00, 0.70, 1.30], "unresolved"),
        ([0.50, 0.97, 0.60, 0.95, 0.90], "better"),  # noisy, all faster
    ],
)
def test_compare_verdicts(new, expected):
    compare = _load("perf_compare", COMPARE)
    base = _suite([1.00, 1.01, 0.99, 1.02, 0.98])
    rows = compare.compare(base, _suite(new), SPEC)
    verdicts = {name: v for _, name, _, _, _, v in rows}
    assert verdicts == {"run_s": expected, "error_rate": "unchanged"}


@pytest.mark.parametrize(("new", "expected"), [(0.07, "unchanged"), (0.10, "worse")])
def test_compare_setup_floor(new, expected):
    # A 40 ms set-up may worsen by the 50 ms floor, not only by its bound.
    compare = _load("perf_compare", COMPARE)
    base = _suite([0.040] * 5, metric="setup_s")
    rows = compare.compare(base, _suite([new] * 5, metric="setup_s"), SPEC)
    assert {name: v for _, name, _, _, _, v in rows}["setup_s"] == expected


def test_compare_gates_on_failures(tmp_path):
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_suite([1.0, 1.0])))
    new.write_text(json.dumps(_suite([1.0, 1.0], failed=1)))
    proc = subprocess.run(
        [sys.executable, COMPARE, str(base), str(new)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "error_rate" in proc.stdout and "worse" in proc.stdout


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, printing no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "zipf_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

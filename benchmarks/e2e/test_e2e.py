"""Self-test of the end-to-end benchmark.

Not part of tier-1 (which collects only ``tests/``); run it explicitly::

    pytest benchmarks/e2e -q

It runs every workload once with ``--quick --trace 1`` (about 5 s of load
each) plus one quick untraced workload, and checks that the output follows
BENCHMARK.json: every metric is emitted under its name with its unit, and
every layer the per-layer metrics name recorded spans.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import layers
import loadgen
from compare import verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCRATCH = HERE / ".selftest"


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir()
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


@pytest.fixture(scope="module")
def traced(scratch):
    out = scratch / "traced"
    done = _run("--quick", "--trace", "1", "--out-dir", str(out))
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    (results,) = out.glob("*.json")
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(results.read_text())


def _check_summary(summary: dict, section: str, prefix: str = "") -> None:
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    for metric in SPEC[section]:
        emitted = summary["metrics"][prefix + metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float) and math.isfinite(emitted["value"])


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), [n for n in names if not NAME.match(n)]
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT.match(unit) for unit in units)
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


def test_traced_run_emits_every_per_layer_metric(traced):
    summary, _ = traced
    for workload in SPEC["workloads"]:
        _check_summary(summary, "per_layer", workload["name"] + ".")


def test_traced_run_records_every_end_to_end_metric(traced):
    _, results = traced
    for metric in SPEC["end_to_end"]:
        assert results["units"][metric["name"]] == metric["unit"]
    for record in results["results"]:
        for metric in SPEC["end_to_end"]:
            assert record["end_to_end"][metric["name"]] > 0.0, (record["workload"], metric)


def test_every_layer_has_spans(traced):
    _, results = traced
    layers = {m["name"].split(".")[0] for m in SPEC["per_layer"]} - {"loadgen"}
    for record in results["results"]:
        empty = [layer for layer in layers if not record["spans"].get(layer)]
        assert not empty, (record["workload"], empty)


def test_untraced_run_emits_every_end_to_end_metric(scratch):
    done = _run("--quick", "--workload", "mixed_live", "--out-dir", str(scratch / "plain"))
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    _check_summary(summary, "end_to_end")
    assert all(entry["value"] > 0.0 for entry in summary["metrics"].values())


def test_refuses_to_run_without_the_program(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".selftest", ".work", "__pycache__", "runs"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run("--quick", "--workload", "mixed_live", cwd=bare)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_queue_wait_follows_reused_queue_ids():
    """A sealed stream's queue is freed and a later stream's queue may get
    its id; each put must pair with the appends of the stream it fed."""

    def span(sid, name, at, **attrs):
        return [sid, 0, name, at, at + (0.05 if name == "api.append" else 0.0), attrs]

    first, second = "r0/s0", "r1/s0"
    spans = [
        span(1, "runtime.channel", 0.0, source=7, stream=first),
        span(2, "runtime.put", 1.0, source=7),
        span(3, "runtime.put", 2.0, source=7),
        span(4, "api.append", 1.5, stream=first, points=10),
        span(5, "api.append", 2.5, stream=first, points=10),
        span(6, "runtime.put", 11.0, source=7),
        span(7, "runtime.put", 12.0, source=7),
        span(8, "api.append", 11.25, stream=second, points=10),
        span(9, "api.append", 12.25, stream=second, points=10),
        span(10, "runtime.channel", 10.0, source=7, stream=second),
    ]
    # Waits of 0.5, 0.5, 0.25 and 0.25 s.
    assert layers.layer_metrics([spans], [])["runtime.queue_wait_ms_p50"] == pytest.approx(375.0)


def test_core_speed_probe(tmp_path):
    """The probe samples its core until stopped; a phase averages the samples
    inside it, or takes the nearest one when none fell inside."""
    probe = loadgen.CoreSpeedProbe(tmp_path / "core_speed.txt")
    time.sleep(0.5)
    probe.stop()
    assert probe.process.returncode is not None
    assert len(probe.laps) >= 3 and (probe.laps > 0).all()
    first, last = probe.times[0], probe.times[-1]
    assert probe.lap_us((first, last)) == pytest.approx(probe.laps.mean())
    assert probe.lap_us((first - 10.0, first - 9.0)) == probe.laps[0]


def test_probe_output_with_a_torn_line(tmp_path):
    path = tmp_path / "core_speed.txt"
    path.write_text("1.5 48.25\n2.5 75.0\n3.5")
    times, laps = loadgen.read_probe(path)
    assert times.tolist() == [1.5, 2.5] and laps.tolist() == [48.25, 75.0]


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([100.0] * 5 + [101.0] * 5, [100.0] * 5 + [101.0] * 5, "unchanged"),
        ([100.0, 101.0, 102.0, 100.5, 101.5], [80.0, 81.0, 82.0, 80.5, 81.5], "regressed"),
        ([100.0, 101.0, 102.0, 100.5, 101.5], [110.0, 111.0, 112.0, 110.5, 111.5], "improved"),
        ([60.0, 100.0, 140.0, 80.0, 120.0], [61.0, 99.0, 141.0, 79.0, 121.0], "unresolved"),
    ],
)
def test_compare_verdicts(a, b, expected):
    metric = {"better": "higher", "bound": 0.1}
    assert verdict(a, b, list(zip(a, b)), metric)[0] == expected

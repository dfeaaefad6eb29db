"""tools/run_digests.py prints what a benchmark workload's run writes.

The tool reads the workloads, the seeded config and the state digest
from benchmarks/run.py; without both files the test skips.
"""

import hashlib
import importlib.util
import os
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from awcmaxwell.solver import FieldState

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "run_digests.py"


def blake2b(data):
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def tool():
    if not (TOOL.is_file() and (ROOT / "benchmarks" / "run.py").is_file()):
        pytest.skip("no tools/run_digests.py or benchmarks/run.py here")
    spec = importlib.util.spec_from_file_location("run_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench(tool):
    # The benchmark's file sets thread counts in the environment.
    with mock.patch.dict(os.environ):
        return tool.load_benchmark()


def test_digests_name_every_output_but_the_manifest(tool, bench, tmp_path,
                                                    monkeypatch):
    tiny = bench.Workload(
        dict(bench.CALIBRATION, jmax=5, steps=4, snapshot_every=2),
        seeded=True, saved_states=1, step_passes=1, snapshot_repeats=1)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    first = tool.digests(bench, "tiny", 3, tmp_path / "a")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert "manifest.csv" in files
    outputs = [name for name in files if name != "manifest.csv"]
    state = [f"final-state.{field.name}" for field in fields(FieldState)]
    assert [name for name, _ in first] == outputs + state
    for name, digest in first[:len(outputs)]:
        assert digest == blake2b((tmp_path / "a" / name).read_bytes())
    assert tool.digests(bench, "tiny", 3, tmp_path / "b") == first
    # Another seed moves the pulse, and so the final fields.
    moved = dict(tool.digests(bench, "tiny", 4, tmp_path / "c"))
    for name in ("final-state.eyx", "final-state.hx"):
        assert moved[name] != dict(first)[name]


def test_field_digests_hash_each_field_on_its_own(tool):
    state = FieldState(*(np.full((3, 3), value) for value in range(7)),
                       k=2, t=0.5)
    digests = tool.field_digests(state)
    assert list(digests) == [field.name for field in fields(FieldState)]
    assert digests["eyx"] == blake2b(state.eyx.tobytes())
    assert digests["t"] == blake2b(b"0.5")
    state.hz[1, 1] = -1.0
    changed = tool.field_digests(state)
    assert [name for name in digests if changed[name] != digests[name]] == [
        "hz"]

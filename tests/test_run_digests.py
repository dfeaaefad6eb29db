"""tools/run_digests.py prints what a benchmark workload's run writes.

The tool reads the workloads, the seeded config and the state digest
from benchmarks/run.py; without both files the test skips.
"""

import hashlib
import importlib.util
import os
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "run_digests.py"


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
    assert [name for name, _ in first] == [
        name for name in files if name != "manifest.csv"] + ["final-state"]
    for name, digest in first[:-1]:
        assert digest == hashlib.blake2b((tmp_path / "a" / name).read_bytes(),
                                         digest_size=16).hexdigest()
    assert tool.digests(bench, "tiny", 3, tmp_path / "b") == first
    # Another seed moves the pulse, and so the final state.
    assert tool.digests(bench, "tiny", 4, tmp_path / "c")[-1] != first[-1]

"""tools/step_ab.py replays two trees' steps interleaved in one process.

The tool reads the workloads, the seeded config and the state copies
from benchmarks/run.py; without both files the test skips.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "step_ab.py"


@pytest.fixture
def tool():
    if not (TOOL.is_file() and (ROOT / "benchmarks" / "run.py").is_file()):
        pytest.skip("no tools/step_ab.py or benchmarks/run.py here")
    spec = importlib.util.spec_from_file_location("step_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # The benchmark's file sets thread counts in the environment.
    with mock.patch.dict(os.environ):
        yield module, module.load_benchmark()
    for name in [name for name in sys.modules
                 if name.startswith("awcmaxwell_")]:
        del sys.modules[name]


def test_a_tree_against_itself_replays_the_same_states(tool):
    module, bench = tool
    import awcmaxwell.solver

    parent, change, differ = module.compare(bench, ROOT, ROOT, "adapt-j9",
                                            rounds=1)
    assert parent > 0 and change > 0
    assert differ == 0
    # The trees' packages answer to their own names, and awcmaxwell is
    # this process's own again.
    assert sys.modules["awcmaxwell_parent"] is not sys.modules[
        "awcmaxwell_change"]
    assert sys.modules["awcmaxwell.solver"] is awcmaxwell.solver

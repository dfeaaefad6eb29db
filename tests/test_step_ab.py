"""tools/step_ab.py replays two trees' steps interleaved in one process.

The tool reads the workloads, the seeded config and the state copies
from benchmarks/run.py; without both files the test skips.
"""

import importlib.util
import os
import shutil
import statistics
import sys
from pathlib import Path
from unittest import mock

import numpy as np
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

    result = module.compare(bench, ROOT, ROOT, "adapt-j9", rounds=1)
    assert result.parent_ms > 0 and result.change_ms > 0
    assert result.differ == 0
    assert result.only == {"parent": [], "change": []}
    assert result.parent_faults >= 0 and result.change_faults >= 0
    q1, median, q3 = result.quartiles
    assert 0 < q1 <= median <= q3
    # The trees' packages answer to their own names, and awcmaxwell is
    # this process's own again.
    assert sys.modules["awcmaxwell_parent"] is not sys.modules[
        "awcmaxwell_change"]
    assert sys.modules["awcmaxwell.solver"] is awcmaxwell.solver


def test_trees_are_compared_on_the_fields_both_states_hold(tool, tmp_path,
                                                           monkeypatch):
    # A copy of this tree whose state holds one field more, and whose
    # clock runs at twice the step: the extra field is named, not
    # compared, and every replay leaves a different t.
    module, bench = tool
    source = tmp_path / "src" / "awcmaxwell"
    shutil.copytree(ROOT / "src" / "awcmaxwell", source)
    solver = source / "solver.py"
    text = solver.read_text()
    for old, new in (("    t: float = 0.0\n",
                      "    t: float = 0.0\n    extra: int = 0\n"),
                     ("state.t += self.dt", "state.t += 2 * self.dt")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    solver.write_text(text)
    tiny = bench.Workload(
        dict(bench.CALIBRATION, jmax=5, steps=4, snapshot_every=2),
        seeded=True, saved_states=2, step_passes=1, snapshot_repeats=1)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    result = module.compare(bench, ROOT, tmp_path, "tiny", rounds=2)
    assert result.differ == 2 * 2
    assert result.only == {"parent": [], "change": ["extra"]}
    # Only t differs, by the parent's t after the step from the later
    # saved state, k = 3: doubling dt doubles every sum exactly.
    from awcmaxwell.solver import Simulation

    dt = Simulation(bench.build_config(tiny, np.random.default_rng(0))).dt
    assert result.largest == {"t": pytest.approx(4 * dt, rel=1e-12)}
    result = module.compare(bench, tmp_path, ROOT, "tiny", rounds=1)
    assert result.differ == 2
    assert result.only == {"parent": ["extra"], "change": []}


def test_states_on_other_lattices_are_compared_on_the_mesh(tool, tmp_path,
                                                           monkeypatch):
    # A copy of this tree that leaves every state spread over the whole
    # (n, n) mesh, which steps the same: at jmax=9 the pulse lies on the
    # level-7 lattice, so every array's bytes differ, but not its values.
    module, bench = tool
    source = tmp_path / "src" / "awcmaxwell"
    shutil.copytree(ROOT / "src" / "awcmaxwell", source)
    solver = source / "solver.py"
    text = solver.read_text()
    old = "        self.update_step(self.adapt_step())\n"
    assert text.count(old) == 1
    solver.write_text(text.replace(old, old + (
        "        self.state = on_finest_lattice(self.state, self.spec)\n")))
    tiny = bench.Workload(dict(bench.DEFAULT_J9, steps=4, snapshot_every=2),
                          seeded=True, saved_states=2, step_passes=1,
                          snapshot_repeats=1)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    result = module.compare(bench, ROOT, tmp_path, "tiny", rounds=1)
    assert result.differ == 2
    assert result.largest == dict.fromkeys(
        ("eyx", "eyz", "hx", "hz", "mask0", "mask1", "mask2"), 0.0)


def test_largest_difference_spreads_a_coarser_lattice_over_the_mesh(tool):
    module, _ = tool
    coarse = np.arange(9.0).reshape(3, 3)
    fine = np.zeros((5, 5))
    fine[::2, ::2] = coarse
    assert module.largest_difference(coarse, fine, 5) == 0.0
    fine[1, 1] = -2.5
    assert module.largest_difference(fine, coarse, 5) == 2.5
    assert module.largest_difference(0.5, 2.0, 5) == 1.5


def test_report_prints_times_faults_and_differences(tool):
    module, _ = tool
    result = module.Comparison(2.0, 1.5, 3, {"parent": [], "change": ["x"]},
                               514, 0.5, (0.7, 0.75, 0.8125),
                               {"hz": 2.5e-7, "eyx": 0.03125})
    assert module.report("full-j9", 7, 10, result) == [
        "full-j9 seed 7, 10 rounds: parent 2.000 ms, change 1.500 ms, "
        "ratio 0.750",
        "per-round ratio quartiles: 0.700 / 0.750 / 0.812",
        "minor page faults per step (median): parent 514, change 0.5",
        "3 replayed steps left states that differ in a field both hold",
        "largest absolute difference over the replays: eyx 0.0312, "
        "hz 2.5e-07",
        "fields only the change's state holds: x"]


def test_a_step_into_fresh_memory_counts_its_faults(tool, tmp_path,
                                                    monkeypatch):
    # A copy of this tree whose step also writes a fresh 36 MB array,
    # past glibc's largest mmap threshold, so the allocator maps it anew
    # at every step: each of its pages, 2 MB ones at the most, faults
    # once, and is counted against the step.
    module, bench = tool
    source = tmp_path / "src" / "awcmaxwell"
    shutil.copytree(ROOT / "src" / "awcmaxwell", source)
    solver = source / "solver.py"
    text = solver.read_text()
    old = "        self.update_step(self.adapt_step())\n"
    assert text.count(old) == 1
    solver.write_text(text.replace(
        old, old + "        np.ones(9 << 19).sum()\n"))
    tiny = bench.Workload(
        dict(bench.CALIBRATION, jmax=5, steps=4, snapshot_every=2),
        seeded=True, saved_states=2, step_passes=1, snapshot_repeats=1)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    result = module.compare(bench, ROOT, tmp_path, "tiny", rounds=3)
    assert result.differ == 0
    assert result.change_faults >= result.parent_faults + 36 // 2


def test_quartiles_are_of_each_rounds_ratio_of_mean_step_times(
        tool, tmp_path, monkeypatch):
    # A copy of this tree whose step also sleeps 30 ms, many times a
    # tiny step: every round's ratio, and so each quartile, reads it.
    # The quartiles are those of the ratios the trees' own replay times
    # give, round by round.
    module, bench = tool
    source = tmp_path / "src" / "awcmaxwell"
    shutil.copytree(ROOT / "src" / "awcmaxwell", source)
    solver = source / "solver.py"
    text = solver.read_text()
    old = "        self.update_step(self.adapt_step())\n"
    assert text.count(old) == 1
    solver.write_text(text.replace(
        old, old + "        __import__('time').sleep(0.03)\n"))
    tiny = bench.Workload(
        dict(bench.CALIBRATION, jmax=5, steps=4, snapshot_every=2),
        seeded=True, saved_states=2, step_passes=1, snapshot_repeats=1)
    monkeypatch.setitem(bench.WORKLOADS, "tiny", tiny)
    made = []

    class Kept(module.Tree):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(module, "Tree", Kept)
    result = module.compare(bench, ROOT, tmp_path, "tiny", rounds=4)
    parent, change = made
    ratios = [statistics.fmean(c) / statistics.fmean(p) for p, c in zip(
        zip(*parent.seconds.values()), zip(*change.seconds.values()))]
    assert len(ratios) == 4
    assert result.quartiles == tuple(np.percentile(ratios, (25, 50, 75)))
    assert result.quartiles[0] > 2

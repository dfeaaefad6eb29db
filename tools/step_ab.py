"""Step times of two trees, replayed interleaved in one process.

    python3 tools/step_ab.py PARENT_TREE CHANGE_TREE --workload calib-j7

Loads each tree's src/awcmaxwell under a package name of its own, saves
in each the states that benchmarks/run.py replays for the workload and
seed (evenly along the run), then replays every saved step in both trees
in turn, the states in a seeded order and the trees alternating first,
for --rounds rounds.  Prints each tree's mean over the states of its
median replay, as the benchmark's step_ms is formed but not scaled by a
host probe, and the ratio of the second tree's to the first's; then the
quartiles of the per-round ratio, each round's from the two trees' means
over the states of that round's replays, which show whether a ratio
near 1 lies inside the tool's own spread; then each tree's median count
of minor page faults per replayed step
(resource.getrusage around step): a step that writes into fresh memory
pays for its pages there, and its time follows where the allocator puts
them.  Run in one process, both trees meet the same host speed, which
separate benchmark runs on a shared host do not.  The states are
compared field by field (run_digests.field_digests): a replayed step
that leaves a field both trees' states hold different in the two is
reported, and so is each field that only one tree's state holds.
"""

import argparse
import gc
import importlib
import importlib.util
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"
DIGESTS = Path(__file__).resolve().with_name("run_digests.py")


def load_file(path, name: str):
    """The Python file at path as a module named name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_benchmark():
    """benchmarks/run.py as a module; it sets one thread per numpy
    library in the environment, which holds if numpy is not yet
    imported."""
    return load_file(RUN, "bench_run")


field_digests = load_file(DIGESTS, "run_digests").field_digests


def load_tree(tree, name: str):
    """The tree's awcmaxwell package, imported as name, anew: modules an
    earlier load left under that name are dropped first."""
    for key in [key for key in sys.modules
                if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    source = Path(tree) / "src" / "awcmaxwell"
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("config", "solver"):
        importlib.import_module(f"{name}.{module}")
    return package


@contextmanager
def as_awcmaxwell(name: str):
    """The package imported as name answers imports of awcmaxwell, as
    the benchmark's helpers make them."""
    own = {key: module for key, module in sys.modules.items()
           if key == "awcmaxwell" or key.startswith("awcmaxwell.")}
    for key in own:
        del sys.modules[key]
    alias = {"awcmaxwell" + key[len(name):]: module
             for key, module in sys.modules.items()
             if key == name or key.startswith(name + ".")}
    sys.modules.update(alias)
    try:
        yield
    finally:
        for key in alias:
            del sys.modules[key]
        sys.modules.update(own)


class Tree:
    """One tree's Simulation and the states it saved, by step count."""

    def __init__(self, bench, path, name, workload, seed, keep):
        import numpy as np

        self.bench, self.name = bench, name
        package = load_tree(path, name)
        with as_awcmaxwell(name):
            config = bench.build_config(bench.WORKLOADS[workload],
                                        np.random.default_rng(seed))
        self.sim = package.solver.Simulation(config)
        self.saved = {}
        while self.sim.state.k <= max(keep):
            if self.sim.state.k in keep:
                self.saved[self.sim.state.k] = self.copy(self.sim.state)
            self.sim.step()
        self.seconds = {k: [] for k in keep}
        self.faults = []

    def copy(self, state):
        with as_awcmaxwell(self.name):
            return self.bench.copy_state(state)

    def replay(self, k):
        """Time one step from a fresh copy of the saved state k, and count
        its minor page faults; return the digests of the fields of the
        state it leaves, by name."""
        self.sim.state = self.copy(self.saved[k])
        faults = minor_faults()
        start = time.perf_counter()
        self.sim.step()
        self.seconds[k].append(time.perf_counter() - start)
        self.faults.append(minor_faults() - faults)
        return field_digests(self.sim.state)

    def step_ms(self):
        return 1e3 * statistics.fmean(statistics.median(times)
                                      for times in self.seconds.values())

    def round_means(self):
        """Each round's mean over the states of its replay times."""
        return [statistics.fmean(times)
                for times in zip(*self.seconds.values())]


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Comparison(NamedTuple):
    parent_ms: float
    change_ms: float
    differ: int  # replays whose states differ in a field both hold
    only: dict  # "parent"/"change": fields only that tree's state holds
    parent_faults: float  # median minor page faults per replayed step
    change_faults: float
    quartiles: tuple  # of the per-round change/parent ratio


def compare(bench, parent, change, workload, seed=0, rounds=10):
    """The Comparison of the workload's saved steps, replayed in the two
    trees interleaved for the rounds."""
    import numpy as np

    setting = bench.WORKLOADS[workload]
    every = setting.config["steps"] // setting.saved_states
    keep = set(range(every // 2, every * setting.saved_states, every))
    trees = [Tree(bench, path, f"awcmaxwell_{label}", workload, seed, keep)
             for path, label in ((parent, "parent"), (change, "change"))]
    rng = np.random.default_rng(seed)
    differ = 0
    for round_ in range(rounds):
        gc.collect()
        for k in rng.permutation(sorted(keep)):
            first = round_ % 2
            replayed = {i: trees[i].replay(int(k)) for i in (first, 1 - first)}
            old, new = replayed[0], replayed[1]
            differ += any(old[name] != new[name]
                          for name in old.keys() & new.keys())
    only = {"parent": sorted(old.keys() - new.keys()),
            "change": sorted(new.keys() - old.keys())}
    ratios = [second / first for first, second in
              zip(trees[0].round_means(), trees[1].round_means())]
    return Comparison(trees[0].step_ms(), trees[1].step_ms(), differ, only,
                      *(statistics.median(tree.faults) for tree in trees),
                      tuple(np.percentile(ratios, (25, 50, 75)).tolist()))


def report(workload, seed, rounds, result: Comparison):
    """The lines main prints for a Comparison."""
    lines = [f"{workload} seed {seed}, {rounds} rounds: "
             f"parent {result.parent_ms:.3f} ms, "
             f"change {result.change_ms:.3f} ms, "
             f"ratio {result.change_ms / result.parent_ms:.3f}",
             "per-round ratio quartiles: "
             + " / ".join(f"{q:.3f}" for q in result.quartiles),
             f"minor page faults per step (median): "
             f"parent {result.parent_faults:g}, "
             f"change {result.change_faults:g}"]
    if result.differ:
        lines.append(f"{result.differ} replayed steps left states that "
                     "differ in a field both hold")
    for tree, names in result.only.items():
        if names:
            lines.append(f"fields only the {tree}'s state holds: "
                         + ", ".join(names))
    return lines


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="tree holding src/awcmaxwell")
    parser.add_argument("change", help="tree holding src/awcmaxwell")
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    result = compare(bench, args.parent, args.change, args.workload,
                     args.seed, args.rounds)
    print("\n".join(report(args.workload, args.seed, args.rounds, result)))


if __name__ == "__main__":
    main()

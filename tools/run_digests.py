"""Digests of what a benchmark workload's run writes, to compare two trees.

    python3 tools/run_digests.py --workload adapt-j9 --seed 0 --seed 7

For each workload of benchmarks/run.py (all of them when --workload is
not given) and each --seed (default 0), one harness.run_simulation of
the config the benchmark builds for that seed, in a temporary directory.
Prints one line per output file except manifest.csv, whose wall times
differ from run to run, and one per field of the final state, named
final-state.<field>: workload, seed, name and blake2b digest.  Run it in
two trees and diff what they print: a field only one tree's state holds
shows as a line only that tree prints, and leaves the others comparable.
"""

import argparse
import hashlib
import importlib.util
import tempfile
from dataclasses import fields
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


def load_benchmark():
    """benchmarks/run.py as a module.  Loading it sets one thread per
    numpy library in the environment, which holds if numpy is not yet
    imported."""
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def field_digests(state) -> dict:
    """The blake2b digest of each field of a state, by name: an array's
    bytes, another value's repr, as benchmarks/run.py's state_digest
    hashes the whole state."""
    out = {}
    for field in fields(state):
        value = getattr(state, field.name)
        data = (value.tobytes() if hasattr(value, "tobytes")
                else repr(value).encode())
        out[field.name] = hashlib.blake2b(data, digest_size=16).hexdigest()
    return out


def digests(bench, workload: str, seed: int, out_dir) -> list:
    """(name, digest) of every file a run of the benchmark's workload at
    the seed writes into out_dir, manifest.csv left out, then of each
    field of the final state as "final-state.<field>"."""
    import numpy as np
    from awcmaxwell.harness import run_simulation

    config = bench.build_config(bench.WORKLOADS[workload],
                                np.random.default_rng(seed))
    result = run_simulation(config, out_dir=out_dir)
    return [(path.name, bench.file_digest(path))
            for path in sorted(Path(out_dir).iterdir())
            if path.name != "manifest.csv"] + [
        (f"final-state.{name}", digest)
        for name, digest in field_digests(result.final_state).items()]


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(bench.WORKLOADS),
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable; default: 0")
    args = parser.parse_args(argv)
    bench.import_program()
    for workload in args.workload or sorted(bench.WORKLOADS):
        for seed in args.seed or [0]:
            with tempfile.TemporaryDirectory() as out_dir:
                for name, digest in digests(bench, workload, seed, out_dir):
                    print(workload, seed, name, digest, flush=True)


if __name__ == "__main__":
    main()

"""Benchmark of the adaptive wavelet-collocation Maxwell solver.

    python3 benchmarks/run.py --workload calib-j7 --seed 1 --seconds 40 --trace 0

Runs one workload through the public API (harness.run_simulation,
Simulation, harness.emit_snapshot) on one thread, checks what the run
wrote against the exact solution and a few properties, and prints as the
last line of standard output one JSON object: correct, attempted, failed
and metrics.  --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ones from a separate traced run.  See README.md.
"""

import os

# One thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, fields
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / "bench_out"
TRACE_ROOT = ROOT / "bench_trace"

# Simulation builds timed per replay round, for setup_s.
SETUP_PER_ROUND = 5
# Iterations of the host probe, which takes PROBE_REF_S at the speed the
# time metrics are scaled to.  Inside a whole run it runs about every
# PROBE_EVERY_S; after any other timed operation, until it has taken at
# least PROBE_SHARE of the operation's time (at most PROBE_MAX times).
PROBE_LOOPS = 50000
PROBE_REF_S = 0.005
PROBE_EVERY_S = 0.2
PROBE_SHARE = 0.05
PROBE_MAX = 10
# Largest pulse-centre shift the seed applies, as a fraction of the edge.
SEED_SHIFT_FRAC = 0.005

CALIBRATION = dict(domain_length_um=6.0, jmin=3, jmax=7, order=4, zeta=5e-4,
                   steps=260, boundary="PML", pml_width_frac=0.25,
                   sigma_um=1.0 / (4.0 * math.sqrt(2.0)), snapshot_every=50)
DEFAULT_J9 = dict(CALIBRATION, jmax=9, steps=24, snapshot_every=24)


@dataclass(frozen=True)
class Workload:
    config: dict
    seeded: bool  # does the seed shift the pulse centre?
    saved_states: int  # states replayed for step_ms, evenly along the run
    step_passes: int  # replays of every saved state per round
    snapshot_repeats: int  # final-snapshot replays per round
    fault_from: int | None = None  # first step of the known wake fault


WORKLOADS = {
    # The seed leaves this pulse where it is: the counted wake fault must
    # sit on inputs that no seed changes.  It only orders the replays.
    "calib-j7": Workload(CALIBRATION, seeded=False, saved_states=13,
                         step_passes=2, snapshot_repeats=16, fault_from=135),
    "adapt-j9": Workload(DEFAULT_J9, seeded=True, saved_states=4,
                         step_passes=2, snapshot_repeats=1),
    "full-j9": Workload(dict(DEFAULT_J9, full_grid=True), seeded=True,
                        saved_states=4, step_passes=6, snapshot_repeats=1),
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def import_program():
    if not (SRC / "awcmaxwell" / "__init__.py").is_file():
        log(f"benchmark: no program sources under {SRC}")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import awcmaxwell

    if Path(awcmaxwell.__file__).resolve().parent != SRC / "awcmaxwell":
        log(f"benchmark: awcmaxwell imported from {awcmaxwell.__file__}")
        sys.exit(2)


def build_config(workload, rng):
    from awcmaxwell.config import SimulationConfig

    config = SimulationConfig(**workload.config)
    if workload.seeded:
        shift = rng.uniform(-SEED_SHIFT_FRAC, SEED_SHIFT_FRAC, size=2)
        config.center_frac = (0.5 + float(shift[0]), 0.5 + float(shift[1]))
    return config.validate()


def copy_state(state):
    """Fresh arrays, so a replay cannot touch the saved state."""
    import numpy as np
    from awcmaxwell.solver import FieldState

    values = {f.name: getattr(state, f.name) for f in fields(state)}
    return FieldState(**{name: value.copy() if isinstance(value, np.ndarray)
                         else value for name, value in values.items()})


def state_digest(state):
    h = hashlib.blake2b(digest_size=16)
    for f in fields(state):
        value = getattr(state, f.name)
        h.update(value.tobytes() if hasattr(value, "tobytes")
                 else repr(value).encode())
    return h.hexdigest()


def file_digest(path):
    return hashlib.blake2b(Path(path).read_bytes(), digest_size=16).hexdigest()


class HostClock:
    """Times operations at a reference speed of the host.

    A shared host's speed can swing from one operation to the next and
    drift over minutes, alike for the program and for any other work (on
    the VM of README.md's figures, between modes about 1.4x apart).  A probe, a fixed pure-Python loop
    apart from the program, runs next to the timed operations; an
    operation's time is scaled by PROBE_REF_S over the mean time of the
    probes just before and just after it, which tracks the host's mean
    speed around it.
    """

    def __init__(self):
        self.probes = []
        self.spent = 0.0  # seconds spent probing, for run_s to leave out
        self.last = [self.probe()]

    def probe(self):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        seconds = time.perf_counter() - start
        self.probes.append(seconds)
        self.spent += seconds
        return seconds

    def scale(self, seconds, probes):
        return seconds * PROBE_REF_S / statistics.fmean(probes)

    def timed(self, fn, *args):
        """Call fn; return its result and its scaled time."""
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start
        after = [self.probe()]
        while (sum(after) < PROBE_SHARE * seconds
               and len(after) < PROBE_MAX):
            after.append(self.probe())
        scaled = self.scale(seconds, self.last + after)
        self.last = after
        return result, scaled


@dataclass
class TimedRun:
    result: object  # harness.RunResult
    run_s: float  # from the end of the Simulation set-up to the return
    snapshot_s: list  # seconds of each emit_snapshot, in order
    saved: dict  # k -> (state entering step k+1, digest of the one it leaves)
    probes: list  # times of the host probes run between steps


def timed_run(config, out_dir, clock, keep=(), progress=None):
    """run_simulation, with run time counted from the end of its set-up.

    The clock's probe runs between steps about every PROBE_EVERY_S; its
    time is left out of run_s.  Times are as measured, not scaled.

    States entering the steps listed in keep are copied, with the digests
    of the states those steps leave, for replay.  The copies are made
    inside the neighbouring steps; keep must not hold neighbours.
    progress, a dict, gets under "steps" the number of steps done so far.
    """
    from awcmaxwell import harness
    from awcmaxwell.solver import Simulation

    marks, before, saved, snapshots, probes = [], {}, {}, [], []
    due = [0.0]

    class ReadyClock(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            marks.append(time.perf_counter())

        def step(self):
            k = self.state.k
            if k - 1 in before:
                saved[k - 1] = (before.pop(k - 1), state_digest(self.state))
            super().step()
            if progress is not None:
                progress["steps"] = self.state.k
            if k + 1 in keep:
                before[k + 1] = copy_state(self.state)
            if time.perf_counter() >= due[0]:
                probes.append(clock.probe())
                due[0] = time.perf_counter() + PROBE_EVERY_S

    def emit_snapshot(*args, **kwargs):
        start = time.perf_counter()
        paths = emit(*args, **kwargs)
        snapshots.append(time.perf_counter() - start)
        return paths

    emit = harness.emit_snapshot
    harness.Simulation, harness.emit_snapshot = ReadyClock, emit_snapshot
    probed = clock.spent
    try:
        gc.collect()
        result = harness.run_simulation(config, out_dir=out_dir)
        end = time.perf_counter()
    finally:
        harness.Simulation, harness.emit_snapshot = Simulation, emit
    return TimedRun(result, end - marks[0] - (clock.spent - probed),
                    snapshots, saved, probes)


class Replayer:
    """Replays saved steps and the final snapshot, checking each bit for bit.

    Every replay starts from a fresh copy of its saved state on one
    Simulation, and every snapshot goes to a fresh directory that is
    removed afterwards, so no replay can reuse what an earlier one left.
    """

    def __init__(self, config, saved, final_state, out_dir, clock):
        from awcmaxwell.solver import Simulation

        self.config, self.saved, self.final_state = config, saved, final_state
        self.out_dir, self.clock = out_dir, clock
        self.sim = Simulation(config)
        self.expected = {k: after for k, (_, after) in saved.items()}
        self.step_s = {k: [] for k in saved}
        self.snapshot_s = []
        self.problems = []
        self._snapshot_digests = None

    def steps(self, order):
        for k in order:
            self.sim.state = copy_state(self.saved[k][0])
            _, seconds = self.clock.timed(self.sim.step)
            self.step_s[k].append(seconds)
            if state_digest(self.sim.state) != self.expected[k]:
                self.problems.append(f"replay of step {k + 1} differs")

    def snapshot(self):
        from awcmaxwell.harness import emit_snapshot

        target = self.out_dir / f"snapshot_replay_{len(self.snapshot_s)}"
        target.mkdir()
        paths, seconds = self.clock.timed(emit_snapshot, self.final_state,
                                          self.sim.spec, self.config, target)
        self.snapshot_s.append(seconds)
        digests = [file_digest(p) for p in paths]
        if digests != (self._snapshot_digests or digests):
            self.problems.append("replayed snapshots differ")
        self._snapshot_digests = digests
        shutil.rmtree(target)


def same_files(first, second):
    """Files that differ between two run directories.

    The manifests differ in their wall times, so they are left out.
    """
    names = sorted(p.name for p in Path(first).iterdir())
    if names != sorted(p.name for p in Path(second).iterdir()):
        return ["file list"]
    return [name for name in names if name != "manifest.csv"
            and file_digest(Path(first) / name) != file_digest(Path(second) / name)]


def measure(config, workload, out_dir, rng, seconds, progress):
    """End-to-end metrics from untraced runs, measured for about seconds.

    Two whole runs come first: the first is left alone but for the host
    probe and gives the peak memory, the second also copies the states to
    replay.  Replay rounds fill the rest of the time (at least one, and
    none that would end after it), each replaying every saved step a few
    times in a seeded order, the final snapshot and a few Simulation
    builds, so that each quantity gets many samples spread over the
    process.  Every time is scaled to the reference speed
    (HostClock); each time metric is then the median of its samples, and
    step_ms the mean over saved steps of their median replay.
    """
    from awcmaxwell.solver import Simulation

    start = time.perf_counter()
    clock = HostClock()
    runs = [timed_run(config, out_dir / "run1", clock, progress=progress)]
    # Read before anything of the benchmark's own can raise it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = config.steps // workload.saved_states
    keep = set(range(every // 2, every * workload.saved_states, every))
    runs.append(timed_run(config, out_dir / "run2", clock, keep))
    first, second = runs[0].result, runs[1].result
    problems = [f"run2 wrote a different {name}"
                for name in same_files(first.out_dir, second.out_dir)]
    if state_digest(second.final_state) != state_digest(first.final_state):
        problems.append("run2 ended elsewhere")
    shutil.rmtree(second.out_dir)

    replayer = Replayer(config, runs[1].saved, first.final_state, out_dir,
                        clock)
    setup, rounds, round_s = [], 0, 0.0
    while rounds == 0 or time.perf_counter() + round_s < start + seconds:
        begin = time.perf_counter()
        rounds += 1
        gc.collect()
        for _ in range(workload.step_passes):
            replayer.steps([int(k) for k in rng.permutation(sorted(keep))])
        for _ in range(workload.snapshot_repeats):
            replayer.snapshot()
        for _ in range(SETUP_PER_ROUND):
            gc.collect()
            setup.append(clock.timed(Simulation, config)[1])
        round_s = time.perf_counter() - begin

    problems += replayer.problems
    log(f"2 whole runs, {rounds} replay rounds and {len(clock.probes)} probes "
        f"in {time.perf_counter() - start:.1f} s; median probe "
        f"{1e3 * statistics.median(clock.probes):.2f} ms")
    step_s = statistics.fmean(statistics.median(times)
                              for times in replayer.step_s.values())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(clock.scale(r.run_s, r.probes)
                                    for r in runs), "s"),
        "step_ms": (1e3 * step_s, "ms"),
        "snapshot_s": (statistics.median(
            replayer.snapshot_s
            + [clock.scale(r.snapshot_s[-1], r.probes) for r in runs]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return first, metrics, problems


def measure_traced(config, out_dir, trace_path, progress):
    """Per-layer metrics from a traced run, next to an untraced one."""
    import layers
    import tracer as tracing
    from awcmaxwell import harness

    plain_run_s = timed_run(config, out_dir / "plain", HostClock(),
                            progress=progress).run_s
    trace = tracing.Tracer()
    tracing.install(trace)
    result = harness.run_simulation(config, out_dir=out_dir / "run")
    trace.dump(trace_path)
    metrics, problems = layers.layer_metrics(trace, result, plain_run_s)
    problems += [f"traced run wrote a different {name}"
                 for name in same_files(out_dir / "plain", result.out_dir)]
    return result, metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to measure (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import numpy as np

    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    config = build_config(workload, rng)
    out_dir = OUT_ROOT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    log(f"{args.workload}: seed {args.seed}, centre {config.center_frac}, "
        f"jmax {config.jmax}, {config.steps} steps, full_grid "
        f"{config.full_grid}, trace {args.trace}")

    progress = {"steps": 0}
    try:
        if args.trace:
            TRACE_ROOT.mkdir(exist_ok=True)
            trace_path = TRACE_ROOT / f"{args.workload}-seed{args.seed}.json"
            result, metrics, problems = measure_traced(config, out_dir,
                                                       trace_path, progress)
        else:
            result, metrics, problems = measure(config, workload, out_dir, rng,
                                                args.seconds, progress)

        import checks
        from awcmaxwell.filters import build_filter_bank

        report = checks.check_run(result.out_dir, config,
                                  build_filter_bank(config.order),
                                  workload.fault_from)
    except Exception:
        # A step that raises fails, and so does every step it kept from
        # running; the run as a whole is then not correct.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": config.steps,
                          "failed": max(1, config.steps - progress["steps"]),
                          "metrics": {}}))
        return
    report.problems.extend(problems)
    for line in report.lines + report.problems:
        log(line)
    if not args.trace:
        metrics["exact_err_zeta"] = (report.max_err_zeta, "zeta")
    for name, (value, unit) in metrics.items():
        log(f"{name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": config.steps,
        "failed": len(report.failed_steps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

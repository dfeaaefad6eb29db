"""A traced run through the benchmark's tracer classifies what it spans.

benchmarks/tracer.py names a derivative span by the support mask it
reads as the second positional argument of diff_x and diff_z, and counts
its points.  A run in a fresh process with the tracer installed must
give masked-derivative spans whose counts are the sizes of the masks
the field update reads: mask2 for the two H derivatives and mask1 for
the two E derivatives of every step.  Without the tracer's file the
test skips.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"

SCRIPT = """
import json
import tracer
from awcmaxwell.config import SimulationConfig
from awcmaxwell.solver import Simulation

trace = tracer.Tracer()
tracer.install(trace)
sim = Simulation(SimulationConfig(domain_length_um=6.0, jmin=3, jmax=6,
                                  order=4, zeta=5e-4, boundary="PML",
                                  sigma_um=0.177))
sizes = []
sim.run(3, on_step=lambda s: sizes.append(
    [int(s.state.mask2.sum())] * 2 + [int(s.state.mask1.sum())] * 2))
spans = [[name, count] for name, _, _, _, count in trace.spans
         if name.startswith("derivatives.diff")]
print(json.dumps({"spans": spans, "sizes": sizes}))
"""


def test_traced_run_counts_the_support_masks_of_masked_derivatives():
    if not TRACER.is_file():
        pytest.skip("no benchmarks/tracer.py in this checkout")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(TRACER.parent)]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    names = {name for name, _ in got["spans"]}
    assert names == {"derivatives.diff.masked"}
    assert [count for _, count in got["spans"]] == [
        size for step in got["sizes"] for size in step]

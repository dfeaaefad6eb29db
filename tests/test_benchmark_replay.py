"""The benchmark's state replay copies a state and steps it alone.

benchmarks/run.py times a step by replaying saved states: it copies a
state with copy_state, steps the copy, and checks the state it leaves
by state_digest against the one the whole run left.  A copy that shared
an array with the saved state would let one replay change the next,
and a digest that missed a field would pass a wrong step.  The two
functions are read from the benchmark's file; without it the test skips.
"""

import importlib.util
import os
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from awcmaxwell.solver import Simulation
from test_solver import lattice_level, small_config

RUN = Path(__file__).resolve().parents[1] / "benchmarks" / "run.py"


@pytest.fixture(scope="module")
def bench():
    if not RUN.is_file():
        pytest.skip("no benchmarks/run.py in this checkout")
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    # The file sets thread counts in the environment when loaded.
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_replayed_lattice_state_steps_like_the_original(bench):
    # At jmax=8 the state is stored on the level-7 lattice from step 2 on.
    config = small_config(jmax=8, boundary="PML", pml_width_frac=0.25)
    original = Simulation(config)
    original.run(6)
    assert lattice_level(original.state) < config.jmax
    copied = bench.copy_state(original.state)
    for field in fields(copied):
        value = getattr(copied, field.name)
        if isinstance(value, np.ndarray):
            assert not any(
                np.shares_memory(value, getattr(original.state, other.name))
                for other in fields(original.state)
                if isinstance(getattr(original.state, other.name),
                              np.ndarray)), field.name
    replay = Simulation(config)
    replay.state = copied
    assert bench.state_digest(copied) == bench.state_digest(original.state)
    original.step()
    replay.step()
    assert bench.state_digest(replay.state) == bench.state_digest(
        original.state)

"""The benchmark's tracer finds what it wraps.

benchmarks/tracer.py times a run by rebinding functions, by name, in the
module namespaces the solver calls them through, and the methods of
Simulation.  A function that moves or is renamed would silently drop
out of the per-layer figures, and time spent in Simulation.step outside
adapt_step and update_step would be charged to neither phase.  The
tables are read from the tracer's file; without it the tests skip.
"""

import copy
import importlib
import importlib.util
from pathlib import Path

import pytest

from awcmaxwell.solver import Simulation
from test_solver import small_config, state_digest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("no benchmarks/tracer.py in this checkout")
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_and_counted_functions_stay_bound_where_looked_up(tracer):
    for module_name, table in tracer.SPANNED.items():
        module = importlib.import_module(f"awcmaxwell.{module_name}")
        for attr, name in table.items():
            fn = getattr(module, attr, None)
            assert callable(fn), f"awcmaxwell.{module_name}.{attr}"
            # Bound where it is called from, defined in the module the
            # span is named after.
            home = f"awcmaxwell.{name.split('.')[0]}"
            assert fn.__module__ == home, f"{module_name}.{attr}"
    for module_name, attrs in tracer.COUNTED.items():
        module = importlib.import_module(f"awcmaxwell.{module_name}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), attr
    for attr in tracer.METHODS:
        assert callable(getattr(Simulation, attr, None)), attr


def test_step_is_update_of_adapt_and_nothing_else(monkeypatch):
    sim = Simulation(small_config(boundary="PML"))
    sim.step()
    calls, listed = [], object()
    monkeypatch.setattr(sim, "adapt_step",
                        lambda: calls.append("adapt") or listed)
    monkeypatch.setattr(sim, "update_step",
                        lambda points=None: calls.append(points))
    state, before = sim.state, state_digest(copy.deepcopy(sim.state))
    sim.step()
    assert calls == ["adapt", listed]
    assert sim.state is state and state_digest(state) == before

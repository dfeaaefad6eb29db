"""Run orchestration: output files, manifests, timing report, CLI."""

import argparse
import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import traced_peak

from awcmaxwell import cli
from awcmaxwell.config import CONFIG_KEYS, SimulationConfig, parse_config
from awcmaxwell.errors import ConfigError, InstabilityError
from awcmaxwell.harness import (
    FIELD_HEADER,
    MANIFEST_HEADER,
    StepRecord,
    _write_manifest,
    emit_snapshot,
    proportionality_report,
    read_manifest,
    read_mask_pgm,
    run_simulation,
    write_field_csv,
    write_mask_pgm,
)
from awcmaxwell.grid import GridSpec
from awcmaxwell.solver import Simulation, on_finest_lattice, relattice

SIGMA_PAPERED = 1.0 / (4.0 * math.sqrt(2.0))


def tiny_config(**overrides):
    base = dict(domain_length_um=6.0, jmin=3, jmax=6, order=4, zeta=5e-4,
                steps=4, boundary="PML", sigma_um=SIGMA_PAPERED,
                snapshot_every=2)
    base.update(overrides)
    return SimulationConfig(**base)


# ------------------------------------------------------------ file formats


def test_zero_step_run_emits_initial_snapshot(tmp_path):
    cfg = tiny_config(ic="zero", steps=0)
    result = run_simulation(cfg, out_dir=tmp_path)
    assert result.records == []
    n = 2**6 + 1
    lines = (tmp_path / "field_k0.csv").read_text().splitlines()
    assert lines[0] == FIELD_HEADER
    assert len(lines) == 1 + n * n
    # a zero state holds only (possibly signed) zeros
    assert all(float(v) == 0.0 for line in lines[1:]
               for v in line.split(",")[4:])
    # The start of a zero field is the coarse lattice.
    mask = read_mask_pgm(tmp_path / "mask_k0.pgm")
    np.testing.assert_array_equal(mask, GridSpec(3, 6).coarse_mask())
    manifest = (tmp_path / "manifest.csv").read_text()
    assert "# summary: min_cp = undefined" in manifest
    assert read_manifest(tmp_path / "manifest.csv") == []


def test_field_csv_values_round_trip(tmp_path):
    cfg = tiny_config(steps=0)
    run_simulation(cfg, out_dir=tmp_path)
    n = 2**6 + 1
    lines = (tmp_path / "field_k0.csv").read_text().splitlines()
    center = lines[1 + (n // 2) * n + n // 2].split(",")
    assert int(center[0]) == n // 2 and int(center[1]) == n // 2
    assert float(center[4]) == 1.0  # pulse peak sits at the center


def reference_field_csv(state, spec, domain_length_um):
    """The field CSV formatted point by point with repr, from the
    state's (n, n) ey, hx and hz (each read once: a FieldState forms ey
    on every read)."""
    delta = domain_length_um / (spec.n - 1)
    ey, hx, hz = (np.asarray(a, dtype=float).tolist()
                  for a in (state.ey, state.hx, state.hz))
    return "".join([FIELD_HEADER + "\n"] + [
        ",".join([str(m), str(n)] + [repr(float(v)) for v in (
            m * delta, n * delta, ey[m][n], hx[m][n], hz[m][n])]) + "\n"
        for m in range(spec.n) for n in range(spec.n)])


def test_field_csv_matches_per_value_repr(tmp_path):
    spec = GridSpec(1, 2)
    special = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 0.0, -1.5, 1.0 / 3.0]
    rng = np.random.default_rng(3)
    ey, hx, hz = (rng.permutation(np.resize(special, spec.n**2)).reshape(
        spec.n, spec.n) for _ in range(3))
    state = SimpleNamespace(ey=ey, hx=hx, hz=hz)
    path = write_field_csv(tmp_path / "field.csv", (ey, hx, hz), spec, 6.0)
    assert path.read_text() == reference_field_csv(state, spec, 6.0)
    assert "-0.0" in path.read_text() and "5e-324" in path.read_text()

    # Rows that hold no value between rows that hold one, in one field.
    spec = GridSpec(2, 4)
    for name in ("ey", "hx", "hz"):
        state = SimpleNamespace(**{f: np.zeros((spec.n, spec.n))
                                   for f in ("ey", "hx", "hz")})
        field = getattr(state, name)
        field[1] = -0.0  # only -0.0
        field[3, 0] = 2.5  # one value, first column
        field[5, -1] = -7e-3  # one value, last column
        field[7, 8] = 5e-324  # subnormals
        field[9, 2:5] = [-5e-324, 2.2250738585072014e-308 / 3, -0.0]
        field[11, 0] = -0.0
        field[-1] = rng.standard_normal(spec.n)
        path = write_field_csv(tmp_path / f"{name}.csv",
                               (state.ey, state.hx, state.hz), spec, 6.0)
        assert path.read_text() == reference_field_csv(state, spec, 6.0)


@pytest.mark.parametrize("jmax", [4, 5, 6])
@pytest.mark.parametrize("full_grid", [False, True])
def test_field_csv_of_a_run_matches_per_value_repr(tmp_path, jmax,
                                                   full_grid):
    # Adaptive states are stored on a coarser lattice and spread over
    # the mesh with zeros; full-grid states are (n, n) already.
    sim = Simulation(tiny_config(jmax=jmax, full_grid=full_grid))
    for _ in range(3):
        sim.step()
    state = on_finest_lattice(sim.state, sim.spec)
    path = write_field_csv(tmp_path / "field.csv",
                           (state.ey, state.hx, state.hz), sim.spec, 6.0)
    assert path.read_text() == reference_field_csv(state, sim.spec, 6.0)


def test_field_csv_of_the_start_matches_per_value_repr(tmp_path):
    # The adaptive start holds values at its fitted points only, so most
    # rows hold some values and many points, and others none.
    sim = Simulation(tiny_config(jmax=7))
    state = on_finest_lattice(sim.state, sim.spec)
    assert not state.mask0.all()
    path = write_field_csv(tmp_path / "field.csv",
                           (state.ey, state.hx, state.hz), sim.spec, 6.0)
    assert path.read_text() == reference_field_csv(state, sim.spec, 6.0)


def spread(fields, spec):
    """Ey, Hx and Hz of a lattice spread over spec's mesh, as the
    reference reads them."""
    ey, hx, hz = (relattice(field, spec.j_max) for field in fields)
    return SimpleNamespace(ey=ey, hx=hx, hz=hz)


def test_field_csv_of_a_coarser_lattice_matches_per_value_repr(tmp_path):
    # Fields on the level-3 lattice of a jmax=5 grid, stride 4: mesh rows
    # and columns between the lattice's hold no value.
    spec = GridSpec(2, 5)
    special = [-0.0, 5e-324, 1e16, 1.0 / 3.0, 0.0, 0.0, -2.5]
    rng = np.random.default_rng(5)
    fields = [rng.permutation(np.resize(special, 81)).reshape(9, 9)
              for _ in range(3)]
    for field in fields:
        field[1] = 0.0
        field[3] = 0.0
        field[5] = 0.0
    fields[0][1, 0] = 7e-3  # one value, first lattice column
    fields[1][3, -1] = -1e-300  # one value, last lattice column
    fields[2][5, 4] = -0.0  # a lattice row whose only value is -0.0
    path = write_field_csv(tmp_path / "field.csv", fields, spec, 6.0)
    text = path.read_text()
    assert text == reference_field_csv(spread(fields, spec), spec, 6.0)
    assert "\n20,16,3.75,3.0,0.0,0.0,-0.0\n" in text


@pytest.mark.parametrize("jmax", [4, 5, 6, 7, 8])
def test_field_csv_of_a_stored_run_state_matches_per_value_repr(tmp_path,
                                                                jmax):
    # The state's own arrays, on the lattice they are stored on (the
    # level-7 one at jmax=8, stride 2).
    sim = Simulation(tiny_config(jmax=jmax))
    for _ in range(3):
        sim.step()
    fields = (sim.state.ey, sim.state.hx, sim.state.hz)
    path = write_field_csv(tmp_path / "field.csv", fields, sim.spec, 6.0)
    assert path.read_text() == reference_field_csv(
        spread(fields, sim.spec), sim.spec, 6.0)


def test_field_csv_of_the_default_pulse_matches_per_value_repr(tmp_path):
    # The default scale after 3 steps, on the level-7 lattice, stride 4.
    sim = Simulation(tiny_config(jmax=9, pml_width_frac=0.25))
    for _ in range(3):
        sim.step()
    fields = (sim.state.ey, sim.state.hx, sim.state.hz)
    assert fields[0].shape == (2**7 + 1,) * 2
    path = write_field_csv(tmp_path / "field.csv", fields, sim.spec, 6.0)
    assert path.read_text() == reference_field_csv(
        spread(fields, sim.spec), sim.spec, 6.0)


def test_field_csv_rejects_fields_of_different_shapes(tmp_path):
    spec = GridSpec(2, 4)
    fields = (np.zeros((17, 17)), np.zeros((9, 9)), np.zeros((17, 17)))
    with pytest.raises(ValueError, match=r"\(17, 17\), \(9, 9\)"):
        write_field_csv(tmp_path / "field.csv", fields, spec, 6.0)


@pytest.mark.parametrize("shape", [(16, 16), (17, 9), (33, 33), (17,),
                                   (1, 1), (3, 17, 17)])
def test_field_csv_rejects_a_shape_of_no_lattice(tmp_path, shape):
    # jmax=4: (17, 17) and its lattices (9, 9), (5, 5), (3, 3), (2, 2).
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        write_field_csv(tmp_path / "field.csv", (np.zeros(shape),) * 3,
                        GridSpec(2, 4), 6.0)


def test_mask_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    mask = rng.random((33, 33)) < 0.3
    path = write_mask_pgm(tmp_path / "m.pgm", mask)
    np.testing.assert_array_equal(read_mask_pgm(path), mask)
    # plain-format line length limit
    assert max(len(l) for l in path.read_text().splitlines()) < 70


@pytest.mark.parametrize("width", [9, 17, 33, 129, 513])
def test_mask_pgm_matches_plain_format(tmp_path, width):
    rng = np.random.default_rng(width)
    mask = np.zeros((7, width), dtype=bool)
    mask[1, 0] = True  # single point, first column
    mask[2, -1] = True  # single point, last column
    mask[3, width // 2] = True
    mask[4] = True  # full row
    mask[5] = rng.random(width) < 0.3
    want = [f"P2\n{width} 7\n255\n"]
    for row in mask:
        tokens = ["255" if v else "0" for v in row]
        want += [" ".join(tokens[i:i + 15]) + "\n"
                 for i in range(0, width, 15)]
    path = write_mask_pgm(tmp_path / "m.pgm", mask)
    assert path.read_text() == "".join(want)


def test_snapshot_of_a_lattice_state_allocates_under_five_meshes(tmp_path):
    # The default scale after 3 steps, stored on the level-7 lattice:
    # the snapshot spreads only the fields and mask it writes over the
    # (n, n) mesh, not all twelve arrays of the state.
    config = tiny_config(jmax=9, pml_width_frac=0.25, steps=3)
    sim = Simulation(config)
    for _ in range(3):
        sim.step()
    assert sim.state.ey.shape == (2**7 + 1,) * 2
    _, peak = traced_peak(
        lambda: emit_snapshot(sim.state, sim.spec, config, tmp_path))
    assert peak < 5 * sim.spec.n**2 * 8


def test_snapshot_of_a_lattice_state_allocates_under_half_a_mesh(tmp_path):
    # The same state: the field CSV reads Ey, Hx and Hz on the level-7
    # lattice they are stored on, and only mask0, a bool array, is
    # spread over the (n, n) mesh.
    config = tiny_config(jmax=9, pml_width_frac=0.25, steps=3)
    sim = Simulation(config)
    for _ in range(3):
        sim.step()
    assert sim.state.ey.shape == (2**7 + 1,) * 2
    _, peak = traced_peak(
        lambda: emit_snapshot(sim.state, sim.spec, config, tmp_path))
    assert peak < sim.spec.n**2 * 8 / 2


def test_read_mask_pgm_rejects_other_formats(tmp_path):
    bad = tmp_path / "m.pgm"
    bad.write_text("P5\n4 4\n255\n")
    with pytest.raises(ValueError, match="P2"):
        read_mask_pgm(bad)


def test_manifest_round_trips_records(tmp_path):
    result = run_simulation(tiny_config(), out_dir=tmp_path)
    again = read_manifest(result.manifest_path)
    assert again == result.records


def test_manifest_rejects_foreign_header(tmp_path):
    path = tmp_path / "manifest.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ConfigError, match="header"):
        read_manifest(path)


EVERY_KEY = """\
domain_length_um = 3.5
jmin = 2
jmax = 6
order = 3
zeta = 1e-3
dt_factor = 0.75
steps = 12
boundary = pec
pml_width_frac = 0.2
sigma_um = 0.25
snapshot_every = 4
out_dir = results
"""
EVERY_KEY_ECHO = [
    "# domain_length_um = 3.5", "# jmin = 2", "# jmax = 6", "# order = 3",
    "# zeta = 0.001", "# dt_factor = 0.75", "# steps = 12",
    "# boundary = PEC", "# pml_width_frac = 0.2", "# sigma_um = 0.25",
    "# snapshot_every = 4", "# out_dir = results"]


@pytest.mark.parametrize("text, echo", [
    ("", ["# domain_length_um = 6.0", "# jmin = 3", "# jmax = 9",
          "# order = 4", "# zeta = 0.0005",
          "# dt_factor = 0.9024324602559227", "# steps = 100",
          "# boundary = PML", "# pml_width_frac = 0.25",
          "# sigma_um = 0.17677669529663687", "# snapshot_every = 50",
          "# out_dir = out"]),
    (EVERY_KEY, EVERY_KEY_ECHO),
    # Unset, dt_factor is echoed as the step the solver derives.
    (EVERY_KEY.replace("dt_factor = 0.75\n", ""),
     [line if "dt_factor" not in line else "# dt_factor = 0.8002374260260429"
      for line in EVERY_KEY_ECHO]),
], ids=["default", "every-key", "every-key-dt-unset"])
def test_manifest_echoes_config_keys_in_order(tmp_path, text, echo):
    path = _write_manifest(tmp_path / "manifest.csv", parse_config(text),
                           [], {})
    lines = path.read_text().splitlines()
    assert lines[:14] == ["# run manifest"] + echo + [MANIFEST_HEADER]
    assert [line[2:].split(" = ")[0] for line in echo] == list(CONFIG_KEYS)


def test_snapshot_cardinality_matches_manifest(tmp_path):
    result = run_simulation(tiny_config(steps=4, snapshot_every=2),
                            out_dir=tmp_path)
    by_k = {r.k: r for r in result.records}
    for k in (2, 4):
        mask = read_mask_pgm(tmp_path / f"mask_k{k}.pgm")
        assert int(mask.sum()) == by_k[k].cardinality
        assert by_k[k].cp == by_k[k].cardinality / mask.size


def test_runs_are_reproducible(tmp_path):
    cfg = tiny_config(steps=3, snapshot_every=100)
    run_simulation(cfg, out_dir=tmp_path / "a")
    run_simulation(cfg, out_dir=tmp_path / "b")
    first = (tmp_path / "a" / "field_k3.csv").read_bytes()
    second = (tmp_path / "b" / "field_k3.csv").read_bytes()
    assert first == second


# ------------------------------------------------------------ comparison


def test_oracle_summary_written(tmp_path):
    result = run_simulation(tiny_config(steps=2), out_dir=tmp_path,
                            oracle=True)
    text = result.manifest_path.read_text()
    last = result.errors[-1].rel_err
    assert f"# summary: final_rel_error = {last!r}" in text


def test_compare_zero_threshold_is_exact(tmp_path):
    cfg = tiny_config(zeta=0.0, steps=8)
    records = run_simulation(cfg, out_dir=tmp_path, oracle=True).errors
    assert len(records) == 8
    assert max(r.rel_err for r in records) <= 1e-12
    lines = (tmp_path / "error_series.csv").read_text().splitlines()
    assert lines[0] == "k,t,max_full,rel_err"
    assert len(lines) == 9


def test_compare_tracks_reference_peak(tmp_path):
    records = run_simulation(tiny_config(steps=3), out_dir=tmp_path,
                             oracle=True).errors
    assert [r.k for r in records] == [1, 2, 3]
    assert all(r.max_full > 0 for r in records)


def test_oracle_on_zero_field_writes_no_records(tmp_path):
    # A reference that is zero from the start is below any floor: no
    # record, no summary, and a header-only error series.
    cfg = SimulationConfig(jmin=3, jmax=5, steps=3, ic="zero")
    result = run_simulation(cfg, out_dir=tmp_path, oracle=True)
    assert result.errors == []
    assert len(result.records) == 3
    assert "final_rel_error" not in result.manifest_path.read_text()
    assert ((tmp_path / "error_series.csv").read_text()
            == "k,t,max_full,rel_err\n")


def test_oracle_off_writes_no_error_series(tmp_path):
    result = run_simulation(tiny_config(steps=2), out_dir=tmp_path)
    assert result.errors == []
    assert not (tmp_path / "error_series.csv").exists()
    assert "final_rel_error" not in result.manifest_path.read_text()


# ------------------------------------------------------------ timing report


def synthetic_records(count, slope=2.0, card=None):
    records = []
    for i in range(count):
        c = card if card is not None else 400 + 13 * i
        records.append(StepRecord(k=i + 1, t=0.1 * (i + 1), cardinality=c,
                                  card1=c + 40, card2=c + 80,
                                  cp=c / 4225.0, wall_ms=3.0 + slope * c))
    return records


def test_affine_cost_gives_perfect_correlation():
    pearson = proportionality_report(synthetic_records(60), out_dir=None)
    assert pearson == pytest.approx(1.0, abs=1e-12)


def test_constant_cardinality_has_no_correlation():
    records = synthetic_records(60, card=500)
    for i, r in enumerate(records):
        r.wall_ms = 3.0 + 0.1 * i
    assert proportionality_report(records, out_dir=None) is None


def test_short_series_refused():
    with pytest.raises(ConfigError, match="50"):
        proportionality_report(synthetic_records(10), out_dir=None)


def test_report_writes_timing_series(tmp_path):
    pearson = proportionality_report(synthetic_records(60), out_dir=tmp_path)
    lines = (tmp_path / "timing.csv").read_text().splitlines()
    assert lines[0] == "k,cardinality,wall_ms"
    assert len(lines) == 62
    assert lines[-1] == f"# pearson = {pearson!r}"


def test_report_reads_manifest_from_disk(tmp_path):
    path = tmp_path / "manifest.csv"
    rows = [MANIFEST_HEADER]
    for r in synthetic_records(60):
        rows.append(f"{r.k},{r.t},{r.cardinality},{r.card1},{r.card2},"
                    f"{r.cp},{r.wall_ms}")
    path.write_text("\n".join(rows) + "\n")
    pearson = proportionality_report(path)
    assert pearson == pytest.approx(1.0, abs=1e-12)
    assert (tmp_path / "timing.csv").exists()


# ------------------------------------------------------------ CLI


def test_cli_run_exits_zero(tmp_path, capsys):
    code = cli.main(["run", "--jmax", "5", "--steps", "2",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "manifest.csv").exists()
    out = capsys.readouterr().out
    assert "completed 2 steps" in out
    assert "manifest:" in out


def test_cli_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jmax = 5\nsteps = 9\n")
    code = cli.main(["run", "--config", str(cfg), "--steps", "1",
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert "completed 1 steps" in capsys.readouterr().out


def test_cli_invalid_setting_exits_two(capsys):
    code = cli.main(["run", "--jmax", "15"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_non_finite_setting_exits_two(tmp_path, capsys):
    code = cli.main(["run", "--zeta", "nan", "--steps", "0",
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "zeta: must be finite" in capsys.readouterr().err


def test_cli_missing_config_file_exits_two(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_instability_exits_three(monkeypatch, capsys):
    def explode(config):
        raise InstabilityError(7)

    monkeypatch.setattr(cli, "run_simulation", explode)
    code = cli.main(["run", "--jmax", "5", "--steps", "1"])
    assert code == 3
    assert "step 7" in capsys.readouterr().err


def test_cli_compare_exits_zero(tmp_path, capsys):
    code = cli.main(["compare", "--jmax", "5", "--steps", "2",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "error_series.csv").exists()
    assert (tmp_path / "manifest.csv").exists()
    assert (tmp_path / "field_k2.csv").exists()
    assert "max relative error" in capsys.readouterr().out


def test_cli_report_exits_zero(tmp_path, capsys):
    path = tmp_path / "manifest.csv"
    rows = [MANIFEST_HEADER]
    for r in synthetic_records(60):
        rows.append(f"{r.k},{r.t},{r.cardinality},{r.card1},{r.card2},"
                    f"{r.cp},{r.wall_ms}")
    path.write_text("\n".join(rows) + "\n")
    code = cli.main(["report", "--manifest", str(path)])
    assert code == 0
    assert "pearson: 1.0000" in capsys.readouterr().out


def test_cli_report_short_manifest_exits_two(tmp_path, capsys):
    result = run_simulation(tiny_config(steps=2), out_dir=tmp_path)
    code = cli.main(["report", "--manifest", str(result.manifest_path)])
    assert code == 2
    assert "50" in capsys.readouterr().err


# A value in the file and a different one as a flag, for every key, with
# the value the flag should give.  A key added without an entry here
# fails the test below.
OVERRIDES = {
    "domain_length_um": ("3.0", "4.5", 4.5),
    "jmin": ("2", "4", 4),
    "jmax": ("6", "7", 7),
    "order": ("2", "3", 3),
    "zeta": ("1e-3", "2e-4", 2e-4),
    "dt_factor": ("0.5", "0.75", 0.75),
    "steps": ("7", "3", 3),
    "boundary": ("PEC", "Pml", "PML"),
    "pml_width_frac": ("0.2", "0.3", 0.3),
    "sigma_um": ("0.25", "0.5", 0.5),
    "snapshot_every": ("3", "5", 5),
    "out_dir": ("from_file", "from_flag", "from_flag"),
}


def _flag(key):
    return "--out" if key == "out_dir" else "--" + key.replace("_", "-")


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_cli_flag_overrides_every_file_key(tmp_path, key):
    file_text, flag_text, want = OVERRIDES[key]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {file_text}\n")
    parser = cli.build_parser()
    from_file = cli._load_config(parser.parse_args(
        ["run", "--config", str(cfg)]))
    assert getattr(from_file, key) != want
    both = cli._load_config(parser.parse_args(
        ["run", "--config", str(cfg), _flag(key), flag_text]))
    assert getattr(both, key) == want
    assert type(getattr(both, key)) is type(want)


def test_cli_flag_repairs_file_before_validation(tmp_path, capsys):
    # jmin = 9 alone fails (jmax must exceed it); the flag's jmax counts.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jmin = 9\n")
    args = cli.build_parser().parse_args(
        ["run", "--config", str(cfg), "--jmax", "10"])
    loaded = cli._load_config(args)
    assert (loaded.jmin, loaded.jmax) == (9, 10)


def test_cli_flags_are_the_config_keys():
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_config_flags(parser)
    assert [action.dest for action in parser._actions] == [
        "config", *CONFIG_KEYS]
    assert {flag for action in parser._actions
            for flag in action.option_strings} == {
        "--config", "--out", "--domain-length-um", "--jmin", "--jmax",
        "--order", "--zeta", "--dt-factor", "--steps", "--boundary",
        "--pml-width-frac", "--sigma-um", "--snapshot-every"}


@pytest.mark.parametrize("key, value", [
    *[(key, "many") for key in ("jmin", "jmax", "order", "steps",
                                "snapshot_every")],
    *[(key, "1.2.3") for key in ("domain_length_um", "zeta", "dt_factor",
                                 "pml_width_frac", "sigma_um")],
    ("boundary", "foo"),
])
def test_cli_bad_value_exits_two_naming_key(tmp_path, capsys, key, value):
    code = cli.main(["run", "--steps", "0", "--out", str(tmp_path / "out"),
                     _flag(key), value])
    assert code == 2
    assert f"configuration error: {key}: " in capsys.readouterr().err

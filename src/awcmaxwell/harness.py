"""Experiment orchestration: runs, snapshots, oracle comparison, timing.

A run writes everything needed to reproduce and plot it into one output
directory: a manifest with the config echo and per-step metrics, field
snapshots as headered CSV, and grid masks as plain P2 graymaps; with the
full-grid oracle on, the same loop also writes the per-step relative
deviation from it to error_series.csv.  The
compression rate cp of a step is the active-point count divided by the
full finest-lattice count (2^jmax + 1)^2.

Field CSVs print values with repr so a re-run reproduces them byte for
byte.  They are written from the lattice the state is stored on, and
every point that holds no value (Ey, Hx and Hz all +0.0), which are all
the points off the active grid, at k=0 as at every later step, comes
from per-column text shared by the whole file; repr runs only for the
values.  Each file still lists every point of the (2^jmax + 1)^2 mesh,
so the text a snapshot builds and writes grows with the mesh.  Wall-clock
times are measured with a monotonic clock around the adapt+update pair
only, never around I/O.
"""

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import CONFIG_KEYS, SimulationConfig
from .errors import ConfigError
from .grid import GridSpec, lattice_level
from .solver import FieldState, Simulation, relattice

MANIFEST_HEADER = "k,t,cardinality,card1,card2,cp,wall_ms"
ERROR_HEADER = "k,t,max_full,rel_err"
TIMING_HEADER = "k,cardinality,wall_ms"
FIELD_HEADER = "row,col,x_um,z_um,Ey,Hx,Hz"

# Oracle comparison stops once the reference field has decayed below
# this fraction of its initial peak; relative error against a vanished
# field would be noise.
ORACLE_FLOOR = 1e-6


@dataclass
class StepRecord:
    """Per-step metrics as stored in the manifest."""

    k: int
    t: float
    cardinality: int
    card1: int
    card2: int
    cp: float
    wall_ms: float


@dataclass
class ErrorRecord:
    """One lockstep comparison point against the full-grid reference."""

    k: int
    t: float
    max_full: float
    rel_err: float


@dataclass
class RunResult:
    """Everything a finished run leaves behind."""

    config: SimulationConfig
    out_dir: Path
    manifest_path: Path
    records: list
    errors: list  # ErrorRecords of an oracle run, else empty
    snapshots: dict
    final_state: FieldState


def _fmt(value) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(value))


def write_field_csv(path, fields, spec: GridSpec,
                    domain_length_um: float) -> Path:
    """Write every finest-lattice point as row,col,x_um,z_um,Ey,Hx,Hz.

    fields are Ey, Hx and Hz on one level-J lattice of spec, shape
    (2^J + 1, 2^J + 1) for some J <= j_max, as a state stores them; the
    file holds them spread over spec's (n, n) mesh with 0.0 between the
    lattice's points, so (n, n) arrays are the J = j_max case.  A state's
    own arrays hold 0.0 at every point outside the active grid (Ey off
    mask0, Hx and Hz off mask1); the adaptive solution between active
    points is the wavelet interpolation that Simulation.dense_ey
    computes, not these zeros.  Each value is written with repr, one
    mesh row at a time.  A point whose three fields are all +0.0 differs
    from every other such point of its column only in its row index and
    x, so a row is one join of per-column texts with the row index as
    separator, x filled in by one replace; a lattice row that holds
    values first puts them into its own copy of the texts at its held
    points.  -0.0 counts as a value: its repr is "-0.0".

    Raises ValueError when the fields differ in shape or their shape is
    not that of such a lattice.
    """
    path = Path(path)
    shapes = [np.shape(field) for field in fields]
    if len(set(shapes)) != 1:
        raise ValueError(f"fields differ in shape: {shapes}")
    shape = shapes[0]
    side = shape[-1] if shape else 0
    level = lattice_level(side)
    if (shape != (side, side) or not 0 <= level <= spec.j_max
            or side != (1 << level) + 1):
        raise ValueError(f"fields of shape {shape} sample no lattice of "
                         f"{spec}: need (2^J + 1, 2^J + 1), J <= {spec.j_max}")
    stride = spec.stride(level)
    delta_um = domain_length_um / (spec.n - 1)
    z_um = [_fmt(n * delta_um) for n in range(spec.n)]
    # x is the one character \x01, filled in per row by one replace.
    pieces = [f"{n},\x01,{z},0.0,0.0,0.0\n" for n, z in enumerate(z_um)]
    held = np.zeros((side, side), dtype=bool)
    for field in fields:
        held |= (field != 0) | np.signbit(field)
    with open(path, "w") as fh:
        fh.write(FIELD_HEADER + "\n")
        for m in range(spec.n):
            parts = pieces
            i, off = divmod(m, stride)
            if not off and held[i].any():
                at = np.flatnonzero(held[i])
                parts = pieces.copy()
                for n, e, a, b in zip((at * stride).tolist(), *(
                        field[i, at].tolist() for field in fields)):
                    parts[n] = f"{n},\x01,{z_um[n]},{e!r},{a!r},{b!r}\n"
            lead, x = f"{m},", _fmt(m * delta_um)
            fh.write(lead + lead.join(parts).replace("\x01", x))
    return path


def _pgm_lines(tokens) -> str:
    """One image row of tokens, 15 to a line to keep lines below the
    70-character limit of the format."""
    return "".join([" ".join(tokens[start:start + 15]) + "\n"
                    for start in range(0, len(tokens), 15)])


def write_mask_pgm(path, mask: np.ndarray) -> Path:
    """Write a boolean mask as a P2 graymap, 255 = active point.

    Every row without an active point is the same text, built once.
    """
    path = Path(path)
    blank = _pgm_lines(["0"] * mask.shape[1])
    with open(path, "w") as fh:
        fh.write(f"P2\n{mask.shape[1]} {mask.shape[0]}\n255\n")
        for row in mask:
            fh.write(_pgm_lines(["255" if v else "0" for v in row.tolist()])
                     if row.any() else blank)
    return path


def read_mask_pgm(path) -> np.ndarray:
    """Read a P2 graymap back into a boolean mask (nonzero = active)."""
    tokens = []
    with open(path) as fh:
        for line in fh:
            body = line.split("#", 1)[0]
            tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError(f"{path}: not a plain P2 graymap")
    width, height = int(tokens[1]), int(tokens[2])
    pixels = np.array([int(t) for t in tokens[4:4 + width * height]])
    if pixels.size != width * height:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(height, width) > 0


def emit_snapshot(state: FieldState, spec: GridSpec,
                  config: SimulationConfig, out_dir,
                  index: dict | None = None) -> tuple:
    """Write the field CSV and mask image of the state on spec's mesh.

    Ey is formed on the state's lattice and written with Hx and Hz from
    there; only mask0, a bool array, is spread over the mesh.  When an
    index dict is given the pair of file names is recorded under the step
    number, ready for the manifest trailer.
    """
    out_dir = Path(out_dir)
    field_path = write_field_csv(out_dir / f"field_k{state.k}.csv",
                                 (state.ey, state.hx, state.hz), spec,
                                 config.domain_length_um)
    mask_path = write_mask_pgm(out_dir / f"mask_k{state.k}.pgm",
                               relattice(state.mask0, spec.j_max))
    if index is not None:
        index[state.k] = (field_path.name, mask_path.name)
    return field_path, mask_path


def _write_manifest(path, config: SimulationConfig, records, snapshots,
                    errors=()) -> Path:
    path = Path(path)
    echo = {key: getattr(config, key) for key in CONFIG_KEYS}
    if echo["dt_factor"] is None:
        from .solver import default_dt_factor
        from .filters import build_filter_bank
        echo["dt_factor"] = default_dt_factor(build_filter_bank(config.order))
    with open(path, "w") as fh:
        fh.write("# run manifest\n")
        for key, value in echo.items():
            fh.write(f"# {key} = {value}\n")
        fh.write(MANIFEST_HEADER + "\n")
        for r in records:
            fh.write(f"{r.k},{_fmt(r.t)},{r.cardinality},{r.card1},"
                     f"{r.card2},{_fmt(r.cp)},{_fmt(r.wall_ms)}\n")
        for k in sorted(snapshots):
            field_name, mask_name = snapshots[k]
            fh.write(f"# snapshot {k}: {field_name} {mask_name}\n")
        if records:
            fh.write(f"# summary: min_cp = {_fmt(min(r.cp for r in records))}\n")
            fh.write(f"# summary: max_cp = {_fmt(max(r.cp for r in records))}\n")
        else:
            fh.write("# summary: min_cp = undefined\n")
            fh.write("# summary: max_cp = undefined\n")
        if errors:
            fh.write("# summary: final_rel_error = "
                     f"{_fmt(errors[-1].rel_err)}\n")
    return path


def read_manifest(path) -> list:
    """Parse the per-step records back out of a manifest file."""
    records = []
    saw_header = False
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not saw_header:
                if line != MANIFEST_HEADER:
                    raise ConfigError(
                        f"{path}: unexpected manifest header {line!r}")
                saw_header = True
                continue
            k, t, card, card1, card2, cp, wall = line.split(",")
            records.append(StepRecord(int(k), float(t), int(card),
                                      int(card1), int(card2), float(cp),
                                      float(wall)))
    if not saw_header:
        raise ConfigError(f"{path}: no manifest header found")
    return records


def run_simulation(config: SimulationConfig, out_dir=None,
                   oracle: bool = False) -> RunResult:
    """Run the configured experiment, writing snapshots and a manifest.

    Snapshots go out at step 0, every snapshot_every steps, and at the
    final step.  With oracle=True a full-grid twin advances in lockstep,
    outside the timed section, and each step adds an ErrorRecord of
    dense_ey against the twin's Ey to error_series.csv; the last rel_err
    goes to the manifest summary.  The twin is dropped once its peak falls
    below ORACLE_FLOOR times its initial peak, or to zero.
    """
    sim = Simulation(config)
    out = Path(out_dir if out_dir is not None else config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    twin = Simulation(replace(config, full_grid=True)) if oracle else None
    floor = ORACLE_FLOOR * float(np.abs(twin.state.ey).max()) if oracle else 0

    records, errors, snapshots = [], [], {}
    full_count = sim.spec.n ** 2
    emit_snapshot(sim.state, sim.spec, config, out, snapshots)
    for _ in range(config.steps):
        start = time.perf_counter()
        sim.step()
        wall_ms = (time.perf_counter() - start) * 1e3
        state = sim.state
        card = int(state.mask0.sum())
        records.append(StepRecord(
            k=state.k, t=state.t, cardinality=card,
            card1=int(state.mask1.sum()), card2=int(state.mask2.sum()),
            cp=card / full_count, wall_ms=wall_ms))
        if twin is not None:
            twin.step()
            ey = twin.state.ey
            peak = float(np.abs(ey).max())
            if peak < floor or peak == 0.0:
                twin = None
            else:
                rel = float(np.abs(sim.dense_ey() - ey).max())
                errors.append(ErrorRecord(k=twin.state.k, t=twin.state.t,
                                          max_full=peak, rel_err=rel / peak))
        if state.k % config.snapshot_every == 0 or state.k == config.steps:
            emit_snapshot(state, sim.spec, config, out, snapshots)

    if oracle:
        with open(out / "error_series.csv", "w") as fh:
            fh.write(ERROR_HEADER + "\n")
            for r in errors:
                fh.write(f"{r.k},{_fmt(r.t)},{_fmt(r.max_full)},"
                         f"{_fmt(r.rel_err)}\n")
    manifest_path = _write_manifest(out / "manifest.csv", config, records,
                                    snapshots, errors)
    return RunResult(config=config, out_dir=out, manifest_path=manifest_path,
                     records=records, errors=errors, snapshots=snapshots,
                     final_state=sim.state)


def proportionality_report(manifest, out_dir=None):
    """Correlate per-step wall time with mask cardinality.

    manifest is a manifest path or a list of StepRecord.  Writes the
    paired series to timing.csv (next to the manifest unless out_dir
    says otherwise) and returns the Pearson coefficient, or None when
    either series has zero variance.
    """
    if isinstance(manifest, (str, Path)):
        manifest_path = Path(manifest)
        records = read_manifest(manifest_path)
        if out_dir is None:
            out_dir = manifest_path.parent
    else:
        records = list(manifest)
    if len(records) < 50:
        raise ConfigError(
            f"need at least 50 step records for a stable correlation, "
            f"got {len(records)}")

    card = np.array([r.cardinality for r in records], dtype=float)
    wall = np.array([r.wall_ms for r in records], dtype=float)
    if card.std() == 0.0 or wall.std() == 0.0:
        pearson = None
    else:
        pearson = float(np.corrcoef(card, wall)[0, 1])

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "timing.csv", "w") as fh:
            fh.write(TIMING_HEADER + "\n")
            for r in records:
                fh.write(f"{r.k},{r.cardinality},{_fmt(r.wall_ms)}\n")
            shown = "undefined" if pearson is None else _fmt(pearson)
            fh.write(f"# pearson = {shown}\n")
    return pearson

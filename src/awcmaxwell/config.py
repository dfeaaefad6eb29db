"""Run configuration: defaults, validation, and key=value parsing.

The positional fields of SimulationConfig are the configuration surface,
and the only place its keys and their types are written down.  Each one
is a config-file key and, by construction, a CLI flag; one parser turns
the text of either into the field's type, so a file and a flag accept the
same values (``boundary`` in any case).  An unparseable or out-of-range
value raises ConfigError naming the key.
"""

import math
from dataclasses import KW_ONLY, dataclass, fields
from typing import get_args

from .errors import ConfigError
from .filters import SUPPORTED_ORDERS


@dataclass
class SimulationConfig:
    """Parameters of one run.  Defaults reproduce the free-space
    Gaussian-pulse experiment at full scale."""

    domain_length_um: float = 6.0
    jmin: int = 3
    jmax: int = 9
    order: int = 4
    zeta: float = 5e-4
    dt_factor: float | None = None  # None: the documented step Delta/(1.6 c)
    steps: int = 100
    boundary: str = "PML"
    pml_width_frac: float = 0.25
    sigma_um: float = 1.0 / (4.0 * math.sqrt(2.0))
    snapshot_every: int = 50
    out_dir: str = "out"

    # Programmatic knobs, keyword-only and not part of the config-file
    # surface: CONFIG_KEYS stops at this marker.
    _: KW_ONLY
    ic: str = "gaussian"  # gaussian | zero
    center_frac: tuple = (0.5, 0.5)
    full_grid: bool = False
    enforce_cfl: bool = True

    def validate(self) -> "SimulationConfig":
        def bad(key, constraint):
            raise ConfigError(f"{key}: {constraint} (got {getattr(self, key)})")

        for key in _FLOAT_KEYS:
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                bad(key, "must be finite")
        if self.domain_length_um <= 0:
            bad("domain_length_um", "must be positive")
        if not 1 <= self.jmin:
            bad("jmin", "must be at least 1")
        if not self.jmin < self.jmax:
            bad("jmax", f"must exceed jmin={self.jmin}")
        if self.jmax > 12:
            bad("jmax", "must be at most 12")
        if self.order not in SUPPORTED_ORDERS:
            bad("order", f"must be one of {SUPPORTED_ORDERS}")
        if self.zeta < 0:
            bad("zeta", "must be nonnegative")
        if self.dt_factor is not None:
            if not self.dt_factor > 0:
                bad("dt_factor", "must be positive")
            if self.enforce_cfl and self.dt_factor > 1:
                bad("dt_factor", "must be at most 1 (fraction of the CFL bound)")
        if self.steps < 0:
            bad("steps", "must be nonnegative")
        if self.boundary not in ("PEC", "PML"):
            bad("boundary", "must be PEC or PML")
        if not 0 < self.pml_width_frac < 0.5:
            bad("pml_width_frac", "must lie in (0, 0.5)")
        if self.sigma_um <= 0:
            bad("sigma_um", "must be positive")
        if self.snapshot_every < 1:
            bad("snapshot_every", "must be at least 1")
        if self.ic not in ("gaussian", "zero"):
            bad("ic", "must be gaussian or zero")
        if len(self.center_frac) != 2:
            bad("center_frac", "must have two entries, x and z")
        if not all(0 < c < 1 for c in self.center_frac):
            bad("center_frac", "must place the pulse inside the domain")
        return self


# Each key's value type, taken from its annotation (float for the
# optional dt_factor).
_TYPES = {f.name: (get_args(f.type) or (f.type,))[0]
          for f in fields(SimulationConfig) if not f.kw_only}

#: Keys accepted in configuration text and as CLI overrides, in field order.
CONFIG_KEYS = tuple(_TYPES)

_FLOAT_KEYS = tuple(key for key, kind in _TYPES.items() if kind is float)


def _parse_value(key: str, text: str):
    """Convert the text of one config key, from a file or a flag, to the
    key's type; ``boundary`` is upper-cased so it ignores case."""
    try:
        value = _TYPES[key](text)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse value {text!r}") from None
    return value.upper() if key == "boundary" else value


def parse_config(text: str, overrides: dict | None = None) -> SimulationConfig:
    """Build a validated config from flat ``key = value`` text.

    Blank lines and ``#`` comments are ignored.  overrides maps keys to
    value text, as CLI flags give it, that replaces the text's values;
    the result is validated once, after them.  Unknown keys and
    invariant violations raise ConfigError naming the key.
    """
    config = SimulationConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        setattr(config, key, _parse_value(key, value))
    for key, value in (overrides or {}).items():
        setattr(config, key, _parse_value(key, value))
    return config.validate()

"""Config parsing, defaults, and validation errors."""

import math
from pathlib import Path

import pytest

from awcmaxwell.config import CONFIG_KEYS, SimulationConfig, parse_config
from awcmaxwell.errors import ConfigError


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg.domain_length_um == 6.0
    assert cfg.jmin == 3
    assert cfg.jmax == 9
    assert cfg.order == 4
    assert cfg.zeta == 5e-4
    assert cfg.dt_factor is None
    assert cfg.steps == 100
    assert cfg.boundary == "PML"
    assert cfg.pml_width_frac == 0.25
    assert cfg.sigma_um == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)))
    assert cfg.snapshot_every == 50
    assert cfg.out_dir == "out"


def test_parse_sets_values_and_types():
    cfg = parse_config(
        """
        domain_length_um = 3.0
        jmin = 2
        jmax = 6
        order = 2
        zeta = 1e-3
        steps = 7
        boundary = PEC
        snapshot_every = 3
        out_dir = results
        """
    )
    assert cfg.domain_length_um == 3.0
    assert (cfg.jmin, cfg.jmax, cfg.order) == (2, 6, 2)
    assert cfg.zeta == 1e-3
    assert cfg.steps == 7
    assert cfg.boundary == "PEC"
    assert cfg.snapshot_every == 3
    assert cfg.out_dir == "results"
    assert isinstance(cfg.jmax, int)


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("\n# full comment\nsteps = 4  # trailing\n\n")
    assert cfg.steps == 4


def test_boundary_case_insensitive():
    assert parse_config("boundary = pml").boundary == "PML"
    assert parse_config("boundary = pec").boundary == "PEC"


def test_unknown_key_error_names_key():
    with pytest.raises(ConfigError, match="wavelet_order"):
        parse_config("wavelet_order = 4")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("steps 4")


def test_unparseable_value_rejected():
    with pytest.raises(ConfigError, match="steps"):
        parse_config("steps = many")


def test_level_order_rejected():
    with pytest.raises(ConfigError, match="jmax"):
        parse_config("jmin = 9\njmax = 3")


def test_negative_zeta_rejected():
    with pytest.raises(ConfigError, match="zeta"):
        parse_config("zeta = -1")


def test_zero_zeta_accepted():
    assert parse_config("zeta = 0").zeta == 0.0


def test_bad_boundary_rejected():
    with pytest.raises(ConfigError, match="boundary"):
        parse_config("boundary = MUR")


def test_pml_width_bounds():
    with pytest.raises(ConfigError, match="pml_width_frac"):
        parse_config("pml_width_frac = 0.5")
    with pytest.raises(ConfigError, match="pml_width_frac"):
        parse_config("pml_width_frac = 0")


def test_dt_factor_above_cfl_rejected():
    with pytest.raises(ConfigError, match="dt_factor"):
        parse_config("dt_factor = 1.5")


def test_dt_factor_above_cfl_allowed_when_unenforced():
    cfg = SimulationConfig(dt_factor=1.5, enforce_cfl=False)
    assert cfg.validate().dt_factor == 1.5


def test_order_restricted():
    with pytest.raises(ConfigError, match="order"):
        parse_config("order = 5")


def test_jmax_cap():
    with pytest.raises(ConfigError, match="jmax"):
        parse_config("jmax = 13")


@pytest.mark.parametrize("centre", [(0.5,), (0.5, 0.5, 0.9), ()])
def test_center_frac_needs_two_entries(centre):
    with pytest.raises(ConfigError, match="center_frac"):
        SimulationConfig(center_frac=centre).validate()


def test_config_keys_cover_file_surface():
    # Every public key round-trips through the parser.
    defaults = SimulationConfig()
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(defaults, key)
        if value is None:
            continue
        lines.append(f"{key} = {value}")
    cfg = parse_config("\n".join(lines))
    for key in CONFIG_KEYS:
        assert getattr(cfg, key) == getattr(defaults, key)


FLOAT_KEYS = ("domain_length_um", "zeta", "dt_factor", "pml_width_frac",
              "sigma_um")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected(key, value):
    # With zeta = nan every threshold comparison is false and the grid
    # would silently never thin.
    with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
        parse_config(f"{key} = {value}")


def test_readme_key_table_lists_config_keys_with_defaults():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.split("|")[1:3]])
    assert [key for key, _ in rows] == list(CONFIG_KEYS)
    defaults = SimulationConfig()
    for key, shown in rows:
        want = getattr(defaults, key)
        if want is None:
            assert shown == "unset"
        else:
            assert getattr(parse_config(f"{key} = {shown}"), key) == want

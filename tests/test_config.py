"""Configuration surface: parsing, defaults, conversions."""

import dataclasses
import math

import pytest

from mmtier.config import _BLOCKAGE_PARAM_KEYS, ConfigError, ExperimentConfig, parse_config


def test_r0_defines_intensity():
    cfg = parse_config("r0_m = 100\nblockage = exponential\n")
    assert cfg.lambda0 == pytest.approx(1.0 / (math.pi * 100.0**2), rel=1e-12)
    assert cfg.lambda0 == pytest.approx(3.1831e-5, rel=1e-4)


def test_db_fields_become_linear_gains():
    cfg = parse_config("g_main_db = 20\ng_side_db = 0\nblockage = exponential\n")
    beam = cfg.beam()
    assert beam.g_main == pytest.approx(100.0, rel=1e-12)
    assert beam.g_side == 1.0


def test_angle_becomes_radians():
    cfg = parse_config("theta_a_deg = 30\nblockage = exponential\n")
    assert cfg.beam().theta_a == pytest.approx(math.pi / 6.0, rel=1e-12)


def test_missing_blockage_warns_and_defaults(caplog):
    with caplog.at_level("WARNING", logger="mmtier"):
        cfg = parse_config("r0_m = 100\n")
    assert cfg.blockage == "exponential"
    assert cfg.blockage_param == 141.4
    assert any("blockage" in rec.message for rec in caplog.records)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("warp_factor = 9\n")
    with pytest.raises(ConfigError, match="unknown key 'batch_size'"):
        parse_config("batch_size = 64\nblockage = exponential\n")
    with pytest.raises(ConfigError, match="unknown key 'mode'"):
        parse_config("mode = coverage\nblockage = exponential\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("this is not a config\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("k = 2\nk = 3\n")


def test_inconsistent_density_forms_rejected():
    with pytest.raises(ConfigError, match="disagree"):
        parse_config("r0_m = 100\nlambda0 = 3.5e-5\nblockage = exponential\n")
    # consistent duplicates are fine
    lam = 1.0 / (math.pi * 100.0**2)
    cfg = parse_config(f"r0_m = 100\nlambda0 = {lam!r}\nblockage = exponential\n")
    assert cfg.lambda0 == lam


def test_lambda_ratio_and_total():
    cfg = parse_config("r0_m = 100\nlambda_ratio = 7\nblockage = exponential\n")
    assert cfg.lambda_total == pytest.approx(7.0 * cfg.lambda0, rel=1e-12)
    with pytest.raises(ConfigError, match="disagree"):
        parse_config("lambda0 = 1.0\nlambda_ratio = 7\nlambda_total = 9.0\n"
                     "blockage = exponential\n")


def test_lambda0_override_scales_default_total():
    cfg = parse_config("lambda0 = 2.0\nblockage = exponential\n")
    assert cfg.lambda_total == pytest.approx(26.0, rel=1e-12)


def test_blockage_parameter_keys():
    cfg = parse_config("blockage = los_ball\nblockage_radius_m = 75\n")
    assert cfg.channel().blockage.kind == "los_ball"
    assert cfg.channel().blockage.param == 75.0
    with pytest.raises(ConfigError, match="needs blockage_p"):
        parse_config("blockage = constant\n")
    with pytest.raises(ConfigError, match="blockage kind"):
        parse_config("blockage = exponential\nblockage_p = 0.5\n")


def test_k_grid_must_respect_rf_chains():
    with pytest.raises(ConfigError):
        parse_config("rf_chains = 4\nk_list = 1, 6\nblockage = exponential\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# a comment\n\nseed = 9  # trailing comment\n"
                       "blockage = exponential\n")
    assert cfg.seed == 9


def test_roundtrip_identity():
    text = (
        "r0_m = 130\nlambda_ratio = 7\nrf_chains = 12\nbandwidth_hz = 2e8\n"
        "k = 6\nalpha_los = 2.1\nalpha_nlos = 3.9\nbeta = 0.8\nnoise_power = 1e-11\n"
        "blockage = exponential\nblockage_mu_m = 120.5\ntheta_a_deg = 15\n"
        "g_main_db = 18\ng_side_db = -3\nrel_tol = 1e-5\nabs_tol = 1e-8\n"
        "truncation_radius_m = 3000\nwindow_radius_m = 3200\nmc_trials = 500\n"
        "seed = 42\nfloor_hops = true\n"
        "tau_db_list = -5, 0, 5\nk_list = 1, 2, 6\nout_dir = results\n"
    )
    lam0 = 1.0 / (math.pi * 130.0**2)
    # dataclass equality compares every field, the defaulted ones too
    assert parse_config(text) == ExperimentConfig(
        lambda0=lam0, lambda_total=7.0 * lam0, rf_chains=12, bandwidth_hz=2e8, k=6,
        alpha_los=2.1, alpha_nlos=3.9, beta=0.8, noise_power=1e-11,
        blockage="exponential", blockage_param=120.5, theta_a_deg=15.0, g_main_db=18.0,
        g_side_db=-3.0, rel_tol=1e-5, abs_tol=1e-8, truncation_radius_m=3000.0,
        window_radius_m=3200.0, mc_trials=500, seed=42, floor_hops=True,
        tau_db_list=(-5.0, 0.0, 5.0), k_list=(1, 2, 6), out_dir="results")


def test_every_default_field_round_trips():
    # Each field written as `key = value` parses back as its annotated type;
    # repr tells 12 from 12.0, which dataclass equality does not.
    default = ExperimentConfig()
    lines = []
    for f in dataclasses.fields(default):
        value = getattr(default, f.name)
        key = _BLOCKAGE_PARAM_KEYS[default.blockage] if f.name == "blockage_param" else f.name
        text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{key} = {text}\n")
    parsed = parse_config("".join(lines))
    assert parsed == default and repr(parsed) == repr(default)


def test_default_truncation_and_window():
    cfg = parse_config("r0_m = 100\nblockage = exponential\n")
    assert cfg.quad().truncation_radius_m == pytest.approx(5000.0, rel=1e-9)
    assert cfg.sim().window_radius_m == cfg.quad().truncation_radius_m
    assert cfg.topology_window_m == pytest.approx(1000.0, rel=1e-9)


def test_builder_invariants_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_config("lambda0 = -1\nblockage = exponential\n")
    with pytest.raises(ConfigError, match="unknown key 'mode'"):
        parse_config("mode = dance\nblockage = exponential\n")


@pytest.mark.parametrize("trials", [-1, 1, 99])
def test_mc_trials_below_one_hundred_rejected(trials):
    # empirical_coverage needs at least 100 trials; 0 turns Monte Carlo off
    with pytest.raises(ConfigError, match="mc_trials must be 0 or at least 100"):
        parse_config(f"blockage = exponential\nmc_trials = {trials}\n")
    assert parse_config("blockage = exponential\nmc_trials = 100\n").mc_trials == 100


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # the topology and validation-tuple draws key Philox with the seed as one uint64
    with pytest.raises(ConfigError, match="seed must lie in"):
        parse_config(f"blockage = exponential\nseed = {seed}\n")
    assert parse_config(f"blockage = exponential\nseed = {2**64 - 1}\n").seed == 2**64 - 1


@pytest.mark.parametrize("key", ["window_radius_m", "truncation_radius_m",
                                 "topology_window_radius_m"])
def test_negative_radius_rejected(key):
    # 0 means the default radius; a negative one is an error, not the default
    with pytest.raises(ConfigError, match=f"{key} must be 0"):
        parse_config(f"blockage = exponential\n{key} = -3\n")
    assert getattr(parse_config(f"blockage = exponential\n{key} = 0\n"), key) == 0.0


@pytest.mark.parametrize("key, value", [
    *(("tau_db_list", f"0, {v}") for v in ("nan", "-inf", "inf")),
    ("lambda_total", "nan"), ("lambda_total", "inf"), ("truncation_radius_m", "inf"),
    ("window_radius_m", "inf"), ("topology_window_radius_m", "inf"), ("noise_power", "nan"),
    ("alpha_nlos", "nan"), ("beta", "inf"), ("bandwidth_hz", "inf"), ("rel_tol", "inf")])
def test_non_finite_value_rejected(key, value):
    # a non-finite float would reach the CLI as a nan result, a traceback or a
    # quadrature that never converges
    message = "tau_db_list entries" if key == "tau_db_list" else key
    with pytest.raises(ConfigError, match=f"{message} must be finite"):
        parse_config(f"blockage = exponential\n{key} = {value}\n")

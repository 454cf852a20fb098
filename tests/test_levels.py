import math

import numpy as np
import pytest

from holeburn.errors import NoDecayChannelError
from holeburn.levels import (
    BOHR_MHZ_PER_MT,
    RateParams,
    TransitionSet,
    ZeemanConfig,
    effective_lifetime,
    transition_set,
    zeeman_splitting,
)


def test_splitting_zero_field():
    cfg = ZeemanConfig(field_mT=0.0)
    assert zeeman_splitting(8.0, cfg) == 0.0


def test_splitting_reference_field():
    # 13.996 MHz/mT * 12 * 1.2 mT
    cfg = ZeemanConfig(field_mT=1.2)
    assert zeeman_splitting(12.0, cfg) == pytest.approx(201.5424, abs=1e-12)
    assert cfg.delta_g_MHz == pytest.approx(201.5424, abs=1e-12)
    assert cfg.delta_e_MHz == pytest.approx(134.3616, abs=1e-12)


def test_splitting_linear_in_g_and_field():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = rng.uniform(0.5, 20.0)
        b = rng.uniform(0.0, 50.0)
        cfg = ZeemanConfig(field_mT=b)
        cfg2 = ZeemanConfig(field_mT=2.0 * b)
        assert zeeman_splitting(2.0 * g, cfg) == pytest.approx(
            2.0 * zeeman_splitting(g, cfg), rel=1e-14
        )
        assert zeeman_splitting(g, cfg2) == pytest.approx(
            2.0 * zeeman_splitting(g, cfg), rel=1e-14
        )


def test_field_for_60_MHz_gap():
    # delta_g - delta_e = bohr * (12 - 8) * B; invert for a 60 MHz gap.
    b = 60.0 / (BOHR_MHZ_PER_MT * 4.0)
    cfg = ZeemanConfig(field_mT=b)
    assert cfg.delta_g_MHz - cfg.delta_e_MHz == pytest.approx(60.0, abs=1e-9)
    assert b == pytest.approx(1.0717, abs=5e-4)


def test_transition_set_field_free():
    cfg = ZeemanConfig(field_mT=0.0)
    ts = transition_set(17.0, cfg)
    assert ts.as_tuple() == (17.0, 17.0, 17.0, 17.0)


def test_transition_set_reference():
    b = 60.0 / (BOHR_MHZ_PER_MT * 4.0)  # delta_g = 180, delta_e = 120
    cfg = ZeemanConfig(field_mT=b)
    ts = transition_set(0.0, cfg)
    assert ts.f1_MHz == pytest.approx(0.0, abs=1e-9)
    assert ts.f2_MHz == pytest.approx(120.0, abs=1e-9)
    assert ts.f3_MHz == pytest.approx(-180.0, abs=1e-9)
    assert ts.f4_MHz == pytest.approx(-60.0, abs=1e-9)


def test_transition_set_spacings_random():
    rng = np.random.default_rng(21)
    for _ in range(100):
        cfg = ZeemanConfig(
            field_mT=rng.uniform(0.0, 30.0),
            g_ground=rng.uniform(1.0, 15.0),
            g_excited=rng.uniform(1.0, 15.0),
        )
        center = rng.uniform(-300.0, 300.0)
        ts = transition_set(center, cfg)
        dg, de = cfg.delta_g_MHz, cfg.delta_e_MHz
        assert ts.f2_MHz - ts.f1_MHz == pytest.approx(de, abs=1e-9)
        assert ts.f1_MHz - ts.f3_MHz == pytest.approx(dg, abs=1e-9)
        assert ts.f4_MHz - ts.f1_MHz == pytest.approx(-(dg - de), abs=1e-9)


def test_transition_level_indices():
    assert TransitionSet.LOWER == (0, 0, 1, 1)
    assert TransitionSet.UPPER == (2, 3, 2, 3)


def test_effective_lifetime_values():
    assert effective_lifetime(RateParams(11.0, 100.0, 0.9)) == pytest.approx(110.0, abs=1e-12)
    assert effective_lifetime(RateParams(11.0, 100.0, 0.95)) == pytest.approx(220.0, abs=1e-12)
    assert effective_lifetime(RateParams(11.0, 100.0, 0.0)) == pytest.approx(11.0, abs=1e-12)


def test_effective_lifetime_diverges():
    with pytest.raises(NoDecayChannelError):
        effective_lifetime(RateParams(11.0, 100.0, 1.0))


def test_effective_lifetime_monotone_in_beta():
    betas = np.linspace(0.0, 0.99, 34)
    teffs = [effective_lifetime(RateParams(11.0, 100.0, b)) for b in betas]
    assert all(b > a for a, b in zip(teffs, teffs[1:]))


def test_rate_params_validation():
    with pytest.raises(ValueError):
        RateParams(t1_ms=0.0, tz_ms=100.0, beta=0.9)
    with pytest.raises(ValueError):
        RateParams(t1_ms=11.0, tz_ms=-1.0, beta=0.9)
    with pytest.raises(ValueError):
        RateParams(t1_ms=11.0, tz_ms=100.0, beta=1.2)
    with pytest.raises(ValueError):
        RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9, beta_z2=-0.1)
    with pytest.raises(ValueError):
        RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9, persistent_fraction=1.0)


def test_beta_z2_defaults_to_beta():
    p = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
    assert p.beta_z2 == 0.9
    q = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9, beta_z2=0.4)
    assert q.beta_z2 == 0.4


def test_zeeman_config_validation():
    with pytest.raises(ValueError):
        ZeemanConfig(field_mT=-0.1)
    with pytest.raises(ValueError):
        ZeemanConfig(field_mT=1.0, g_ground=0.0)
    with pytest.raises(ValueError):
        ZeemanConfig(field_mT=1.0, g_excited=-3.0)

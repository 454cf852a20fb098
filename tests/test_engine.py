"""Per-class dynamics: generator structure, exact propagation, steady states,
and the closed-form population ratios."""

import math

import numpy as np
import pytest
import scipy.linalg

from holeburn.engine import (
    DEFAULT_STIM_SLOPE_PER_MW_MS,
    NO_DRIVE,
    DriveRates,
    IonClassState,
    build_rate_matrix,
    evolve,
    matrix_power_batch,
    propagator,
    propagator_batch,
    pump_rate_profile,
    ratio_effective,
    ratio_standard,
    ratio_stimulated,
    rf_mix_rate,
    steady_state,
    stimulation_rate,
)
from holeburn.errors import DegenerateSteadyStateError
from holeburn.levels import RateParams


def _random_params(rng):
    return RateParams(
        t1_ms=rng.uniform(2.0, 30.0),
        tz_ms=rng.uniform(5.0, 500.0),
        beta=rng.uniform(0.0, 0.99),
    )


def _random_drive(rng):
    return DriveRates(
        pump_rate=tuple(rng.uniform(0.0, 5.0, size=4)),
        stim_rate_e1=rng.uniform(0.0, 20.0),
        stim_rate_e2=rng.uniform(0.0, 20.0),
        rf_mix_rate=rng.uniform(0.0, 50.0),
    )


# ---------------------------------------------------------------- generator


def test_matrix_perfect_spin_conservation():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=1.0)
    m = build_rate_matrix(params)
    # e1 decays entirely into g1
    assert m[0, 2] == pytest.approx(1.0 / 11.0, abs=1e-15)
    assert m[1, 2] == 0.0
    assert m[2, 2] == pytest.approx(-1.0 / 11.0, abs=1e-15)


def test_matrix_ground_block_symmetric():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
    m = build_rate_matrix(params)
    w = 1.0 / (2.0 * 100.0)
    assert m[0, 1] == pytest.approx(w, abs=1e-15)
    assert m[1, 0] == pytest.approx(w, abs=1e-15)


def test_matrix_spin_flip_decay_rate():
    # (1 - beta)/T1 is the inverse effective lifetime
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
    m = build_rate_matrix(params)
    assert m[1, 2] == pytest.approx(1.0 / 110.0, abs=1e-15)
    assert m[0, 3] == pytest.approx(1.0 / 110.0, abs=1e-15)


def test_matrix_columns_conservative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = build_rate_matrix(_random_params(rng), _random_drive(rng))
        off_diag = m - np.diag(np.diag(m))
        assert np.all(off_diag >= 0.0)
        assert np.all(m.sum(axis=0) <= 1e-12)


def test_matrix_persistent_leak_only_from_excited():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9, persistent_fraction=0.5)
    m = build_rate_matrix(params)
    colsums = m.sum(axis=0)
    assert colsums[0] == pytest.approx(0.0, abs=1e-15)
    assert colsums[1] == pytest.approx(0.0, abs=1e-15)
    assert colsums[2] < 0.0
    assert colsums[3] < 0.0


def test_no_drive_eigenvalues():
    params = RateParams(t1_ms=11.0, tz_ms=130.0, beta=0.7)
    ev = np.sort(np.linalg.eigvals(build_rate_matrix(params)).real)
    expect = np.sort([0.0, -1.0 / 130.0, -1.0 / 11.0, -1.0 / 11.0])
    assert np.allclose(ev, expect, atol=1e-9)


# -------------------------------------------------------------- propagation


def test_evolve_identity():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
    s = IonClassState(g1=0.2, g2=0.3, e1=0.4, e2=0.1)
    out = evolve(s, build_rate_matrix(params), 0.0)
    assert out == s


def test_evolve_pure_decay():
    params = RateParams(t1_ms=11.0, tz_ms=1e9, beta=0.4)
    s = IonClassState(g1=0.0, g2=0.0, e1=1.0, e2=0.0)
    out = evolve(s, build_rate_matrix(params), 11.0)
    assert out.e1 + out.e2 == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_evolve_semigroup():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = build_rate_matrix(_random_params(rng), _random_drive(rng))
        v = rng.uniform(0.0, 1.0, size=4)
        v /= v.sum()
        s = IonClassState(g1=v[0], g2=v[1], e1=v[2], e2=v[3])
        a, b = rng.uniform(0.1, 40.0, size=2)
        one = evolve(s, m, a + b)
        two = evolve(evolve(s, m, a), m, b)
        for attr in ("g1", "g2", "e1", "e2"):
            assert getattr(one, attr) == pytest.approx(getattr(two, attr), abs=1e-10)


def test_evolve_conserves_population():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = build_rate_matrix(_random_params(rng), _random_drive(rng))
        s = IonClassState.thermal()
        for _ in range(4):
            s = evolve(s, m, rng.uniform(0.0, 50.0))
        total = s.g1 + s.g2 + s.e1 + s.e2 + s.persistent_bleached
        assert total == pytest.approx(1.0, abs=1e-9)
        assert min(s.g1, s.g2, s.e1, s.e2, s.persistent_bleached) >= 0.0


def test_evolve_credits_persistent_bleached():
    params = RateParams(
        t1_ms=11.0, tz_ms=100.0, beta=0.9, persistent_fraction=0.5,
        persistent_leak_scale=1.0,
    )
    drive = DriveRates(pump_rate=(50.0, 0.0, 0.0, 0.0))
    s = evolve(IonClassState.thermal(), build_rate_matrix(params, drive), 200.0)
    assert s.persistent_bleached > 0.01
    total = s.g1 + s.g2 + s.e1 + s.e2 + s.persistent_bleached
    assert total == pytest.approx(1.0, abs=1e-9)


def test_propagator_matches_scipy():
    rng = np.random.default_rng(17)
    mats = [build_rate_matrix(_random_params(rng), _random_drive(rng)) for _ in range(20)]
    dts = [1e-4, 1.0, 100.0, *rng.uniform(0.0, 30.0, size=20)]
    for m in mats + [np.zeros((4, 4))]:
        for dt in dts:
            assert np.allclose(propagator(m, dt), scipy.linalg.expm(m * dt), atol=1e-11)


def test_propagator_handles_a_jordan_block():
    # Jordan-block generator: it has no eigenbasis to diagonalise in.
    m = np.array(
        [
            [-1.0, 0.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    assert np.allclose(propagator(m, 2.5), scipy.linalg.expm(m * 2.5), atol=1e-11)


def test_propagator_bytes_do_not_depend_on_the_batch():
    rng = np.random.default_rng(5)
    mats = np.stack(
        [build_rate_matrix(_random_params(rng), _random_drive(rng)) for _ in range(300)]
    )
    # the stack mixes real and complex spectra, which an eigensolver treats differently
    w = np.linalg.eigvals(mats)
    assert 0 < np.count_nonzero(np.abs(w.imag).max(axis=1)) < len(mats)
    norms = np.abs(mats).sum(axis=1).max(axis=1)
    # 1e-4 ms needs no squaring for any matrix; 30 ms squares every one
    assert norms.max() * 1e-4 < 5.37 < norms.min() * 30.0
    for dt in (1e-4, 0.05, 1.0, 30.0):
        full = propagator_batch(mats, dt)
        reverse = propagator_batch(mats[::-1], dt)[::-1]
        for i, m in enumerate(mats):
            alone = propagator_batch(m[None], dt)[0]
            assert alone.tobytes() == full[i].tobytes() == reverse[i].tobytes()


def test_propagator_batch_matches_single():
    rng = np.random.default_rng(19)
    mats = np.stack(
        [build_rate_matrix(_random_params(rng), _random_drive(rng)) for _ in range(40)]
    )
    batch = propagator_batch(mats, 7.0)
    for i in range(40):
        assert np.allclose(batch[i], scipy.linalg.expm(mats[i] * 7.0), atol=1e-11)


def test_matrix_power_batch():
    rng = np.random.default_rng(23)
    mats = np.stack(
        [build_rate_matrix(_random_params(rng), _random_drive(rng)) for _ in range(8)]
    )
    props = propagator_batch(mats, 0.05)
    for n in (1, 2, 7, 100, 1000):
        powered = matrix_power_batch(props, n)
        for i in range(8):
            assert np.allclose(
                powered[i], np.linalg.matrix_power(props[i], n), atol=1e-10
            )


# ------------------------------------------------------------- steady state


def test_steady_state_no_drive():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
    ss = steady_state(build_rate_matrix(params))
    assert ss.g1 == pytest.approx(0.5, abs=1e-10)
    assert ss.g2 == pytest.approx(0.5, abs=1e-10)
    assert ss.e1 == pytest.approx(0.0, abs=1e-10)
    assert ss.e2 == pytest.approx(0.0, abs=1e-10)


def test_steady_state_solves_kernel():
    rng = np.random.default_rng(29)
    for _ in range(30):
        m = build_rate_matrix(_random_params(rng), _random_drive(rng))
        ss = steady_state(m)
        assert np.allclose(m @ ss.as_vector(), 0.0, atol=1e-10)


def test_steady_state_matches_effective_ratio():
    rng = np.random.default_rng(31)
    for _ in range(100):
        params = _random_params(rng)
        drive = DriveRates(pump_rate=(1e4 / params.t1_ms, 0.0, 0.0, 0.0))
        ss = steady_state(build_rate_matrix(params, drive))
        expect = ratio_effective(params.t1_ms, params.tz_ms, params.beta)
        assert ss.g2 / ss.g1 == pytest.approx(expect, rel=5e-3)


def test_steady_state_saturates_driven_pair():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
    drive = DriveRates(pump_rate=(1e6, 0.0, 0.0, 0.0))
    ss = steady_state(build_rate_matrix(params, drive))
    assert abs(ss.g1 - ss.e1) < 1e-6


def test_rf_mixing_feeds_spin_flip_channel():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
    pump = DriveRates(pump_rate=(1e5, 0.0, 0.0, 0.0))
    mixed = DriveRates(pump_rate=(1e5, 0.0, 0.0, 0.0), rf_mix_rate=100.0)
    plain = steady_state(build_rate_matrix(params, pump))
    with_rf = steady_state(build_rate_matrix(params, mixed))
    assert with_rf.g2 / with_rf.g1 > plain.g2 / plain.g1


def test_rf_mixing_equalizes_excited():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
    drive = DriveRates(pump_rate=(100.0, 0.0, 0.0, 0.0), rf_mix_rate=1e4)
    ss = steady_state(build_rate_matrix(params, drive))
    assert abs(ss.e1 - ss.e2) < 0.01 * (ss.e1 + ss.e2)


def test_steady_state_rejects_degenerate():
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(np.zeros((4, 4)))


def test_steady_state_rejects_leaky():
    params = RateParams(
        t1_ms=11.0, tz_ms=100.0, beta=0.9, persistent_fraction=0.5,
        persistent_leak_scale=1.0,
    )
    with pytest.raises(ValueError):
        steady_state(build_rate_matrix(params, DriveRates(pump_rate=(1.0, 0, 0, 0))))


# ------------------------------------------------------------ closed forms


def test_ratio_standard_values():
    assert ratio_standard(11.0, 130.0) == pytest.approx(1.0 + 260.0 / 11.0, abs=1e-12)
    assert ratio_standard(11.0, 1e-9) == pytest.approx(1.0, abs=1e-6)
    assert ratio_standard(17.0, 17.0) == pytest.approx(3.0, abs=1e-12)


def test_ratio_effective_values():
    assert ratio_effective(11.0, 130.0, 0.9) == pytest.approx(
        1.0 + 2.0 * 130.0 * 0.1 / 11.0, abs=1e-12
    )
    assert ratio_effective(11.0, 130.0, 0.0) == ratio_standard(11.0, 130.0)
    assert ratio_effective(11.0, 130.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_ratio_stimulated_reference():
    assert ratio_stimulated(0.95, 7.0, 100.0) == pytest.approx(71.0, abs=1e-12)
    assert ratio_stimulated(0.95, 0.0, 100.0) == pytest.approx(1.0, abs=1e-12)
    r1 = ratio_stimulated(0.9, 3.0, 100.0)
    r2 = ratio_stimulated(0.9, 6.0, 100.0)
    assert r2 - 1.0 == pytest.approx(2.0 * (r1 - 1.0), abs=1e-12)


def test_pump_rate_profile():
    assert pump_rate_profile(4.0, 1.0, 0.0) == pytest.approx(4.0, abs=1e-15)
    assert pump_rate_profile(4.0, 1.0, 0.5) == pytest.approx(2.0, abs=1e-15)
    assert pump_rate_profile(4.0, 1.0, 10.0) == pytest.approx(4.0 / 401.0, rel=1e-12)
    detunings = np.array([0.0, 0.5, 10.0])
    out = pump_rate_profile(4.0, 1.0, detunings)
    assert np.allclose(out, [4.0, 2.0, 4.0 / 401.0])


def test_stimulation_rate_anchor():
    assert stimulation_rate(0.0) == 0.0
    assert stimulation_rate(20.0) == pytest.approx(7.0, abs=1e-12)
    assert stimulation_rate(10.0, DEFAULT_STIM_SLOPE_PER_MW_MS) == pytest.approx(3.5)
    assert stimulation_rate(8.0) == pytest.approx(2.0 * stimulation_rate(4.0))


def test_rf_mix_rate_quadratic():
    assert rf_mix_rate(0.0, 0.4) == 0.0
    assert rf_mix_rate(10.0, 0.4) == pytest.approx(40.0, abs=1e-12)
    assert rf_mix_rate(6.0, 0.4) == pytest.approx(4.0 * rf_mix_rate(3.0, 0.4))


def test_state_validation():
    with pytest.raises(ValueError):
        IonClassState(g1=0.5, g2=0.6, e1=0.0, e2=0.0)
    with pytest.raises(ValueError):
        IonClassState(g1=-0.1, g2=1.1, e1=0.0, e2=0.0)
    with pytest.raises(ValueError):
        DriveRates(pump_rate=(-1.0, 0.0, 0.0, 0.0))
    assert NO_DRIVE.pump_rate == (0.0, 0.0, 0.0, 0.0)

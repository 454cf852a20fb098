"""Per-class dynamics: generator structure, exact propagation, steady states,
and the closed-form population ratios."""

import dataclasses
import math
import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from holeburn import engine
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


def _leaky_params(rng):
    return dataclasses.replace(_random_params(rng), persistent_fraction=rng.uniform(0.01, 0.3))


def _random_drive(rng):
    return DriveRates(
        pump_rate=tuple(rng.uniform(0.0, 5.0, size=4)),
        stim_rate=rng.uniform(0.0, 20.0),
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


def _reference_rate_matrix(params, drive):
    """The generator written out process by process, each with its own gains and losses."""
    w = 0.5 / params.tz_ms
    a_same = params.beta / params.t1_ms
    a_flip = (1.0 - params.beta) / params.t1_ms
    leak = params.persistent_fraction * params.persistent_leak_scale

    # the trap is a fifth state when the params leak
    m = np.zeros((5, 5) if leak else (4, 4))

    # Ground spin flips.
    m[0, 1] += w
    m[1, 0] += w
    m[0, 0] -= w
    m[1, 1] -= w

    # Spontaneous decay; e1 pairs with g1, e2 with g2.
    m[0, 2] += a_same
    m[1, 2] += a_flip
    m[1, 3] += a_same
    m[0, 3] += a_flip
    m[2, 2] -= a_same + a_flip
    m[3, 3] -= a_same + a_flip

    # Stimulated emission from e1, then e2, through the eliminated
    # intermediate level; e1 pairs with g1, e2 with g2.
    if drive.stim_rate:
        rate, bz = drive.stim_rate, params.beta_z2
        for up, g_same, g_other in ((2, 0, 1), (3, 1, 0)):
            m[g_same, up] += rate * bz
            m[g_other, up] += rate * (1.0 - bz)
            m[up, up] -= rate

    # Excited-state mixing.
    if drive.rf_mix_rate > 0.0:
        r = drive.rf_mix_rate
        m[2, 3] += r
        m[3, 2] += r
        m[2, 2] -= r
        m[3, 3] -= r

    # Persistent-trap leak from each excited level into the trap.
    if leak:
        m[4, 2] += leak
        m[4, 3] += leak
        m[2, 2] -= leak
        m[3, 3] -= leak

    # Optical pumping, last, as the ensemble path adds it.
    if any(drive.pump_rate):
        engine.add_pump_rates(m, np.asarray(drive.pump_rate, dtype=float))

    return m


def test_matrix_matches_the_process_by_process_reference():
    # without stimulated return the flows round as the reference does; with it the
    # stimulated loss is subtracted in its two branches, so it may round differently
    rng = np.random.default_rng(31)
    for k in range(400):
        params = RateParams(
            t1_ms=rng.uniform(2.0, 30.0), tz_ms=rng.uniform(5.0, 500.0),
            beta=rng.uniform(0.0, 1.0), beta_z2=rng.uniform(0.0, 1.0),
            persistent_fraction=rng.choice([0.0, rng.uniform(0.0, 1.0)]),
        )
        drive = DriveRates(
            pump_rate=tuple((rng.uniform(0.0, 5.0, 4) * (rng.random(4) < 0.5)).tolist()),
            stim_rate=rng.uniform(0.0, 20.0) if k % 2 else 0.0,
            rf_mix_rate=rng.choice([0.0, rng.uniform(0.0, 50.0)]),
        )
        m, ref = build_rate_matrix(params, drive), _reference_rate_matrix(params, drive)
        if drive.stim_rate == 0.0:
            assert m.tobytes() == ref.tobytes()
        else:
            assert np.all(np.abs(m - ref) <= 1e-15 * np.abs(ref))


def test_matrix_with_pump_matches_the_ensemble_form():
    # the ensemble path builds the pump-free generator and adds the pump to a stack
    rng = np.random.default_rng(37)
    for _ in range(300):
        params, drive = _random_params(rng), _random_drive(rng)
        stacked = build_rate_matrix(params, DriveRates(stim_rate=drive.stim_rate,
                                                       rf_mix_rate=drive.rf_mix_rate))[None]
        engine.add_pump_rates(stacked, np.asarray(drive.pump_rate)[None])
        assert build_rate_matrix(params, drive).tobytes() == stacked[0].tobytes()


def test_matrix_persistent_leak_only_from_excited():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9, persistent_fraction=0.5)
    m = build_rate_matrix(params)
    assert m.shape == (5, 5)
    # the trap gains from e1 and e2 only, and nothing leaves it
    assert np.nonzero(m[4])[0].tolist() == [2, 3]
    assert np.all(m[4, 2:4] > 0.0)
    assert np.all(m[:, 4] == 0.0)
    assert np.abs(m.sum(axis=0)).max() <= 1e-15


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
            assert np.allclose(propagator(m, dt), scipy.linalg.expm(m * dt), atol=1e-12)


def _conservative_stack_below_the_taylor_bound(rng, n):
    """Random leak-free generators, each with a dt that puts its 1-norm between 0.0125 and 1/4."""
    mats = np.stack([build_rate_matrix(_random_params(rng), _random_drive(rng)) for _ in range(n)])
    norms = np.abs(mats).sum(axis=1).max(axis=1)
    dts = rng.uniform(0.05, 0.999, n) * engine._THETA12 / norms
    assert np.all(norms * dts < engine._THETA12)
    return mats, dts


def test_propagator_below_the_taylor_bound_matches_scipy():
    mats, dts = _conservative_stack_below_the_taylor_bound(np.random.default_rng(41), 200)
    for m, dt in zip(mats, dts):
        assert np.abs(propagator(m, dt) - scipy.linalg.expm(m * dt)).max() <= 1e-15


def test_propagator_below_the_taylor_bound_keeps_unit_column_sums():
    mats, dts = _conservative_stack_below_the_taylor_bound(np.random.default_rng(43), 200)
    for m, dt in zip(mats, dts):
        assert np.abs(propagator(m, dt).sum(axis=0) - 1.0).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("dt", [1e6, 1e10, 1e15, 1e20])
def test_propagator_keeps_unit_column_sums_over_long_intervals(dt):
    # each squaring doubles a column sum's round-off; renormalising after it undoes that
    m = build_rate_matrix(RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9))
    props = propagator_batch(m[None], dt)
    assert np.abs(props.sum(axis=1) - 1.0).max() <= 4 * np.finfo(float).eps


def _horner12(a):
    """The degree-12 Taylor polynomial of exp(a), sum of a^k / k! for k <= 12, by Horner."""
    eye = np.eye(len(a))
    p = eye
    for k in range(12, 0, -1):
        p = eye + a @ p / k
    return p


def test_propagator_matches_the_taylor_polynomial_below_the_bound():
    # unsquared, the exponential is the degree-12 polynomial itself, to round-off
    rng = np.random.default_rng(61)
    for mats in _stacks(rng, 300):
        norms = np.abs(mats).sum(axis=1).max(axis=1)
        targets = np.exp(rng.uniform(np.log(1e-4), np.log(0.2499), len(mats)))
        a = mats * (targets / norms)[:, None, None]
        assert np.abs(a).sum(axis=1).max(axis=1).max() < engine._THETA12
        for p, m in zip(propagator_batch(a, 1.0), a):
            ref = _horner12(m)
            assert np.abs(p - ref).max() <= 1e-15 * np.abs(ref).max()


def test_propagator_of_a_leaky_generator_at_fig4_norms_matches_scipy():
    # fig4's 100 ms pump steps put a generator's 1-norm between about 200 and 600
    rng = np.random.default_rng(67)
    mats = np.stack([build_rate_matrix(_leaky_params(rng), _random_drive(rng)) for _ in range(50)])
    norms = np.abs(mats).sum(axis=1).max(axis=1)
    a = mats * (rng.uniform(200.0, 600.0, len(mats)) / norms)[:, None, None]
    for p, m in zip(propagator_batch(a, 1.0), a):
        assert np.abs(p - scipy.linalg.expm(m)).max() <= 1e-13


def test_propagator_of_a_leaky_generator_matches_scipy():
    # a leaky generator is 5x5 and conservative, its leak the trap row, so it takes the
    # renormalised Taylor squaring as a leak-free one does
    rng = np.random.default_rng(47)
    mats = np.stack([build_rate_matrix(_leaky_params(rng), _random_drive(rng)) for _ in range(20)])
    for dt in (1e-4, 1e-2, 1.0, 100.0):
        for m, p in zip(mats, propagator_batch(mats, dt)):
            assert np.abs(p - scipy.linalg.expm(m * dt)).max() <= 1e-12


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


def _stacks(rng, n):
    """n random generators leak-free (4x4), then n leaky (5x5): one batch cannot mix sizes."""
    for params in (_random_params, _leaky_params):
        yield np.stack([build_rate_matrix(params(rng), _random_drive(rng)) for _ in range(n)])


def test_propagator_bytes_do_not_depend_on_the_batch():
    rng = np.random.default_rng(5)
    for mats in _stacks(rng, 300):
        # the stack mixes real and complex spectra, which an eigensolver treats differently
        w = np.linalg.eigvals(mats)
        assert 0 < np.count_nonzero(np.abs(w.imag).max(axis=1)) < len(mats)
        norms = np.abs(mats).sum(axis=1).max(axis=1)
        # 1e-4 ms needs no squaring for any matrix; 30 ms squares every one
        assert norms.max() * 1e-4 < engine._THETA12 < norms.min() * 30.0
        # at 3e-3 ms the stack straddles the Taylor bound: squared and unsquared share it
        assert 0 < np.count_nonzero(norms * 3e-3 < engine._THETA12) < len(mats)
        for dt in (1e-4, 3e-3, 0.05, 1.0, 30.0):
            full = propagator_batch(mats, dt)
            reverse = propagator_batch(mats[::-1], dt)[::-1]
            for i, m in enumerate(mats):
                alone = propagator_batch(m[None], dt)[0]
                assert alone.tobytes() == full[i].tobytes() == reverse[i].tobytes()


def test_propagator_bytes_do_not_depend_on_the_blocks():
    rng = np.random.default_rng(29)
    for mats in _stacks(rng, 1100):
        k = mats.shape[-1]
        # two full blocks and a partial one
        assert 2 * engine._BLOCK_MATRICES < len(mats) < 3 * engine._BLOCK_MATRICES
        # at 1 ms the matrices take different numbers of squarings
        norms = np.abs(mats).sum(axis=1).max(axis=1)
        assert len(np.unique(np.frexp(norms * 1.0 / engine._THETA12)[1].clip(0))) > 1
        # at 3e-3 ms every block holds matrices on both sides of the Taylor bound
        small = norms * 3e-3 < engine._THETA12
        edges = range(engine._BLOCK_MATRICES, len(mats), engine._BLOCK_MATRICES)
        for block in np.split(small, edges):
            assert 0 < np.count_nonzero(block) < len(block)
        for dt in (1e-4, 3e-3, 1.0, 30.0):
            full = propagator_batch(mats, dt)
            for i, m in enumerate(mats):
                assert propagator_batch(m[None], dt)[0].tobytes() == full[i].tobytes()
        assert propagator_batch(np.empty((0, k, k)), 1.0).shape == (0, k, k)
        assert np.array_equal(propagator_batch(mats, 0.0), np.broadcast_to(np.eye(k), mats.shape))


def test_propagator_refuses_to_square_a_leak():
    # the old 4x4 form of a leaky generator, its trap row dropped: renormalising its squares
    # would erase the leak, but unsquared Taylor is right for any matrix
    rng = np.random.default_rng(59)
    mats = np.stack([build_rate_matrix(_leaky_params(rng), _random_drive(rng))[:4, :4]
                     for _ in range(50)])
    norms = np.abs(mats).sum(axis=1).max(axis=1)
    for m, norm in zip(mats, norms):
        dt = 0.99 * engine._THETA12 / norm
        assert np.abs(propagator(m, dt) - scipy.linalg.expm(m * dt)).max() <= 1e-15
        with pytest.raises(ValueError, match="cannot be squared"):
            propagator(m, 1.01 * engine._THETA12 / norm)
    # the refusal is per matrix: a leak below the bound passes beside squared matrices
    cons = build_rate_matrix(RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9), _random_drive(rng))
    dt = 0.99 * engine._THETA12 / norms[0]
    out = propagator_batch(np.stack([cons * 1e3, mats[0]]), dt)
    assert out[1].tobytes() == propagator(mats[0], dt).tobytes()


def test_propagator_memory_does_not_grow_with_the_stack():
    # temporaries are per block: 5,095 matrices at once took about 5 MiB of them
    rng = np.random.default_rng(31)
    mats = np.stack(
        [build_rate_matrix(_random_params(rng), _random_drive(rng)) for _ in range(5)]
    )
    mats = np.tile(mats, (1019, 1, 1))
    tracemalloc.start()
    try:
        out = propagator_batch(mats, 0.02)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 5095
    assert peak - out.nbytes < 2**20


class _SquaredRows:
    """Stands in for numpy in holeburn.engine and counts the rows of the stacked products
    that _square makes, each a squaring."""

    def __init__(self):
        self.rows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        if sys._getframe(1).f_code is engine._square.__code__:
            self.rows += len(a)
        return np.matmul(a, b, **kwargs)


def test_each_matrix_is_squared_its_own_s_times(monkeypatch):
    # one block: 511 matrices at s = 10 and one at s = 12 (1-norm dt in [128, 256) and
    # [512, 1024) times 1/4); squaring every row to the block's largest s takes 6,144 rows
    rng = np.random.default_rng(61)
    mats = np.stack([build_rate_matrix(_random_params(rng), _random_drive(rng))
                     for _ in range(engine._BLOCK_MATRICES)])
    norms = np.abs(mats).sum(axis=1).max(axis=1)
    target = np.append(rng.uniform(130.0, 250.0, len(mats) - 1), 700.0)
    mats *= (target / norms)[:, None, None]
    s = np.frexp(np.abs(mats).sum(axis=1).max(axis=1) / engine._THETA12)[1]
    assert np.bincount(s).tolist()[10:] == [511, 0, 1]
    squared = _SquaredRows()
    monkeypatch.setattr(engine, "np", squared)
    full = propagator_batch(mats, 1.0)
    assert squared.rows == s.sum() == 5122
    monkeypatch.undo()
    for i, m in enumerate(mats):
        assert propagator_batch(m[None], 1.0)[0].tobytes() == full[i].tobytes()


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
    expected, done = np.broadcast_to(np.eye(4), props.shape), 0
    for n in (0, 1, 2, 7, 100, 1000):
        while done < n:
            expected, done = props @ expected, done + 1
        powered = matrix_power_batch(props, n)
        assert powered.shape == props.shape
        assert np.allclose(powered, expected, atol=1e-10)
    with pytest.raises(ValueError):
        matrix_power_batch(props, -1)


def test_sums_of_four_match_numpy_bytewise():
    # the exponential's 1-norm and column sums add in index order, as NumPy's reductions over
    # an axis of 4 or 5 do, so they keep the bytes of the reference forms
    rng = np.random.default_rng(53)
    for k in (4, 5):
        m = rng.standard_normal((10000, k, k)) * 10.0 ** rng.uniform(-5, 5, (10000, 1, 1))
        assert engine._column_sums(m).tobytes() == m.sum(axis=-2).tobytes()
        norm = reduce(np.maximum, engine._column_sums(np.abs(m)).T)
        assert norm.tobytes() == np.abs(m).sum(axis=-2).max(axis=-1).tobytes()


def _applied_alone_and_stacked(apply, props, pops):
    """pops after apply(props, pops) on the whole stack and row by row."""
    stacked, alone = pops.copy(), pops.copy()
    apply(props, stacked)
    for i in range(len(pops)):
        row = alone[i:i + 1]
        apply(props if len(props) == 1 else props[i:i + 1], row)
    return stacked, alone


def _gemm_apply(props, pops):
    # one product for a shared propagator: a row's bytes follow the rows beside it
    k = props.shape[-1]
    pops[:, :k] = pops[:, :k] @ props[0].T


def test_apply_batch_bytes_do_not_depend_on_the_stack():
    rng = np.random.default_rng(67)
    n = 1001
    pops = rng.random((n, 5))
    pops /= pops.sum(axis=1, keepdims=True)
    for k in (4, 5):
        for n_props in (1, n):
            props = rng.random((n_props, k, k))
            props /= props.sum(axis=1, keepdims=True)
            stacked, alone = _applied_alone_and_stacked(engine.apply_batch, props, pops)
            assert stacked.tobytes() == alone.tobytes()
            matmul = np.matmul(props, pops[:, :k, None])[:, :, 0]
            if k == 4:
                assert stacked[:, :k].tobytes() == matmul.tobytes()
            else:  # einsum and matmul may round a sum of five differently
                assert np.abs(stacked[:, :k] - matmul).max() <= 2.2e-16
            if n_props == 1:
                stacked, alone = _applied_alone_and_stacked(_gemm_apply, props, pops)
                assert stacked.tobytes() != alone.tobytes()


def _apply_column(column):
    """Populations after a propagator with this first column acts on level 0 alone; a
    column of five is a leaky generator's, its last entry the trap's."""
    prop = np.eye(len(column))
    prop[:, 0] = column
    pops = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
    engine.apply_batch(prop[None], pops)
    return pops[0]


def test_apply_batch_clamps_round_off_below_zero():
    assert _apply_column([0.5, -1e-11, 0.5, 0.0]).tolist() == [0.5, 0.0, 0.5, 0.0, 0.0]
    assert _apply_column([0.5, 0.0, 0.5, 0.0, -1e-11]).tolist() == [0.5, 0.0, 0.5, 0.0, 0.0]


def test_apply_batch_fills_the_trap_only_through_a_trap_row():
    # apply_batch checks signs only, as every propagator conserves by construction:
    # a 4x4 one leaves the trap slot as it is, and a 5x5 one moves population into it
    assert _apply_column([0.5, 0.25, 0.0, 0.0]).tolist() == [0.5, 0.25, 0.0, 0.0, 0.0]
    assert _apply_column([0.5, 0.25, 0.0, 0.0, 0.25]).tolist() == [0.5, 0.25, 0.0, 0.0, 0.25]


@pytest.mark.parametrize("column, message", [
    ([0.5, -1e-9, 0.5, 0.0], "negative population"),
    ([0.5, 0.5, 0.0, 0.0, -1e-9], "negative population"),
    ([0.5, np.nan, 0.5, 0.0], "NaN"),
])
def test_apply_batch_rejects_a_propagator_that_breaks_the_populations(column, message):
    with pytest.raises(ArithmeticError, match=message):
        _apply_column(column)


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


@pytest.mark.parametrize("field, value", [
    ("pump_rate", (0.0, math.nan, 0.0, 0.0)), ("pump_rate", (0.0, 0.0, 0.0, -1.0)),
    ("stim_rate", math.nan), ("stim_rate", -1.0),
    ("rf_mix_rate", math.nan), ("rf_mix_rate", -0.5),
])
def test_drive_rates_refuse_negative_and_nan_rates(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be >= 0"):
        DriveRates(**{field: value})

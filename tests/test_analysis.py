import numpy as np
import pytest

from holeburn.analysis import (
    FitResult,
    add_noise,
    double_exponential,
    exponential_offset,
    fit_double_exponential,
    fit_exponential_offset,
    fit_linear,
    fit_lorentzian,
    lorentzian,
    residual_metrics,
)
from holeburn.ensemble import Spectrum, hole_area
from holeburn.errors import GridMismatchError


# ---------------------------------------------------------- double exponential

def test_double_exponential_noiseless_recovery():
    t = np.geomspace(0.5, 400.0, 60)
    y = double_exponential(t, 1.0, 11.0, 0.3, 100.0, 0.05)
    out = fit_double_exponential(t, y)
    assert out.converged
    p = out.parameters
    assert p["tau1_ms"] == pytest.approx(11.0, rel=1e-3)
    assert p["tau2_ms"] == pytest.approx(100.0, rel=1e-3)
    assert p["a1"] == pytest.approx(1.0, rel=1e-3)
    assert p["a2"] == pytest.approx(0.3, rel=1e-3)
    assert p["offset"] == pytest.approx(0.05, abs=1e-4)


def test_double_exponential_orders_components():
    t = np.geomspace(0.5, 400.0, 60)
    y = double_exponential(t, 0.3, 100.0, 1.0, 11.0, 0.0)  # slow listed first
    p = fit_double_exponential(t, y).parameters
    assert p["tau1_ms"] < p["tau2_ms"]
    assert p["tau1_ms"] == pytest.approx(11.0, rel=1e-3)


def test_double_exponential_time_rescaling():
    t = np.geomspace(0.5, 400.0, 60)
    y = double_exponential(t, 1.0, 11.0, 0.3, 100.0, 0.02)
    p1 = fit_double_exponential(t, y).parameters
    p2 = fit_double_exponential(t * 10.0, y).parameters
    assert p2["tau1_ms"] == pytest.approx(10.0 * p1["tau1_ms"], rel=1e-3)
    assert p2["tau2_ms"] == pytest.approx(10.0 * p1["tau2_ms"], rel=1e-3)


def test_double_exponential_flags_single_component():
    t = np.geomspace(0.5, 200.0, 50)
    y = 1.0 * np.exp(-t / 20.0) + 0.1
    out = fit_double_exponential(t, y)
    assert out.flags  # degenerate input must be flagged, not silently accepted


def test_double_exponential_with_noise():
    t = np.geomspace(0.5, 400.0, 80)
    y = double_exponential(t, 1.0, 11.0, 0.3, 100.0, 0.05)
    noisy = add_noise(y, 0.01, seed=42)
    p = fit_double_exponential(t, noisy).parameters
    assert p["tau1_ms"] == pytest.approx(11.0, rel=0.05)
    assert p["tau2_ms"] == pytest.approx(100.0, rel=0.05)


def test_double_exponential_input_validation():
    with pytest.raises(ValueError):
        fit_double_exponential([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_double_exponential(np.arange(10.0), np.full(10, np.nan))


# ------------------------------------------------------------------ lorentzian

def test_lorentzian_wide_line_recovery():
    f = np.linspace(-30000.0, 30000.0, 201)
    y = lorentzian(f, -0.8, 0.0, 14000.0, 1.0)
    p = fit_lorentzian(f, y).parameters
    assert p["fwhm_MHz"] == pytest.approx(14000.0, rel=1e-3)
    assert p["amplitude"] == pytest.approx(-0.8, rel=1e-3)
    assert p["center_MHz"] == pytest.approx(0.0, abs=1.0)
    assert p["offset"] == pytest.approx(1.0, rel=1e-3)


def test_lorentzian_offcenter_peak():
    f = np.linspace(-20.0, 20.0, 161)
    y = lorentzian(f, 0.6, 3.0, 2.0, 0.1)
    p = fit_lorentzian(f, y).parameters
    assert p["center_MHz"] == pytest.approx(3.0, abs=1e-6)
    assert p["fwhm_MHz"] == pytest.approx(2.0, rel=1e-6)


def test_lorentzian_needs_five_points():
    with pytest.raises(ValueError):
        fit_lorentzian(np.arange(4.0), np.ones(4))


# ---------------------------------------------------------------------- linear

def test_linear_exact_line():
    x = np.linspace(0.0, 10.0, 20)
    out = fit_linear(x, 2.0 * x + 1.0)
    assert out.parameters["slope"] == pytest.approx(2.0, rel=1e-12)
    assert out.parameters["intercept"] == pytest.approx(1.0, rel=1e-12)
    assert out.parameters["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_linear_constant_data():
    x = np.linspace(0.0, 10.0, 20)
    out = fit_linear(x, np.full(20, 3.0))
    assert out.parameters["slope"] == pytest.approx(0.0, abs=1e-12)
    assert out.parameters["r_squared"] == 1.0


def test_linear_rejects_degenerate_x():
    with pytest.raises(ValueError):
        fit_linear(np.ones(5), np.arange(5.0))


# ---------------------------------------------------- exponential with offset

def test_exponential_offset_recovery():
    t = np.linspace(0.0, 15.0, 40)
    y = exponential_offset(t, 0.9, 0.35, 0.1)
    p = fit_exponential_offset(t, y).parameters
    assert p["amplitude"] == pytest.approx(0.9, rel=5e-3)
    assert p["rate_per_ms"] == pytest.approx(0.35, rel=5e-3)
    assert p["offset"] == pytest.approx(0.1, rel=5e-3)


def test_exponential_offset_flags_flat_data():
    t = np.linspace(0.0, 10.0, 20)
    out = fit_exponential_offset(t, np.full(20, 1.0))
    assert any(
        f in ("degenerate-amplitude", "rate-unidentifiable") for f in out.flags
    )


# ------------------------------------------------------------ residual metrics

def _flat_spec(od, n=21):
    f = np.linspace(-5.0, 5.0, n)
    return Spectrum(f, np.full(n, float(od)))


def test_residual_metrics_quarter_depth():
    m = residual_metrics(_flat_spec(0.125), _flat_spec(0.5), (-3.0, 3.0))
    assert m.rho1_res == pytest.approx(0.25, rel=1e-12)
    assert m.remaining_total_fraction == pytest.approx(0.125, rel=1e-12)
    assert m.ground_state_ratio == pytest.approx(7.0, rel=1e-12)
    assert m.spin_polarization == pytest.approx(0.875, rel=1e-12)


def test_residual_metrics_rf_target_depth():
    m = residual_metrics(_flat_spec(0.08), _flat_spec(0.5), (-3.0, 3.0))
    assert m.remaining_total_fraction == pytest.approx(0.08, rel=1e-12)
    assert m.spin_polarization == pytest.approx(0.92, rel=1e-12)


def test_residual_metrics_unpumped():
    m = residual_metrics(_flat_spec(0.5), _flat_spec(0.5), (-3.0, 3.0))
    assert m.rho1_res == 1.0
    assert m.remaining_total_fraction == 0.5
    assert m.spin_polarization == 0.5
    assert m.ground_state_ratio == pytest.approx(1.0, rel=1e-12)


def test_residual_metrics_errors():
    with pytest.raises(ValueError):
        residual_metrics(_flat_spec(0.1), _flat_spec(0.0), (-3.0, 3.0))
    with pytest.raises(ValueError):
        residual_metrics(_flat_spec(0.1), _flat_spec(0.5, n=31), (-3.0, 3.0))
    with pytest.raises(ValueError):
        residual_metrics(_flat_spec(0.1), _flat_spec(0.5), (100.0, 200.0))


@pytest.mark.parametrize("metric", [residual_metrics, hole_area])
@pytest.mark.parametrize("n", [21, 31])
def test_window_metrics_raise_grid_mismatch(metric, n):
    # same length on a shifted grid, and a different length
    shifted = Spectrum(np.linspace(-5.0, 5.0, n) + 0.1, np.full(n, 0.5))
    with pytest.raises(GridMismatchError):
        metric(_flat_spec(0.1), shifted, (-3.0, 3.0))


# -------------------------------------------------------------- FitResult I/O

def test_fit_result_json_roundtrip():
    out = fit_linear(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 5.0]))
    back = FitResult.from_json(out.to_json())
    assert back.model == out.model
    assert back.parameters == out.parameters
    assert back.stderr == out.stderr
    assert back.converged == out.converged
    assert back.flags == out.flags


# ------------------------------------------------------------------- add_noise

def test_add_noise_seeded_and_scaled():
    y = np.full(4000, 2.0)
    a = add_noise(y, 0.01, seed=7)
    b = add_noise(y, 0.01, seed=7)
    c = add_noise(y, 0.01, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # sigma is 1% of the peak value of 2
    assert np.std(a - y) == pytest.approx(0.02, rel=0.1)

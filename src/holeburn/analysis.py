"""Model fitting and residual-absorption metrics.

All fits run a damped least-squares minimisation (trust-region reflective
with simple positivity bounds on time constants and widths) seeded by crude
log-linear initial guesses.  A fit that fails to converge is reported
through the FitResult, never as an exception, so batch pipelines can keep
going and inspect the flags afterwards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .ensemble import Spectrum

__all__ = [
    "FitResult",
    "fit_double_exponential",
    "fit_lorentzian",
    "fit_linear",
    "fit_exponential_offset",
    "residual_metrics",
    "ResidualMetrics",
    "add_noise",
]

GRADIENT_TOL = 1e-10
MAX_ITERATIONS = 500


@dataclass
class FitResult:
    """Fitted parameters with standard errors and convergence diagnostics."""

    model: str
    parameters: dict
    stderr: dict
    residual_norm: float
    converged: bool
    iterations: int
    flags: list = field(default_factory=list)

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "model": self.model,
            "parameters": self.parameters,
            "stderr": self.stderr,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "iterations": self.iterations,
            "flags": self.flags,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FitResult":
        d = json.loads(text)
        return cls(
            model=d["model"],
            parameters=d["parameters"],
            stderr=d["stderr"],
            residual_norm=d["residual_norm"],
            converged=d["converged"],
            iterations=d["iterations"],
            flags=list(d.get("flags", [])),
        )


def _solve(model: str, func, x0, names, x, y, bounds) -> FitResult:
    from scipy.optimize import least_squares  # slow to import; only fits need it

    def residual(p):
        return func(x, *p) - y

    try:
        res = least_squares(
            residual,
            x0,
            bounds=bounds,
            method="trf",
            gtol=GRADIENT_TOL,
            ftol=1e-14,
            xtol=1e-14,
            max_nfev=MAX_ITERATIONS,
        )
    except Exception as exc:  # pathological data; report, don't raise
        return FitResult(
            model=model,
            parameters=dict(zip(names, (float(v) for v in x0))),
            stderr={k: float("nan") for k in names},
            residual_norm=float("nan"),
            converged=False,
            iterations=0,
            flags=[f"solver-error: {exc}"],
        )

    dof = max(len(y) - len(names), 1)
    variance = 2.0 * res.cost / dof
    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj) * variance
        errs = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        errs = np.full(len(names), np.nan)

    return FitResult(
        model=model,
        parameters={k: float(v) for k, v in zip(names, res.x)},
        stderr={k: float(e) for k, e in zip(names, errs)},
        residual_norm=float(np.linalg.norm(res.fun)),
        converged=bool(res.success),
        iterations=int(res.nfev),
        flags=[],
    )


def _tail_log_slope(t, y, lo_frac, hi_frac):
    """Log-linear rate estimate over a fractional index window; None if unusable."""
    n = len(t)
    i0, i1 = int(lo_frac * n), max(int(hi_frac * n), int(lo_frac * n) + 2)
    tt, yy = t[i0:i1], y[i0:i1]
    ok = yy > 0
    if ok.sum() < 2:
        return None, None
    coef = np.polyfit(tt[ok], np.log(yy[ok]), 1)
    rate = -coef[0]
    amp = float(np.exp(coef[1]))
    if not np.isfinite(rate) or rate <= 0:
        return None, None
    return rate, amp


def _check_inputs(t, y, n_min, model):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("t and y must be 1-d arrays of equal length")
    if len(t) < n_min:
        raise ValueError(f"{model} needs at least {n_min} points, got {len(t)}")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("inputs contain non-finite values")
    return t, y


def double_exponential(t, a1, tau1, a2, tau2, offset):
    return a1 * np.exp(-np.asarray(t, dtype=float) / tau1) + a2 * np.exp(
        -np.asarray(t, dtype=float) / tau2) + offset


def fit_double_exponential(t_ms, y) -> FitResult:
    """Fit a1 exp(-t/tau1) + a2 exp(-t/tau2) + offset with tau1 <= tau2.

    Components are reordered after the fit so tau1 is always the fast one.
    Nearly equal time constants or a vanishing slow amplitude are flagged as
    degenerate rather than rejected.
    """
    t, y = _check_inputs(t_ms, y, 6, "fit_double_exponential")
    span = t.max() - t.min()
    scale = max(abs(y.max()), abs(y.min()), 1e-30)

    offset0 = float(y[-1])
    z = y - 0.9 * offset0
    slow_rate, slow_amp = _tail_log_slope(t, z, 0.5, 1.0)
    if slow_rate is None:
        slow_rate, slow_amp = 1.0 / max(span, 1e-12), float(abs(z[0]) + 1e-12)
    z2 = y - slow_amp * np.exp(-slow_rate * t) - 0.9 * offset0
    fast_rate, fast_amp = _tail_log_slope(t, z2, 0.0, 0.35)
    if fast_rate is None or fast_rate <= slow_rate:
        fast_rate, fast_amp = 8.0 * slow_rate, slow_amp

    x0 = [fast_amp, 1.0 / fast_rate, slow_amp, 1.0 / slow_rate, 0.9 * offset0]
    lo = [-np.inf, 1e-12, -np.inf, 1e-12, -np.inf]
    hi = [np.inf, np.inf, np.inf, np.inf, np.inf]
    out = _solve(
        "double_exponential",
        double_exponential,
        x0,
        ("a1", "tau1_ms", "a2", "tau2_ms", "offset"),
        t, y, (lo, hi),
    )

    p = out.parameters
    if p["tau1_ms"] > p["tau2_ms"]:
        p["a1"], p["a2"] = p["a2"], p["a1"]
        p["tau1_ms"], p["tau2_ms"] = p["tau2_ms"], p["tau1_ms"]
        s = out.stderr
        s["a1"], s["a2"] = s["a2"], s["a1"]
        s["tau1_ms"], s["tau2_ms"] = s["tau2_ms"], s["tau1_ms"]
    if p["tau2_ms"] < 1.2 * p["tau1_ms"]:
        out.flags.append("degenerate-time-constants")
    if abs(p["a2"]) < 1e-3 * scale or abs(p["a1"]) < 1e-3 * scale:
        out.flags.append("degenerate-amplitude")
    return out


def lorentzian(f, amplitude, center, fwhm, offset):
    hw2 = (0.5 * fwhm) ** 2
    d = np.asarray(f, dtype=float) - center
    return amplitude * hw2 / (d * d + hw2) + offset


def fit_lorentzian(f_MHz, y) -> FitResult:
    """Fit a Lorentzian peak or dip; amplitude carries the sign."""
    f, y = _check_inputs(f_MHz, y, 5, "fit_lorentzian")
    span = f.max() - f.min()

    edge = 0.5 * (np.median(y[: max(len(y) // 10, 1)]) + np.median(y[-max(len(y) // 10, 1):]))
    idx = int(np.argmax(np.abs(y - edge)))
    amp0 = float(y[idx] - edge)
    center0 = float(f[idx])
    above = np.abs(y - edge) >= 0.5 * abs(amp0)
    fwhm0 = float(f[above].max() - f[above].min()) if above.sum() >= 2 else span / 4.0
    fwhm0 = max(fwhm0, span / len(f))

    out = _solve(
        "lorentzian",
        lorentzian,
        [amp0, center0, fwhm0, float(edge)],
        ("amplitude", "center_MHz", "fwhm_MHz", "offset"),
        f, y,
        ([-np.inf, -np.inf, 1e-12, -np.inf], [np.inf, np.inf, np.inf, np.inf]),
    )
    if abs(out.parameters["amplitude"]) < 1e-3 * (np.abs(y).max() + 1e-30):
        out.flags.append("degenerate-amplitude")
    return out


def fit_linear(x, y) -> FitResult:
    """Ordinary least squares line; r_squared is reported as a parameter."""
    x, y = _check_inputs(x, y, 2, "fit_linear")
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("fit_linear needs at least two distinct x values")
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    ss_res = float((resid ** 2).sum())
    ss_tot = float(((y - ym) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    if n > 2 and ss_res > 0:
        s2 = ss_res / (n - 2)
        slope_err = float(np.sqrt(s2 / sxx))
        intercept_err = float(np.sqrt(s2 * (1.0 / n + xm * xm / sxx)))
    else:
        slope_err = intercept_err = 0.0

    return FitResult(
        model="linear",
        parameters={"slope": slope, "intercept": intercept, "r_squared": float(r2)},
        stderr={"slope": slope_err, "intercept": intercept_err, "r_squared": 0.0},
        residual_norm=float(np.sqrt(ss_res)),
        converged=True,
        iterations=1,
    )


def exponential_offset(t, amplitude, rate, offset):
    return amplitude * np.exp(-rate * np.asarray(t, dtype=float)) + offset


def fit_exponential_offset(t_ms, y) -> FitResult:
    """Fit amplitude * exp(-rate t) + offset with rate >= 0."""
    t, y = _check_inputs(t_ms, y, 4, "fit_exponential_offset")
    span = max(t.max() - t.min(), 1e-12)
    scale = np.abs(y).max() + 1e-30

    offset0 = float(y[-1])
    z = y - offset0
    rate0, amp0 = _tail_log_slope(t, z, 0.0, 0.7)
    if rate0 is None:
        rate0, amp0 = 1.0 / span, float(y[0] - offset0)

    out = _solve(
        "exponential_offset",
        exponential_offset,
        [amp0, rate0, offset0],
        ("amplitude", "rate_per_ms", "offset"),
        t, y,
        ([-np.inf, 0.0, -np.inf], [np.inf, np.inf, np.inf]),
    )
    p = out.parameters
    if abs(p["amplitude"]) < 1e-3 * scale:
        out.flags.append("degenerate-amplitude")
    if p["rate_per_ms"] * span < 1e-3:
        out.flags.append("rate-unidentifiable")
    return out


@dataclass(frozen=True)
class ResidualMetrics:
    """Residual-absorption summary of a pumped window.

    rho1_res is the pumped-to-thermal optical-depth ratio of the initially
    populated ground level; remaining_total_fraction refers that to the full
    population (both sublevels), and ground_state_ratio converts it to the
    implied population ratio between the two sublevels.
    """

    rho1_res: float
    remaining_total_fraction: float
    spin_polarization: float
    ground_state_ratio: float


def residual_metrics(spectrum: Spectrum, baseline: Spectrum,
                     window_MHz: tuple[float, float]) -> ResidualMetrics:
    """Compare mean optical depth in a window before and after pumping."""
    spectrum.check_grid(baseline)
    lo, hi = window_MHz
    mask = (spectrum.freqs_MHz >= lo) & (spectrum.freqs_MHz <= hi)
    if mask.sum() < 1:
        raise ValueError("window contains no grid points")
    base = float(baseline.optical_depth[mask].mean())
    if abs(base) < 1e-9:
        raise ValueError("baseline optical depth vanishes in the window")
    rho1 = float(spectrum.optical_depth[mask].mean()) / base
    remaining = rho1 / 2.0
    ratio = (2.0 - rho1) / rho1 if rho1 > 0 else float("inf")
    return ResidualMetrics(
        rho1_res=rho1,
        remaining_total_fraction=remaining,
        spin_polarization=1.0 - remaining,
        ground_state_ratio=ratio,
    )


def add_noise(y, sigma_fraction: float, seed: int) -> np.ndarray:
    """Seeded Gaussian noise with sigma a fraction of the peak data value."""
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed)
    sigma = sigma_fraction * max(float(np.abs(y).max()), 1e-30)
    return y + rng.normal(0.0, sigma, size=y.shape)

"""Pressure laws for the isothermal liquid-vapor fluid.

Each law carries the coupling coefficient ``gamma`` used to build the
monotone artificial pressure  P_art(r) = P(r) + gamma/2 r^2  and the
pressure potential W with W''(r) r = P'(r), gauged so that W vanishes at a
reference density (1 whenever 1 is an interior point of the domain).

Negative pressures are allowed: a Van-der-Waals law dips below zero inside
its spinodal interval and only the monotonicity of the artificial pressure
matters for the solvers.

The formulas follow torus' in-place rule (see the torus module
docstring), each updating an array it allocated with augmented
assignment.  Augmented assignment also works on the numpy scalars that a
0-d or Python-float density gives, so a scalar takes the same path.  A
square is ``x **= 2``, numpy's square of an array
and the scalar power of a scalar, each bitwise ``x ** 2``; ``x *= x``
would not be, since numpy's scalar power is not always the product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AdmissibilityError(ValueError):
    """Raised when a pressure law is asked about an interval its domain
    does not contain, or when a solver entry point is asked to run with a
    law whose artificial pressure is not monotone on its rails."""

    exit_code = 3


@dataclass
class AdmissibilityReport:
    admissible: bool
    min_artificial_slope: float
    spinodal: tuple | None
    scan_interval: tuple


class EquationOfState:
    """Base pressure law.  Subclasses provide closed forms for pressure,
    d_pressure and _potential_inner, the antiderivative of P(s)/s^2 that
    the potential W is built from."""

    gamma: float
    domain_max: float
    r_ref: float

    def pressure(self, r):
        raise NotImplementedError

    def d_pressure(self, r):
        raise NotImplementedError

    def _check_domain(self, r):
        r = np.asarray(r, dtype=float)
        # one NaN-ignoring reduction per end: NaN passes, as it passes the
        # elementwise tests r < 0 and r >= domain_max, and the run loop's
        # finite check rejects it; an empty array passes too
        if (np.fmin.reduce(r, axis=None, initial=np.inf) < 0.0
                or np.fmax.reduce(r, axis=None, initial=-np.inf)
                >= self.domain_max):
            # the range of the values that decided, NaN left out; a zero
            # end keeps the sign np.min and np.max give it
            seen = r[~np.isnan(r)]
            raise ValueError(
                f"density outside the law's domain [0, {self.domain_max}): "
                f"range [{np.min(seen)}, {np.max(seen)}]")
        return r

    def artificial_pressure(self, r):
        r = np.asarray(r, dtype=float)
        p = self.pressure(r)
        coupling = r ** 2
        coupling *= 0.5 * self.gamma
        p += coupling
        return p

    def d_artificial_pressure(self, r):
        r = np.asarray(r, dtype=float)
        dp = self.d_pressure(r)
        dp += self.gamma * r
        return dp

    def potential(self, r):
        """Pressure potential W(r) = r * integral_{r_ref}^r P(s)/s^2 ds."""
        r = np.asarray(r, dtype=float)
        # NaN passes, as it passes r <= 0
        if np.fmin.reduce(r, axis=None, initial=np.inf) <= 0.0:
            raise ValueError("potential needs strictly positive density")
        self._check_domain(r)
        w = self._potential_inner(r)
        w -= self._potential_inner(self.r_ref)
        w *= r
        return w

    def _potential_inner(self, r):
        raise NotImplementedError


class VanDerWaalsEOS(EquationOfState):
    """P(r) = R T* r / (B - r) - A r^2 on [0, B)."""

    def __init__(self, A: float, B: float, R: float, T_star: float, gamma: float):
        for name, val in (("A", A), ("B", B), ("R", R), ("T_star", T_star)):
            if val <= 0.0:
                raise ValueError(f"{name} must be positive, got {val}")
        # gamma = 0 is allowed at the law level so that admissibility scans
        # can exhibit the bare-pressure spinodal; the solvers reject it
        if gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {gamma}")
        self.A = float(A)
        self.B = float(B)
        self.R = float(R)
        self.T_star = float(T_star)
        self.gamma = float(gamma)
        self.domain_max = self.B
        # W is gauged at 1 except when the pole at B sits at or below it
        self.r_ref = 1.0 if self.B > 1.0 + 1e-9 else 0.5 * self.B

    def pressure(self, r):
        r = self._check_domain(r)
        p = self.R * self.T_star * r
        p /= self.B - r
        attraction = r ** 2
        attraction *= self.A
        p -= attraction
        return p

    def d_pressure(self, r):
        r = self._check_domain(r)
        gap = self.B - r
        gap **= 2
        dp = self.B * self.R * self.T_star / gap
        dp -= 2.0 * self.A * r
        return dp

    def _potential_inner(self, r):
        # integral of P(s)/s^2 = R T*/(s (B - s)) - A
        w = np.log(r / (self.B - r))
        w *= self.R * self.T_star / self.B
        w -= self.A * r
        return w


class PolytropicEOS(EquationOfState):
    """P(r) = a r^beta with beta >= 2."""

    def __init__(self, a: float, beta: float, gamma: float):
        if a <= 0.0:
            raise ValueError(f"a must be positive, got {a}")
        if beta < 2.0:
            raise ValueError(f"beta must be at least 2, got {beta}")
        if gamma < 0.0:
            raise ValueError(f"gamma must be nonnegative, got {gamma}")
        self.a = float(a)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.domain_max = np.inf
        self.r_ref = 1.0

    def pressure(self, r):
        r = self._check_domain(r)
        return self.a * r ** self.beta

    def d_pressure(self, r):
        r = self._check_domain(r)
        return self.a * self.beta * r ** (self.beta - 1.0)

    def _potential_inner(self, r):
        return self.a * (r ** (self.beta - 1.0) - 1.0) / (self.beta - 1.0)


def make_eos(spec: dict) -> EquationOfState:
    kind = spec.get("type")
    if kind == "van_der_waals":
        return VanDerWaalsEOS(spec["A"], spec["B"], spec["R"], spec["T_star"],
                              spec["gamma"])
    if kind == "polytropic":
        return PolytropicEOS(spec["a"], spec["beta"], spec["gamma"])
    raise ValueError(f"unknown eos type {kind!r}")


def check_admissibility(eos: EquationOfState, r_lo: float, r_hi: float
                        ) -> AdmissibilityReport:
    """Scan the artificial-pressure slope on [r_lo, r_hi] at 10,000 points.

    The pair (P, gamma) is admissible on the interval when the minimum of
    P_art' is nonnegative.  Sign changes of P' are refined by bisection to
    locate the spinodal interval [B1, B2].  An interval reaching the end of
    the law's domain is refused (require_in_domain).
    """
    require_in_domain(eos, r_hi)
    if not (0.0 <= r_lo < r_hi):
        raise ValueError(f"invalid scan interval [{r_lo}, {r_hi}]")
    r = np.linspace(r_lo, r_hi, 10_000)
    slope_art = eos.d_artificial_pressure(r)
    min_slope = float(np.min(slope_art))

    slope_p = eos.d_pressure(r)
    spinodal = None
    neg = slope_p < 0.0
    if np.any(neg):
        first = int(np.argmax(neg))
        last = len(r) - 1 - int(np.argmax(neg[::-1]))
        b1 = r_lo if first == 0 else _bisect_root(
            eos.d_pressure, r[first - 1], r[first])
        b2 = r_hi if last == len(r) - 1 else _bisect_root(
            eos.d_pressure, r[last], r[last + 1])
        spinodal = (float(b1), float(b2))

    return AdmissibilityReport(
        admissible=min_slope >= 0.0,
        min_artificial_slope=min_slope,
        spinodal=spinodal,
        scan_interval=(float(r_lo), float(r_hi)),
    )


def require_in_domain(eos: EquationOfState, r_hi: float) -> None:
    """Raise AdmissibilityError, a ValueError, unless the upper end r_hi
    (of a scan, or the upper rail of a run) lies inside the law's domain."""
    if r_hi >= eos.domain_max:
        raise AdmissibilityError(
            f"upper rail {r_hi} not inside the law's domain "
            f"[0, {eos.domain_max})")


def require_admissible(eos: EquationOfState, r_lo: float, r_hi: float) -> AdmissibilityReport:
    """Raise unless [r_lo, r_hi] lies inside the law's domain and the law is
    admissible there; the solver entry points call it with their rails."""
    report = check_admissibility(eos, r_lo, r_hi)
    if not report.admissible:
        raise AdmissibilityError(
            f"artificial pressure not monotone on [{r_lo}, {r_hi}]: "
            f"min slope {report.min_artificial_slope:.3e}, "
            f"spinodal {report.spinodal}")
    return report


def quadratic_growth_constant(eos: EquationOfState, r_hi: float) -> float:
    """Empirical constant sup_r r^2 / (1 + W(r) - min W) over (0, r_hi],
    scanned at 2048 points.

    The quadratic growth bound r^2 <= C (1 + W) refers to a nonnegative
    potential; our gauge W(r_ref) = 0 lets W dip below zero inside a
    spinodal well, so the scan shifts W to its nonnegative representative
    before taking the sup.  r_hi must lie inside the law's domain."""
    require_in_domain(eos, r_hi)
    r = np.linspace(r_hi / 2048, r_hi, 2048)
    w = eos.potential(r)
    w = w - min(0.0, float(np.min(w)))
    return float(np.max(r ** 2 / (1.0 + w)))


def _bisect_root(fun, lo: float, hi: float) -> float:
    flo = fun(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        if hi - lo < 1e-10:
            return mid
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)

"""Scalar time curves with analytic derivatives, and the bump-function
machinery used to extend a smooth curve on a window [0, t] to a C^(p+2)
periodic function of period 2t.

The four descriptor kinds also know their exact integral over any interval
(``ScalarCurve.integral``), which the exact-segment product formulas use for
a term that is one matrix times one curve; the periodic extension and its
Taylor-bump pieces have none and return None.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import (BudgetExceededError, InvalidInputError, NumericalBlowUpError,
                     SchemaError, integer, list_of, number, one_of, required)

DEFAULT_BUDGET = 32


class ScalarCurve:
    """A real function of time, queryable at any derivative order up to
    ``derivative_budget``."""

    kind = "abstract"

    def __init__(self, derivative_budget: int = DEFAULT_BUDGET):
        self.derivative_budget = int(derivative_budget)

    def eval(self, tau: float, q: int = 0) -> float:
        if q < 0:
            raise InvalidInputError("derivative order must be >= 0")
        if q > self.derivative_budget:
            raise BudgetExceededError(
                f"derivative order {q} exceeds budget {self.derivative_budget}"
            )
        try:
            return self._eval(float(tau), int(q))
        except OverflowError as exc:  # math.exp, or a float power past the float range
            raise NumericalBlowUpError(f"{self.kind} curve overflowed at tau={tau}") from exc

    def _eval(self, tau: float, q: int) -> float:
        raise NotImplementedError

    def integral(self, a: float, b: float) -> float | None:
        """The exact integral of the curve from ``a`` to ``b`` (negative for
        b < a), or None for a kind with no closed form.  A result past the
        float range raises NumericalBlowUpError."""
        try:
            out = self._integral(float(a), float(b))
        except OverflowError as exc:
            raise NumericalBlowUpError(
                f"{self.kind} curve integral overflowed on [{a}, {b}]") from exc
        if out is not None and not math.isfinite(out):
            raise NumericalBlowUpError(f"{self.kind} curve integral on [{a}, {b}] is {out}")
        return out

    def _integral(self, a: float, b: float) -> float | None:
        return None


class ConstantCurve(ScalarCurve):
    kind = "constant"

    def __init__(self, value: float, derivative_budget: int = DEFAULT_BUDGET):
        super().__init__(derivative_budget)
        self.value = float(value)

    def _eval(self, tau, q):
        return self.value if q == 0 else 0.0

    def _integral(self, a, b):
        """v (b - a)."""
        return self.value * (b - a)


class PolynomialCurve(ScalarCurve):
    """f(tau) = sum_k coeffs[k] * tau^k (coefficients in ascending powers)."""

    kind = "polynomial"

    def __init__(self, coeffs, derivative_budget: int = DEFAULT_BUDGET):
        super().__init__(derivative_budget)
        self.coeffs = [float(c) for c in coeffs]

    def _eval(self, tau, q):
        if q >= len(self.coeffs):
            return 0.0
        out = 0.0
        for k in range(len(self.coeffs) - 1, q - 1, -1):
            out = out * tau + self.coeffs[k] * math.perm(k, q)
        return out

    def _integral(self, a, b):
        """The antiderivative's difference, written as its Taylor series about
        the midpoint m with half-width h = (b - a)/2: the sum over even q of
        2 f^(q)(m) h^(q+1) / (q+1)!, so no two large antiderivative values
        cancel when the interval is short and far from 0."""
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return 2.0 * math.fsum(self._eval(mid, q) * half ** (q + 1) / math.factorial(q + 1)
                               for q in range(0, len(self.coeffs), 2))


class TrigCurve(ScalarCurve):
    """f(tau) = offset + amp * cos(omega * tau + phase)."""

    kind = "trig"

    def __init__(self, amp: float, omega: float, phase: float = 0.0,
                 offset: float = 0.0, derivative_budget: int = DEFAULT_BUDGET):
        super().__init__(derivative_budget)
        self.amp = float(amp)
        self.omega = float(omega)
        self.phase = float(phase)
        self.offset = float(offset)

    def _eval(self, tau, q):
        val = self.amp * self.omega**q * math.cos(self.omega * tau + self.phase + q * math.pi / 2)
        return val + self.offset if q == 0 else val

    def _integral(self, a, b):
        """offset (b - a) + (2 amp / omega) cos(omega (a + b)/2 + phase)
        sin(omega (b - a)/2), the product form of sin(omega b + phase) -
        sin(omega a + phase), which cancels on a short interval; at omega = 0
        it is (offset + amp cos(phase)) (b - a)."""
        if self.omega == 0.0:
            return (self.offset + self.amp * math.cos(self.phase)) * (b - a)
        return (self.offset * (b - a)
                + 2.0 * self.amp / self.omega * math.cos(0.5 * self.omega * (a + b) + self.phase)
                * math.sin(0.5 * self.omega * (b - a)))


class ExpCurve(ScalarCurve):
    """f(tau) = amp * exp(rate * tau)."""

    kind = "exp"

    def __init__(self, amp: float, rate: float, derivative_budget: int = DEFAULT_BUDGET):
        super().__init__(derivative_budget)
        self.amp = float(amp)
        self.rate = float(rate)

    def _eval(self, tau, q):
        return self.amp * self.rate**q * math.exp(self.rate * tau)

    def _integral(self, a, b):
        """amp e^(rate a) expm1(rate (b - a)) / rate, anchored instead at
        whichever endpoint has the larger exponent (there the sign flips), so
        that expm1 sees a non-positive argument and only a result past the
        float range overflows; amp (b - a) at rate = 0."""
        if self.rate == 0.0:
            return self.amp * (b - a)
        top, other, sign = (a, b, 1.0) if self.rate * a >= self.rate * b else (b, a, -1.0)
        return (sign * self.amp * math.exp(self.rate * top)
                * math.expm1(self.rate * (other - top)) / self.rate)


# ---------------------------------------------------------------------------
# Bump function: b(s) = exp(-1/s) for s > 0, and the C^inf ramp
# c(t) = int_0^t b(s) b(1-s) ds / int_0^1 b(s) b(1-s) ds.
#
# Both integrals use one fixed 64-point Gauss-Legendre rule on [0, t].  The
# integrand is smooth and flat at both ends; against adaptive quadrature
# (scipy's quad at epsabs 1e-15, epsrel 1e-14) the ramp agrees to about
# 1.3e-15 absolute over (0, 1), and 32 points would leave 8.5e-11.
# ---------------------------------------------------------------------------

_GAUSS_POINTS = 64


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GAUSS_POINTS)


def _kernel_integral(tau: float) -> float:
    """int_0^tau b(s) b(1-s) ds for 0 < tau <= 1."""
    x, w = _gauss_legendre()
    s = 0.5 * tau * (x + 1.0)  # Gauss nodes lie strictly inside (0, tau)
    return 0.5 * tau * math.fsum(w * np.exp(-1.0 / s - 1.0 / (1.0 - s)))


@lru_cache(maxsize=1)
def _bump_norm() -> float:
    return _kernel_integral(1.0)


@lru_cache(maxsize=None)
def _kernel_deriv_poly(q: int) -> tuple[tuple[int, int, float], ...]:
    """Polynomial Q_q with g^(q)(s) = Q_q(x, y) g(s), x = 1/s, y = 1/(1-s).

    Uses dx/ds = -x^2, dy/ds = y^2 and (log g)' = x^2 - y^2.
    """
    if q == 0:
        return ((0, 0, 1.0),)
    prev = _kernel_deriv_poly(q - 1)
    acc: dict[tuple[int, int], float] = {}

    def add(i, j, c):
        acc[(i, j)] = acc.get((i, j), 0.0) + c

    for i, j, c in prev:
        if i:
            add(i + 1, j, -i * c)
        if j:
            add(i, j + 1, j * c)
        add(i + 2, j, c)
        add(i, j + 2, -c)
    return tuple((i, j, c) for (i, j), c in sorted(acc.items()) if c != 0.0)


def _kernel_deriv(s: float, q: int) -> float:
    """q-th derivative of g(s) = b(s) b(1-s); identically 0 outside (0, 1)."""
    if s <= 0.0 or s >= 1.0:
        return 0.0
    lx = -math.log(s)
    ly = -math.log(1.0 - s)
    base = -1.0 / s - 1.0 / (1.0 - s)
    total = 0.0
    for i, j, c in _kernel_deriv_poly(q):
        total += math.copysign(math.exp(math.log(abs(c)) + i * lx + j * ly + base), c)
    return total


@lru_cache(maxsize=1 << 16)
def bump_c(tau: float) -> float:
    """The smooth ramp c: 0 for tau <= 0, 1 for tau >= 1, strictly rising between."""
    if tau <= 0.0:
        return 0.0
    if tau >= 1.0:
        return 1.0
    return _kernel_integral(tau) / _bump_norm()


def bump_c_deriv(tau: float, q: int) -> float:
    if q == 0:
        return bump_c(tau)
    return _kernel_deriv(tau, q - 1) / _bump_norm()


class _TaylorBumpCurve(ScalarCurve):
    """(Taylor polynomial around ``center``) x c(slope * tau + shift).

    The polynomial coefficients are derivative values of the glued curve at
    the window edge; derivatives of the product follow the Leibniz rule.
    """

    kind = "taylor-bump"

    def __init__(self, derivs, center: float, slope: float, shift: float,
                 derivative_budget: int):
        super().__init__(derivative_budget)
        self.derivs = [float(d) for d in derivs]
        self.center = float(center)
        self.slope = float(slope)
        self.shift = float(shift)

    def _poly_deriv(self, tau: float, r: int) -> float:
        dt = tau - self.center
        out = 0.0
        for k in range(len(self.derivs) - 1, r - 1, -1):
            out = out * dt + self.derivs[k] / math.factorial(k - r)
        return out

    def _bump_deriv(self, tau: float, r: int) -> float:
        return self.slope**r * bump_c_deriv(self.slope * tau + self.shift, r)

    def _eval(self, tau, q):
        total = 0.0
        for r in range(q + 1):
            total += math.comb(q, r) * self._poly_deriv(tau, r) * self._bump_deriv(tau, q - r)
        return total


class PeriodicExtensionCurve(ScalarCurve):
    """2t-periodic extension of a scalar curve defined on [0, t].

    Equal to the input on [0, t], identically zero on [4t/3, 5t/3], and glued
    by (Taylor polynomial) x (bump ramp) on the two transition windows.  The
    Taylor polynomials are centered on the window edges they continue (t for
    the falling window, 2t for the rising one) so that the extension is
    C^(p+2) across every seam including the periodic wrap at 2t.
    """

    kind = "periodic-extension"

    def __init__(self, base: ScalarCurve, t_end: float, order: int):
        budget = order + 2
        if base.derivative_budget < budget:
            raise InvalidInputError(
                f"input curve budget {base.derivative_budget} < required {budget}"
            )
        super().__init__(budget)
        if t_end <= 0:
            raise InvalidInputError("window end must be positive")
        self.base = base
        self.t_end = float(t_end)
        self.order = int(order)
        self.period = 2.0 * self.t_end
        t = self.t_end
        derivs_t = [base.eval(t, k) for k in range(budget + 1)]
        derivs_0 = [base.eval(0.0, k) for k in range(budget + 1)]
        # falling window (t, 4t/3): ramp argument 7 - 6 tau / t
        self._fall = _TaylorBumpCurve(derivs_t, t, -6.0 / t, 7.0, budget)
        # rising window (5t/3, 2t): ramp argument 6 tau / t - 11, centered at 2t
        self._rise = _TaylorBumpCurve(derivs_0, 2.0 * t, 6.0 / t, -11.0, budget)

    def _eval(self, tau, q):
        t = self.t_end
        tau = tau - self.period * math.floor(tau / self.period)
        if tau <= t:
            return self.base.eval(tau, q)
        if tau < 4.0 * t / 3.0:
            return self._fall.eval(tau, q)
        if tau <= 5.0 * t / 3.0:
            return 0.0
        return self._rise.eval(tau, q)


def extrapolate_scalar(curve: ScalarCurve, t_end: float, order: int) -> PeriodicExtensionCurve:
    """Periodic C^(order+2) extension of ``curve`` beyond its window [0, t_end]."""
    return PeriodicExtensionCurve(curve, t_end, order)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------

def curve_from_descriptor(desc: dict, field: str = "curve") -> ScalarCurve:
    """Build a curve from its JSON descriptor, e.g. {"kind": "trig", "amp": ...}."""
    if not isinstance(desc, dict):
        raise SchemaError(field, "expected a curve descriptor object")
    kind = one_of(desc.get("kind"), f"{field}.kind", ("constant", "polynomial", "trig", "exp"))
    budget = integer(desc.get("derivative_budget", DEFAULT_BUDGET),
                     f"{field}.derivative_budget", 0)
    if kind == "constant":
        return ConstantCurve(number(required(desc, "value", field), f"{field}.value"), budget)
    if kind == "polynomial":
        return PolynomialCurve(list_of(required(desc, "coeffs", field), f"{field}.coeffs",
                                       number), budget)
    if kind == "trig":
        return TrigCurve(number(required(desc, "amp", field), f"{field}.amp"),
                         number(required(desc, "omega", field), f"{field}.omega"),
                         number(desc.get("phase", 0.0), f"{field}.phase"),
                         number(desc.get("offset", 0.0), f"{field}.offset"), budget)
    return ExpCurve(number(required(desc, "amp", field), f"{field}.amp"),
                    number(required(desc, "rate", field), f"{field}.rate"), budget)

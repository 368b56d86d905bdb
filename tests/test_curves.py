import math

import numpy as np
import pytest

from tdpf.curves import (ConstantCurve, ExpCurve, PolynomialCurve, TrigCurve,
                         bump_c, bump_c_deriv, curve_from_descriptor,
                         extrapolate_scalar)
from tdpf.errors import BudgetExceededError, InvalidInputError, SchemaError

ALL_KINDS = [
    ConstantCurve(1.7),
    PolynomialCurve([0.2, -1.0, 0.5, 2.0]),
    TrigCurve(amp=0.9, omega=2.3, phase=0.4, offset=0.3),
    ExpCurve(amp=1.1, rate=-0.8),
]


def central_diff(curve, tau, q, h=1e-4):
    return (curve.eval(tau + h, q - 1) - curve.eval(tau - h, q - 1)) / (2 * h)


class TestEval:
    def test_constant_derivative(self):
        assert ConstantCurve(3.0).eval(0.7, 1) == 0.0

    def test_cos_second_derivative(self):
        # -omega^2 cos(0) at omega = 2
        assert TrigCurve(1.0, 2.0).eval(0.0, 2) == pytest.approx(-4.0, abs=1e-12)

    def test_cubic_third_derivative(self):
        assert PolynomialCurve([0, 0, 0, 1]).eval(2.0, 3) == pytest.approx(6.0)

    def test_budget_error(self):
        curve = ConstantCurve(1.0, derivative_budget=3)
        with pytest.raises(BudgetExceededError):
            curve.eval(0.0, 4)

    @pytest.mark.parametrize("curve", ALL_KINDS, ids=lambda c: c.kind)
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_derivatives_match_finite_differences(self, curve, q):
        for tau in (0.1, 0.45, 0.8):
            exact = curve.eval(tau, q)
            approx = central_diff(curve, tau, q)
            assert exact == pytest.approx(approx, rel=1e-6, abs=1e-6)


class TestBump:
    def test_endpoints(self):
        assert bump_c(0.0) == 0.0
        assert bump_c(-2.0) == 0.0
        assert bump_c(1.0) == 1.0
        assert bump_c(3.0) == 1.0

    def test_midpoint_by_symmetry(self):
        # the integrand b(s) b(1-s) is symmetric about s = 1/2
        assert bump_c(0.5) == pytest.approx(0.5, abs=1e-10)

    def test_monotone(self):
        taus = np.linspace(0.0, 1.0, 1000)
        vals = [bump_c(t) for t in taus]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_complement_identity(self):
        for tau in (0.1, 0.3, 0.7):
            assert bump_c(tau) + bump_c(1.0 - tau) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_derivatives_match_finite_differences(self, q):
        for tau in (0.2, 0.5, 0.8):
            exact = bump_c_deriv(tau, q)
            h = 1e-5
            approx = (bump_c_deriv(tau + h, q - 1) - bump_c_deriv(tau - h, q - 1)) / (2 * h)
            assert exact == pytest.approx(approx, rel=1e-5, abs=1e-7)

    def test_gauss_legendre_matches_adaptive_quadrature(self):
        from scipy.integrate import quad

        from tdpf.curves import _bump_norm

        def kernel(s):
            return math.exp(-1.0 / s - 1.0 / (1.0 - s)) if 0.0 < s < 1.0 else 0.0

        norm, _ = quad(kernel, 0.0, 1.0, epsabs=1e-15, epsrel=1e-14, limit=200)
        assert _bump_norm() == pytest.approx(norm, rel=1e-14, abs=0.0)
        taus = np.concatenate([np.linspace(0.0, 1.0, 202)[1:-1],
                               [1e-3, 0.01, 0.05, 0.95, 0.99, 0.999]])
        for tau in taus:
            val, _ = quad(kernel, 0.0, tau, epsabs=1e-15, epsrel=1e-14, limit=200)
            assert abs(bump_c(tau) - val / norm) <= 1e-14, tau

    def test_flat_outside(self):
        for q in (1, 2, 5):
            assert bump_c_deriv(-0.1, q) == 0.0
            assert bump_c_deriv(1.1, q) == 0.0


class TestPeriodicExtension:
    def setup_method(self):
        self.base = TrigCurve(amp=0.7, omega=1.3, phase=0.2, offset=0.4)
        self.t = 0.8
        self.order = 2
        self.ext = extrapolate_scalar(self.base, self.t, self.order)

    def test_matches_base_on_window(self):
        for tau in np.linspace(0.0, self.t, 37):
            assert self.ext.eval(tau) == self.base.eval(tau)

    def test_zero_on_middle_third(self):
        t = self.t
        for tau in np.linspace(4 * t / 3, 5 * t / 3, 11):
            assert self.ext.eval(tau) == 0.0

    def test_periodic(self):
        for tau in np.linspace(0.0, 2 * self.t, 41):
            assert self.ext.eval(tau) == pytest.approx(
                self.ext.eval(tau + 2 * self.t), abs=1e-12)

    @pytest.mark.parametrize("q", range(0, 5))  # up to order p + 2 = 4
    def test_smooth_across_seams(self, q):
        t, eps = self.t, 1e-7
        for seam in (t, 4 * t / 3, 5 * t / 3, 2 * t):
            left = self.ext.eval(seam - eps, q)
            right = self.ext.eval(seam + eps, q)
            scale = max(1.0, abs(left), abs(right))
            assert abs(left - right) / scale < 1e-5

    def test_budget_is_order_plus_two(self):
        assert self.ext.derivative_budget == self.order + 2
        with pytest.raises(BudgetExceededError):
            self.ext.eval(0.3, self.order + 3)

    def test_requires_budget(self):
        starved = TrigCurve(1.0, 1.0, derivative_budget=2)
        with pytest.raises(InvalidInputError):
            extrapolate_scalar(starved, 1.0, 2)

    def test_fourier_tail_scaled_sequence_bounded(self):
        # coefficients of the C^(p+2) extension decay like |m|^-(p+2): the
        # scaled sequence |m|^(p+2) |c_m| must not grow with m
        period = 2 * self.t
        n_samp = 4096
        taus = np.arange(n_samp) * period / n_samp
        vals = np.array([self.ext.eval(tau) for tau in taus])
        power = self.order + 2
        scaled = {}
        for m in range(1, 65):
            coeff = np.mean(vals * np.exp(2j * math.pi * m * taus / period))
            scaled[m] = m**power * abs(coeff)
        head = max(scaled[m] for m in range(1, 33))
        tail = max(scaled[m] for m in range(33, 65))
        assert tail <= 1.5 * head + 1e-12


# one literal descriptor per kind, describing the matching ALL_KINDS curve
DESCRIPTORS = [
    {"kind": "constant", "value": 1.7},
    {"kind": "polynomial", "coeffs": [0.2, -1.0, 0.5, 2.0]},
    {"kind": "trig", "amp": 0.9, "omega": 2.3, "phase": 0.4, "offset": 0.3},
    {"kind": "exp", "amp": 1.1, "rate": -0.8},
]


class TestDescriptors:
    @pytest.mark.parametrize("desc, curve", zip(DESCRIPTORS, ALL_KINDS),
                             ids=[d["kind"] for d in DESCRIPTORS])
    def test_round_trip(self, desc, curve):
        clone = curve_from_descriptor(desc)
        assert clone.kind == curve.kind
        for tau in (0.0, 0.3, 1.1):
            for q in (0, 1, 2):
                assert clone.eval(tau, q) == curve.eval(tau, q)

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as err:
            curve_from_descriptor({"kind": "wavelet"})
        assert "kind" in str(err.value)

    def test_missing_field_names_path(self):
        with pytest.raises(SchemaError) as err:
            curve_from_descriptor({"kind": "trig", "amp": 1.0}, field="terms[0].curve")
        assert "terms[0].curve.omega" in str(err.value)

    def test_bad_number(self):
        with pytest.raises(SchemaError):
            curve_from_descriptor({"kind": "constant", "value": "large"})

    @pytest.mark.parametrize("desc, named", [
        ({"kind": "constant", "value": float("nan")}, "value"),
        ({"kind": "exp", "amp": float("inf"), "rate": 1.0}, "amp"),
        ({"kind": "trig", "amp": 1.0, "omega": 2.0, "phase": float("nan")}, "phase"),
        ({"kind": "trig", "amp": 1.0, "omega": 2.0, "offset": "0.3"}, "offset"),
        ({"kind": "polynomial", "coeffs": [1.0, float("-inf")]}, "coeffs"),
    ], ids=["constant-nan", "exp-inf", "trig-phase-nan", "trig-offset-string",
            "polynomial-inf"])
    def test_non_finite_number_is_a_schema_error(self, desc, named):
        with pytest.raises(SchemaError) as err:
            curve_from_descriptor(desc)
        assert err.value.field == f"curve.{named}"

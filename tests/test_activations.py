"""Activation values, derivatives, effective domains and clamping."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segact import (ACTIVATION_ORDER, EffectiveDomain, Linear,
                    clamp_probability, make_activation)
from segact.exceptions import DegenerateBoundsWarning

SMOOTH = ("cdf", "sigmoid", "isqrt", "arctan", "softsign")
EPSILON = 0.0025


def act(name, **kwargs):
    return make_activation(name, **kwargs)


class TestPointValues:
    def test_symmetric_kinds_are_half_at_zero(self):
        for name in SMOOTH:
            assert act(name)(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_sigmoid_and_isqrt_at_three(self):
        assert 0.9525 <= act("sigmoid")(3.0) <= 0.9527
        assert 0.9742 <= act("isqrt")(3.0) <= 0.9744

    def test_softsign_at_minus_six_is_one_fourteenth(self):
        assert act("softsign")(-6.0) == pytest.approx(1.0 / 14.0, abs=1e-12)

    def test_hardtanh_piecewise(self):
        h = act("hardtanh")
        assert h(-0.5) == 0.0
        assert h(0.25) == 0.25
        assert h(1.5) == 1.0
        assert h(0.0) == 0.0  # by the piecewise definition, not 1/2

    def test_linear_midpoint_of_context(self):
        assert act("linear")(4.0, bounds=(2.0, 6.0)) == 0.5

    def test_accepts_arrays(self):
        x = np.array([-1.0, 0.0, 2.0])
        out = act("sigmoid")(x)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5)


class TestDerivatives:
    def test_sigmoid_derivative_at_zero(self):
        assert act("sigmoid").derivative(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_arctangent_derivative_at_zero(self):
        assert act("arctan").derivative(0.0) == \
            pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_normal_cdf_derivative_at_zero_vs_erf_oracle(self):
        # Central difference of 0.5 erf(x / sqrt 2) + 0.5 via math.erf.
        h = 1e-6
        phi = lambda v: 0.5 * math.erf(v / math.sqrt(2.0)) + 0.5
        fd = (phi(h) - phi(-h)) / (2.0 * h)
        analytic = act("cdf").derivative(0.0)
        assert analytic == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                         abs=1e-12)
        assert analytic == pytest.approx(fd, rel=1e-9)

    def test_hardtanh_derivative_convention(self):
        h = act("hardtanh")
        assert h.derivative(0.0) == 1.0
        assert h.derivative(1.0) == 1.0
        assert h.derivative(0.5) == 1.0
        assert h.derivative(-0.1) == 0.0
        assert h.derivative(1.1) == 0.0

    @pytest.mark.parametrize("name", SMOOTH)
    def test_smooth_derivatives_match_finite_differences(self, name):
        a = act(name)
        dom = a.effective_domain(EPSILON)
        x = np.linspace(dom.lo, dom.hi, 200)
        h = 1e-5
        fd = (a(x + h) - a(x - h)) / (2.0 * h)
        analytic = a.derivative(x)
        rel = np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic))
        assert rel.max() < 1e-5

    def test_hardtanh_derivative_away_from_kinks(self):
        a = act("hardtanh")
        x = np.concatenate([
            np.linspace(-2.0, -1e-3, 50),
            np.linspace(1e-3, 1.0 - 1e-3, 50),
            np.linspace(1.0 + 1e-3, 2.0, 50),
        ])
        h = 1e-5
        fd = (a(x + h) - a(x - h)) / (2.0 * h)
        np.testing.assert_allclose(a.derivative(x), fd, atol=1e-6)


class TestSymmetryAndMonotonicity:
    @pytest.mark.parametrize("name", SMOOTH)
    def test_symmetry(self, name):
        a = act(name)
        x = np.linspace(-50.0, 50.0, 2001)
        np.testing.assert_allclose(a(x) + a(-x), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", SMOOTH)
    def test_strictly_increasing_on_effective_domain(self, name):
        # Strict monotonicity holds mathematically on all of R, but in
        # float64 the CDF and sigmoid saturate to exactly 1.0 in the far
        # tails; the effective domain is where increments are resolvable.
        a = act(name)
        dom = a.effective_domain(EPSILON)
        x = np.linspace(dom.lo, dom.hi, 4001)
        assert np.all(np.diff(a(x)) > 0.0)

    @pytest.mark.parametrize("name", SMOOTH)
    def test_nondecreasing_everywhere(self, name):
        a = act(name)
        x = np.linspace(-500.0, 500.0, 4001)
        assert np.all(np.diff(a(x)) >= 0.0)

    def test_hardtanh_and_linear_nondecreasing(self):
        x = np.linspace(-3.0, 3.0, 601)
        assert np.all(np.diff(act("hardtanh")(x)) >= 0.0)
        assert np.all(np.diff(act("linear")(x, bounds=(-1.0, 1.0))) >= 0.0)

    @pytest.mark.parametrize("name", ACTIVATION_ORDER)
    def test_range(self, name):
        a = act(name)
        x = np.linspace(-500.0, 500.0, 2001)
        out = a(x, bounds=(-1.0, 1.0)) if name == "linear" else a(x)
        assert out.min() >= 0.0 and out.max() <= 1.0

    @given(st.floats(min_value=-1e6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_sigmoid_in_unit_interval(self, x):
        p = act("sigmoid")(x)
        assert 0.0 <= p <= 1.0


class TestEffectiveDomains:
    def test_golden_domains_at_standard_epsilon(self):
        expected = {"cdf": 3, "sigmoid": 6, "isqrt": 10,
                    "arctan": 128, "softsign": 199}
        for name, hi in expected.items():
            dom = act(name).effective_domain(EPSILON)
            assert dom.hi == hi and dom.lo == -hi
            assert dom.rounded
            assert float(dom.hi).is_integer()

    def test_arctangent_exact_root(self):
        # Root of arctan(x)/pi + 1/2 = 0.9975 is tan(0.4975 pi) = 127.3195...
        dom = act("arctan").effective_domain(EPSILON)
        assert dom.hi_exact == pytest.approx(math.tan(0.4975 * math.pi),
                                             abs=1e-6)
        assert dom.hi == 128.0

    def test_softsign_exact_integer_root(self):
        # 0.995 / 0.005 = 199 exactly; ceil must not overshoot to 200.
        dom = act("softsign").effective_domain(EPSILON)
        assert dom.hi == 199.0
        assert dom.hi_exact == pytest.approx(199.0, abs=1e-6)

    def test_roots_solve_the_equation(self):
        for name in SMOOTH:
            a = act(name)
            dom = a.effective_domain(EPSILON)
            assert a(dom.hi_exact) == pytest.approx(1.0 - EPSILON, abs=1e-9)
            assert a(dom.lo_exact) == pytest.approx(EPSILON, abs=1e-9)

    def test_ordering_reproduces_catalogue(self):
        his = [act(name).effective_domain(EPSILON).hi for name in SMOOTH]
        assert his == sorted(his)
        assert his == [3.0, 6.0, 10.0, 128.0, 199.0]

    def test_special_cases(self):
        dom = act("hardtanh").effective_domain(EPSILON)
        assert (dom.lo, dom.hi, dom.rounded) == (0.0, 1.0, False)
        dom = act("linear", bounds=(-2.5, 4.0)).effective_domain(EPSILON)
        assert (dom.lo, dom.hi) == (-2.5, 4.0)
        with pytest.raises(ValueError):
            act("linear").effective_domain(EPSILON)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            act("sigmoid").effective_domain(0.0)
        with pytest.raises(ValueError):
            act("sigmoid").effective_domain(0.5)

    def test_domain_type_invariants(self):
        with pytest.raises(ValueError):
            EffectiveDomain(lo=1.0, hi=1.0, epsilon=0.1, rounded=False,
                            lo_exact=1.0, hi_exact=1.0)


class TestClamp:
    def test_interior_point_unchanged(self):
        assert clamp_probability(0.5) == 0.5

    def test_extremes(self):
        assert clamp_probability(0.0) == 1e-7
        assert clamp_probability(1.0) == 1.0 - 1e-7

    def test_array_range(self):
        rng = np.random.default_rng(3)
        p = clamp_probability(rng.uniform(-0.5, 1.5, 1000))
        assert p.min() >= 1e-7 and p.max() <= 1.0 - 1e-7

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            clamp_probability(float("nan"))
        with pytest.raises(FloatingPointError):
            clamp_probability([0.2, float("inf")])


class TestLinearContext:
    def test_explicit_context(self):
        lin = act("linear")
        x = np.array([2.0, 4.0, 6.0, 8.0])
        np.testing.assert_allclose(lin(x, bounds=(2.0, 6.0)),
                                   [0.0, 0.5, 1.0, 1.0])

    def test_derivative_inside_and_outside(self):
        lin = act("linear")
        assert lin.derivative(3.0, bounds=(2.0, 6.0)) == 0.25
        assert lin.derivative(7.0, bounds=(2.0, 6.0)) == 0.0

    def test_invalid_context_rejected(self):
        with pytest.raises(ValueError):
            act("linear")(1.0, bounds=(3.0, 2.0))

    def test_degenerate_context_warns_and_pins_half(self):
        with pytest.warns(DegenerateBoundsWarning):
            out = act("linear")(np.array([1.0, 1.0]), bounds=(1.0, 1.0))
        np.testing.assert_allclose(out, 0.5)

    def test_context_derived_from_data(self):
        lin = act("linear")
        x = np.array([0.0, 5.0, 10.0])
        np.testing.assert_allclose(lin(x), [0.0, 0.5, 1.0])

    def test_scope_controls_training_bounds(self):
        logits = np.array([[0.0, 2.0], [4.0, 8.0]])
        lo, hi = Linear(scope="batch").training_bounds(logits)
        assert (lo, hi) == (0.0, 8.0)
        lo, hi = Linear(scope="image").training_bounds(logits)
        np.testing.assert_allclose(lo.ravel(), [0.0, 4.0])
        np.testing.assert_allclose(hi.ravel(), [2.0, 8.0])

    def test_default_scope_is_the_estimators(self):
        from segact import PixelClassifier
        assert Linear().scope == "batch"
        assert act("linear").scope == PixelClassifier().linear_scope

    def test_evaluation_bounds_are_per_image(self):
        logits = np.array([[0.0, 2.0], [4.0, 8.0]])
        lo, hi = Linear(scope="batch").evaluation_bounds(logits)
        np.testing.assert_allclose(lo.ravel(), [0.0, 4.0])
        np.testing.assert_allclose(hi.ravel(), [2.0, 8.0])

    def test_fixed_bounds_take_precedence(self):
        lin = Linear(bounds=(-2.0, 2.0))
        logits = np.array([[0.0, 1.0], [3.0, 8.0]])
        assert lin.training_bounds(logits) == (-2.0, 2.0)
        assert lin.evaluation_bounds(logits) == (-2.0, 2.0)


def test_registry_and_aliases():
    assert make_activation("arctangent").name == "arctan"
    assert make_activation("inverse_square_root").name == "isqrt"
    existing = make_activation("sigmoid")
    assert make_activation(existing) is existing
    with pytest.raises(ValueError):
        make_activation("swish")


def test_catalogue_order_covers_all_kinds():
    assert len(ACTIVATION_ORDER) == 7
    labels = [make_activation(n).label for n in ACTIVATION_ORDER]
    assert labels[0] == "normal CDF" and labels[-1] == "hardtanh"

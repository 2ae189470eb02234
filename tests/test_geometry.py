import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdomd.errors import GeometryError
from pdomd.geometry import (
    Box,
    DecisionSet,
    EuclideanGeometry,
    NegativeEntropyGeometry,
    Simplex,
    mirror_step,
    mix_toward_uniform,
)
from reference import certified_prox, member, pushback_check

EUCLID = EuclideanGeometry()
ENTROPY = NegativeEntropyGeometry()

# Frozen by direct high-precision evaluation of the divergence sums.
KL_HALF_QUARTER = 0.14384103622589045  # 0.5*ln 2 + 0.5*ln(2/3)
LN2 = 0.6931471805599453


def unit_box(d):
    return Box(np.zeros(d), np.ones(d))


class TestDivergence:
    def test_kl_frozen_values(self):
        x = np.array([0.5, 0.5])
        y = np.array([0.25, 0.75])
        assert abs(ENTROPY.divergence(x, y) - KL_HALF_QUARTER) < 1e-12
        x = np.array([1.0, 0.0])
        y = np.array([0.5, 0.5])
        assert abs(ENTROPY.divergence(x, y) - LN2) < 1e-12

    def test_euclidean_value(self):
        x = np.array([1.0, 2.0])
        y = np.zeros(2)
        assert EUCLID.divergence(x, y) == 2.5

    def test_self_divergence_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5))
            assert ENTROPY.divergence(p, p) == 0.0
            v = rng.normal(size=5)
            assert EUCLID.divergence(v, v) == 0.0

    def test_errors(self):
        with pytest.raises(GeometryError):
            EUCLID.divergence(np.zeros(2), np.zeros(3))
        with pytest.raises(GeometryError):
            ENTROPY.divergence(np.array([0.5, 0.5]), np.array([0.5, 0.0]))
        with pytest.raises(GeometryError):
            ENTROPY.divergence(np.array([-0.1, 1.1]), np.array([0.5, 0.5]))

    def test_pinsker(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(2, 11))
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            kl = ENTROPY.divergence(p, q)
            l1 = np.abs(p - q).sum()
            assert kl >= 0.5 * l1 * l1 - 1e-12

    def test_strong_convexity_euclidean(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            x = rng.normal(size=d)
            y = rng.normal(size=d)
            div = EUCLID.divergence(x, y)
            assert div >= 0.5 * np.linalg.norm(x - y) ** 2 - 1e-12


class TestExponentiatedGradient:
    """The (simplex, negative entropy) closed form, through `mirror_step`
    with prox weight 1, so the coefficients reach it unscaled."""

    def test_frozen_example(self):
        out = mirror_step(ENTROPY, Simplex(2), np.array([0.5, 0.5]), np.array([np.log(2.0), 0.0]), 1.0)
        assert np.max(np.abs(out - np.array([1.0 / 3.0, 2.0 / 3.0]))) < 1e-12

    def test_zero_coeffs_identity(self):
        base = np.array([0.5, 0.5])
        out = mirror_step(ENTROPY, Simplex(2), base, np.zeros(2), 1.0)
        assert np.array_equal(out, base)

    def test_shift_invariance_exact(self):
        # Inputs on a 2^-20 lattice so the caller-side shift is exact in
        # floating point; the step must then be bit-identical.
        rng = np.random.default_rng(3)
        scale = 2.0 ** -20
        for _ in range(300):
            d = int(rng.integers(2, 11))
            base = rng.dirichlet(np.ones(d))
            p = np.round(rng.uniform(-8, 8, size=d) / scale) * scale
            c = float(np.round(rng.uniform(-8, 8) / scale) * scale)
            a = mirror_step(ENTROPY, Simplex(d), base, p, 1.0)
            b = mirror_step(ENTROPY, Simplex(d), base, p + c, 1.0)
            assert np.array_equal(a, b)

    def test_overflow_safe(self):
        base = np.array([0.5, 0.5])
        with np.errstate(over="raise"):
            out = mirror_step(ENTROPY, Simplex(2), base, np.array([0.0, 1e6]), 1.0)
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12
        assert out[0] > 0.999

    def test_errors(self):
        with pytest.raises(GeometryError, match="strictly positive base"):
            mirror_step(ENTROPY, Simplex(2), np.array([1.0, 0.0]), np.zeros(2), 1.0)
        with pytest.raises(GeometryError, match="coefficients must be finite"):
            mirror_step(ENTROPY, Simplex(2), np.array([0.5, 0.5]), np.array([np.inf, 0.0]), 1.0)


class TestMirrorStep:
    def test_simplex_entropy_example(self):
        out = mirror_step(ENTROPY, Simplex(2), np.array([0.5, 0.5]), np.array([np.log(2.0), 0.0]), 1.0)
        assert np.max(np.abs(out - np.array([1.0 / 3.0, 2.0 / 3.0]))) < 1e-12

    def test_simplex_entropy_grid_oracle(self):
        # One-dimensional grid search over the prox objective at 1e-4.
        y = np.array([0.5, 0.5])
        p = np.array([np.log(2.0), 0.0])
        a = np.linspace(1e-9, 1.0 - 1e-9, 10001)
        mu = np.stack([a, 1.0 - a], axis=1)
        kl = np.sum(mu * np.log(mu / y), axis=1)
        objective = mu @ p + kl
        best = a[int(np.argmin(objective))]
        out = mirror_step(ENTROPY, Simplex(2), y, p, 1.0)
        assert abs(out[0] - best) < 2e-4
        assert abs(best - 1.0 / 3.0) < 2e-4

    def test_box_euclid_example(self):
        box = Box(np.zeros(2), np.full(2, 30.0))
        out = mirror_step(EUCLID, box, np.array([5.0, 5.0]), np.array([2.0, -2.0]), 1.0)
        assert np.array_equal(out, np.array([3.0, 7.0]))

    def test_scaling_invariance(self):
        rng = np.random.default_rng(4)
        box = Box(np.zeros(3), np.full(3, 2.0))
        for _ in range(20):
            y = member(box, rng)
            p = rng.normal(size=3)
            out1 = mirror_step(EUCLID, box, y, p, 1.5)
            out2 = mirror_step(EUCLID, box, y, 2.0 * p, 3.0)
            assert np.array_equal(out1, out2)
            s = Simplex(3)
            ys = member(s, rng)
            o1 = mirror_step(ENTROPY, s, ys, p, 1.5)
            o2 = mirror_step(ENTROPY, s, ys, 2.0 * p, 3.0)
            assert np.array_equal(o1, o2)

    def test_fallback_matches_entropy_closed_form(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(120):
            d = int(rng.integers(2, 11))
            s = Simplex(d)
            y = rng.dirichlet(np.full(d, 2.0))
            p = rng.uniform(-2.0, 2.0, size=d)
            alpha = float(rng.uniform(2.0, 20.0))
            for geometry in (ENTROPY, EUCLID):
                closed = mirror_step(geometry, s, y, p, alpha)
                numeric = certified_prox(geometry, s, y, p, alpha)
                worst = max(worst, float(np.max(np.abs(closed - numeric))))
        assert worst < 1e-8

    def test_fallback_matches_box_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            box = Box(-rng.uniform(1, 3, size=d), rng.uniform(1, 3, size=d))
            y = member(box, rng)
            p = rng.normal(size=d)
            alpha = float(rng.uniform(0.5, 5.0))
            closed = mirror_step(EUCLID, box, y, p, alpha)
            numeric = certified_prox(EUCLID, box, y, p, alpha)
            assert np.max(np.abs(closed - numeric)) < 1e-9

    def test_euclid_simplex_is_projection(self):
        rng = np.random.default_rng(7)
        s = Simplex(6)
        for _ in range(50):
            y = member(s, rng)
            p = rng.normal(size=6)
            alpha = float(rng.uniform(0.5, 4.0))
            out = mirror_step(EUCLID, s, y, p, alpha)
            assert np.max(np.abs(out - s.project(y - p / alpha))) < 1e-9

    @pytest.mark.parametrize("weight", [0.0, -1.0, np.nan], ids=["zero", "negative", "nan"])
    def test_nonpositive_prox_weight_is_named(self, weight):
        with pytest.raises(GeometryError, match="prox_weight must be positive"):
            mirror_step(EUCLID, Simplex(2), np.array([0.5, 0.5]), np.zeros(2), weight)

    def test_errors(self):
        with pytest.raises(GeometryError):
            mirror_step(EUCLID, Simplex(2), np.array([0.7, 0.7]), np.zeros(2), 1.0)
        with pytest.raises(GeometryError):
            mirror_step(EUCLID, Simplex(2), np.array([0.5, 0.5]), np.zeros(2), 0.0)
        box = Box(np.zeros(2), np.ones(2))
        for decision_set, bad in ((Simplex(2), np.nan), (box, np.nan), (box, np.inf)):
            with pytest.raises(GeometryError):
                mirror_step(EUCLID, decision_set, np.array([0.5, 0.5]), np.array([bad, 0.0]), 1.0)
        # finite coefficients that overflow once divided by the prox weight
        with pytest.raises(GeometryError, match="coefficients must be finite"):
            mirror_step(EUCLID, box, np.array([0.5, 0.5]), np.array([1e308, 0.0]), 1e-10)
        # A NaN coefficient is refused before any step.
        with pytest.raises(GeometryError, match="coefficients must be finite"):
            mirror_step(ENTROPY, Simplex(4), np.full(4, 0.25), np.array([np.nan, -1.0, 2.0, 0.5]), 1.0)

        class Ball(DecisionSet):  # neither a box nor a simplex
            dim = 2
            project = support_minimizer = initial_point = None

            def contains(self, point, tol=0.0):
                return True

        with pytest.raises(GeometryError, match="no closed-form prox for euclidean on a Ball"):
            mirror_step(EUCLID, Ball(), np.array([0.5, 0.5]), np.ones(2), 1.0)
        # entropy on a box has no closed form, as `initial_state` also says
        with pytest.raises(GeometryError, match="no closed-form prox for negative_entropy on a Box"):
            mirror_step(ENTROPY, unit_box(2), np.array([0.5, 0.5]), np.ones(2), 1.0)

    def test_certificate_refuses_a_wrong_point(self, monkeypatch):
        # The certified solve checks its own answer: a bisection that ended
        # off the minimizer, or on NaNs (a NaN gap), fails the gap test.
        coeffs = np.array([1.0, -1.0, 2.0, 0.5])
        for wrong in (np.full(4, 0.25), np.full(4, np.nan)):
            monkeypatch.setattr("reference._bisect_normalisation", lambda g, s: (wrong.copy(), 0))
            with pytest.raises(AssertionError, match="certified prox missed its tolerance"):
                certified_prox(ENTROPY, Simplex(4), np.full(4, 0.25), coeffs, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_certified_prox_property(self, data):
        # The certified solve against an independent closed form on every
        # (set, geometry) pair; entropy on a box needs a positive lower bound.
        d = data.draw(st.integers(1, 12), label="d")
        geometry = data.draw(st.sampled_from([EUCLID, ENTROPY]), label="geometry")
        unit = st.floats(0.0, 1.0)
        if data.draw(st.booleans(), label="box"):
            low = -3.0 if geometry is EUCLID else 0.05
            lower = np.array(data.draw(st.lists(st.floats(low, 2.0), min_size=d, max_size=d)))
            upper = lower + np.array(data.draw(st.lists(st.floats(0.5, 3.0), min_size=d, max_size=d)))
            decision_set = Box(lower, upper)
            frac = np.array(data.draw(st.lists(unit, min_size=d, max_size=d)))
            base = lower + frac * (upper - lower)
        else:
            decision_set = Simplex(d)
            weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
            base = weights / weights.sum()
        scale = data.draw(st.floats(0.0, 50.0), label="scale")
        coeffs = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        alpha = data.draw(st.floats(0.5, 2000.0), label="alpha")

        if isinstance(decision_set, Box) and geometry is ENTROPY:
            closed = decision_set.project(base * np.exp(-coeffs / alpha))
        else:
            closed = mirror_step(geometry, decision_set, base, coeffs, alpha)
        numeric = certified_prox(geometry, decision_set, base, coeffs, alpha)
        assert np.max(np.abs(closed - numeric)) < 1e-9
        assert decision_set.contains(numeric)


class TestMixing:
    def test_example(self):
        out = mix_toward_uniform(np.array([1.0, 0.0]), 0.5)
        assert np.array_equal(out, np.array([0.75, 0.25]))

    def test_zero_weight_identity(self):
        mu = np.array([0.2, 0.8])
        assert np.array_equal(mix_toward_uniform(mu, 0.0), mu)

    def test_floor(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d = int(rng.integers(2, 12))
            theta = float(rng.uniform(1e-6, 0.5))
            mu = rng.dirichlet(np.ones(d) * 0.5)
            mixed = mix_toward_uniform(mu, theta)
            assert np.all(mixed >= theta / d - 1e-15)
            assert abs(mixed.sum() - 1.0) < 1e-12

    def test_divergence_bounds(self):
        # D(m1, mix(m2)) - D(m1, m2) <= theta*log d and D(m1, mix(m2)) <= log(d/theta).
        rng = np.random.default_rng(9)
        for _ in range(1000):
            d = int(rng.integers(2, 11))
            theta = float(rng.uniform(1e-4, 0.9))
            m1 = rng.dirichlet(np.ones(d))
            m2 = rng.dirichlet(np.ones(d))
            mixed = mix_toward_uniform(m2, theta)
            d_mixed = ENTROPY.divergence(m1, mixed)
            d_plain = ENTROPY.divergence(m1, m2)
            assert d_mixed - d_plain <= theta * np.log(d) + 1e-9
            assert d_mixed <= np.log(d / theta) + 1e-9

    def test_errors(self):
        with pytest.raises(GeometryError):
            mix_toward_uniform(np.array([0.5, 0.5]), 1.0)
        with pytest.raises(GeometryError):
            mix_toward_uniform(np.array([0.5, 0.5]), -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_named(self, bad):
        with pytest.raises(GeometryError, match="^point must be finite"):
            mix_toward_uniform(np.array([bad, 1.0]), 0.1)


class TestPushback:
    def test_probe_at_minimizer(self):
        y = np.array([0.5, 0.5])
        p = np.array([np.log(2.0), 0.0])
        res = pushback_check(ENTROPY, Simplex(2), p, y, 1.0, np.array([1.0 / 3.0, 2.0 / 3.0]))
        assert res.holds
        assert abs(res.residual) < 1e-9

    def test_random_probes_entropy(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            d = int(rng.integers(2, 9))
            s = Simplex(d)
            y = rng.dirichlet(np.full(d, 1.5))
            p = rng.uniform(-3, 3, size=d)
            z = member(s, rng)
            res = pushback_check(ENTROPY, s, p, y, float(rng.uniform(0.5, 5.0)), z)
            assert res.holds, res.residual

    def test_random_probes_euclid_box(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            d = int(rng.integers(1, 7))
            box = Box(-rng.uniform(0.5, 2, size=d), rng.uniform(0.5, 2, size=d))
            y = member(box, rng)
            p = rng.normal(size=d) * 2
            z = member(box, rng)
            res = pushback_check(EUCLID, box, p, y, float(rng.uniform(0.5, 5.0)), z)
            assert res.holds, res.residual

    def test_probe_outside_set_raises(self):
        with pytest.raises(GeometryError):
            pushback_check(EUCLID, Simplex(2), np.zeros(2), np.array([0.5, 0.5]), 1.0, np.array([0.7, 0.7]))


class TestDecisionSets:
    def test_membership(self):
        s = Simplex(3)
        assert s.contains(np.array([0.2, 0.3, 0.5]))
        assert not s.contains(np.array([0.2, 0.3, 0.4]))
        assert not s.contains(np.array([-0.1, 0.6, 0.5]))
        assert not s.contains(np.array([np.nan, 0.5, 0.5]))
        b = unit_box(2)
        assert b.contains(np.array([0.0, 1.0]))
        assert not b.contains(np.array([0.0, 1.1]))
        assert not b.contains(np.array([0.5, np.nan]))

    def test_simplex_projection(self):
        rng = np.random.default_rng(12)
        s = Simplex(5)
        for _ in range(200):
            v = rng.normal(size=5) * 3
            p = s.project(v)
            assert s.contains(p, tol=1e-9)
            # Projection optimality: no feasible point is closer.
            for _ in range(5):
                z = member(s, rng)
                assert np.linalg.norm(v - p) <= np.linalg.norm(v - z) + 1e-9
        with pytest.raises(GeometryError, match="onto a 5-simplex"):
            s.project(np.ones(4))

    def test_support_minimizer(self):
        s = Simplex(4)
        g = np.array([0.3, -1.0, 0.2, 0.9])
        assert np.array_equal(s.support_minimizer(g), np.array([0.0, 1.0, 0.0, 0.0]))
        b = Box(np.zeros(2), np.array([2.0, 3.0]))
        assert np.array_equal(b.support_minimizer(np.array([1.0, -1.0])), np.array([0.0, 3.0]))

    def test_initial_points(self):
        assert np.array_equal(Simplex(4).initial_point(), np.full(4, 0.25))
        assert np.array_equal(Simplex(np.int64(4)).initial_point(), np.full(4, 0.25))
        assert np.array_equal(Box(np.zeros(2), np.array([30.0, 10.0])).initial_point(), np.array([15.0, 5.0]))

    @pytest.mark.parametrize("dim", [0, -1, 2.7, 3.0, float("nan"), "3", None])
    def test_simplex_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(GeometryError, match="^simplex dimension must be an integer of at least 1"):
            Simplex(dim)

    def test_box_validation(self):
        with pytest.raises(GeometryError):
            Box(np.array([1.0]), np.array([0.0]))
        with pytest.raises(GeometryError):
            Box(np.array([0.0]), np.array([np.inf]))

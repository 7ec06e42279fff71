from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoper.polynomials import Poly, RatFun, poly_roots, q_distinct, q_shift


class TestQShift:
    def test_constant_invariant(self):
        p = Poly([1.0])
        assert q_shift(p, 0.3 + 0.1j) == p

    def test_monomial_scaling(self):
        p = Poly([0, 0, 1.0])  # z^2
        assert q_shift(p, 2.0).coeffs == (0, 0, 4.0)

    def test_quadratic_at_i(self):
        # z^2 + 3z + 1 at q = i: -z^2 + 3i z + 1
        p = Poly([1.0, 3.0, 1.0])
        got = q_shift(p, 1j)
        want = Poly([1.0, 3.0j, -1.0])
        for x in (0.7, -1.3 + 0.4j, 2.2j, 0.05, 1.8 - 0.9j):
            assert abs(got(x) - want(x)) < 1e-12 * (1 + abs(want(x)))

    def test_rejects_zero_q(self):
        with pytest.raises(ValueError):
            q_shift(Poly([1, 2]), 0)

    def test_inverse_shift(self):
        p = Poly([1.0, -2.0, 0.5, 3.0])
        q = 0.7 + 0.2j
        back = q_shift(q_shift(p, q), 1 / q)
        assert all(abs(a - b) < 1e-12 for a, b in zip(back.coeffs, p.coeffs))

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=9),
           st.lists(st.integers(-9, 9), min_size=1, max_size=9),
           st.fractions(min_value=Fraction(-5), max_value=Fraction(5)))
    @settings(max_examples=60, deadline=None)
    def test_ring_morphism(self, c1, c2, q):
        if q == 0:
            return
        p1, p2 = Poly(c1), Poly(c2)
        lhs = q_shift(p1 * p2, q)
        rhs = q_shift(p1, q) * q_shift(p2, q)
        assert lhs == rhs  # exact arithmetic


class TestRoots:
    def test_linear(self):
        assert np.allclose(poly_roots(Poly([-3.0, 1.0])), [3.0])

    def test_factored_quadratic(self):
        roots = poly_roots(Poly([-1.0, 0.0, 1.0]))
        assert np.allclose(sorted(r.real for r in roots), [-1.0, 1.0])

    def test_multiplicity(self):
        p = Poly.from_roots([2.0, 2.0, -1.0])
        roots = sorted(poly_roots(p), key=lambda w: w.real)
        assert np.allclose([r.real for r in roots], [-1.0, 2.0, 2.0], atol=1e-6)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(Poly([5.0]))

    def test_reexpansion(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            roots = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            p = Poly.from_roots(list(roots), leading=1.7)
            got = poly_roots(p)
            back = Poly.from_roots(got, leading=1.7)
            assert all(abs(a - b) < 1e-8 * (1 + abs(b))
                       for a, b in zip(back.coeffs, p.coeffs))


class TestQDistinct:
    def test_far_roots(self):
        ok, wit = q_distinct(Poly([-1.0, 1.0]), Poly([-5.0, 1.0]), 2.0, 1)
        assert ok and wit is None

    def test_q_related_roots(self):
        ok, wit = q_distinct(Poly([-1.0, 1.0]), Poly([-2.0, 1.0]), 2.0, 2)
        assert not ok
        z1, z2, k = wit
        assert abs(z1 - 1) < 1e-9 and abs(z2 - 2) < 1e-9 and k == -1

    def test_shared_root(self):
        p = Poly([-1.0, 1.0])
        ok, wit = q_distinct(p, p, 1.37, 3)
        assert not ok and wit[2] == 0


class TestExactMode:
    def test_ring_identities_exact(self):
        a = Poly([Fraction(1, 3), Fraction(-2), Fraction(5, 7)])
        b = Poly([Fraction(2), Fraction(1, 2)])
        c = Poly([Fraction(-1), Fraction(0), Fraction(4)])
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b).degree == a.degree + b.degree

    def test_ratfun_exact_cancellation(self):
        num = Poly([Fraction(1), Fraction(2)])
        den = Poly([Fraction(3), Fraction(-1)])
        f = RatFun(num, den)
        g = f * f.inv()
        diff = g - RatFun.one()
        assert diff.num.is_zero()


class TestPolyHygiene:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Poly([1.0, float("nan")])

    def test_trailing_trim(self):
        p = Poly([1.0, 2.0, 1e-16])
        assert p.degree == 1

    def test_monic(self):
        p = Poly([2.0, 4.0]).monic()
        assert p.coeffs == (0.5, 1.0)

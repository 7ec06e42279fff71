import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qoper.minors import RatMatrix, horner, lewis_carroll_bits
from qoper.polynomials import (Poly, RatFun, off_pole, poly_roots, q_distinct,
                               q_shift, solve_q_difference)


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
           st.integers(-5, 5).filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_ring_morphism(self, c1, c2, q):
        p1, p2 = Poly(c1), Poly(c2)
        lhs = q_shift(p1 * p2, q)
        rhs = q_shift(p1, q) * q_shift(p2, q)
        assert lhs.exact and lhs == rhs  # int arithmetic


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

    def test_accurate_far_root_is_kept(self):
        # a Q- of an A4 verify run: the root near 1989.86 has |p(r)| ~ 6e-2,
        # above 1e-8 (1 + max|c|), but a backward error near 1e-16
        p = Poly([580111.7835209015 + 2.2676438518444763e-05j,
                  -1081591.5146577442 - 4.229742626193911e-05j,
                  374846.39232961833 + 1.4692428521811962e-05j,
                  -19605.922231063596 - 7.404305506497622e-07j,
                  -47.25764297437854 - 9.720679372549057e-09j,
                  0.028653260204009712 - 1.0390067473053932e-08j])
        roots = poly_roots(p)
        assert len(roots) == 5
        assert any(abs(r - 1989.86) < 0.01 for r in roots)
        want = np.roots([complex(c) for c in reversed(p.coeffs)])
        for r in roots:
            assert np.abs(want - r).min() <= 1e-8 * (1 + abs(r))

    def test_wrong_root_still_raises(self, monkeypatch):
        # iterates 1 and 50 for (z - 1)(z - 2): two Newton steps from 50
        # leave a root that is wrong, and it must be refused
        import qoper.polynomials as poly
        monkeypatch.setattr(poly, "_aberth", lambda cs: [1.0 + 0j, 50.0 + 0j])
        with pytest.raises(ArithmeticError, match="root polishing failed"):
            poly_roots(Poly([2.0, -3.0, 1.0]))

    def test_reexpansion(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            roots = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            p = Poly.from_roots(list(roots), leading=1.7)
            got = poly_roots(p)
            back = Poly.from_roots(got, leading=1.7)
            assert all(abs(a - b) < 1e-8 * (1 + abs(b))
                       for a, b in zip(back.coeffs, p.coeffs))


@st.composite
def root_sets(draw):
    """Roots of degree 1-8 polynomials: spread over |re|, |im| <= 3 at
    least 0.1 apart, with up to three roots in a cluster of spacing 10^-3
    or 10^-2 round one."""
    n = draw(st.integers(1, 8))
    coords = st.floats(-3.0, 3.0, allow_nan=False)
    roots = [complex(draw(coords), draw(coords))
             for _ in range(n - draw(st.integers(0, min(2, n - 1))))]
    assume(all(abs(r - s) >= 0.1 for k, r in enumerate(roots)
               for s in roots[:k]))
    spacing = draw(st.sampled_from([1e-3, 1e-2]))
    centre = roots[0]
    for k in range(1, n - len(roots) + 1):
        roots.append(centre + spacing * k * complex(0.6, 0.8))
    return roots


def companion_roots(p):
    """The eigenvalues of the companion matrix: the reference roots."""
    cs = [complex(c) / complex(p.coeffs[-1]) for c in p.coeffs]
    n = len(cs) - 1
    comp = np.zeros((n, n), dtype=complex)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = [-c for c in cs[:-1]]
    return list(np.linalg.eigvals(comp))


def root_tolerance(p, w):
    """How far two backward-stable root finders may place the root near w:
    1e3 eps times its condition number sum |c_k||w|^k / |p'(w)|, which is
    large inside a cluster, plus 1e-12 (1 + |w|)."""
    cs = [complex(c) for c in p.coeffs]
    size = sum(abs(c) * abs(w) ** k for k, c in enumerate(cs))
    slope = abs(sum(k * c * w ** (k - 1) for k, c in enumerate(cs) if k))
    return 1e3 * 2.2e-16 * size / slope + 1e-12 * (1 + abs(w))


class TestRootsAgainstEigenvalues:
    @given(root_sets(), st.sampled_from([1.0, 0.3 - 2.0j]))
    # the Bethe roots of A1 with Lambda = (z-1)(z-2), zeta = 2, m = 2
    @example([-0.044, 12.64], 1.0)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_match_companion_eigenvalues(self, roots, leading):
        p = Poly.from_roots(roots, leading=leading)
        got = poly_roots(p)
        want = companion_roots(p)
        assert len(got) == len(want) == len(roots)
        for r in got:  # match each root to its nearest unmatched reference
            k = min(range(len(want)), key=lambda t: abs(want[t] - r))
            w = want.pop(k)
            assert abs(w - r) <= root_tolerance(p, w), (r, w, roots)


def lstsq_reference(a, b, c, q, tol=1e-10):
    """solve_q_difference by numpy's least squares, the reference."""
    a, b, c = (np.asarray(x, complex) for x in (a, b, c))
    d = len(c) - max(len(a), len(b))
    if d < 0:
        return None
    M = np.zeros((len(c), d + 1), dtype=complex)
    for k in range(d + 1):
        M[k:k + len(a), k] = a
        M[k:k + len(b), k] += b * complex(q) ** k
    sol = np.linalg.lstsq(M, c, rcond=None)[0]
    if np.abs(M @ sol - c).max() > max(tol, 1e-9) * (1 + np.abs(c).max()):
        return None
    return sol


class TestSolveQDifferenceAgainstLstsq:
    coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                               allow_infinity=False)

    @given(st.lists(coeff, min_size=1, max_size=4),
           st.lists(coeff, min_size=1, max_size=4),
           st.lists(coeff, min_size=1, max_size=5),
           st.floats(0.1, 0.9), st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_verdicts_and_solutions(self, a, b, f, q, consistent):
        a, b, f = a + [1.0 + 0.5j], b + [-0.7 + 0.2j], f + [1.0]
        c = Poly(a) * Poly(f) + Poly(b) * q_shift(Poly(f), q)
        cs = list(c.coeffs)
        if not consistent:  # no polynomial solves a perturbed low coefficient
            cs[0] += 1e-3 * (1 + max(map(abs, cs)))
        got = solve_q_difference(a, b, cs, q)
        want = lstsq_reference(a, b, cs, q)
        assert (got is None) == (want is None)
        if got is not None:
            scale = 1 + np.abs(want).max()
            assert len(got.coeffs) == len(want)
            assert np.abs(np.array(got.coeffs) - want).max() <= 1e-10 * scale


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
        a = Poly([3, -2, 7])
        b = Poly([2, -5])
        c = Poly([-1, 0, 4])
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b).degree == a.degree + b.degree

    def test_ratfun_exact_cancellation(self):
        # monic numerator and denominator: no normalisation divides
        num = Poly([1, 1])
        den = Poly([3, 1])
        f = RatFun(num, den)
        g = f * f.inv()
        diff = g - RatFun.one()
        assert diff.num.is_zero() and diff.den.exact


class TestPolyHygiene:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Poly([1.0, float("nan")])

    def test_trailing_trim(self):
        # exact zeros are dropped, in either mode; a small nonzero float
        # coefficient is a coefficient and keeps its degree
        assert Poly([1.0, 2.0, 0.0, 0j]).coeffs == (1.0, 2.0)
        assert Poly([1, 0, 0]).coeffs == (1,)
        assert Poly([0.0, -0.0]).is_zero()
        assert Poly([1.0, 2.0, 1e-16]).degree == 2

    def test_monic(self):
        p = Poly([2.0, 4.0]).monic()
        assert p.coeffs == (0.5, 1.0)


class TestSolveQDifference:
    def test_minimal_degree(self):
        # a = Q(qz), b = -Q(z) with Q = z - 2: f = 3 is the minimal
        # solution, and f + t Q solves too, so the degree must come from
        # the lengths, deg f = len(c) - max(len(a), len(b)) = 0, not from
        # a least-squares fit over a larger trial degree
        q = 0.5
        f = solve_q_difference([-2.0, q], [2.0, -1.0], [0.0, 3 * (q - 1)], q)
        assert f.degree == 0
        assert abs(f.coeffs[0] - 3) < 1e-12

    def test_inconsistent_or_too_short_is_none(self):
        # with deg f = 0 forced, z f(z) - f(qz) = 1 + z has no solution
        assert solve_q_difference([0.0, 1.0], [-1.0], [1.0, 1.0], 0.5) is None
        assert solve_q_difference([1.0, 1.0], [1.0], [1.0], 0.5) is None


class TestOffPole:
    @staticmethod
    def on_a_pole_until(n, calls):
        def f(z):
            calls.append(z)
            if len(calls) < n:
                raise ZeroDivisionError("on a pole")
            return 2 * z
        return f

    def test_four_nudges(self):
        calls = []
        x, y = off_pole(self.on_a_pole_until(5, calls), 1.0)
        assert calls[1:] == [c * (1.013 + 0.007j) for c in calls[:-1]]
        assert (x, y) == (calls[-1], 2 * calls[-1])

    def test_reraises_after_four_nudges(self):
        calls = []
        with pytest.raises(ZeroDivisionError, match="on a pole"):
            off_pole(self.on_a_pole_until(6, calls), 1.0)
        assert len(calls) == 5

    def test_numpy_point_on_a_pole_raises(self):
        f = RatFun(Poly([1]), Poly([-2, 1]))
        with pytest.raises(ZeroDivisionError):
            f(np.complex128(2))

    def test_numpy_point_on_a_pole_is_moved(self):
        f = RatFun(Poly([1]), Poly([-2, 1]))
        x, y = off_pole(f, np.complex128(2))
        assert x == 2 * (1.013 + 0.007j)
        assert y == f(x) and np.isfinite(y)


# -- the exact core: int coefficients stay ints until a division -----------

int_coeffs = st.lists(st.integers(-9, 9), max_size=5)
nonzero_coeffs = int_coeffs.filter(any)
nonzero_q = st.integers(-5, 5).filter(bool)


def exact_core_ops(a, b, c, d, q):
    """Polys a, b (b nonzero) and RatFuns c, d (d nonzero) under every
    operation of the exact core."""
    out = [a + b, a - b, a * b, -a, b.monic(), q_shift(a, q),
           c + d, c - d, c * d, -c, d.inv(), c / d, c.shift(q)]
    return [(r.num, r.den) if isinstance(r, RatFun) else r for r in out]


class TestExactCore:
    @given(int_coeffs, nonzero_coeffs, int_coeffs,
           st.none() | nonzero_coeffs, nonzero_coeffs,
           st.none() | nonzero_coeffs, nonzero_q)
    @settings(max_examples=150, deadline=None)
    def test_int_inputs_match_float_inputs(self, a, b, cn, cd, dn, dd, q):
        def run(conv):
            def ratfun(num, den):
                return RatFun(conv(num), None if den is None else conv(den))
            return exact_core_ops(conv(a), conv(b), ratfun(cn, cd),
                                  ratfun(dn, dd), q)

        ints = run(Poly)
        floats = run(lambda cs: Poly([float(x) for x in cs]))
        for got, want in zip(ints, floats):
            assert got == want
            assert hash(got) == hash(want)
        # a + b, a - b, a * b, -a and q_shift(a, q) divide by nothing
        assert all(ints[k].exact for k in (0, 1, 2, 3, 5))

    @given(int_coeffs)
    def test_int_coefficients_stay_int(self, a):
        p = Poly(a)
        assert p.exact
        assert all(type(x) is int for x in (p * p + p).coeffs)
        assert all(type(x) is int for x in RatFun(p).num.coeffs)

    def test_bool_is_not_exact(self):
        assert not Poly([True, 2]).exact

    def test_division_by_int_gives_floats(self):
        # monic() and RatFun's normalisation divide with /, so int
        # coefficients that are divided become floats, even by 1
        p = Poly([3, 6]).monic()
        assert p.coeffs == (0.5, 1) and not p.exact
        assert not Poly([3, 1]).monic().exact
        f = RatFun(Poly([1, 1]), Poly([2]))
        assert f.num.coeffs == (0.5, 0.5) and f.den.coeffs == (1,)
        assert not (f.num.exact or f.den.exact)


def general_path(num, den):
    """Reference RatFun normalization that always divides by the leading
    coefficient of the denominator."""
    if num.is_zero():
        return num, Poly([1])
    lc = den.leading()
    return Poly([c / lc for c in num.coeffs]), Poly([c / lc for c in den.coeffs])


def general_det(m):
    """Cofactor determinant of a matrix of (num, den) pairs that always
    cross-multiplies denominators, whether or not they are 1."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = (Poly([]), Poly([1]))
    for j in range(n):
        num, den = m[0][j]
        if num.is_zero():
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        snum, sden = general_det(sub)
        tnum, tden = general_path(num * snum, den * sden)
        if j % 2:
            tnum = -tnum
        acc = general_path(acc[0] * tden + tnum * acc[1], acc[1] * tden)
    return acc


def bits(p):
    return [(complex(c).real.hex(), complex(c).imag.hex()) for c in p.coeffs]


class TestFloatDetBitIdentical:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_polynomial_matrix_det(self, seed):
        rng = np.random.default_rng(seed)
        polys = [[Poly(rng.standard_normal(3) + 1j * rng.standard_normal(3))
                  for _ in range(4)] for _ in range(4)]
        got = RatMatrix([[RatFun(p) for p in row] for row in polys]).det()
        num, den = general_det([[general_path(p, Poly([1]))
                                 for p in row] for row in polys])
        assert bits(got.num) == bits(num)
        assert bits(got.den) == bits(den)


class TestKronecker:
    """An int polynomial whose coefficients are all below B = 2**k in
    absolute value is zero exactly when its value at B is."""

    @given(st.integers(1, 40), st.data())
    @settings(max_examples=150, deadline=None)
    def test_nonzero_below_the_bound_stays_nonzero(self, k, data):
        big = 2**k - 1
        cs = data.draw(st.lists(st.integers(-big, big), min_size=1,
                                max_size=14).filter(any))
        assert Poly(cs)(2**k) != 0

    def test_the_bound_must_be_exceeded(self):
        # z - B has a coefficient of size B, and vanishes at B
        for k in (1, 31):
            assert not Poly([-2**k, 1]).is_zero()
            assert Poly([-2**k, 1])(2**k) == 0

    def test_dodgson_bits(self):
        # 4 x 4 matrices with 3 coefficients in [-5, 5] per entry, h = 15:
        # (2 (3!)^2 + 2! 4!) 15^6 = 1.37e9, below 2**31
        bound = (2 * 6**2 + 2 * 24) * 15**6
        assert bound == 1_366_875_000
        assert lewis_carroll_bits(4, 15) == 31
        assert 2**30 <= bound < 2**31
        assert lewis_carroll_bits(3, 1) == (2 * 4 + 6).bit_length()


class TestBatteryEntries:
    """``qoper identities`` evaluates each drawn coefficient list by
    ``horner``, and gets the number ``Poly(cs)(z)`` would give."""

    @given(st.lists(st.integers(-5, 5), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_int_lists_at_the_kronecker_point(self, cs):
        # the exact battery's entries: Horner's rule on the drawn list
        got, want = horner(cs, 2**31), Poly(cs)(2**31)
        assert type(got) is type(want) is int and repr(got) == repr(want)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_gaussian_lists_at_both_points(self, seed, size):
        # the float battery's entries, bit for bit: every exact residual is
        # 0 whatever the entries are, so no digest would see a changed one.
        # From the nonzero top coefficient on, both run the same loop; an
        # empty list gives 0 * z, which is -0.0 + 0j at -1.3 + 0.7j
        rng = random.Random(seed)
        cs = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
              for _ in range(size)]
        for z in (0.37 + 0.21j, -1.3 + 0.7j):
            got, want = horner(cs, z), Poly(cs)(z)
            assert type(got) is type(want) is complex
            assert repr(got) == repr(want)

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qoper.cartan import (DEFAULT_WEYL_GUARD, CartanError, TwistZ,
                          cartan_matrix, canonical_form, enumerate_weyl,
                          reflect_twist, twist_monomial, weyl_order)
from qoper.polynomials import Poly
from qoper.qq import QQInstance, xi_factors
from qoper.wronskian import _twist_diagonal
from constructions import (column_index_set, coxeter_number,
                           longest_element, positive_roots, twist_along_word,
                           word_length)


class TestCartanMatrix:
    def test_a2(self):
        cd = cartan_matrix("A", 2)
        assert cd.cartan == ((2, -1), (-1, 2))

    def test_g2_convention(self):
        # a_ij = <alpha_j, alpha_i^vee>: long root first, a_12 = -3
        cd = cartan_matrix("G", 2)
        assert cd.cartan == ((2, -3), (-1, 2))

    def test_b_c_convention(self):
        # B_r has its short root at node r, C_r its long root: the two
        # share a determinant and |W|, so only the entry tells them apart
        assert cartan_matrix("B", 3).cartan[1] == (-1, 2, -2)
        assert cartan_matrix("C", 3).cartan[1] == (-1, 2, -1)
        assert cartan_matrix("C", 3).cartan[2] == (0, -2, 2)

    def test_rank_zero_rejected(self):
        with pytest.raises(CartanError, match="invalid finite type"):
            cartan_matrix("A", 0)

    def test_bad_pairs_rejected(self):
        for t, r in (("D", 3), ("E", 9), ("F", 5), ("G", 3), ("B", 1)):
            with pytest.raises(CartanError):
                cartan_matrix(t, r)


# every valid (type, rank <= 8) with the determinant of its Cartan matrix
FINITE_TYPES = (
    [("A", r, r + 1) for r in range(1, 9)]
    + [(t, r, 2) for t in "BC" for r in range(2, 9)]
    + [("D", r, 4) for r in range(4, 9)]
    + [("E", 6, 3), ("E", 7, 2), ("E", 8, 1), ("F", 4, 1), ("G", 2, 1)])


class TestFiniteTypeTable:
    """cartan_matrix and weyl_order on every valid (type, rank <= 8): the
    table's edges give a Cartan matrix, CartanData checking only the
    ordering, with the right determinant, and |W| counts the elements
    enumerate_weyl finds wherever the guard lets it enumerate them."""

    @pytest.mark.parametrize("t,r,det", FINITE_TYPES)
    def test_cartan_matrix_and_weyl_order(self, t, r, det):
        cd = cartan_matrix(t, r)
        a = cd.cartan
        assert len(a) == r and all(len(row) == r for row in a)
        for i, j in itertools.product(range(r), repeat=2):
            if i == j:
                assert a[i][i] == 2
            else:
                assert a[i][j] <= 0 and (a[i][j] == 0) == (a[j][i] == 0)
        assert round(np.linalg.det(np.array(a, dtype=float))) == det
        if weyl_order(cd) <= DEFAULT_WEYL_GUARD:
            assert len(enumerate_weyl(cd)) == weyl_order(cd)

    def test_unknown_type_rejected(self):
        with pytest.raises(CartanError, match=r"invalid finite type \(H, 3\)"):
            cartan_matrix("H", 3)


class TestCoxeterNumber:
    # h = 2 |Phi+| / r, so each value checks the positive roots of its type
    @pytest.mark.parametrize("t,r,h", [
        ("A", 1, 2), ("A", 3, 4), ("B", 3, 6), ("C", 2, 4), ("D", 4, 6),
        ("E", 6, 12), ("E", 7, 18), ("E", 8, 30), ("F", 4, 12), ("G", 2, 6)])
    def test_values(self, t, r, h):
        assert coxeter_number(cartan_matrix(t, r)) == h


TWIST_FLOATS = (1.3, 0.7, 2.9, 1.7)
TWIST_FRACTIONS = (Fraction(13, 10), Fraction(-7, 5), Fraction(29, 3),
                   Fraction(5, 17))


def twist_instance(lie_type, rank, reverse, exact):
    """An instance carrying only a twist: its Lambdas and degrees are
    placeholders."""
    cd = cartan_matrix(lie_type, rank)
    if reverse:
        cd = cd.with_ordering(tuple(reversed(cd.ordering)))
    zetas = (TWIST_FRACTIONS if exact else TWIST_FLOATS)[:rank]
    return QQInstance(cd, 0.2, TwistZ(zetas), (Poly([-1, 1]),) * rank,
                      (0,) * rank)


class TestTwistIdentities:
    """twist_monomial's products (xi_factors, reflect_twist and, in type
    A, the shifted-minor weight) against identities written out here."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["default", "reversed"])
    @pytest.mark.parametrize("lie_type,rank", [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3),
        ("D", 4), ("G", 2)])
    def test_identities(self, lie_type, rank, reverse, exact):
        inst = twist_instance(lie_type, rank, reverse, exact)
        cd, zs = inst.cartan, inst.twist.zetas

        def same(got, want):
            if exact:
                assert got == want
            else:
                assert abs(got - want) <= 1e-14 * abs(want), (got, want)

        for i in range(1, rank + 1):
            ratio = 1
            for j in range(1, rank + 1):  # prod_j zeta_j^{a_ji}
                ratio *= zs[j - 1] ** cd.a(j, i)
            xit, xi = xi_factors(inst, i)
            same(xit / xi, ratio)
            reflected = reflect_twist(inst.twist, i, cd)
            same(reflected.zetas[i - 1] * ratio, zs[i - 1])
            assert reflected.zetas[:i - 1] + reflected.zetas[i:] \
                == zs[:i - 1] + zs[i:]
            for got, want in zip(reflect_twist(reflected, i, cd).zetas, zs):
                same(got, want)
        if lie_type == "A":
            z = _twist_diagonal(inst)  # complex, for rational zetas too
            for size in range(1, rank + 1):
                for rows in itertools.combinations(range(rank + 1), size):
                    weight = twist_monomial(zs, [(j in rows) - (j + 1 in rows)
                                                 for j in range(rank)])
                    for a in rows:
                        weight *= z[a]
                    assert abs(weight - 1) <= 1e-14, weight


class TestReflectTwist:
    def test_a1_inverse(self):
        cd = cartan_matrix("A", 1)
        z = reflect_twist(TwistZ((Fraction(2),)), 1, cd)
        assert z.zetas == (Fraction(1, 2),)

    def test_a2_node1(self):
        cd = cartan_matrix("A", 2)
        z = reflect_twist(TwistZ((Fraction(5), Fraction(7))), 1, cd)
        assert z.zetas == (Fraction(7, 5), Fraction(7))

    def test_involution_exact(self):
        cd = cartan_matrix("B", 2)
        z0 = TwistZ((Fraction(3, 2), Fraction(-7, 5)))
        for i in (1, 2):
            assert reflect_twist(reflect_twist(z0, i, cd), i, cd).zetas == z0.zetas

    @given(st.fractions(min_value=Fraction(1, 7), max_value=Fraction(7)),
           st.fractions(min_value=Fraction(1, 7), max_value=Fraction(7)))
    @settings(max_examples=40, deadline=None)
    def test_braid_a2(self, z1, z2):
        cd = cartan_matrix("A", 2)
        z0 = TwistZ((z1, z2))
        lhs = twist_along_word(z0, (1, 2, 1), cd)
        rhs = twist_along_word(z0, (2, 1, 2), cd)
        assert lhs.zetas == rhs.zetas  # exact rationals

    def test_zero_twist_rejected(self):
        with pytest.raises(ValueError):
            TwistZ((0,))


class TestEnumerateWeyl:
    def test_a1(self):
        cd = cartan_matrix("A", 1)
        words = enumerate_weyl(cd)
        assert sorted(words) == [(), (1,)]

    def test_a2_longest(self):
        cd = cartan_matrix("A", 2)
        words = enumerate_weyl(cd)
        assert len(words) == 6
        assert len(longest_element(cd)) == 3

    def test_e8_guard(self):
        with pytest.raises(CartanError, match="group too large"):
            enumerate_weyl(cartan_matrix("E", 8))

    def test_words_reduce(self):
        # the length counts the positive roots a word sends to negative
        # ones, so it does not read enumerate_weyl's words
        for t, r, roots in (("A", 3, 6), ("B", 3, 9), ("G", 2, 6)):
            cd = cartan_matrix(t, r)
            assert len(positive_roots(cd)) == roots
            for w in enumerate_weyl(cd):
                assert word_length(w, cd) == len(w), (t, w)

    def test_non_reduced_word_is_shorter(self):
        cd = cartan_matrix("A", 3)
        assert word_length((1, 1), cd) == 0
        assert word_length((1, 2, 1, 2), cd) == 2

    def test_distinct_elements(self):
        cd = cartan_matrix("B", 3)
        forms = {canonical_form(w, cd) for w in enumerate_weyl(cd)}
        assert len(forms) == weyl_order(cd)


class TestColumnIndexSet:
    def test_identity(self):
        cd = cartan_matrix("A", 2)
        assert column_index_set((), 2, cd)[1] == (0, 1)

    def test_simple(self):
        cd = cartan_matrix("A", 2)
        assert column_index_set((1,), 1, cd)[1] == (1,)

    def test_composite(self):
        cd = cartan_matrix("A", 2)
        assert column_index_set((1, 2), 2, cd)[1] == (1, 2)

    def test_cardinality(self):
        cd = cartan_matrix("A", 3)
        for w in enumerate_weyl(cd):
            for i in (1, 2, 3):
                assert len(column_index_set(w, i, cd)[1]) == i

    def test_non_type_a_rejected(self):
        cd = cartan_matrix("B", 2)
        with pytest.raises(CartanError):
            column_index_set((1,), 1, cd)

    def test_matches_the_permutation_realization(self):
        # the reference realization: s_j is the transposition (j, j+1) of
        # {1, ..., r+1}, and the rightmost letter of a word acts first
        def image(w, k):
            for j in reversed(w):
                k = {j: j + 1, j + 1: j}.get(k, k)
            return k

        for r in (1, 2, 3, 4):
            cd = cartan_matrix("A", r)
            for w in enumerate_weyl(cd):
                for i in range(1, r + 1):
                    S = {image(w, k) for k in range(1, i + 1)}
                    weight, rows = column_index_set(w, i, cd)
                    assert rows == tuple(sorted(k - 1 for k in S)), (w, i)
                    # the shifted-minor exponents <coroot_j, w om_i>
                    assert weight == tuple((j in S) - (j + 1 in S)
                                           for j in range(1, r + 1)), (w, i)


class TestValueObjects:
    """Twists and Cartan data compare and hash by their fields, so they
    serve as dict keys and in equality checks."""

    def test_equal_fields_are_equal_keys(self):
        pairs = [(TwistZ((2.0, 3.0)), TwistZ([2.0, 3.0])),
                 (cartan_matrix("G", 2), cartan_matrix("g", 2))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
            assert {a: 1}[b] == 1

    def test_fields_and_class_both_count(self):
        assert cartan_matrix("A", 2) != cartan_matrix("A", 2).with_ordering((2, 1))
        assert (1, 2) != TwistZ((1, 2))

    def test_validation_and_repr(self):
        with pytest.raises(ValueError):
            TwistZ((1.0, 0.0))
        with pytest.raises(CartanError):
            cartan_matrix("A", 2).with_ordering((1, 1))

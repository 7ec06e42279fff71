"""Finite-type Cartan matrices, Weyl group elements, Weyl group orders,
and twists.

Convention: the Cartan matrix entry a[i][j] is the pairing of the j-th
simple root against the i-th coroot, so a[i][i] = 2 and the i-th simple
reflection acts on a coweight vector v (in the coroot basis) by

    s_i : v  ->  v - <alpha_i, v> alpha_i^vee,
    <alpha_i, v> = sum_k a[k][i] v_k.

Nodes are numbered in the Bourbaki order.  A Weyl group element is a
word, a tuple of node numbers: the word w spells the product
s_{w[0]} s_{w[1]} ..., which acts as function composition, so its
rightmost letter acts first.  The empty tuple is the identity and u + v
spells the product uv.  Words act on weights in fundamental-weight
coordinates (``word_action``); canonical forms and the enumeration of
the group are read off that action, so comparison works uniformly in
every finite type without Matsumoto rewriting.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import factorial

DEFAULT_WEYL_GUARD = 10_080


class CartanError(ValueError):
    pass


class ValueObject:
    """Equality, hashing and repr by the fields named in ``__slots__``, in
    order: two objects of one class with equal fields are equal."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"


class CartanData(ValueObject):
    """Lie type, rank, Cartan matrix and the simple-root ordering.

    ``ordering`` is the permutation (i_1, ..., i_r) of {1..r} fixing the
    Coxeter element c = s_{i_1} ... s_{i_r} used by the q-difference
    machinery; the QQ-system's twist factors depend on it through the
    positions of the nodes, not their labels.
    """

    __slots__ = ("lie_type", "rank", "cartan", "ordering")

    def __init__(self, lie_type: str, rank: int, cartan: tuple,
                 ordering: tuple):
        self.lie_type, self.rank = lie_type, rank
        self.cartan, self.ordering = cartan, ordering
        if sorted(self.ordering) != list(range(1, rank + 1)):
            raise CartanError("ordering must be a permutation of 1..rank")

    def a(self, i: int, j: int) -> int:
        """Cartan entry a_{ij} with 1-based node labels."""
        return self.cartan[i - 1][j - 1]

    def with_ordering(self, ordering: Sequence[int]) -> "CartanData":
        return CartanData(self.lie_type, self.rank, self.cartan, tuple(ordering))

    @property
    def is_type_a(self) -> bool:
        return self.lie_type == "A"


class TwistZ(ValueObject):
    """Twist parameters zeta_i, all nonzero."""

    __slots__ = ("zetas",)

    def __init__(self, zetas: tuple):
        zs = tuple(zetas)
        for z in zs:
            if complex(z) == 0:
                raise ValueError("twist parameters must be nonzero")
        self.zetas = zs

    @property
    def rank(self) -> int:
        return len(self.zetas)


def twist_monomial(zetas: Sequence, exps: Sequence[int]):
    """prod_j zeta_j^{e_j}, multiplied up from 1 in node order.

    Every product of twist parameters is formed here: xi~_i, xi_i and
    their ratio prod_j zeta_j^{a_ji} (qq.xi_factors and qq.twist_ratio)
    and the reflected zeta_i (reflect_twist).
    """
    out = 1
    for z, e in zip(zetas, exps):
        if e:
            out = out * z ** e
    return out


def _finite_type(t: str, r: int):
    """The Dynkin edges and |W| of the finite type (t, r), or None when
    there is no such type: A_r (r >= 1), B_r and C_r (r >= 2), D_r
    (r >= 4), E_6, E_7, E_8, F_4 and G_2, Bourbaki plates I-IX.  Each edge
    (i, j, a_ij, a_ji) links the 0-based nodes i and j."""
    def chain(n):  # nodes 0 - 1 - ... - (n-1), simply laced
        return [(i, i + 1, -1, -1) for i in range(n - 1)]

    if t == "A" and r >= 1:
        return chain(r), factorial(r + 1)
    if t == "B" and r >= 2:
        # short root at node r: a_{r-1,r} = -2 under a_ij = <alpha_j, a_i^vee>
        return chain(r - 1) + [(r - 2, r - 1, -2, -1)], 2**r * factorial(r)
    if t == "C" and r >= 2:
        return chain(r - 1) + [(r - 2, r - 1, -1, -2)], 2**r * factorial(r)
    if t == "D" and r >= 4:
        return chain(r - 1) + [(r - 3, r - 1, -1, -1)], 2 ** (r - 1) * factorial(r)
    if t == "E" and r in (6, 7, 8):
        # node 2 attaches to node 4; chain 1-3-4-5-...-r
        return ([(0, 2, -1, -1), (1, 3, -1, -1)] + chain(r)[2:],
                {6: 51840, 7: 2903040, 8: 696729600}[r])
    if t == "F" and r == 4:
        return [(0, 1, -1, -1), (1, 2, -2, -1), (2, 3, -1, -1)], 1152
    if t == "G" and r == 2:
        # a_12 = -3, a_21 = -1: alpha_1 long, alpha_2 short
        return [(0, 1, -3, -1)], 12
    return None


def cartan_matrix(lie_type: str, rank: int) -> CartanData:
    """Standard Cartan data for a finite type, Bourbaki numbering, filled
    from the type's Dynkin edges.  The default ordering is (1, ..., r)."""
    lie_type = str(lie_type).upper()
    found = _finite_type(lie_type, rank)
    if found is None:
        raise CartanError(f"invalid finite type ({lie_type}, {rank})")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, aij, aji in found[0]:
        a[i][j], a[j][i] = aij, aji
    return CartanData(lie_type, rank, tuple(map(tuple, a)),
                      tuple(range(1, rank + 1)))


def weyl_order(data: CartanData) -> int:
    return _finite_type(data.lie_type, data.rank)[1]


def reflect_twist(Z: TwistZ, i: int, data: CartanData) -> TwistZ:
    """Simple reflection s_i acting on the twist.

    zeta_i maps to zeta_i^{-1} prod_{j != i} zeta_j^{-a_{ji}}; the other
    parameters are untouched.
    """
    if not 1 <= i <= data.rank:
        raise ValueError(f"node index {i} out of range")
    exps = [-data.a(j, i) for j in range(1, data.rank + 1)]
    exps[i - 1] = -1
    zs = list(Z.zetas)
    zs[i - 1] = twist_monomial(Z.zetas, exps)
    return TwistZ(tuple(zs))


# -- Weyl group elements via the weight action --------------------------

def _reflect_vector(v: tuple, i: int, data: CartanData) -> tuple:
    """s_i on a weight in fundamental-weight coordinates (exact ints).

    s_i(lambda) = lambda - lambda_i alpha_i with alpha_i = sum_j a_ji w_j.
    """
    li = v[i - 1]
    if li == 0:
        return v
    return tuple(v[j] - li * data.a(j + 1, i) for j in range(data.rank))


def word_action(word: tuple, v: tuple, data: CartanData) -> tuple:
    """The image w(v) of a weight v in fundamental-weight coordinates."""
    for letter in reversed(word):
        v = _reflect_vector(v, letter, data)
    return v


def canonical_form(word: tuple, data: CartanData) -> tuple:
    """Injective normal form: the image of the strictly dominant weight rho.

    rho = (1, ..., 1) in fundamental-weight coordinates is regular, so
    w -> w(rho) is injective and serves as a type-independent normal form.
    """
    rho = tuple([1] * data.rank)
    return word_action(word, rho, data)


def enumerate_weyl(data: CartanData) -> list[tuple]:
    """One reduced word per Weyl group element, BFS by length.

    The identity comes first and the longest element last.  Groups larger
    than ``DEFAULT_WEYL_GUARD`` are refused outright rather than truncated.
    """
    order = weyl_order(data)
    if order > DEFAULT_WEYL_GUARD:
        raise CartanError(f"group too large: |W| = {order} exceeds the "
                          f"bound {DEFAULT_WEYL_GUARD}")
    # left multiplication: s_i w acts by reflecting the image of rho
    rho = tuple([1] * data.rank)
    reached, frontier = {rho: ()}, [rho]
    while frontier:
        nxt = []
        for vec in frontier:
            for i in range(1, data.rank + 1):
                image = _reflect_vector(vec, i, data)
                if image not in reached:
                    reached[image] = (i,) + reached[vec]
                    nxt.append(image)
        frontier = nxt
    return sorted(reached.values(), key=lambda w: (len(w), w))

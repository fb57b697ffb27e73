from fractions import Fraction

import pytest

from albanese.errors import CapacityError, InputError
from albanese.partitions import Bipartition, partitions_of
from albanese.schur import (
    Decomposition,
    decompose_mixed_tensor,
    decompose_traceless,
    dim_irrep,
    dim_polynomial,
    evaluate_at_rank,
    graded_symmetric_power,
    multiplicity_pairing,
    plethysm_schur,
    tensor_by_standard,
    traceless_product,
)

from helpers import brute_plethysm

V = Bipartition
UNIT = V((), ())


def D(*pairs) -> Decomposition:
    terms = {}
    for lam, mu, m in pairs:
        terms[V(tuple(lam), tuple(mu))] = m
    return Decomposition(terms)


class TestDecomposition:
    def test_zero_multiplicities_dropped(self):
        assert not Decomposition({V((1,), ()): 0})

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            Decomposition({V((1,), ()): -1})

    def test_canonical_order(self):
        d = D(((1,), (), 1), ((2,), (), 1), ((1, 1), (1,), 1))
        assert [b for b, _ in d.items()] == [
            V((2,), ()),
            V((1, 1), (1,)),
            V((1,), ()),
        ]

    def test_addition_merges(self):
        d = D(((1,), (), 1)) + D(((1,), (), 2))
        assert d.multiplicity(V((1,), ())) == 3


class TestTracelessProduct:
    def test_single_cell_each_side(self):
        got = traceless_product(D(((1,), (), 1)), D(((), (1,), 1)))
        assert got == D(((1,), (1,), 1))

    def test_pieri_case(self):
        got = traceless_product(D(((1, 1), (1,), 1)), D(((1,), (), 1)))
        assert got == D(((2, 1), (1,), 1), ((1, 1, 1), (1,), 1))

    def test_unit(self):
        d = D(((2, 1), (1,), 3), ((1,), (1, 1), 2))
        assert traceless_product(d, Decomposition.unit()) == d

    def test_sizes_add(self):
        d1, d2 = D(((2,), (1,), 1)), D(((1, 1), (1,), 1))
        for b, _ in traceless_product(d1, d2).items():
            assert b.sizes == (4, 2)

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_covariant_dims_multiply_exactly(self, sizes):
        # with no contractions available the traceless product is the full
        # tensor product, so dimensions multiply on the nose
        a, b = sizes
        d1, d2 = decompose_traceless(a, 0), decompose_traceless(b, 0)
        n = a + b
        prod = traceless_product(d1, d2)
        assert prod.total_dim_at(n) == d1.total_dim_at(n) * d2.total_dim_at(n)

    @pytest.mark.parametrize(
        "sig1,sig2",
        [((2, 0), (1, 1)), ((1, 1), (1, 1)), ((2, 1), (1, 0)), ((2, 1), (1, 2))],
    )
    def test_dims_multiply_asymptotically(self, sig1, sig2):
        # in general the traceless part omits trace directions, so only the
        # leading dimension behavior is multiplicative: degrees add and
        # leading coefficients multiply
        d1, d2 = decompose_traceless(*sig1), decompose_traceless(*sig2)
        p1, p2 = dim_polynomial(d1), dim_polynomial(d2)
        prod = dim_polynomial(traceless_product(d1, d2))
        assert prod.degree == p1.degree + p2.degree
        assert prod.coeffs[-1] == p1.coeffs[-1] * p2.coeffs[-1]


class TestPlethysm:
    def test_spec_values(self):
        assert plethysm_schur((2,), (1,)) == {(2,): 1}
        assert plethysm_schur((1, 1), (1,)) == {(1, 1): 1}
        assert plethysm_schur((2,), (1, 1)) == {(2, 2): 1, (1, 1, 1, 1): 1}
        assert plethysm_schur((1, 1), (1, 1)) == {(2, 1, 1): 1}

    def test_cap(self):
        with pytest.raises(CapacityError):
            plethysm_schur((5,), (5,))
        assert plethysm_schur((5,), (5,), size_cap=25)  # explicit cap raise works

    def test_empty_cases(self):
        assert plethysm_schur((), (2, 1)) == {(): 1}
        assert plethysm_schur((3,), ()) == {(): 1}
        assert plethysm_schur((1, 1), ()) == {}

    @pytest.mark.parametrize(
        "osize,isize",
        [(o, i) for o in range(1, 9) for i in range(1, 9) if o * i <= 8],
    )
    def test_against_monomial_substitution(self, osize, isize):
        nvars = 4
        for outer in partitions_of(osize):
            for inner in partitions_of(isize):
                brute = brute_plethysm(outer, inner, nvars)
                mine = {
                    nu: c
                    for nu, c in plethysm_schur(outer, inner).items()
                    if len(nu) <= nvars
                }
                assert mine == brute, (outer, inner)


class TestGradedSymmetricPower:
    def test_wheel_size_one_squared(self):
        got = graded_symmetric_power(V((1,), ()), 1, 2)
        assert got == D(((1, 1), (), 1))

    def test_corolla_size_two_squared(self):
        got = graded_symmetric_power(V((1, 1), (1,)), 1, 2)
        assert got == D(
            ((2, 2), (1, 1), 1), ((1, 1, 1, 1), (1, 1), 1), ((2, 1, 1), (2,), 1)
        )

    def test_wheel_size_two_squared(self):
        got = graded_symmetric_power(V((1, 1), ()), 2, 2)
        assert got == D(((2, 2), (), 1), ((1, 1, 1, 1), (), 1))

    def test_k_zero_is_unit(self):
        assert graded_symmetric_power(V((1, 1), (1,)), 1, 0) == Decomposition.unit()

    def test_rejects_big_contravariant(self):
        with pytest.raises(InputError):
            graded_symmetric_power(V((1, 1), (2,)), 1, 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_size_linearity(self, k):
        gen = V((1, 1), (1,))
        for b, _ in graded_symmetric_power(gen, 1, k).items():
            assert b.sizes == (2 * k, k)


class TestKoikeDecompositions:
    def test_traceless_values(self):
        assert decompose_traceless(1, 1) == D(((1,), (1,), 1))
        assert decompose_traceless(2, 1) == D(((2,), (1,), 1), ((1, 1), (1,), 1))
        assert decompose_traceless(0, 0) == Decomposition.unit()

    def test_mixed_values(self):
        assert decompose_mixed_tensor(1, 1) == D(((1,), (1,), 1), ((), (), 1))
        assert decompose_mixed_tensor(2, 1) == D(
            ((2,), (1,), 1), ((1, 1), (1,), 1), ((1,), (), 2)
        )

    @pytest.mark.parametrize("p", range(0, 5))
    def test_pure_covariant(self, p):
        assert decompose_mixed_tensor(p, 0) == decompose_traceless(p, 0)

    def test_size_bookkeeping(self):
        for p in range(4):
            for q in range(3):
                for b, _ in decompose_traceless(p, q).items():
                    assert b.sizes == (p, q)
                for b, _ in decompose_mixed_tensor(p, q).items():
                    assert sum(b.lam) - sum(b.mu) == p - q
                    assert sum(b.lam) <= p

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dimension_identity_in_range(self, n):
        # the expansion of the full tensor space is an identity for n >= p+q
        for p in range(0, 7):
            for q in range(0, 7 - p):
                if p + q <= n:
                    got = decompose_mixed_tensor(p, q).total_dim_at(n)
                    assert got == n ** (p + q), (n, p, q)

    def test_dimension_identity_spec_example_below_range(self):
        # the (2,1) table still gives 2^3 at n=2 after rank truncation
        assert decompose_mixed_tensor(2, 1).total_dim_at(2) == 8


class TestTensorByStandard:
    def test_adjoint_like(self):
        got = tensor_by_standard(D(((), (1,), 1)))
        assert got == D(((1,), (1,), 1), ((), (), 1))

    def test_mixed_case(self):
        got = tensor_by_standard(D(((1, 1), (1,), 1)))
        assert got == D(((2, 1), (1,), 1), ((1, 1, 1), (1,), 1), ((1, 1), (), 1))
        # dimension check at n=3 after truncation: 6*3 = 15 + 0 + 3
        assert got.total_dim_at(3) == 6 * 3

    def test_unit_case(self):
        assert tensor_by_standard(Decomposition.unit()) == D(((1,), (), 1))


class TestDimIrrep:
    def test_adjoint(self):
        for n in range(2, 7):
            assert dim_irrep(V((1,), (1,)), n) == n * n - 1

    def test_weyl_values(self):
        assert dim_irrep(V((1, 1), (1,)), 3) == 6
        assert dim_irrep(V((1, 1), (1,)), 4) == 20

    def test_vanishing(self):
        assert dim_irrep(V((1, 1, 1), (1,)), 3) == 0

    def test_hom_dimension_cross_check(self):
        # dim Hom(H, wedge^2 H) = n * C(n,2); V_{(1,1),(1)} is that minus n
        from math import comb

        for n in range(3, 7):
            assert dim_irrep(V((1, 1), (1,)), n) == n * comb(n, 2) - n


class TestDimPolynomial:
    def test_standard(self):
        p = dim_polynomial(D(((1,), (), 1)))
        assert p.coeffs == (Fraction(0), Fraction(1))

    def test_hom_h_wedge2(self):
        p = dim_polynomial(D(((1, 1), (1,), 1), ((1,), (), 1)))
        # T^2 (T-1) / 2
        assert p.coeffs == (Fraction(0), Fraction(0), Fraction(-1, 2), Fraction(1, 2))

    def test_unit(self):
        p = dim_polynomial(Decomposition.unit())
        assert p.coeffs == (Fraction(1),)
        assert p.degree == 0

    def test_reproduces_dimensions(self):
        d = decompose_traceless(2, 2)
        p = dim_polynomial(d)
        for n in (p.stable_from + 1, p.stable_from + 5, p.stable_from + 9):
            assert p(n) == d.total_dim_at(n)

    def test_str_form(self):
        p = dim_polynomial(D(((1, 1), (1,), 1), ((1,), (), 1)))
        assert str(p) == "1/2*T^3 - 1/2*T^2"


class TestEvaluateAtRank:
    def test_w1_at_rank_two(self):
        w1 = D(((1, 1), (1,), 1), ((1,), (), 1))
        assert evaluate_at_rank(w1, 2) == D(((1,), (), 1))

    def test_no_op_at_large_rank(self):
        d = decompose_mixed_tensor(2, 2)
        assert evaluate_at_rank(d, 9) == d

    def test_empty(self):
        assert not evaluate_at_rank(Decomposition(), 3)


class TestMultiplicityPairing:
    @pytest.mark.parametrize("p", range(0, 4))
    @pytest.mark.parametrize("q", range(0, 4))
    def test_traceless_self_pairing(self, p, q):
        from math import factorial

        t = decompose_traceless(p, q)
        assert multiplicity_pairing(t, t) == factorial(p) * factorial(q)

    def test_empty(self):
        assert multiplicity_pairing(decompose_traceless(2, 1), Decomposition()) == 0

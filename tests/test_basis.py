import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballnls.basis import (
    CorrelationTensor,
    TruncatedTensorView,
    build_tensor,
    correlation,
    correlation_quadrature,
    count_circle_representations,
    cubic_term,
    eigenfunction_lp_norm,
    eigenfunction_value,
    eval_matrix,
    gauss_legendre_rule,
    inner_product,
    max_circle_count,
    nodal_modulus_sq,
    quartic_form,
    rule_for_modes,
    sigma_sum,
)
from ballnls.errors import DomainError, ResolutionError
from ballnls.experiments import observable_table


class TestQuadrature:
    def test_weights_sum_to_one(self):
        rule = gauss_legendre_rule(panels=6)
        assert abs(rule.weights.sum() - 1.0) < 1e-14

    def test_polynomial_exactness(self):
        rule = gauss_legendre_rule(panels=4, degree=8)
        # degree-8 Gauss panels integrate x^15 exactly
        assert rule.integrate(rule.nodes**15) == pytest.approx(1 / 16, abs=1e-14)

    def test_oscillatory_integrand(self):
        rule = rule_for_modes(32)
        exact = 0.5  # int_0^1 sin^2(32 pi r) dr
        assert rule.integrate(np.sin(32 * np.pi * rule.nodes) ** 2) == pytest.approx(
            exact, abs=1e-10
        )

    def test_invalid_nodes_rejected(self):
        with pytest.raises(DomainError):
            gauss_legendre_rule(panels=0)


class TestEigenfunctions:
    def test_center_value(self):
        # e_n(0) = n pi by the sinc limit
        assert eigenfunction_value(3, 0.0) == pytest.approx(3 * math.pi)

    def test_boundary_zero(self):
        assert eigenfunction_value(5, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            eigenfunction_value(1, 1.5)

    def test_l2_norm(self):
        rule = rule_for_modes(8)
        for n in (1, 2, 7):
            assert eigenfunction_lp_norm(n, 2, rule) == pytest.approx(
                math.sqrt(2 * math.pi), rel=1e-12
            )

    def test_l4_growth_exponent(self):
        # ||e_n||_4 ~ n^{1/4}
        rule = rule_for_modes(4 * 64)
        r = eigenfunction_lp_norm(64, 4, rule) / eigenfunction_lp_norm(16, 4, rule)
        assert r == pytest.approx((64 / 16) ** 0.25, rel=0.05)

    def test_under_resolved_rule_rejected(self):
        with pytest.raises(ResolutionError):
            eigenfunction_lp_norm(100, 4, rule_for_modes(4))

    def test_orthogonality(self):
        assert inner_product(2, 5) == 0.0
        assert inner_product(4, 4) == pytest.approx(2 * math.pi)

    @pytest.mark.parametrize("N", [8, 32, 64])
    def test_eval_matrix_stacks_eigenfunctions(self, N):
        nodes = np.concatenate([[0.0], rule_for_modes(4 * N).nodes])
        stacked = np.stack([eigenfunction_value(n, nodes) for n in range(1, N + 1)])
        assert np.array_equal(eval_matrix(N, nodes), stacked)


class TestNodalModulusSq:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        N=st.integers(1, 16),
        panels=st.sampled_from([512, 2048, 4096]),
        chunks=st.integers(0, 2),
        offset=st.integers(-2, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_complex_oracle(self, N, panels, chunks, offset, seed):
        # 4096 to 32768 nodes: chunks of 128 to 16 rows, cut on both sides
        rule = gauss_legendre_rule(panels)
        step = 2**19 // rule.order
        rows = max(1, chunks * step + offset)
        gen = np.random.default_rng(seed)
        A = gen.standard_normal((rows, N)) + 1j * gen.standard_normal((rows, N))
        E = eval_matrix(N, rule.nodes)
        expected = np.abs(A @ E) ** 2
        got = np.empty_like(expected)
        starts = []
        for sl, u2 in nodal_modulus_sq(A, E):
            starts.append(sl.start)
            got[sl] = u2
        assert starts == list(range(0, rows, step))
        np.testing.assert_allclose(
            got, expected, rtol=1e-13, atol=1e-13 * expected.max()
        )


class TestCorrelation:
    def test_closed_form_vs_quadrature(self):
        gen = np.random.default_rng(42)
        for _ in range(25):
            idx = gen.integers(1, 33, size=4)
            closed = correlation(*idx)
            quad = correlation_quadrature(*idx)
            assert closed == pytest.approx(quad, abs=1e-10)

    def test_symmetry(self):
        vals = {
            perm: correlation(*perm)
            for perm in [(2, 3, 5, 7), (7, 5, 3, 2), (3, 2, 7, 5)]
        }
        assert len(set(round(v, 12) for v in vals.values())) == 1

    def test_smallest_index_bound(self):
        # |c(n, nbar)| <= C min(n, nbar)
        gen = np.random.default_rng(7)
        for _ in range(50):
            idx = gen.integers(1, 65, size=4)
            assert abs(correlation(*idx)) <= 40.0 * idx.min()

    def test_invalid_index(self):
        with pytest.raises(DomainError):
            correlation(0, 1, 1, 1)


class TestCorrelationTensor:
    @pytest.fixture()
    def tensor(self):
        return build_tensor(8)

    def test_value_count(self, tensor):
        assert len(tensor.values) == math.comb(8 + 3, 4)

    def test_permutation_invariance(self, tensor):
        assert tensor.value(1, 4, 2, 3) == tensor.value(3, 2, 4, 1)

    def test_dense_matches_values(self, tensor):
        C = tensor.dense(6)
        assert C.shape == (6, 6, 6, 6)
        assert C[0, 3, 1, 2] == tensor.value(1, 4, 2, 3)
        full = tensor.dense()
        for N in (1, 3, 6):
            assert np.array_equal(tensor.dense(N), full[:N, :N, :N, :N])
        for idx in np.ndindex(full.shape):
            assert full[idx] == tensor.value(*(i + 1 for i in idx))
        tensor12 = build_tensor(12)
        for key in combinations_with_replacement(range(1, 13), 4):
            assert tensor12.value(*key) == correlation(*key), key

    def test_cutoff_enforced(self, tensor):
        with pytest.raises(ResolutionError):
            tensor.value(9, 1, 1, 1)

    def test_truncated_view_zeroes_far_sets(self, tensor):
        view = TruncatedTensorView(base=tensor, K=1)
        # |n^2 - n1^2 + n2^2 - n3^2| = |64 - 1 + 1 - 1| = 63 >= 10
        assert view.value(8, 1, 1, 1) == 0.0
        assert view.value(2, 2, 3, 3) == tensor.value(2, 2, 3, 3)

    def test_quartic_form_matches_quadrature(self, tensor):
        from ballnls.measures import quartic_norm_quadrature

        gen = np.random.default_rng(3)
        a = 0.3 * (gen.standard_normal(8) + 1j * gen.standard_normal(8))
        exact = quartic_form(a, tensor)
        quad = quartic_norm_quadrature(a)
        assert exact == pytest.approx(quad, rel=1e-10)
        assert exact > 0

    def test_sigma_sum_order_one(self, tensor):
        # sigma_{n,N2} = sum_{n2 ~ N2} c(n,n,n2,n2)/n2^2 stays O(1)
        v2 = sigma_sum(3, 2, tensor)
        v4 = sigma_sum(3, 4, tensor)
        assert 0 < v2 < 50 and 0 < v4 < 50

    def test_sigma_sum_cutoff(self, tensor):
        with pytest.raises(ResolutionError):
            sigma_sum(1, 8, tensor)


@pytest.fixture(scope="module")
def tensor12():
    return build_tensor(12)


class TestCubicTerm:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        N=st.integers(1, 12),
        S=st.integers(1, 5),
        amp=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_einsum(self, tensor12, N, S, amp, seed):
        gen = np.random.default_rng(seed)
        A = amp * (gen.standard_normal((S, N)) + 1j * gen.standard_normal((S, N)))
        W = cubic_term(A, tensor12.contraction_matrix(N))
        ref = np.einsum("abcd,sb,sc,sd->sa", tensor12.dense(N), A, A.conj(), A)
        np.testing.assert_allclose(
            W, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()
        )
        per_row = np.array([quartic_form(a, tensor12) for a in A])
        for a, q in zip(A, per_row):
            w = cubic_term(a[None, :], tensor12.contraction_matrix(N))[0]
            assert q == pytest.approx(np.real(np.conj(a) @ w), rel=1e-12)
        np.testing.assert_allclose(
            observable_table(A)["l4_norm_fourth"], per_row, rtol=1e-12
        )


class TestCircleCounts:
    def test_small_values(self):
        assert count_circle_representations(2, 4) == 1  # (1,1)
        # 25 = 0+25 = 9+16 = 16+9 = 25+0 as ordered pairs in [0,8]^2
        assert count_circle_representations(25, 8) == 4
        assert count_circle_representations(3, 4) == 0

    def test_matches_bruteforce(self):
        N = 12
        for l in range(1, 2 * N * N + 1, 7):
            brute = sum(
                1
                for a in range(0, N + 1)
                for b in range(0, N + 1)
                if a * a + b * b == l
            )
            assert count_circle_representations(l, N) == brute

    def test_max_count_location(self):
        count, l_star = max_circle_count(16)
        assert count_circle_representations(l_star, 16) == count
        assert count >= 2

import dataclasses
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.special import sici

from ballnls.basis import (
    CorrelationTensor,
    CubicBuffers,
    _correlation_batch,
    _dtt_transpose,
    _f_table,
    build_tensor,
    correlation,
    correlation_quadrature,
    count_circle_representations,
    cubic_grid,
    cubic_term,
    eigenfunction_lp_norm,
    eigenfunction_value,
    eval_matrix,
    gauss_legendre_rule,
    inner_product,
    max_circle_count,
    nodal_modulus_sq,
    quartic_form,
    quartic_grid,
    rule_for_modes,
    sigma_sum,
    sine_samples,
)
from ballnls.errors import DomainError, ResolutionError
from ballnls.experiments import observable_table
from ballnls.measures import FreeMeasureSpec, RngStream, sample_free_batch


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

    def test_tabulated_f_matches_per_tuple_form(self):
        # the batch gathers F(|k|) from a numpy-only table; per tuple, the
        # same closed form evaluates sici and cos on each of its eight sums.
        # Each F agrees to 3 ulp (TestFTable), so an entry agrees to 8 ulp
        # of 4 pi/8 times the sum of its eight |F|, the two summations'
        # rounding included (1.2 ulp is the largest seen)
        gen = np.random.default_rng(17)
        tuples = gen.integers(1, 65, size=(400, 4))
        eps = np.array([1, 1, -1, -1, -1, -1, 1, 1], dtype=float)
        for row, got in zip(tuples, _correlation_batch(tuples)):
            n, n1, n2, n3 = row.astype(float)
            s1, s2, s3, s4 = n - n1, n + n1, n2 - n3, n2 + n3
            ks = np.array(
                [s1 - s3, s1 + s3, s1 - s4, s1 + s4, s2 - s3, s2 + s3, s2 - s4, s2 + s4]
            )
            q = np.abs(ks) * np.pi
            terms = eps * ((1.0 - np.cos(q)) - q * sici(q)[0])
            scale = 4.0 * np.pi * np.abs(terms).sum() / 8.0
            expected = 4.0 * np.pi * terms.sum() / 8.0
            assert abs(got - expected) <= 8 * np.spacing(scale)


class TestFTable:
    # F(k) = (1 - cos k pi) - k pi Si(k pi) to 40 significant digits
    REFERENCE = {
        0: "0",
        1: "-3.818031837418854756945031090221777165721",
        2: "-8.910509146510103807178167792881159413511",
        3: "-13.78425809256481717720632411163219881621",
        4: "-18.75105097707072777135999689209929936077",
        5: "-23.66625978370322103360684817447679237625",
        6: "-28.61426604747063514214034296523903829799",
        7: "-33.53957672439261043812753826107196409941",
        8: "-38.48152637286540447997571993089223861066",
        9: "-43.41075427992125208116237589890112328073",
        10: "-48.35002450061937797202242045162150466755",
        11: "-53.2811658997428195457921568374491961087",
        12: "-58.21902200477597758736563745724401398277",
        13: "-63.15123801618322912888489131258038169849",
        14: "-68.08825838039794425808030208765467753897",
        15: "-73.02113717810878311569127792417371609996",
        16: "-77.95762306463012234121232486975932750378",
        17: "-82.89093914412102220149344895633162559083",
        100: "-492.4802403162415721598682882919899984099",
        1000: "-4933.802200747321430319095842413261125415",
        4096: "-20211.9498134430848768161547565642006253",
        20000: "-98695.04401089409279426158179029222991658",
    }

    def test_within_one_ulp_of_reference(self):
        F = _f_table(20000)
        for k, ref in self.REFERENCE.items():
            err = abs(Fraction(float(F[k])) - Fraction(ref))
            assert err <= Fraction(float(np.spacing(abs(F[k])))), k

    def test_matches_sici_form(self):
        F = _f_table(20000)
        q = np.arange(F.size) * np.pi
        sici_form = (1.0 - np.cos(q)) - q * sici(q)[0]
        assert np.all(np.abs(F - sici_form) <= 3 * np.spacing(np.abs(F)))

    def test_prefixes_agree(self):
        # the tabulated head k <= 15 and the series tail join at any k_max
        full = _f_table(40)
        for k_max in (0, 1, 15, 16, 17, 40):
            assert np.array_equal(_f_table(k_max), full[: k_max + 1])


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

    def test_one_stored_array(self):
        # the real pair-packed (m, m) contraction matrix is the only array
        # held: dense() is gathered afresh and not kept
        N = 24
        m = N * (N + 1) // 2
        tensor = build_tensor(N)
        tracemalloc.start()
        try:
            tensor.contraction_matrix(N)
            tensor.dense(N)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1.05 * 8 * m**2

    def test_dense_read_only(self, tensor):
        C = tensor.dense(4)
        with pytest.raises(ValueError):
            C[0, 0, 0, 0] = 1.0

    def test_replaced_tensor_builds_its_own_matrix(self, tensor):
        a = np.exp(1j * np.arange(8)) / np.arange(1, 9)
        q = quartic_form(a, tensor)
        scaled = dataclasses.replace(tensor, values=1.5 * tensor.values)
        assert quartic_form(a, scaled) == pytest.approx(1.5 * q, rel=1e-13)
        assert quartic_form(a, tensor) == q

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
        W = cubic_term(A)
        ref = np.einsum("abcd,sb,sc,sd->sa", tensor12.dense(N), A, A.conj(), A)
        np.testing.assert_allclose(
            W, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()
        )
        per_row = np.array([quartic_form(a, tensor12) for a in A])
        for a, q in zip(A, per_row):
            w = cubic_term(a[None, :])[0]
            assert q == pytest.approx(np.real(np.conj(a) @ w), rel=1e-12)
        np.testing.assert_allclose(
            observable_table(A)["l4_norm_fourth"], per_row, rtol=1e-12
        )


class TestCubicTermOracle:
    """cubic_term against a tensor filled entry by entry, and against the
    physical-space projection of |u|^2 u."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        N=st.integers(1, 12),
        S=st.integers(1, 5),
        offset=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(N=1, S=1, offset=0, seed=0)
    @example(N=12, S=1, offset=2, seed=1)
    @example(N=12, S=5, offset=1, seed=2)
    def test_matches_direct_tensor(self, tensor12, N, S, offset, seed):
        index = np.indices((N,) * 4).reshape(4, -1).T + 1
        C = _correlation_batch(index).reshape((N,) * 4)
        gen = np.random.default_rng(seed)
        wide = gen.standard_normal((S, N + 2)) + 1j * gen.standard_normal((S, N + 2))
        # a column slice of a wider array, so never C-contiguous
        A = wide[:, offset : offset + N]
        W = cubic_term(A)
        ref = np.einsum("abcd,sb,sc,sd->sa", C, A, A.conj(), A)
        assert W.shape == (S, N) and W.dtype == complex
        assert W.flags.c_contiguous
        # reused buffers give the same bits, whatever they held before
        buffers = CubicBuffers(S, N)
        cubic_term(wide[:, :N][::-1], buffers)
        again = cubic_term(A, buffers)
        assert np.array_equal(again, W)
        np.testing.assert_allclose(
            W, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max()
        )

    def test_matches_physical_space_projection(self):
        # w_n = 4 pi int_0^1 |u|^2 u e_n r^2 dr by Gauss-Legendre on
        # rule_for_modes(4 N): |u|^2 u e_n carries frequencies up to 4N
        N = 256
        rule = rule_for_modes(4 * N)
        E = eval_matrix(N, rule.nodes)
        A = sample_free_batch(FreeMeasureSpec.derived(N), RngStream(seed=11), 4)
        # a single top mode: sin^3(N pi r), the highest grid frequency 3N
        A[-1] = 0.0
        A[-1, -1] = 0.7 - 0.4j
        U = A @ E
        ref = 4.0 * np.pi * (np.abs(U) ** 2 * U * rule.weights * rule.nodes**2) @ E.T
        W = cubic_term(A)
        for w, r in zip(W, ref):
            np.testing.assert_allclose(w, r, rtol=0, atol=1e-12 * np.abs(r).max())
        # the top mode's own coefficient is c(N,N,N,N)|a_N|^2 a_N, with
        # c > 0: a sign error in the grid forms would flip it
        c = correlation(N, N, N, N)
        assert c > 0
        assert W[-1, -1] == pytest.approx(c * abs(A[-1, -1]) ** 2 * A[-1, -1], rel=1e-12)


class TestCubicTermBatches:
    @pytest.mark.parametrize("N", [1, 8, 32, 64])
    def test_row_alone_equals_its_batch_value(self, N):
        gen = np.random.default_rng(N)
        A = gen.standard_normal((37, N)) + 1j * gen.standard_normal((37, N))
        W = cubic_term(A).copy()
        for k, a in enumerate(A):
            assert np.array_equal(cubic_term(a[None, :])[0], W[k]), k

    def test_buffers_reused_without_allocation(self):
        S, N = 500, 16
        gen = np.random.default_rng(3)
        A = gen.standard_normal((S, N)) + 1j * gen.standard_normal((S, N))
        buffers = CubicBuffers(S, N)
        first = cubic_term(A, buffers).copy()
        tracemalloc.start()
        try:
            W = cubic_term(A, buffers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert W is buffers.W
        assert np.array_equal(W, first)
        # views and scalars only: one (S, 3N) float array alone is 192 kB
        assert peak < 4096

    def test_grid_arrays_read_only_and_shared(self):
        S, Q = cubic_grid(8)
        assert (S.shape, Q.shape) == ((8, 24), (24, 8))
        assert cubic_grid(8)[1] is Q
        # both grid forms take their sine samples from the one cached matrix
        assert S is sine_samples(8, 25)
        assert quartic_grid(8)[0] is sine_samples(8, 16)
        for arr in (S, Q):
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
        with pytest.raises(DomainError):
            cubic_grid(0)
        with pytest.raises(DomainError):
            sine_samples(0, 1)


def inverse_dtt_matrix(M, sine):
    """D entry by entry in long double: D[k, j - 1] = (2/M) cos(k pi j/M),
    k = 0..M, rows 0 and M halved (DCT-I), or (2/M) sin(k pi j/M),
    k = 1..M - 1 (DST-I), for j = 1..M - 1."""
    pi = np.arccos(np.longdouble(-1.0))
    ks = range(1, M) if sine else range(M + 1)
    D = np.empty((len(ks), M - 1), dtype=np.longdouble)
    for row, k in enumerate(ks):
        for j in range(1, M):
            angle = pi * ((k * j) % (2 * M)) / M
            D[row, j - 1] = 2 * (np.sin(angle) if sine else np.cos(angle)) / M
    if not sine:
        D[[0, M]] /= 2
    return D


class TestDttTranspose:
    # largest error seen 5.0 long-double eps of max|D^T X| (M = 65, DST-I,
    # seeds 0-5 and these); a float64 FFT would be ~1000
    @pytest.mark.parametrize("sine", [False, True])
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 16, 17, 64, 65])
    def test_matches_plain_matmul(self, M, sine):
        D = inverse_dtt_matrix(M, sine)
        X = np.random.default_rng(M).standard_normal((len(D), 5)).astype(np.longdouble)
        want = D.T @ X
        got = _dtt_transpose(X, M, sine)
        assert got.dtype == np.longdouble and got.shape == want.shape
        eps = np.finfo(np.longdouble).eps
        assert np.abs(got - want).max() <= 50 * eps * np.abs(want).max()

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == np.finfo(float).eps,
        reason="long double is float64 here",
    )
    def test_fft_runs_in_long_double(self):
        # numpy < 2.0 computes the FFT in float64, which would leave the
        # grid forms with their float64 error (1.2e-13 in the quartic at
        # N = 256)
        x = np.ones(8, dtype=np.longdouble)
        assert np.fft.rfft(x).dtype == np.clongdouble


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

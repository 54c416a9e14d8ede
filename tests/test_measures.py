import math

import numpy as np
import pytest

from ballnls import io as pio
from ballnls.basis import build_tensor, eval_matrix, quartic_form, rule_for_modes
from ballnls.errors import DomainError, SamplingError
from ballnls.measures import (
    _FREE_CHUNK,
    DEFAULT_BETA_Q,
    FreeMeasureSpec,
    RngStream,
    _quartic_batch,
    chaos_moment_ratio,
    quartic_norm_quadrature,
    sample_free,
    sample_free_batch,
    sample_gibbs,
    sample_gibbs_batch,
)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(seed=5).generator().standard_normal(4)
        b = RngStream(seed=5).generator().standard_normal(4)
        assert np.array_equal(a, b)

    def test_children_independent_of_batching(self):
        root = RngStream(seed=9)
        first = root.child(3).generator().standard_normal(2)
        again = RngStream(seed=9).child(3).generator().standard_normal(2)
        assert np.array_equal(first, again)
        other = root.child(4).generator().standard_normal(2)
        assert not np.array_equal(first, other)

    def test_algorithm_id(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        pio.write_manifest(pio.build_manifest("evolve", {}, 0), path)
        assert pio.read_manifest(path)["algorithm_id"] == "pcg64-seedseq"

    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (0, -1)])
    def test_negative_keys_rejected(self, seed, stream_id):
        with pytest.raises(DomainError):
            RngStream(seed, stream_id)


class TestFreeMeasure:
    def test_derived_sigma(self):
        spec = FreeMeasureSpec.derived(4)
        assert spec.sigma[0] == pytest.approx(1.0 / (math.sqrt(2.0) * math.pi))
        assert spec.sigma[3] == pytest.approx(spec.sigma[0] / 4.0)

    def test_paper_literal_sigma(self):
        spec = FreeMeasureSpec.paper_literal(3)
        assert spec.sigma[2] == pytest.approx(1.0 / (3.0 * math.pi))

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            FreeMeasureSpec.from_preset("bogus", 4)

    def test_sample_marginal_variance(self):
        spec = FreeMeasureSpec.derived(6)
        A = sample_free_batch(spec, RngStream(seed=2), 4000)
        observed = np.mean(np.abs(A) ** 2, axis=0)
        assert np.allclose(observed, spec.sigma**2, rtol=0.1)

    def test_sample_free_matches_child_zero(self):
        spec = FreeMeasureSpec.derived(5)
        batch = sample_free_batch(spec, RngStream(seed=4), 3)
        single = sample_free(spec, RngStream(seed=4).child(1))
        assert np.array_equal(batch[1], single.coeffs)


def one_stream_draw(spec, gen):
    """sigma_n g_n from gen: N real parts, then N imaginary parts."""
    x, y = gen.standard_normal(spec.N), gen.standard_normal(spec.N)
    return spec.sigma * ((x + 1j * y) / np.sqrt(2.0))


class TestFreeBatchExact:
    """Every row of sample_free_batch is the one-stream draw, bit for bit."""

    @staticmethod
    def check(N, seed, stream_id, count):
        spec = FreeMeasureSpec.derived(N)
        rng = RngStream(seed, stream_id)
        batch = sample_free_batch(spec, rng, count)
        assert batch.shape == (count, N)
        for k in range(count):
            expected = one_stream_draw(spec, rng.child(k).generator())
            assert np.array_equal(batch[k], expected), k

    @pytest.mark.parametrize("N", [0, 1, 5, 64])
    @pytest.mark.parametrize("seed, stream_id", [(0, 0), (2**70, 2**40)])
    def test_sample_free_is_one_stream_draw(self, N, seed, stream_id):
        spec = FreeMeasureSpec.derived(N)
        rng = RngStream(seed, stream_id)
        expected = one_stream_draw(spec, rng.generator())
        assert np.array_equal(sample_free(spec, rng).coeffs, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("N", [1, 5, 64])
    def test_seeds(self, seed, N):
        self.check(N, seed, 0, 3)

    @pytest.mark.parametrize(
        "count", [1, _FREE_CHUNK - 1, _FREE_CHUNK, _FREE_CHUNK + 1]
    )
    def test_counts_around_chunk(self, count):
        self.check(5, 11, 0, count)

    @pytest.mark.parametrize("seed", [3, 2**64 + 3])
    def test_keys_crossing_word_boundaries(self, seed):
        # a chunk whose spawn keys go from one 32-bit word to two, and
        # from two to three
        self.check(5, seed, 2**32 - _FREE_CHUNK // 2, _FREE_CHUNK + 3)
        self.check(1, seed, 2**64 - 2, 4)


class TestQuarticBatch:
    @pytest.mark.parametrize("N", [1, 8])
    def test_matches_per_row_quadrature(self, N):
        rule = rule_for_modes(4 * N)
        chunk = 2**19 // rule.order
        E = eval_matrix(N, rule.nodes)
        w = rule.weights * rule.nodes**2
        A = sample_free_batch(FreeMeasureSpec.derived(N), RngStream(seed=8), 2 * chunk + 1)
        got = _quartic_batch(A)
        expected = [4.0 * np.pi * np.sum(w * np.abs(a @ E) ** 4) for a in A]
        assert got == pytest.approx(expected, rel=1e-13)
        # a row's value does not depend on where the chunks cut the batch
        assert np.array_equal(got[chunk:], _quartic_batch(A[chunk:]))

    def test_bits_pinned(self):
        # The Gibbs accept/reject decisions and the invariance observable
        # read these bits; this is the formula the draws were recorded with.
        N = 8
        rule = rule_for_modes(4 * N)
        chunk = 2**19 // rule.order
        E = eval_matrix(N, rule.nodes)
        w = rule.weights * rule.nodes**2
        A = sample_free_batch(FreeMeasureSpec.derived(N), RngStream(seed=9), 2 * chunk + 5)
        expected = np.empty(A.shape[0])
        for lo in range(0, A.shape[0], chunk):
            a = A[lo : lo + chunk]
            u2 = np.ascontiguousarray(a.real) @ E
            u2 *= u2
            im = np.ascontiguousarray(a.imag) @ E
            im *= im
            u2 += im
            u2 *= u2
            expected[lo : lo + chunk] = 4.0 * np.pi * (u2 @ w)
        assert np.array_equal(_quartic_batch(A), expected)


class TestGibbs:
    @pytest.fixture()
    def tensor(self):
        return build_tensor(6)

    def test_quartic_norm_positive(self):
        spec = FreeMeasureSpec.derived(6)
        sample = sample_gibbs(spec, DEFAULT_BETA_Q, RngStream(seed=1))
        assert sample.quartic_norm > 0

    def test_beta_zero_equals_free(self):
        spec = FreeMeasureSpec.derived(6)
        gibbs = sample_gibbs(spec, 0.0, RngStream(seed=8))
        free = sample_free(spec, RngStream(seed=8))
        assert np.allclose(gibbs.state.coeffs, free.coeffs)

    def test_batch_reproducible(self):
        spec = FreeMeasureSpec.derived(6)
        A1, q1, rate1 = sample_gibbs_batch(spec, 0.25, RngStream(seed=3), 50)
        A2, q2, rate2 = sample_gibbs_batch(spec, 0.25, RngStream(seed=3), 50)
        assert np.array_equal(A1, A2)
        assert rate1 == rate2
        assert 0 < rate1 <= 1

    @pytest.mark.parametrize(
        "N, beta_q, count, seed", [(4, 5.0, 200, 47), (8, 0.25, 300, 2**40)]
    )
    def test_batch_matches_per_row_generators(self, N, beta_q, count, seed):
        # rejection rounds draw 2N normals and a uniform from each pending
        # row's own generator, which keeps its state between rounds
        spec = FreeMeasureSpec.derived(N)
        rng = RngStream(seed)
        gens = [rng.child(k).generator() for k in range(count)]
        coeffs = np.empty((count, N), dtype=complex)
        quartics = np.empty(count)
        pending, attempts, rounds = np.arange(count), 0, 0
        while pending.size:
            draws = np.stack([one_stream_draw(spec, gens[k]) for k in pending])
            unis = np.array([gens[k].uniform() for k in pending])
            qn = _quartic_batch(draws)
            accept = unis < np.exp(-beta_q * qn)
            coeffs[pending[accept]] = draws[accept]
            quartics[pending[accept]] = qn[accept]
            attempts += pending.size
            rounds += 1
            pending = pending[~accept]
        assert rounds > 2
        got = sample_gibbs_batch(spec, beta_q, rng, count)
        assert np.array_equal(got[0], coeffs)
        assert np.array_equal(got[1], quartics)
        assert got[2] == count / attempts

    def test_quartic_paths_agree(self, tensor):
        spec = FreeMeasureSpec.derived(6)
        state = sample_free(spec, RngStream(seed=12))
        assert quartic_form(state.coeffs, tensor) == pytest.approx(
            quartic_norm_quadrature(state.coeffs), rel=1e-10
        )

    def test_sampler_budget_exhaustion(self):
        # enormous amplitudes make acceptance essentially impossible
        spec = FreeMeasureSpec(N=6, sigma=np.full(6, 50.0))
        with pytest.raises(SamplingError) as info:
            sample_gibbs(spec, 5.0, RngStream(seed=1), max_attempts=20)
        assert info.value.acceptance_rate is not None

    def test_negative_beta_rejected(self):
        with pytest.raises(DomainError):
            sample_gibbs(FreeMeasureSpec.derived(4), -1.0, RngStream(seed=0))

    def test_infinite_beta_rejected(self):
        # exp(-inf * q) = 0 accepts no draw: refused, not run to the budget
        with pytest.raises(DomainError, match="beta_q"):
            sample_gibbs_batch(FreeMeasureSpec.derived(4), math.inf, RngStream(0), 5)


class TestChaosMoments:
    def test_q2_identity(self):
        # E|X|^2 = ||alpha||^2, so the sqrt(2)-normalized ratio is 1/sqrt(2)
        alpha = np.array([1.0, 2.0, 0.5])
        ratio = chaos_moment_ratio(alpha, q=2, trials=20000, rng=RngStream(seed=6))
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.05)

    def test_q4_identity(self):
        # E|X|^4 = 2 ||alpha||^4 for complex Gaussians => ratio = 2^{1/4}/2
        alpha = np.array([0.3, 1.1, 0.7, 0.2])
        ratio = chaos_moment_ratio(alpha, q=4, trials=50000, rng=RngStream(seed=6))
        assert ratio == pytest.approx(2.0**0.25 / 2.0, rel=0.05)

    def test_stderr_reported(self):
        alpha = np.ones(3)
        ratio, stderr = chaos_moment_ratio(
            alpha, q=4, trials=5000, rng=RngStream(seed=2), return_stderr=True
        )
        assert stderr > 0
        assert abs(ratio - 2.0**0.25 / 2.0) < 10 * stderr + 0.05

    def test_invalid_q(self):
        with pytest.raises(DomainError):
            chaos_moment_ratio(np.ones(2), q=3, trials=1000, rng=RngStream(seed=0))

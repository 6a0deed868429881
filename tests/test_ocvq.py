import numpy as np
import pytest

from melcodec import ocvq
from melcodec import tensor as T
from melcodec.tensor import Tensor


def brute_force_assign(z, w):
    """Exhaustive scan with explicit loops and lowest-index tie-break."""
    tokens = np.empty(len(z), dtype=np.int64)
    for n in range(len(z)):
        best_k, best_d = 0, np.inf
        for k in range(len(w)):
            d = np.sqrt(((z[n] - w[k]) ** 2).sum())
            if d < best_d:
                best_k, best_d = k, d
        tokens[n] = best_k
    return tokens


class TestQuantize:
    def test_nearer_codeword_wins(self):
        cb = ocvq.Codebook(Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]),
                                  requires_grad=True))
        seq, z_hat = ocvq.quantize(np.array([[0.1, 0.1]]), cb)
        assert seq.tokens.tolist() == [0]
        np.testing.assert_array_equal(z_hat, [[0.0, 0.0]])

    def test_tie_goes_to_lowest_index(self):
        cb = ocvq.Codebook(Tensor(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                  requires_grad=True))
        seq, _ = ocvq.quantize(np.array([[0.0, 0.5]]), cb)
        assert seq.tokens.tolist() == [0]
        # identical codewords tie exactly
        cb2 = ocvq.Codebook(Tensor(np.array([[0.3, 0.3], [0.3, 0.3]]),
                                   requires_grad=True))
        seq2, _ = ocvq.quantize(np.array([[0.0, 0.0]]), cb2)
        assert seq2.tokens.tolist() == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            c = int(rng.integers(1, 9))
            z = rng.normal(size=(64, c))
            w = rng.normal(size=(k, c))
            cb = ocvq.Codebook(Tensor(w, requires_grad=True))
            seq, z_hat = ocvq.quantize(z, cb)
            expected = brute_force_assign(z, w)
            np.testing.assert_array_equal(seq.tokens, expected)
            np.testing.assert_array_equal(z_hat, w[expected])

    def test_optimality_invariant(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(32, 4))
        cb = ocvq.Codebook(Tensor(rng.normal(size=(8, 4)), requires_grad=True))
        _, z_hat = ocvq.quantize(z, cb)
        chosen = np.linalg.norm(z - z_hat, axis=1)
        for k in range(8):
            alternative = np.linalg.norm(z - cb.weight.data[k], axis=1)
            assert np.all(chosen <= alternative + 1e-15)

    def test_blocked_distances_equal_broadcast_bitwise(self):
        # K=1024, C=32 take 16 rows per block; 2500 rows leave a partial block
        rng = np.random.default_rng(2)
        w = rng.normal(size=(1024, 32))
        w[700] = w[300]  # duplicate codewords tie exactly
        z = rng.normal(size=(2500, 32))
        z[[5, 17, 2499]] = w[[300, 700, 9]]
        diff = z[:, None, :] - w[None, :, :]
        expected = np.sqrt((diff * diff).sum(axis=2))
        np.testing.assert_array_equal(ocvq._pairwise_distances(z, w), expected)
        seq, _ = ocvq.quantize(z, ocvq.Codebook(Tensor(w, requires_grad=True)))
        np.testing.assert_array_equal(seq.tokens, np.argmin(expected, axis=1))
        assert seq.tokens[[5, 17, 2499]].tolist() == [300, 300, 9]

    def test_dim_mismatch(self):
        cb = ocvq.Codebook(Tensor(np.zeros((4, 3)), requires_grad=True))
        with pytest.raises(ValueError):
            ocvq.quantize(np.zeros((5, 2)), cb)


class TestUsageEma:
    def test_zero_init_single_step(self):
        state = ocvq.init_cluster_state(4)
        counts = np.array([0, 10, 0, 0])
        ocvq.update_usage_ema(state, counts, 10)
        np.testing.assert_allclose(state.pi, [0.0, 0.001, 0.0, 0.0])

    def test_uniform_usage_converges(self):
        k = 8
        state = ocvq.init_cluster_state(k)
        counts = np.full(k, 16)
        for _ in range(20000):
            ocvq.update_usage_ema(state, counts, 16 * k)
        np.testing.assert_allclose(state.pi, np.full(k, 1.0 / k), atol=1e-6)

    def test_sum_constraint_enforced(self):
        state = ocvq.init_cluster_state(4)
        with pytest.raises(ValueError):
            ocvq.update_usage_ema(state, np.zeros(4, dtype=int), 5)

    def test_negative_counts_rejected(self):
        state = ocvq.init_cluster_state(2)
        with pytest.raises(ValueError):
            ocvq.update_usage_ema(state, np.array([-1, 2]), 1)

    def test_pi_stays_in_unit_interval(self):
        rng = np.random.default_rng(2)
        state = ocvq.init_cluster_state(4)
        for _ in range(500):
            counts = rng.multinomial(20, [0.7, 0.2, 0.1, 0.0])
            ocvq.update_usage_ema(state, counts, 20)
            assert np.all(state.pi >= 0) and np.all(state.pi <= 1)


class TestRefreshCoefficients:
    def test_unused_codeword_near_one(self):
        state = ocvq.init_cluster_state(4, delta=1e-3)
        gamma = ocvq.refresh_coefficients(state, 4)
        np.testing.assert_allclose(gamma, np.exp(-1e-3))
        assert gamma[0] == pytest.approx(0.9990, abs=1e-4)

    def test_steady_uniform_usage_flushes_to_zero(self):
        k = 16
        state = ocvq.init_cluster_state(k)
        state.pi = np.full(k, 1.0 / k)
        gamma = ocvq.refresh_coefficients(state, k)
        np.testing.assert_array_equal(gamma, 0.0)

    def test_strictly_decreasing_in_pi(self):
        state = ocvq.init_cluster_state(5)
        state.pi = np.array([0.0, 1e-8, 1e-7, 1e-6, 1e-5])
        gamma = ocvq.refresh_coefficients(state, 5)
        assert np.all(np.diff(gamma) < 0)

    def test_range(self):
        rng = np.random.default_rng(3)
        state = ocvq.init_cluster_state(8)
        state.pi = rng.uniform(0, 1e-6, 8)
        gamma = ocvq.refresh_coefficients(state, 8)
        assert np.all(gamma > 0) and np.all(gamma < 1)


class TestSampleAnchors:
    def test_single_point_batch(self):
        cb = ocvq.init_codebook(4, 3, np.random.default_rng(4))
        z = np.array([[0.5, -0.5, 0.25]])
        anchors = ocvq.sample_anchors(z, cb, np.random.default_rng(5))
        np.testing.assert_array_equal(anchors, np.repeat(z, 4, axis=0))

    def test_far_point_strongly_preferred(self):
        w = np.zeros((1, 1))
        cb = ocvq.Codebook(Tensor(w, requires_grad=True))
        z = np.array([[0.0], [10.0]])  # distances 0 and 10 from the codeword
        rng = np.random.default_rng(6)
        picks = [ocvq.sample_anchors(z, cb, rng)[0, 0] for _ in range(10000)]
        freq_far = np.mean(np.array(picks) == 10.0)
        # softmax weight e^10/(1 + e^10) ~ 0.99995
        assert freq_far > 0.999

    def test_equidistant_uniform(self):
        cb = ocvq.Codebook(Tensor(np.zeros((1, 2)), requires_grad=True))
        z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        rng = np.random.default_rng(7)
        n_draws = 100000
        counts = np.zeros(4)
        for _ in range(n_draws):
            a = ocvq.sample_anchors(z, cb, rng)[0]
            counts[np.argmax((z == a).all(axis=1))] += 1
        p = 0.25
        sigma = np.sqrt(n_draws * p * (1 - p))
        assert np.all(np.abs(counts - n_draws * p) < 3 * sigma)

    def test_empty_batch_rejected(self):
        cb = ocvq.init_codebook(2, 2, np.random.default_rng(8))
        with pytest.raises(ValueError):
            ocvq.sample_anchors(np.zeros((0, 2)), cb, np.random.default_rng(9))

    def test_deterministic_given_seed(self):
        cb = ocvq.init_codebook(6, 3, np.random.default_rng(10))
        z = np.random.default_rng(11).normal(size=(20, 3))
        a1 = ocvq.sample_anchors(z, cb, np.random.default_rng(12))
        a2 = ocvq.sample_anchors(z, cb, np.random.default_rng(12))
        np.testing.assert_array_equal(a1, a2)


class TestOnlineClusterStep:
    def test_heavily_used_codeword_fixed(self):
        rng = np.random.default_rng(13)
        cb = ocvq.init_codebook(4, 2, rng)
        state = ocvq.init_cluster_state(4)
        state.pi = np.full(4, 2.0 / 4)  # well above the no-op threshold
        before = cb.weight.data.copy()
        z = rng.normal(size=(16, 2))
        ocvq.online_cluster_step(cb, state, z, np.random.default_rng(14))
        assert np.max(np.abs(cb.weight.data - before)) <= 1e-9

    def test_dead_codeword_snaps_to_anchor(self):
        rng = np.random.default_rng(15)
        # codeword 1 is far from all data and never assigned
        w = np.array([[0.0, 0.0], [100.0, 100.0]])
        cb = ocvq.Codebook(Tensor(w.copy(), requires_grad=True))
        state = ocvq.init_cluster_state(2)
        z = rng.normal(size=(32, 2)) * 0.1
        replay = np.random.default_rng(16)
        expected_anchor = ocvq.sample_anchors(z, cb, replay)[1]
        before = cb.weight.data[1].copy()
        ocvq.online_cluster_step(cb, state, z, np.random.default_rng(16))
        moved = cb.weight.data[1]
        dist_to_anchor = np.linalg.norm(moved - expected_anchor)
        assert dist_to_anchor <= 0.001 * np.linalg.norm(before - expected_anchor)

    def test_batch_equal_to_codebook(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=(6, 3)) * 2.0
        cb = ocvq.Codebook(Tensor(w.copy(), requires_grad=True))
        state = ocvq.init_cluster_state(6)
        replay = np.random.default_rng(18)
        seq, _ = ocvq.quantize(w, cb)
        np.testing.assert_array_equal(np.bincount(seq.tokens, minlength=6),
                                      np.ones(6, dtype=int))
        expected_anchors = ocvq.sample_anchors(w, cb, replay)
        expected_pi = (1 - state.rho) / 6 * np.ones(6)
        expected_gamma = np.exp(-10.0 * expected_pi * 6 / (1 - state.rho)
                                - state.delta)
        expected_w = ((1 - expected_gamma)[:, None] * w
                      + expected_gamma[:, None] * expected_anchors)
        ocvq.online_cluster_step(cb, state, w, np.random.default_rng(18))
        np.testing.assert_allclose(state.pi, expected_pi, atol=1e-15)
        np.testing.assert_allclose(cb.weight.data, expected_w, atol=1e-12)


class TestVqLoss:
    def test_zero_when_equal(self):
        z = Tensor(np.random.default_rng(19).normal(size=(4, 3)), requires_grad=True)
        z_hat = Tensor(z.data.copy(), requires_grad=True)
        assert ocvq.vq_loss(z, z_hat, 4.0).item() == 0.0

    def test_hand_value(self):
        z = Tensor(np.array([1.0, 0.0]), requires_grad=True)
        z_hat = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        assert ocvq.vq_loss(z, z_hat, 4.0).item() == pytest.approx(2.5)

    def test_analytic_gradients(self):
        rng = np.random.default_rng(20)
        eta = 4.0
        z_data = rng.normal(size=(6, 3))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        cb = ocvq.Codebook(w)
        seq, _ = ocvq.quantize(z_data, cb)
        z = Tensor(z_data, requires_grad=True)
        z_hat = T.index_rows(w, seq.tokens)
        loss = ocvq.vq_loss(z, z_hat, eta)
        T.backward(loss)
        numel = z_data.size
        np.testing.assert_allclose(z.grad, 2 * eta * (z_data - z_hat.data) / numel,
                                   atol=1e-12)
        expected_w = np.zeros_like(w.data)
        np.add.at(expected_w, seq.tokens, 2 * (z_hat.data - z_data) / numel)
        np.testing.assert_allclose(w.grad, expected_w, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ocvq.vq_loss(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))), 1.0)


class TestStraightThrough:
    def test_forward_equals_quantized(self):
        rng = np.random.default_rng(21)
        z = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        z_hat = rng.normal(size=(5, 2))
        out = ocvq.straight_through(z, z_hat)
        np.testing.assert_allclose(out.data, z_hat, atol=1e-15)

    def test_identity_jacobian_to_encoder(self):
        rng = np.random.default_rng(22)
        z = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        z_hat = rng.normal(size=(4, 2))
        out = ocvq.straight_through(z, z_hat)
        weights = rng.normal(size=(4, 2))
        T.backward((out * weights).sum())
        np.testing.assert_allclose(z.grad, weights, atol=1e-15)

    def test_no_gradient_to_codebook(self):
        rng = np.random.default_rng(23)
        z = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        z_hat = T.index_rows(w, np.array([0, 1, 2]))
        out = ocvq.straight_through(z, z_hat)
        T.backward((out * out).sum())
        np.testing.assert_array_equal(w.grad, np.zeros_like(w.data))


class TestCodebookInit:
    def test_bounds(self):
        cb = ocvq.init_codebook(64, 16, np.random.default_rng(24))
        assert np.all(np.abs(cb.weight.data) <= 1.0 / 4.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            ocvq.init_codebook(1, 4, np.random.default_rng(25))

    def test_token_sequence_validation(self):
        with pytest.raises(ValueError):
            ocvq.TokenSequence(np.array([5]), codebook_size=4)

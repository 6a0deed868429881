import dataclasses

import numpy as np
import pytest
from scipy import stats

from melcodec import coding, config, refine
from melcodec import tensor as T
from melcodec.codec import Codec
from melcodec.refine import RefineConfig
from melcodec.tensor import Tensor


def tiny_refine_cfg(**overrides):
    base = dict(hidden=8, heads=2, head_dim=4, time_dim=8, n_updown=1,
                n_bridge=1, dropout=0.0, batch_size=1)
    base.update(overrides)
    return RefineConfig(**base)


def cfm_state(m0, m, t):
    """The state M_t that cfm_loss hands the field at time t."""
    seen = []

    class Recorder:
        def __call__(self, m_t, t, cond, rng=None):
            seen.append(m_t.data[0].copy())
            return m_t * 0.0

    refine.cfm_loss(Recorder(), Tensor(m0[None]), Tensor(m[None]),
                    Tensor(np.zeros((1,) + m.shape)), np.array([t]))
    return seen[0]


def rollout(field, seed=30):
    """(state, time) pairs self_consistency_loss hands a field: the sampled
    state, then the state one Euler step later."""
    calls = []

    class Recorder:
        def __call__(self, m_t, t, cond, rng=None):
            calls.append((m_t.data.copy(), np.asarray(t).copy()))
            return Tensor(field(m_t.data))

    rng = np.random.default_rng(seed)
    m0, m = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    refine.self_consistency_loss(Recorder(), Tensor(m0), Tensor(m),
                                 Tensor(np.zeros((2, 3, 4))),
                                 np.random.default_rng(seed + 1),
                                 tiny_refine_cfg())
    return calls


class TestInterpolateState:
    def test_endpoints(self):
        rng = np.random.default_rng(0)
        m0, m = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        np.testing.assert_array_equal(cfm_state(m0, m, 0.0), m0)
        np.testing.assert_array_equal(cfm_state(m0, m, 1.0), m)

    def test_midpoint(self):
        m0, m = np.zeros((2, 2)), np.ones((2, 2))
        np.testing.assert_array_equal(cfm_state(m0, m, 0.5), np.full((2, 2), 0.5))

    def test_time_derivative_constant(self):
        rng = np.random.default_rng(1)
        m0, m = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        h = 1e-6
        for t in (0.2, 0.5, 0.8):
            diff = (cfm_state(m0, m, t + h) - cfm_state(m0, m, t - h)) / (2 * h)
            np.testing.assert_allclose(diff, m - m0, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cfm_state(np.zeros((2, 2)), np.zeros((3, 2)), 0.5)

    def test_time_bounds(self):
        net = refine.VelocityNet(2, tiny_refine_cfg(), np.random.default_rng(2))
        m = Tensor(np.zeros((1, 2, 4)))
        with pytest.raises(ValueError):
            refine.cfm_loss(net, m, m, m, np.array([1.5]))


class TestIdealTerminalOperator:
    """Euler integration of the straight-path field lands on the endpoint."""

    def test_exact_velocity_recovers_target(self):
        rng = np.random.default_rng(3)
        m0, m = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        for iters in (1, 3, 4, 32):
            out = refine.euler_solve(m0, None, lambda m_t, t, cond: m - m0, iters)
            np.testing.assert_allclose(out, m, atol=1e-12)

    def test_zero_velocity_at_origin(self):
        m0 = np.random.default_rng(4).normal(size=(2, 2))
        out = refine.euler_solve(m0, None, lambda m_t, t, cond: np.zeros((2, 2)), 4)
        np.testing.assert_array_equal(out, m0)


class TestRolloutStep:
    """The self-consistency rollout: one Euler step of the held prediction."""

    def test_zero_step(self):
        (m_t, t), (m_next, t_next) = rollout(np.zeros_like)
        np.testing.assert_array_equal(m_next, m_t)
        assert np.all(t_next > t)

    def test_unit_velocity(self):
        (m_t, t), (m_next, t_next) = rollout(np.ones_like)
        dt = (t_next - t).reshape(-1, 1, 1)
        np.testing.assert_allclose(m_next, m_t + dt, atol=1e-12)
        cfg = tiny_refine_cfg()
        assert np.all((dt >= cfg.dt_min) & (dt <= cfg.dt_max + 1e-12))


class TestEulerSolve:
    def test_constant_field_exact(self):
        rng = np.random.default_rng(8)
        m0 = rng.normal(size=(3, 4))
        c = rng.normal(size=(3, 4))
        for iters in (1, 3, 7, 64):
            out = refine.euler_solve(m0, None, lambda m, t, cond: c, iters)
            np.testing.assert_allclose(out, m0 + c, atol=1e-12)

    def test_exponential_growth_closed_form(self):
        for iters in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            out = refine.euler_solve(np.array([[1.0]]), None,
                                     lambda m, t, cond: m, iters)
            expected = (1.0 + 1.0 / iters) ** iters
            assert abs(out[0, 0] - expected) < 1e-12

    def test_i4_value(self):
        out = refine.euler_solve(np.array([[1.0]]), None,
                                 lambda m, t, cond: m, 4)
        assert out[0, 0] == pytest.approx(2.44140625, abs=1e-12)

    def test_converges_to_e(self):
        out = refine.euler_solve(np.array([[1.0]]), None,
                                 lambda m, t, cond: m, 1024)
        assert abs(out[0, 0] - np.e) < 1.4e-3

    def test_nonfinite_state_aborts(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            refine.euler_solve(np.array([[1.0]]), None,
                               lambda m, t, cond: m * 1e308, 4)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            refine.euler_solve(np.zeros((1, 1)), None,
                               lambda m, t, cond: m, 0)


class TestCfmLoss:
    def make_net_stub(self, fn):
        class Stub:
            def __call__(self, m_t, t, cond, rng=None):
                return fn(m_t, t, cond)
        return Stub()

    def test_oracle_field_zero_loss(self):
        rng = np.random.default_rng(9)
        m0 = Tensor(rng.normal(size=(2, 3, 8)))
        m = Tensor(rng.normal(size=(2, 3, 8)))
        cond = Tensor(np.zeros((2, 3, 8)))
        net = self.make_net_stub(lambda m_t, t, c: m - m0)
        t = rng.uniform(size=2)
        assert refine.cfm_loss(net, m0, m, cond, t).item() == pytest.approx(0.0)

    def test_zero_net_constant_target(self):
        m0 = Tensor(np.zeros((1, 2, 4)))
        cond = Tensor(np.zeros((1, 2, 4)))
        net = self.make_net_stub(lambda m_t, t, c: Tensor(np.zeros((1, 2, 4))))
        m = Tensor(np.ones((1, 2, 4)))
        assert refine.cfm_loss(net, m0, m, cond, np.array([0.3])).item() == \
            pytest.approx(1.0)
        m2 = Tensor(np.full((1, 2, 4), 2.0))
        assert refine.cfm_loss(net, m0, m2, cond, np.array([0.9])).item() == \
            pytest.approx(4.0)


class TestSelfConsistency:
    def test_time_invariant_net_zero_loss(self):
        rng = np.random.default_rng(10)
        fixed = rng.normal(size=(2, 3, 8))

        class TimeInvariant:
            def __call__(self, m_t, t, cond, rng=None):
                return Tensor(np.broadcast_to(fixed, m_t.shape).copy())

        cfg = tiny_refine_cfg()
        m0 = Tensor(rng.normal(size=(2, 3, 8)))
        m = Tensor(rng.normal(size=(2, 3, 8)))
        cond = Tensor(np.zeros((2, 3, 8)))
        loss = refine.self_consistency_loss(TimeInvariant(), m0, m, cond,
                                            np.random.default_rng(11), cfg)
        assert loss.item() == 0.0

    def test_branch_rule_returns_zero(self):
        # epsilon 0.5 with dt >= 0.5 forces t + dt >= 1 - epsilon always
        cfg = tiny_refine_cfg(epsilon=0.5, dt_min=0.5, dt_max=0.51)

        class TimeDependent:
            def __call__(self, m_t, t, cond, rng=None):
                return Tensor(np.broadcast_to(
                    np.asarray(t).reshape(-1, 1, 1), m_t.shape).copy())

        rng = np.random.default_rng(12)
        m0 = Tensor(rng.normal(size=(3, 2, 4)))
        m = Tensor(rng.normal(size=(3, 2, 4)))
        cond = Tensor(np.zeros((3, 2, 4)))
        loss = refine.self_consistency_loss(TimeDependent(), m0, m, cond,
                                            np.random.default_rng(13), cfg)
        assert loss.item() == 0.0

    def test_linear_time_field_gives_dt_squared(self):
        cfg = tiny_refine_cfg()

        class LinearInT:
            def __call__(self, m_t, t, cond, rng=None):
                return Tensor(np.broadcast_to(
                    np.asarray(t).reshape(-1, 1, 1), m_t.shape).copy())

        rng_seed = 14
        # replay the internal sampling to recover the drawn (t, dt)
        t, dt = refine.sample_consistency_times(np.random.default_rng(rng_seed),
                                                cfg, 1)
        assert t[0] + dt[0] < 1 - cfg.epsilon
        m0 = Tensor(np.zeros((1, 2, 4)))
        m = Tensor(np.ones((1, 2, 4)))
        cond = Tensor(np.zeros((1, 2, 4)))
        loss = refine.self_consistency_loss(LinearInT(), m0, m, cond,
                                            np.random.default_rng(rng_seed), cfg)
        assert loss.item() == pytest.approx(dt[0] ** 2, rel=1e-12)

    def test_sampler_bounds(self):
        cfg = RefineConfig()
        rng = np.random.default_rng(15)
        t, dt = refine.sample_consistency_times(rng, cfg, 5000)
        assert np.all(t >= 0) and np.all(t <= 1 - cfg.epsilon)
        assert np.all(dt >= cfg.dt_min) and np.all(dt <= cfg.dt_max)

    def test_sampler_density_ratio(self):
        cfg = RefineConfig()  # sigma 0.3, epsilon 0.01
        rng = np.random.default_rng(16)
        t, _ = refine.sample_consistency_times(rng, cfg, 1_000_000)
        observed = np.mean((t >= 0.0) & (t < 0.1)) / np.mean((t >= 0.5) & (t < 0.6))
        norm = stats.norm(0, cfg.sigma)
        expected = ((norm.cdf(0.1) - norm.cdf(0.0))
                    / (norm.cdf(0.6) - norm.cdf(0.5)))
        assert observed == pytest.approx(expected, rel=0.10)


class TestVelocityNet:
    def test_output_shape_and_padding(self):
        cfg = tiny_refine_cfg()
        net = refine.VelocityNet(6, cfg, np.random.default_rng(17))
        m = np.random.default_rng(18).normal(size=(7, 6))
        cond = np.random.default_rng(19).normal(size=(7, 6))
        assert net.velocity(m, 0.25, cond).shape == (7, 6)

    def test_condition_shape_mismatch_rejected(self):
        net = refine.VelocityNet(6, tiny_refine_cfg(), np.random.default_rng(17))
        with pytest.raises(ValueError, match="condition shape"):
            net.velocity(np.zeros((8, 6)), 0.5, np.zeros((7, 6)))

    def test_zeroed_head_gives_bias(self):
        cfg = tiny_refine_cfg()
        net = refine.VelocityNet(6, cfg, np.random.default_rng(20))
        net.head2.weight.data[:] = 0.0
        net.head2.bias.data[:] = np.arange(6) * 0.5
        v = net.velocity(np.zeros((8, 6)), 0.5, np.zeros((8, 6)))
        np.testing.assert_allclose(v, np.tile(np.arange(6) * 0.5, (8, 1)))

    def test_eval_mode_deterministic(self):
        cfg = tiny_refine_cfg(dropout=0.1)
        net = refine.VelocityNet(6, cfg, np.random.default_rng(21))
        m = np.random.default_rng(22).normal(size=(8, 6))
        cond = np.random.default_rng(23).normal(size=(8, 6))
        v1 = net.velocity(m, 0.3, cond)
        v2 = net.velocity(m, 0.3, cond)
        np.testing.assert_array_equal(v1, v2)

    def test_eval_counter(self):
        cfg = tiny_refine_cfg()
        net = refine.VelocityNet(6, cfg, np.random.default_rng(24))
        before = net.eval_count
        refine.refine(np.zeros((8, 6)), net,
                      dataclasses.replace(cfg, iterations=3),
                      np.random.default_rng(25))
        assert net.eval_count - before == 3


def full_refine_gradcheck(net, cfg, m0, m, cond, rtol=1e-3, atol=1e-6,
                          step=1e-5, max_coords=3, seed=0, sc_seed=42):
    """Finite-difference check of the full refinement objective.

    The self-consistency term contains deliberate gradient stops (the rollout
    input velocity and the later-time branch). The difference oracle freezes
    those quantities at their current values so it probes the function whose
    gradient the objective defines; the analytic side runs the real graph.
    """
    b = m0.shape[0]
    t_cfm = np.random.default_rng(seed + 1).uniform(size=b)

    def real_loss():
        l = cfg.lambda_cfm * refine.cfm_loss(net, Tensor(m0), Tensor(m),
                                             Tensor(cond), t_cfm)
        l_sc = refine.self_consistency_loss(net, Tensor(m0), Tensor(m),
                                            Tensor(cond),
                                            np.random.default_rng(sc_seed), cfg)
        return l + cfg.lambda_self_cons * l_sc

    # freeze the sampled times, rollout state, and stopped branch at theta_0
    t_sc, dt_sc = refine.sample_consistency_times(
        np.random.default_rng(sc_seed), cfg, b)
    active = (t_sc + dt_sc) < (1 - cfg.epsilon)
    tb = t_sc.reshape(-1, 1, 1)
    m_t_sc = (1 - tb) * m0 + tb * m
    with T.no_grad():
        v1_0 = net(Tensor(m_t_sc), t_sc, Tensor(cond)).data
        m_next_0 = m_t_sc + dt_sc.reshape(-1, 1, 1) * v1_0
        v2_0 = net(Tensor(m_next_0), t_sc + dt_sc, Tensor(cond)).data
    mask = active.astype(np.float64).reshape(-1, 1, 1)

    def frozen_loss():
        with T.no_grad():
            l = cfg.lambda_cfm * refine.cfm_loss(net, Tensor(m0), Tensor(m),
                                                 Tensor(cond), t_cfm)
            v1 = net(Tensor(m_t_sc), t_sc, Tensor(cond))
            diff = v1 - Tensor(v2_0)
            if not active.any():
                sc = Tensor(0.0)
            else:
                sc = (diff * diff * Tensor(mask)).mean()
            total = l + cfg.lambda_self_cons * sc
        return total.item()

    params = net.named_parameters()
    for p in params.values():
        p.zero_grad()
    loss = real_loss()
    assert loss.item() == pytest.approx(frozen_loss(), rel=1e-12)
    T.backward(loss)
    rng = np.random.default_rng(seed)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        coords = rng.choice(flat.size, size=min(max_coords, flat.size),
                            replace=False)
        for c in coords:
            original = flat[c]
            flat[c] = original + step
            up = frozen_loss()
            flat[c] = original - step
            down = frozen_loss()
            flat[c] = original
            numeric = (up - down) / (2 * step)
            analytic = p.grad.reshape(-1)[c]
            np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol,
                                       err_msg=f"gradient mismatch for {name}[{c}]")


class TestFullObjectiveGradients:
    def test_refine_objective_matches_finite_differences(self):
        cfg = tiny_refine_cfg()
        net = refine.VelocityNet(4, cfg, np.random.default_rng(26))
        net.eval()  # dropout off so the probe is deterministic
        rng = np.random.default_rng(27)
        m0 = rng.normal(size=(2, 4, 4))
        m = rng.normal(size=(2, 4, 4))
        cond = rng.normal(size=(2, 4, 4))
        full_refine_gradcheck(net, cfg, m0, m, cond)


class TestRefineInference:
    def test_seeded_determinism_and_shape(self):
        cfg = tiny_refine_cfg()
        net = refine.VelocityNet(6, cfg, np.random.default_rng(28))
        cond = np.random.default_rng(29).normal(size=(10, 6))
        out1 = refine.refine(cond, net, cfg, np.random.default_rng(7))
        out2 = refine.refine(cond, net, cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(out1, out2)
        assert out1.shape == cond.shape


class TestTrainRefine:
    def test_smoke_and_bundle(self, toy_corpus, tmp_path, desk_cfg):
        cfg = config.preset("desk")
        cfg.refine = dataclasses.replace(cfg.refine, phase1_steps=4,
                                         phase2_steps=2, batch_size=2)
        model = coding.CodingModel(cfg.mel, cfg.coding, np.random.default_rng(0))
        out = tmp_path / "refine.fmck"
        net = refine.train_refine(toy_corpus, model, cfg, out)
        assert out.exists()
        state = T.load_checkpoint(out)
        assert any(k.startswith("coding/") for k in state)
        assert any(k.startswith("refine/") for k in state)
        csv_text = (tmp_path / "refine.fmck.loss.csv").read_text()
        assert csv_text.count("\n") == 7  # header + 6 steps
        loaded = Codec.load(out, cfg).net
        for key, val in net.state_dict().items():
            np.testing.assert_array_equal(loaded.state_dict()[key], val)

    def test_zero_lambda_phase2_extends_phase1(self, toy_corpus, tmp_path):
        model_cfg = config.preset("desk")
        model = coding.CodingModel(model_cfg.mel, model_cfg.coding,
                                   np.random.default_rng(0))

        cfg_a = config.preset("desk")
        cfg_a.refine = dataclasses.replace(cfg_a.refine, phase1_steps=6,
                                           phase2_steps=4, lambda_self_cons=0.0,
                                           batch_size=2)
        refine.train_refine(toy_corpus, model, cfg_a, tmp_path / "a.fmck")

        cfg_b = config.preset("desk")
        cfg_b.refine = dataclasses.replace(cfg_b.refine, phase1_steps=10,
                                           phase2_steps=0, batch_size=2)
        refine.train_refine(toy_corpus, model, cfg_b, tmp_path / "b.fmck")
        assert (tmp_path / "a.fmck").read_bytes() == (tmp_path / "b.fmck").read_bytes()

    def test_missing_refine_stage_rejected(self, tmp_path, desk_cfg):
        model = coding.CodingModel(desk_cfg.mel, desk_cfg.coding,
                                   np.random.default_rng(0))
        path = tmp_path / "coding_only.fmck"
        T.save_checkpoint(path, model.state_dict(prefix="coding/"))
        with pytest.raises(ValueError, match="no refinement stage"):
            Codec.load(path, desk_cfg)

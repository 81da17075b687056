"""Q-network numerics (gradient checks), replay, exploration, encoding, and a
pinned train+eval run."""

import hashlib
import json

import numpy as np
import pytest

from sfcsim.catalog import default_catalog
from sfcsim.cli import run_one
from sfcsim.config import ScenarioConfig, load_config
from sfcsim.datacenter import DataCenter
from sfcsim.dqn import (
    DqnAgent,
    DqnPolicy,
    QNetwork,
    ReplayBuffer,
    RewardSpec,
    StateEncoder,
    action_space_size,
    decode_action,
    encode_action,
    load_agent,
    run_training_episode,
    train,
)
from sfcsim.engine import Engine
from sfcsim.policy import ALLOCATE, IDLE_WAIT, UNINSTALL
from sfcsim.requestgen import RequestGenerator
from sfcsim.topology import NetworkGraph

VNF_NAMES = list(default_catalog().vnfs)


class TestActionCodec:
    def test_space_size(self):
        assert action_space_size(5) == 61
        assert action_space_size(3) == 37

    def test_bijection(self):
        for n_dcs in (2, 3, 5):
            seen = set()
            for idx in range(action_space_size(n_dcs)):
                action = decode_action(idx, n_dcs, VNF_NAMES)
                key = (action.kind, action.vtype, action.dc)
                assert key not in seen
                seen.add(key)
                assert encode_action(action, n_dcs, VNF_NAMES) == idx
            kinds = {k for k, _, _ in seen}
            assert kinds == {ALLOCATE, UNINSTALL, IDLE_WAIT}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decode_action(61, 5, VNF_NAMES)


def random_inputs(rng, widths, batch=1):
    return [rng.standard_normal((batch, w)) for w in widths]


def flatten_params(net):
    names = sorted(net.params)
    vec = np.concatenate([net.params[n].ravel() for n in names])
    return names, vec


def set_params(net, names, vec):
    at = 0
    for n in names:
        shape = net.params[n].shape
        size = net.params[n].size
        net.params[n] = vec[at:at + size].reshape(shape).copy()
        at += size


class TestGradients:
    def loss_and_grads(self, net, xs, actions, targets):
        q, cache = net.forward_cached(xs)
        b = len(actions)
        picked = q[np.arange(b), actions]
        err = picked - targets
        loss = float(np.mean(err ** 2))
        dq = np.zeros_like(q)
        dq[np.arange(b), actions] = 2.0 * err / b
        return loss, net.backward(cache, dq)

    def test_backprop_matches_central_differences(self):
        # randomized small networks, every parameter group spot-checked
        failures = []
        for trial in range(20):
            rng = np.random.default_rng([trial, 0x9])
            widths = [int(rng.integers(2, 6)) for _ in range(3)]
            net = QNetwork(widths, int(rng.integers(3, 8)), branch_dim=4,
                           hidden=(6, 5), rng=rng)
            net.params["theta"] = rng.standard_normal(3) * 0.5
            batch = int(rng.integers(1, 5))
            xs = random_inputs(rng, widths, batch)
            actions = rng.integers(0, net.n_actions, size=batch)
            targets = rng.standard_normal(batch)

            _, grads = self.loss_and_grads(net, xs, actions, targets)
            names, vec = flatten_params(net)
            flat_grad = np.concatenate([grads[n].ravel() for n in names])

            eps = 1e-6
            idx = rng.choice(len(vec), size=min(len(vec), 25), replace=False)
            for i in idx:
                bumped = vec.copy()
                bumped[i] += eps
                set_params(net, names, bumped)
                up, _ = self.loss_and_grads(net, xs, actions, targets)
                bumped[i] -= 2 * eps
                set_params(net, names, bumped)
                down, _ = self.loss_and_grads(net, xs, actions, targets)
                set_params(net, names, vec)
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(flat_grad[i]), 1e-8)
                if abs(numeric - flat_grad[i]) / denom > 1e-4:
                    failures.append((trial, names, i, numeric, flat_grad[i]))
        assert not failures, failures[:3]

    def test_zero_input_gives_bias_row(self):
        net = QNetwork([4, 3, 2], 5, branch_dim=4, hidden=(6, 5),
                       rng=np.random.default_rng(0))
        for key in ("bb0", "bb1", "bb2", "b1", "b2"):
            net.params[key][:] = 0.0
        net.params["b3"] = np.arange(5.0)
        xs = [np.zeros((1, 4)), np.zeros((1, 3)), np.zeros((1, 2))]
        assert np.allclose(net.forward(xs)[0], np.arange(5.0))

    def test_forward_deterministic(self):
        rng = np.random.default_rng(4)
        net = QNetwork([4, 3, 2], 5, branch_dim=4, hidden=(6, 5), rng=rng)
        xs = random_inputs(rng, [4, 3, 2])
        assert np.array_equal(net.forward(xs), net.forward(xs))

    def test_gates_are_softmax(self):
        net = QNetwork([4, 3, 2], 5, rng=np.random.default_rng(0))
        assert np.allclose(net.gates(), [1 / 3] * 3)
        net.params["theta"] = np.array([10.0, 0.0, -10.0])
        g = net.gates()
        assert g[0] > 0.99 and abs(g.sum() - 1.0) < 1e-12


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(3, 2)
        for i in range(5):
            buf.push(np.full(2, i), i, float(i), np.full(2, i + 1), False)
        assert buf.size == 3
        kept = sorted(buf.actions[:buf.size].tolist())
        assert kept == [2, 3, 4]

    def test_uniform_sampling(self):
        buf = ReplayBuffer(10, 1)
        for i in range(10):
            buf.push(np.zeros(1), i, 0.0, np.zeros(1), False)
        rng = np.random.default_rng(0)
        counts = np.zeros(10)
        for _ in range(200):
            _, actions, _, _, _, _ = buf.sample(50, rng)
            for a in actions:
                counts[a] += 1
        assert counts.min() > 0.5 * counts.mean()


def agent_hp(**over):
    hp = dict(ScenarioConfig({}).data["dqn"])
    hp.update(over)
    return hp


class TestAgent:
    def test_epsilon_one_uniform_over_action_space(self):
        agent = DqnAgent([4, 3, 2], 13, agent_hp(), seed=3)
        xs = [np.zeros(4), np.zeros(3), np.zeros(2)]
        draws = np.array([agent.act_index(xs, 1.0) for _ in range(10_000)])
        counts = np.bincount(draws, minlength=13)
        expected = len(draws) / 13
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square with 12 dof: p > 0.01 means chi2 below 26.22
        assert chi2 < 26.22

    def test_epsilon_zero_takes_argmax(self):
        agent = DqnAgent([4, 3, 2], 5, agent_hp(), seed=3)
        agent.online.params["W3"][:] = 0.0
        agent.online.params["b3"] = np.array([0.0, 3.0, 1.0, -2.0, 2.0])
        xs = [np.zeros(4), np.zeros(3), np.zeros(2)]
        assert agent.act_index(xs, 0.0) == 1

    def test_epsilon_schedule_monotone_bounded(self):
        agent = DqnAgent([4, 3, 2], 5, agent_hp(eps_start=1.0, eps_min=0.05), seed=0)
        agent.decay_episodes = 50
        values = [agent.epsilon(ep) for ep in range(120)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.05 <= v <= 1.0 for v in values)
        assert values[60] == 0.05

    def test_terminal_batch_with_matching_q_has_zero_loss(self):
        agent = DqnAgent([2, 2, 2], 3, agent_hp(lr=0.0), seed=1)
        # force Q(s, a) == reward for a terminal transition
        agent.online.params["W3"][:] = 0.0
        agent.online.params["b3"][:] = 4.0
        batch = (np.zeros((2, 6)), np.array([0, 2]), np.array([4.0, 4.0]),
                 np.zeros((2, 6)), np.array([True, True]))
        assert agent.train_step(batch) == pytest.approx(0.0)

    def test_gamma_zero_target_is_reward(self):
        hp = agent_hp(gamma=0.0, lr=0.05, grad_clip=1e9, target_sync=10_000)
        agent = DqnAgent([2, 2, 2], 3, hp, seed=1)
        state = np.array([1.0, 0.5, -0.2, 0.3, 0.8, -0.5])
        batch = (state[None, :], np.array([1]), np.array([2.5]),
                 state[None, :], np.array([False]))
        for _ in range(500):
            agent.train_step(batch)
        q = agent.online.forward(agent.split(state[None, :]))[0]
        assert abs(q[1] - 2.5) < 1e-3

    def test_single_transition_converges_to_bellman_fixed_point(self):
        hp = agent_hp(gamma=0.9, lr=0.05, grad_clip=1e9, target_sync=10_000)
        agent = DqnAgent([2, 2, 2], 3, hp, seed=2)
        state = np.array([0.3, -0.1, 0.7, 0.2, -0.4, 0.9])
        nxt = np.array([-0.2, 0.5, 0.1, -0.6, 0.3, 0.4])
        batch = (state[None, :], np.array([0]), np.array([1.0]),
                 nxt[None, :], np.array([False]))
        target = 1.0 + 0.9 * float(agent.target.forward(agent.split(nxt[None, :]))[0].max())
        for _ in range(500):
            agent.train_step(batch)
        q = agent.online.forward(agent.split(state[None, :]))[0]
        assert abs(q[0] - target) < 1e-3

    def test_target_sync_copies_online(self):
        hp = agent_hp(target_sync=3, lr=0.01)
        agent = DqnAgent([2, 2, 2], 3, hp, seed=1)
        batch = (np.random.default_rng(0).standard_normal((4, 6)),
                 np.array([0, 1, 2, 0]), np.ones(4),
                 np.random.default_rng(1).standard_normal((4, 6)),
                 np.array([False, False, True, False]))
        agent.train_step(batch)
        assert not np.array_equal(agent.online.params["W3"], agent.target.params["W3"])
        agent.train_step(batch)
        agent.train_step(batch)  # third step: hard sync
        for key in agent.online.params:
            assert np.array_equal(agent.online.params[key], agent.target.params[key])

    def test_save_load_roundtrip(self, tmp_path):
        agent = DqnAgent([4, 3, 2], 5, agent_hp(), seed=9)
        agent.train_steps = 17
        agent.episode = 3
        path = str(tmp_path / "ck.npz")
        agent.save(path)
        back = load_agent(path)
        assert back.train_steps == 17 and back.episode == 3
        for key in agent.online.params:
            assert np.array_equal(agent.online.params[key], back.online.params[key])


class TestStateEncoder:
    def make_engine(self):
        catalog = default_catalog()
        nodes = [(0, 0.0, 0.0), (1, 100.0, 0.0)]
        graph = NetworkGraph(nodes, [(0, 1, 500.0)])
        dcs = [DataCenter(i, 2000, 64, 256) for i in range(2)]
        return Engine(graph, dcs, catalog), catalog

    def test_fresh_state_features(self):
        engine, catalog = self.make_engine()
        enc = StateEncoder(catalog, 2, 1).encode(engine)
        dc_block, sfc_block, link_block = enc
        assert dc_block.shape == (2 * 20,)
        assert np.all(dc_block[:2] == 1.0)
        assert np.all(dc_block[2:20] == 0.0)
        assert link_block.tolist() == [1.0]
        # no live requests: remaining-deadline features read fully relaxed
        sfc = sfc_block.reshape(6, 8)
        assert np.all(sfc[:, :6] == 0.0)
        assert np.all(sfc[:, 6:] == 1.0)

    def test_storage_feature_after_install(self):
        engine, catalog = self.make_engine()
        engine.dcs[0].install_vnf(catalog.vnfs["NAT"])
        dc_block = StateEncoder(catalog, 2, 1).encode(engine)[0]
        assert dc_block[0] == pytest.approx(1993 / 2000)
        assert dc_block[2] == pytest.approx(1 / 50)  # one idle NAT, capped at 50

    def test_encoding_aggregates_over_tags(self):
        engine, catalog = self.make_engine()
        gen = RequestGenerator(catalog, 2, 0)
        engine.inject(gen.manual_wave([
            {"type": "CG", "src": 0, "dest": 1},
            {"type": "CG", "src": 0, "dest": 1},
        ]))
        encoder = StateEncoder(catalog, 2, 1)
        enc = encoder.encode(engine)
        sfc = enc[1].reshape(6, 8)
        cg_row = list(catalog.sfcs).index("CG")
        nat_col = 0
        assert sfc[cg_row, nat_col] == pytest.approx(2 / 50)
        # same state rebuilt with renamed tags encodes identically
        engine2, _ = self.make_engine()
        gen2 = RequestGenerator(catalog, 2, 7)
        gen2.next_tag = 40
        engine2.inject(gen2.manual_wave([
            {"type": "CG", "src": 0, "dest": 1},
            {"type": "CG", "src": 0, "dest": 1},
        ]))
        enc2 = encoder.encode(engine2)
        for a, b in zip(enc, enc2):
            assert np.array_equal(a, b)

    def test_widths_match_agent_contract(self):
        engine, catalog = self.make_engine()
        encoder = StateEncoder(catalog, 2, 1)
        enc = encoder.encode(engine)
        assert tuple(len(x) for x in enc) == encoder.widths


class TestTraining:
    def test_zero_episodes_returns_agent_unchanged(self, tmp_path):
        cfg = load_config("tiny", seed=1)
        result = train(cfg, out_dir=str(tmp_path), episodes=0)
        fresh = DqnAgent(result.agent.branch_widths, result.agent.n_actions,
                         cfg.data["dqn"], seed=1)
        for key in fresh.online.params:
            assert np.array_equal(fresh.online.params[key],
                                  result.agent.online.params[key])
        assert result.curve == []

    def test_learning_curve_bitwise_deterministic(self):
        curves = []
        for _ in range(2):
            cfg = load_config("tiny", seed=5)
            result = train(cfg, episodes=3)
            curves.append(result.curve)
        assert curves[0] == curves[1]

    def test_training_episode_collects_transitions(self):
        cfg = load_config("tiny", seed=2)
        from sfcsim.dqn import build_agent

        agent = build_agent(cfg, 2)
        result, policy = run_training_episode(cfg, agent, epsilon=1.0, episode_seed=2)
        assert agent.buffer.size > 0
        assert agent.buffer.terminal[:agent.buffer.size].sum() == 1
        assert result.generated == 1

    def test_reward_spec_signs(self):
        with pytest.raises(ValueError):
            RewardSpec(complete=-1.0)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestTrainEvalDigest:
    def test_seeded_train_then_eval_is_pinned(self):
        # a small batch makes the three training episodes reach train_step,
        # so learning, replay sampling and target sync all feed the digests;
        # the two evaluations run DqnPolicy greedy and epsilon-greedy
        cfg = load_config("tiny", seed=5, overrides={"dqn.min_buffer": 8, "dqn.batch": 8})
        result = train(cfg, episodes=3)
        agent = result.agent
        assert agent.train_steps > 0
        params = hashlib.sha256()
        for name in sorted(agent.online.params):
            params.update(name.encode())
            params.update(agent.online.params[name].tobytes())
        digests = {
            "curve": _sha256(json.dumps(result.curve, sort_keys=True)),
            "params": params.hexdigest(),
        }
        outcomes = []
        for eps in (0.0, 0.3):
            res, metrics = run_one(cfg, 5, policy=DqnPolicy(agent, cfg, 5, epsilon=eps))
            outcomes.append((res.steps, res.generated, res.accepted))
            digests[f"eval eps={eps}"] = _sha256(json.dumps(
                {"summary": metrics.summary_dict(), "steps": res.steps},
                sort_keys=True, separators=(",", ":")))
        assert agent.train_steps == 12
        assert outcomes == [(802, 1, 0), (160, 1, 1)]
        assert digests == {
            "curve": "86c952f05dae19559840362f56a1d93e730267a1f18415de0ea7876b8f021606",
            "params": "b742a8991188a92b9ab49e9125bc6a0c1bf65a8105670a764e11f57d51dab68f",
            "eval eps=0.0": "f5fd452cdc23747778d7903ce0f3795354c6e0af49b104a74b3342e333bde562",
            "eval eps=0.3": "c57ddd8293f74383c8c9e882f4a0037b1fad5f09ca76e6ea589ce64e85f52b58",
        }

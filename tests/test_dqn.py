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
    DqnTrainingPolicy,
    PhaseFeatures,
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
            buf.push(np.full(2, i), i, float(i))
        assert buf.size == 3
        kept = sorted(buf.actions[:buf.size].tolist())
        assert kept == [2, 3, 4]

    def test_uniform_sampling(self):
        buf = ReplayBuffer(10, 1)
        for i in range(10):
            buf.push(np.zeros(1), i, 0.0)
        rng = np.random.default_rng(0)
        counts = np.zeros(10)
        for _ in range(200):
            _, actions, _ = buf.sample(50, rng)
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
        draws = np.array([agent.act_index(xs, 1.0)[0] for _ in range(10_000)])
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
        assert agent.act_index(xs, 0.0)[0] == 1

    def test_memoised_q_skips_the_forward_pass(self):
        agent = DqnAgent([4, 3, 2], 5, agent_hp(), seed=3)
        xs = [np.zeros(4), np.zeros(3), np.zeros(2)]
        idx, q = agent.act_index(xs, 0.0)
        assert q is not None and idx == int(np.argmax(q))
        # a q handed back is trusted as the Q-vector of the encoding
        fake = np.array([0.0, 0.0, 0.0, 9.0, 0.0])
        assert agent.act_index(xs, 0.0, fake) == (3, fake)

    def test_epsilon_schedule_monotone_bounded(self):
        agent = DqnAgent([4, 3, 2], 5, agent_hp(eps_start=1.0, eps_min=0.05), seed=0)
        agent.decay_episodes = 50
        values = [agent.epsilon(ep) for ep in range(120)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(0.05 <= v <= 1.0 for v in values)
        assert values[60] == 0.05

    def test_terminal_batch_with_matching_q_has_zero_loss(self):
        # every transition is terminal: no next-state term enters the target
        agent = DqnAgent([2, 2, 2], 3, agent_hp(lr=0.0), seed=1)
        # force Q(s, a) == reward
        agent.online.params["W3"][:] = 0.0
        agent.online.params["b3"][:] = 4.0
        batch = (np.zeros((2, 6)), np.array([0, 2]), np.array([4.0, 4.0]))
        assert agent.train_step(batch) == pytest.approx(0.0)

    def test_gamma_zero_target_is_reward(self):
        hp = agent_hp(lr=0.05, grad_clip=1e9)
        agent = DqnAgent([2, 2, 2], 3, hp, seed=1)
        state = np.array([1.0, 0.5, -0.2, 0.3, 0.8, -0.5])
        batch = (state[None, :], np.array([1]), np.array([2.5]))
        for _ in range(500):
            agent.train_step(batch)
        q = agent.online.forward(agent.split(state[None, :]))[0]
        assert abs(q[1] - 2.5) < 1e-3

    def test_repeated_pair_regresses_to_mean_label(self):
        # least squares: one (s, a) seen with labels 1 and 3 fits their mean
        agent = DqnAgent([2, 2, 2], 3, agent_hp(lr=0.05, grad_clip=1e9), seed=2)
        state = np.array([0.3, -0.1, 0.7, 0.2, -0.4, 0.9])
        batch = (np.stack([state, state]), np.array([0, 0]), np.array([1.0, 3.0]))
        for _ in range(500):
            agent.train_step(batch)
        q = agent.online.forward(agent.split(state[None, :]))[0]
        assert abs(q[0] - 2.0) < 1e-3

    def test_only_sampled_actions_move_their_output_weights(self):
        agent = DqnAgent([2, 2, 2], 4, agent_hp(lr=0.01), seed=1)
        before = {k: v.copy() for k, v in agent.online.params.items()}
        rng = np.random.default_rng(0)
        batch = (rng.standard_normal((4, 6)), np.array([0, 2, 2, 0]), rng.standard_normal(4))
        agent.train_step(batch)
        after = agent.online.params
        for a in (1, 3):
            assert np.array_equal(after["W3"][:, a], before["W3"][:, a])
            assert after["b3"][a] == before["b3"][a]
        for a in (0, 2):
            assert not np.array_equal(after["W3"][:, a], before["W3"][:, a])

    def test_save_load_roundtrip(self, tmp_path):
        agent = DqnAgent([4, 3, 2], 5, agent_hp(), seed=9)
        agent.train_steps = 17
        agent.episode = 3
        path = str(tmp_path / "ck.npz")
        agent.save(path)
        with np.load(path) as data:
            assert json.loads(str(data["meta"]))["version"] == 2
            assert not [k for k in data.files if k.startswith("target_")]
        back = load_agent(path)
        assert back.train_steps == 17 and back.episode == 3
        for key in agent.online.params:
            assert np.array_equal(agent.online.params[key], back.online.params[key])

    def _write_checkpoint(self, path, agent, version):
        # the version-1 layout: online and target parameters side by side
        meta = {"version": version, "branch_widths": list(agent.branch_widths),
                "n_actions": agent.n_actions, "hp": agent.hp, "train_steps": 5,
                "episode": 2, "decay_episodes": 4}
        arrays = {f"online_{k}": v for k, v in agent.online.params.items()}
        arrays.update({f"target_{k}": np.zeros_like(v) for k, v in agent.online.params.items()})
        np.savez(path, meta=json.dumps(meta), **arrays)

    def test_version_1_checkpoint_loads_online_parameters(self, tmp_path):
        agent = DqnAgent([4, 3, 2], 5, agent_hp(), seed=9)
        path = str(tmp_path / "v1.npz")
        self._write_checkpoint(path, agent, 1)
        back = load_agent(path)
        assert (back.train_steps, back.episode, back.decay_episodes) == (5, 2, 4)
        for key in agent.online.params:
            assert np.array_equal(agent.online.params[key], back.online.params[key])

    def test_unknown_checkpoint_version_rejected(self, tmp_path):
        path = str(tmp_path / "v3.npz")
        self._write_checkpoint(path, DqnAgent([4, 3, 2], 5, agent_hp(), seed=9), 3)
        with pytest.raises(ValueError, match="version 3"):
            load_agent(path)


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
        # every label is an outcome, an invalid-action penalty or zero
        labels = set(agent.buffer.rewards[:agent.buffer.size].tolist())
        assert labels <= {10.0, -10.0, -1.0, 0.0}
        assert result.generated == 1
        assert (10.0 in labels) == (result.accepted == 1)

    def test_reward_spec_signs(self):
        with pytest.raises(ValueError):
            RewardSpec(complete=-1.0)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _openblas_core() -> str:
    """The OpenBLAS kernel numpy dispatches to, read from the bundled library
    as perfbench/run.py reads it; "unknown" when it cannot be read."""
    import ctypes
    from pathlib import Path

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")) if libs.is_dir() else []:
        try:
            fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return "unknown"


class TestTrainEvalDigest:
    # The pins were taken where OpenBLAS runs its SkylakeX (AVX-512) kernel;
    # another kernel sums floats in another order, so on it a mismatch says
    # "other kernel", not "behaviour changed".
    PINNED_CORE = "SkylakeX"

    def test_seeded_train_then_eval_is_pinned(self):
        # a small batch makes the three training episodes reach train_step,
        # so learning and replay sampling feed the digests;
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
        core = _openblas_core()
        kernel = (f"pinned under the OpenBLAS {self.PINNED_CORE} kernel; this host runs "
                  f"{core}" + ("" if core == self.PINNED_CORE
                               else ", so a mismatch here may be the other kernel"))
        assert agent.train_steps == 12, kernel
        assert outcomes == [(802, 1, 0), (160, 1, 1)], kernel
        assert digests == {
            "curve": "86c952f05dae19559840362f56a1d93e730267a1f18415de0ea7876b8f021606",
            "params": "b742a8991188a92b9ab49e9125bc6a0c1bf65a8105670a764e11f57d51dab68f",
            "eval eps=0.0": "f5fd452cdc23747778d7903ce0f3795354c6e0af49b104a74b3342e333bde562",
            "eval eps=0.3": "c57ddd8293f74383c8c9e882f4a0037b1fad5f09ca76e6ea589ce64e85f52b58",
        }, kernel


def _busy_tiny(seed):
    """tiny with three waves of mixed SFC types: several live cohorts at once."""
    wave = [{"type": "Ind4.0", "src": 0, "dest": 1}, {"type": "AugR", "src": 1, "dest": 0},
            {"type": "MIoT", "src": 1, "dest": 0}]
    return load_config("tiny", seed=seed, overrides={
        "dqn.min_buffer": 8, "dqn.batch": 8,
        "requests.wave_times": [0, 15, 30], "requests.manual": [wave, wave[:2], wave],
    })


def _recount_deadlines(sfc_names, engine):
    """StateEncoder's deadline features rebuilt tag by tag: per SFC type, the
    (min, count-weighted mean) remaining-deadline fraction, the mean summed
    over cohorts (same inject step) in inject-step order."""
    now = engine.step_no
    out = []
    for styp in sfc_names:
        cohorts = {}
        for rec in engine.live.values():
            if rec.type_name == styp:
                frac = max(0, rec.deadline_steps - (now - rec.inject_step)) / rec.deadline_steps
                inject = rec.inject_step
                cohorts[inject] = (frac, cohorts.get(inject, (frac, 0))[1] + 1)
        if not cohorts:
            out.append((1.0, 1.0))
            continue
        ordered = [cohorts[inject] for inject in sorted(cohorts)]
        total = sum(count for _, count in ordered)
        out.append((min(frac for frac, _ in ordered),
                    sum(frac * count for frac, count in ordered) / total))
    return out


def _recount_waiting(encoder, engine):
    """StateEncoder's waiting counts rebuilt from the engine's waiting groups,
    tag by tag: per (SFC type, VNF type) and per (DC of the chain, VNF type)."""
    pending = {s: {v: 0 for v in encoder.vnf_names} for s in encoder.sfc_names}
    local = {(dc.dc_id, v): 0 for dc in engine.dcs for v in encoder.vnf_names}
    for vname, groups in engine.waiting.items():
        for group in groups.values():
            for tag in group:
                rec = engine.live[tag]
                pending[rec.type_name][vname] += 1
                local[(rec.sfc_dc, vname)] += 1
    return pending, local


class TestPolicyPhase:
    """What one policy phase shares between its actions, checked against the
    same work done afresh."""

    def test_at_most_one_forward_per_encoding(self, monkeypatch):
        real_encode = StateEncoder.encode
        real_forward = QNetwork.forward_cached
        real_train = DqnAgent.train_step
        log = []
        training = [False]

        def encode(self, engine, phase=None):
            log.append("encode")
            return real_encode(self, engine, phase)

        def forward_cached(self, xs):
            if not training[0]:
                log.append("forward")
            return real_forward(self, xs)

        def train_step(self, batch=None):
            training[0] = True
            try:
                return real_train(self, batch)
            finally:
                training[0] = False

        monkeypatch.setattr(StateEncoder, "encode", encode)
        monkeypatch.setattr(QNetwork, "forward_cached", forward_cached)
        monkeypatch.setattr(DqnAgent, "train_step", train_step)
        cfg = _busy_tiny(5)
        agent = train(cfg, episodes=3).agent
        assert agent.train_steps > 0
        for eps in (0.0, 0.3):
            run_one(cfg, 5, policy=DqnPolicy(agent, cfg, 5, epsilon=eps))
        assert log.count("forward") > 0
        assert log[0] == "encode"
        assert ("forward", "forward") not in set(zip(log, log[1:]))

    def test_phase_encoding_matches_a_fresh_encode(self, monkeypatch):
        real_encode = StateEncoder.encode
        steps = []

        def encode(self, engine, phase=None):
            enc = real_encode(self, engine, phase)
            if phase is not None:
                for shared, fresh in zip(enc, real_encode(self, engine)):
                    assert np.array_equal(shared, fresh)
                steps.append(engine.step_no)
            return enc

        monkeypatch.setattr(StateEncoder, "encode", encode)
        cfg = _busy_tiny(2)
        from sfcsim.dqn import build_agent

        run_training_episode(cfg, build_agent(cfg, 2), epsilon=1.0, episode_seed=2)
        # re-encodes after successful actions share their phase's features
        assert len(set(steps)) < len(steps)

    def test_phase_features_match_a_per_tag_recount(self, monkeypatch):
        # checked when a phase starts and after every accepted action, for
        # guided and epsilon training draws and for evaluation at eps 0 and 0.3
        real_phase = StateEncoder.phase_features
        real_take = PhaseFeatures.take_allocated
        real_apply = Engine.apply_action
        encoders = {}
        counts = {"accepted": 0, "checked": 0}
        multi = []

        def check(encoder, engine, phase):
            assert phase.deadlines == _recount_deadlines(encoder.sfc_names, engine)
            assert (phase.pending, phase.local) == _recount_waiting(encoder, engine)

        def phase_features(self, engine):
            phase = real_phase(self, engine)
            check(self, engine, phase)
            encoders[id(phase)] = self
            cohorts = {(rec.type_name, rec.inject_step) for rec in engine.live.values()}
            multi.append(len(cohorts) > len({styp for styp, _ in cohorts}))
            return phase

        def take_allocated(self, engine):
            real_take(self, engine)
            check(encoders[id(self)], engine, self)
            counts["checked"] += 1

        def apply_action(self, action):
            ok = real_apply(self, action)
            counts["accepted"] += ok
            return ok

        monkeypatch.setattr(StateEncoder, "phase_features", phase_features)
        monkeypatch.setattr(PhaseFeatures, "take_allocated", take_allocated)
        monkeypatch.setattr(Engine, "apply_action", apply_action)
        cfg = _busy_tiny(3)
        from sfcsim.dqn import build_agent

        agent = build_agent(cfg, 3)
        accepted = []
        for eps, guide in ((1.0, 1.0), (1.0, 0.0), (0.3, 0.0)):
            run_training_episode(cfg, agent, epsilon=eps, episode_seed=3, guide_prob=guide)
            accepted.append(counts["accepted"])
        for eps in (0.0, 0.3):
            run_one(cfg, 3, policy=DqnPolicy(agent, cfg, 3, epsilon=eps))
            accepted.append(counts["accepted"])
        assert counts["checked"] == counts["accepted"]
        # each run accepts actions, except perhaps the greedy evaluation,
        # which stops at its first refusal
        gains = [b - a for a, b in zip([0, *accepted], accepted)]
        assert all(gains[i] > 0 for i in (0, 1, 2, 4)), gains
        # some phases see one SFC type injected on more than one step
        assert any(multi) and len(multi) > 20

    def test_refused_action_reaches_the_engine_once_per_state(self, monkeypatch):
        import sfcsim.dqn

        real_act = DqnTrainingPolicy.act
        real_apply = Engine.apply_action
        real_decode = sfcsim.dqn.decode_action
        refused = set()
        counts = {"drawn": 0, "applied": 0, "refused": 0}

        def act(self, engine):
            refused.clear()
            return real_act(self, engine)

        def decode(idx, n_dcs, vnf_names):
            action = real_decode(idx, n_dcs, vnf_names)
            counts["drawn"] += action.kind != IDLE_WAIT
            return action

        def apply_action(self, action):
            # a refusal leaves the state as it was, so asking again is waste
            assert action not in refused, action
            ok = real_apply(self, action)
            counts["applied"] += 1
            if ok:
                refused.clear()
            else:
                refused.add(action)
                counts["refused"] += 1
            return ok

        monkeypatch.setattr(DqnTrainingPolicy, "act", act)
        monkeypatch.setattr(Engine, "apply_action", apply_action)
        monkeypatch.setattr(sfcsim.dqn, "decode_action", decode)
        cfg = _busy_tiny(3).with_overrides({"dqn.max_actions": 40})
        from sfcsim.dqn import build_agent

        agent = build_agent(cfg, 3)
        for eps in (1.0, 0.0):
            run_training_episode(cfg, agent, epsilon=eps, episode_seed=3)
        # repeated refusals were drawn, labelled and answered without the engine
        assert counts["refused"] > 0
        assert counts["drawn"] > counts["applied"]


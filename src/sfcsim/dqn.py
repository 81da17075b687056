"""DRL placement agent: grouped-feature encoder, from-scratch Q-network with
per-branch gating, replay buffer, epsilon-greedy control, and the training
loop.

The network picks (action kind, VNF type, DC); the concrete SFC under an
allocation is always chosen by priority points, which keeps the action space
fixed at 12 * n_dcs + 1. Everything runs in float64 numpy so gradients can be
checked against central finite differences.

Training is regression of Q(s, a) on outcome labels: each replayed
(state, action, reward) is fitted to its own reward, with no bootstrapped
next-state term, so there is no target network and no next state to store.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .config import ConfigError
from .policy import ALLOCATE, IDLE_WAIT, UNINSTALL, PolicyAction


class TrainingDiverged(Exception):
    pass


# -- action codec -------------------------------------------------------------

def action_space_size(n_dcs: int, n_vnfs: int = 6) -> int:
    return 2 * n_vnfs * n_dcs + 1


def decode_action(index: int, n_dcs: int, vnf_names) -> PolicyAction:
    n_vnfs = len(vnf_names)
    block = n_vnfs * n_dcs
    if index == 2 * block:
        return PolicyAction(IDLE_WAIT)
    if not 0 <= index < 2 * block:
        raise ValueError(f"action index {index} out of range")
    kind = ALLOCATE if index < block else UNINSTALL
    rem = index % block
    return PolicyAction(kind, vnf_names[rem % n_vnfs], rem // n_vnfs)


def encode_action(action: PolicyAction, n_dcs: int, vnf_names) -> int:
    n_vnfs = len(vnf_names)
    block = n_vnfs * n_dcs
    if action.kind == IDLE_WAIT:
        return 2 * block
    base = 0 if action.kind == ALLOCATE else block
    return base + action.dc * n_vnfs + vnf_names.index(action.vtype)


# -- state encoding -----------------------------------------------------------

class StateEncoder:
    """Three fixed-width branches: per-DC resources, instance counts and
    locally-pending head counts; per-SFC-type pending work and remaining
    deadlines; per-edge residuals. Counts are capped then scaled into [0, 1].

    The deadline features and the link branch read only the step number, the
    live cohorts and the reserved bandwidth. No policy action changes those
    (apply_action reserves no bandwidth and removes no cohort), so
    `phase_features` computes them once per policy phase and `encode` reuses
    them for every re-encode after an action.
    """

    def __init__(self, catalog: Catalog, n_dcs: int, n_edges: int, count_cap: int = 50):
        self.vnf_names = list(catalog.vnfs)
        self.sfc_names = list(catalog.sfcs)
        self.n_dcs = n_dcs
        self.cap = float(count_cap)
        nv = len(self.vnf_names)
        self.widths = (
            n_dcs * (2 + 3 * nv),
            len(self.sfc_names) * (nv + 2),
            n_edges,
        )

    def phase_features(self, engine) -> tuple[list[tuple[float, float]], np.ndarray]:
        """Per SFC type, the (min, count-weighted mean) remaining-deadline
        fraction over its live cohorts, and the link branch. Valid until the
        engine steps again."""
        now = engine.step_no
        by_type = {s: ([], []) for s in self.sfc_names}
        for (styp, inject), count in engine.cohorts.items():
            rec_deadline = engine.catalog.sfcs[styp].deadline_steps
            rem = max(0, rec_deadline - (now - inject))
            fracs, counts = by_type[styp]
            fracs.append(rem / rec_deadline)
            counts.append(count)
        deadlines = []
        for fracs, counts in by_type.values():
            if fracs:
                total = sum(counts)
                deadlines.append(
                    (min(fracs), sum(f * c for f, c in zip(fracs, counts)) / total))
            else:
                deadlines.append((1.0, 1.0))
        links = np.asarray([
            engine.graph.residual_mbps(m, n) / engine.graph.capacity_mbps(m, n)
            for m, n in engine.graph.edge_keys()
        ], dtype=np.float64)
        return deadlines, links

    def encode(self, engine, phase=None) -> list[np.ndarray]:
        """The three branches. `phase` is `self.phase_features(engine)` from
        the same policy phase; it is computed here when not given."""
        deadlines, links = self.phase_features(engine) if phase is None else phase
        cap = self.cap
        dc_feats = []
        for dc in engine.dcs:
            dc_feats.append(dc.cur_storage / dc.max_storage)
            dc_feats.append(dc.cur_compute / dc.max_compute)
            for v in self.vnf_names:
                dc_feats.append(min(dc.idle_count(v), cap) / cap)
            for v in self.vnf_names:
                dc_feats.append(min(dc.in_use_count(v), cap) / cap)
            for v in self.vnf_names:
                dc_feats.append(min(engine.local_pending[(dc.dc_id, v)], cap) / cap)

        sfc_feats = []
        for s, (earliest, mean) in zip(self.sfc_names, deadlines):
            pending = engine.pending_by_type[s]
            for v in self.vnf_names:
                sfc_feats.append(min(pending[v], cap) / cap)
            sfc_feats.append(earliest)
            sfc_feats.append(mean)
        return [
            np.asarray(dc_feats, dtype=np.float64),
            np.asarray(sfc_feats, dtype=np.float64),
            links,
        ]


# -- the network ---------------------------------------------------------------

def _glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class QNetwork:
    """Per-branch affine layers, a learned softmax gate over the branches,
    two ReLU hidden layers, and a linear output head."""

    def __init__(self, branch_widths, n_actions, *, branch_dim=32, hidden=(128, 64),
                 rng=None):
        rng = rng or np.random.default_rng(0)
        self.branch_widths = tuple(int(w) for w in branch_widths)
        self.n_actions = int(n_actions)
        self.branch_dim = int(branch_dim)
        self.hidden = tuple(int(h) for h in hidden)
        nb = len(self.branch_widths)
        concat = nb * self.branch_dim
        h1, h2 = self.hidden
        self.params: dict[str, np.ndarray] = {}
        for i, w in enumerate(self.branch_widths):
            self.params[f"Wb{i}"] = _glorot(rng, w, self.branch_dim)
            self.params[f"bb{i}"] = np.zeros(self.branch_dim)
        self.params["theta"] = np.zeros(nb)
        self.params["W1"] = _glorot(rng, concat, h1)
        self.params["b1"] = np.zeros(h1)
        self.params["W2"] = _glorot(rng, h1, h2)
        self.params["b2"] = np.zeros(h2)
        self.params["W3"] = _glorot(rng, h2, self.n_actions)
        self.params["b3"] = np.zeros(self.n_actions)

    def gates(self) -> np.ndarray:
        theta = self.params["theta"]
        exp = np.exp(theta - theta.max())
        return exp / exp.sum()

    def forward(self, xs: list[np.ndarray]):
        q, _ = self.forward_cached(xs)
        return q

    def forward_cached(self, xs: list[np.ndarray]):
        xs = [np.atleast_2d(x) for x in xs]
        for x, w in zip(xs, self.branch_widths):
            if x.shape[1] != w:
                raise ValueError(f"branch width mismatch: {x.shape[1]} != {w}")
        p = self.params
        embeds = [x @ p[f"Wb{i}"] + p[f"bb{i}"] for i, x in enumerate(xs)]
        g = self.gates()
        z = np.hstack([g[i] * e for i, e in enumerate(embeds)])
        pre1 = z @ p["W1"] + p["b1"]
        h1 = np.maximum(pre1, 0.0)
        pre2 = h1 @ p["W2"] + p["b2"]
        h2 = np.maximum(pre2, 0.0)
        q = h2 @ p["W3"] + p["b3"]
        cache = (xs, embeds, g, z, pre1, h1, pre2, h2)
        return q, cache

    def backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
        xs, embeds, g, z, pre1, h1, pre2, h2 = cache
        p = self.params
        grads: dict[str, np.ndarray] = {}
        grads["W3"] = h2.T @ dq
        grads["b3"] = dq.sum(axis=0)
        dh2 = dq @ p["W3"].T
        dpre2 = dh2 * (pre2 > 0)
        grads["W2"] = h1.T @ dpre2
        grads["b2"] = dpre2.sum(axis=0)
        dh1 = dpre2 @ p["W2"].T
        dpre1 = dh1 * (pre1 > 0)
        grads["W1"] = z.T @ dpre1
        grads["b1"] = dpre1.sum(axis=0)
        dz = dpre1 @ p["W1"].T
        db = self.branch_dim
        dgate = np.empty(len(embeds))
        for i, (x, e) in enumerate(zip(xs, embeds)):
            dge = dz[:, i * db:(i + 1) * db]
            de = dge * g[i]
            grads[f"Wb{i}"] = x.T @ de
            grads[f"bb{i}"] = de.sum(axis=0)
            dgate[i] = float((dge * e).sum())
        grads["theta"] = g * (dgate - float(g @ dgate))
        return grads

    def check_finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.params.values())


# -- replay buffer --------------------------------------------------------------

class ReplayBuffer:
    """FIFO ring of (state, action, reward): all that label regression reads.

    The rows start uninitialised (np.empty, so a large ring costs no memset
    at set-up): sample draws only indices below size, and push has written
    every one of those rows.
    """

    def __init__(self, capacity: int, state_width: int):
        self.capacity = int(capacity)
        self.states = np.empty((capacity, state_width), dtype=np.float32)
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity)
        self.size = 0
        self._next = 0

    def push(self, state, action, reward) -> None:
        i = self._next
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng) -> tuple:
        idx = rng.integers(0, self.size, size=batch)
        return self.states[idx], self.actions[idx], self.rewards[idx]


@dataclass(frozen=True)
class RewardSpec:
    """Label magnitudes: a completed request's allocations read +complete,
    a dropped one's -drop, and an infeasible choice -invalid. There is no
    per-step term; every label comes from an outcome or a refusal."""

    complete: float = 10.0
    drop: float = 10.0
    invalid: float = 1.0

    def __post_init__(self):
        if min(self.complete, self.drop, self.invalid) < 0:
            raise ValueError("reward magnitudes must be non-negative")


# -- agent -----------------------------------------------------------------------

class DqnAgent:
    def __init__(self, branch_widths, n_actions, hp: dict, seed: int = 0):
        self.hp = dict(hp)
        self.branch_widths = tuple(branch_widths)
        self.n_actions = n_actions
        self.rng = np.random.default_rng([int(seed), 0xD09])
        net_rng = np.random.default_rng([int(seed), 0x1417])
        self.online = QNetwork(branch_widths, n_actions,
                               branch_dim=hp["branch_dim"], hidden=tuple(hp["hidden"]),
                               rng=net_rng)
        total_width = sum(self.branch_widths)
        self.buffer = ReplayBuffer(hp["buffer"], total_width)
        self.train_steps = 0
        self.episode = 0
        self.decay_episodes = max(1, int(hp.get("episodes", 200)) // 2)

    # -- acting -------------------------------------------------------------

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        out = []
        start = 0
        for w in self.branch_widths:
            out.append(flat[..., start:start + w])
            start += w
        return out

    def act_index(self, enc: list[np.ndarray], epsilon: float,
                  q: np.ndarray | None = None) -> tuple[int, np.ndarray | None]:
        """One epsilon-greedy draw on encoding enc; returns (index, q).

        q is enc's Q-vector or None; the forward pass runs only when a greedy
        draw needs it and it is None. Passing the returned q back runs it at
        most once per encoding, until enc or the parameters change."""
        if self.rng.random() < epsilon:
            return int(self.rng.integers(self.n_actions)), q
        if q is None:
            q = self.online.forward(enc)[0]
        return int(np.argmax(q)), q

    def epsilon(self, episode: int) -> float:
        hp = self.hp
        span = max(1, self.decay_episodes)
        if episode >= span:
            return hp["eps_min"]
        frac = episode / span
        return hp["eps_start"] + (hp["eps_min"] - hp["eps_start"]) * frac

    # -- learning --------------------------------------------------------------

    def train_step(self, batch=None) -> float:
        """One SGD step on the mean squared error of Q(s, a) against the
        reward labels of a (states, actions, rewards) batch, by default one
        sampled from the replay ring."""
        hp = self.hp
        if batch is None:
            batch = self.buffer.sample(hp["batch"], self.rng)
        states, actions, rewards = batch
        xs = self.split(np.atleast_2d(states))
        q, cache = self.online.forward_cached(xs)
        b = len(actions)
        picked = q[np.arange(b), actions]
        err = picked - rewards
        loss = float(np.mean(err ** 2))
        dq = np.zeros_like(q)
        dq[np.arange(b), actions] = 2.0 * err / b
        grads = self.online.backward(cache, dq)
        total = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        clip = hp["grad_clip"]
        scale = clip / total if total > clip else 1.0
        lr = hp["lr"]
        for name, g in grads.items():
            self.online.params[name] -= lr * scale * g
        self.train_steps += 1
        return loss

    # -- persistence --------------------------------------------------------------

    def save(self, path: str) -> None:
        meta = {
            "version": 2,
            "branch_widths": list(self.branch_widths),
            "n_actions": self.n_actions,
            "hp": self.hp,
            "train_steps": self.train_steps,
            "episode": self.episode,
            "decay_episodes": self.decay_episodes,
        }
        arrays = {f"online_{k}": v for k, v in self.online.params.items()}
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        np.savez(path, meta=json.dumps(meta, sort_keys=True), **arrays)


def load_agent(path: str) -> DqnAgent:
    """Read a checkpoint; ConfigError when it is missing or unreadable.
    Version 1 files also hold target-network arrays, which are ignored;
    version 2 holds only the online parameters."""
    try:
        data = np.load(path, allow_pickle=False)
        meta = json.loads(str(data["meta"]))
        if meta.get("version") not in (1, 2):
            raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
        agent = DqnAgent(meta["branch_widths"], meta["n_actions"], meta["hp"])
        for k in agent.online.params:
            agent.online.params[k] = data[f"online_{k}"]
        agent.train_steps = meta["train_steps"]
        agent.episode = meta["episode"]
        agent.decay_episodes = meta["decay_episodes"]
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}") from exc
    return agent


def agent_encoder(agent: DqnAgent, catalog: Catalog, graph, count_cap: int) -> StateEncoder:
    """The scenario's state encoder; ConfigError when its branch widths are
    not the ones the agent's network was built for."""
    encoder = StateEncoder(catalog, graph.n, len(graph.edge_keys()), count_cap)
    if encoder.widths != agent.branch_widths:
        raise ConfigError(f"checkpoint expects branches {agent.branch_widths}, "
                          f"scenario produces {encoder.widths}")
    return encoder


# -- policies ----------------------------------------------------------------------

class DqnPolicy:
    """Evaluation-time policy: epsilon-greedy (default greedy) multi-action
    invocations, stopping early on IdleWait or an infeasible choice."""

    name = "dqn"

    def __init__(self, agent: DqnAgent, cfg, seed: int, epsilon: float | None = None):
        self.agent = agent
        dqn_cfg = cfg.data["dqn"]
        self.max_actions = int(dqn_cfg["max_actions"])
        self.epsilon = dqn_cfg["eps_eval"] if epsilon is None else epsilon
        self.encoder = agent_encoder(agent, cfg.build_catalog(), cfg.build_graph(),
                                     int(dqn_cfg["count_cap"]))

    def act(self, engine) -> None:
        vnf_names = self.encoder.vnf_names
        phase = self.encoder.phase_features(engine)
        enc = q = None
        for _ in range(self.max_actions):
            if enc is None:
                enc = self.encoder.encode(engine, phase)
                q = None
            idx, q = self.agent.act_index(enc, self.epsilon, q)
            action = decode_action(idx, self.encoder.n_dcs, vnf_names)
            if action.kind == IDLE_WAIT:
                break
            if engine.apply_action(action):
                enc = None
            elif self.epsilon == 0.0:
                break  # a failed greedy choice would just repeat


class DqnTrainingPolicy:
    """Collects (state, action, reward) transitions during an episode and
    trains on a fixed cadence.

    Outcome credit: every transition that allocated a request's VNF is held
    open until that request finalises, then labelled with the request's own
    completion reward or drop penalty. Infeasible choices are penalised on
    the spot; IdleWait and uninstalls read zero. Those immediate labels wait
    in `open` and are pushed, in draw order, when the next policy phase
    starts. No label has a per-step term. The label is the regression
    target of Q(s, a) itself, with no bootstrap term, which turns placement
    scoring into a plain regression on the encoded state.

    Infeasible and IdleWait draws vastly outnumber informative transitions
    during exploration; only a sample of them is recorded so they cannot
    flush allocation outcomes from the replay ring.
    """

    INVALID_KEEP = 0.25
    IDLE_KEEP = 0.125

    def __init__(self, agent: DqnAgent, encoder: StateEncoder, rewards: RewardSpec,
                 epsilon: float, max_actions: int, train_interval: int, min_buffer: int,
                 guide_prob: float = 0.0):
        self.agent = agent
        self.encoder = encoder
        self.rewards = rewards
        self.epsilon = epsilon
        self.max_actions = max_actions
        self.train_interval = train_interval
        self.min_buffer = min_buffer
        self.guide_prob = guide_prob
        self.open: list[tuple] = []  # (state, action, immediate reward)
        self.open_by_tag: dict[int, list[tuple]] = {}  # tag -> [(state, action)]
        self.cum_reward = 0.0
        self.losses: list[float] = []
        self._seen_done = 0
        self._seen_dropped = 0
        self._since_train = 0

    def _push(self, state, action, reward) -> None:
        self.agent.buffer.push(state, action, reward)
        self.cum_reward += reward
        self._since_train += 1
        if self._since_train >= self.train_interval:
            self._since_train = 0
            if self.agent.buffer.size >= max(self.min_buffer, self.agent.hp["batch"]):
                loss = self.agent.train_step()
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"loss became {loss}")
                self.losses.append(loss)

    def _collect_events(self, engine) -> None:
        done, dropped = len(engine.done), len(engine.dropped)
        for rec in engine.done[self._seen_done:]:
            self._resolve_tag(rec.tag, self.rewards.complete)
        for rec in engine.dropped[self._seen_dropped:]:
            self._resolve_tag(rec.tag, -self.rewards.drop)
        self._seen_done, self._seen_dropped = done, dropped

    def _resolve_tag(self, tag: int, reward: float) -> None:
        for state, action in self.open_by_tag.pop(tag, ()):
            self._push(state, action, reward)

    def _close_invocation(self) -> None:
        for state, action, reward in self.open:
            self._push(state, action, reward)
        self.open = []

    def _guide_index(self, engine) -> int | None:
        """A reflex on observable features: a uniformly chosen allocate action
        whose DC has locally pending heads of that type and room to serve
        them. Returns None when nothing qualifies."""
        waiting = [(vname, vtype) for vname, vtype in engine.catalog.vnfs.items()
                   if engine.waiting[vname]]
        options = []
        for dc in engine.dcs:
            for vname, vtype in waiting:
                if engine.local_pending[(dc.dc_id, vname)] <= 0:
                    continue
                if dc.idle_count(vname) == 0 and not dc.can_install(vtype):
                    continue
                options.append(PolicyAction(ALLOCATE, vname, dc.dc_id))
        if not options:
            return None
        pick = options[int(self.agent.rng.integers(len(options)))]
        return encode_action(pick, self.encoder.n_dcs, self.encoder.vnf_names)

    def act(self, engine) -> None:
        # the only train_step calls of a phase run here, before any action:
        # the parameters are fixed from here on, so q (the Q-vector of enc)
        # stays valid until an action changes the state
        self._collect_events(engine)
        self._close_invocation()
        vnf_names = self.encoder.vnf_names
        phase = self.encoder.phase_features(engine)
        enc = q = None
        for _ in range(self.max_actions):
            if enc is None:
                enc = self.encoder.encode(engine, phase)
                flat = np.concatenate(enc)
                q = None
            idx = None
            if self.guide_prob > 0.0 and self.agent.rng.random() < self.guide_prob:
                idx = self._guide_index(engine)
            if idx is None:
                idx, q = self.agent.act_index(enc, self.epsilon, q)
            action = decode_action(idx, self.encoder.n_dcs, vnf_names)
            if action.kind == IDLE_WAIT:
                # not a stop during training: keeps exploration throughput
                # independent of the current value estimates
                if self.agent.rng.random() < self.IDLE_KEEP:
                    self.open.append((flat, idx, 0.0))
                continue
            if not engine.apply_action(action):
                # state unchanged; record the penalty and draw again
                if self.agent.rng.random() < self.INVALID_KEEP:
                    self.open.append((flat, idx, -self.rewards.invalid))
                continue
            if engine.last_allocated_tag is not None:
                self.open_by_tag.setdefault(engine.last_allocated_tag, []).append((flat, idx))
            else:
                self.open.append((flat, idx, 0.0))
            enc = None

    def finish(self, engine) -> None:
        self._collect_events(engine)
        for tag in list(self.open_by_tag):
            self._resolve_tag(tag, 0.0)
        self._close_invocation()


# -- training loop -----------------------------------------------------------------

def build_agent(cfg, seed: int) -> DqnAgent:
    catalog = cfg.build_catalog()
    graph = cfg.build_graph()
    encoder = StateEncoder(catalog, graph.n, len(graph.edge_keys()),
                           int(cfg.data["dqn"]["count_cap"]))
    n_actions = action_space_size(graph.n, len(encoder.vnf_names))
    return DqnAgent(encoder.widths, n_actions, cfg.data["dqn"], seed=seed)


def run_training_episode(cfg, agent: DqnAgent, epsilon: float, episode_seed: int,
                         guide_prob: float = 0.0):
    from .config import make_runtime
    from .engine import run_episode

    engine, generator, plan = make_runtime(cfg, episode_seed)
    dqn_cfg = cfg.data["dqn"]
    encoder = agent_encoder(agent, engine.catalog, engine.graph, int(dqn_cfg["count_cap"]))
    reward = dqn_cfg["reward"]
    rewards = RewardSpec(reward["complete"], reward["drop"], reward["invalid"])
    policy = DqnTrainingPolicy(
        agent, encoder, rewards, epsilon,
        int(dqn_cfg["max_actions"]), int(dqn_cfg["train_interval"]),
        int(dqn_cfg["min_buffer"]), guide_prob=guide_prob,
    )
    result = run_episode(engine, generator, plan, policy,
                         t_model=int(dqn_cfg["t_model"]),
                         step_cap=int(cfg.data["run"]["step_cap"]))
    policy.finish(engine)
    return result, policy


@dataclass
class TrainResult:
    agent: DqnAgent
    curve: list[dict]
    checkpoint_path: str | None


def train(cfg, out_dir: str | None = None, episodes: int | None = None,
          resume: str | None = None, seed: int | None = None,
          progress=None) -> TrainResult:
    """Train an agent on a scenario; returns the agent and per-episode curve.

    Aborts with TrainingDiverged on a non-finite loss, keeping the last good
    checkpoint on disk when out_dir is given.
    """
    seed = cfg.seed if seed is None else seed
    episodes = int(cfg.data["dqn"]["episodes"]) if episodes is None else int(episodes)
    if resume:
        agent = load_agent(resume)
    else:
        agent = build_agent(cfg, seed)
        agent.decay_episodes = max(1, episodes // 2)
    curve: list[dict] = []
    ckpt_path = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_path = os.path.join(out_dir, "checkpoint.npz")
        agent.save(ckpt_path)
    checkpoint_every = int(cfg.data["dqn"]["checkpoint_every"])
    start = agent.episode
    guide_span = float(cfg.data["dqn"]["guide_frac"]) * max(1, episodes + start)
    for ep in range(start, start + episodes):
        eps = agent.epsilon(ep)
        guide = max(0.0, 1.0 - ep / guide_span) if guide_span > 0 else 0.0
        result, policy = run_training_episode(cfg, agent, eps, _episode_seed(seed, ep),
                                              guide_prob=guide)
        agent.episode = ep + 1
        if not agent.online.check_finite():
            raise TrainingDiverged(f"non-finite parameters after episode {ep}")
        row = {
            "episode": ep,
            "epsilon": eps,
            "mean_loss": sum(policy.losses) / len(policy.losses) if policy.losses else 0.0,
            "acceptance_ratio": result.acceptance_ratio if result.acceptance_ratio is not None else 0.0,
            "cumulative_reward": policy.cum_reward,
        }
        curve.append(row)
        if progress:
            progress(row)
        if out_dir and (ep + 1 - start) % checkpoint_every == 0:
            agent.save(ckpt_path)
    if out_dir:
        agent.save(ckpt_path)
        _write_curve(os.path.join(out_dir, "curve.csv"), curve)
    return TrainResult(agent, curve, ckpt_path)


def _episode_seed(seed: int, episode: int) -> int:
    # distinct, reproducible per-episode environment seeds
    return (int(seed) * 1_000_003 + episode) % (2 ** 31)


def _write_curve(path: str, curve: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["episode", "epsilon", "mean_loss", "acceptance_ratio",
                    "cumulative_reward"])
        for row in curve:
            w.writerow([row["episode"], repr(row["epsilon"]), repr(row["mean_loss"]),
                        repr(row["acceptance_ratio"]), repr(row["cumulative_reward"])])

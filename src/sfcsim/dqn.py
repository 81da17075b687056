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

A training step does, bit for bit, the arithmetic of per-array code (one
array per parameter, each operation with a fresh result; the tests keep it
as their reference) in as few numpy calls as that allows: the parameters
and their gradients live in two flat float64 vectors laid out in
backward's order, so the clipped SGD update is two whole-vector in-place
operations. From the network's first
forward on, `QNetwork.params[name]` is a view of the parameter vector: it
is written in place, never rebound. The gradients stay valid until the
next backward.

Every draw of the agent (epsilon-greedy, the training guide, the sampling
of refused and no-op labels, the replay batch) comes from one AgentDraws
stream seeded [seed, 0xD09], bit for bit the draws of
np.random.default_rng([seed, 0xD09]) but served from raw PCG64 output read
ahead in blocks. Reading ahead is safe because nothing else draws from that
stream and a checkpoint carries no rng state.

The replay ring stores states in float32. Acting reads each encoding in
float64, but the transitions kept at it wait for their labels as one
float32 copy of it, and the ring stores a run of pushes of one copy as one
row, so the many refused draws at one state cost one row between them.

Every setting comes from the scenario's `dqn` section, held as
`DqnAgent.hp`; a checkpoint brings only its parameters and counters.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .catalog import Catalog
from .config import ConfigError
from .policy import ALLOCATE, UNINSTALL, PolicyAction
from .requestgen import WaveDraws


class TrainingDiverged(Exception):
    pass


# -- action codec -------------------------------------------------------------

def action_space_size(n_dcs: int, n_vnfs: int = 6) -> int:
    return 2 * n_vnfs * n_dcs + 1


def decode_action(index: int, n_dcs: int, vnf_names) -> PolicyAction | None:
    """The action of a Q-vector index: the allocations, then the uninstalls,
    each numbered DC-major with VNF types in vnf_names order. The last index,
    2 * n_vnfs * n_dcs, is the no-op, which decodes to None."""
    n_vnfs = len(vnf_names)
    block = n_vnfs * n_dcs
    if index == 2 * block:
        return None
    if not 0 <= index < 2 * block:
        raise ValueError(f"action index {index} out of range")
    kind = ALLOCATE if index < block else UNINSTALL
    rem = index % block
    return PolicyAction(kind, vnf_names[rem % n_vnfs], rem // n_vnfs)


# -- state encoding -----------------------------------------------------------

@dataclass
class PhaseFeatures:
    """What StateEncoder counts once per policy phase, and the phase's latest
    encoding. No policy action moves deadlines (per SFC type) or links (per
    edge): apply_action reserves no bandwidth and ends no record. The
    waiting-head counts, pending[sfc type][vnf type] and local[(dc the chain
    sits at, vnf type)], move only by allocation.

    take_action updates the counts for an accepted action and marks the
    entries of `flat` it changed, which the next encode rewrites into a new
    array. `flat` is never written in place: an encoding stays as it was
    handed out while the policy acts on it and copies it for the replay ring.
    """

    deadlines: list[tuple[float, float]]
    links: np.ndarray
    pending: dict[str, dict[str, int]]
    local: dict[tuple[int, str], int]
    flat: np.ndarray | None = None  # None until the phase's first encode
    stale_dcs: set[tuple[int, str]] = field(default_factory=set)  # (dc, vnf type)
    stale_sfcs: set[tuple[str, str]] = field(default_factory=set)  # (sfc type, vnf type)

    def take_action(self, engine, action: PolicyAction) -> None:
        """Account for an action the engine has just accepted."""
        self.stale_dcs.add((action.dc, action.vtype))
        tag = engine.last_allocated_tag
        if tag is not None:
            rec = engine.live[tag]  # allocation leaves rec.sfc_dc as it was
            vname = rec.chain[0].vtype
            self.pending[rec.type_name][vname] -= 1
            self.local[(rec.sfc_dc, vname)] -= 1
            self.stale_dcs.add((rec.sfc_dc, vname))
            self.stale_sfcs.add((rec.type_name, vname))


class StateEncoder:
    """Three fixed-width branches, flattened into one float64 vector: per-DC
    resources, instance counts and locally-pending head counts; per-SFC-type
    pending work and remaining deadlines; per-edge residuals. Counts are
    capped then scaled into [0, 1].

    The engine keeps none of these counts: once per policy phase,
    `phase_features` walks its live records for the deadline cohorts and its
    waiting groups for the waiting heads. The phase's first `encode` writes
    every feature; each later one copies the phase's last encoding and
    rewrites the entries the accepted action changed, by the same
    expressions.
    """

    def __init__(self, catalog: Catalog, n_dcs: int, n_edges: int, count_cap: int = 50):
        self.vnf_names = list(catalog.vnfs)
        self.sfc_names = list(catalog.sfcs)
        self.n_dcs = n_dcs
        self.cap = float(count_cap)
        nv = len(self.vnf_names)
        self.dc_width = 2 + 3 * nv
        self.sfc_width = nv + 2
        self.widths = (
            n_dcs * self.dc_width,
            len(self.sfc_names) * self.sfc_width,
            n_edges,
        )
        self.vnf_pos = {v: j for j, v in enumerate(self.vnf_names)}
        self.sfc_pos = {s: i for i, s in enumerate(self.sfc_names)}

    def phase_features(self, engine) -> PhaseFeatures:
        """The phase's features, valid until the engine steps again.
        deadlines[i] is the (min, count-weighted mean) remaining-deadline
        fraction over the live cohorts (one inject step) of SFC type i."""
        now = engine.step_no
        # live is in tag order, which is inject order, so each type's cohorts
        # are met, and their mean summed, by ascending inject step
        cohorts = {s: {} for s in self.sfc_names}  # type -> inject step -> count
        for rec in engine.live.values():
            steps = cohorts[rec.type_name]
            steps[rec.inject_step] = steps.get(rec.inject_step, 0) + 1
        # the waiting heads are the tags of the engine's waiting groups
        pending = {s: dict.fromkeys(self.vnf_names, 0) for s in self.sfc_names}
        local = {(dc.dc_id, v): 0 for dc in engine.dcs for v in self.vnf_names}
        live = engine.live
        for vname, groups in engine.waiting.items():
            for group in groups.values():
                for tag in group:
                    rec = live[tag]
                    pending[rec.type_name][vname] += 1
                    local[(rec.sfc_dc, vname)] += 1
        deadlines = []
        for styp, steps in cohorts.items():
            deadline = engine.catalog.sfcs[styp].deadline_steps
            fracs = [max(0, deadline - (now - inject)) / deadline for inject in steps]
            counts = steps.values()
            deadlines.append((min(fracs), sum(f * c for f, c in zip(fracs, counts)) / sum(counts))
                             if steps else (1.0, 1.0))
        links = np.asarray([
            engine.graph.residual_mbps(m, n) / engine.graph.capacity_mbps(m, n)
            for m, n in engine.graph.edge_keys()
        ], dtype=np.float64)
        return PhaseFeatures(deadlines, links, pending, local)

    def encode(self, engine, phase: PhaseFeatures | None = None) -> np.ndarray:
        """The flat encoding of the engine's state. `phase` is
        `self.phase_features(engine)` from the same policy phase, given
        every action accepted since through take_action; it is computed here
        when not given. Returns a new array and leaves it in `phase.flat`."""
        phase = phase or self.phase_features(engine)
        nv, dc_width, sfc_width = len(self.vnf_names), self.dc_width, self.sfc_width
        if phase.flat is None:
            flat = np.empty(sum(self.widths))
            for i, deadline in enumerate(phase.deadlines):
                at = self.widths[0] + i * sfc_width + nv
                flat[at:at + 2] = deadline
            flat[self.widths[0] + self.widths[1]:] = phase.links
            dcs = [(dc.dc_id, v) for dc in engine.dcs for v in self.vnf_names]
            sfcs = [(s, v) for s in self.sfc_names for v in self.vnf_names]
        else:
            flat = phase.flat.copy()
            dcs, sfcs = phase.stale_dcs, phase.stale_sfcs
        cap = self.cap
        for d, v in dcs:
            dc = engine.dcs[d]
            at, j = d * dc_width, self.vnf_pos[v]
            flat[at] = dc.cur_storage / dc.max_storage
            flat[at + 1] = dc.cur_compute / dc.max_compute
            flat[at + 2 + j] = min(dc.idle_count(v), cap) / cap
            flat[at + 2 + nv + j] = min(dc.in_use_count(v), cap) / cap
            flat[at + 2 + 2 * nv + j] = min(phase.local[(d, v)], cap) / cap
        for s, v in sfcs:
            at = self.widths[0] + self.sfc_pos[s] * sfc_width + self.vnf_pos[v]
            flat[at] = min(phase.pending[s][v], cap) / cap
        phase.stale_dcs.clear()
        phase.stale_sfcs.clear()
        phase.flat = flat
        return flat


# -- the network ---------------------------------------------------------------

def _glorot(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class QNetwork:
    """Per-branch affine layers, a learned softmax gate over the branches,
    two ReLU hidden layers, and a linear output head.

    Every parameter lives in one float64 vector, laid out in the order
    `backward` writes the gradients: W3, b3, W2, b2, W1, b1, the branch
    weights Wb{i}, the branch biases bb{i} side by side, then theta. The
    network is built with one array per parameter, so set-up pays nothing
    for the vector; the first `flat_params` call (the first forward or
    backward) packs the arrays into it, and from then on `params[name]` is
    a view of it. The dict keeps its name order, which
    checkpoints follow. Write a parameter in place
    (`params[name][...] = value`), never rebind it: every forward, backward
    and update reads the vector, so `flat_params` refuses a rebound name.
    `backward` writes the gradients into views of a second vector,
    `grad_flat` (`grads[name]`); they stay valid until the next `backward`.
    """

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
        # set by the first flat_params call
        self._flat: np.ndarray | None = None
        self._views: dict[str, np.ndarray] = {}  # what params[name] must be
        self.grad_flat: np.ndarray | None = None
        self.grads: dict[str, np.ndarray] = {}
        self._spans: list[slice] = []  # each array's slice, in the clip norm's order
        self._branch_biases = self._branch_bias_grads = None  # every bb{i}, in order

    def flat_params(self) -> np.ndarray:
        """The parameter vector, packed from the arrays on the first call.
        Raises RuntimeError when a parameter has been rebound since."""
        if self._flat is None:
            nb = len(self.branch_widths)
            layout = ["W3", "b3", "W2", "b2", "W1", "b1"]
            layout += [f"Wb{i}" for i in range(nb)] + [f"bb{i}" for i in range(nb)] + ["theta"]
            size = sum(self.params[name].size for name in layout)
            self._flat, self.grad_flat = np.empty(size), np.empty(size)
            spans, at = {}, 0
            for name in layout:
                array = self.params[name]
                spans[name] = span = slice(at, at + array.size)
                view = self._flat[span].reshape(array.shape)
                view[...] = array
                self.params[name] = self._views[name] = view
                self.grads[name] = self.grad_flat[span].reshape(array.shape)
                at = span.stop
            # the branch biases side by side, as the embeddings' columns are
            block = slice(spans["bb0"].start, spans[f"bb{nb - 1}"].stop)
            self._branch_biases = self._flat[block]
            self._branch_bias_grads = self.grad_flat[block]
            # the per-array code's gradient order: each Wb{i} then its bb{i}
            order = layout[:6] + [f"{kind}{i}" for i in range(nb) for kind in ("Wb", "bb")]
            self._spans = [spans[name] for name in order + ["theta"]]
        params = self.params
        for name, view in self._views.items():
            if params[name] is not view:
                raise RuntimeError(f"parameter {name} was rebound; write it in place "
                                   f"(params[{name!r}][...] = value)")
        return self._flat

    def gates(self) -> np.ndarray:
        """The softmax of theta."""
        theta = self.params["theta"]
        exp = np.exp(theta - np.maximum.reduce(theta))
        return exp / np.add.reduce(exp)

    def forward(self, xs: list[np.ndarray]):
        q, _ = self.forward_cached(xs)
        return q

    def forward_cached(self, xs: list[np.ndarray]):
        xs = [np.atleast_2d(x) for x in xs]
        for x, w in zip(xs, self.branch_widths):
            if x.shape[1] != w:
                raise ValueError(f"branch width mismatch: {x.shape[1]} != {w}")
        self.flat_params()
        p = self.params
        nb, db = len(xs), self.branch_dim
        # embeds[:, i*db:(i+1)*db] is branch i's embedding; z gates each by g[i]
        embeds = np.empty((xs[0].shape[0], nb * db))
        for i, x in enumerate(xs):
            np.matmul(x, p[f"Wb{i}"], out=embeds[:, i * db:(i + 1) * db])
        embeds += self._branch_biases
        g = self.gates()
        gate = np.repeat(g, db)
        z = embeds * gate
        h1 = z @ p["W1"]
        h1 += p["b1"]
        np.maximum(h1, 0.0, out=h1)
        h2 = h1 @ p["W2"]
        h2 += p["b2"]
        np.maximum(h2, 0.0, out=h2)
        q = h2 @ p["W3"]
        q += p["b3"]
        return q, (xs, embeds, g, gate, z, h1, h2)

    def backward(self, cache, dq: np.ndarray) -> dict[str, np.ndarray]:
        """The gradients, as `grads`: views of `grad_flat`, overwritten by
        the next call."""
        xs, embeds, g, gate, z, h1, h2 = cache
        self.flat_params()
        p, grads = self.params, self.grads
        np.matmul(h2.T, dq, out=grads["W3"])
        np.add.reduce(dq, axis=0, out=grads["b3"])
        dh2 = dq @ p["W3"].T
        dh2 *= h2 > 0  # a ReLU's output is > 0 exactly where its input is
        np.matmul(h1.T, dh2, out=grads["W2"])
        np.add.reduce(dh2, axis=0, out=grads["b2"])
        dh1 = dh2 @ p["W2"].T
        dh1 *= h1 > 0
        np.matmul(z.T, dh1, out=grads["W1"])
        np.add.reduce(dh1, axis=0, out=grads["b1"])
        dz = dh1 @ p["W1"].T
        nb, b, db = len(xs), len(dz), self.branch_dim
        de = dz * gate
        for i, x in enumerate(xs):
            np.matmul(x.T, de[:, i * db:(i + 1) * db], out=grads[f"Wb{i}"])
        np.add.reduce(de, axis=0, out=self._branch_bias_grads)
        # dgate[i] sums branch i's products of dz and embeds in one pairwise
        # pass over a contiguous (row, column) block, as .sum() of the
        # branch's own product array adds them
        products = np.empty((nb, b, db))
        np.multiply(dz.reshape(b, nb, db).transpose(1, 0, 2),
                    embeds.reshape(b, nb, db).transpose(1, 0, 2), out=products)
        dgate = np.add.reduce(products.reshape(nb, b * db), axis=1)
        np.multiply(g, dgate - float(g @ dgate), out=grads["theta"])
        return grads

    def clipped_step(self, lr: float, clip: float) -> None:
        """Subtract lr times the last backward's gradients, scaled down to a
        norm of at most clip. The norm sums each gradient array on its own,
        then those sums in backward's order. Leaves the step in grad_flat."""
        grad = self.grad_flat
        squares = grad * grad
        total = np.sqrt(sum([float(np.add.reduce(squares[span])) for span in self._spans]))
        scale = clip / total if total > clip else 1.0
        grad *= lr * scale
        flat = self.flat_params()
        flat -= grad

    def check_finite(self) -> bool:
        return bool(np.isfinite(self.flat_params()).all())


# -- replay buffer --------------------------------------------------------------

class ReplayBuffer:
    """FIFO ring of (state, action, reward): all that label regression reads.

    Entry i's state is the float32 row states[rows[i]]. A run of pushes of
    one state object, as the refused draws at one state make, shares one
    row: push writes a new row only when handed an object other than the one
    it was handed last, and holds that object so no new array can take its
    id. Identity stands for equal content because no one writes a state once
    it is handed out.

    Rows are handed out in push order, around a ring of capacity rows. The
    entries that read a row are pushed one after another from the push that
    wrote it, and the row is next written capacity new states later, so at
    least capacity pushes after the last of those entries: by then each has
    been overwritten, by that same push at the latest. So sample returns
    what a ring of one row per push would, after the ring wraps too.

    The arrays start uninitialised (np.empty, so a large ring costs no
    memset at set-up, and a row never written is never touched): sample
    draws only indices below size, and push has written every one of those
    entries and the rows they read.
    """

    def __init__(self, capacity: int, state_width: int):
        self.capacity = int(capacity)
        self.states = np.empty((capacity, state_width), dtype=np.float32)
        self.rows = np.empty(capacity, dtype=np.intp)
        self.actions = np.empty(capacity, dtype=np.int64)
        self.rewards = np.empty(capacity)
        self.size = 0
        self._next = 0
        self._row = -1  # the row _last was written into
        self._last = None

    def push(self, state, action, reward) -> None:
        i = self._next
        if state is not self._last:
            self._row = (self._row + 1) % self.capacity
            self.states[self._row] = state
            self._last = state
        self.rows[i] = self._row
        self.actions[i] = action
        self.rewards[i] = reward
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng) -> tuple:
        idx = rng.integers(0, self.size, size=batch)
        return self.states[self.rows[idx]], self.actions[idx], self.rewards[idx]


# -- agent -----------------------------------------------------------------------

class AgentDraws(WaveDraws):
    """WaveDraws plus integers(lo, hi, size=k), the replay batch's draw: the
    agent's whole stream, bit for bit that of np.random.default_rng(seed).

    A batch reads its raw outputs as little-endian 32-bit halves in numpy,
    after the buffered half if there is one, so it takes the same values in
    the same order. When the low 32 bits of any product u * n fall below n,
    Lemire's method might reject that u, so the batch is drawn one value at
    a time instead, from the same position."""

    __slots__ = ()

    def integers(self, lo: int, hi: int | None = None, size: int | None = None):
        if size is None:
            return WaveDraws.integers(self, lo, hi)
        if hi is None:
            lo, hi = 0, lo
        n = hi - lo
        half = self._half
        start = 2 if half is None else 1  # the batch's first half in `halves`
        words = (start + size - 1) // 2  # raw outputs the batch splits
        if not 1 < n < 0x100000000 or size < 1:
            return self._one_at_a_time(lo, hi, size)
        buf, pos = self._buf, self._pos
        if pos + words > len(buf):
            buf = self._buf = buf[pos:] + self._raw(max(self._block, words)).tolist()
            pos = self._pos = 0
        # one spare output ahead of the batch's, whose high half holds `half`
        outputs = np.empty(words + 1, dtype="<u8")
        outputs[1:] = buf[pos:pos + words]
        halves = outputs.view("<u4")
        halves[1] = half or 0
        m = halves[start:start + size].astype(np.uint64)
        m *= np.uint64(n)
        m = m.view("<u4")  # each product's low, then high, half
        if np.minimum.reduce(m[0::2]) < n:
            return self._one_at_a_time(lo, hi, size)
        self._pos = pos + words
        # an odd count of fresh halves leaves the last output's high half
        self._half = int(halves[-1]) if start + size < len(halves) else None
        out = m[1::2].astype(np.int64)
        out += lo
        return out

    def _one_at_a_time(self, lo: int, hi: int, size: int) -> np.ndarray:
        return np.array([WaveDraws.integers(self, lo, hi) for _ in range(size)],
                        dtype=np.int64)


class DqnAgent:
    """The online Q-network, its replay ring and its draws.

    `hp` is a scenario's `dqn` section: the network's shape, the ring's
    size and every other setting the agent and its policies read.

    `rng` is an AgentDraws seeded [seed, 0xD09]: every draw of acting,
    training and replay sampling comes from it, bit for bit as
    np.random.default_rng([seed, 0xD09]) would make them. It reads raw
    PCG64 output ahead of the draws it serves, which is safe because
    nothing else draws from that stream and checkpoints carry no rng state:
    a loaded agent starts a new stream, as it did with a Generator."""

    def __init__(self, branch_widths, n_actions, hp: dict, seed: int = 0):
        self.hp = dict(hp)
        self.branch_widths = tuple(branch_widths)
        self.n_actions = n_actions
        self.rng = AgentDraws([int(seed), 0xD09])
        net_rng = np.random.default_rng([int(seed), 0x1417])
        self.online = QNetwork(branch_widths, n_actions,
                               branch_dim=hp["branch_dim"], hidden=tuple(hp["hidden"]),
                               rng=net_rng)
        total_width = sum(self.branch_widths)
        self.buffer = ReplayBuffer(hp["buffer"], total_width)
        self.train_steps = 0
        self.episode = 0
        self.decay_episodes = max(1, hp["episodes"] // 2)

    # -- acting -------------------------------------------------------------

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        out = []
        start = 0
        for w in self.branch_widths:
            out.append(flat[..., start:start + w])
            start += w
        return out

    def act_index(self, enc: list[np.ndarray], epsilon: float,
                  greedy: int | None = None) -> tuple[int, int | None]:
        """One epsilon-greedy draw on encoding enc; returns (index, greedy).

        greedy is the argmax of enc's Q-vector, or None until a greedy draw
        needs it: only then does the forward pass run. Passing the returned
        greedy back runs it at most once per encoding, until enc or the
        parameters change."""
        if self.rng.random() < epsilon:
            return self.rng.integers(self.n_actions), greedy
        if greedy is None:
            greedy = int(np.argmax(self.online.forward(enc)[0]))
        return greedy, greedy

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
        net = self.online
        # one cast of the float32 ring rows, not one per matmul that reads them
        xs = self.split(np.atleast_2d(states).astype(np.float64, copy=False))
        q, cache = net.forward_cached(xs)
        b = len(actions)
        rows = np.arange(b)
        err = q[rows, actions]
        err -= rewards
        loss = float(np.add.reduce(err * err)) / b
        dq = np.zeros(q.shape)
        err *= 2.0
        err /= b
        dq[rows, actions] = err
        net.backward(cache, dq)
        net.clipped_step(hp["lr"], hp["grad_clip"])
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


def load_agent(path: str, hp: dict) -> DqnAgent:
    """The agent the scenario's `dqn` section hp builds, with a checkpoint's
    parameters and counters; the checkpoint's copy of the section is not
    read. ConfigError when the file is missing or unreadable, or an array
    does not fit the scenario's network. Version 1 files also hold
    target-network arrays, which are ignored."""
    try:
        data = np.load(path, allow_pickle=False)
        meta = json.loads(str(data["meta"]))
        if meta.get("version") not in (1, 2):
            raise ConfigError(f"unsupported checkpoint version {meta.get('version')}")
        agent = DqnAgent(meta["branch_widths"], meta["n_actions"], hp)
        params = agent.online.params
        for k, built in params.items():
            array = data[f"online_{k}"]
            if array.shape != built.shape:
                raise ConfigError(f"online_{k} has shape {array.shape}, "
                                  f"the scenario builds {built.shape}")
            built[...] = array  # in place: the network packs and updates this array
        agent.train_steps = meta["train_steps"]
        agent.episode = meta["episode"]
        agent.decay_episodes = meta["decay_episodes"]
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {path}: {exc}") from exc
    return agent


def agent_encoder(agent: DqnAgent, catalog: Catalog, graph) -> StateEncoder:
    """The scenario's state encoder; ConfigError when its branch widths are
    not the ones the agent's network was built for."""
    encoder = StateEncoder(catalog, graph.n, len(graph.edge_keys()), agent.hp["count_cap"])
    if encoder.widths != agent.branch_widths:
        raise ConfigError(f"checkpoint expects branches {agent.branch_widths}, "
                          f"scenario produces {encoder.widths}")
    return encoder


# -- policies ----------------------------------------------------------------------

class DqnPolicy:
    """Evaluation-time policy: epsilon-greedy (by default `dqn.eps_eval`)
    multi-action invocations on the encoder's states, stopping early on the
    no-op index or an infeasible choice. It builds nothing; the seed is
    unused, as evaluation draws from the agent's stream."""

    def __init__(self, agent: DqnAgent, encoder: StateEncoder, seed: int,
                 epsilon: float | None = None):
        self.agent = agent
        self.encoder = encoder
        self.max_actions = agent.hp["max_actions"]
        self.epsilon = agent.hp["eps_eval"] if epsilon is None else epsilon

    def act(self, engine) -> None:
        phase = self.encoder.phase_features(engine)
        enc = greedy = None
        for _ in range(self.max_actions):
            if enc is None:
                enc = self.agent.split(self.encoder.encode(engine, phase))
                greedy = None
            idx, greedy = self.agent.act_index(enc, self.epsilon, greedy)
            action = decode_action(idx, self.encoder.n_dcs, self.encoder.vnf_names)
            if action is None:
                break
            if engine.apply_action(action):
                phase.take_action(engine, action)
                enc = None
            elif self.epsilon == 0.0:
                break  # a failed greedy choice would just repeat


class DqnTrainingPolicy:
    """Collects (state, action, reward) transitions during an episode and
    trains on a fixed cadence.

    Outcome credit: every transition that allocated a request's VNF is held
    open until that request finalises, then labelled with the request's own
    completion reward or drop penalty. Infeasible choices are penalised on
    the spot; draws of the no-op index (the last, 2 * n_vnfs * n_dcs) and
    uninstalls read zero. Those immediate labels wait in `open` and are
    pushed, in draw order, when the next policy phase starts. No label has a
    per-step term. The label is the regression target of Q(s, a) itself,
    with no bootstrap term, which turns placement scoring into a plain
    regression on the encoded state.

    Infeasible and no-op draws vastly outnumber informative transitions
    during exploration; only a sample of them is recorded so they cannot
    flush allocation outcomes from the replay ring. A refused action leaves
    the state unchanged, so a repeat of it before the next accepted action
    is refused without asking the engine: it draws and is labelled like the
    first refusal, but engine.invalid_actions counts only the draws that
    reached the engine. For the same reason the guide's options are swept
    once per state.

    Every encoding is a new array that no one writes to. Acting reads it in
    float64; the transitions kept at it wait in `open` or `open_by_tag` as
    one float32 copy of it, made when the first of them is kept (the cast
    the replay ring makes anyway), until `_push` hands them to the ring,
    which stores a run of pushes of that copy as one row.
    """

    INVALID_KEEP = 0.25
    IDLE_KEEP = 0.125

    def __init__(self, agent: DqnAgent, encoder: StateEncoder, epsilon: float,
                 guide_prob: float = 0.0):
        hp = agent.hp
        self.agent = agent
        self.encoder = encoder
        self.reward = hp["reward"]
        self.epsilon = epsilon
        self.max_actions = hp["max_actions"]
        self.train_interval = hp["train_interval"]
        # a train_step samples a whole batch from the ring
        self.min_buffer = max(hp["min_buffer"], hp["batch"])
        self.guide_prob = guide_prob
        self.open: list[tuple] = []  # (state, action, immediate reward)
        self.open_by_tag: dict[int, list[tuple]] = {}  # tag -> [(state, action)]
        self.cum_reward = 0.0
        self.losses: list[float] = []
        self._seen_done = 0
        self._seen_dropped = 0
        self._since_train = 0

    def _hold(self, flat: np.ndarray) -> np.ndarray:
        """The float32 copy the transitions kept at encoding flat wait in."""
        return flat.astype(np.float32)

    def _push(self, state, action, reward) -> None:
        self.agent.buffer.push(state, action, reward)
        self.cum_reward += reward
        self._since_train += 1
        if self._since_train >= self.train_interval:
            self._since_train = 0
            if self.agent.buffer.size >= self.min_buffer:
                loss = self.agent.train_step()
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"loss became {loss}")
                self.losses.append(loss)

    def _collect_events(self, engine) -> None:
        done, dropped = len(engine.done), len(engine.dropped)
        for rec in engine.done[self._seen_done:]:
            self._resolve_tag(rec.tag, self.reward["complete"])
        for rec in engine.dropped[self._seen_dropped:]:
            self._resolve_tag(rec.tag, -self.reward["drop"])
        self._seen_done, self._seen_dropped = done, dropped

    def _resolve_tag(self, tag: int, reward: float) -> None:
        for state, action in self.open_by_tag.pop(tag, ()):
            self._push(state, action, reward)

    def _close_invocation(self) -> None:
        for state, action, reward in self.open:
            self._push(state, action, reward)
        self.open = []

    def _guide_options(self, engine, phase: PhaseFeatures) -> list[int]:
        """The guide, a reflex on observable features, draws uniformly from
        these: the indices of the allocate actions whose DC has locally
        pending heads of that type and room to serve them."""
        # local counts waiting heads, so a type it counts has heads waiting;
        # an option is an allocation's index, as decode_action reads it
        local, vnfs = phase.local, engine.catalog.vnfs
        n_vnfs = len(self.encoder.vnf_names)
        options = []
        for dc in engine.dcs:
            d = dc.dc_id
            for j, vname in enumerate(self.encoder.vnf_names):
                if local[(d, vname)] > 0 and (dc.idle_count(vname)
                                              or dc.can_install(vnfs[vname])):
                    options.append(d * n_vnfs + j)
        return options

    def act(self, engine) -> None:
        # the only train_step calls of a phase run here, before any action:
        # the parameters are fixed from here on, so greedy (the argmax of
        # enc's Q-vector) stays valid until an action changes the state
        self._collect_events(engine)
        self._close_invocation()
        phase = self.encoder.phase_features(engine)
        rng = self.agent.rng
        flat = None
        for _ in range(self.max_actions):
            if flat is None:
                flat = self.encoder.encode(engine, phase)
                enc = self.agent.split(flat)
                greedy = guide = held = None  # held: flat's float32 copy, once made
                failed = set()  # indices refused since the state last changed
            idx = None
            if self.guide_prob > 0.0 and rng.random() < self.guide_prob:
                if guide is None:
                    guide = self._guide_options(engine, phase)
                if guide:
                    idx = guide[rng.integers(len(guide))]
            if idx is None:
                idx, greedy = self.agent.act_index(enc, self.epsilon, greedy)
            if idx not in failed:
                action = decode_action(idx, self.encoder.n_dcs, self.encoder.vnf_names)
                if action is None:
                    # not a stop during training: keeps exploration throughput
                    # independent of the current value estimates
                    if rng.random() < self.IDLE_KEEP:
                        if held is None:
                            held = self._hold(flat)
                        self.open.append((held, idx, 0.0))
                    continue
                if engine.apply_action(action):
                    phase.take_action(engine, action)
                    if held is None:
                        held = self._hold(flat)
                    if engine.last_allocated_tag is not None:
                        self.open_by_tag.setdefault(engine.last_allocated_tag, []).append(
                            (held, idx))
                    else:
                        self.open.append((held, idx, 0.0))
                    flat = None
                    continue
                failed.add(idx)
            # refused, now or since the state last changed, when a repeat
            # would be refused again: record the penalty and draw again
            if rng.random() < self.INVALID_KEEP:
                if held is None:
                    held = self._hold(flat)
                self.open.append((held, idx, -self.reward["invalid"]))

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
                           cfg.data["dqn"]["count_cap"])
    n_actions = action_space_size(graph.n, len(encoder.vnf_names))
    return DqnAgent(encoder.widths, n_actions, cfg.data["dqn"], seed=seed)


def run_training_episode(cfg, agent: DqnAgent, epsilon: float, episode_seed: int,
                         guide_prob: float = 0.0):
    from .config import make_runtime
    from .engine import run_episode

    engine, generator, plan = make_runtime(cfg, episode_seed)
    policy = DqnTrainingPolicy(agent, agent_encoder(agent, engine.catalog, engine.graph),
                               epsilon, guide_prob=guide_prob)
    result = run_episode(engine, generator, plan, policy,
                         t_model=agent.hp["t_model"], step_cap=cfg.data["run"]["step_cap"])
    policy.finish(engine)
    return result, policy


@dataclass
class TrainResult:
    agent: DqnAgent
    curve: list[dict]
    checkpoint_path: str | None


def train(cfg, out_dir: str | None = None, episodes: int | None = None,
          resume: str | None = None, progress=None) -> TrainResult:
    """Train an agent on a scenario, seeded by cfg.seed; returns the agent
    and per-episode curve. With resume, the checkpoint's parameters and
    counters continue under the scenario's settings.

    With out_dir, writes config_used.json and the checkpoint there once the
    agent and an episode's runtime are set up and the agent fits that
    runtime, so a set-up ConfigError leaves nothing behind. Aborts with
    TrainingDiverged on a non-finite loss, keeping the last good checkpoint.
    """
    seed = cfg.seed
    hp = cfg.data["dqn"]
    episodes = hp["episodes"] if episodes is None else int(episodes)
    if episodes < 0:
        raise ConfigError(f"episodes must be >= 0, got {episodes}")
    if resume:
        agent = load_agent(resume, hp)
    else:
        agent = build_agent(cfg, seed)
        agent.decay_episodes = max(1, episodes // 2)
    curve: list[dict] = []
    ckpt_path = None
    if out_dir:
        from .config import make_runtime

        # the set-up checks every training episode makes, and the agent's fit
        engine, _, _ = make_runtime(cfg, seed)
        agent_encoder(agent, engine.catalog, engine.graph)
        cfg.write_copy(out_dir)
        ckpt_path = os.path.join(out_dir, "checkpoint.npz")
        agent.save(ckpt_path)
    checkpoint_every = hp["checkpoint_every"]
    start = agent.episode
    guide_span = float(hp["guide_frac"]) * max(1, episodes + start)
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

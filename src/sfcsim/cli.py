"""Command line interface: run one episode, train the DQN, or sweep seeds.

Exit codes: 0 success, 1 config error, 2 runtime invariant violation,
3 training divergence, 4 step cap reached. The output root defaults to
./out or $SFCSIM_OUTDIR.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys

import yaml

from .config import BUILTIN_SCENARIOS, ConfigError, ScenarioConfig, load_config, make_runtime
from .datacenter import DataCenterError
from .dqn import TrainingDiverged, train
from .engine import EngineError, StepLimitExceeded, run_episode
from .topology import TopologyError
from .trace import TraceWriter

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_DIVERGED = 3
EXIT_STEP_CAP = 4


def _out_root(args) -> str:
    if args.out:
        return args.out
    return os.environ.get("SFCSIM_OUTDIR", "out")


def _parse_set(pairs: list[str]) -> dict[str, object]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set needs key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = yaml.safe_load(value)
    return out


def _load(args) -> ScenarioConfig:
    """The scenario with --seed and --set applied; every failure to read or
    parse it is a ConfigError."""
    try:
        return load_config(args.scenario, seed=args.seed, overrides=_parse_set(args.set))
    except ConfigError:
        raise
    except (yaml.YAMLError, OSError, ValueError) as exc:
        raise ConfigError(f"cannot load scenario {args.scenario!r}: {exc}") from exc


def run_one(cfg: ScenarioConfig, seed: int, out_dir: str | None = None,
            trace_path: str | None = None, policy=None):
    """Run a single episode; returns (EpisodeResult, MetricsBundle).

    The runtime and policy are set up before the trace file is created, so
    a set-up ConfigError writes nothing."""
    engine, generator, plan = make_runtime(cfg, seed)
    if policy is None:
        policy = cfg.build_policy(engine.catalog, engine.graph, seed)
    trace_fh = None
    if trace_path:
        os.makedirs(os.path.dirname(os.path.abspath(trace_path)), exist_ok=True)
        trace_fh = open(trace_path, "w")
        engine.trace = TraceWriter(trace_fh)
    run_cfg = cfg.data["run"]
    try:
        result = run_episode(
            engine, generator, plan, policy,
            t_model=int(cfg.data["policy"]["t_model"]),
            sample_period=int(run_cfg["sample_period"]),
            step_cap=int(run_cfg["step_cap"]),
        )
    finally:
        if trace_fh:
            trace_fh.close()
    if out_dir:
        engine.metrics.export(out_dir)
    return result, engine.metrics


def _summary_line(result, metrics) -> str:
    ratio = result.acceptance_ratio
    ratio_s = "n/a (no requests)" if ratio is None else f"{ratio:.4f}"
    e2e = metrics.e2e_stats_ms()
    e2e_s = " ".join(f"{name}={stats['mean_ms']:.2f}ms" for name, stats in e2e.items())
    return (f"acceptance={ratio_s} generated={result.generated} "
            f"accepted={result.accepted} dropped={result.dropped} steps={result.steps}"
            + (f" mean_e2e[{e2e_s}]" if e2e_s else ""))


def cmd_run(args) -> int:
    cfg = _load(args)
    out_dir = os.path.join(_out_root(args), f"run-{cfg.config_hash()}-s{cfg.seed}")
    trace_path = os.path.join(out_dir, "trace.jsonl") if args.trace else None
    result, metrics = run_one(cfg, cfg.seed, out_dir=out_dir, trace_path=trace_path)
    cfg.write_copy(out_dir)
    print(_summary_line(result, metrics))
    print(f"artifacts: {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load(args)
    out_dir = os.path.join(_out_root(args), f"train-{cfg.config_hash()}-s{cfg.seed}")

    def progress(row):
        if args.quiet:
            return
        print(f"episode {row['episode']}: eps={row['epsilon']:.3f} "
              f"loss={row['mean_loss']:.4f} acceptance={row['acceptance_ratio']:.3f} "
              f"reward={row['cumulative_reward']:.1f}")

    result = train(cfg, out_dir=out_dir, episodes=args.episodes,
                   resume=args.resume, progress=progress)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"curve: {os.path.join(out_dir, 'curve.csv')}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--seeds must be comma separated ints, got {args.seeds!r}") from exc
    if not seeds:
        raise ConfigError("need at least one seed")
    policies = {}
    for policy_name in args.policies.split(","):
        if policy_name not in ("heuristic", "dqn", "random"):
            raise ConfigError(f"unknown policy {policy_name!r}")
        overrides = {"policy.kind": policy_name}
        if policy_name == "dqn" and args.checkpoint:
            overrides["policy.checkpoint"] = args.checkpoint
        pcfg = cfg.with_overrides(overrides)
        # set-up does not depend on the seed: check it once, before any output
        engine, _, _ = make_runtime(pcfg, seeds[0])
        pcfg.build_policy(engine.catalog, engine.graph, seeds[0])
        policies[policy_name] = pcfg

    out_dir = os.path.join(_out_root(args), f"sweep-{cfg.config_hash()}")
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    failures = []
    for policy_name, pcfg in policies.items():
        ratios = []
        for seed in seeds:
            try:
                result, _ = run_one(pcfg, seed)
            except Exception as exc:  # keep the rest of the sweep alive
                failures.append((policy_name, seed, str(exc)))
                continue
            rows.append({"policy": policy_name, "seed": seed,
                         "acceptance_ratio": result.acceptance_ratio,
                         "generated": result.generated, "accepted": result.accepted})
            if result.acceptance_ratio is not None:
                ratios.append(result.acceptance_ratio)
        if ratios:
            mean = statistics.mean(ratios)
            sd = statistics.stdev(ratios) if len(ratios) > 1 else 0.0
            rows.append({"policy": policy_name, "seed": "mean±sd",
                         "acceptance_ratio": f"{mean:.4f}±{sd:.4f}",
                         "generated": "", "accepted": ""})
            print(f"{policy_name}: mean acceptance {mean:.4f} ± {sd:.4f} over {len(ratios)} seeds")

    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["policy", "seed", "acceptance_ratio",
                                           "generated", "accepted"])
        w.writeheader()
        w.writerows(rows)
    print(f"sweep table: {path}")
    if failures:
        print(f"failed seeds: {failures}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfcsim",
        description="SFC provisioning simulator (heuristic and DQN policies)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help=f"config path or builtin: {', '.join(BUILTIN_SCENARIOS)}")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key, e.g. policy.kind=random")
        p.add_argument("--out", help="output root (default $SFCSIM_OUTDIR or ./out)")

    p_run = sub.add_parser("run", help="run one episode and export metrics")
    common(p_run)
    p_run.add_argument("--policy", choices=["heuristic", "dqn", "random"],
                       help="shorthand for --set policy.kind=...")
    p_run.add_argument("--checkpoint", help="shorthand for --set policy.checkpoint=...")
    p_run.add_argument("--trace", action="store_true", help="write trace.jsonl")
    p_run.set_defaults(func=cmd_run)

    p_train = sub.add_parser("train", help="train the DQN on a scenario")
    common(p_train)
    p_train.add_argument("--episodes", type=int)
    p_train.add_argument("--resume", help="checkpoint to continue from")
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run several seeds, aggregate acceptance")
    common(p_sweep)
    p_sweep.add_argument("--seeds", required=True, help="comma separated, e.g. 1,2,3")
    p_sweep.add_argument("--policies", default="heuristic",
                         help="comma separated subset of heuristic,dqn,random")
    p_sweep.add_argument("--checkpoint", help="trained parameters for dqn")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "policy", None):
        args.set = (args.set or []) + [f"policy.kind={args.policy}"]
    if getattr(args, "checkpoint", None) and args.command == "run":
        args.set = (args.set or []) + [f"policy.checkpoint={args.checkpoint}"]
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as exc:
        print(f"training diverged: {exc} (last good checkpoint kept)", file=sys.stderr)
        return EXIT_DIVERGED
    except StepLimitExceeded as exc:  # a limit the config set, not a bug
        print(f"step cap reached: {exc}", file=sys.stderr)
        return EXIT_STEP_CAP
    except (EngineError, DataCenterError, TopologyError) as exc:
        print(f"runtime invariant violation: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

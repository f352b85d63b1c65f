"""Command-line entry points: gen-traces, run, and compare.

Exit codes: 0 success, 2 configuration error, 3 trace/data error, 4 runtime
error. All state comes from flags and the config file; no environment
variables, no wall clock.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import (CAMERA_POLICIES, SERVER_POLICIES, ExperimentConfig, apply_overrides,
                     camera_study_config, load_config, server_study_config)
from .controller import (build_camera_policy, build_server_policy, build_traces, run_episode,
                         run_grid)
from .disruption import EVENTS_FILE, generate_camera_trace, generate_server_trace, save_traces, write_event_log
from .errors import ConfigError, TraceFormatError, TraceSchemaError
from .metrics import write_frame_log, write_summary
from .policies import QTable, enumerate_actions
from .reporting import (CAMERA_COMPARE_ORDER, SERVER_COMPARE_ORDER, build_report,
                        render_summary_table, write_report)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_TRACE_ERROR = 3
EXIT_RUNTIME_ERROR = 4

FRAME_LOG_FILE = "frames.csv"
SUMMARY_FILE = "summary.json"
CAMERA_QTABLE_FILE = "qtable_camera.json"
SERVER_QTABLE_FILE = "qtable_server.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgerecon",
        description="Seeded simulator of camera/server selection for edge 3D reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=Path, default=None, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--frames", type=int, default=None, help="override the frame count")

    gen = sub.add_parser("gen-traces", help="generate disruption traces and an event log")
    add_common(gen)

    run = sub.add_parser("run", help="run one episode and write its report files")
    add_common(run)

    cmp_ = sub.add_parser("compare", help="sweep one policy axis and write a comparison report")
    add_common(cmp_)
    cmp_.add_argument("--axis", choices=("camera", "server"), required=True,
                      help="which policy slot to sweep")
    cmp_.add_argument("--policies", type=str, default=None,
                      help="comma-separated subset of policies for the axis")
    return parser


def _load(args) -> ExperimentConfig:
    if args.config is not None:
        config = load_config(args.config)
        return apply_overrides(config, seed=args.seed, n_frames=args.frames)
    # No config file: build the relevant preset directly at the requested size.
    preset = server_study_config if getattr(args, "axis", None) == "server" else camera_study_config
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.frames is not None:
        kwargs["n_frames"] = args.frames
    return preset(**kwargs)


def _snapshot_qtable(policy, path: Path) -> None:
    table = getattr(policy, "table", None)
    payload = table if isinstance(table, QTable) else QTable(0)
    payload.save_json(path)


def cmd_gen_traces(args) -> int:
    config = _load(args)
    params = config.resolved_disruption()
    camera = generate_camera_trace(params)
    server = generate_server_trace(params)
    out = Path(args.out)
    cam_path, srv_path = save_traces(camera, server, out)
    write_event_log(camera, server, out / EVENTS_FILE)
    print(f"wrote {cam_path}, {srv_path}, {out / EVENTS_FILE}")
    return EXIT_OK


def cmd_run(args) -> int:
    config = _load(args)
    space = enumerate_actions(config.n_cameras, config.k_min, config.k_max)
    camera_policy = build_camera_policy(config, space)
    server_policy = build_server_policy(config)
    camera_trace, server_trace = build_traces(config)
    stats, log = run_episode(
        config, camera_trace=camera_trace, server_trace=server_trace,
        camera_policy=camera_policy, server_policy=server_policy,
    )

    # --out is made only once every input is accepted and the episode has run.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_frame_log(log, out / FRAME_LOG_FILE)
    write_summary(stats, out / SUMMARY_FILE)
    _snapshot_qtable(camera_policy, out / CAMERA_QTABLE_FILE)
    _snapshot_qtable(server_policy, out / SERVER_QTABLE_FILE)
    print(f"{config.camera_policy}+{config.server_policy}: "
          f"reliability {stats.reliability_pct:.2f}% over {stats.frames} frames")
    print(f"wrote {out / FRAME_LOG_FILE}, {out / SUMMARY_FILE}, "
          f"{out / CAMERA_QTABLE_FILE}, {out / SERVER_QTABLE_FILE}")
    return EXIT_OK


def _axis_policies(args) -> tuple[str, ...]:
    order = CAMERA_COMPARE_ORDER if args.axis == "camera" else SERVER_COMPARE_ORDER
    if args.policies is None:
        return order
    valid = CAMERA_POLICIES if args.axis == "camera" else SERVER_POLICIES
    chosen = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    for i, p in enumerate(chosen):
        if p not in valid:
            raise ConfigError(f"unknown {args.axis} policy {p!r}; valid: {valid}")
        if p in chosen[:i]:
            raise ConfigError(f"--policies names {p!r} more than once")
    if not chosen:
        raise ConfigError("--policies must name at least one policy")
    return chosen


def cmd_compare(args) -> int:
    base = _load(args)
    policies = _axis_policies(args)
    configs = []
    for i, policy in enumerate(policies):
        # Per-episode seeds derive from the base seed so replications stay
        # independent but reproducible.
        variant = replace(base, seed=base.seed + i)
        if args.axis == "camera":
            variant.camera_policy = policy
        else:
            variant.server_policy = policy
        variant.camera_agent = None if args.axis == "camera" else base.camera_agent
        variant.server_agent = None if args.axis == "server" else base.server_agent
        variant = apply_overrides(variant, seed=variant.seed)
        configs.append(variant)

    results = run_grid(configs, ids=list(policies))
    failures = [r for r in results if r.error is not None]
    for failure in failures:
        print(f"episode {failure.config_id} failed: {failure.error}", file=sys.stderr)
    named = [(r.config_id, r.stats) for r in results if r.stats is not None]
    if not named:
        return EXIT_RUNTIME_ERROR

    bundle = build_report(named)
    write_report(bundle, args.out)
    print(render_summary_table(bundle), end="")
    return EXIT_OK if not failures else EXIT_RUNTIME_ERROR


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-traces": cmd_gen_traces,
        "run": cmd_run,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (TraceFormatError, TraceSchemaError, FileNotFoundError) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_TRACE_ERROR
    except Exception as exc:   # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())

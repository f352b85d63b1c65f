"""Span recorder for traced benchmark runs.

Time is taken only from outside the ``edgerecon`` package: the traced process
rebinds module-level names on ``edgerecon.controller`` and ``edgerecon.cli``
to timing wrappers, and wraps the policy objects that the ``build_*`` helpers
return. Spans are kept in flat in-memory arrays and written once at the end.
Untraced runs never install the patches, so they pay nothing.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

from edgerecon import cli, controller
from edgerecon.metrics import RunStats

# Per-layer metrics, their unit, and the end-to-end metric each one should
# move on which workload. BENCHMARK.json lists the same names and units.
LAYER_METRICS = (
    ("config.load_ms", "ms", "setup_s on rig12-replay"),
    ("disruption.generate_ms", "ms", "setup_s and episode_ms_p50 on the grids"),
    ("disruption.load_ms", "ms", "setup_s on rig12-replay"),
    ("disruption.save_ms", "ms", "setup_s on rig12-replay"),
    ("environment.quality_model_ms", "ms", "setup_s on rig12-replay"),
    ("policies.enumerate_ms", "ms", "setup_s on rig12-replay"),
    ("policies.action_space_size", "count", "setup_s on rig12-replay"),
    ("environment.step_us", "us", "frames_per_s everywhere, most on camera-grid"),
    ("environment.step_calls", "count", "frames_per_s everywhere"),
    ("environment.noise_draws", "count", "nothing: must repeat exactly (RNG stream order)"),
    ("policies.camera_select_us", "us", "frames_per_s on camera-grid and rig12-replay, not server-grid"),
    ("policies.camera_learn_us", "us", "frames_per_s on camera-grid and rig12-replay, not server-grid"),
    ("policies.server_select_us", "us", "frames_per_s on server-grid"),
    ("policies.server_learn_us", "us", "frames_per_s on server-grid"),
    ("metrics.reward_us", "us", "frames_per_s on the grids"),
    ("metrics.runstats_add_us", "us", "frames_per_s on the grids"),
    ("metrics.frame_log_ms", "ms", "episode_ms_p50 on rig12-replay"),
    ("metrics.frame_log_bytes", "bytes", "episode_ms_p50 on rig12-replay"),
    ("controller.self_us_per_frame", "us", "frames_per_s everywhere"),
    ("controller.traced_peak_mb", "MB", "peak_rss_mb on rig12-replay"),
    ("reporting.build_report_ms", "ms", "frames_per_s on the grids"),
    ("trace.overhead_pct", "%", "nothing: traced against untraced frames_per_s"),
)

# Module-level names rebound to plain timing wrappers, by module.
_CONTROLLER_SPANS = {
    "run_episode": "controller.run_episode",
    "build_traces": "controller.build_traces",
    "build_quality_model": "controller.build_quality_model",
    "enumerate_actions": "policies.enumerate_actions",
    "generate_camera_trace": "disruption.generate_camera_trace",
    "generate_server_trace": "disruption.generate_server_trace",
    "load_traces": "disruption.load_traces",
    "camera_reward": "metrics.camera_reward",
    "server_reward": "metrics.server_reward",
}
# cli imports these names directly, so rebinding them on controller alone
# would not reach the CLI's own calls.
_CLI_SPANS = {
    "load_config": "config.load_config",
    "enumerate_actions": "policies.enumerate_actions",
    "build_traces": "controller.build_traces",
    "run_episode": "controller.run_episode",
    "generate_camera_trace": "disruption.generate_camera_trace",
    "generate_server_trace": "disruption.generate_server_trace",
    "save_traces": "disruption.save_traces",
    "write_event_log": "disruption.write_event_log",
}


class Tracer:
    """Spans with name, start, end, parent and episode id, in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.episode = array("i")
        self._stack: list[int] = []
        self.active = False            # set while the patches are installed
        self.episode_id = -1           # -1: outside any episode
        self._next_episode = 0
        self.noise_draws = 0
        self.bytes_written: dict[str, list[int]] = {}
        self.summaries: list = []      # (id, RunStats) the traced CLI runs wrote

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def open(self, code: int) -> int:
        idx = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.episode.append(self.episode_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.code(name))
        try:
            yield
        finally:
            self.close(idx)

    @contextlib.contextmanager
    def in_episode(self):
        self.episode_id = self._next_episode
        self._next_episode += 1
        try:
            yield
        finally:
            self.episode_id = -1

    def wrap(self, name: str, fn):
        code = self.code(name)

        def traced(*args, **kwargs):
            idx = self.open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def add_bytes(self, name: str, size: int) -> None:
        self.bytes_written.setdefault(name, []).append(size)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "episode": np.frombuffer(self.episode, dtype=np.int32),
        }

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in seconds); self time excludes child spans."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        cols = self.columns()
        n = len(cols["name"])
        dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64)
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        calls = np.bincount(cols["name"], minlength=len(self.names))
        total = np.bincount(cols["name"], weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i]) / 1e9) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


class _CountingRng:
    """Passes draws through to the episode's generator and counts normal() calls."""

    __slots__ = ("_rng", "_tracer")

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def normal(self, *args, **kwargs):
        self._tracer.noise_draws += 1
        return self._rng.normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _TracedPolicy:
    """Times select/learn of a policy object; every other attribute reads through."""

    def __init__(self, inner, tracer: Tracer, side: str):
        self._inner = inner
        self._tracer = tracer
        self._select = tracer.code(f"policies.{side}_select")
        self._learn = tracer.code(f"policies.{side}_learn")

    def select(self, *args, **kwargs):
        idx = self._tracer.open(self._select)
        try:
            return self._inner.select(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def learn(self, *args, **kwargs):
        idx = self._tracer.open(self._learn)
        try:
            return self._inner.learn(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _traced_step(tracer: Tracer, step):
    code = tracer.code("environment.step")
    last = [None, None]     # (generator, its counting proxy)

    def traced(*args, **kwargs):
        rng = kwargs.get("rng")
        if rng is not None:
            if last[0] is not rng:
                last[:] = [rng, _CountingRng(rng, tracer)]
            kwargs["rng"] = last[1]
        idx = tracer.open(code)
        try:
            return step(*args, **kwargs)
        finally:
            tracer.close(idx)
    return traced


def _traced_runstats(tracer: Tracer):
    code = tracer.code("metrics.runstats_add")

    class TracedRunStats(RunStats):
        def add(self, record) -> None:
            idx = tracer.open(code)
            try:
                RunStats.add(self, record)
            finally:
                tracer.close(idx)
    return TracedRunStats


def _policy_builder(tracer: Tracer, build, side: str):
    traced_build = tracer.wrap(f"controller.build_{side}_policy", build)
    return lambda *args, **kwargs: _TracedPolicy(traced_build(*args, **kwargs), tracer, side)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebinds the traced names for the duration of the block, then restores them."""
    saved = []

    def rebind(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def write_frame_log(records, path):
        traced_write_frame_log(records, path)
        tracer.add_bytes("metrics.write_frame_log", path.stat().st_size)

    def write_summary(stats, path):
        # Kept for the reporting layer, which the CLI's run command never calls.
        tracer.summaries.append((f"run-{len(tracer.summaries)}", stats))
        traced_write_summary(stats, path)

    traced_write_frame_log = tracer.wrap("metrics.write_frame_log", cli.write_frame_log)
    traced_write_summary = tracer.wrap("metrics.write_summary", cli.write_summary)
    try:
        for attr, name in _CONTROLLER_SPANS.items():
            rebind(controller, attr, tracer.wrap(name, getattr(controller, attr)))
        for attr, name in _CLI_SPANS.items():
            rebind(cli, attr, tracer.wrap(name, getattr(cli, attr)))
        rebind(cli, "write_frame_log", write_frame_log)
        rebind(cli, "write_summary", write_summary)
        rebind(controller, "step", _traced_step(tracer, controller.step))
        rebind(controller, "RunStats", _traced_runstats(tracer))
        for module in (controller, cli):
            for side in ("camera", "server"):
                attr = f"build_{side}_policy"
                rebind(module, attr, _policy_builder(tracer, getattr(module, attr), side))
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, traced_frames: int, traced_passes: int,
                  action_space_size: int, traced_peak_mb: float,
                  overhead_pct: float) -> dict[str, float]:
    """Derives every per-layer metric from the spans, as values in LAYER_METRICS units."""
    times = tracer.self_times()

    def calls(*names):
        return sum(times.get(n, (0, 0.0))[0] for n in names)

    def seconds(*names):
        return sum(times.get(n, (0, 0.0))[1] for n in names)

    def per_call(scale, *names):
        return scale * seconds(*names) / calls(*names) if calls(*names) else 0.0

    ms, us = 1e3, 1e6
    generated = calls("disruption.generate_camera_trace")      # trace pairs generated
    log_sizes = tracer.bytes_written.get("metrics.write_frame_log", [])
    return {
        "config.load_ms": per_call(ms, "config.load_config", "config.build_preset"),
        "disruption.generate_ms": (ms * seconds("disruption.generate_camera_trace",
                                                "disruption.generate_server_trace")
                                   / generated if generated else 0.0),
        "disruption.load_ms": per_call(ms, "disruption.load_traces"),
        "disruption.save_ms": per_call(ms, "disruption.save_traces"),
        "environment.quality_model_ms": per_call(ms, "controller.build_quality_model"),
        "policies.enumerate_ms": per_call(ms, "policies.enumerate_actions"),
        "policies.action_space_size": action_space_size,
        "environment.step_us": per_call(us, "environment.step"),
        "environment.step_calls": calls("environment.step") // traced_passes,
        "environment.noise_draws": tracer.noise_draws // traced_passes,
        "policies.camera_select_us": per_call(us, "policies.camera_select"),
        "policies.camera_learn_us": per_call(us, "policies.camera_learn"),
        "policies.server_select_us": per_call(us, "policies.server_select"),
        "policies.server_learn_us": per_call(us, "policies.server_learn"),
        "metrics.reward_us": per_call(us, "metrics.camera_reward", "metrics.server_reward"),
        "metrics.runstats_add_us": per_call(us, "metrics.runstats_add"),
        "metrics.frame_log_ms": per_call(ms, "metrics.write_frame_log"),
        "metrics.frame_log_bytes": sum(log_sizes) / len(log_sizes) if log_sizes else 0.0,
        "controller.self_us_per_frame": us * seconds("controller.run_episode") / traced_frames,
        "controller.traced_peak_mb": traced_peak_mb,
        "reporting.build_report_ms": per_call(ms, "reporting.build_report"),
        "trace.overhead_pct": overhead_pct,
    }

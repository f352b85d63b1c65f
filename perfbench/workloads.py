"""The three benchmark workloads and the checks on their outputs.

Each workload is a fixed list of episodes (one *pass*) derived from the
benchmark seed. A run first executes one untimed reference pass, which warms
the process and checks every episode's outputs; timed episodes then repeat
the same list and must reproduce the reference summaries exactly.

Only public functions of the ``edgerecon`` package are called, so the
benchmark measures whatever code the checkout holds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

from edgerecon import cli
from edgerecon.config import apply_overrides, camera_study_config, load_config, server_study_config
from edgerecon.controller import (build_camera_policy, build_quality_model, build_server_policy,
                                  build_traces, run_episode, run_grid)
from edgerecon.disruption import load_traces, save_traces
from edgerecon.metrics import recount_reliability, write_frame_log
from edgerecon.policies import QTable, enumerate_actions
from edgerecon.reporting import build_report

FRAMES = 4000
SEEDS_PER_PASS = 10

# The policy sweeps of the paper's camera and server comparisons.
CAMERA_POLICIES = ("qlearning", "greedy3", "bandit", "adaptive_q", "random")
SERVER_POLICIES = ("round_robin", "latency_greedy", "qlearning", "adaptive_q")

# A 12-camera rig: subsets of 2..12 cameras give 4083 actions, and the
# correlation groups cover every camera. Faster links than the 5-camera
# default keep subsets of up to seven cameras inside the latency budgets, so
# mean reliability is steady across seeds instead of hinging on whether the
# agent locks onto a too-large subset.
RIG_CAMERAS = 12
RIG_SERVERS = 4
RIG_WEIGHTS = tuple(round(0.86 - 0.02 * i, 2) for i in range(RIG_CAMERAS))
RIG_GROUPS = ((0, 1, 2), (3, 4), (5, 6, 7), (8, 9), (10, 11))


@dataclass(frozen=True)
class Reference:
    """What the reference pass recorded for one episode."""

    summary: dict
    blob: bytes        # the bytes the fingerprint covers


@dataclass(frozen=True)
class Episode:
    id: str
    seed: int
    policy: str


class OutputCheckError(Exception):
    """An episode's outputs disagree with themselves or with the reference pass."""


def _summary_bytes(summary: dict) -> bytes:
    return json.dumps(summary, sort_keys=True).encode()


def _check_histograms(summary: dict) -> None:
    frames = summary["frames"]
    for key in ("camera_subset_histogram", "server_histogram"):
        total = sum(summary[key].values())
        if total != frames:
            raise OutputCheckError(f"{key} totals {total}, expected {frames} frames")


def check_frame_log(path: Path, summary: dict, n_frames: int) -> None:
    """The frame log must recount to the summary's reliable-frame count."""
    reliable, total = recount_reliability(path)
    if total != summary["frames"] or total != n_frames:
        raise OutputCheckError(f"{path.name} has {total} rows, summary {summary['frames']}, "
                               f"expected {n_frames}")
    if reliable != summary["reliable_frames"]:
        raise OutputCheckError(f"{path.name} recounts {reliable} reliable frames, "
                               f"summary says {summary['reliable_frames']}")
    _check_histograms(summary)


def corrupt_frame_log(path: Path) -> None:
    """Flip the `reliable` cell of the first data row (used by the smoke test)."""
    lines = path.read_text().splitlines(keepends=True)
    head, sep, last = lines[1].rstrip("\r\n").rpartition(",")
    lines[1] = f"{head}{sep}{1 - int(last)}\r\n"
    path.write_text("".join(lines))


class Workload:
    name: str
    why: str
    # Timed episodes a run completes at least, whatever --seconds says, so
    # that the reported tail percentile always has >= 10 samples beyond it.
    min_episodes: int

    def __init__(self, seed: int, frames: int, work: Path, tracer=None):
        self.seed = seed
        self.frames = frames
        self.work = work
        self.tracer = tracer
        self.episodes = self.make_episodes()

    def span(self, name: str):
        """A benchmark-level span, recorded only while the tracing patches are installed."""
        if self.tracer is not None and self.tracer.active:
            return self.tracer.span(name)
        return contextlib.nullcontext()


class GridWorkload(Workload):
    """Policies x seeds through ``run_grid``, one episode per call, then ``build_report``."""

    min_episodes = 100
    policies: tuple[str, ...]

    def make_episodes(self) -> list[Episode]:
        # Seed-major order, so every stretch of len(policies) episodes has
        # the same mix of policies.
        base = SEEDS_PER_PASS * self.seed
        return [Episode(f"{policy}-s{base + i}", base + i, policy)
                for i in range(SEEDS_PER_PASS) for policy in self.policies]

    def config(self, episode: Episode):
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def reference(self, corrupt: int | None) -> tuple[list[Reference | None], list[str]]:
        """Untimed pass through ``run_episode`` that checks each episode's frame log."""
        log = self.work / "frames.csv"
        refs, failures = [], []
        self._first = None        # records and traces of episode 0, for traced_extras
        for i, episode in enumerate(self.episodes):
            try:
                stats, records = run_episode(self.config(episode))
                write_frame_log(records, log)
                if i == 0:
                    self._first = records, build_traces(self.config(episode))
                if i == corrupt:
                    corrupt_frame_log(log)
                summary = stats.to_summary()
                check_frame_log(log, summary, self.frames)
                refs.append(Reference(summary, _summary_bytes(summary)))
            except Exception as exc:   # noqa: BLE001 - every failure is counted
                failures.append(f"{episode.id}: {type(exc).__name__}: {exc}")
                refs.append(None)
        return refs, failures

    def run(self, episode: Episode):
        with self.span("config.build_preset"):
            config = self.config(episode)
        with self.span("controller.run_grid"):
            return run_grid([config], ids=[episode.id])[0]

    def check(self, result, ref: Reference | None) -> None:
        if result.error is not None:
            raise OutputCheckError(f"GridResult.error: {result.error}")
        if ref is None or _summary_bytes(result.stats.to_summary()) != ref.blob:
            raise OutputCheckError("summary differs from the reference pass")

    def end_pass(self, results) -> None:
        named = [(episode.id, result.stats) for episode, result in zip(self.episodes, results)
                 if result.stats is not None]
        with self.span("reporting.build_report"):
            build_report(named)

    def traced_extras(self) -> None:
        """Traced runs only: file I/O on the first reference episode's data.

        The grids write no frame log and do no trace I/O; this measures what
        those would cost for their shapes, so the metrics exist everywhere.
        """
        if self._first is None:
            return
        records, traces = self._first
        log = self.work / "traced-frames.csv"
        with self.span("metrics.write_frame_log"):
            write_frame_log(records, log)
        self.tracer.add_bytes("metrics.write_frame_log", log.stat().st_size)
        with self.span("disruption.save_traces"):
            save_traces(*traces, self.work / "traces")
        with self.span("disruption.load_traces"):
            load_traces(self.work / "traces")

    def first_episode_setup(self):
        """Everything ``run_episode`` builds before its first frame."""
        config = self.config(self.episodes[0])
        config.validate()
        build_traces(config)
        space = enumerate_actions(config.n_cameras, config.k_min, config.k_max)
        build_camera_policy(config, space)
        build_server_policy(config)
        build_quality_model(config)
        return len(space)


class CameraGrid(GridWorkload):
    name = "camera-grid"
    why = ("paper's camera comparison, 5 camera policies x 10 seeds x 4000 frames; "
           "per-frame step, camera select/learn, rewards and RunStats.add dominate")
    policies = CAMERA_POLICIES

    def config(self, episode: Episode):
        config = camera_study_config(seed=episode.seed, n_frames=self.frames)
        config.camera_policy = episode.policy
        return config


class ServerGrid(GridWorkload):
    name = "server-grid"
    why = ("paper's server comparison under heavy spikes, 4 server policies x 10 seeds; "
           "moves the work to server select/learn and leaves the camera side light")
    policies = SERVER_POLICIES

    def config(self, episode: Episode):
        config = server_study_config(seed=episode.seed, n_frames=self.frames)
        config.server_policy = episode.policy
        config.server_agent = None
        return config


class Rig12Replay(Workload):
    """CLI ``gen-traces`` once, then one CLI ``run --config`` per episode replaying the traces."""

    name = "rig12-replay"
    why = ("12-camera rig through the CLI with replayed traces: YAML and CSV loading, 4083 "
           "actions, quality-table build, argmax over 4083 values and file output")
    min_episodes = 40
    n_actions = 2 ** RIG_CAMERAS - 1 - RIG_CAMERAS

    def make_episodes(self) -> list[Episode]:
        base = SEEDS_PER_PASS * self.seed
        return [Episode(f"rig12-s{base + i}", base + i, "adaptive_q")
                for i in range(SEEDS_PER_PASS)]

    @property
    def config_path(self) -> Path:
        return self.work / "rig12.yaml"

    def write_config(self) -> None:
        """The rig's YAML config, pointing at traces that ``gen-traces`` writes."""
        scale = self.frames / FRAMES
        groups = ", ".join("[" + ", ".join(map(str, g)) + "]" for g in RIG_GROUPS)
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(
            f"n_frames: {self.frames}\n"
            f"n_cameras: {RIG_CAMERAS}\n"
            f"n_servers: {RIG_SERVERS}\n"
            "k_min: 2\n"
            f"k_max: {RIG_CAMERAS}\n"
            f"seed: {self.seed}\n"
            "camera_policy: adaptive_q\n"
            "server_policy: adaptive_q\n"
            f"traces_dir: {json.dumps(str(self.work / 'traces'))}\n"
            "disruption:\n"
            f"  correlation_groups: [{groups}]\n"
            f"  n_bump_events: {round(10 * scale)}\n"
            f"  n_spike_events: {round(10 * scale)}\n"
            "quality:\n"
            f"  camera_weights: [{', '.join(map(str, RIG_WEIGHTS))}]\n"
            "latency:\n"
            "  per_image_tx_ms: 250.0\n"
            "  recon_per_image_ms: 80.0\n"
        )

    def _cli(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def prepare(self) -> None:
        self.write_config()
        with self.span("cli.gen_traces"):
            rc = self._cli("gen-traces", "--config", str(self.config_path),
                           "--out", str(self.work / "traces"), "--seed", str(self.seed))
        if rc != 0:
            raise OutputCheckError(f"gen-traces exited {rc}")

    def run(self, episode: Episode):
        with self.span("cli.run"):
            return self._cli("run", "--config", str(self.config_path), "--out",
                             str(self.work / "out"), "--seed", str(episode.seed))

    def _check_outputs(self, rc: int, corrupt: bool = False) -> Reference:
        """Checks one CLI run's files and returns its summary and output bytes."""
        if rc != 0:
            raise OutputCheckError(f"run exited {rc}")
        out = self.work / "out"
        if corrupt:
            corrupt_frame_log(out / cli.FRAME_LOG_FILE)
        summary_blob = (out / cli.SUMMARY_FILE).read_bytes()
        summary = json.loads(summary_blob)
        check_frame_log(out / cli.FRAME_LOG_FILE, summary, self.frames)
        for name, n_actions in ((cli.CAMERA_QTABLE_FILE, self.n_actions),
                                (cli.SERVER_QTABLE_FILE, RIG_SERVERS)):
            table = QTable.load_json(out / name)
            if table.to_dict() != json.loads((out / name).read_text()):
                raise OutputCheckError(f"{name} does not round-trip through QTable.load_json")
            if table.n_actions != n_actions:
                raise OutputCheckError(f"{name} has {table.n_actions} actions, expected {n_actions}")
        return Reference(summary, summary_blob + (out / cli.FRAME_LOG_FILE).read_bytes())

    def reference(self, corrupt: int | None) -> tuple[list[Reference | None], list[str]]:
        refs, failures = [], []
        for i, episode in enumerate(self.episodes):
            try:
                refs.append(self._check_outputs(self.run(episode), corrupt=i == corrupt))
            except Exception as exc:   # noqa: BLE001 - every failure is counted
                failures.append(f"{episode.id}: {type(exc).__name__}: {exc}")
                refs.append(None)
        return refs, failures

    def check(self, rc, ref: Reference | None) -> None:
        if ref is None or self._check_outputs(rc).blob != ref.blob:
            raise OutputCheckError("outputs differ from the reference pass")

    def traced_extras(self) -> None:
        """Traced runs only: repeat ``gen-traces`` (same seed, same files) under tracing."""
        self.prepare()

    def end_pass(self, results) -> None:
        # The CLI keeps no RunStats, so the reporting layer is exercised only
        # in traced runs, on the statistics the traced CLI runs wrote.
        if self.tracer is not None and self.tracer.summaries:
            with self.span("reporting.build_report"):
                build_report(self.tracer.summaries)
            self.tracer.summaries.clear()

    def first_episode_setup(self):
        """Traces via the CLI, then what ``cmd_run`` and ``run_episode`` build before frame 0."""
        self.prepare()
        config = apply_overrides(load_config(self.config_path), seed=self.episodes[0].seed)
        build_traces(config)
        space = enumerate_actions(config.n_cameras, config.k_min, config.k_max)
        build_camera_policy(config, space)
        build_server_policy(config)
        build_quality_model(config)
        return len(space)


WORKLOADS = {w.name: w for w in (CameraGrid, ServerGrid, Rig12Replay)}


def fingerprint(refs: list[Reference | None]) -> str:
    """SHA-256 over every reference episode's statistics, in episode order."""
    h = hashlib.sha256()
    for ref in refs:
        h.update(ref.blob if ref is not None else b"<failed>")
    return h.hexdigest()

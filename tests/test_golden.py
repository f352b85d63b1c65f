"""Golden outputs: SHA-256 of every file a run writes, on fixed configs.

A speed-only change must leave these bytes identical. The digests were
recorded before the columnar episode engine replaced the per-frame object
loop, so they pin the simulated results of the original implementation.
The ``replay`` case (gen-traces, then run on the saved traces) was added
later; its digests, trace files included, were recorded before the trace
loader and the CSV writers were rewritten to check and format in bulk.
The ``rig12`` case's digests were recorded before the Q agents' rows moved
into one store per table.
If a change alters the results on purpose, it says why and records the new
digests, which ``python tests/test_golden.py`` prints.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from edgerecon.cli import main
from edgerecon.config import camera_study_config, server_study_config
from edgerecon.controller import (build_camera_policy, build_quality_model, build_server_policy,
                                  run_episode)
from edgerecon.environment import write_quality_trace
from edgerecon.metrics import write_frame_log, write_summary
from edgerecon.policies import QTable, enumerate_actions

FRAMES = 1000
FILES = ("frames.csv", "summary.json", "qtable_camera.json", "qtable_server.json")
TRACE_FILES = ("cameras.csv", "servers.csv")
CAMERA_POLICIES = ("qlearning", "greedy3", "bandit", "adaptive_q", "random")
SERVER_POLICIES = ("round_robin", "latency_greedy", "qlearning", "adaptive_q")


def _camera_case(policy):
    config = camera_study_config(seed=0, n_frames=FRAMES)
    config.camera_policy = policy
    return config


def _server_case(policy):
    config = server_study_config(seed=0, n_frames=FRAMES)
    config.server_policy = policy
    config.server_agent = None
    return config


def _delayed_case():
    config = camera_study_config(seed=5, n_frames=FRAMES)
    config.camera_policy = "adaptive_q"
    config.server_policy = "qlearning"
    config.feedback_delay_frames = 3
    return config


def _snapshot(policy, path: Path) -> None:
    table = getattr(policy, "table", None)
    (table if isinstance(table, QTable) else QTable(0)).save_json(path)


def run_api_case(config, out: Path) -> None:
    """One episode through the library API, writing the same files as the CLI."""
    space = enumerate_actions(config.n_cameras, config.k_min, config.k_max)
    camera_policy = build_camera_policy(config, space)
    server_policy = build_server_policy(config)
    stats, log = run_episode(config, camera_policy=camera_policy, server_policy=server_policy)
    write_frame_log(log, out / "frames.csv")
    write_summary(stats, out / "summary.json")
    _snapshot(camera_policy, out / "qtable_camera.json")
    _snapshot(server_policy, out / "qtable_server.json")


def run_trace_case(out: Path) -> None:
    """Replayed quality through the CLI: the noise-free synthetic table as a trace."""
    base = camera_study_config(seed=2, n_frames=FRAMES)
    trace = out / "quality.csv"
    write_quality_trace(trace, build_quality_model(base), n_frames=FRAMES)
    config = out / "config.yaml"
    config.write_text(
        f"n_frames: {FRAMES}\nseed: 2\ncamera_policy: adaptive_q\nserver_policy: qlearning\n"
        f"quality:\n  mode: trace\n  trace_path: {str(trace)!r}\n"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0


def run_replay_case(out: Path) -> None:
    """Replayed disruption traces through the CLI: gen-traces, then run with traces_dir.

    A 6-camera adaptive-Q rig; the written cameras.csv and servers.csv are
    pinned as well, so the trace writer's bytes are covered.
    """
    config = out / "config.yaml"
    config.write_text(
        f"n_frames: {FRAMES}\nn_cameras: 6\nn_servers: 3\nseed: 4\n"
        "camera_policy: adaptive_q\nserver_policy: adaptive_q\n"
        f"traces_dir: {str(out)!r}\n"
        "disruption:\n  correlation_groups: [[0, 1], [2, 4], [3], [5]]\n"
        "quality:\n  camera_weights: [0.84, 0.83, 0.82, 0.81, 0.80, 0.79]\n"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-traces", "--config", str(config), "--out", str(out)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0


def run_rig12_case(out: Path) -> None:
    """The 12-camera, k_max 12 replay rig of CI's smoke test: gen-traces, then run.

    Its server snapshot has states with 10 or more selected cameras, so the
    rows' key order (``"10|0"`` before ``"2|0"``, as strings sort) is pinned.
    """
    config = out / "config.yaml"
    config.write_text(
        "n_frames: 200\nn_cameras: 12\nn_servers: 4\nk_min: 2\nk_max: 12\nseed: 1\n"
        "camera_policy: adaptive_q\nserver_policy: adaptive_q\n"
        f"traces_dir: {str(out)!r}\n"
        "disruption:\n  correlation_groups: [[0, 1, 2], [3, 4], [5, 6, 7], [8, 9], [10, 11]]\n"
        "quality:\n  camera_weights: [0.86, 0.84, 0.82, 0.8, 0.78, 0.76, 0.74, 0.72, 0.7, "
        "0.68, 0.66, 0.64]\n"
        "latency:\n  per_image_tx_ms: 250.0\n  recon_per_image_ms: 80.0\n"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-traces", "--config", str(config), "--out", str(out)]) == 0
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0


CASES = {
    **{f"camera-{p}": (lambda out, p=p: run_api_case(_camera_case(p), out))
       for p in CAMERA_POLICIES},
    **{f"server-{p}": (lambda out, p=p: run_api_case(_server_case(p), out))
       for p in SERVER_POLICIES},
    "delay3": lambda out: run_api_case(_delayed_case(), out),
    "quality-trace": run_trace_case,
    "replay": run_replay_case,
    "rig12": run_rig12_case,
}

GOLDEN = {
    "camera-adaptive_q": {
        "frames.csv": "08f22ef50eab1b144b436dd2b93acc0696ee8e6ba997276c71702b87f781fbf0",
        "summary.json": "d6fbfedc398f0cc7c884e5ddd42c8862d96d073d5c73baf7478832ceabed2119",
        "qtable_camera.json": "26b0836b261dc4488995149918704ab86549ec261f39e9cd0972c2c225c623ce",
        "qtable_server.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
    },
    "camera-bandit": {
        "frames.csv": "bc20176a2121ef9841321bf2a30cadacf98f1a4a38b8437a4e5b1dc801b71f12",
        "summary.json": "2af20997db567e5cf4209457c07d2a55641a5cf4aa45fc70b0bd7f7e7ab30150",
        "qtable_camera.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
        "qtable_server.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
    },
    "camera-greedy3": {
        "frames.csv": "9956ea40943bee059eda6e4573505dd454bd0a78405c78d28e56866060cbd4dd",
        "summary.json": "e02731fcbd1ae0c3f845fab6707e85f89f7d5d20eff3befe0a23c93b089adbdb",
        "qtable_camera.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
        "qtable_server.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
    },
    "camera-qlearning": {
        "frames.csv": "cb4f92c077a68153771c2f837dc2d6c17c36e53e8cdcf4fca8427bb1de931d98",
        "summary.json": "fc96bed1512b512d09196a6c27fee67ffb109f1c769af9aa0e25de93164a82bd",
        "qtable_camera.json": "39e39790e75125b6b1efc71b7aefe3be8c0d36c4cb5c63b9ad5b663d4336c1e9",
        "qtable_server.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
    },
    "camera-random": {
        "frames.csv": "203167ae5557500d74301317c7a3faebd5873c41396c8a3b6192cc0c9a317e35",
        "summary.json": "c943f474e1e5769926847be234e94ae94e0117468b15318ca07851a5b508bac7",
        "qtable_camera.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
        "qtable_server.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
    },
    "delay3": {
        "frames.csv": "de525aef3c12e3f4ef82713235020a8f7a65380d6aa43d41935da24cd3637318",
        "summary.json": "5f4f1000c145ceea9cb930b190e85f9fbff93ed84467b49427e78792ad85b7d9",
        "qtable_camera.json": "c36dfbd182f43d735ab7142fa8ae921439e983f8b8315a2c4f3adcd149efb223",
        "qtable_server.json": "c2de296445ac3432a83afad99382bb5a9937bd4192862041c4fb3a3c71b34cb1",
    },
    "quality-trace": {
        "frames.csv": "1001a2a3bb774942e14f1aeead5bd231a1fa763a5381f66c3a1680ab1e11182e",
        "summary.json": "9e1f590c8a1d8d0d3022f675e22507f15cd5f020ecc833ed232cf9ee27eb3b42",
        "qtable_camera.json": "d3d6f8e593fb1617616e33f5c7cdeefbed58d2ef8067e9175327906d72546b16",
        "qtable_server.json": "3eb04cb9d18cd5bd7a5b81f1d827eae68926e6feeaf68c3336799e23f461889a",
    },
    "replay": {
        "frames.csv": "a1f669740c1f0a2f05f1556f985e48073cfb66eab6457d556ab3faa8e84b2dc2",
        "summary.json": "06fdc045b924a02344a7457236db90daaab230b4754ab24ace64edc29a775a1c",
        "qtable_camera.json": "cd74b1383690c9bb6f51158f6a7137720dfd6e7e7877aa2c14e1b04f3d9fb838",
        "qtable_server.json": "6090700af4181f4090f3ed489ac0b17daa3a7cce2c2dae71125c341322701e74",
        "cameras.csv": "0eb088b9919ffd0dce825b41de658eeee3c9527fcbf1d126ae7c7341894e3af4",
        "servers.csv": "628e4231af7cb2362b5f41c53d933f9b52c0e00e53c7bb4e76aae8dd359abb97",
    },
    "rig12": {
        "frames.csv": "48ceb4281aab15b6dccb76567abed3c5597d32fdad559d2da42c090ad3a70ba8",
        "summary.json": "ac7dc61882093c5da5dac1ca419a3dc75b57f53435d12d272541048882f20b02",
        "qtable_camera.json": "f912ae5ecffe327b9f431c1bce1a4d173c428b40b4d0cee4e773f56a8fbdc0ae",
        "qtable_server.json": "c6f2b7740431dab51558aa95f902d82fff3f301041c12391bbe556d0087a58ee",
        "cameras.csv": "78e9d90ba29dd9e2a7400c24489bdee718042311363d9b355b54b6bceedabae1",
        "servers.csv": "6d2a88b43f818ff8224823b5f584e1bd38e6dafad4857c03b1849a538e680b51",
    },
    "server-adaptive_q": {
        "frames.csv": "54d4ce0844876ae85a3901b5368721965d3e37e08e5b1362677c81adb7b42bdf",
        "summary.json": "77d00c5d4fecfb9bcb9deac2e7208c56c318e1557a583989609dc6f1da783939",
        "qtable_camera.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
        "qtable_server.json": "fe2493d76cfb2eb1a1782510efe473828e0367e5165791729689e672d3381719",
    },
    "server-latency_greedy": {
        "frames.csv": "f3364326f02f5a2a016902ce9dab5e41b82cbf121f54400b45d605353d0c5a43",
        "summary.json": "75df83efaed05d808d9c330ef9423cc339962bbeb4fc253ffb35830cc03ee187",
        "qtable_camera.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
        "qtable_server.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
    },
    "server-qlearning": {
        "frames.csv": "3e6297ab4d98ff5c1b1fb1f6038aae3e01d0197405df41c3465ac32808cc4a4c",
        "summary.json": "b83a590546fee9b3568321297824db1c6d87ef3ecea8a92a94ba039608fadf67",
        "qtable_camera.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
        "qtable_server.json": "46627a05784f8f3af6ce2c19701745cc3628f162c47fbe41d6e57918a988a205",
    },
    "server-round_robin": {
        "frames.csv": "3c4ae84da7f2f657b910c56fdb55ceb816e3bd1e6a92f1433519b3325ba7e19c",
        "summary.json": "c9b514597e28eea14eb9449ee0404cec5b3b93f4ba846f5d0efa736fb1c28797",
        "qtable_camera.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
        "qtable_server.json": "e18602648ee593a058aecf48fc6300f359a5414ed5d45629c8cebceb722e7784",
    },
}


def digests(case: str, out: Path) -> dict[str, str]:
    CASES[case](out)
    names = FILES + tuple(name for name in TRACE_FILES if (out / name).exists())
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_outputs(case, tmp_path):
    assert digests(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {name!r}: {{")
            for file, digest in digests(name, Path(tmp)).items():
                print(f"        {file!r}: {digest!r},")
            print("    },")

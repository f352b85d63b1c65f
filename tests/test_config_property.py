"""Any YAML-shaped config either runs or is rejected with ConfigError.

Hypothesis draws mappings of bounded size: known keys with values of their
own kind, up to two of them replaced by a value of any YAML shape (ints
small and huge, floats including nan, +-inf and +-1e308, bools, strings,
None, lists and nested lists), and sometimes an unknown key. Finite values
as large as 1.7e308 are drawn for the real settings too, so sums and
products of valid settings can overflow. n_frames is forced to 1-2 and the
sizes that allocate per frame are kept small, so each example is a short
episode. Path settings take no strings: a string names a file, and reading
files is the trace loaders' business (tests/test_trace_io.py).

Through the command line, the same mappings written as YAML either run or
exit before the output directory exists.
"""

import contextlib
import io
import tempfile
from datetime import timedelta
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgerecon.cli import EXIT_CONFIG_ERROR, EXIT_OK, main
from edgerecon.config import CAMERA_POLICIES, SERVER_POLICIES, config_from_dict
from edgerecon.controller import run_episode
from edgerecon.errors import ConfigError

NAMES = CAMERA_POLICIES + SERVER_POLICIES + ("synthetic", "trace", "no", "", "01101", "11")
EXTREMES = st.sampled_from([1e308, -1e308, 1.7e308, float("nan"), float("inf"), float("-inf"),
                            2**62, 2**63, 10**400, -(10**400)])
SCALARS = st.one_of(st.integers(-3, 30), EXTREMES, st.floats(), st.booleans(), st.none(),
                    st.sampled_from(NAMES), st.text(max_size=4))
ANY = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=8)
# In any shape, the sizes the episode allocates by stay small and paths are no strings.
ANY_SIZE = ANY.filter(lambda v: isinstance(v, bool) or not isinstance(v, int) or v <= 8)
ANY_FOR = dict.fromkeys(["n_cameras", "n_servers", "n_bump_events", "n_spike_events"], ANY_SIZE)
ANY_FOR.update(dict.fromkeys(["traces_dir", "trace_path"], ANY.filter(lambda v: not isinstance(v, str))))

FRACTION = st.floats(0, 1)
HUGE = st.sampled_from([1e300, 1e308, 1.7e308])
REAL = st.one_of(st.floats(0.001, 1000), HUGE)
COUNT = st.integers(0, 3)


def reals(low, high, max_size):
    return st.lists(st.one_of(st.floats(low, high), HUGE), min_size=1, max_size=max_size)


# A value of each key's own kind, mostly inside its range; unlisted keys take REAL.
OWN_KIND = {
    "n_cameras": st.sampled_from([2, 5, 5, 6]), "n_servers": st.integers(1, 5),
    "k_min": st.integers(1, 3), "k_max": st.integers(2, 5),
    "phi_total_s": st.one_of(st.floats(1, 1000), HUGE), "phi_recon_s": FRACTION,
    "seed": st.one_of(st.integers(0, 1000), st.just(10**30)),
    "feedback_delay_frames": COUNT, "n_bump_events": COUNT, "n_spike_events": COUNT,
    "mean_bump_len": st.integers(1, 100), "mean_spike_len": st.integers(1, 100),
    "degradation_window": st.integers(1, 30),
    "camera_policy": st.sampled_from(CAMERA_POLICIES),
    "server_policy": st.sampled_from(SERVER_POLICIES),
    "mode": st.just("synthetic"), "adaptive": st.booleans(),
    "traces_dir": st.none(), "trace_path": st.none(),
    "alpha": FRACTION, "gamma": FRACTION, "epsilon": FRACTION, "eps_min": FRACTION,
    "eps_max": FRACTION, "alpha_min": FRACTION, "alpha_max": FRACTION, "eta_dec": FRACTION,
    "lambda_dec": FRACTION, "bandit_epsilon": FRACTION, "ewma_beta": FRACTION,
    "w1": FRACTION, "w2": FRACTION, "disruption_threshold": FRACTION,
    "baseline_failure_prob": FRACTION, "bump_failure_prob": FRACTION,
    "eta_inc": st.one_of(st.floats(1.01, 10), HUGE),
    "lambda_inc": st.one_of(st.floats(1.01, 10), HUGE),
    "midpoint": st.one_of(st.floats(-1000, 1000), HUGE),
    "correlation_groups": st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=2),
                                   min_size=1, max_size=3),
    "spike_servers": st.one_of(st.none(), st.lists(st.integers(0, 4), min_size=1, max_size=3)),
    "camera_weights": st.one_of(st.none(), reals(0, 2, 6)),
    "server_speed_factor": st.one_of(st.none(), reals(0, 3, 5)),
    "spike_range_ms": reals(0, 2000, 2),
    "table": st.dictionaries(st.sampled_from(["11000", "00011", "111", "11"]), REAL, max_size=3),
}

SECTIONS = {
    "thresholds": ["theta", "phi_total_s", "phi_recon_s"],
    "weights": ["w1", "w2"],
    "camera_agent": ["alpha", "gamma", "epsilon", "adaptive", "eta_inc", "eta_dec", "lambda_inc",
                     "lambda_dec", "eps_min", "eps_max", "alpha_min", "alpha_max",
                     "degradation_window", "degradation_drop"],
    "disruption": ["correlation_groups", "n_bump_events", "mean_bump_len",
                   "disruption_threshold", "baseline_failure_prob", "bump_failure_prob",
                   "server_baseline_ms", "server_jitter_ms", "n_spike_events", "spike_range_ms",
                   "mean_spike_len", "spike_servers"],
    "quality": ["mode", "noise_sd", "camera_weights", "ceiling", "curve", "midpoint", "table",
                "trace_path"],
    "latency": ["per_image_tx_ms", "recon_base_ms", "recon_per_image_ms", "server_speed_factor"],
}
SECTIONS["server_agent"] = SECTIONS["camera_agent"]
TOP_LEVEL = ["n_cameras", "n_servers", "k_min", "k_max", "seed", "camera_policy",
             "server_policy", "feedback_delay_frames", "bandit_epsilon", "ewma_beta",
             "traces_dir"]
UNKNOWN = ["frames", "thetta", "extra"]


def mapping(draw, keys):
    chosen = draw(st.lists(st.sampled_from(keys), max_size=5, unique=True))
    return {key: draw(OWN_KIND.get(key, REAL)) for key in chosen}


@st.composite
def yaml_configs(draw):
    raw = mapping(draw, TOP_LEVEL)
    for name in ("camera_policy", "server_policy"):
        raw.setdefault(name, draw(OWN_KIND[name]))
    for name in SECTIONS:
        if draw(st.booleans()):
            raw[name] = mapping(draw, SECTIONS[name])
    # Keep the cross-field rules satisfiable: w1 + w2 = 1, and events that fit in 1-2 frames.
    weights = raw.get("weights", {})
    if weights:
        weights["w2"] = 1.0 - weights.setdefault("w1", 0.5)
    for name in ("n_bump_events", "n_spike_events"):
        if "disruption" in raw:
            raw["disruption"].setdefault(name, draw(st.integers(0, 1)))
    # Up to two values of any shape (a whole section among them), and one
    # time in eleven an unknown key.
    slots = [(raw, key) for key in raw]
    slots += [(section, key) for section in raw.values() if isinstance(section, dict)
              for key in section]
    if slots:
        for i in draw(st.lists(st.integers(0, len(slots) - 1), max_size=2)):
            container, key = slots[i]
            container[key] = draw(ANY_FOR.get(key, ANY))
    unknown = draw(st.sampled_from([None] * 30 + UNKNOWN))
    if unknown is not None:
        raw[unknown] = draw(ANY)
    raw["n_frames"] = draw(st.integers(1, 2))
    return raw


@settings(max_examples=200, deadline=timedelta(seconds=1),
          suppress_health_check=[HealthCheck.too_slow])
@given(yaml_configs())
def test_yaml_mapping_runs_or_is_config_error(raw):
    # run_episode raises ConfigError too, e.g. for events that do not fit.
    try:
        config = config_from_dict(raw)
        stats, log = run_episode(config)
    except ConfigError:
        return
    assert stats.frames == len(log) == config.n_frames


@settings(max_examples=200, deadline=timedelta(seconds=1),
          suppress_health_check=[HealthCheck.too_slow])
@given(yaml_configs())
def test_cli_run_succeeds_or_leaves_no_out(raw):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.yaml", Path(tmp) / "out"
        config.write_text(yaml.safe_dump(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(config), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR)
        assert code == EXIT_OK or not out.exists()

"""Line-based config files for generators and experiments.

One ``key: value`` entry per line; ``#`` starts a comment. Keys made of
digits and commas are community-profile entries mapping a community
subset to a probability, e.g. ``0,2: 0.25``. Distributions are written
``constant(3)``, ``uniform_int(1,4)``, ``categorical(2:0.5,3:0.5)`` or
``shifted_poisson(2.0,1)``; lists of distributions are separated by
semicolons, lists of numbers by commas. Unknown keys are hard errors.
"""

import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from .sampling import CardinalityDistribution
from .genh import HParams, ParamError
from .geng import GParams, InterCommunityProfile
from .experiments import embedded_h_params


class ConfigError(Exception):
    """Malformed configuration; CLI exit code 2."""


_DIST_RE = re.compile(r"^\s*(\w+)\s*\(\s*(.*?)\s*\)\s*$")
_PROFILE_KEY_RE = re.compile(r"^\d+(,\d+)*$")

EXPERIMENT_KINDS = (
    "fig1_bound_vs_detected",
    "beta_sweep",
    "example_regressions",
    "recurrence_check",
    "g_vs_avin",
)


@dataclass
class ExperimentSpec:
    """A named experiment plus its kind-specific options."""

    kind: str
    replicas: int = 1
    options: dict = field(default_factory=dict)


def parse_distribution(text):
    m = _DIST_RE.match(text)
    if not m:
        raise ConfigError(f"malformed distribution {text!r}")
    kind, args = m.group(1), m.group(2)
    try:
        if kind == "constant":
            return CardinalityDistribution.constant(int(args))
        if kind == "uniform_int":
            lo, hi = (int(a) for a in args.split(","))
            return CardinalityDistribution.uniform_int(lo, hi)
        if kind == "categorical":
            values, probs = [], []
            for pair in args.split(","):
                v, p = pair.split(":")
                values.append(int(v))
                probs.append(float(p))
            return CardinalityDistribution.categorical(values, probs)
        if kind == "shifted_poisson":
            fields = args.split(",")
            lam = float(fields[0])
            shift = int(fields[1]) if len(fields) > 1 else 1
            return CardinalityDistribution.shifted_poisson(lam, shift)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"malformed distribution {text!r}: {exc}") from None
    raise ConfigError(f"unknown distribution kind {kind!r}")


def parse_distribution_list(text):
    return [parse_distribution(part) for part in text.split(";")]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def read_entries(path):
    """Ordered (key, value) entries of a config file; duplicate keys rejected."""
    entries = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key: value', got {line!r}")
            key, value = line.split(":", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value
    return entries


def _take(entries, key, convert, default=None, required=False):
    if key not in entries:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = entries.pop(key)
    try:
        return convert(raw)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"key {key!r}: bad value {raw!r} ({exc})") from None


def _bool(text):
    if text.lower() in ("on", "true", "yes", "1"):
        return True
    if text.lower() in ("off", "false", "no", "0"):
        return False
    raise ValueError("expected on/off")


# parameter field -> the config key that sets it, per model
_H_KEYS = {
    "p_vertex": "p_v",
    "p_vertex_edge": "p_ve",
    "p_edge": "p_e",
    "attach_size": "y",
    "edge_sizes": "x",
    "edges_per_event": "m",
}
_G_KEYS = {"p_vertex": "p", "edge_sizes": "x"}


@contextmanager
def config_keys(params):
    """Re-raise a ``ParamError`` about ``params`` as a ConfigError naming the
    config keys of the fields at fault."""
    try:
        yield
    except ParamError as exc:
        keys = _H_KEYS if isinstance(params, HParams) else _G_KEYS
        names = ", ".join(repr(keys.get(f, f)) for f in exc.fields)
        noun = "keys" if len(exc.fields) > 1 else "key"
        raise ConfigError(f"{noun} {names}: {exc.rule}") from None


def _validated(params):
    with config_keys(params):
        params.validate()
    return params


def _reject_unknown(entries, context):
    if entries:
        key = next(iter(entries))
        raise ConfigError(f"unknown key {key!r} in {context} config")


def _pop_profile(entries, num_communities):
    profile_entries = {}
    for key in [k for k in entries if _PROFILE_KEY_RE.match(k)]:
        subset = tuple(int(tok) for tok in key.split(","))
        try:
            profile_entries[subset] = float(entries.pop(key))
        except ValueError:
            raise ConfigError(f"profile entry {key!r}: bad probability") from None
    if not profile_entries:
        raise ConfigError("community model needs at least one profile line 'i1,i2,...: prob'")
    try:
        return InterCommunityProfile(profile_entries, num_communities)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_h_params(entries):
    p_edge = _take(entries, "p_e", _float_list, default=[])
    params = HParams(
        p_vertex=_take(entries, "p_v", float, default=0.0),
        p_vertex_edge=_take(entries, "p_ve", float, default=0.0),
        p_edge=p_edge,
        attach_size=_take(
            entries, "y", parse_distribution,
            default=CardinalityDistribution.constant(1),
        ),
        edge_sizes=_take(entries, "x", parse_distribution_list, default=[]),
        edges_per_event=_take(entries, "m", int, default=1),
        gamma=_take(entries, "gamma", float, default=0.0),
        steps=_take(entries, "steps", int, default=0),
        cap_sizes=_take(entries, "cardinality_cap", _bool, default=False),
    )
    _reject_unknown(entries, "general model")
    return _validated(params)


def parse_g_params(entries):
    membership = _take(entries, "membership", _float_list, required=True)
    profile = _pop_profile(entries, len(membership))
    params = GParams(
        p_vertex=_take(entries, "p", float, required=True),
        membership=membership,
        profile=profile,
        edge_sizes=_take(entries, "x", parse_distribution_list, required=True),
        gamma=_take(entries, "gamma", float, default=0.0),
        steps=_take(entries, "steps", int, default=0),
    )
    _reject_unknown(entries, "community model")
    return _validated(params)


def parse_model_config(path):
    """Read a generator config; returns HParams or GParams."""
    entries = read_entries(path)
    model = _take(entries, "model", str, required=True)
    if model == "h":
        return parse_h_params(entries)
    if model == "g":
        return parse_g_params(entries)
    raise ConfigError(f"unknown model {model!r}, expected 'h' or 'g'")


_EXPERIMENT_KEYS = {
    "fig1_bound_vs_detected": {
        "uniformity": (int, 2),
        "communities": (int, 47),
        "alphas": (_float_list, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
        "p": (float, 0.25),
        "gamma": (float, 1.0),
        "target_vertices": (int, 10000),
    },
    "g_vs_avin": {
        "uniformity": (int, 20),
        "communities": (int, 47),
        "alphas": (_float_list, [0.21]),
        "p": (float, 0.3),
        "gamma": (float, 1.0),
        "target_vertices": (int, 10000),
    },
    "beta_sweep": {
        "gamma_values": (_float_list, [0.0, 1.0, 2.0]),
        "steps": (int, 100000),
        "p_v": (float, 0.0),
        "p_ve": (float, 0.0),
        "p_e": (_float_list, []),
        "y": (parse_distribution, CardinalityDistribution.constant(2)),
        "x": (parse_distribution_list, []),
        "m": (int, 1),
    },
    "example_regressions": {},
    "recurrence_check": {
        "k_max": (int, 20),
        "steps": (int, 100000),
        "p_v": (float, 0.3),
        "p_ve": (float, 0.3),
        "p_e": (_float_list, [0.4]),
        "y": (parse_distribution, CardinalityDistribution.constant(3)),
        "x": (parse_distribution_list, [CardinalityDistribution.constant(3)]),
        "m": (int, 1),
        "gamma": (float, 1.0),
    },
}


def _check(ok, key, rule, value):
    if not ok:
        raise ConfigError(f"key {key!r}: must be {rule}, got {value}")


def _validate_experiment(kind, o):
    """Range checks of experiment options; each error names its key."""
    if kind in ("fig1_bound_vs_detected", "g_vs_avin"):
        _check(o["uniformity"] >= 1, "uniformity", ">= 1", o["uniformity"])
        _check(o["communities"] >= 1, "communities", ">= 1", o["communities"])
        _check(0.0 < o["p"] <= 1.0, "p", "in (0, 1]", o["p"])
        _check(o["gamma"] >= 0.0, "gamma", ">= 0", o["gamma"])
        _check(o["target_vertices"] >= 1, "target_vertices", ">= 1", o["target_vertices"])
        for alpha in o["alphas"]:
            _check(0.0 <= alpha <= 1.0, "alphas", "in [0, 1]", alpha)
            # cross-community noise needs a pair of communities to land on
            _check(alpha == 0.0 or o["communities"] >= 2, "alphas", "0 with one community", alpha)
    elif kind in ("beta_sweep", "recurrence_check"):
        if kind == "beta_sweep":
            for gamma in o["gamma_values"]:
                _check(gamma >= 0.0, "gamma_values", ">= 0", gamma)
        else:
            _check(o["gamma"] >= 0.0, "gamma", ">= 0", o["gamma"])
            _check(o["k_max"] >= o["m"], "k_max", f">= m ({o['m']})", o["k_max"])
            if o["p_v"] + o["p_ve"] <= 0:
                raise ConfigError("keys 'p_v', 'p_ve': must not both be 0, "
                                  "since degree fractions are per vertex")
        _check(o["m"] >= 1, "m", ">= 1", o["m"])
        _check(o["steps"] >= 0, "steps", ">= 0", o["steps"])
        _check(len(o["p_e"]) == len(o["x"]), "p_e", f"one entry per 'x' distribution ({len(o['x'])})",
               o["p_e"])
        # only the event probabilities are left for HParams.validate to reject
        _validated(embedded_h_params(o, 0.0))


def parse_experiment_config(path):
    entries = read_entries(path)
    kind = _take(entries, "kind", str, required=True)
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}, expected one of {EXPERIMENT_KINDS}")
    replicas = _take(entries, "replicas", int, default=1)
    if replicas < 1:
        raise ConfigError("replicas must be >= 1")
    options = {}
    for key, (convert, default) in _EXPERIMENT_KEYS[kind].items():
        options[key] = _take(entries, key, convert, default=default)
    _reject_unknown(entries, f"experiment {kind}")
    _validate_experiment(kind, options)
    return ExperimentSpec(kind=kind, replicas=replicas, options=options)

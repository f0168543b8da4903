"""Line-based config files for generators and experiments.

One ``key: value`` entry per line; ``#`` starts a comment. Keys made of
digits and commas are community-profile entries mapping a community
subset to a probability, e.g. ``0,2: 0.25``. Distributions are written
``constant(3)``, ``uniform_int(1,4)``, ``categorical(2:0.5,3:0.5)`` or
``shifted_poisson(2.0,1)``; lists of distributions are separated by
semicolons, lists of numbers by commas. Every number must be finite.
Unknown keys are hard errors.
"""

import copy
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from .sampling import CardinalityDistribution
from .genh import HParams, ParamError
from .geng import GParams, InterCommunityProfile


class ConfigError(Exception):
    """Malformed configuration; CLI exit code 2."""


_DIST_RE = re.compile(r"^\s*(\w+)\s*\(\s*(.*?)\s*\)\s*$")
_PROFILE_KEY_RE = re.compile(r"^\d+(,\d+)*$")
_REQUIRED = object()  # the default of a key that must be present


@dataclass
class ExperimentSpec:
    """A named experiment plus its kind-specific options."""

    kind: str
    replicas: int = 1
    options: dict = field(default_factory=dict)


def _number(text):
    """A finite float; NaN and infinities would slip past every range check."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError("not a finite number")
    return x


def _numbers(text):
    return [_number(tok) for tok in text.split(",") if tok.strip() != ""]


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
                probs.append(_number(p))
            return CardinalityDistribution.categorical(values, probs)
        if kind == "shifted_poisson":
            fields = args.split(",")
            lam = _number(fields[0])
            shift = int(fields[1]) if len(fields) > 1 else 1
            return CardinalityDistribution.shifted_poisson(lam, shift)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"malformed distribution {text!r}: {exc}") from None
    raise ConfigError(f"unknown distribution kind {kind!r}")


def parse_distribution_list(text):
    return [parse_distribution(part) for part in text.split(";")]


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


def _take(entries, key, convert, default=_REQUIRED):
    """Pop and convert ``key``; a missing key gets a copy of the shared ``default``."""
    if key not in entries:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return copy.copy(default)
    raw = entries.pop(key)
    try:
        return convert(raw)
    except ConfigError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None
    except Exception as exc:
        raise ConfigError(f"key {key!r}: bad value {raw!r} ({exc})") from None


def _bool(text):
    if text.lower() in ("on", "true", "yes", "1"):
        return True
    if text.lower() in ("off", "false", "no", "0"):
        return False
    raise ValueError("expected on/off")


# config key -> (parameter field, converter, default), one table per model;
# parsing, error names and the experiments' ``h`` keys all read these
_H_KEYS = {
    "p_v": ("p_vertex", _number, 0.0),
    "p_ve": ("p_vertex_edge", _number, 0.0),
    "p_e": ("p_edge", _numbers, []),
    "y": ("attach_size", parse_distribution, CardinalityDistribution.constant(1)),
    "x": ("edge_sizes", parse_distribution_list, []),
    "m": ("edges_per_event", int, 1),
    "gamma": ("gamma", _number, 0.0),
    "steps": ("steps", int, 0),
    "cardinality_cap": ("cap_sizes", _bool, False),
}
_G_KEYS = {
    "membership": ("membership", _numbers, _REQUIRED),
    "p": ("p_vertex", _number, _REQUIRED),
    "x": ("edge_sizes", parse_distribution_list, _REQUIRED),
    "gamma": ("gamma", _number, 0.0),
    "steps": ("steps", int, 0),
}
# how errors name the fields that no config key sets
_UNKEYED = {"profile": "profile lines 'i,j: prob'", "k_max": "option '--kmax'"}


def _take_fields(entries, keys):
    """Parameter fields read from ``entries`` through a key table."""
    return {f: _take(entries, key, convert, default) for key, (f, convert, default) in keys.items()}


@contextmanager
def config_keys(params):
    """Re-raise a ``ParamError`` about ``params`` as a ConfigError naming the
    config keys of the fields at fault."""
    try:
        yield
    except ParamError as exc:
        table = _H_KEYS if isinstance(params, HParams) else _G_KEYS
        key_of = {f: key for key, (f, _, _) in table.items()}
        keys = [repr(key_of[f]) for f in exc.fields if f in key_of]
        names = [f"{'keys' if len(keys) > 1 else 'key'} {', '.join(keys)}"] if keys else []
        names += [_UNKEYED.get(f, repr(f)) for f in exc.fields if f not in key_of]
        raise ConfigError(f"{', '.join(names)}: {exc.rule}") from None


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
            profile_entries[subset] = _number(entries.pop(key))
        except ValueError as exc:
            raise ConfigError(f"profile entry {key!r}: bad probability ({exc})") from None
    if not profile_entries:
        raise ConfigError("community model needs at least one profile line 'i1,i2,...: prob'")
    try:
        return InterCommunityProfile(profile_entries, num_communities)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_h_params(entries):
    params = HParams(**_take_fields(entries, _H_KEYS))
    _reject_unknown(entries, "general model")
    return _validated(params)


def parse_g_params(entries):
    fields = _take_fields(entries, _G_KEYS)
    params = GParams(profile=_pop_profile(entries, len(fields["membership"])), **fields)
    _reject_unknown(entries, "community model")
    return _validated(params)


def parse_model_config(path, model=None):
    """Read a generator config; returns HParams or GParams. A ``model`` of
    "h" or "g" rejects a config of the other model."""
    entries = read_entries(path)
    found = _take(entries, "model", str)
    parse = {"h": parse_h_params, "g": parse_g_params}.get(found)
    if parse is None:
        raise ConfigError(f"unknown model {found!r}, expected 'h' or 'g'")
    if model not in (None, found):
        raise ConfigError(f"this command needs a 'model: {model}' config, got 'model: {found}'")
    return parse(entries)


def _embedded_h_keys(omit=(), **defaults):
    """``_H_KEYS`` less the keys in ``omit``, with some defaults replaced."""
    return {key: (f, convert, defaults.get(key, default))
            for key, (f, convert, default) in _H_KEYS.items() if key not in omit}


def _g_sweep_keys(uniformity, alphas, p):
    """The options of the two ``g`` sweeps, which differ only in these defaults."""
    return {
        "uniformity": (int, uniformity), "communities": (int, 47),
        "alphas": (_numbers, alphas), "p": (_number, p),
        "gamma": (_number, 1.0), "target_vertices": (int, 10000),
    }, {}


# experiment kind -> (its own options: key -> (converter, default), and the
# ``h`` keys from which it builds ``options["params"]``)
_EXPERIMENT_KEYS = {
    "fig1_bound_vs_detected": _g_sweep_keys(2, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], 0.25),
    "g_vs_avin": _g_sweep_keys(20, [0.21], 0.3),
    "beta_sweep": (
        {"gamma_values": (_numbers, [0.0, 1.0, 2.0])},
        _embedded_h_keys(omit=("gamma", "cardinality_cap"), steps=100000,
                         y=CardinalityDistribution.constant(2)),
    ),
    "example_regressions": ({}, {}),
    "recurrence_check": (
        {"k_max": (int, 20)},
        _embedded_h_keys(omit=("cardinality_cap",), steps=100000, p_v=0.3, p_ve=0.3,
                         p_e=[0.4], y=CardinalityDistribution.constant(3),
                         x=[CardinalityDistribution.constant(3)], gamma=1.0),
    ),
}


def _check(ok, key, rule, value):
    if not ok:
        raise ConfigError(f"key {key!r}: must be {rule}, got {value}")


def _validate_experiment(kind, o):
    """Range checks of experiment options that no parameter class makes;
    each error names its key."""
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
    elif kind == "beta_sweep":
        for gamma in o["gamma_values"]:
            _check(gamma >= 0.0, "gamma_values", ">= 0", gamma)
        _validated(o["params"])
    elif kind == "recurrence_check":
        params = _validated(o["params"])
        m = params.edges_per_event
        _check(o["k_max"] >= m, "k_max", f">= m ({m})", o["k_max"])
        if params.p_vertex + params.p_vertex_edge <= 0:
            raise ConfigError("keys 'p_v', 'p_ve': must not both be 0, "
                              "since degree fractions are per vertex")


def parse_experiment_config(path):
    entries = read_entries(path)
    kind = _take(entries, "kind", str)
    if kind not in _EXPERIMENT_KEYS:
        raise ConfigError(f"unknown experiment kind {kind!r}, "
                          f"expected one of {tuple(_EXPERIMENT_KEYS)}")
    replicas = _take(entries, "replicas", int, default=1)
    if replicas < 1:
        raise ConfigError("replicas must be >= 1")
    own_keys, h_keys = _EXPERIMENT_KEYS[kind]
    options = {key: _take(entries, key, convert, default)
               for key, (convert, default) in own_keys.items()}
    if h_keys:
        options["params"] = HParams(**_take_fields(entries, h_keys))
    _reject_unknown(entries, f"experiment {kind}")
    _validate_experiment(kind, options)
    return ExperimentSpec(kind=kind, replicas=replicas, options=options)

import re
from pathlib import Path

import pytest

from hypermod import CardinalityDistribution, GParams, HParams
from hypermod.config import (
    _EXPERIMENT_KEYS,
    _G_KEYS,
    _H_KEYS,
    ConfigError,
    parse_distribution,
    parse_experiment_config,
    parse_model_config,
)

H_CONFIG = """\
# general growth model
model: h
p_v: 0.3
p_ve: 0.3
p_e: 0.2, 0.2
y: constant(3)
x: constant(3); uniform_int(2,4)
m: 2
gamma: 1.0
steps: 500
"""

G_CONFIG = """\
model: g
p: 0.4
membership: 0.5, 0.3, 0.2
x: constant(3); constant(3); constant(2)
gamma: 2.0
steps: 1000
0: 0.5
1: 0.05
2: 0.05
0,1: 0.25
0,2: 0.15
"""


def write(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_h_config(tmp_path):
    params = parse_model_config(write(tmp_path, H_CONFIG))
    assert isinstance(params, HParams)
    assert params.p_vertex == 0.3
    assert params.p_edge == [0.2, 0.2]
    assert params.edges_per_event == 2
    assert params.attach_size.mean() == 3.0
    assert params.edge_sizes[1].mean() == 3.0
    assert params.steps == 500


@pytest.mark.parametrize("text, cap", [("on", True), ("off", False)])
def test_cardinality_cap_switch(tmp_path, text, cap):
    params = parse_model_config(write(tmp_path, H_CONFIG + f"cardinality_cap: {text}\n"))
    assert params.cap_sizes is cap


def test_parse_g_config(tmp_path):
    params = parse_model_config(write(tmp_path, G_CONFIG))
    assert isinstance(params, GParams)
    assert params.num_communities == 3
    assert params.profile.probability((0, 1)) == pytest.approx(0.25)
    assert params.profile.probability((1, 2)) == 0.0
    assert params.membership == pytest.approx([0.5, 0.3, 0.2])
    assert params.gamma == 2.0


def test_unknown_key_is_hard_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_model_config(write(tmp_path, H_CONFIG + "bogus: 1\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_model_config(write(tmp_path, H_CONFIG + "p_v: 0.1\n"))


def test_missing_model_key(tmp_path):
    with pytest.raises(ConfigError, match="model"):
        parse_model_config(write(tmp_path, "p_v: 1.0\n"))


def test_invalid_probabilities_rejected(tmp_path):
    bad = H_CONFIG.replace("p_v: 0.3", "p_v: 0.9")
    with pytest.raises(ConfigError, match="sum"):
        parse_model_config(write(tmp_path, bad))


def test_g_requires_profile(tmp_path):
    text = "model: g\np: 0.4\nmembership: 0.5,0.5\nx: constant(2); constant(2)\n"
    with pytest.raises(ConfigError, match="profile"):
        parse_model_config(write(tmp_path, text))


def test_profile_out_of_range_community(tmp_path):
    text = (
        "model: g\np: 0.4\nmembership: 0.5,0.5\nx: constant(2); constant(2)\n"
        "0: 0.5\n7: 0.5\n"
    )
    with pytest.raises(ConfigError):
        parse_model_config(write(tmp_path, text))


def test_distribution_parsing():
    assert parse_distribution("constant(4)").mean() == 4.0
    assert parse_distribution("uniform_int(1, 5)").mean() == 3.0
    cat = parse_distribution("categorical(2:0.25, 4:0.75)")
    assert cat.mean() == pytest.approx(3.5)
    sp = parse_distribution("shifted_poisson(1.5, 2)")
    assert sp.mean() == pytest.approx(3.5)
    with pytest.raises(ConfigError):
        parse_distribution("normal(0, 1)")
    with pytest.raises(ConfigError):
        parse_distribution("constant(x)")


def test_experiment_config(tmp_path):
    text = (
        "kind: fig1_bound_vs_detected\nuniformity: 20\ncommunities: 47\n"
        "alphas: 0, 0.25, 0.5\np: 0.25\ngamma: 1.0\ntarget_vertices: 2000\nreplicas: 2\n"
    )
    spec = parse_experiment_config(write(tmp_path, text))
    assert spec.kind == "fig1_bound_vs_detected"
    assert spec.replicas == 2
    assert spec.options["alphas"] == [0.0, 0.25, 0.5]
    assert spec.options["uniformity"] == 20


# each kind's options when its config sets nothing it need not: every
# probability of ``beta_sweep``'s process defaults to 0, so it sets one
EXPERIMENT_DEFAULTS = {
    "fig1_bound_vs_detected": ("", {
        "uniformity": 2, "communities": 47, "alphas": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
        "p": 0.25, "gamma": 1.0, "target_vertices": 10000,
    }),
    "g_vs_avin": ("", {
        "uniformity": 20, "communities": 47, "alphas": [0.21],
        "p": 0.3, "gamma": 1.0, "target_vertices": 10000,
    }),
    "beta_sweep": ("p_ve: 1\n", {
        "gamma_values": [0.0, 1.0, 2.0],
        "params": HParams(0.0, 1.0, [], CardinalityDistribution.constant(2), [],
                          edges_per_event=1, gamma=0.0, steps=100000, cap_sizes=False),
    }),
    "example_regressions": ("", {}),
    "recurrence_check": ("", {
        "k_max": 20,
        "params": HParams(0.3, 0.3, [0.4], CardinalityDistribution.constant(3),
                          [CardinalityDistribution.constant(3)], edges_per_event=1,
                          gamma=1.0, steps=100000, cap_sizes=False),
    }),
}


@pytest.mark.parametrize("kind", sorted(EXPERIMENT_DEFAULTS))
def test_experiment_defaults(tmp_path, kind):
    extra, expected = EXPERIMENT_DEFAULTS[kind]
    spec = parse_experiment_config(write(tmp_path, f"kind: {kind}\n{extra}"))
    assert spec.replicas == 1
    # repr: a distribution compares by identity, and the key order is pinned too
    assert repr(spec.options) == repr(expected)


def test_every_experiment_kind_has_pinned_defaults():
    assert sorted(EXPERIMENT_DEFAULTS) == sorted(_EXPERIMENT_KEYS)


def test_experiment_unknown_kind(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        parse_experiment_config(write(tmp_path, "kind: mystery\n"))


def test_experiment_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_experiment_config(write(tmp_path, "kind: example_regressions\nfoo: 1\n"))


def test_readme_documents_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
    keys = {*_H_KEYS, *_G_KEYS}
    for _, own, h_keys in _EXPERIMENT_KEYS.values():
        keys.update(own, h_keys)
    # a key is documented by an example line "key: ..." or inside a `code` span
    examples = re.findall(r"```[^\n]*\n(.*?)```", section, re.S)
    documented = {line.split(":")[0] for block in examples for line in block.splitlines()}
    for span in re.findall(r"`([^`]*)`", re.sub(r"```.*?```", "", section, flags=re.S)):
        documented.update(re.findall(r"\w+", span))
    missing = sorted(keys - documented)
    assert not missing, f"README's config section does not mention {missing}"

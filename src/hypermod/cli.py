"""Command-line interface.

Subcommands read generator/experiment configs (see config.py for the
schema), take ``--seed``/``--steps`` overrides, and write hyperedge
lists, label files, CSV sweeps or key-value text. Exit codes: 0 success,
2 configuration error, 1 runtime error. Identical configs and seeds
produce byte-identical outputs.
"""

import argparse
import sys

from . import files
from .analysis import (
    bound_inputs_from_profile,
    degree_fraction_oracle,
    empirical_bound_inputs,
    fit_tail_exponent,
    modularity_lower_bound_ab,
    modularity_lower_bound_general,
    predict_beta_g,
    predict_beta_h,
)
from .config import ConfigError, config_keys, parse_experiment_config, parse_model_config
from .experiments import run_experiment
from .genh import HParams, generate_h
from .geng import expected_cardinality_size_pmf, generate_g
from .louvain import detect_communities
from .modularity import (
    CardinalityProfile,
    Partition,
    flatten,
    hypergraph_modularity_score,
    weighted_graph_modularity,
)


def _print_kv(pairs):
    sys.stdout.writelines(f"{key}: {files.format_value(value)}\n" for key, value in pairs)


def _cmd_generate_h(args):
    params = parse_model_config(args.config, "h")
    if args.steps is not None:
        params.steps = args.steps
    h, stats = generate_h(params, args.seed)
    files.write_hypergraph(h, args.out)
    if args.stats:
        files.write_csv(
            args.stats,
            ["t", "vertices", "edges", "degree_sum", "weight_sum"],
            stats.records,
        )
    _print_kv([
        ("vertices", h.num_vertices),
        ("edges", h.num_edges),
        ("degree_sum", h.degree_sum),
    ])
    return 0


def _cmd_generate_g(args):
    params = parse_model_config(args.config, "g")
    if args.steps is not None:
        params.steps = args.steps
    g, planted, stats = generate_g(params, args.seed)
    files.write_hypergraph(g, args.out)
    if args.communities:
        files.write_labels(planted.block_of, args.communities)
    if args.stats:
        rows = []
        for (t, v, e, d, _), (_, sizes, degs) in zip(stats.records, stats.community_records):
            rows.append((t, v, e, d, *sizes, *degs))
        r = params.num_communities
        header = ["t", "vertices", "edges", "degree_sum"]
        header += [f"size_{j}" for j in range(r)] + [f"deg_{j}" for j in range(r)]
        files.write_csv(args.stats, header, rows)
    _print_kv([
        ("vertices", g.num_vertices),
        ("edges", g.num_edges),
        ("degree_sum", g.degree_sum),
    ])
    return 0


def _cmd_modularity(args):
    h = files.parse_hypergraph(args.input)
    part = files.parse_partition(args.partition, h.num_vertices)
    result = hypergraph_modularity_score(h, part)
    _print_kv([
        ("score", result.score),
        ("edge_contribution", result.edge_contribution),
        ("degree_tax", result.degree_tax),
        ("blocks", part.num_blocks),
    ])
    return 0


def _cmd_detect(args):
    h = files.parse_hypergraph(args.input)
    wg = flatten(h)
    part = detect_communities(wg, seed=args.seed)
    if args.out:
        files.write_partition(part, args.out)
    _print_kv([
        ("blocks", part.num_blocks),
        ("score", hypergraph_modularity_score(h, part).score),
        ("flattened_score", weighted_graph_modularity(wg, part)),
    ])
    return 0


def _cmd_flatten(args):
    h = files.parse_hypergraph(args.input)
    files.write_weighted_graph_csv(flatten(h), args.out)
    return 0


def _cmd_fit_powerlaw(args):
    h = files.parse_hypergraph(args.input)
    fit = fit_tail_exponent(h.degree_histogram(), k_min=args.kmin)
    _print_kv([
        ("beta_hat", fit.beta_hat),
        ("k_min", fit.k_min),
        ("n_tail", fit.n_tail),
        ("stderr", fit.stderr),
    ])
    return 0


def _cmd_predict(args):
    params = parse_model_config(args.config)
    if isinstance(params, HParams):
        with config_keys(params):
            pred = predict_beta_h(params)
        _print_kv([
            ("beta", pred.beta),
            ("vertex_rate", pred.vertex_rate),
            ("degree_rate", pred.degree_rate),
            ("tail_ratio", pred.tail_ratio),
            ("amplitude", pred.amplitude),
        ])
    else:
        with config_keys(params):
            beta, per_community = predict_beta_g(params)
        pairs = [("beta", beta)]
        pairs += [(f"beta_{j}", b) for j, b in enumerate(per_community)]
        _print_kv(pairs)
    return 0


def _cmd_bounds(args):
    params = parse_model_config(args.config, "g")
    if args.input:
        if not args.communities:
            raise ConfigError("--input also needs --communities for the labels")
        h = files.parse_hypergraph(args.input)
        labels = files.parse_labels(args.communities, h.num_vertices)
        r = params.num_communities
        top = max(labels, default=0)
        if top >= r:
            raise ValueError(f"{args.communities}: vertex {labels.index(top)} has block {top}, "
                             f"but {args.config} has {r} communities")
        inputs = empirical_bound_inputs(h, Partition(labels, r))
    elif args.communities:
        raise ConfigError("--communities also needs --input for the hyperedge list")
    else:
        pmf = expected_cardinality_size_pmf(params)
        delta = sum(ell * p for ell, p in pmf.items())
        inputs = bound_inputs_from_profile(params.profile, CardinalityProfile(pmf, delta))
        tops = [dist.max_value() for dist in params.edge_sizes]
        subset_size = max(map(len, params.profile.entries))
        # the size cap d: the largest size the model can draw, None when unbounded
        inputs.max_cardinality = None if None in tops else subset_size * max(tops)
    general = relaxed = float("nan")
    if inputs.max_cardinality is not None:
        general = modularity_lower_bound_general(inputs)
        relaxed = modularity_lower_bound_ab(
            inputs.alpha_noise, inputs.beta_max, inputs.profile,
            inputs.max_cardinality, inputs.num_communities,
        )
    _print_kv([
        ("lemma3_bound", general),
        ("lemma4_bound", relaxed),
        ("alpha_noise", inputs.alpha_noise),
        ("beta_max", inputs.beta_max),
    ])
    return 0


def _cmd_oracle(args):
    params = parse_model_config(args.config, "h")
    with config_keys(params):
        table = degree_fraction_oracle(params, args.kmax)
    rows = [
        (k, table.limits[k], table.per_vertex[k])
        for k in range(args.kmax + 1)
    ]
    files.write_csv(args.out, ["k", "limit_fraction", "per_vertex_fraction"], rows)
    return 0


def _cmd_experiment(args):
    spec = parse_experiment_config(args.config)
    run_experiment(spec, args.seed, args.out)
    return 0


def _int_at_least(name, lo):
    """Argument type for an integer option ``name`` that must be >= ``lo``."""

    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"{name} must be >= {lo}, got {value}")
        return value

    return convert


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypermod",
        description="Preferential-attachment hypergraphs with communities: "
        "generation, modularity and power-law analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-h", help="run the general growth model")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_int_at_least("steps", 0), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None)
    p.set_defaults(func=_cmd_generate_h)

    p = sub.add_parser("generate-g", help="run the community-structured model")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_int_at_least("steps", 0), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--communities", default=None)
    p.add_argument("--stats", default=None)
    p.set_defaults(func=_cmd_generate_g)

    p = sub.add_parser("modularity", help="score a partition on a hypergraph")
    p.add_argument("--input", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=_cmd_modularity)

    p = sub.add_parser("detect", help="flatten and detect communities")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("flatten", help="write the weighted clique expansion as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("fit-powerlaw", help="fit a degree-tail exponent")
    p.add_argument("--input", required=True)
    p.add_argument("--kmin", type=_int_at_least("kmin", 1), default=None)
    p.set_defaults(func=_cmd_fit_powerlaw)

    p = sub.add_parser("predict", help="closed-form exponent prediction")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("bounds", help="modularity lower bounds")
    p.add_argument("--config", required=True)
    p.add_argument("--input", default=None, help="measured inputs from this hyperedge list")
    p.add_argument("--communities", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("oracle", help="exact degree-fraction table as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--kmax", type=_int_at_least("kmax", 0), default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiment", help="run a sweep described by a config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def run_cli(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

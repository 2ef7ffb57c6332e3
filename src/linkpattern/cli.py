"""Command-line surface: ingestion, training, sampling, prediction, evaluation.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure,
3 internal invariant violation.  Every run writes a JSON manifest next to
its primary output with the resolved configuration and artifact checksums,
sufficient to replay the run; all randomness flows from ``--seed`` through
named substreams.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .evaluate import (METHOD_NAMES, ExperimentResult, SplitSpec, TrainSettings,
                       evaluate_method, relation_ablation, split_fibers,
                       write_results_csv)
from .exceptions import (ConfigError, DataConflictError, DegenerateSplitError,
                         DimensionMismatchError, DivergenceError, FormatError,
                         NotPositiveDefiniteError, StallError,
                         UndefinedMetricError)
from .gibbs import ChainConfig, HyperPriors, SampleSet, predictive_scores, run_chain
from .io import (SynthSpec, _int_table, generate_synthetic, load_factors, load_triples,
                 save_factors, save_triples)
from .model import ModelConfig
from .optimize import MapConfig, fit_map


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(primary_out, subcommand, args, inputs, outputs, fit=None) -> str:
    """Write ``<primary_out>.manifest.json``: the resolved flags, the SHA-256
    of every input and output, and for a MAP fit its ``fit`` summary."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    # a --config file is read like any input; its flags are in "config" too
    inputs = ([args.config] if args.config else []) + list(inputs)
    manifest = {
        "tool": "linkpattern",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "created_unix": time.time(),
    }
    if fit is not None:
        manifest["fit"] = fit
    path = str(primary_out) + ".manifest.json"
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def _parse_list(text: str, kind):
    """The ``kind`` values of a comma list; empty items are skipped."""
    return [kind(part) for part in text.split(",") if part]


def _priors_from_args(args, rank: int) -> HyperPriors:
    nu0 = {} if args.nu0 is None else {"nu0": args.nu0}
    return HyperPriors.default(rank, w0=args.w0_scale * np.eye(rank), **nu0,
                               gamma_shape=args.gamma_shape, gamma_scale=args.gamma_scale,
                               kappa0=args.kappa0, kappa_t=args.kappa_t)


def _map_config_from_args(args) -> MapConfig:
    gamma_u = args.gamma_u if args.gamma_u is not None else args.gamma
    gamma_v = args.gamma_v if args.gamma_v is not None else args.gamma
    gamma_r = args.gamma_r if args.gamma_r is not None else args.gamma
    return MapConfig(gamma_u=gamma_u, gamma_v=gamma_v, gamma_r=gamma_r,
                     max_iterations=args.max_iterations,
                     rel_tolerance=args.rel_tolerance,
                     init_scale=args.init_scale, seed=args.seed)


def _write_trace_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_fit_map(args) -> int:
    tensor = load_triples(args.input)
    model_cfg = ModelConfig(rank=args.rank, use_logistic=not args.identity_link)
    factors, trace = fit_map(tensor, model_cfg, _map_config_from_args(args))
    save_factors(factors, args.out)
    trace_path = args.trace if args.trace else str(args.out) + ".trace.csv"
    rows = [["0", f"{trace.objectives[0]:.17g}", "", "", ""]]
    for k in range(trace.iterations):
        rows.append([str(k + 1), f"{trace.objectives[k + 1]:.17g}",
                     f"{trace.gradient_norms[k]:.17g}", f"{trace.step_sizes[k]:.17g}",
                     str(trace.trials[k])])
    _write_trace_csv(trace_path, "iteration,objective,gradient_norm,step_size,trials", rows)
    _write_manifest(args.out, "fit-map", args, [args.input], [args.out, trace_path],
                    fit={"termination": trace.termination, "iterations": trace.iterations,
                         "restarts": trace.restarts, "trials": sum(trace.trials)})
    print(f"fit-map: {trace.termination} after {trace.iterations} iterations "
          f"({trace.restarts} restarts), objective {trace.objectives[-1]:.6g} -> {args.out}")
    return 0


def cmd_sample(args) -> int:
    tensor = load_triples(args.input)
    init_factors = None
    if args.init == "random":
        if args.rank is None:
            raise ConfigError("--rank is required with --init random")
        rank = args.rank
    elif args.init.startswith("map:"):
        loaded = load_factors(args.init[4:])
        if isinstance(loaded, SampleSet):
            raise ConfigError("--init map: expects a single factor file, not a sample set")
        init_factors = loaded
        rank = loaded.rank
        if args.rank is not None and args.rank != rank:
            raise ConfigError(f"--rank {args.rank} conflicts with factor file rank {rank}")
    else:
        raise ConfigError(f"--init must be 'random' or 'map:<file>', got {args.init!r}")

    priors = _priors_from_args(args, rank)
    chain_cfg = ChainConfig(num_samples=args.samples, burn_in=args.burn_in,
                            thin=args.thin, seed=args.seed, init_factors=init_factors)
    samples = run_chain(tensor, ModelConfig(rank, use_logistic=False), priors, chain_cfg)
    save_factors(samples, args.out)
    trace_path = args.trace if args.trace else str(args.out) + ".trace.csv"
    rows = [[str(k), f"{ll:.17g}"] for k, ll in enumerate(samples.log_likelihoods)]
    _write_trace_csv(trace_path, "sweep,log_likelihood", rows)
    inputs = [args.input] + ([args.init[4:]] if args.init.startswith("map:") else [])
    _write_manifest(args.out, "sample", args, inputs, [args.out, trace_path])
    print(f"sample: retained {len(samples)} draws -> {args.out}")
    return 0


def _evaluate_cell(payload):
    """Result rows of one (method, fraction, rank, repeat) cell of ``evaluate``:
    ``relation_ablation``'s under ``--ablate-relations``, else one
    ``evaluate_method`` row.  NA rows, with a warning on stderr, stand for
    results that a degenerate split or an undefined AUC leaves out."""
    (tensor, method, fraction, rank, seed, repeat_index, settings, macro, ablate) = payload
    split = SplitSpec(fraction, seed)

    def warn(name, exc):
        print(f"warning: {name} fraction={fraction} rank={rank} seed={seed}: {exc}",
              file=sys.stderr)
    try:
        if ablate:
            rows, _ranking = relation_ablation(tensor, split_spec=split, rank=rank,
                                               method=method, settings=settings,
                                               macro_average=macro, on_undefined=warn)
        else:
            train, test = split_fibers(tensor, split)
            rows = [evaluate_method(method, train, test, rank=rank, seed=seed,
                                    settings=settings, split=split, macro_average=macro)]
    except (UndefinedMetricError, DegenerateSplitError) as exc:
        warn(method, exc)
        rows = [ExperimentResult(method=method, split=split, rank=rank, seed=seed,
                                 auc=None, wall_time_s=0.0)]
    for row in rows:
        row.repeat_index = repeat_index
    return rows


def cmd_evaluate(args) -> int:
    if args.repeats < 1 or args.jobs < 1:
        raise ConfigError(f"--repeats and --jobs must be at least 1, "
                          f"got {args.repeats} and {args.jobs}")
    methods = _parse_list(args.methods, str)
    if not methods:
        raise ConfigError("--methods must name at least one method")
    fractions = _parse_list(args.fraction, float)
    if not fractions:
        raise ConfigError("--fraction must hold at least one value")
    ranks = _parse_list(args.sweep_ranks, int) if args.sweep_ranks else [args.rank]
    # every name and value is checked before any cell trains
    for method in methods:
        if method not in METHOD_NAMES:
            raise ConfigError(f"unknown method {method!r}; expected one of {METHOD_NAMES}")
    for fraction in fractions:
        SplitSpec(fraction, args.seed)
    for rank in ranks:
        ModelConfig(rank)
    settings = TrainSettings(gamma=args.gamma,
                             map_max_iterations=args.max_iterations,
                             num_samples=args.samples, burn_in=args.burn_in,
                             thin=args.thin)
    tensor = load_triples(args.input)
    dataset = args.dataset if args.dataset else os.path.splitext(os.path.basename(args.input))[0]

    cells = [(tensor, method, fraction, rank, args.seed + repeat, repeat,
              settings, args.macro_average, args.ablate_relations)
             for fraction in fractions
             for rank in ranks
             for repeat in range(args.repeats)
             for method in methods]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_evaluate_cell, cells))
    else:
        rows = [_evaluate_cell(cell) for cell in cells]
    results = [row for cell_rows in rows for row in cell_rows]
    write_results_csv(results, dataset, args.out, include_timing=args.timing)
    _write_manifest(args.out, "evaluate", args, [args.input], [args.out])
    kind = "ablation results" if args.ablate_relations else "results"
    print(f"evaluate: {len(results)} {kind} -> {args.out}")
    return 0


def cmd_predict(args) -> int:
    loaded = load_factors(args.factors)
    # a single factor file scores as a one-draw sample set
    samples = loaded if isinstance(loaded, SampleSet) else SampleSet.of([loaded])
    (_, n_objects, rank), T = samples.U.shape, samples.R.shape[1]
    pairs = _int_table(args.pairs, (n_objects, n_objects))
    if not len(pairs):
        raise FormatError("pair list holds no pairs")
    ii, jj = np.repeat(pairs[:, 0], T), np.repeat(pairs[:, 1], T)
    tt = np.tile(np.arange(T), len(pairs))
    # sample sets are drawn under the identity link
    use_logistic = not (isinstance(loaded, SampleSet) or args.identity_link)
    scores = predictive_scores(samples, ii, jj, tt, ModelConfig(rank, use_logistic))
    fmt = " ".join(["%.6f"] * T)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        rows = scores.reshape(len(pairs), T).tolist()
        fh.writelines(f"{i} {j} {fmt % tuple(row)}\n" for (i, j), row in zip(pairs.tolist(), rows))
    _write_manifest(args.out, "predict", args, [args.factors, args.pairs], [args.out])
    print(f"predict: {len(pairs)} pairs -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    priors = _priors_from_args(args, args.rank)
    spec = SynthSpec(n_objects=args.n_objects, n_relations=args.n_relations,
                     rank=args.rank, observed_fraction=args.observed_fraction,
                     binarize_threshold=args.threshold, seed=args.seed,
                     hyperpriors=priors)
    tensor, truth = generate_synthetic(spec)
    save_triples(tensor, args.out)
    truth_path = args.truth_out if args.truth_out else str(args.out) + ".truth.pltf"
    save_factors(truth, truth_path)
    _write_manifest(args.out, "synth", args, [], [args.out, truth_path])
    print(f"synth: {tensor} -> {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="linkpattern",
                     description="Link pattern prediction in multi-relational networks")
    parser.add_argument("--version", action="version", version=f"linkpattern {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    parser.subcommands = sub.choices  # name -> parser, read by _expand_config

    # Each option that several subcommands take is declared once, in a parent
    # parser; a flag that mirrors a library config field takes its default.
    common, data, map_flags, chain_flags, hyper_flags, trace = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    common.add_argument("--config", help="key=value file supplying defaults for any flag")
    common.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    data.add_argument("--input", required=True, help="triple text file")
    map_flags.add_argument("--gamma", type=float, default=MapConfig.gamma_u,
                           help="MAP ridge weight of every factor (default %(default)s)")
    map_flags.add_argument("--max-iterations", type=int, default=MapConfig.max_iterations,
                           help="MAP iteration cap (default %(default)s)")
    chain_flags.add_argument("--samples", type=int, default=ChainConfig.num_samples,
                             help="total Gibbs sweeps per chain (default %(default)s)")
    chain_flags.add_argument("--burn-in", type=int, default=ChainConfig.burn_in,
                             help="discarded initial sweeps (default %(default)s)")
    chain_flags.add_argument("--thin", type=int, default=ChainConfig.thin,
                             help="keep every k-th sweep (default %(default)s)")
    hypers = hyper_flags.add_argument_group("hyperpriors")
    hypers.add_argument("--gamma-shape", type=float, default=HyperPriors.gamma_shape,
                        help="noise-precision Gamma shape (default %(default)s)")
    hypers.add_argument("--gamma-scale", type=float, default=HyperPriors.gamma_scale,
                        help="noise-precision Gamma scale (default %(default)s)")
    hypers.add_argument("--kappa0", type=float, default=HyperPriors.kappa0,
                        help="object-factor mean concentration (default %(default)s)")
    hypers.add_argument("--kappa-t", type=float, default=HyperPriors.kappa_t,
                        help="relation-factor mean concentration (default %(default)s)")
    hypers.add_argument("--nu0", type=float, help="Wishart degrees of freedom (default: rank)")
    hypers.add_argument("--w0-scale", type=float, default=1.0,
                        help="Wishart scale matrix is this multiple of I (default %(default)s)")
    trace.add_argument("--trace", help="trace CSV path (default: <out>.trace.csv)")

    p = sub.add_parser("fit-map", parents=[common, data, map_flags, trace], help="MAP training",
                       description="Fit latent factors by MAP: conjugate gradient under the "
                                   "logistic link, alternating least squares under "
                                   "--identity-link.")
    p.add_argument("--out", required=True, help="output factor file")
    p.add_argument("--rank", type=int, required=True, help="factorization rank")
    for block in "uvr":
        p.add_argument(f"--gamma-{block}", type=float,
                       help=f"override {block.upper()} ridge weight")
    p.add_argument("--rel-tolerance", type=float, default=MapConfig.rel_tolerance,
                   help="tolerance tau of the three-part convergence test "
                        "(default %(default)s)")
    p.add_argument("--init-scale", type=float, default=MapConfig.init_scale,
                   help="stddev of the random factor initialization (default %(default)s)")
    p.add_argument("--identity-link", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="fit without the logistic link (default: logistic on)")
    p.set_defaults(func=cmd_fit_map)

    p = sub.add_parser("sample", parents=[common, data, chain_flags, trace, hyper_flags],
                       help="Gibbs sampling of the hierarchical model",
                       description="Draw posterior samples with the Gibbs sampler.")
    p.add_argument("--out", required=True, help="output sample-set file")
    p.add_argument("--init", default="random",
                   help="'random' or 'map:<factor file>' (default %(default)s)")
    p.add_argument("--rank", type=int,
                   help="rank (required for random init; else from the factor file)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", parents=[common, data, map_flags, chain_flags],
                       help="holdout evaluation of one or more methods",
                       description="Run the fiber-holdout evaluation protocol.")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--methods", default="pltf,hb-r,hb-t,baseline",
                   help="comma list of pltf,hb-r,hb-t,baseline (default all four)")
    p.add_argument("--fraction", default="0.2",
                   help="comma list of test fiber fractions (default %(default)s)")
    p.add_argument("--rank", type=int, default=5, help="factorization rank (default %(default)s)")
    p.add_argument("--sweep-ranks", help="comma list of ranks; overrides --rank")
    p.add_argument("--repeats", type=int, default=5,
                   help="repeat count; repeat r uses seed+r (default %(default)s)")
    p.add_argument("--macro-average", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="average per-relation AUCs instead of pooling all test entries")
    p.add_argument("--ablate-relations", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="run the relation-restoration ablation instead of the method grid")
    p.add_argument("--dataset", help="dataset label for the CSV (default: input file stem)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes for evaluation cells (default %(default)s)")
    p.add_argument("--timing", action=argparse.BooleanOptionalAction, default=False,
                   help="write measured wall times to the CSV; breaks byte-level "
                        "reproducibility of reruns (default off: wall_time_s is 0)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[common],
                       help="score pairs with trained factors or samples",
                       description="Write length-T score vectors for a list of pairs.")
    p.add_argument("--factors", required=True,
                   help="factor or sample-set file from fit-map/sample")
    p.add_argument("--pairs", required=True, help="text file of 'i j' lines")
    p.add_argument("--out", required=True, help="output predictions file")
    p.add_argument("--identity-link", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="score single factor files without the logistic link")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("synth", parents=[common, hyper_flags],
                       help="generate synthetic data from the generative model",
                       description="Generate a synthetic tensor plus ground-truth factors.")
    p.add_argument("--n-objects", type=int, required=True, help="object count N")
    p.add_argument("--n-relations", type=int, required=True, help="relation count T")
    p.add_argument("--rank", type=int, required=True, help="true generating rank")
    p.add_argument("--observed-fraction", type=float, default=SynthSpec.observed_fraction,
                   help="fraction of entries kept observed (default %(default)s)")
    p.add_argument("--threshold", type=float, default=SynthSpec.binarize_threshold,
                   help="binarization threshold on the raw reconstruction scale; "
                        "0 matches logistic probability 0.5 (default %(default)s)")
    p.add_argument("--out", required=True, help="output triple file")
    p.add_argument("--truth-out", help="ground-truth factor file (default: <out>.truth.pltf)")
    p.set_defaults(func=cmd_synth)

    return parser


def _load_config_file(path):
    entries = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for number, line in enumerate(fh, start=1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            if "=" not in body:
                raise ConfigError(f"config line {number}: expected key=value, got {body!r}")
            key, value = body.split("=", 1)
            entries.append((number, key.strip(), value.strip()))
    return entries


_SWITCH_WORDS = {"1": "--", "true": "--", "yes": "--", "on": "--",
                 "0": "--no-", "false": "--no-", "no": "--no-", "off": "--no-"}


def _expand_config(argv, subcommands):
    """Inline --config file entries as flags right after the subcommand.

    argparse finds ``--config``, so ``--config FILE``, ``--config=FILE``,
    repeats (the last wins) and abbreviations work as for any other flag.
    A key naming a switch option of the subcommand (its argparse action in
    ``subcommands`` takes no value) with a word of ``_SWITCH_WORDS`` becomes
    ``--key`` or ``--no-key``; every other key becomes ``--key=value``.
    Explicit command-line flags come later in argv, so they override the
    file (argparse keeps the last occurrence).  ``--config=FILE`` follows the
    file's flags, so ``args.config`` names the file that was read.
    """
    finder = _Parser(prog="linkpattern", add_help=False)
    finder.add_argument("--config")
    found, out = finder.parse_known_args(argv)
    if found.config is None:
        return argv
    if not out:
        raise ConfigError("--config requires a subcommand")
    sub = subcommands.get(out[0])
    switches = {option for action in (sub._actions if sub else ()) if action.nargs == 0
                for option in action.option_strings}
    flags = []
    for number, key, value in _load_config_file(found.config):
        name = key.replace("_", "-")
        if "--" + name not in switches:
            flags.append(f"--{name}={value}")
        elif value.lower() in _SWITCH_WORDS:
            flags.append(_SWITCH_WORDS[value.lower()] + name)
        else:
            raise ConfigError(f"config line {number}: switch {key} takes one of "
                              f"{', '.join(_SWITCH_WORDS)}, got {value!r}")
    return [out[0]] + flags + [f"--config={found.config}"] + out[1:]


_INPUT_ERRORS = (FileNotFoundError, IsADirectoryError, PermissionError, ConfigError,
                 FormatError, DataConflictError, DimensionMismatchError,
                 DegenerateSplitError, UndefinedMetricError, ValueError)
_NUMERICAL_ERRORS = (DivergenceError, StallError, NotPositiveDefiniteError)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _expand_config(argv, parser.subcommands)
    except _INPUT_ERRORS as exc:
        print(f"linkpattern: error: {exc}", file=sys.stderr)
        return 1
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"linkpattern: numerical failure: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        print(f"linkpattern: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violation; report and exit 3
        print(f"linkpattern: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

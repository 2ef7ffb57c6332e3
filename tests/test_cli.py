import concurrent.futures
import json
import struct

import numpy as np
import pytest

from linkpattern import cli, evaluate
from linkpattern.cli import build_parser, main
from linkpattern.evaluate import TrainSettings
from linkpattern.gibbs import ChainConfig, HyperPriors, SampleSet, predictive_scores
from linkpattern.io import SynthSpec, load_factors, save_triples
from linkpattern.model import ModelConfig, predict_entries
from linkpattern.optimize import MapConfig
from linkpattern.tensor import RelationalTensor


def run_cli(args):
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def data_file(tmp_path):
    rng = np.random.default_rng(0)
    triples = [(i, j, t, int(rng.random() < 0.5))
               for i in range(8) for j in range(8) for t in range(2)
               if rng.random() < 0.8]
    path = tmp_path / "data.tsv"
    save_triples(RelationalTensor.build(8, 2, triples), path)
    return path


def test_synth_fit_sample_predict_flow(tmp_path):
    data = tmp_path / "synth.tsv"
    truth = tmp_path / "truth.pltf"
    assert run_cli(["synth", "--n-objects", 10, "--n-relations", 5, "--rank", 2,
                    "--observed-fraction", 0.8, "--seed", 3,
                    "--out", data, "--truth-out", truth]) == 0
    assert load_factors(truth).rank == 2

    model = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--input", data, "--rank", 2, "--seed", 0,
                    "--out", model]) == 0
    factors = load_factors(model)
    assert factors.rank == 2
    trace_lines = (tmp_path / "m.pltf.trace.csv").read_text().splitlines()
    assert trace_lines[0] == "iteration,objective,gradient_norm,step_size,trials"
    objectives = [float(line.split(",")[1]) for line in trace_lines[1:]]
    assert all(int(line.split(",")[4]) >= 1 for line in trace_lines[2:])
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    samples_file = tmp_path / "s.pltf"
    assert run_cli(["sample", "--input", data, "--init", f"map:{model}",
                    "--samples", 60, "--burn-in", 10, "--seed", 0,
                    "--out", samples_file]) == 0
    samples = load_factors(samples_file)
    assert isinstance(samples, SampleSet)
    assert len(samples) == 50
    assert len(samples.log_likelihoods) == 60

    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n3 4\n")
    preds = tmp_path / "preds.txt"
    assert run_cli(["predict", "--factors", samples_file, "--pairs", pairs,
                    "--out", preds]) == 0
    lines = preds.read_text().splitlines()
    assert len(lines) == 2
    fields = lines[0].split()
    assert fields[:2] == ["0", "1"] and len(fields) == 2 + 5
    expected = predictive_scores(samples, [0] * 5, [1] * 5, range(5),
                                 ModelConfig(2, use_logistic=False))
    assert [f"{s:.6f}" for s in expected] == fields[2:]
    assert all(0.0 <= float(s) <= 1.0 for s in fields[2:])


def test_sample_retained_draw_defaults(data_file, tmp_path):
    out = tmp_path / "s.pltf"
    assert run_cli(["sample", "--input", data_file, "--init", "random", "--rank", 2,
                    "--samples", 300, "--seed", 1, "--out", out]) == 0
    assert len(load_factors(out)) == 250


def test_sample_no_retained_draws_is_usage_error(data_file, tmp_path):
    code = run_cli(["sample", "--input", data_file, "--init", "random", "--rank", 2,
                    "--samples", 10, "--burn-in", 10, "--out", tmp_path / "s.pltf"])
    assert code == 1


def test_missing_input_exits_1(tmp_path):
    assert run_cli(["fit-map", "--input", tmp_path / "nope.tsv", "--rank", 2,
                    "--out", tmp_path / "m.pltf"]) == 1


def test_malformed_pairs_exits_1(data_file, tmp_path):
    model = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--input", data_file, "--rank", 2, "--out", model]) == 0
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1 junk\n")
    assert run_cli(["predict", "--factors", model, "--pairs", pairs,
                    "--out", tmp_path / "p.txt"]) == 1


def test_out_of_range_pair_exits_1_naming_its_line(data_file, tmp_path, capsys):
    model = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--input", data_file, "--rank", 2, "--out", model]) == 0
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n# next is out of range\n8 0\n")
    capsys.readouterr()
    assert run_cli(["predict", "--factors", model, "--pairs", pairs,
                    "--out", tmp_path / "p.txt"]) == 1
    assert "line 3" in capsys.readouterr().err


def test_comment_only_pair_list_exits_1(data_file, tmp_path):
    model = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--input", data_file, "--rank", 2, "--out", model]) == 0
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("# no pairs\n\n")
    assert run_cli(["predict", "--factors", model, "--pairs", pairs,
                    "--out", tmp_path / "p.txt"]) == 1


def test_pair_lists_read_alike_with_and_without_a_comment(data_file, tmp_path):
    # without "#" the pair list is parsed from disk, with one through its line strings
    model = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--input", data_file, "--rank", 2, "--max-iterations", 3,
                    "--out", model]) == 0
    outputs = []
    for name, text in (("plain", "\n0 1\n3\t4\n\n7 0\n"),
                       ("crlf", "\ufeff\r\n0 1\r\n3\t4\r\n\r\n7 0"),
                       ("commented", "# pairs\r\n0 1\r\n3\t4\r\n# last\r\n7 0")):
        pairs, preds = tmp_path / f"{name}.txt", tmp_path / f"{name}.out"
        with open(pairs, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert run_cli(["predict", "--factors", model, "--pairs", pairs, "--out", preds]) == 0
        outputs.append(preds.read_bytes())
    assert outputs[0].startswith(b"0 1 ") and outputs[0].count(b"\n") == 3
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_predict_oversized_factor_header_exits_1(tmp_path):
    factors = tmp_path / "m.pltf"
    factors.write_bytes(b"PLTF" + struct.pack("<BBIIIII", 1, 0, 2 ** 31, 1, 2 ** 31, 1, 0)
                        + bytes(64))
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 1\n")
    assert run_cli(["predict", "--factors", factors, "--pairs", pairs,
                    "--out", tmp_path / "p.txt"]) == 1


def test_predict_map_factors_logistic_scores(data_file, tmp_path):
    model = tmp_path / "m.pltf"
    run_cli(["fit-map", "--input", data_file, "--rank", 2, "--out", model])
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1 2\n")
    preds = tmp_path / "p.txt"
    assert run_cli(["predict", "--factors", model, "--pairs", pairs, "--out", preds]) == 0
    scores = [float(s) for s in preds.read_text().split()[2:]]
    assert all(0.0 < s < 1.0 for s in scores)


@pytest.mark.parametrize("kind,flags", [("samples", []), ("map", []),
                                        ("map", ["--identity-link"])])
def test_predict_file_matches_per_pair_scores(data_file, tmp_path, kind, flags):
    factors_file = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--input", data_file, "--rank", 2, "--out", factors_file]) == 0
    if kind == "samples":
        factors_file = tmp_path / "s.pltf"
        assert run_cli(["sample", "--input", data_file, "--init", "random", "--rank", 2,
                        "--samples", 30, "--burn-in", 5, "--seed", 2,
                        "--out", factors_file]) == 0
    keys = [(i, j) for i in range(8) for j in range(8)]
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("".join(f"{i} {j}\n" for i, j in keys))
    out = tmp_path / "p.txt"
    assert run_cli(["predict", "--factors", factors_file, "--pairs", pairs,
                    "--out", out, *flags]) == 0

    loaded = load_factors(factors_file)
    fiber = np.arange(2)
    if kind == "samples":
        def score(key):
            return predictive_scores(loaded, np.full(2, key[0]), np.full(2, key[1]), fiber,
                                     ModelConfig(2, use_logistic=False))
    else:
        config = ModelConfig(2, use_logistic=not flags)

        def score(key):
            return np.clip(predict_entries(loaded, np.full(2, key[0]), np.full(2, key[1]),
                                           fiber, config), 0.0, 1.0)
    expected = "".join(f"{i} {j} " + " ".join(f"{s:.6f}" for s in score((i, j))) + "\n"
                       for i, j in keys)
    assert out.read_bytes() == expected.encode("utf-8")


def test_fit_map_rerun_reproduces_artifacts(data_file, tmp_path):
    args = ["fit-map", "--input", data_file, "--rank", 2, "--seed", 5,
            "--out", tmp_path / "m.pltf"]
    assert run_cli(args) == 0
    first = (tmp_path / "m.pltf").read_bytes()
    first_trace = (tmp_path / "m.pltf.trace.csv").read_bytes()
    manifest1 = json.loads((tmp_path / "m.pltf.manifest.json").read_text())
    assert run_cli(args) == 0
    assert (tmp_path / "m.pltf").read_bytes() == first
    assert (tmp_path / "m.pltf.trace.csv").read_bytes() == first_trace
    manifest2 = json.loads((tmp_path / "m.pltf.manifest.json").read_text())
    assert manifest1["outputs"] == manifest2["outputs"]


def test_replay_from_manifest(data_file, tmp_path):
    out1 = tmp_path / "m1.pltf"
    assert run_cli(["fit-map", "--input", data_file, "--rank", 3, "--seed", 2,
                    "--gamma", 0.05, "--out", out1]) == 0
    manifest = json.loads((tmp_path / "m1.pltf.manifest.json").read_text())

    out2 = tmp_path / "m2.pltf"
    argv = [manifest["subcommand"]]
    for key, value in manifest["config"].items():
        if value is None or key in ("subcommand", "config"):
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            argv.append(flag if value else f"--no-{flag[2:]}")
        else:
            argv.extend([flag, str(value)])
    argv = [a if a != str(out1) else str(out2) for a in argv]
    assert run_cli(argv) == 0
    assert out2.read_bytes() == out1.read_bytes()


def test_evaluate_deterministic_csv(data_file, tmp_path):
    out = tmp_path / "res.csv"
    args = ["evaluate", "--input", data_file, "--methods", "pltf,hb-r,baseline",
            "--fraction", "0.25", "--rank", 2, "--repeats", 2,
            "--samples", 30, "--burn-in", 10, "--out", out]
    assert run_cli(args) == 0
    first = out.read_bytes()
    assert run_cli(args) == 0
    assert out.read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "method,dataset,fraction,rank,seed,auc,wall_time_s"
    assert len(lines) == 1 + 3 * 2
    assert all(line.endswith("0.000000") for line in lines[1:])


def test_evaluate_parallel_jobs_match_serial(data_file, tmp_path):
    base = ["evaluate", "--input", data_file, "--methods", "pltf",
            "--fraction", "0.25", "--rank", 2, "--repeats", 2,
            "--out"]
    out1, out2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    assert run_cli(base + [out1]) == 0
    assert run_cli(base + [out2, "--jobs", 2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_evaluate_timing_flag(data_file, tmp_path):
    out = tmp_path / "res.csv"
    assert run_cli(["evaluate", "--input", data_file, "--methods", "pltf",
                    "--fraction", "0.25", "--rank", 2, "--repeats", 1,
                    "--timing", "--out", out]) == 0
    wall = out.read_text().splitlines()[1].split(",")[-1]
    assert wall != "0.000000"


def test_evaluate_single_class_cells_marked_na(tmp_path):
    triples = [(i, j, 0, 1) for i in range(6) for j in range(6) if i != j]
    data = tmp_path / "ones.tsv"
    save_triples(RelationalTensor.build(6, 1, triples), data)
    out = tmp_path / "res.csv"
    assert run_cli(["evaluate", "--input", data, "--methods", "pltf",
                    "--fraction", "0.3", "--rank", 1, "--repeats", 1,
                    "--out", out]) == 0
    assert ",NA," in out.read_text()


def test_evaluate_ablation_single_class_cells_marked_na(tmp_path, capsys):
    triples = [(i, j, t, 1) for i in range(6) for j in range(6) for t in range(2)]
    data = tmp_path / "ones.tsv"
    save_triples(RelationalTensor.build(6, 2, triples), data)
    out = tmp_path / "res.csv"
    assert run_cli(["evaluate", "--input", data, "--methods", "pltf", "--rank", 1,
                    "--repeats", 1, "--ablate-relations", "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert sorted(r[0] for r in rows) == ["pltf", "pltf+rel0", "pltf+rel1"]
    assert all(r[5] == "NA" for r in rows)
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: pltf")]
    assert len(warnings) == 3 and all("AUC undefined" in line for line in warnings)
    assert warnings[0] == ("warning: pltf fraction=0.2 rank=1 seed=0: "
                           "AUC undefined: 14 positives, 0 negatives")


def test_evaluate_empty_methods_is_usage_error(data_file, tmp_path):
    assert run_cli(["evaluate", "--input", data_file, "--methods", "",
                    "--out", tmp_path / "r.csv"]) == 1


@pytest.mark.parametrize("option,value", [("--repeats", 0), ("--jobs", -2)])
def test_evaluate_rejects_counts_below_one(data_file, tmp_path, option, value):
    out = tmp_path / "r.csv"
    assert run_cli(["evaluate", "--input", data_file, "--methods", "pltf",
                    option, value, "--out", out]) == 1
    assert not out.exists()


def test_evaluate_sweep_ranks_row_count(data_file, tmp_path):
    out = tmp_path / "res.csv"
    assert run_cli(["evaluate", "--input", data_file, "--methods", "pltf",
                    "--fraction", "0.25", "--sweep-ranks", "1,2", "--repeats", 2,
                    "--out", out]) == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 2


def test_evaluate_ablation_rows(data_file, tmp_path):
    out = tmp_path / "res.csv"
    assert run_cli(["evaluate", "--input", data_file, "--methods", "pltf",
                    "--fraction", "0.25", "--rank", 2, "--repeats", 1,
                    "--ablate-relations", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + (2 + 1)  # T relations plus the baseline row
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"pltf", "pltf+rel0", "pltf+rel1"}


def test_evaluate_ablation_honours_methods_fractions_and_macro(data_file, tmp_path):
    common = ["evaluate", "--input", data_file, "--methods", "pltf,baseline",
              "--fraction", "0.25,0.5", "--rank", 2, "--repeats", 1, "--max-iterations", 20,
              "--samples", 10, "--burn-in", 2, "--ablate-relations"]
    pooled, macro = tmp_path / "pooled.csv", tmp_path / "macro.csv"
    assert run_cli(common + ["--out", pooled]) == 0
    assert run_cli(common + ["--macro-average", "--out", macro]) == 0
    rows = [line.split(",") for line in pooled.read_text().splitlines()[1:]]
    assert sorted((r[0], r[2]) for r in rows) == sorted(
        (f"{m}{suffix}", f) for m in ("pltf", "baseline") for f in ("0.25", "0.5")
        for suffix in ("", "+rel0", "+rel1"))
    assert pooled.read_text() != macro.read_text()


def test_evaluate_ablation_runs_its_cells_in_the_pool(data_file, tmp_path, monkeypatch):
    common = ["evaluate", "--input", data_file, "--methods", "pltf,baseline",
              "--fraction", "0.25,0.5", "--rank", 2, "--repeats", 1, "--max-iterations", 20,
              "--samples", 10, "--burn-in", 2, "--ablate-relations"]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert run_cli(common + ["--out", serial]) == 0
    mapped = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def map(self, fn, cells):
            cells = list(cells)
            mapped.append((self._max_workers, len(cells)))
            return super().map(fn, cells)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert run_cli(common + ["--jobs", 2, "--out", pooled]) == 0
    assert mapped == [(2, 4)]  # one cell per method and fraction
    assert pooled.read_bytes() == serial.read_bytes()


def test_evaluate_ablation_degenerate_split_is_an_na_row(tmp_path, capsys):
    # two fibers at fraction 0.2 leave no fiber to test on
    triples = [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0), (1, 0, 1, 1)]
    data = tmp_path / "two.tsv"
    save_triples(RelationalTensor.build(2, 2, triples), data)
    out = tmp_path / "res.csv"
    assert run_cli(["evaluate", "--input", data, "--methods", "pltf", "--fraction", "0.2",
                    "--rank", 1, "--repeats", 1, "--ablate-relations", "--out", out]) == 0
    assert out.read_text().splitlines()[1:] == ["pltf,two,0.2,1,0,NA,0.000000"]
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1 and warnings[0].endswith("leaves an empty side")


def test_config_values_0_and_1_reach_options_that_take_a_value(data_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=0\nrank=1\nrepeats=1\nmacro-average=off\n")
    common = ["evaluate", "--input", data_file, "--methods", "pltf", "--fraction", "0.25",
              "--max-iterations", 20]
    from_file, explicit = tmp_path / "file.csv", tmp_path / "explicit.csv"
    assert run_cli(common + ["--config", cfg, "--out", from_file]) == 0
    assert run_cli(common + ["--seed", 0, "--rank", 1, "--repeats", 1, "--no-macro-average",
                             "--out", explicit]) == 0
    assert from_file.read_bytes() == explicit.read_bytes()
    cfg.write_text("rank=1\ntiming=maybe\n")
    assert run_cli(common + ["--config", cfg, "--out", from_file]) == 1
    assert "config line 2" in capsys.readouterr().err


def test_config_file_defaults_and_override(data_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=3\nmax-iterations=40\nseed=6\n")
    out = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--config", cfg, "--input", data_file, "--out", out]) == 0
    assert load_factors(out).rank == 3
    assert run_cli(["fit-map", "--config", cfg, "--input", data_file, "--out", out,
                    "--rank", 2]) == 0
    assert load_factors(out).rank == 2


def test_manifest_names_and_hashes_the_config_file(data_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=2\nmax-iterations=3\n")
    out = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--config", cfg, "--input", data_file, "--out", out]) == 0
    manifest = json.loads((tmp_path / "m.pltf.manifest.json").read_text())
    assert manifest["config"]["config"] == str(cfg)
    assert manifest["config"]["rank"] == 2
    assert manifest["inputs"] == {str(p): cli._sha256(p) for p in (cfg, data_file)}


@pytest.mark.parametrize("flags", [["--max-iterations", "60"], ["--max-iterations", "200"],
                                   ["--identity-link", "--max-iterations", "20"]],
                         ids=["logistic-capped", "logistic-converged", "identity"])
def test_fit_map_manifest_records_the_fit(data_file, tmp_path, monkeypatch, flags):
    # termination, iterations, restarts and total trials, as fit_map returned
    # them: here CG restarts and backtracks, and stops at its cap or converges
    traces = []

    def recording_fit_map(*args):
        factors, trace = fit_map(*args)
        traces.append(trace)
        return factors, trace

    fit_map = cli.fit_map
    monkeypatch.setattr(cli, "fit_map", recording_fit_map)
    out = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--input", data_file, "--rank", 2, "--seed", 3, "--out", out,
                    *flags]) == 0
    [trace] = traces
    manifest = json.loads((tmp_path / "m.pltf.manifest.json").read_text())
    assert manifest["fit"] == {"termination": trace.termination,
                               "iterations": trace.iterations, "restarts": trace.restarts,
                               "trials": sum(trace.trials)}
    if "--identity-link" not in flags:
        assert trace.restarts > 0 and sum(trace.trials) > trace.iterations


def _trained_rank_and_iterations(out):
    trace_rows = (out.parent / (out.name + ".trace.csv")).read_text().splitlines()[1:]
    return load_factors(out).rank, int(trace_rows[-1].split(",")[0])


def test_abbreviated_config_is_applied(data_file, tmp_path):
    # argparse takes --conf as --config, so the file's values must apply too
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=2\nmax-iterations=3\n")
    out = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--conf", cfg, "--input", data_file, "--out", out]) == 0
    assert _trained_rank_and_iterations(out) == (2, 3)


def test_config_equals_form_and_config_before_the_subcommand(data_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rank=2\nmax-iterations=3\n")
    out = tmp_path / "m.pltf"
    rest = ["--input", data_file, "--out", out]
    for argv in (["fit-map", f"--config={cfg}"] + rest, ["--config", cfg, "fit-map"] + rest):
        out.unlink(missing_ok=True)
        assert run_cli(argv) == 0
        assert _trained_rank_and_iterations(out) == (2, 3)


def test_config_without_a_path_exits_1(data_file, tmp_path, capsys):
    assert run_cli(["fit-map", "--input", data_file, "--out", tmp_path / "m.pltf",
                    "--config"]) == 1
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "m.pltf").exists()


def test_config_and_pair_files_may_start_with_a_byte_order_mark(data_file, tmp_path):
    cfg, pairs = tmp_path / "run.cfg", tmp_path / "pairs.txt"
    cfg.write_text("\ufeffrank=2\nmax-iterations=3\n", encoding="utf-8")
    pairs.write_text("\ufeff1 2\n", encoding="utf-8")
    out, preds = tmp_path / "m.pltf", tmp_path / "p.txt"
    assert run_cli(["fit-map", "--config", cfg, "--input", data_file, "--out", out]) == 0
    assert _trained_rank_and_iterations(out) == (2, 3)
    assert run_cli(["predict", "--factors", out, "--pairs", pairs, "--out", preds]) == 0
    assert preds.read_text().startswith("1 2 ")


def test_help_lists_every_flag():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, type(parser._subparsers._group_actions[0])))
    for name, sub in subparsers.choices.items():
        text = sub.format_help()
        for action in sub._actions:
            for option in action.option_strings:
                if option.startswith("--") and not option.startswith("--no-"):
                    assert option in text, f"{name} help missing {option}"
        assert "default" in text


def test_flags_take_and_print_their_library_defaults():
    map_cfg, chain_cfg = MapConfig(), ChainConfig()
    priors, spec = HyperPriors.default(2), SynthSpec(2, 1, 1)
    mirrored = {
        ("fit-map", "evaluate"): {"--gamma": map_cfg.gamma_u,
                                  "--max-iterations": map_cfg.max_iterations},
        ("fit-map",): {"--rel-tolerance": map_cfg.rel_tolerance,
                       "--init-scale": map_cfg.init_scale},
        ("sample", "evaluate"): {"--samples": chain_cfg.num_samples,
                                 "--burn-in": chain_cfg.burn_in, "--thin": chain_cfg.thin},
        ("sample", "synth"): {"--gamma-shape": priors.gamma_shape,
                              "--gamma-scale": priors.gamma_scale,
                              "--kappa0": priors.kappa0, "--kappa-t": priors.kappa_t},
        ("synth",): {"--observed-fraction": spec.observed_fraction,
                     "--threshold": spec.binarize_threshold},
    }
    subcommands = build_parser().subcommands
    for names, flags in mirrored.items():
        for name in names:
            sub = subcommands[name]
            options = " ".join(sub.format_help().split("options:", 1)[1].split())
            for flag, default in flags.items():
                action = next(a for a in sub._actions if flag in a.option_strings)
                assert action.default == default, (name, flag)
                entry = options.split(f"{flag} {action.dest.upper()} ", 1)[1].split(" --")[0]
                assert f"(default {default})" in entry, (name, flag, entry)
    settings = TrainSettings()
    assert (settings.gamma, settings.map_max_iterations, settings.map_rel_tolerance,
            settings.init_scale) == (map_cfg.gamma_u, map_cfg.max_iterations,
                                     map_cfg.rel_tolerance, map_cfg.init_scale)
    assert (settings.num_samples, settings.burn_in, settings.thin) == (
        chain_cfg.num_samples, chain_cfg.burn_in, chain_cfg.thin)


def test_fit_map_rejects_a_nan_ridge_weight(data_file, tmp_path, capsys):
    # MapConfig rejects it before any fit, so no factor file is written
    out = tmp_path / "m.pltf"
    assert run_cli(["fit-map", "--input", data_file, "--rank", 2, "--gamma", "nan",
                    "--out", out]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--methods", "hb-r,pltf", "--gamma", "nan"], "finite"),
    (["--methods", "pltf,hb-r", "--samples", "10", "--burn-in", "50"], "no retained draws"),
], ids=["nan-gamma", "no-retained-draws"])
def test_evaluate_checks_settings_before_any_cell(data_file, tmp_path, monkeypatch, capsys,
                                                  flags, message):
    # TrainSettings builds the MAP and chain configs, so the bad value is
    # reported before any method trains
    calls = []
    for name in ("fit_map", "run_chain"):
        monkeypatch.setattr(evaluate, name,
                            lambda *args, name=name, **kwargs: calls.append(name))
    out = tmp_path / "r.csv"
    assert run_cli(["evaluate", "--input", data_file, "--rank", 2, "--out", out] + flags) == 1
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_evaluate_checks_method_names_before_any_cell(data_file, tmp_path, monkeypatch, capsys):
    calls = []
    for name in evaluate.METHOD_NAMES:
        monkeypatch.setitem(evaluate.METHOD_SCORERS, name,
                            lambda *args, name=name, **kwargs: calls.append(name))
    out = tmp_path / "r.csv"
    assert run_cli(["evaluate", "--input", data_file, "--methods", "hb-r,hb-t,bogus",
                    "--out", out]) == 1
    assert "unknown method 'bogus'" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--fraction", "0.2,1.5"], "test_fraction must be in (0,1)"),
    (["--sweep-ranks", "2,0"], "rank must be an integer >= 1"),
    (["--rank", "0"], "rank must be an integer >= 1"),
], ids=["fraction", "sweep-ranks", "rank"])
def test_evaluate_checks_fractions_and_ranks_before_any_cell(data_file, tmp_path, monkeypatch,
                                                             capsys, flags, message):
    # the valid first value must not train its cells before the bad one fails
    calls = []
    for name in evaluate.METHOD_NAMES:
        monkeypatch.setitem(evaluate.METHOD_SCORERS, name,
                            lambda *args, name=name, **kwargs: calls.append(name))
    out = tmp_path / "r.csv"
    assert run_cli(["evaluate", "--input", data_file, "--methods", "hb-r,baseline",
                    "--out", out] + flags) == 1
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_version_flag(capsys):
    assert run_cli(["--version"]) == 0
    assert "linkpattern" in capsys.readouterr().out


def test_usage_error_exit_code():
    assert run_cli(["fit-map"]) == 1  # missing required flags
    assert run_cli(["no-such-command"]) == 1

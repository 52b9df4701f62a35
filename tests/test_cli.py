import argparse
import contextlib
import ctypes
import io
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from helpers import rclx_bytes
from hypothesis import given, settings, strategies as st

from retroselect.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, build_parser, main
from retroselect.toy import make_memorization_world


@pytest.fixture(scope="module")
def trained_world(tmp_path_factory):
    """Small world trained just enough for integration checks."""
    root = tmp_path_factory.mktemp("cliworld")
    world = make_memorization_world(str(root), seed=13, n_fragments=30,
                                    n_reactions=12, n_distractors=6)
    ckpt = str(root / "model.rclc")
    metrics = str(root / "metrics.jsonl")
    code = main([
        "train", "--train", world.reaction_paths["train"],
        "--val", world.reaction_paths["val"],
        "--candidates", world.candidates_path,
        "--checkpoint", ckpt, "--metrics-out", metrics,
        "--total-iters", "80", "--eval-every", "40", "--refresh-every", "40",
        "--batch-size", "6", "--dim", "16", "--layers", "2",
        "--val-beam", "8", "--seed", "4",
    ])
    assert code == EXIT_OK
    return world, ckpt, metrics


@pytest.mark.parametrize("subcommand", ["canon", "train", "index", "predict",
                                        "evaluate", "route"])
def test_help_exits_zero(subcommand, capsys):
    assert main([subcommand, "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "usage" in out.lower()


_TRAIN_SETTINGS = dict.fromkeys(
    ["learning_rate", "momentum", "weight_decay", "batch_size", "clip_norm",
     "total_iters", "eval_every", "refresh_every", "tau", "hard_k", "perm_threshold",
     "halt_in_denominator", "val_cap", "val_beam", "seed"])


# Each subcommand's minimal argv, what it parses to, and its options.
_SURFACE = {
    "canon": (["canon"], {"command": "canon", "input": None}, {"--input"}),
    "train": (
        ["train", "--train", "t", "--checkpoint", "c"],
        {"command": "train", "train": "t", "val": None, "candidates": None,
         "checkpoint": "c", "metrics_out": None, "config": None, **_TRAIN_SETTINGS,
         "dim": 256, "layers": 5, "types": None},
        {"--train", "--val", "--candidates", "--checkpoint", "--metrics-out", "--config",
         "--learning-rate", "--momentum", "--weight-decay", "--batch-size", "--clip-norm",
         "--total-iters", "--eval-every", "--refresh-every", "--tau", "--hard-k",
         "--perm-threshold", "--halt-in-denominator", "--val-cap", "--val-beam", "--seed",
         "--dim", "--layers", "--types"}),
    "index": (
        ["index", "--checkpoint", "c", "--candidates", "p", "--output", "o"],
        {"command": "index", "checkpoint": "c", "candidates": "p", "output": "o"},
        {"--checkpoint", "--candidates", "--output"}),
    "predict": (
        ["predict", "--checkpoint", "c", "--candidates", "p", "--products", "q"],
        {"command": "predict", "checkpoint": "c", "candidates": "p", "products": "q",
         "output": None, "index_cache": None, "k": 5, "beam": 200, "n_max": 4,
         "use_types": False},
        {"--checkpoint", "--candidates", "--products", "--output", "--index-cache", "-k",
         "--beam", "--n-max", "--use-types"}),
    "evaluate": (
        ["evaluate", "--checkpoint", "c", "--candidates", "p", "--test", "t"],
        {"command": "evaluate", "checkpoint": "c", "candidates": "p", "test": "t",
         "index_cache": None, "beam": 200, "n_max": 4, "use_types": False, "limit": None},
        {"--checkpoint", "--candidates", "--test", "--index-cache", "--beam", "--n-max",
         "--use-types", "--limit"}),
    "route": (
        ["route", "--checkpoint", "c", "--candidates", "p", "--building-blocks", "b",
         "--target", "CCO"],
        {"command": "route", "checkpoint": "c", "candidates": "p", "building_blocks": "b",
         "target": "CCO", "max_expansions": 100, "k_per_step": 5, "beam": 50, "n_max": 4},
        {"--checkpoint", "--candidates", "--building-blocks", "--target",
         "--max-expansions", "--k-per-step", "--beam", "--n-max"}),
}


@pytest.mark.parametrize("subcommand", list(_SURFACE))
def test_every_subcommand_keeps_its_options_and_defaults(subcommand):
    # Subcommands that share a flag through a parent parser share its argparse
    # Action, so a default set for one would show up in the others.
    argv, parsed, options = _SURFACE[subcommand]
    parser = build_parser()
    assert vars(parser.parse_args(argv)) == parsed
    assert set(_subparsers(parser)[subcommand]._option_string_actions) == \
        options | {"-h", "--help"}


def _subparsers(parser):
    """Each subcommand's parser, by name."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["train"]) == EXIT_USAGE  # missing required flags
    capsys.readouterr()


@pytest.mark.parametrize("flags", [
    ["--tau", "-1"], ["--perm-threshold", "99"], ["--eval-every", "0"],
    ["--refresh-every", "0"], ["--val-cap", "0"], ["--val-beam", "0"],
    ["--total-iters", "-1"], ["--hard-k", "-1"], ["--momentum", "-1"],
    ["--momentum", "nan"], ["--tau", "nan"], ["--clip-norm", "nan"],
    ["--weight-decay", "-1"],
])
def test_bad_train_config_is_data_error(flags, tmp_path, capsys):
    code = main(["train", "--train", str(tmp_path / "unread.txt"),
                 "--checkpoint", str(tmp_path / "model.rclc")] + flags)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err


def test_canon_echoes_canonical_form(tmp_path, capsys):
    source = tmp_path / "in.smi"
    source.write_text("OCC\nCCO\n# comment\n", encoding="utf-8")
    assert main(["canon", "--input", str(source)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == lines[1]


def test_canon_symmetric_dendrimer_exits_zero(tmp_path, capsys):
    from retroselect.chem import canonical_form, parse_smiles
    dendrimer = ("CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C(C(C)(C)C)(C(C)(C)C)C(C)(C)C)"
                 "(C(C(C)(C)C)(C(C)(C)C)C(C)(C)C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C")
    source = tmp_path / "in.smi"
    source.write_text(dendrimer + "\n", encoding="utf-8")
    assert main(["canon", "--input", str(source)]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == canonical_form(parse_smiles(dendrimer))


def test_canon_bad_smiles_is_data_error(tmp_path, capsys):
    source = tmp_path / "in.smi"
    source.write_text("C1CC\n", encoding="utf-8")
    assert main(["canon", "--input", str(source)]) == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_missing_file_is_data_error(capsys):
    code = main(["canon", "--input", "/nonexistent/file.smi"])
    assert code == EXIT_DATA
    capsys.readouterr()


def test_metrics_schema(trained_world):
    _, _, metrics = trained_world
    records = [json.loads(line) for line in open(metrics, encoding="utf-8")]
    assert len(records) == 80
    assert {"step", "loss_b", "loss_f", "grad_norm"} <= set(records[0])
    assert "val_top1" in records[39]


def test_metrics_out_holds_only_the_last_run(tmp_path, capsys):
    reactions = tmp_path / "two.txt"
    reactions.write_text("CCO.CC(=O)O>>CC(=O)OCC\nCN.CC(=O)O>>CC(=O)NC\n", encoding="utf-8")
    metrics = tmp_path / "metrics.jsonl"
    argv = ["train", "--train", str(reactions), "--checkpoint", str(tmp_path / "model.rclc"),
            "--metrics-out", str(metrics), "--total-iters", "3", "--batch-size", "2",
            "--dim", "8", "--layers", "1"]
    for seed in ("1", "2"):
        assert main(argv + ["--seed", seed]) == EXIT_OK
        records = [json.loads(line) for line in metrics.read_text(encoding="utf-8").splitlines()]
        assert [record["step"] for record in records] == [1, 2, 3]
    capsys.readouterr()


def test_predict_output_format(trained_world, tmp_path, capsys):
    world, ckpt, _ = trained_world
    products = tmp_path / "products.txt"
    with open(world.reaction_paths["train"], encoding="utf-8") as fh:
        first_products = [line.strip().split(">>")[1] for line in fh][:3]
    products.write_text("\n".join(first_products) + "\n", encoding="utf-8")
    code = main(["predict", "--checkpoint", ckpt,
                 "--candidates", world.candidates_path,
                 "--products", str(products), "-k", "3", "--beam", "16"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    blocks = 0
    for line in out:
        if re.match(r"^\d+\t-?\d+\.\d{6}\t\S+$", line):
            continue
        blocks += 1  # product header line
    assert blocks == 3
    ranks = [int(line.split("\t")[0]) for line in out if "\t" in line]
    assert ranks[0] == 1


def test_failed_predict_write_keeps_previous_output(trained_world, tmp_path, monkeypatch,
                                                    capsys):
    from retroselect import chem
    world, ckpt, _ = trained_world
    products = tmp_path / "products.txt"
    with open(world.reaction_paths["train"], encoding="utf-8") as fh:
        first_products = [line.strip().split(">>")[1] for line in fh][:3]
    products.write_text("\n".join(first_products) + "\n", encoding="utf-8")
    out_path = tmp_path / "ranked.txt"
    out_path.write_bytes(b"previous run\n")
    argv = ["predict", "--checkpoint", ckpt, "--candidates", world.candidates_path,
            "--products", str(products), "-k", "3", "--beam", "16",
            "--output", str(out_path)]
    canonical_form, calls = chem.canonical_form, []

    def failing(mol):  # the second product's header, after the first's lines
        calls.append(mol)
        if len(calls) == 2:
            raise OSError("disk full")
        return canonical_form(mol)

    monkeypatch.setattr(chem, "canonical_form", failing)
    assert main(argv) == EXIT_DATA
    assert len(calls) == 2
    assert capsys.readouterr().err.strip().splitlines()[-1] == "error: disk full"
    assert out_path.read_bytes() == b"previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["products.txt", "ranked.txt"]
    monkeypatch.undo()
    assert main(argv) == EXIT_OK
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == canonical_form(chem.parse_smiles(first_products[0]))
    assert sum("\t" not in line for line in lines) == 3


def test_evaluate_reports_topk_table(trained_world, capsys):
    world, ckpt, _ = trained_world
    code = main(["evaluate", "--checkpoint", ckpt,
                 "--candidates", world.candidates_path,
                 "--test", world.reaction_paths["train"],
                 "--beam", "16", "--limit", "6"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "k\taccuracy"
    rows = [line.split("\t") for line in out[1:]]
    assert [int(r[0]) for r in rows] == [1, 3, 5, 10, 20, 50]
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)  # monotone in k


def test_index_build_and_reload(trained_world, tmp_path, capsys):
    world, ckpt, _ = trained_world
    out_path = tmp_path / "pool.rclx"
    code = main(["index", "--checkpoint", ckpt,
                 "--candidates", world.candidates_path,
                 "--output", str(out_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert re.fullmatch(rf"indexed 30 candidates \(d=16\) in \d+\.\d\d s "
                        rf"\(\d+ mol/s\) -> {re.escape(str(out_path))}\n", out)
    from retroselect.index import load_index
    index = load_index(str(out_path))
    assert index.n_candidates == index.keys.shape[0] == 30


def test_route_trivial_target(trained_world, capsys):
    world, ckpt, _ = trained_world
    with open(world.candidates_path, encoding="utf-8") as fh:
        block = fh.readline().strip()
    code = main(["route", "--checkpoint", ckpt,
                 "--candidates", world.candidates_path,
                 "--building-blocks", world.candidates_path,
                 "--target", block, "--beam", "8"])
    assert code == EXIT_OK
    assert "0 step(s)" in capsys.readouterr().out


def test_config_file_and_flag_override(tmp_path):
    from retroselect.cli import _train_config
    (tmp_path / "cfg.json").write_text(
        json.dumps({"batch_size": 32, "tau": 0.25, "total_iters": 7, "momentum": 0}),
        encoding="utf-8")
    args = build_parser().parse_args(["train", "--train", "t", "--checkpoint", "c",
                                      "--config", str(tmp_path / "cfg.json"),
                                      "--batch-size", "4"])
    cfg = _train_config(args)
    assert cfg.tau == 0.25 and cfg.total_iters == 7
    assert cfg.batch_size == 4          # explicit flag wins over config file
    assert cfg.learning_rate == 0.01    # untouched default
    assert cfg.momentum == 0            # a JSON int stands for a float


@pytest.mark.parametrize("config, message", [
    ({"val_n_max": 3}, "unexpected keyword argument 'val_n_max'"),
    ({"total_iters": 1.5}, "total_iters must be int, got 1.5"),
    ({"batch_size": True}, "batch_size must be int, got True"),
    ({"halt_in_denominator": 1}, "halt_in_denominator must be str, got 1"),
    ({"seed": 2**64}, "seed must be in 0..2**64-1"),
], ids=["val_n_max", "float-for-int", "bool-for-int", "int-for-str", "seed-2**64"])
def test_bad_config_file_is_data_error(config, message, tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    code = main(["train", "--train", str(tmp_path / "unread.txt"),
                 "--checkpoint", str(tmp_path / "model.rclc"),
                 "--config", str(tmp_path / "cfg.json")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad train config: ")
    assert message in err[0]


def test_predict_with_types_and_index_cache(trained_world, tmp_path, capsys):
    world, ckpt, _ = trained_world
    cache = tmp_path / "pool.rclx"
    assert main(["index", "--checkpoint", ckpt,
                 "--candidates", world.candidates_path,
                 "--output", str(cache)]) == EXIT_OK
    capsys.readouterr()
    products = tmp_path / "typed.txt"
    with open(world.reaction_paths["train"], encoding="utf-8") as fh:
        first = fh.readline().strip().split(">>")[1]
    products.write_text(f"{first}\t1\n", encoding="utf-8")
    code = main(["predict", "--checkpoint", ckpt,
                 "--candidates", world.candidates_path,
                 "--products", str(products), "-k", "2", "--beam", "8",
                 "--use-types", "--index-cache", str(cache)])
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    assert len(out) == 3  # header + 2 ranked lines


def test_index_cache_size_mismatch(trained_world, tmp_path, capsys):
    world, ckpt, _ = trained_world
    bad = tmp_path / "bad.txt"
    bad.write_text("CCO\nCCN\n", encoding="utf-8")
    cache = tmp_path / "small.rclx"
    assert main(["index", "--checkpoint", ckpt, "--candidates", str(bad),
                 "--output", str(cache)]) == EXIT_OK
    capsys.readouterr()
    products = tmp_path / "p.txt"
    products.write_text("CCO\n", encoding="utf-8")
    code = main(["predict", "--checkpoint", ckpt,
                 "--candidates", world.candidates_path,
                 "--products", str(products), "--index-cache", str(cache)])
    assert code == EXIT_DATA
    capsys.readouterr()


@pytest.mark.parametrize("case", ["truncated-cache", "empty-cache", "bad-magic-cache",
                                  "repeated-id-cache", "id-2**63-cache", "inf-key-cache",
                                  "nan-key-cache", "shifted-ids-cache", "reversed-ids-cache",
                                  "directory-cache", "pool-not-utf8"])
def test_bad_cache_or_pool_bytes_are_data_errors(case, trained_world, tmp_path, capsys):
    """Each kind of bad ``--index-cache`` file, and a pool file that is not
    UTF-8, ends ``predict`` with exit 2 and one ``error:`` line, with no
    traceback and nothing on stdout."""
    from retroselect.index import load_index
    world, ckpt, _ = trained_world
    products = tmp_path / "p.txt"
    products.write_text("CCO\n", encoding="utf-8")
    pool, cache = world.candidates_path, tmp_path / "pool.rclx"
    argv = ["predict", "--checkpoint", ckpt, "--products", str(products), "--beam", "4"]
    if case == "pool-not-utf8":
        with open(world.candidates_path, "rb") as fh:
            pool = tmp_path / "latin1.txt"
            pool.write_bytes(fh.read() + "CC(=O)OC\xe9\n".encode("latin-1"))
    else:
        assert main(["index", "--checkpoint", ckpt, "--candidates", pool,
                     "--output", str(cache)]) == EXIT_OK
        blob, index = cache.read_bytes(), load_index(str(cache))
        ids, keys = index.ids.astype(np.uint64), index.keys.copy()
        if case == "repeated-id-cache":
            ids[1] = ids[0]
        elif case == "id-2**63-cache":
            ids[1] = 2**63
        elif case == "shifted-ids-cache":
            ids += 100
        elif case == "reversed-ids-cache":
            ids = ids[::-1]
        elif case.endswith("-key-cache"):
            keys[3, 0] = np.inf if case == "inf-key-cache" else np.nan
        cache.unlink()
        if case == "directory-cache":
            cache.mkdir()
        else:
            files = {"truncated-cache": blob[:-7], "empty-cache": b"",
                     "bad-magic-cache": b"RCLY" + blob[4:]}
            cache.write_bytes(files.get(case, rclx_bytes(ids, keys)))
        argv += ["--index-cache", str(cache)]
    capsys.readouterr()
    code = main(argv + ["--candidates", str(pool)])
    captured = capsys.readouterr()
    assert code == EXIT_DATA, captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "Traceback" not in captured.err and captured.out == ""


def test_index_cache_changes_no_prediction(trained_world, tmp_path):
    """No cache, a cache from ``index`` and an older cache whose flag byte
    marks a halt row after the keys all give the same bytes."""
    from retroselect.data import load_checkpoint
    from retroselect.index import load_index
    world, ckpt, _ = trained_world
    params, _meta = load_checkpoint(ckpt)
    plain, halt_row = tmp_path / "plain.rclx", tmp_path / "halt_row.rclx"
    assert main(["index", "--checkpoint", ckpt, "--candidates", world.candidates_path,
                 "--output", str(plain)]) == EXIT_OK
    index, halt = load_index(str(plain)), params.tensors["halt_key"].data
    halt_row.write_bytes(rclx_bytes(index.ids, index.keys, halt_flag=1,
                                    tail=(halt / np.linalg.norm(halt)).astype("<f4").tobytes()))
    products = tmp_path / "products.txt"
    with open(world.reaction_paths["train"], encoding="utf-8") as fh:
        products.write_text("".join(line.strip().split(">>")[1] + "\n" for line in fh),
                            encoding="utf-8")
    outputs = []
    for cache in ([], ["--index-cache", str(plain)], ["--index-cache", str(halt_row)]):
        out_file = tmp_path / f"out{len(outputs)}.txt"
        assert main(["predict", "--checkpoint", ckpt, "--candidates", world.candidates_path,
                     "--products", str(products), "-k", "10", "--beam", "16",
                     "--output", str(out_file)] + cache) == EXIT_OK
        outputs.append(out_file.read_bytes())
    assert outputs[0].count(b"\n") > 10
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("case", ["type-not-int", "type-outside-checkpoint",
                                  "evaluate-type-outside-checkpoint", "cache-width"])
def test_bad_type_or_cache_width_is_data_error(case, trained_world, tmp_path, capsys):
    world, ckpt, _ = trained_world
    inputs = tmp_path / "inputs.txt"
    argv = ["predict", "--products", str(inputs), "--use-types"]
    if case == "type-not-int":
        inputs.write_text("CCO\tabc\n", encoding="utf-8")
    elif case == "type-outside-checkpoint":
        inputs.write_text("CCO\t99\n", encoding="utf-8")
    elif case == "evaluate-type-outside-checkpoint":
        with open(world.reaction_paths["train"], encoding="utf-8") as fh:
            inputs.write_text(fh.readline().strip() + "\t99\n", encoding="utf-8")
        argv = ["evaluate", "--test", str(inputs), "--use-types"]
    else:
        from retroselect.data import save_checkpoint
        from retroselect.encoder import ModelDims, init_params
        narrow, cache = str(tmp_path / "narrow.rclc"), str(tmp_path / "narrow.rclx")
        save_checkpoint(init_params(0, ModelDims(d=8, n_layers=1, n_types=1)), narrow)
        assert main(["index", "--checkpoint", narrow, "--candidates", world.candidates_path,
                     "--output", cache]) == EXIT_OK
        inputs.write_text("CCO\n", encoding="utf-8")
        argv += ["--index-cache", cache]
    capsys.readouterr()
    code = main(argv + ["--checkpoint", ckpt, "--candidates", world.candidates_path,
                        "--beam", "4"])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["predict", "--products", "unread.txt", "-k", "-1"],
    ["predict", "--products", "unread.txt", "-k", "0"],
    ["predict", "--products", "unread.txt", "--beam", "0"],
    ["predict", "--products", "unread.txt", "--n-max", "0"],
    ["evaluate", "--test", "unread.txt", "--beam", "0"],
    ["evaluate", "--test", "unread.txt", "--n-max", "-2"],
    ["route", "--building-blocks", "unread.txt", "--target", "CCO", "--beam", "0"],
    ["route", "--building-blocks", "unread.txt", "--target", "CCO", "--n-max", "0"],
    ["route", "--building-blocks", "unread.txt", "--target", "CCO", "--k-per-step", "0"],
    ["evaluate", "--test", "unread.txt", "--limit", "0"],
    ["evaluate", "--test", "unread.txt", "--limit", "-1"],
    ["train", "--train", "unread.txt", "--dim", "0"],
    ["train", "--train", "unread.txt", "--dim", "-3"],
    ["train", "--train", "unread.txt", "--types", "0"],
    ["train", "--train", "unread.txt", "--types", "-1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_counts_below_one_are_data_errors(argv, capsys):
    # Rejected before any file is read.
    code = main(argv + ["--checkpoint", "unread.rclc", "--candidates", "unread.txt"])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {argv[-2]} must be at least 1, "
                                         f"got {argv[-1]}"]
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["canon", "--threads", "2"],
    ["predict", "--products", "unread.txt", "--threads", "0"],
    ["predict", "--products", "unread.txt", "--threads", "-3"],
    ["predict", "--products", "unread.txt", "--threads", "2"],
    ["evaluate", "--test", "unread.txt", "--threads", "0"],
    ["route", "--building-blocks", "unread.txt", "--target", "CCO", "--threads", "0"],
    ["index", "--output", "unread.rclx", "--threads", "0"],
    ["train", "--train", "unread.txt", "--threads", "-3"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_threads_is_a_usage_error_off_predict_and_evaluate(argv, capsys):
    # Products fan out over the usable CPUs like pool chunks and scan blocks,
    # so no subcommand takes --threads: each rejects it as an unknown flag.
    pool = [] if argv[0] == "canon" else ["--checkpoint", "unread.rclc",
                                          "--candidates", "unread.txt"]
    code = main(argv + pool)
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == \
        f"error: unrecognized arguments: --threads {argv[-1]}"
    assert captured.out == ""


def test_negative_layers_is_data_error_and_zero_trains(tmp_path, capsys):
    reactions = tmp_path / "two.txt"
    reactions.write_text("CCO.CC(=O)O>>CC(=O)OCC\nCN.CC(=O)O>>CC(=O)NC\n", encoding="utf-8")
    ckpt = tmp_path / "model.rclc"
    argv = ["train", "--train", str(reactions), "--checkpoint", str(ckpt),
            "--total-iters", "1", "--batch-size", "2", "--dim", "8"]
    assert main(argv + ["--layers", "-1"]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: --layers must be at least 0, got -1"]
    assert not ckpt.exists()
    assert main(argv + ["--layers", "0"]) == EXIT_OK
    assert ckpt.exists()
    capsys.readouterr()


def test_negative_max_expansions_is_data_error(capsys):
    code = main(["route", "--checkpoint", "unread.rclc", "--candidates", "unread.txt",
                 "--building-blocks", "unread.txt", "--target", "CCO",
                 "--max-expansions", "-1"])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: --max-expansions must be at least 0, got -1"]
    assert captured.out == ""


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"], ["--seed", str(2**64)], ["--seed", "100000000000000000000000"],
    ["--learning-rate", "inf"], ["--learning-rate", "1e300"], ["--tau", "1e-300"],
], ids="=".join)
def test_bad_seed_or_diverged_run_is_data_error(flags, tmp_path, capsys):
    reactions = tmp_path / "two.txt"
    reactions.write_text("CCO.CC(=O)O>>CC(=O)OCC\nCN.CC(=O)O>>CC(=O)NC\n", encoding="utf-8")
    ckpt = tmp_path / "model.rclc"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", "--train", str(reactions), "--checkpoint", str(ckpt),
                     "--total-iters", "3", "--batch-size", "2", "--dim", "8",
                     "--layers", "1"] + flags)
    assert code == EXIT_DATA
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert "Traceback" not in captured.err and captured.out == ""
    assert not ckpt.exists()
    if flags[0] == "--seed":  # rejected before the corpus is read
        assert errors == ["error: bad train config: seed must be in 0..2**64-1"]
        assert "corpus:" not in captured.err
    else:  # the corpus line, then the error line and no numpy warning
        lines = captured.err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("corpus: ")
        assert lines[1] == errors[0]
        assert errors[0].startswith("error: non-finite values produced by ")


def test_train_types_below_corpus_types_is_data_error(tmp_path, capsys):
    reactions = tmp_path / "typed.txt"
    reactions.write_text("CCO.CC(=O)O>>CC(=O)OCC\t3\nCN.CC(=O)O>>CC(=O)NC\t1\n",
                         encoding="utf-8")
    ckpt = tmp_path / "model.rclc"
    argv = ["train", "--train", str(reactions), "--checkpoint", str(ckpt),
            "--total-iters", "1", "--batch-size", "2", "--dim", "8", "--layers", "1"]
    assert main(argv + ["--types", "2"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: reaction type 3 in the corpus is outside --types [1, 2]"]
    assert "Traceback" not in err and not ckpt.exists()
    assert main(argv + ["--types", "3"]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("subcommand", ["index", "predict", "evaluate", "route"])
def test_thread_split_reported_once(subcommand, trained_world, tmp_path, monkeypatch,
                                    capsys):
    from retroselect import workers
    world, ckpt, _ = trained_world
    monkeypatch.setattr(workers, "COUNT", 5)
    capsys.readouterr()
    assert main(_pool_argv(subcommand, world, ckpt, world.candidates_path,
                           tmp_path)) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    lines = [i for i, line in enumerate(err) if line.startswith("threads: ")]
    assert len(lines) == 1
    assert err[lines[0] - 1].startswith("corpus: ")
    assert re.fullmatch(r"threads: workers=5 blas=(\d+|unknown)", err[lines[0]])


def test_limit_threads_warns_without_threadpoolctl(monkeypatch, capsys):
    from retroselect import cli
    from retroselect.cli import _limit_threads
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    monkeypatch.setattr(cli, "_openblas_symbol", lambda *signature: None)  # no OpenBLAS
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    _limit_threads()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "not pinned" in err and "OPENBLAS_NUM_THREADS=1" in err


@pytest.mark.parametrize("value", ["1", "2"])
def test_limit_threads_is_quiet_when_openblas_is_pinned(value, monkeypatch, capsys):
    from retroselect import cli
    from retroselect.cli import _limit_threads
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    monkeypatch.setattr(cli, "_openblas_symbol", lambda *signature: None)  # no OpenBLAS
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
    _limit_threads()
    err = capsys.readouterr().err
    assert ("not pinned" in err) == (value != "1")


def test_limit_threads_pins_bundled_openblas_without_threadpoolctl(tmp_path):
    # A fresh process whose BLAS pool is not pinned by the environment:
    # without threadpoolctl, numpy's OpenBLAS is set to one thread through
    # ctypes, and nothing is said.
    from retroselect.cli import _openblas_symbol
    if _openblas_symbol("set_num_threads", None, ctypes.c_int) is None:
        pytest.skip("numpy is not linked against a bundled OpenBLAS")
    script = ("import ctypes, sys\n"
              "sys.modules['threadpoolctl'] = None\n"
              "from retroselect.cli import _limit_threads, _openblas_symbol\n"
              "get = _openblas_symbol('get_num_threads', ctypes.c_int)\n"
              "_limit_threads()\n"
              "print(get())\n")
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"
    assert done.stderr == ""


def test_predict_pins_blas_at_every_thread_count(trained_world, tmp_path, capsys):
    # A fresh process whose BLAS pool is not pinned by the environment pins
    # it to one thread, since the library spreads its own work over the CPUs,
    # and writes the bytes of a run whose BLAS the environment pins.
    world, ckpt, _ = trained_world
    with open(world.reaction_paths["train"], encoding="utf-8") as fh:
        prods = [line.strip().split(">>")[1] for line in fh][:4]
    products = tmp_path / "products.txt"
    products.write_text("\n".join(prods) + "\n", encoding="utf-8")
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    argv = ["predict", "--checkpoint", ckpt, "--candidates", world.candidates_path,
            "--products", str(products), "-k", "2", "--beam", "8"]
    done = subprocess.run([sys.executable, "-m", "retroselect"] + argv, env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    split = [line for line in done.stderr.splitlines() if line.startswith("threads: ")]
    assert len(split) == 1
    blas = re.fullmatch(r"threads: workers=\d+ blas=(\d+|unknown)", split[0]).group(1)
    if blas == "unknown":
        pytest.skip("numpy is not linked against a bundled OpenBLAS")
    assert blas == "1"
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert done.stdout == capsys.readouterr().out


@pytest.mark.parametrize("rxn_type", ["0", "-2"])
def test_train_reaction_type_below_one_is_data_error(rxn_type, tmp_path, capsys):
    """A type below 1 drops its line as unparsable; one bad line in four is
    above the 1% a load forgives."""
    reactions = tmp_path / "typed.txt"
    reactions.write_text("CCO.CC(=O)O>>CC(=O)OCC\t1\nCN.CC(=O)O>>CC(=O)NC\t1\n"
                         f"CCC.O>>CCCO\t{rxn_type}\nCCN.CC(=O)O>>CC(=O)NCC\t1\n",
                         encoding="utf-8")
    ckpt = tmp_path / "model.rclc"
    assert main(["train", "--train", str(reactions), "--checkpoint", str(ckpt),
                 "--total-iters", "1", "--batch-size", "2", "--dim", "8",
                 "--layers", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err and not ckpt.exists()


def test_train_and_evaluate_report_dropped_lines(tmp_path, capsys):
    reactions = tmp_path / "reactions.txt"
    lines = ["CCO.CC(=O)O>>CC(=O)OCC"] * 100 + ["CN.CC(=O)O>>CC(=O)NC", "C1CC>>CC"]
    reactions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pool = tmp_path / "pool.txt"
    pool.write_text("CCO\nCC(=O)O\nCN\n", encoding="utf-8")
    ckpt = str(tmp_path / "model.rclc")
    expected = ("corpus: lines=102 parse_errors=1 duplicates_dropped=99 "
                "self_product_dropped=0")
    assert main(["train", "--train", str(reactions), "--checkpoint", ckpt,
                 "--total-iters", "0", "--dim", "8", "--layers", "1"]) == EXIT_OK
    assert expected in capsys.readouterr().err.splitlines()
    assert main(["evaluate", "--checkpoint", ckpt, "--candidates", str(pool),
                 "--test", str(reactions), "--beam", "4"]) == EXIT_OK
    assert expected in capsys.readouterr().err.splitlines()


def _pool_argv(subcommand, world, ckpt, pool, tmp_path):
    """One run of ``subcommand`` that reads ``pool`` as its candidate pool."""
    with open(world.reaction_paths["train"], encoding="utf-8") as fh:
        product = fh.readline().strip().split(">>")[1]
    (tmp_path / "products.txt").write_text(product + "\n", encoding="utf-8")
    with open(world.candidates_path, encoding="utf-8") as fh:
        target = fh.readline().strip()
    if subcommand == "train":
        return ["train", "--train", world.reaction_paths["train"], "--candidates", pool,
                "--checkpoint", str(tmp_path / "model.rclc"), "--total-iters", "1",
                "--batch-size", "4", "--dim", "8", "--layers", "1", "--val-beam", "4"]
    rest = {"index": ["--output", str(tmp_path / "pool.rclx")],
            "predict": ["--products", str(tmp_path / "products.txt"), "--beam", "4"],
            "evaluate": ["--test", world.reaction_paths["train"], "--beam", "4",
                         "--limit", "2"],
            "route": ["--building-blocks", world.candidates_path, "--target", target,
                      "--beam", "4"]}[subcommand]
    return [subcommand, "--checkpoint", ckpt, "--candidates", pool] + rest


@pytest.mark.parametrize("bad_lines, total", [(1, 100), (4, 8)])
@pytest.mark.parametrize("subcommand", ["train", "index", "predict", "evaluate", "route"])
def test_one_pool_policy_for_every_subcommand(subcommand, bad_lines, total,
                                              trained_world, tmp_path, capsys):
    """Up to 1% of bad pool lines are dropped and reported on the ``corpus:``
    line; more end in one ``error:`` line with exit 2, whatever reads the pool."""
    world, ckpt, _ = trained_world
    with open(world.candidates_path, encoding="utf-8") as fh:
        good = [line.strip() for line in fh if line.strip()]
    lines = (good * total)[:total - bad_lines] + ["C1CC"] * bad_lines
    pool = tmp_path / "pool.txt"
    pool.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(_pool_argv(subcommand, world, ckpt, str(pool), tmp_path))
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert "Traceback" not in err
    if bad_lines == 1:
        assert code == EXIT_OK and errors == []
        assert any(line.startswith("corpus: ") and " parse_errors=1 " in line
                   for line in err.splitlines())
    else:
        assert code == EXIT_DATA
        assert len(errors) == 1 and "4/8 pool lines failed to parse" in errors[0]


@pytest.mark.parametrize("subcommand, message", [
    ("route", "error: candidate file {empty} is empty"),
    ("evaluate", "error: no reactions to derive the candidate pool from"),
], ids=["route", "evaluate"])
def test_empty_building_blocks_or_test_file_is_data_error(subcommand, message,
                                                          trained_world, tmp_path, capsys):
    world, ckpt, _ = trained_world
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    rest = ["--building-blocks", str(empty), "--target", "CCO"] if subcommand == "route" \
        else ["--test", str(empty)]
    code = main([subcommand, "--checkpoint", ckpt, "--candidates", world.candidates_path,
                 "--beam", "4"] + rest)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        message.format(empty=empty)]


def test_evaluate_reads_each_pool_line_once(trained_world, tmp_path, monkeypatch, capsys):
    from retroselect import chem, data
    world, ckpt, _ = trained_world
    with open(world.candidates_path, encoding="utf-8") as fh:
        pool_lines = [line.strip() for line in fh if line.strip()][:4]
    pool = tmp_path / "pool.txt"
    pool.write_text("\n".join(pool_lines) + "\n", encoding="utf-8")
    test = tmp_path / "test.txt"
    test.write_text("CCO.CC(=O)O>>CC(=O)OCC\nCN.CC(=O)O>>CC(=O)NC\n", encoding="utf-8")
    calls = []
    canonical_form = chem.canonical_form

    def counted(mol):
        calls.append(1)
        return canonical_form(mol)

    for module in (chem, data):
        monkeypatch.setattr(module, "canonical_form", counted)
    assert main(["evaluate", "--checkpoint", ckpt, "--candidates", str(pool),
                 "--test", str(test), "--beam", "4"]) == EXIT_OK
    capsys.readouterr()
    # Each of the 4 pool lines once, and each of the 6 molecules of the two
    # test reactions once.
    assert len(calls) == 4 + 6


# Every int or float option of every subcommand, read from the parser, so a
# flag generated from a TrainConfig field is covered as soon as it exists.
_NUMERIC_FLAGS = [(name, action.option_strings[0], action.type)
                  for name, sub in _subparsers(build_parser()).items()
                  for action in sub._actions if action.type in (int, float)]


def _range_rejects(flag, value):
    """Whether ``flag``'s range table, ``cli._COUNTS`` or ``TrainConfig``,
    rejects ``value``."""
    from retroselect.cli import _COUNTS
    from retroselect.training import TrainConfig
    if flag in _COUNTS:
        return value < _COUNTS[flag]
    try:
        TrainConfig(**{flag[2:].replace("-", "_"): value})
    except ValueError:
        return True
    return False


@given(st.sampled_from(_NUMERIC_FLAGS),
       st.sampled_from(["-1", "0", "1", str(2**64), str(10**11), "nan", "inf", "x"]))
@settings(derandomize=True, max_examples=400, deadline=None, database=None)
def test_numeric_flags_are_checked_before_any_file_is_read(tmp_path_factory, numeric, value):
    subcommand, flag, kind = numeric
    missing = tmp_path_factory.getbasetemp() / "missing"  # never created
    parser = _subparsers(build_parser())[subcommand]
    argv = [subcommand, flag, value]
    for action in parser._actions:
        if action.required:
            argv += [action.option_strings[0], str(missing / action.dest)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err.getvalue()
    assert "Traceback" not in err.getvalue() and out.getvalue() == ""
    try:
        parsed = kind(value)
    except ValueError:  # argparse rejects it, naming the flag
        assert code == EXIT_USAGE
        assert flag in errors[0]
        return
    assert code == EXIT_DATA
    # -1 is below every numeric flag's least legal value. The required files
    # are missing, so a range error ahead of a file error shows the range was
    # checked first.
    if value == "-1" or _range_rejects(flag, parsed):
        assert flag in errors[0] or flag.lstrip("-").replace("-", "_") in errors[0], errors

import json
import re
import sys

import pytest

from retroselect.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
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
        "--val-beam", "8", "--seed", "4", "--threads", "1",
    ])
    assert code == EXIT_OK
    return world, ckpt, metrics


@pytest.mark.parametrize("subcommand", ["canon", "train", "index", "predict",
                                        "evaluate", "route"])
def test_help_exits_zero(subcommand, capsys):
    assert main([subcommand, "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "usage" in out.lower()


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["train"]) == EXIT_USAGE  # missing required flags
    capsys.readouterr()


@pytest.mark.parametrize("flags", [["--tau", "-1"], ["--perm-threshold", "99"]])
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
    capsys.readouterr()
    from retroselect.index import load_index
    index = load_index(str(out_path))
    assert not index.includes_halt and index.n_candidates == 30


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

    class Args:
        config = str(tmp_path / "cfg.json")
        learning_rate = None
        momentum = None
        weight_decay = None
        batch_size = 4
        clip_norm = None
        total_iters = None
        eval_every = None
        refresh_every = None
        tau = None
        hard_k = None
        perm_threshold = None
        halt_in_denominator = None
        val_cap = None
        val_beam = None
        seed = None

    (tmp_path / "cfg.json").write_text(
        json.dumps({"batch_size": 32, "tau": 0.25, "total_iters": 7}),
        encoding="utf-8")
    cfg = _train_config(Args())
    assert cfg.tau == 0.25 and cfg.total_iters == 7
    assert cfg.batch_size == 4          # explicit flag wins over config file
    assert cfg.learning_rate == 0.01    # untouched default


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


def test_index_cache_changes_no_prediction(trained_world, tmp_path):
    """No cache, a cache from ``index`` and an older cache that holds the
    halt row all give the same bytes."""
    from argparse import Namespace
    from retroselect.cli import _load_pool
    from retroselect.index import CandidateIndex, save_index
    world, ckpt, _ = trained_world
    params, candidates, _forms = _load_pool(
        Namespace(checkpoint=ckpt, candidates=world.candidates_path))
    plain, halt_row = tmp_path / "plain.rclx", tmp_path / "halt_row.rclx"
    assert main(["index", "--checkpoint", ckpt, "--candidates", world.candidates_path,
                 "--output", str(plain)]) == EXIT_OK
    save_index(CandidateIndex.build(params, candidates).with_halt(params), str(halt_row))
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


def test_threads_flag_consistent(trained_world, tmp_path, capsys):
    world, ckpt, _ = trained_world
    products = tmp_path / "products.txt"
    with open(world.reaction_paths["train"], encoding="utf-8") as fh:
        prods = [line.strip().split(">>")[1] for line in fh][:4]
    products.write_text("\n".join(prods) + "\n", encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        out_file = tmp_path / f"out{threads}.txt"
        code = main(["predict", "--checkpoint", ckpt,
                     "--candidates", world.candidates_path,
                     "--products", str(products), "-k", "2", "--beam", "8",
                     "--threads", threads, "--output", str(out_file)])
        assert code == EXIT_OK
        outputs.append(out_file.read_text(encoding="utf-8"))
    assert outputs[0] == outputs[1]


def test_limit_threads_warns_without_threadpoolctl(monkeypatch, capsys):
    from retroselect.cli import _limit_threads
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    _limit_threads(1)
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "not pinned" in err and "OPENBLAS_NUM_THREADS=1" in err
    _limit_threads(2)
    assert capsys.readouterr().err == ""


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

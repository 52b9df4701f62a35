import contextlib
import struct

import numpy as np
import pytest

from retroselect.chem import D_ATOM, canonical_form, parse_smiles
from retroselect.data import (Corpus, CorpusError, CorruptCheckpoint, MetricsLog,
                              load_checkpoint, load_corpus, save_checkpoint,
                              topk_exact_match)
from retroselect.encoder import ModelDims, init_params
from retroselect.index import CandidateIndex, CorruptIndexCache, load_index, save_index


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_interning_dedup(tmp_path):
    train = write(tmp_path / "train.txt",
                  "CCO.CC(=O)O>>CC(=O)OCC\nOCC.CC(=O)O>>CCOC(C)=O\n")
    corpus = load_corpus({"train": train})
    # Same molecules written differently intern to the same ids, so the
    # second line is a duplicate reaction.
    assert corpus.stats["duplicates_dropped"] == 1
    assert len(corpus.reactions["train"]) == 1
    assert corpus.id_of[canonical_form(parse_smiles("CCO"))] == \
        corpus.id_of[canonical_form(parse_smiles("OCC"))]


def test_candidate_pool_modes(tmp_path):
    train = write(tmp_path / "train.txt", "CCO.CC>>CCOCC\nCC.CN>>CCNC\n")
    derived = load_corpus({"train": train})
    # Independent recount: distinct canonical reactants straight off the file.
    seen = set()
    for line in open(train, encoding="utf-8"):
        for part in line.strip().split(">>")[0].split("."):
            seen.add(canonical_form(parse_smiles(part)))
    assert len(derived.candidate_ids) == len(seen) == 3

    cand = write(tmp_path / "cands.txt", "CCO\nOCC\nCC\n# comment\nCN\nCCCC\n")
    explicit = load_corpus({"train": train}, candidates_path=cand)
    assert len(explicit.candidate_ids) == 4  # OCC deduped into CCO


def test_self_product_and_comments(tmp_path):
    train = write(tmp_path / "train.txt",
                  "# header\nCCO>>CCO\nCC.CO>>CCCO\n\n")
    corpus = load_corpus({"train": train})
    assert corpus.stats["self_product_dropped"] == 1
    assert len(corpus.reactions["train"]) == 1


def test_reaction_types_counted(tmp_path):
    train = write(tmp_path / "train.txt", "CC.CO>>CCCO\t3\nCC.CN>>CCNC\t7\n")
    corpus = load_corpus({"train": train})
    assert corpus.n_types == 7
    assert corpus.reactions["train"][0].rxn_type == 3


def test_parse_error_threshold(tmp_path):
    train = write(tmp_path / "train.txt", "CC.CO>>CCCO\nnot a reaction\n")
    with pytest.raises(CorpusError):
        load_corpus({"train": train})
    lines = "".join("CC.CO>>CCCO\t%d\n" % i for i in range(1, 200))
    ok = write(tmp_path / "ok.txt", lines + "garbage!!!\n")
    corpus = load_corpus({"train": ok})  # 1/200 = 0.5% tolerated
    assert corpus.stats["parse_errors"] == 1


def test_pool_parse_error_threshold(tmp_path):
    # Pool lines are held to the error fraction on their own count.
    bad = write(tmp_path / "bad.txt", "CCO\nC1CC\nCN\n((\nCC\nX!\nCCC\nC(\n")
    with pytest.raises(CorpusError, match="4/8 pool lines"):
        load_corpus({}, candidates_path=bad)
    lines = ["C" * (n % 20 + 1) for n in range(199)] + ["C1CC"]
    ok = write(tmp_path / "ok.txt", "\n".join(lines) + "\n")
    train = write(tmp_path / "train.txt", "CC.CO>>CCCO\n")
    corpus = load_corpus({"train": train}, candidates_path=ok)  # 1/200 tolerated
    assert corpus.stats["lines"] == 201  # the reaction line and every pool line
    assert corpus.stats["parse_errors"] == 1
    assert len(corpus.candidate_ids) == 20


def test_pool_only_corpus_ids_follow_file_order(tmp_path):
    pool = write(tmp_path / "pool.txt", "CCN\nCCO\n# comment\nOCC\nC\n")
    corpus = load_corpus({}, candidates_path=pool)
    assert corpus.candidate_ids == [0, 1, 2]
    assert corpus.forms == [canonical_form(parse_smiles(s)) for s in ("CCN", "CCO", "C")]
    assert corpus.stats == {"lines": 4, "parse_errors": 0, "duplicates_dropped": 0,
                            "self_product_dropped": 0}


def test_empty_candidate_file(tmp_path):
    train = write(tmp_path / "train.txt", "CC.CO>>CCCO\n")
    cand = write(tmp_path / "cands.txt", "# nothing\n")
    with pytest.raises(CorpusError):
        load_corpus({"train": train}, candidates_path=cand)


def test_records_exclude_product_and_sorted(tmp_path):
    train = write(tmp_path / "train.txt", "CO.CC>>CCCO\n")
    corpus = load_corpus({"train": train})
    record = corpus.reactions["train"][0]
    assert record.reactant_ids == tuple(sorted(record.reactant_ids))
    assert record.product_id not in record.reactant_ids


# --- checkpoints ---

def test_checkpoint_round_trip_bitwise(tmp_path):
    params = init_params(3, ModelDims(d=8, n_layers=2, n_types=2))
    params.step = 77
    path = tmp_path / "model.rclc"
    save_checkpoint(params, str(path), tau=0.1, seed=3)
    blob = path.read_bytes()
    assert blob[:4] == b"RCLC"
    loaded, meta = load_checkpoint(str(path))
    assert meta["step"] == 77 and meta["seed"] == 3
    assert loaded.step == 77
    for name, arr in params.state_arrays().items():
        assert np.array_equal(arr, loaded.state_arrays()[name]), name
    save_checkpoint(loaded, str(tmp_path / "again.rclc"), tau=0.1, seed=3)
    assert (tmp_path / "again.rclc").read_bytes() == blob


def test_checkpoint_shapes_match_init(tmp_path):
    dims = ModelDims(d=8, n_layers=2, n_types=2)
    params = init_params(5, dims)
    path = tmp_path / "model.rclc"
    save_checkpoint(params, str(path))
    loaded, _ = load_checkpoint(str(path))
    fresh = init_params(99, dims)
    for name, arr in fresh.state_arrays().items():
        assert loaded.state_arrays()[name].shape == arr.shape


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.rclc"
    save_checkpoint(init_params(1, ModelDims(d=4, n_layers=1, n_types=1)), str(path))
    before = path.read_bytes()
    pack, calls = struct.pack, []

    def failing_pack(*args):
        calls.append(args)
        if len(calls) == 6:  # a few tensors in
            raise OSError("disk full")
        return pack(*args)

    monkeypatch.setattr(struct, "pack", failing_pack)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(init_params(2, ModelDims(d=4, n_layers=1, n_types=1)), str(path))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.rclc"]


def test_checkpoint_corruption(tmp_path):
    params = init_params(1, ModelDims(d=4, n_layers=1, n_types=1))
    path = tmp_path / "model.rclc"
    save_checkpoint(params, str(path))
    blob = path.read_bytes()
    (tmp_path / "trunc.rclc").write_bytes(blob[:-9])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(tmp_path / "trunc.rclc"))
    (tmp_path / "magic.rclc").write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(tmp_path / "magic.rclc"))
    (tmp_path / "tail.rclc").write_bytes(blob + b"xx")
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(tmp_path / "tail.rclc"))
    params.tensors["halt_key"].data[1] = np.nan  # would rank every set at NaN
    save_checkpoint(params, str(tmp_path / "nan.rclc"))
    with pytest.raises(CorruptCheckpoint, match="non-finite"):
        load_checkpoint(str(tmp_path / "nan.rclc"))


_HEADER = struct.Struct("<4sIIIIIIdQQ")  # magic, version, d, n_layers, widths, ...
_FIELDS = ("magic", "version", "d", "n_layers", "d_atom", "d_bond", "n_types", "tau",
           "step", "seed")


def _with_header(blob: bytes, **fields) -> bytes:
    header = dict(zip(_FIELDS, _HEADER.unpack_from(blob, 0)))
    header.update(fields)
    return _HEADER.pack(*header.values()) + blob[_HEADER.size:]


@pytest.mark.parametrize("fields", [
    dict(d=0), dict(d=2**20), dict(n_layers=2**32 - 1, d=1), dict(d_atom=D_ATOM - 1),
    dict(d_bond=4), dict(d=8), dict(n_layers=1), dict(n_types=2**32 - 1)])
def test_checkpoint_header_is_checked_before_allocation(fields, tmp_path):
    """A header that disagrees with the file's tensor table raises
    ``CorruptCheckpoint`` without building the model the header describes."""
    path = tmp_path / "model.rclc"
    save_checkpoint(init_params(0, ModelDims(d=16, n_layers=2, n_types=1)), str(path))
    path.write_bytes(_with_header(path.read_bytes(), **fields))
    with pytest.raises(CorruptCheckpoint):
        load_checkpoint(str(path))


def test_load_and_copy_build_no_random_model(tmp_path, monkeypatch):
    params = init_params(2, ModelDims(d=4, n_layers=1, n_types=1))
    path = str(tmp_path / "model.rclc")
    save_checkpoint(params, path)

    def no_generator(*args, **kwargs):
        raise AssertionError("a random generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    loaded, _ = load_checkpoint(path)
    clone = loaded.copy()
    for name, array in params.state_arrays().items():
        assert np.array_equal(clone.state_arrays()[name], array), name
        assert clone.state_arrays()[name] is not loaded.state_arrays()[name]


def _set_bytes_and_truncate(blob: bytes, offsets, header_size: int):
    """Every byte at ``offsets`` set to 0x00 and then to 0xFF, then the file
    cut at every offset of its header."""
    for offset in offsets:
        for value in (0x00, 0xFF):
            yield blob[:offset] + bytes([value]) + blob[offset + 1:]
    for size in range(header_size):
        yield blob[:size]


def test_every_header_byte_loads_or_raises_its_format_error(tmp_path):
    """Each mutation of a checkpoint's or an RCLX cache's header and first
    table record either loads or raises that format's own error."""
    d = 4
    save_checkpoint(init_params(0, ModelDims(d=d, n_layers=1, n_types=1)),
                    str(tmp_path / "model.rclc"))
    checkpoint = (tmp_path / "model.rclc").read_bytes()
    header = _HEADER.size + 4  # the fixed header, then the table's entry count
    first = 2 + len(b"halt_key") + 1 + 4 + 4 * d  # name, rank, shape, data
    assert checkpoint[header + 2:header + 10] == b"halt_key"
    rows = np.arange(6 * d, dtype=np.float32).reshape(6, d) + 1
    save_index(CandidateIndex.from_raw_keys(rows, np.arange(6)), str(tmp_path / "c.rclx"))
    cache = (tmp_path / "c.rclx").read_bytes()
    rclx_header = 21  # magic, version, rows, width, flag byte
    keys = rclx_header + 8 * 6  # the key rows start after the six ids
    cases = [(load_checkpoint, CorruptCheckpoint,
              _set_bytes_and_truncate(checkpoint, range(header + first), header)),
             (load_index, CorruptIndexCache,
              # the header and the first record: its id and its key row
              _set_bytes_and_truncate(cache, [*range(rclx_header + 8),
                                              *range(keys, keys + 4 * d)], rclx_header))]
    path = tmp_path / "mutated"
    for load, error, mutations in cases:
        for data in mutations:
            path.write_bytes(data)
            with contextlib.suppress(error):
                load(str(path))


# --- evaluation ---

def test_topk_exact_match_cases():
    truth = [("CCO", "CC"), ("CN",)]
    predictions = [
        [("CC", "CCO"), ("CC",)],          # hit at rank 1 (order inside set free)
        [("CC",), ("CO",), ("CN",)],       # hit at rank 3
    ]
    table = topk_exact_match(predictions, truth, [1, 3, 5])
    assert table[1] == 0.5
    assert table[3] == 1.0
    assert table[5] == 1.0


def test_topk_no_hit_and_monotone():
    truth = [("CCO",)]
    predictions = [[("CC",), ("CN",)]]
    table = topk_exact_match(predictions, truth, [1, 3, 5, 10])
    assert all(v == 0.0 for v in table.values())
    truth = [("CCO",), ("CC",)]
    predictions = [[("CCO",)], [("X",), ("CC",)]]
    table = topk_exact_match(predictions, truth, [1, 2, 3])
    values = [table[k] for k in (1, 2, 3)]
    assert values == sorted(values)


def test_metrics_log(tmp_path):
    log = MetricsLog(str(tmp_path / "metrics.jsonl"))
    log.log(step=1, loss_b=2.0, loss_f=1.0, grad_norm=0.5)
    log.log(step=2, loss_b=1.5, loss_f=0.9, grad_norm=0.4, val_top1=0.25)
    lines = (tmp_path / "metrics.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    import json
    record = json.loads(lines[1])
    assert record["step"] == 2 and record["val_top1"] == 0.25

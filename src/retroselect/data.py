"""Corpus ingestion, canonical interning, checkpoints and evaluation metrics.

Reaction files hold one ``R1.R2>>P`` (or ``R1>reagents>P``) record per line
with an optional tab-separated integer reaction type; ``#`` lines are
comments. Candidate pool (and building-block) files hold one SMILES per
line. All molecules are interned by canonical form into dense integer ids.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
import struct
from dataclasses import dataclass, field

import numpy as np

from .chem import ChemError, Molecule, canonical_form, parse_reaction, parse_smiles
from .encoder import D_ATOM, D_BOND, ModelDims, ParamStore

SPLITS = ("train", "val", "test")
# A load aborts when more than this share of reaction (or pool) lines fails.
MAX_ERROR_FRACTION = 0.01


class CorpusError(ValueError):
    pass


class CorruptCheckpoint(ValueError):
    pass


@dataclass(frozen=True)
class ReactionRecord:
    """One training/eval example over interned molecule ids."""

    reactant_ids: tuple[int, ...]      # sorted, non-empty, product excluded
    product_id: int
    rxn_type: int | None = None

    def molecule_ids(self) -> tuple[int, ...]:
        return self.reactant_ids + (self.product_id,)


@dataclass
class Corpus:
    """Interned molecule table plus per-split reaction records."""

    molecules: list[Molecule] = field(default_factory=list)
    forms: list[str] = field(default_factory=list)
    id_of: dict[str, int] = field(default_factory=dict)
    reactions: dict[str, list[ReactionRecord]] = field(default_factory=dict)
    candidate_ids: list[int] = field(default_factory=list)
    n_types: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    def intern(self, mol: Molecule) -> int:
        form = canonical_form(mol)
        existing = self.id_of.get(form)
        if existing is not None:
            return existing
        new_id = len(self.molecules)
        self.id_of[form] = new_id
        self.molecules.append(mol)
        self.forms.append(form)
        return new_id

    def molecule(self, mol_id: int) -> Molecule:
        return self.molecules[mol_id]

    def form(self, mol_id: int) -> str:
        return self.forms[mol_id]

    def candidates(self) -> list[Molecule]:
        return [self.molecules[i] for i in self.candidate_ids]


@dataclass
class _ParseTally:
    """Data lines of one kind read so far, and those that failed to parse."""

    kind: str
    lines: int = 0
    bad: int = 0
    first_errors: list[str] = field(default_factory=list)

    def parsed(self, path: str, parse):
        """``parse`` of each data line of ``path`` (blank and ``#`` lines are
        not data); lines that raise ``ChemError`` are counted and skipped."""
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                self.lines += 1
                try:
                    item = parse(line)
                except ChemError as exc:
                    self.bad += 1
                    if len(self.first_errors) < 5:
                        self.first_errors.append(f"{path}:{lineno}: {exc}")
                    continue
                yield item

    def check(self) -> None:
        if self.lines and self.bad / self.lines > MAX_ERROR_FRACTION:
            raise CorpusError(f"{self.bad}/{self.lines} {self.kind} lines failed to "
                              f"parse; first errors: " + "; ".join(self.first_errors))


def load_corpus(reaction_paths: dict[str, str],
                candidates_path: str | None = None) -> Corpus:
    """Load reaction splits and the candidate pool.

    ``candidates_path`` supplies an explicit pool file; otherwise the pool is
    derived as all distinct reactants across the given splits. Duplicate
    reaction lines and reactions whose product equals one of its reactants
    are dropped (counted in ``stats``). Reaction lines, and pool lines, that
    fail to parse are dropped and counted, unless more than
    ``MAX_ERROR_FRACTION`` of that kind fail: then the load aborts. A
    pool-only load interns the pool in file order, so its ids are 0..N-1.
    """
    corpus = Corpus()
    reaction_lines = _ParseTally("reaction")
    n_dup = 0
    n_self = 0
    max_type = 0
    for split, path in reaction_paths.items():
        if split not in SPLITS:
            raise CorpusError(f"unknown split {split!r}")
        records: list[ReactionRecord] = []
        seen_records: set[tuple] = set()  # duplicates are dropped per split
        for reactants, product, rxn_type in reaction_lines.parsed(path, parse_reaction):
            product_id = corpus.intern(product)
            reactant_ids = tuple(sorted({corpus.intern(m) for m in reactants}))
            if product_id in reactant_ids:
                n_self += 1
                continue
            key = (reactant_ids, product_id, rxn_type)
            if key in seen_records:
                n_dup += 1
                continue
            seen_records.add(key)
            if rxn_type is not None:
                max_type = max(max_type, rxn_type)
            records.append(ReactionRecord(reactant_ids, product_id, rxn_type))
        corpus.reactions[split] = records
    reaction_lines.check()

    pool_lines = _ParseTally("pool")
    if candidates_path is not None:
        candidate_ids = [corpus.intern(mol)
                         for mol in pool_lines.parsed(candidates_path, parse_smiles)]
        if pool_lines.lines == 0:
            raise CorpusError(f"candidate file {candidates_path} is empty")
        pool_lines.check()
        corpus.candidate_ids = sorted(set(candidate_ids))
    else:
        pool: set[int] = set()
        for records in corpus.reactions.values():
            for record in records:
                pool.update(record.reactant_ids)
        if not pool:
            raise CorpusError("no reactions to derive the candidate pool from")
        corpus.candidate_ids = sorted(pool)

    corpus.n_types = max_type
    corpus.stats = {"lines": reaction_lines.lines + pool_lines.lines,
                    "parse_errors": reaction_lines.bad + pool_lines.bad,
                    "duplicates_dropped": n_dup, "self_product_dropped": n_self}
    return corpus


# --- checkpoints ---

@contextlib.contextmanager
def replace_on_success(path: str):
    """A binary file opened beside ``path`` that is renamed over it once the
    block has run without error; on an error it is removed, so ``path`` keeps
    its old bytes. Nothing is synced to disk: a system crash may lose the new
    file, but a reader never sees a partly written one."""
    temporary = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(temporary, "xb") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


_CKPT_MAGIC = b"RCLC"
_CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIIIIIdQQ")


def save_checkpoint(params: ParamStore, path: str, tau: float = 0.1,
                    seed: int = 0) -> None:
    """Binary checkpoint: header, then a named little-endian tensor table.
    The file at ``path`` is replaced only once the whole checkpoint is
    written."""
    dims = params.dims
    arrays = params.state_arrays()
    with replace_on_success(path) as fh:
        fh.write(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, dims.d,
                                   dims.n_layers, D_ATOM, D_BOND,
                                   dims.n_types, float(tau), params.step, seed))
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            data = np.ascontiguousarray(arrays[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())


def load_checkpoint(path: str) -> tuple[ParamStore, dict]:
    """Load a checkpoint; returns (params, header metadata). Checks, each a
    ``CorruptCheckpoint``: the header (``d`` >= 1, widths ``D_ATOM`` and
    ``D_BOND``), the tensor table and its finite values, then its names and
    shapes against the layout, which ``ParamStore`` reads no further than the
    table holds: allocation is bounded by the file's size, not the header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CKPT_HEADER.size + 4:
        raise CorruptCheckpoint("truncated header")
    (magic, version, d, n_layers, d_atom, d_bond, n_types,
     tau, step, seed) = _CKPT_HEADER.unpack_from(blob, 0)
    if magic != _CKPT_MAGIC:
        raise CorruptCheckpoint(f"bad magic {magic!r}")
    if version != _CKPT_VERSION:
        raise CorruptCheckpoint(f"unsupported checkpoint version {version}")
    if d < 1 or (d_atom, d_bond) != (D_ATOM, D_BOND):
        raise CorruptCheckpoint(f"bad header widths d={d}, atom {d_atom}, bond {d_bond}")
    offset = _CKPT_HEADER.size
    (count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    arrays: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            data = np.frombuffer(blob, dtype="<f4", count=size, offset=offset)
            offset += 4 * size
            arrays[name] = data.reshape(shape).copy()
    except (struct.error, ValueError) as exc:
        raise CorruptCheckpoint(f"truncated tensor table: {exc}") from exc
    if offset != len(blob):
        raise CorruptCheckpoint("trailing bytes after tensor table")
    if not all(np.isfinite(array).all() for array in arrays.values()):
        raise CorruptCheckpoint("non-finite values in the tensor table")
    try:
        params = ParamStore(ModelDims(d=d, n_layers=n_layers, n_types=n_types), arrays, step)
    except (KeyError, ValueError) as exc:
        raise CorruptCheckpoint(exc.args[0]) from exc
    meta = {"tau": tau, "step": step, "seed": seed}
    return params, meta


# --- evaluation ---

def topk_exact_match(predictions: list[list[tuple[str, ...]]],
                     truths: list[tuple[str, ...]],
                     ks: list[int]) -> dict[int, float]:
    """Top-k exact match accuracy over canonical-form reactant sets.

    A product scores a hit at k iff any of its first k predicted sets equals
    the ground-truth set (set equality of canonical forms).
    """
    if len(predictions) != len(truths):
        raise ValueError("predictions and truths differ in length")
    if not truths:
        return {k: 0.0 for k in ks}
    hits = {k: 0 for k in ks}
    for ranked, truth in zip(predictions, truths):
        truth_set = frozenset(truth)
        rank_of_hit = None
        for rank, predicted in enumerate(ranked, start=1):
            if frozenset(predicted) == truth_set:
                rank_of_hit = rank
                break
        for k in ks:
            if rank_of_hit is not None and rank_of_hit <= k:
                hits[k] += 1
    return {k: hits[k] / len(truths) for k in ks}


class MetricsLog:
    """Line-delimited JSON metrics of one run (a file at ``path`` is emptied
    when the log is made); also keeps records in memory."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.records: list[dict] = []
        if path:
            open(path, "w", encoding="utf-8").close()

    def log(self, **fields) -> None:
        self.records.append(fields)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(fields, sort_keys=True) + "\n")

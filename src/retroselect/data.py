"""Corpus ingestion, canonical interning, checkpoints and evaluation metrics.

Reaction files hold one ``R1.R2>>P`` (or ``R1>reagents>P``) record per line
with an optional tab-separated integer reaction type; ``#`` lines are
comments. Candidate files hold one SMILES per line. All molecules are
interned by canonical form into dense integer ids.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .chem import ChemError, Molecule, canonical_form, parse_reaction, parse_smiles
from .encoder import ModelDims, ParamStore, init_params

SPLITS = ("train", "val", "test")
# Loading aborts when more than this share of data lines fails to parse.
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


def _iter_records(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def load_corpus(reaction_paths: dict[str, str],
                candidates_path: str | None = None) -> Corpus:
    """Load reaction splits and the candidate pool.

    ``candidates_path`` supplies an explicit pool file; otherwise the pool is
    derived as all distinct reactants across the given splits. Duplicate
    reaction lines and reactions whose product equals one of its reactants
    are dropped (counted in ``stats``); parsing aborts if more than
    ``MAX_ERROR_FRACTION`` of data lines fail.
    """
    corpus = Corpus()
    n_lines = 0
    n_bad = 0
    n_dup = 0
    n_self = 0
    first_errors: list[str] = []
    max_type = 0
    for split, path in reaction_paths.items():
        if split not in SPLITS:
            raise CorpusError(f"unknown split {split!r}")
        records: list[ReactionRecord] = []
        seen_records: set[tuple] = set()  # duplicates are dropped per split
        for lineno, line in _iter_records(path):
            n_lines += 1
            try:
                reactants, product, rxn_type = parse_reaction(line)
            except ChemError as exc:
                n_bad += 1
                if len(first_errors) < 5:
                    first_errors.append(f"{path}:{lineno}: {exc}")
                continue
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

    if n_lines and n_bad / n_lines > MAX_ERROR_FRACTION:
        raise CorpusError(
            f"{n_bad}/{n_lines} reaction lines failed to parse; first errors: "
            + "; ".join(first_errors))

    if candidates_path is not None:
        candidate_ids = []
        n_cand_lines = 0
        for lineno, line in _iter_records(candidates_path):
            n_cand_lines += 1
            try:
                mol = parse_smiles(line)
            except ChemError as exc:
                n_bad += 1
                if len(first_errors) < 5:
                    first_errors.append(f"{candidates_path}:{lineno}: {exc}")
                continue
            candidate_ids.append(corpus.intern(mol))
        if n_cand_lines == 0:
            raise CorpusError(f"candidate file {candidates_path} is empty")
        corpus.candidate_ids = sorted(set(candidate_ids))
    else:
        pool: set[int] = set()
        for records in corpus.reactions.values():
            for record in records:
                pool.update(record.reactant_ids)
        corpus.candidate_ids = sorted(pool)

    if not corpus.candidate_ids:
        raise CorpusError("empty candidate pool")
    corpus.n_types = max_type
    corpus.stats = {"lines": n_lines, "parse_errors": n_bad,
                    "duplicates_dropped": n_dup, "self_product_dropped": n_self}
    return corpus


# --- checkpoints ---

_CKPT_MAGIC = b"RCLC"
_CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIIIIIdQQ")


def save_checkpoint(params: ParamStore, path: str, tau: float = 0.1,
                    seed: int = 0) -> None:
    """Binary checkpoint: header, then a named little-endian tensor table."""
    dims = params.dims
    arrays = params.state_arrays()
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, dims.d,
                                   dims.n_layers, dims.d_atom, dims.d_bond,
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
    """Load a checkpoint; returns (params, header metadata). Strict: unknown
    or missing tensor names are an error."""
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
    dims = ModelDims(d_atom=d_atom, d_bond=d_bond, d=d,
                     n_layers=n_layers, n_types=n_types)
    params = init_params(0, dims)
    try:
        params.load_state_arrays(arrays)
    except KeyError as exc:
        raise CorruptCheckpoint(str(exc)) from exc
    params.step = step
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
    """Line-delimited JSON metrics; also keeps records in memory."""

    def __init__(self, path: str | None = None):
        self.path = path
        self.records: list[dict] = []

    def log(self, **fields) -> None:
        self.records.append(fields)
        if self.path:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(fields, sort_keys=True) + "\n")

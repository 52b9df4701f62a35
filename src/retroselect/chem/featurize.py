"""Fixed-width atom/bond feature vectors for the graph encoder.

Atom rows concatenate: element one-hot over 16 symbols plus an "other"
bucket, degree one-hot 0..5, formal charge one-hot -2..+2, hydrogen-count
one-hot 0..4, an aromatic flag and a ring flag (35 columns total). Bond
rows concatenate a bond-order one-hot and a ring flag (5 columns). Values
outside a one-hot range clamp to the nearest bin and bump a warning count,
as does each atom in the "other" bucket.

``PackedGraphs`` is the one featurized type, from featurization to the
encoder: a disjoint graph batch of any number of molecules, one molecule
being a batch of one. ``featurize_packed`` is the one copy of this layout:
it reads a list of molecules' atom and bond fields in one ``np.fromiter``
pass each and writes the one-hots of the whole batch with numpy indexing.
``featurize`` is its one-molecule case, and ``pack`` concatenates batches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .mol import AROMATIC, DOUBLE, SINGLE, TRIPLE, Molecule

ELEMENTS = ("C", "N", "O", "S", "F", "Cl", "Br", "I",
            "P", "B", "Si", "Sn", "Se", "Zn", "Cu", "Mg")
_ELEMENT_INDEX = {sym: i for i, sym in enumerate(ELEMENTS)}
_OTHER_INDEX = len(ELEMENTS)

D_ATOM = len(ELEMENTS) + 1 + 6 + 5 + 5 + 2  # 35
D_BOND = 4 + 1

_BOND_INDEX = {SINGLE: 0, DOUBLE: 1, TRIPLE: 2, AROMATIC: 3}


@dataclass
class PackedGraphs:
    """Featurized molecules as one disjoint graph batch: a node matrix plus
    paired directed edges. Each undirected bond contributes two consecutive
    directed edges (a->b then b->a) with identical bond features."""

    atom_features: np.ndarray      # [n_atoms, D_ATOM] float32
    bond_features: np.ndarray      # [2 * n_bonds, D_BOND] float32
    edge_src: np.ndarray           # [2 * n_bonds] int64 atom row
    edge_dst: np.ndarray           # [2 * n_bonds] int64 atom row
    mol_ids: np.ndarray            # [n_atoms] segment id of each atom row
    n_mols: int
    clamp_warnings: int = 0


# First columns of the atom blocks, and for element, degree, formal charge
# and hydrogen count their clip range and the column of value 0.
_DEGREE = len(ELEMENTS) + 1
_CHARGE = _DEGREE + 6
_HYDROGENS = _CHARGE + 5
_FLAGS = _HYDROGENS + 5
_LOW = np.array([0, 0, -2, 0])
_HIGH = np.array([_OTHER_INDEX, 5, 2, 4])
_BASE = np.array([0, _DEGREE, _CHARGE + 2, _HYDROGENS])
_chain = itertools.chain.from_iterable


def featurize_packed(mols: list[Molecule]) -> PackedGraphs:
    """Featurize molecules straight into one disjoint graph batch: equal to
    ``pack([featurize(m) for m in mols])``, without the per-molecule arrays."""
    # Each table is read as one flat stream of fields by np.fromiter, which
    # fills a preallocated array instead of inspecting a list of row tuples.
    sizes = [len(mol.atoms) for mol in mols]
    n_atoms, n_bonds = sum(sizes), sum(len(mol.bonds) for mol in mols)
    atoms = np.fromiter(_chain((_ELEMENT_INDEX.get(a.element, _OTHER_INDEX), a.degree,
                                a.formal_charge, a.total_h, a.aromatic, a.in_ring)
                               for mol in mols for a in mol.atoms),
                        dtype=np.int64, count=6 * n_atoms).reshape(n_atoms, 6)
    offsets = itertools.accumulate(sizes, initial=0)
    bonds = np.fromiter(_chain((b.a + offset, b.b + offset, _BOND_INDEX[b.order], b.in_ring)
                               for mol, offset in zip(mols, offsets) for b in mol.bonds),
                        dtype=np.int64, count=4 * n_bonds).reshape(n_bonds, 4)

    fields = atoms[:, :4]
    clipped = np.clip(fields, _LOW, _HIGH)
    warnings = (int(np.count_nonzero(clipped != fields))
                + int(np.count_nonzero(fields[:, 0] == _OTHER_INDEX)))
    atom_features = np.zeros((atoms.shape[0], D_ATOM), dtype=np.float32)
    atom_features[np.arange(atoms.shape[0])[:, None], clipped + _BASE] = 1.0
    atom_features[:, _FLAGS:] = atoms[:, 4:]

    # Each bond gives two directed edges, a->b then b->a, with equal features.
    edges = bonds.repeat(2, axis=0)
    bond_features = np.zeros((edges.shape[0], D_BOND), dtype=np.float32)
    bond_features[np.arange(edges.shape[0]), edges[:, 2]] = 1.0
    bond_features[:, 4] = edges[:, 3]
    ends = bonds[:, :2]
    return PackedGraphs(
        atom_features, bond_features, ends.reshape(-1), ends[:, ::-1].reshape(-1),
        np.repeat(np.arange(len(mols), dtype=np.int64), sizes), len(mols), warnings)


def featurize(mol: Molecule) -> PackedGraphs:
    """One molecule as a graph batch of one."""
    return featurize_packed([mol])


def pack(batches: list[PackedGraphs]) -> PackedGraphs:
    """Concatenate graph batches into one, offsetting edge indices by the
    atoms and molecule ids by the molecules before each."""
    if not batches:
        return featurize_packed([])
    atom_starts = list(itertools.accumulate((len(b.mol_ids) for b in batches), initial=0))
    mol_starts = list(itertools.accumulate((b.n_mols for b in batches), initial=0))
    return PackedGraphs(
        np.concatenate([b.atom_features for b in batches]),
        np.concatenate([b.bond_features for b in batches]),
        np.concatenate([b.edge_src + start for b, start in zip(batches, atom_starts)]),
        np.concatenate([b.edge_dst + start for b, start in zip(batches, atom_starts)]),
        np.concatenate([b.mol_ids + start for b, start in zip(batches, mol_starts)]),
        mol_starts[-1], sum(b.clamp_warnings for b in batches))

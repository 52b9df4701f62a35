"""Fixed-width atom/bond feature vectors for the graph encoder.

Atom rows concatenate: element one-hot over 16 symbols plus an "other"
bucket, degree one-hot 0..5, formal charge one-hot -2..+2, hydrogen-count
one-hot 0..4, an aromatic flag and a ring flag (35 columns total). Bond
rows concatenate a bond-order one-hot and a ring flag (5 columns). Values
outside a one-hot range clamp to the nearest bin and bump a warning count,
as does each atom in the "other" bucket.

``featurize_packed`` is the one copy of this layout: it reads a list of
molecules' atom and bond fields in one pass each and writes the one-hots of
the whole batch with numpy indexing. ``featurize`` is its one-molecule case.
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
class FeatureBundle:
    """Featurized molecule: node matrix plus paired directed edges.

    Each undirected bond contributes two consecutive directed edges
    (a->b then b->a) with identical bond features.
    """

    atom_features: np.ndarray      # [n_atoms, D_ATOM] float32
    bond_features: np.ndarray      # [2 * n_bonds, D_BOND] float32
    edge_src: np.ndarray           # [2 * n_bonds] int64
    edge_dst: np.ndarray           # [2 * n_bonds] int64
    clamp_warnings: int = 0

    @property
    def n_atoms(self) -> int:
        return self.atom_features.shape[0]


@dataclass
class PackedGraphs:
    """Several FeatureBundles packed into one disjoint graph batch."""

    atom_features: np.ndarray
    bond_features: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
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


def featurize_packed(mols: list[Molecule]) -> PackedGraphs:
    """Featurize molecules straight into one disjoint graph batch: equal to
    ``pack([featurize(m) for m in mols])``, without the per-molecule arrays."""
    atoms = np.array([(_ELEMENT_INDEX.get(a.element, _OTHER_INDEX), a.degree,
                       a.formal_charge, a.total_h, a.aromatic, a.in_ring)
                      for mol in mols for a in mol.atoms], dtype=np.int64).reshape(-1, 6)
    sizes = [len(mol.atoms) for mol in mols]
    offsets = itertools.accumulate(sizes, initial=0)
    bonds = np.array([(b.a + offset, b.b + offset, _BOND_INDEX[b.order], b.in_ring)
                      for mol, offset in zip(mols, offsets) for b in mol.bonds],
                     dtype=np.int64).reshape(-1, 4)

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


def featurize(mol: Molecule) -> FeatureBundle:
    packed = featurize_packed([mol])
    return FeatureBundle(packed.atom_features, packed.bond_features,
                         packed.edge_src, packed.edge_dst, packed.clamp_warnings)


def pack(bundles: list[FeatureBundle]) -> PackedGraphs:
    """Concatenate bundles into one batch with offset edge indices."""
    if not bundles:
        return PackedGraphs(
            np.zeros((0, D_ATOM), np.float32), np.zeros((0, D_BOND), np.float32),
            np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64), 0)
    atom_features = np.concatenate([b.atom_features for b in bundles])
    bond_features = np.concatenate([b.bond_features for b in bundles])
    src_parts, dst_parts, mol_parts = [], [], []
    offset = 0
    for mol_id, bundle in enumerate(bundles):
        src_parts.append(bundle.edge_src + offset)
        dst_parts.append(bundle.edge_dst + offset)
        mol_parts.append(np.full(bundle.n_atoms, mol_id, dtype=np.int64))
        offset += bundle.n_atoms
    return PackedGraphs(
        atom_features, bond_features,
        np.concatenate(src_parts), np.concatenate(dst_parts),
        np.concatenate(mol_parts), len(bundles),
        sum(b.clamp_warnings for b in bundles))

import random

import numpy as np
import pytest

from retroselect.chem import (D_ATOM, D_BOND, ELEMENTS, featurize, featurize_packed, pack,
                              parse_smiles, write_smiles)

from helpers import CORPUS_SMILES, loop_featurize, random_permutation


def test_feature_widths():
    bundle = featurize(parse_smiles("CCO"))
    assert bundle.atom_features.shape == (3, D_ATOM)
    assert bundle.bond_features.shape == (4, D_BOND)
    assert D_ATOM == 35 and D_BOND == 5


def test_single_carbon_row():
    row = featurize(parse_smiles("C")).atom_features[0]
    assert row[ELEMENTS.index("C")] == 1.0
    offset = len(ELEMENTS) + 1
    assert row[offset + 0] == 1.0            # degree 0
    assert row[offset + 6 + 2] == 1.0        # charge 0
    assert row[offset + 6 + 5 + 4] == 1.0    # 4 hydrogens, clamped bin
    assert row[-2] == 0.0 and row[-1] == 0.0  # not aromatic, not in ring
    assert row.sum() == 4.0


def test_benzene_directed_edges():
    bundle = featurize(parse_smiles("c1ccccc1"))
    assert bundle.bond_features.shape == (12, D_BOND)
    assert np.all(bundle.bond_features[:, 3] == 1.0)  # aromatic order one-hot
    assert np.all(bundle.bond_features[:, 4] == 1.0)  # ring flag
    # Reverse edges pair up with identical features.
    assert np.array_equal(bundle.bond_features[0::2], bundle.bond_features[1::2])
    assert np.array_equal(bundle.edge_src[0::2], bundle.edge_dst[1::2])


def test_charge_clamping_warns():
    bundle = featurize(parse_smiles("[O-4]"))
    offset = len(ELEMENTS) + 1 + 6
    assert bundle.atom_features[0][offset + 0] == 1.0  # clamped to -2 bin
    assert bundle.clamp_warnings == 1


def test_unknown_element_bucket():
    bundle = featurize(parse_smiles("[Zr]"))
    assert bundle.atom_features[0][len(ELEMENTS)] == 1.0
    assert bundle.clamp_warnings == 1


@pytest.mark.parametrize("smiles", CORPUS_SMILES[:12])
def test_permutation_equivariance(smiles):
    mol = parse_smiles(smiles)
    base = featurize(mol).atom_features
    rng = random.Random(5)
    order = random_permutation(len(mol.atoms), rng)
    rewritten = parse_smiles(write_smiles(mol, order))
    permuted = featurize(rewritten).atom_features
    # Feature rows must match up to a row permutation.
    assert sorted(map(tuple, base.tolist())) == sorted(map(tuple, permuted.tolist()))


def test_pack_offsets():
    bundles = [featurize(parse_smiles(s)) for s in ("CCO", "C", "c1ccccc1")]
    packed = pack(bundles)
    assert packed.n_mols == 3
    assert packed.atom_features.shape[0] == 3 + 1 + 6
    assert packed.mol_ids.tolist() == [0] * 3 + [1] + [2] * 6
    assert packed.edge_src.max() < packed.atom_features.shape[0]
    # Second molecule has no edges; benzene edges are offset by 4.
    assert packed.edge_src[4:].min() >= 4


def _corpus_sample(seed: int, size: int) -> list[str]:
    """Corpus molecules rewritten in seeded random atom orders."""
    rng = random.Random(seed)
    out = []
    for _ in range(size):
        mol = parse_smiles(rng.choice(CORPUS_SMILES))
        out.append(write_smiles(mol, random_permutation(len(mol.atoms), rng)))
    return out


_BATCHES = {
    "corpus-sample": _corpus_sample(7, 40),
    # Charge -4, an unlisted element, germyl, degree 6, six hydrogens, and
    # an unlisted element with charge +3 (two clamps on one atom).
    "clamped": ["[O-4]", "[Zr]", "C[GeH3]", "CC([GeH3])([GeH3])C",
                "FS(F)(F)(F)(F)F", "[SiH6-2]", "[Al+3]"],
    "bond-free": ["C", "O", "[NH4+]", "[Zn+2]", "[Zr]"],
    "aromatic": ["c1ccccc1", "c1ccncc1", "c1ccc2ccccc2c1", "c1cc[nH]c1", "c1ccsc1",
                 "N#Cc1ccccc1"],
    "empty": [],
}


def _assert_packed_equal(got, want):
    for name in ("atom_features", "bond_features", "edge_src", "edge_dst", "mol_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.n_mols == want.n_mols
    assert got.clamp_warnings == want.clamp_warnings


@pytest.mark.parametrize("name", sorted(_BATCHES))
def test_featurize_packed_matches_loop_reference(name):
    mols = [parse_smiles(s) for s in _BATCHES[name]]
    _assert_packed_equal(featurize_packed(mols), pack([loop_featurize(m) for m in mols]))
    for mol in mols:
        _assert_packed_equal(featurize(mol), loop_featurize(mol))
    # Packing batches of several molecules offsets edges by the atoms and
    # molecule ids by the molecules before each.
    half = len(mols) // 2
    _assert_packed_equal(pack([featurize_packed(mols[:half]), featurize_packed(mols[half:])]),
                         featurize_packed(mols))


"""Shared test oracles and utilities."""

from __future__ import annotations

import random

import networkx as nx

from retroselect.chem import Molecule, write_smiles
from retroselect.chem.canon import _dense, _initial_ranks, _refine

# Diverse corpus used across parser/canonical/encoder tests: chains, rings,
# fused aromatics, charges, bracket atoms, multi-valent S/P, halogens.
CORPUS_SMILES = [
    "CCO",
    "OCC",
    "C",
    "O",
    "[NH4+]",
    "c1ccccc1",
    "c1ccncc1",
    "c1ccc2ccccc2c1",
    "c1cc[nH]c1",
    "c1ccoc1",
    "c1ccsc1",
    "CC(=O)O",
    "CC(=O)OC1=CC=CC=C1C(=O)O",
    "N#Cc1ccccc1",
    "C1CCCCC1",
    "C1CC2CCC1CC2",
    "CC(C)(C)OC(=O)NC",
    "ClCCl",
    "FC(F)(F)c1ccccc1",
    "O=S(=O)(O)O",
    "OP(=O)(O)O",
    "C[Si](C)(C)C",
    "[O-]C(=O)C",
    "[Zn+2]",
    "Brc1ccc(I)cc1",
    "C/C=C/C(=O)O",
    "F[C@@H](Cl)Br",
    "CC1=CC(=O)C=CC1=O",
    "C(#N)c1ncccc1",
    "CSC",
    "CN1CCC[C@H]1c1cccnc1",
    "COc1cc2c(cc1OC)CCN2",
]


def to_networkx(mol: Molecule) -> nx.Graph:
    graph = nx.Graph()
    for idx, atom in enumerate(mol.atoms):
        graph.add_node(idx, label=(atom.element, atom.formal_charge,
                                   atom.total_h, atom.aromatic))
    for bond in mol.bonds:
        graph.add_edge(bond.a, bond.b, order=bond.order)
    return graph


def isomorphic(a: Molecule, b: Molecule) -> bool:
    """Exact labeled-graph isomorphism via the networkx VF2 oracle."""
    return nx.is_isomorphic(
        to_networkx(a), to_networkx(b),
        node_match=lambda x, y: x["label"] == y["label"],
        edge_match=lambda x, y: x["order"] == y["order"])


def random_permutation(n: int, rng: random.Random) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def relative_error(a, b, floor: float = 1.0) -> float:
    """|a-b| / max(floor, |a|, |b|); floor=1 keeps near-zero values honest."""
    return abs(a - b) / max(floor, abs(a), abs(b))


def exhaustive_canonical_form(mol: Molecule) -> str:
    """Reference canonical form: the search without automorphism pruning.

    Refines to a stable partition, branches on every member of the
    lowest-ranked tie class and returns the smallest leaf string, exactly
    as the library's search did before it pruned automorphic subtrees.
    Exponential on symmetric groups; keep inputs small.
    """
    def best_string(ranks: list[int]) -> str:
        n = len(mol.atoms)
        if len(set(ranks)) == n:
            order = sorted(range(n), key=ranks.__getitem__)
            pieces = write_smiles(mol, order).split(".")
            return ".".join(sorted(pieces))
        tie_rank = min(r for r in ranks if ranks.count(r) > 1)
        members = [idx for idx in range(n) if ranks[idx] == tie_rank]
        best = None
        for pick in members:
            split = [2 * r - (1 if idx == pick else 0) for idx, r in enumerate(ranks)]
            candidate = best_string(_refine(mol, _dense(split)))
            if best is None or candidate < best:
                best = candidate
        return best

    return best_string(_refine(mol, _initial_ranks(mol)))

"""Shared test oracles and utilities."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np

from retroselect import autodiff as ad
from retroselect.chem import (AROMATIC, D_ATOM, D_BOND, DOUBLE, ELEMENTS, SINGLE, TRIPLE,
                              FeatureBundle, Molecule, write_smiles)

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


# The library's first refinement, kept here so the oracle below does not
# move with the code it checks: atom invariants in this element order,
# then rounds over sorted (bond order, neighbour rank) pairs until the
# class count stops growing.
_ELEMENT_ORDER = (
    "C N O S F Cl Br I P B Si Sn Se Zn Cu Mg H".split())
_ELEMENT_RANK = {sym: i for i, sym in enumerate(_ELEMENT_ORDER)}


def _initial_ranks(mol: Molecule) -> list[int]:
    keys = []
    for atom in mol.atoms:
        element_rank = _ELEMENT_RANK.get(atom.element, len(_ELEMENT_ORDER))
        keys.append((element_rank, atom.element, atom.formal_charge,
                     atom.total_h, atom.aromatic, atom.degree, atom.in_ring))
    return _dense(keys)


def _dense(keys: list) -> list[int]:
    order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [order[key] for key in keys]


def _refine(mol: Molecule, ranks: list[int]) -> list[int]:
    neighbors: list[list[tuple[int, int]]] = [[] for _ in mol.atoms]
    for bond in mol.bonds:
        neighbors[bond.a].append((bond.order, bond.b))
        neighbors[bond.b].append((bond.order, bond.a))
    n_classes = len(set(ranks))
    while True:
        keys = []
        for idx in range(len(mol.atoms)):
            neighborhood = sorted((order, ranks[u]) for order, u in neighbors[idx])
            keys.append((ranks[idx], tuple(neighborhood)))
        new_ranks = _dense(keys)
        new_count = len(set(new_ranks))
        if new_count == n_classes:
            return new_ranks
        ranks = new_ranks
        n_classes = new_count


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


def edge_loop_embeddings(packed, params, mode: str, heads=("f", "g", "h")) -> dict:
    """Reference encoder forward in float64 numpy, the way the encoder was
    first written: every layer projects each edge's bond features and
    scatters them to the edge's destination atom, gathers the source atom's
    row onto each edge and scatters it back, all in Python loops over edges,
    then applies unfolded batch norm (batch statistics in train mode, left
    un-updated; running statistics in eval mode). Returns the node matrix
    under "nodes" and the sum-pooled rows of each head."""
    t = {name: tensor.data.astype(np.float64) for name, tensor in params.tensors.items()}
    x_atom = packed.atom_features.astype(np.float64)
    x_bond = packed.bond_features.astype(np.float64)
    n_atoms = x_atom.shape[0]

    def batchnorm(x, name):
        state = params.bn_states[name]
        mean, var = (x.mean(axis=0), x.var(axis=0)) if mode == "train" \
            else (state.running_mean, state.running_var)
        return (x - mean) / np.sqrt(var + state.epsilon) * state.gamma.data + state.beta.data

    def relu(x):
        return np.maximum(x, 0.0)

    def scatter(edge_rows):
        out = np.zeros((n_atoms, edge_rows.shape[1]))
        for edge, dst in enumerate(packed.edge_dst):
            out[dst] += edge_rows[edge]
        return out

    def gather(rows):
        out = np.zeros((len(packed.edge_src), rows.shape[1]))
        for edge, src in enumerate(packed.edge_src):
            out[edge] = rows[src]
        return out

    h = relu(batchnorm(x_atom @ t["trunk.w0_atom"] + t["trunk.b0"]
                       + scatter(x_bond @ t["trunk.w0_bond"]), "trunk.bn0"))
    for layer in range(1, params.dims.n_layers + 1):
        p = f"trunk.l{layer}"
        stage1 = relu(batchnorm(scatter(gather(h)) @ t[f"{p}.w1"] + t[f"{p}.b1"]
                                + scatter(x_bond @ t[f"{p}.w_bond"]), f"{p}.bn1"))
        h = relu(batchnorm(stage1 @ t[f"{p}.w2"] + t[f"{p}.b2"] + h, f"{p}.bn2"))
    nodes = h @ t["trunk.w_last"] + t["trunk.b_last"]
    out = {"nodes": nodes}
    for head in heads:
        p = f"head.{head}"
        z = relu(batchnorm(relu(nodes) @ t[f"{p}.w1"] + t[f"{p}.b1"], f"{p}.bn1"))
        z = batchnorm(z @ t[f"{p}.w2"] + t[f"{p}.b2"], f"{p}.bn2")
        pooled = np.zeros((packed.n_mols, nodes.shape[1]))
        for atom, mol in enumerate(packed.mol_ids):
            pooled[mol] += nodes[atom] + z[atom]
        out[head] = pooled
    return out


def randomize_batchnorm(params, rng) -> None:
    """Non-trivial running statistics, gamma and beta in every BN layer."""
    for state in params.bn_states.values():
        state.running_mean[:] = rng.standard_normal(state.width)
        state.running_var[:] = rng.uniform(0.3, 3.0, state.width)
        state.gamma.data[:] = rng.uniform(-1.5, 1.5, state.width)
        state.beta.data[:] = rng.standard_normal(state.width)


def batchnorm(x, state):
    """Train-mode batch norm as its own tape node: the reference the fused
    ``ad.affine_batchnorm`` train mode is checked against. Biased batch
    statistics, folded into the running estimates with unbiased variance."""
    n = x.shape[0]
    gamma, beta = state.gamma, state.beta
    mean = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + state.epsilon)
    x_hat = (x.data - mean) * inv_std
    m = state.momentum
    state.running_mean += m * (mean - state.running_mean)
    state.running_var += m * (var * (n / (n - 1)) - state.running_var)
    out = ad.Tensor(x_hat * gamma.data + beta.data, parents=(x, gamma, beta))

    def _bw(g):
        if gamma.requires_grad:
            gamma._accumulate((g * x_hat).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if x.requires_grad:
            g_mean = g.mean(axis=0)
            gx_mean = (g * x_hat).mean(axis=0)
            x._accumulate(gamma.data * inv_std * (g - g_mean - x_hat * gx_mean))
    out._backward = _bw if out.requires_grad else None
    return out


def composed_affine_batchnorm(terms, b, state, residual=None):
    """Train-mode ``affine_batchnorm`` as the composition of ``ad.linear``,
    ``ad.add`` and the reference ``batchnorm``: one tape node per term, per
    extra term, per residual and for the normalization."""
    (x0, w0), rest = terms[0], terms[1:]
    pre = ad.linear(x0, w0, b)
    for x, w in rest:
        pre = ad.add(pre, ad.linear(x, w))
    if residual is not None:
        pre = ad.add(pre, residual)
    return batchnorm(pre, state)


def mul(a, b):
    """Elementwise product as a tape node; the tests use it to weight
    outputs in their finite-difference losses."""
    if a.shape != b.shape:
        raise ad.ShapeMismatch(f"mul {a.shape} vs {b.shape}")
    out = ad.Tensor(ad._checked(a.data * b.data, "mul"), parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)
    out._backward = _bw if out.requires_grad else None
    return out


def loop_featurize(mol: Molecule):
    """Reference featurizer: the per-atom and per-bond loop the library ran
    before it featurized whole chunks into one batch. ``pack`` of its
    bundles is what ``featurize_packed`` must equal bitwise."""
    element_index = {sym: i for i, sym in enumerate(ELEMENTS)}
    other_index = len(ELEMENTS)
    bond_index = {SINGLE: 0, DOUBLE: 1, TRIPLE: 2, AROMATIC: 3}

    def clamp(value: int, low: int, high: int) -> tuple[int, int]:
        if value < low:
            return low, 1
        if value > high:
            return high, 1
        return value, 0

    n = len(mol.atoms)
    atom_rows = np.zeros((n, D_ATOM), dtype=np.float32)
    warnings = 0
    for idx, atom in enumerate(mol.atoms):
        element = element_index.get(atom.element)
        if element is None:
            element = other_index
            warnings += 1
        row = atom_rows[idx]
        row[element] = 1.0
        offset = len(ELEMENTS) + 1
        degree, clamped = clamp(atom.degree, 0, 5)
        warnings += clamped
        row[offset + degree] = 1.0
        offset += 6
        charge, clamped = clamp(atom.formal_charge, -2, 2)
        warnings += clamped
        row[offset + charge + 2] = 1.0
        offset += 5
        hydrogens, clamped = clamp(atom.total_h, 0, 4)
        warnings += clamped
        row[offset + hydrogens] = 1.0
        offset += 5
        row[offset] = 1.0 if atom.aromatic else 0.0
        row[offset + 1] = 1.0 if atom.in_ring else 0.0

    n_edges = 2 * len(mol.bonds)
    bond_rows = np.zeros((n_edges, D_BOND), dtype=np.float32)
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for bidx, bond in enumerate(mol.bonds):
        feature = np.zeros(D_BOND, dtype=np.float32)
        feature[bond_index[bond.order]] = 1.0
        feature[4] = 1.0 if bond.in_ring else 0.0
        bond_rows[2 * bidx] = feature
        bond_rows[2 * bidx + 1] = feature
        src[2 * bidx], dst[2 * bidx] = bond.a, bond.b
        src[2 * bidx + 1], dst[2 * bidx + 1] = bond.b, bond.a
    return FeatureBundle(atom_rows, bond_rows, src, dst, warnings)

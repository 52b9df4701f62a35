"""Molecule embeddings and their structural guarantees.

The encoder is a message-passing trunk with three sum-pooled heads: f
queries for a product, g queries for a reactant, h is the key space both
are matched against. Sum pooling makes embeddings additive over fragments,
which is exactly what lets a product query "subtract off" already-selected
reactants during search.

Every molecule reaches the encoder as a featurized graph batch; one molecule
is a batch of one. ``embed_molecule`` embeds such a batch in eval mode and
returns the molecule's vector under one head; ``embed_pool`` embeds a whole
pool in chunks and returns its unit-norm key rows.
"""

import numpy as np

from retroselect.chem import disjoint_union, parse_smiles, write_smiles
from retroselect.encoder import ModelDims, embed_molecule, embed_pool, init_params

params = init_params(seed=0, dims=ModelDims(d=64, n_layers=3, n_types=1))
print(f"model: d={params.dims.d}, {params.dims.n_layers} layers, "
      f"{params.num_parameters():,} parameters")

benzene = parse_smiles("c1ccccc1")
ethanol = parse_smiles("CCO")

print()
print("=== Permutation invariance ===")
base = embed_molecule(benzene, "h", params)
rewritten = parse_smiles(write_smiles(benzene, [3, 0, 5, 1, 4, 2]))
other = embed_molecule(rewritten, "h", params)
print(f"max |difference| across atom orderings: {np.abs(base - other).max():.2e}")

print()
print("=== Additivity over fragments (sum pooling) ===")
pair = disjoint_union(ethanol, benzene)
together = embed_molecule(pair, "g", params)
apart = (embed_molecule(ethanol, "g", params)
         + embed_molecule(benzene, "g", params))
print(f"embed(A.B) vs embed(A)+embed(B): {np.abs(together - apart).max():.2e}")

doubled = embed_molecule(disjoint_union(ethanol, ethanol), "g", params)
single = embed_molecule(ethanol, "g", params)
print(f"embed(A.A) vs 2*embed(A):        {np.abs(doubled - 2 * single).max():.2e}")
print("(norm grows with size: that is intentional, size is signal)")

print()
print("=== A candidate pool is one matrix ===")
pool = [parse_smiles(s) for s in
        ("CCO", "CCN", "CCC", "c1ccccc1", "c1ccncc1", "CC(=O)O")]
keys = embed_pool(pool, params)
print(f"keys: {keys.shape}, row norms all 1: "
      f"{np.allclose(np.linalg.norm(keys, axis=1), 1.0, atol=1e-6)}")
sims = keys @ keys.T
print("cosine similarity matrix (untrained weights):")
with np.printoptions(precision=2, suppress=True):
    print(sims)
print("structurally similar pairs already score higher than dissimilar ones")

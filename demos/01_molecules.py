"""Molecules as graphs: parsing, rendering, canonical forms, features.

Walks through the SMILES layer: how a string becomes a typed molecular
graph, why canonical forms make molecule identity a string comparison, and
what the encoder actually sees as input.
"""

import random

from retroselect.chem import (canonical_form, featurize, parse_reaction,
                              parse_smiles, write_smiles)

print("=== Parsing ===")
aspirin = parse_smiles("CC(=O)Oc1ccccc1C(=O)O")
print(f"aspirin: {len(aspirin.atoms)} atoms, {len(aspirin.bonds)} bonds")
for idx, atom in enumerate(aspirin.atoms[:5]):
    print(f"  atom {idx}: {atom.element:>2}  H={atom.implicit_h} "
          f"aromatic={atom.aromatic} in_ring={atom.in_ring}")
print("  ...")

print()
print("=== Many strings, one molecule ===")
renderings = set()
rng = random.Random(0)
for _ in range(8):
    order = list(range(len(aspirin.atoms)))
    rng.shuffle(order)
    renderings.add(write_smiles(aspirin, order))
print(f"8 random DFS orders gave {len(renderings)} distinct SMILES strings:")
for text in sorted(renderings)[:4]:
    print("  ", text)
forms = {canonical_form(parse_smiles(text)) for text in renderings}
print(f"...but all collapse to ONE canonical form: {forms}")

print()
print("=== Reaction lines ===")
line = "CCO.CC(=O)O>[H+]>CC(=O)OCC\t2"
reactants, product, rxn_type = parse_reaction(line)
print(f"{line!r}")
print(f"  -> {len(reactants)} reactants, product "
      f"{canonical_form(product)}, type {rxn_type} (reagent segment dropped)")

print()
print("=== Features the encoder consumes ===")
graph = featurize(parse_smiles("c1ccncc1"))
print(f"pyridine, a graph batch of {graph.n_mols}: atom feature matrix "
      f"{graph.atom_features.shape}, bond features {graph.bond_features.shape}")
print(f"directed edges come in reverse pairs: "
      f"src={graph.edge_src[:4].tolist()} dst={graph.edge_dst[:4].tolist()}")
print("each atom row: element one-hot | degree | charge | H count | "
      "aromatic | ring")

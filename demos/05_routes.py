"""Multi-step retrosynthesis: best-first search down to building blocks.

A two-level world: intermediates join two building blocks, targets join an
intermediate with one more block. Intermediates are selectable candidates
but not purchasable, so the planner must recurse: each expansion replaces
one open molecule with a predicted reactant set, at cost 1 - score.
"""

import tempfile

import numpy as np

from retroselect.chem import parse_smiles
from retroselect.data import MetricsLog
from retroselect.encoder import ModelDims
from retroselect.search import Predictor, route_search
from retroselect.toy import make_route_world
from retroselect.training import TrainConfig, train

with tempfile.TemporaryDirectory(prefix="retroselect_demo_") as directory:
    world = make_route_world(directory, seed=5, n_blocks=25, n_intermediates=12,
                             n_targets=15)
    corpus = world.load()
    with open(world.reaction_paths["test"], encoding="utf-8") as lines:
        targets = [line.split(">>")[1].strip() for line in lines][:4]
print(f"world: {len(world.building_block_forms)} building blocks, "
      f"{len(corpus.candidate_ids)} candidates, "
      f"{len(corpus.reactions['train'])} single-step reactions")

cfg = TrainConfig(batch_size=8, total_iters=500, eval_every=250,
                  refresh_every=125, tau=0.1, hard_k=4, learning_rate=0.01,
                  seed=0, val_cap=40, val_beam=16)
print("training the single-step model (500 iterations)...")
best = train(corpus, cfg, ModelDims(d=32, n_layers=2, n_types=1), MetricsLog())

predictor = Predictor(best, corpus.candidates(),
                      np.array(corpus.candidate_ids),
                      forms=[corpus.form(i) for i in corpus.candidate_ids],
                      beam=32, n_max=3)

print()
for smiles in targets:
    route = route_search(parse_smiles(smiles), world.building_block_forms,
                         predictor, max_expansions=100, k_per_step=5)
    print(f"target {smiles}")
    if route is None:
        print("  no route within budget")
        continue
    print(f"  solved in {len(route.steps)} step(s), cost {route.cost:.3f}")
    for depth, step in enumerate(route.steps, start=1):
        blocks = [f if f in world.building_block_forms else f"[{f}]"
                  for f in step.reactant_forms]
        print(f"    step {depth}: {step.product_form} <= {' . '.join(blocks)} "
              f"(score {step.score:.3f})")
    print("    (bracketed molecules are intermediates that needed a further step)")
    print()

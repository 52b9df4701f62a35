"""Contrastive training on a synthetic fragment world, end to end.

Generates a small world whose products are known joins of candidate
fragments, then trains the selection scores: each step classifies the true
reactants of a product against the other molecules in the batch plus hard
negatives mined from an embedding index that refreshes periodically.
"""

import tempfile

from retroselect.data import MetricsLog
from retroselect.encoder import ModelDims
from retroselect.toy import make_memorization_world
from retroselect.training import TrainConfig, train

with tempfile.TemporaryDirectory(prefix="retroselect_demo_") as directory:
    world = make_memorization_world(directory, seed=11, n_fragments=60,
                                    n_reactions=30, n_distractors=0)
    corpus = world.load()
print(f"world: {len(corpus.reactions['train'])} reactions over "
      f"{len(corpus.candidate_ids)} candidate fragments "
      f"({len(corpus.molecules)} molecules total)")

cfg = TrainConfig(batch_size=8, total_iters=400, eval_every=100,
                  refresh_every=100, tau=0.1, hard_k=4, learning_rate=0.01,
                  seed=0, val_cap=30, val_beam=16)
metrics = MetricsLog()
best = train(corpus, cfg, ModelDims(d=32, n_layers=2, n_types=1), metrics)

print()
print("step  loss_backward  loss_forward  val_top1")
for record in metrics.records:
    if record["step"] % 50 == 0 or "val_top1" in record:
        val = record.get("val_top1")
        print(f"{record['step']:>4}  {record['loss_b']:>13.3f}  "
              f"{record['loss_f']:>12.3f}  "
              f"{'' if val is None else f'{100 * val:.0f}%':>8}")
print()
print("loss_backward: -log p of picking each true reactant (then halting)")
print("loss_forward:  -log q of the true product given the reactant set")
print(f"best checkpoint kept at validation top-1 = "
      f"{100 * max(r.get('val_top1', 0) for r in metrics.records):.0f}%")

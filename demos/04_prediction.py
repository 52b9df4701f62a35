"""Predicting reactant sets: beam search over the pool, then re-ranking.

Selection works backwards: the product query loses one reactant-query
vector per chosen candidate, and a hypothesis finishes when the halt key
outscores every remaining candidate. Finished sets are re-ranked by the
order-free overall score, which averages the selection scores with a
forward synthesizability check.
"""

import tempfile

import numpy as np

from retroselect.data import MetricsLog
from retroselect.encoder import ModelDims
from retroselect.search import Predictor
from retroselect.toy import make_memorization_world
from retroselect.training import TrainConfig, train

with tempfile.TemporaryDirectory(prefix="retroselect_demo_") as directory:
    world = make_memorization_world(directory, seed=11, n_fragments=60,
                                    n_reactions=30, n_distractors=0)
    corpus = world.load()
cfg = TrainConfig(batch_size=8, total_iters=400, eval_every=200,
                  refresh_every=100, tau=0.1, hard_k=4, learning_rate=0.01,
                  seed=0, val_cap=30, val_beam=16)
print("training a small model (400 iterations)...")
best = train(corpus, cfg, ModelDims(d=32, n_layers=2, n_types=1), MetricsLog())

predictor = Predictor(best, corpus.candidates(),
                      np.array(corpus.candidate_ids),
                      forms=[corpus.form(i) for i in corpus.candidate_ids],
                      beam=64, n_max=4)

print()
hits = 0
shown = 0
for record in corpus.reactions["train"][:5]:
    product = corpus.molecule(record.product_id)
    truth = tuple(sorted(corpus.form(i) for i in record.reactant_ids))
    ranked = predictor.predict(product, k=3)
    print(f"product: {corpus.form(record.product_id)}")
    print(f"  truth:  {' . '.join(truth)}")
    for position, scored in enumerate(ranked, start=1):
        forms = tuple(sorted(predictor.form_of_id[i] for i in scored.reactant_ids))
        marker = "  <-- exact match" if forms == truth else ""
        print(f"  #{position} score={scored.score:+.3f}  "
              f"{' . '.join(forms)}{marker}")
        if position == 1 and forms == truth:
            hits += 1
    shown += 1
    print()
print(f"top-1 exact matches on the {shown} products shown: {hits}/{shown}")
print("every predicted reactant is a pool member by construction: "
      "availability is guaranteed, not hoped for")

"""retroselect: selection-based retrosynthesis over a candidate reactant pool.

Molecules are embedded by a message-passing network with separate query and
key heads; reactant sets for a target product are predicted by scored beam
search over the pool and trained with a contrastive objective that mines
hard negatives from an exact cosine index.
"""

from .chem import canonical_form, parse_reaction, parse_smiles, write_smiles
from .data import Corpus, load_checkpoint, load_corpus, save_checkpoint, topk_exact_match
from .encoder import ModelDims, ParamStore, embed_molecule, embed_pool, init_params
from .index import CandidateIndex, hard_neighbors
from .scoring import reaction_score
from .search import Predictor, beam_search, route_search
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "parse_smiles", "parse_reaction", "write_smiles", "canonical_form",
    "ModelDims", "ParamStore", "init_params", "embed_molecule", "embed_pool",
    "CandidateIndex", "hard_neighbors",
    "reaction_score",
    "Predictor", "beam_search", "route_search",
    "TrainConfig", "train",
    "Corpus", "load_corpus", "save_checkpoint", "load_checkpoint",
    "topk_exact_match",
    "__version__",
]

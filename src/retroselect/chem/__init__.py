"""SMILES parsing, canonicalization and featurization."""

from .canon import canonical_form
from .errors import (ChemError, EmptyInput, InvalidCharge, MalformedReaction,
                     MultiFragmentProduct, SmilesError, SmilesSyntaxError,
                     UnbalancedParenthesis, UnclosedRingBond, UnknownElement,
                     ValenceOverflow)
from .featurize import D_ATOM, D_BOND, ELEMENTS, PackedGraphs, featurize, featurize_packed, pack
from .mol import AROMATIC, DOUBLE, SINGLE, TRIPLE, Atom, Bond, Molecule, disjoint_union
from .parser import parse_reaction, parse_smiles
from .writer import write_smiles

__all__ = [
    "Atom", "Bond", "Molecule", "disjoint_union",
    "SINGLE", "DOUBLE", "TRIPLE", "AROMATIC",
    "parse_smiles", "parse_reaction", "write_smiles",
    "canonical_form",
    "featurize", "featurize_packed", "pack", "PackedGraphs",
    "D_ATOM", "D_BOND", "ELEMENTS",
    "ChemError", "SmilesError", "EmptyInput", "SmilesSyntaxError",
    "UnbalancedParenthesis", "UnclosedRingBond", "UnknownElement",
    "InvalidCharge", "ValenceOverflow", "MalformedReaction",
    "MultiFragmentProduct",
]

import pytest
from hypothesis import given, settings, strategies as st

from retroselect.chem import (AROMATIC, ChemError, DOUBLE, EmptyInput,
                              InvalidCharge, MalformedReaction,
                              MultiFragmentProduct, SINGLE, TRIPLE,
                              UnbalancedParenthesis, UnclosedRingBond,
                              UnknownElement, ValenceOverflow, parse_reaction,
                              parse_smiles)


def test_ethanol_graph():
    mol = parse_smiles("CCO")
    assert [a.element for a in mol.atoms] == ["C", "C", "O"]
    assert [(b.a, b.b, b.order) for b in mol.bonds] == [(0, 1, SINGLE), (1, 2, SINGLE)]
    assert [a.implicit_h for a in mol.atoms] == [3, 2, 1]


def test_benzene_graph():
    mol = parse_smiles("c1ccccc1")
    assert len(mol.atoms) == 6
    assert all(a.element == "C" and a.aromatic and a.in_ring for a in mol.atoms)
    assert len(mol.bonds) == 6
    assert all(b.order == AROMATIC and b.in_ring for b in mol.bonds)


def test_bond_orders_and_branches():
    mol = parse_smiles("CC(=O)C#N")
    orders = sorted(b.order for b in mol.bonds)
    assert orders == [SINGLE, SINGLE, DOUBLE, TRIPLE]


def test_ring_closure_percent():
    mol = parse_smiles("C%10CCCC%10")
    assert len(mol.bonds) == 5
    assert all(b.in_ring for b in mol.bonds)


def test_ring_digit_reuse():
    mol = parse_smiles("C1CC1C1CC1")
    assert len([b for b in mol.bonds if b.in_ring]) == 6


def test_bracket_atom_fields():
    atom = parse_smiles("[NH4+]").atoms[0]
    assert (atom.element, atom.formal_charge, atom.total_h) == ("N", 1, 4)
    atom = parse_smiles("[O-]").atoms[0]
    assert (atom.element, atom.formal_charge, atom.total_h) == ("O", -1, 0)
    atom = parse_smiles("[Sn]").atoms[0]
    assert atom.element == "Sn"


def test_stereo_isotope_and_map_discarded():
    mol = parse_smiles("F[C@@H](Cl)Br")
    assert len(mol.atoms) == 4
    assert parse_smiles("[13CH4]").atoms[0].element == "C"
    assert parse_smiles("[CH3:7]O").atoms[0].total_h == 3
    assert len(parse_smiles("C/C=C/C").atoms) == 4


def test_charge_forms():
    assert parse_smiles("[Fe+3]").atoms[0].formal_charge == 3
    assert parse_smiles("[O--]").atoms[0].formal_charge == -2
    assert parse_smiles("[N+2]").atoms[0].formal_charge == 2


@pytest.mark.parametrize("text,error", [
    ("", EmptyInput),
    ("   ", EmptyInput),
    ("C1CC", UnclosedRingBond),
    ("C1CC2C1", UnclosedRingBond),
    ("C(C", UnbalancedParenthesis),
    ("CC)", UnbalancedParenthesis),
    ("[Xx]", UnknownElement),
    ("[J]", UnknownElement),
    ("Q", UnknownElement),
    ("[O-5]", InvalidCharge),
    ("[N+++++]", InvalidCharge),
    ("C(C)(C)(C)(C)C", ValenceOverflow),
    ("O=C=O1CC1" , ValenceOverflow),
    ("CC.O", ChemError),          # dots only via reactions
    ("C==C", ChemError),
    ("C()C", ChemError),
    ("(C)C", ChemError),
    ("=CC", ChemError),
    ("C=", ChemError),
    ("[CH3", ChemError),
    ("C:C", ChemError),           # aromatic bond needs aromatic atoms
    ("C11", ChemError),           # ring self-bond
    ("C1CC1C2CC12", ChemError),   # duplicate ring bond
    ("café", ChemError),     # non-ASCII
])
def test_typed_errors(text, error):
    with pytest.raises(error):
        parse_smiles(text)


def test_aromatic_implicit_hydrogens():
    # One delocalized double bond for aromatic C/N, none for O/S.
    assert [a.implicit_h for a in parse_smiles("c1ccccc1").atoms] == [1] * 6
    pyridine = parse_smiles("c1ccncc1")
    n_atom = next(a for a in pyridine.atoms if a.element == "N")
    assert n_atom.implicit_h == 0
    furan_o = next(a for a in parse_smiles("c1ccoc1").atoms if a.element == "O")
    assert furan_o.implicit_h == 0
    thiophene_s = next(a for a in parse_smiles("c1ccsc1").atoms if a.element == "S")
    assert thiophene_s.implicit_h == 0
    fused = parse_smiles("c1ccc2ccccc2c1")
    assert sum(a.implicit_h for a in fused.atoms) == 8


def test_multivalent_sulfur_phosphorus():
    assert parse_smiles("OS(=O)(=O)O").atoms[1].implicit_h == 0
    assert parse_smiles("CP(C)C").atoms[1].implicit_h == 0
    assert parse_smiles("CSC").atoms[1].implicit_h == 0
    # S with 3 single bonds jumps to the next table valence (4).
    assert parse_smiles("CS(C)C").atoms[1].implicit_h == 1


def test_in_ring_is_bridge_complement():
    mol = parse_smiles("CC1CC1C")
    flags = [(b.a, b.b, b.in_ring) for b in mol.bonds]
    ring_bonds = [f for f in flags if f[2]]
    assert len(ring_bonds) == 3
    assert not mol.atoms[0].in_ring and mol.atoms[1].in_ring


def _ends_connected_without(mol, skipped: int) -> bool:
    """Whether bond ``skipped``'s ends are still joined once it is removed."""
    neighbors = [[] for _ in mol.atoms]
    for bidx, bond in enumerate(mol.bonds):
        if bidx != skipped:
            neighbors[bond.a].append(bond.b)
            neighbors[bond.b].append(bond.a)
    start, goal = mol.bonds[skipped].a, mol.bonds[skipped].b
    reached, frontier = {start}, [start]
    while frontier:
        for u in neighbors[frontier.pop()]:
            if u not in reached:
                reached.add(u)
                frontier.append(u)
    return goal in reached


@pytest.mark.parametrize("smiles", [
    "CC1CC1C",                      # ring with two tails
    "C1CCCCC1",                     # ring
    "c1ccc2ccccc2c1",               # fused rings
    "C1CC2CCC1CC2",                 # bridged bicycle
    "C12C3C4C1C5C2C3C45",           # cage, every bond on a cycle
    "c1ccc(cc1)-c1ccccc1CC1CC1",    # rings joined by bridges
    "CCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC",   # long chain, all bridges
    "C1CC1.CCO.c1ccncc1.[Na+].[Cl-]",             # several fragments
    "C1CC2(C1)CCC1(C2)CC1",         # spiro rings
])
def test_in_ring_matches_bond_removal_oracle(smiles):
    mol = parse_smiles(smiles, allow_fragments=True)
    assert [b.in_ring for b in mol.bonds] == [
        _ends_connected_without(mol, bidx) for bidx in range(len(mol.bonds))]


# --- reaction lines ---

def test_reaction_basic():
    reactants, product, rxn_type = parse_reaction("CCO.CC(=O)O>>CC(=O)OCC\t2")
    assert len(reactants) == 2
    assert len(product.atoms) == 6
    assert rxn_type == 2


def test_reaction_reagents_dropped():
    reactants, product, rxn_type = parse_reaction("CCO>[Na+]>CCBr")
    assert len(reactants) == 1
    assert rxn_type is None


@pytest.mark.parametrize("line,error", [
    ("A>>B>>C", MalformedReaction),
    ("CCO", MalformedReaction),
    ("", MalformedReaction),
    (">>CC", MalformedReaction),
    ("CCO>>C.C", MultiFragmentProduct),
    ("CCO>>", MultiFragmentProduct),
    ("CCO>>CC\tx", MalformedReaction),
    ("CCC.O>>CCCO\t0", MalformedReaction),   # reaction types are 1-based
    ("CCC.O>>CCCO\t-2", MalformedReaction),
])
def test_reaction_errors(line, error):
    with pytest.raises(error):
        parse_reaction(line)


# --- robustness ---

_FUZZ_ALPHABET = "CcNnOoSsPpBbrIlF()[]=#-+:123456789%@/\\.hHxX "


@given(st.text(alphabet=_FUZZ_ALPHABET, min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_fuzz_smiles_typed_errors_only(text):
    try:
        mol = parse_smiles(text)
        mol.validate()
    except ChemError:
        pass


@given(st.binary(min_size=1, max_size=48))
@settings(max_examples=200, deadline=None)
def test_fuzz_bytes_never_crash(blob):
    try:
        parse_smiles(blob.decode("latin-1"))
    except ChemError:
        pass

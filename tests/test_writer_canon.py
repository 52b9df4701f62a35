import hashlib
import random
import sys
import time

import pytest

from retroselect.chem import (canonical_form, disjoint_union, parse_smiles,
                              write_smiles)
from retroselect.toy import make_memorization_world, make_route_world

from helpers import (CORPUS_SMILES, _dense, _initial_ranks, _refine,
                     exhaustive_canonical_form, isomorphic, random_permutation)

TETRA_TERT_BUTYLMETHANE = "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C"
# Central carbon carrying three tri-tert-butylmethyl arms and one tBu: 53 atoms.
NESTED_TBU_DENDRIMER = (
    "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C(C(C)(C)C)(C(C)(C)C)C(C)(C)C)"
    "(C(C(C)(C)C)(C(C)(C)C)C(C)(C)C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C")
C60 = ("c12c3c4c5c1c1c6c7c2c2c8c3c3c9c4c4c%10c5c5c1c1c6c6c%11c7c2c2c7c8c3c3"
       "c8c9c4c4c9c%10c5c5c1c1c6c6c%11c2c2c7c3c3c8c4c4c9c5c1c1c6c2c3c41")

# Fragment grammar for molecules whose interchangeable atoms make the search
# branch: ring templates, and tert-butyl, trifluoromethyl and trimethylsilyl
# groups.
_RINGS = ("cccccc", "nccccc", "scccc", "CCCCCC", "CCNCCC")
_LINKERS = ("", "C", "O", "CC", "C(=O)N", "N")
_SUBSTITUENTS = ("C", "O", "OC", "N", "Cl", "F", "C#N", "C(=O)O", "N(C)C")
_SYMMETRIC_GROUPS = ("C(C)(C)C", "C(F)(F)F", "[Si](C)(C)C")


def test_round_trip_identity():
    mol = parse_smiles("CCO")
    again = parse_smiles(write_smiles(mol))
    assert isomorphic(mol, again)


def test_reversed_order_writes_isomorphic():
    mol = parse_smiles("CCO")
    text = write_smiles(mol, [2, 1, 0])
    assert text.startswith("O")
    assert isomorphic(mol, parse_smiles(text))


def test_hundred_permutations_of_twelve_atom_molecule():
    mol = parse_smiles("CCC(=O)Oc1ccccc1N")  # 12 heavy atoms
    assert len(mol.atoms) == 12
    rng = random.Random(7)
    seen = set()
    for _ in range(100):
        order = random_permutation(len(mol.atoms), rng)
        text = write_smiles(mol, order)
        seen.add(text)
        assert isomorphic(mol, parse_smiles(text)), text
    assert len(seen) > 10  # distinct renderings, same graph


@pytest.mark.parametrize("smiles", CORPUS_SMILES)
def test_round_trip_corpus(smiles):
    mol = parse_smiles(smiles)
    again = parse_smiles(write_smiles(mol))
    assert isomorphic(mol, again)


def test_canonical_merges_renderings():
    assert canonical_form(parse_smiles("OCC")) == canonical_form(parse_smiles("CCO"))
    assert canonical_form(parse_smiles("C(O)C")) == canonical_form(parse_smiles("CCO"))


@pytest.mark.parametrize("smiles", CORPUS_SMILES)
def test_canonical_idempotent(smiles):
    form = canonical_form(parse_smiles(smiles))
    assert canonical_form(parse_smiles(form, allow_fragments=True)) == form


@pytest.mark.parametrize("smiles", CORPUS_SMILES)
def test_canonical_invariant_under_permutation(smiles):
    mol = parse_smiles(smiles)
    base = canonical_form(mol)
    rng = random.Random(hash(smiles) & 0xFFFF)
    for _ in range(50):
        order = random_permutation(len(mol.atoms), rng)
        rewritten = parse_smiles(write_smiles(mol, order))
        assert canonical_form(rewritten) == base


def test_canonical_multi_fragment_sorted():
    a = disjoint_union(parse_smiles("CCO"), parse_smiles("C"))
    b = disjoint_union(parse_smiles("C"), parse_smiles("CCO"))
    assert canonical_form(a) == canonical_form(b)
    assert "." in canonical_form(a)


def test_symmetric_molecules_canonicalize():
    # High-symmetry graphs exercise the tie-break branching.
    ring = "C1" + "C" * 10 + "C1"
    base = canonical_form(parse_smiles(ring))
    mol = parse_smiles(ring)
    rng = random.Random(3)
    for _ in range(10):
        order = random_permutation(len(mol.atoms), rng)
        assert canonical_form(parse_smiles(write_smiles(mol, order))) == base


def test_writer_rejects_bad_permutation():
    mol = parse_smiles("CCO")
    with pytest.raises(Exception):
        write_smiles(mol, [0, 1])


def _ring(rng: random.Random, digit: int, groups: list[str]) -> str:
    """A ring with ``groups`` on random atoms; a linker may follow its last
    atom or precede its first, so those two atoms take no group."""
    tokens = rng.choice(_RINGS)
    subs = dict(zip(rng.sample(range(1, len(tokens) - 1), len(groups)), groups))
    text = ""
    for pos, token in enumerate(tokens):
        text += token + (str(digit) if pos in (0, len(tokens) - 1) else "")
        if pos in subs:
            text += f"({subs[pos]})"
    return text


def _symmetric_molecule(rng: random.Random) -> str:
    """One or two rings with 1-3 symmetric groups and up to one substituent."""
    groups = [rng.choice(_SYMMETRIC_GROUPS) for _ in range(rng.randint(1, 3))]
    groups += [rng.choice(_SUBSTITUENTS)] * rng.randint(0, 1)
    rng.shuffle(groups)
    if rng.random() < 0.3:
        return _ring(rng, 1, groups[:3])
    cut = rng.randint(0, len(groups))
    return (_ring(rng, 1, groups[:cut][:3]) + rng.choice(_LINKERS)
            + _ring(rng, 2, groups[cut:][:3]))


def _symmetric_sample(seed: int, size: int) -> list[str]:
    """Single molecules plus multi-fragment inputs, some with a fragment
    repeated, so fragment order and fragment swaps are exercised too."""
    rng = random.Random(seed)
    out = [_symmetric_molecule(rng) for _ in range(size)]
    for i in range(size // 10):
        first = out[i]
        out.append(f"{first}.{first}" if first.count("(") <= 3
                   else f"{first}.{rng.choice(_SUBSTITUENTS)}")
        out.append(f"{rng.choice(_SYMMETRIC_GROUPS)}.C.C.{rng.choice(_SYMMETRIC_GROUPS)}")
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_pruned_search_matches_exhaustive_on_symmetric_sample(seed):
    for smiles in _symmetric_sample(seed, 60):
        mol = parse_smiles(smiles, allow_fragments=True)
        assert canonical_form(mol) == exhaustive_canonical_form(mol), smiles


def test_pruned_search_matches_exhaustive_on_toy_worlds(tmp_path):
    memorization = make_memorization_world(str(tmp_path / "mem"), seed=3,
                                           n_fragments=80, n_reactions=60,
                                           n_distractors=40)
    routes = make_route_world(str(tmp_path / "route"), seed=3, n_blocks=30,
                              n_intermediates=20, n_targets=30)
    molecules = (memorization.load(include_distractors=True).molecules
                 + routes.load().molecules)
    assert len(molecules) > 200
    for mol in molecules:
        assert canonical_form(mol) == exhaustive_canonical_form(mol)


def test_pruned_search_matches_exhaustive_on_hand_picked():
    cases = CORPUS_SMILES + [
        "CC(C)(C)C(C)(C(C)(C)C)C(C)(C)C",  # tri-tert-butylmethane
        "FC(F)(F)c1cc(C(F)(F)F)cc(C(F)(F)F)c1",
        "C[Si](C)(C)C#C[Si](C)(C)C",
        "C1CC2CCC1CC2.C1CC2CCC1CC2",
        "CC(C)(C)[CH2]C(C)(C)C",      # explicit-H atom among equivalent ones
        "[CH3]C(C)(C)C.CC(C)(C)C",
        "C.C.C.C.C.C",
        "c1ccccc1.c1ccccc1.C1CCCCC1",
        "C12C3C4C1C5C2C3C45",           # cubane
        # Leaves with equal strings whose rank-position map is no automorphism:
        # an explicit-H atom equivalent to a bare one, and three regular
        # components that refinement cannot tell apart.
        "[CH3]C.[CH3]C",
        "C1CCCCCCCCN1.C12C3C4C3C3C1C3C24.C12C3C4C3C1C1C2C41",
    ]
    for smiles in cases:
        mol = parse_smiles(smiles, allow_fragments=True)
        assert canonical_form(mol) == exhaustive_canonical_form(mol), smiles


def test_orbits_use_only_automorphisms_fixing_the_path():
    from retroselect.chem.canon import _Node
    # Atoms 0-2 form the tie class of a node whose path individualized atom 3.
    node = _Node([0, 0, 0, 1, 2], path=[3], tie_rank=0)
    swap_01 = [1, 0, 2, 3, 4]
    swap_12_and_path = [0, 2, 1, 4, 3]  # moves the path atom 3
    node.merge([(swap_01, frozenset({0, 1})),
                (swap_12_and_path, frozenset({1, 2, 3, 4}))])
    assert node.seen(1, [0])
    assert not node.seen(2, [0, 1])


# Every chain up to 64 atoms, then every 16th up to 400: the oracle's own
# refinement is quadratic, so all 400 would take it most of a minute.
_CHAIN_LENGTHS = list(range(1, 65)) + list(range(80, 401, 16))


def test_chains_match_exhaustive():
    for k in _CHAIN_LENGTHS:
        mol = parse_smiles("C" * k)
        assert canonical_form(mol) == exhaustive_canonical_form(mol), k


def test_chain_refinement_work_is_linear():
    # Each round keys the atoms next to a moved one: about 5.5 per atom in
    # all for a chain, where keying every atom every round is quadratic.
    from retroselect.chem.canon import _Search
    for k in (100, 400):
        search = _Search(parse_smiles("C" * k))
        search.best_string()
        assert search.rekeyed <= 8 * k, (k, search.rekeyed)


def test_refinement_ranks_equal_full_rounds():
    """Each refinement, from the initial ranks and from every member of the
    first tie class individualized, gives the ranks of the full-round
    reference, which keys every atom in every round."""
    from retroselect.chem.canon import _Search
    sample = (CORPUS_SMILES + _symmetric_sample(3, 40)
              + ["C" * k for k in (2, 3, 9, 30)] + [".".join(["CC(=O)O"] * 5)])
    for smiles in sample:
        mol = parse_smiles(smiles, allow_fragments=True)
        search = _Search(mol)
        ranks = search._refine(_initial_ranks(mol))
        assert ranks == _refine(mol, _initial_ranks(mol)), smiles
        ties = [r for r in set(ranks) if ranks.count(r) > 1]
        if not ties:
            continue
        for pick in [idx for idx, r in enumerate(ranks) if r == min(ties)]:
            split = _dense([2 * r - (idx == pick) for idx, r in enumerate(ranks)])
            assert search._refine(split, [pick]) == _refine(mol, split), (smiles, pick)


def _best_canon_seconds(smiles: str, repeats: int = 3) -> float:
    """Fastest of a few runs on fresh parses (the form is cached per molecule)."""
    best = float("inf")
    for _ in range(repeats):
        mol = parse_smiles(smiles)
        started = time.perf_counter()
        canonical_form(mol)
        best = min(best, time.perf_counter() - started)
    return best


def test_tetra_tert_butylmethane_is_fast():
    assert _best_canon_seconds(TETRA_TERT_BUTYLMETHANE) < 0.05


def test_nested_tert_butyl_dendrimer_is_fast():
    mol = parse_smiles(NESTED_TBU_DENDRIMER)
    assert len(mol.atoms) == 53
    assert _best_canon_seconds(NESTED_TBU_DENDRIMER) < 1.0


@pytest.mark.parametrize("smiles", [C60, NESTED_TBU_DENDRIMER])
def test_large_symmetric_forms_stable_under_rewrites(smiles):
    mol = parse_smiles(smiles)
    base = canonical_form(mol)
    assert canonical_form(parse_smiles(base)) == base
    rng = random.Random(60)
    for _ in range(20):
        order = random_permutation(len(mol.atoms), rng)
        assert canonical_form(parse_smiles(write_smiles(mol, order))) == base


# sha256 of the forms of ``_pinned_sample``, recorded before the search
# skipped writing automorphic leaves and refinement stopped at a discrete
# partition; both changes keep every form byte-identical.
PINNED_FORMS_SHA256 = "f7636903583f96ea73ef931957c2cc5eee8fa6aba63439ea410fd8bc435a19df"


def _pinned_sample(directory) -> list[str]:
    """Seeded inputs whose forms are pinned: a symmetric sample and every
    molecule of a small memorization world."""
    world = make_memorization_world(str(directory), seed=3, n_fragments=80,
                                    n_reactions=60, n_distractors=40)
    return _symmetric_sample(1, 60) + world.load(include_distractors=True).forms


def test_forms_pinned_on_seeded_sample(tmp_path):
    forms = [canonical_form(parse_smiles(smiles, allow_fragments=True))
             for smiles in _pinned_sample(tmp_path)]
    digest = hashlib.sha256("\n".join(forms).encode()).hexdigest()
    assert digest == PINNED_FORMS_SHA256


def test_one_leaf_string_per_molecule(tmp_path, monkeypatch):
    from retroselect.chem import canon
    sample = _pinned_sample(tmp_path)
    writes = []

    def counted(mol, start_order=None):
        writes.append(len(mol.atoms))
        return write_smiles(mol, start_order)

    monkeypatch.setattr(canon, "write_smiles", counted)
    for smiles in sample:
        canonical_form(parse_smiles(smiles, allow_fragments=True))
    assert len(writes) == len(sample)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("smiles", [".".join(["C"] * 80), C60, NESTED_TBU_DENDRIMER],
                         ids=["80-methanes", "c60", "tbu-dendrimer"])
def test_search_runs_under_a_low_recursion_limit(smiles):
    # The search keeps its own stack, so the depth of the tree (79 picks for
    # 80 methanes) does not reach the interpreter's recursion limit.
    expected = canonical_form(parse_smiles(smiles, allow_fragments=True))
    mol = parse_smiles(smiles, allow_fragments=True)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        form = canonical_form(mol)
    finally:
        sys.setrecursionlimit(limit)
    assert form == expected

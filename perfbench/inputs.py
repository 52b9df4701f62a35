"""Seeded input generators. The library only ever sees what these return.

The same seed always gives the same inputs: every draw comes from a
``random.Random(seed)`` or ``numpy.random.default_rng(seed)`` owned by the
generator.
"""

from __future__ import annotations

import random

import numpy as np

# Ring templates: (atom tokens, attachable flags). An atom is attachable when
# it carries a hydrogen that a substituent can replace.
_RINGS = (
    (("c",) * 6, (True,) * 6),                                  # benzene
    (("n", "c", "c", "c", "c", "c"), (False,) + (True,) * 5),  # pyridine
    (("s", "c", "c", "c", "c"), (False,) + (True,) * 4),       # thiophene
    (("o", "c", "c", "c", "c"), (False,) + (True,) * 4),       # furan
    (("C",) * 6, (True,) * 6),                                  # cyclohexane
    (("N", "C", "C", "C", "C", "C"), (True,) * 6),             # piperidine
    (("C",) * 5, (True,) * 5),                                  # cyclopentane
    (("C", "C", "O", "C", "C", "N"), (True, True, False, True, True, True)),  # morpholine
)
_LINKERS = ("", "C", "CC", "O", "N", "S", "C(=O)N", "OC", "CC(=O)")
_SUBSTITUENTS = ("C", "CC", "O", "OC", "N", "Cl", "F", "Br", "C#N", "C(=O)O",
                 "C(=O)OC", "N(C)C", "CCO", "C=O", "S(=O)(=O)C")

# Groups whose interchangeable atoms make canonicalization branch: tert-butyl,
# trifluoromethyl and trimethylsilyl. Used in turn, so every pool of a given
# size holds the same number of each.
SYMMETRIC_GROUPS = ("C(C)(C)C", "C(F)(F)F", "[Si](C)(C)C")
# Germanium is outside the featurizer's element list, so each such molecule
# adds one clamp warning.
CLAMP_GROUP = "[GeH3]"

# Fixed shares of the ingest pool, by number of symmetric groups carried.
# They are arbitrary: no measured frequency of these groups in a reaction
# corpus backs them. They are set so that the known exponential cost of
# canonicalization shows in the ingest workload; the ingest report gives the
# measured share of load time that each class takes.
SYMMETRIC_SHARES = {1: 0.08, 2: 0.02, 3: 0.005}
CLAMP_SHARE = 0.01


def _ring_smiles(tokens, subs: dict[int, str], digit: int) -> str:
    parts = []
    for pos, token in enumerate(tokens):
        text = token + (str(digit) if pos in (0, len(tokens) - 1) else "")
        if pos in subs:
            text += f"({subs[pos]})"
        parts.append(text)
    return "".join(parts)


def _rotated_ring(rng: random.Random, link_last: bool):
    """A random ring template, rotated so that the atom carrying the linker
    (the last atom if ``link_last``, else the first) is attachable. That atom
    is then marked as taken."""
    tokens, attachable = rng.choice(_RINGS)
    n = len(tokens)
    link = n - 1 if link_last else 0
    shift = rng.choice([s for s in range(n) if attachable[(link + s) % n]])
    order = [(i + shift) % n for i in range(n)]
    tokens = [tokens[i] for i in order]
    attachable = [attachable[i] for i in order]
    attachable[link] = False
    return tokens, attachable


def pool_molecule(rng: random.Random, groups: list[str]) -> str:
    """One SMILES: a ring, usually a linker and a second ring, with 1-3
    small substituents plus every group in ``groups``."""
    two_rings = rng.random() < 0.8 or len(groups) > 2
    a_tokens, a_ok = _rotated_ring(rng, link_last=True)
    sites = [("a", i) for i, ok in enumerate(a_ok) if ok]
    if two_rings:
        b_tokens, b_ok = _rotated_ring(rng, link_last=False)
        sites += [("b", i) for i, ok in enumerate(b_ok) if ok]
    rng.shuffle(sites)
    subs_a: dict[int, str] = {}
    subs_b: dict[int, str] = {}
    extra = [rng.choice(_SUBSTITUENTS) for _ in range(rng.randint(1, 3))]
    for (ring, pos), group in zip(sites, list(groups) + extra):
        (subs_a if ring == "a" else subs_b)[pos] = group
    text = _ring_smiles(a_tokens, subs_a, 1)
    if two_rings:
        text += rng.choice(_LINKERS) + _ring_smiles(b_tokens, subs_b, 2)
    return text


def pool_lines(seed: int, size: int) -> list[tuple[str, str]]:
    """Candidate-pool lines with fixed shares of symmetric and clamp-warning
    molecules, shuffled by the seed: ``(smiles, group class)`` pairs, the
    class being ``"plain"``, ``"sym1"``..``"sym3"`` or ``"germyl"``."""
    rng = random.Random(seed)
    plan: list[tuple[str, list[str]]] = []
    turn = 0
    for n_groups, share in sorted(SYMMETRIC_SHARES.items()):
        for _ in range(round(share * size)):
            plan.append((f"sym{n_groups}",
                         [SYMMETRIC_GROUPS[(turn + j) % 3] for j in range(n_groups)]))
            turn += 1
    plan += [("germyl", [CLAMP_GROUP])] * round(CLAMP_SHARE * size)
    plan += [("plain", [])] * (size - len(plan))
    lines = [(pool_molecule(rng, groups), label) for label, groups in plan]
    rng.shuffle(lines)
    return lines


def large_pool_keys(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """[n, d] float32 raw candidate keys of a synthetic pool."""
    return rng.standard_normal((n, d), dtype=np.float32)


def large_pool_queries(rng: np.random.Generator, h_raw: np.ndarray,
                       halt_key: np.ndarray, n_products: int):
    """Reactant-query rows and planted products for the keys ``h_raw``.

    Returns ``(g_raw, products)``: ``g_raw`` is the keys plus small noise,
    built in place so that at most one extra pool-sized array is alive, and
    there is one ``(planted_ids, f_product, h_product)`` triple per product.
    Each product query is the sum of its planted reactants' queries plus a
    halt direction, so the planted set scores far above random sets of the
    pool. The halt direction has half the norm of one reactant query.
    """
    n, d = h_raw.shape
    g_raw = rng.standard_normal((n, d), dtype=np.float32)
    g_raw *= np.float32(0.1)
    g_raw += h_raw
    halt_unit = np.asarray(halt_key, dtype=np.float64)
    halt_unit = halt_unit / np.linalg.norm(halt_unit)
    products = []
    for _ in range(n_products):
        size = int(rng.integers(2, 4))
        planted = tuple(sorted(int(i) for i in rng.choice(n, size=size, replace=False)))
        g_sum = g_raw[list(planted)].astype(np.float64).sum(axis=0)
        products.append((planted, g_sum + 0.5 * np.sqrt(d) * halt_unit, g_sum))
    return g_raw, products

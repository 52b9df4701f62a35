"""SMILES parser for the organic subset plus bracket atoms.

Supported: bare organic-subset atoms (B C N O P S F Cl Br I), lowercase
aromatic atoms (b c n o p s, plus [se]/[as] in brackets), bracket atoms with
isotope/H-count/charge/atom-map fields, bonds ``- = # :``, branches, ring
closures including ``%nn``, and dot-separated fragments (reactions only).
Stereo markers ``@ / \\`` are accepted and discarded; isotopes and atom maps
are likewise discarded. All failures raise a SmilesError subclass.
"""

from __future__ import annotations

from .errors import (EmptyInput, InvalidCharge, MalformedReaction,
                     MultiFragmentProduct, SmilesSyntaxError,
                     UnbalancedParenthesis, UnclosedRingBond, UnknownElement)
from .mol import AROMATIC, AROMATIC_OK, DOUBLE, SINGLE, TRIPLE, Atom, Bond, Molecule

ORGANIC_SUBSET = frozenset(["B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"])
AROMATIC_ORGANIC = frozenset(["b", "c", "n", "o", "p", "s"])

# All element symbols accepted inside brackets. Anything else is UnknownElement.
PERIODIC_TABLE = frozenset(
    "H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni "
    "Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I "
    "Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt "
    "Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr "
    "Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og".split())

AROMATIC_BRACKET = frozenset(["b", "c", "n", "o", "p", "s", "se", "as"])

_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}


def parse_smiles(text: str, allow_fragments: bool = False) -> Molecule:
    """Parse a SMILES string into a finalized Molecule.

    Dots are rejected unless ``allow_fragments`` is set (reaction sides are
    split on dots before reaching here; multi-fragment Molecules are only
    built internally, e.g. when re-parsing a dotted canonical form).
    """
    if text is None or text.strip() == "":
        raise EmptyInput("empty SMILES input")
    text = text.strip()
    if not text.isascii():
        raise SmilesSyntaxError("SMILES must be ASCII")
    return _Parser(text, allow_fragments).run()


def parse_reaction(line: str) -> tuple[list[Molecule], Molecule, int | None]:
    """Parse a reaction line ``R1.R2>>P`` or ``R1>reagents>P`` with an
    optional trailing tab-separated reaction type, an integer from 1.

    The reagent segment is discarded. Multi-fragment products are rejected.
    """
    if line is None or line.strip() == "":
        raise MalformedReaction("empty reaction line")
    line = line.strip()
    rxn_type: int | None = None
    if "\t" in line:
        line, _, tail = line.partition("\t")
        tail = tail.strip()
        if tail:
            try:
                rxn_type = int(tail)
            except ValueError:
                raise MalformedReaction(f"bad reaction type field {tail!r}")
            if rxn_type < 1:
                raise MalformedReaction(f"reaction type {rxn_type} is below 1")
    parts = line.split(">")
    if len(parts) != 3:
        raise MalformedReaction(
            f"expected exactly one '>>' or '>reagents>' arrow, got {line!r}")
    reactant_part, _reagents, product_part = parts
    product_frags = [p for p in product_part.split(".") if p]
    if len(product_frags) != 1:
        raise MultiFragmentProduct(
            f"product side has {len(product_frags)} fragments: {product_part!r}")
    reactants = [parse_smiles(frag) for frag in reactant_part.split(".") if frag]
    if not reactants:
        raise MalformedReaction(f"no reactants in {line!r}")
    product = parse_smiles(product_frags[0])
    return reactants, product, rxn_type


class _Parser:
    def __init__(self, text: str, allow_fragments: bool):
        self.text = text
        self.pos = 0
        self.allow_fragments = allow_fragments
        self.atoms: list[Atom] = []
        self.bonds: list[Bond] = []
        self.bond_keys: set[tuple[int, int]] = set()
        self.prev: int | None = None          # atom awaiting the next bond
        self.pending: int | None = None       # explicit bond code, if any
        self.branch_stack: list[int | None] = []
        self.open_rings: dict[int, tuple[int, int | None]] = {}  # digit -> (atom, bond)

    def error_context(self) -> str:
        return f" at position {self.pos} in {self.text!r}"

    def run(self) -> Molecule:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in _BOND_CHARS:
                # ':' outside brackets is always a bond (bracket atom maps
                # are consumed inside _read_bracket).
                self._read_bond(ch)
            elif ch == "(":
                self._open_branch()
            elif ch == ")":
                self._close_branch()
            elif ch == "[":
                self._add_atom(*self._read_bracket())
            elif ch.isdigit() or ch == "%":
                self._ring_bond()
            elif ch == ".":
                self._fragment_break()
            elif ch in "/\\":
                # Cis/trans markers carry bond order single; geometry dropped.
                self._read_bond("-")
            elif ch == "@":
                raise SmilesSyntaxError("chirality marker outside brackets"
                                        + self.error_context())
            else:
                self._add_atom(*self._read_bare_atom())
        if self.branch_stack:
            raise UnbalancedParenthesis(
                f"{len(self.branch_stack)} unclosed '('" + self.error_context())
        if self.open_rings:
            digits = sorted(self.open_rings)
            raise UnclosedRingBond(f"ring bond(s) {digits} never closed in {self.text!r}")
        if self.pending is not None:
            raise SmilesSyntaxError("dangling bond symbol" + self.error_context())
        if not self.atoms:
            raise SmilesSyntaxError(f"no atoms in {self.text!r}")
        mol = Molecule(self.atoms, self.bonds, self.text).finalize()
        mol.validate()
        return mol

    # --- token handlers ---

    def _read_bond(self, ch: str) -> None:
        if self.pending is not None:
            raise SmilesSyntaxError("two bond symbols in a row" + self.error_context())
        if self.prev is None:
            raise SmilesSyntaxError("bond symbol with no preceding atom"
                                    + self.error_context())
        self.pending = _BOND_CHARS[ch]
        self.pos += 1

    def _open_branch(self) -> None:
        if self.prev is None:
            raise SmilesSyntaxError("branch with no preceding atom" + self.error_context())
        if self.pending is not None:
            raise SmilesSyntaxError("bond symbol before '('" + self.error_context())
        self.branch_stack.append(self.prev)
        self.pos += 1

    def _close_branch(self) -> None:
        if not self.branch_stack:
            raise UnbalancedParenthesis("')' without '('" + self.error_context())
        if self.pending is not None:
            raise SmilesSyntaxError("dangling bond before ')'" + self.error_context())
        if self.prev is None or self.prev == self.branch_stack[-1]:
            raise SmilesSyntaxError("empty branch" + self.error_context())
        self.prev = self.branch_stack.pop()
        self.pos += 1

    def _fragment_break(self) -> None:
        if not self.allow_fragments:
            raise SmilesSyntaxError("fragment dot not allowed here" + self.error_context())
        if self.pending is not None:
            raise SmilesSyntaxError("bond symbol before '.'" + self.error_context())
        if self.branch_stack:
            raise SmilesSyntaxError("'.' inside branch" + self.error_context())
        if self.open_rings:
            # Daylight permits cross-fragment ring closure; we do not.
            digits = sorted(self.open_rings)
            raise UnclosedRingBond(f"ring bond(s) {digits} open across '.'")
        if self.prev is None:
            raise SmilesSyntaxError("empty fragment" + self.error_context())
        self.prev = None
        self.pos += 1

    def _ring_bond(self) -> None:
        if self.prev is None:
            raise SmilesSyntaxError("ring digit with no preceding atom"
                                    + self.error_context())
        ch = self.text[self.pos]
        if ch == "%":
            digits = self.text[self.pos + 1:self.pos + 3]
            if len(digits) != 2 or not digits.isdigit():
                raise SmilesSyntaxError("'%' needs two digits" + self.error_context())
            number = int(digits)
            self.pos += 3
        else:
            number = int(ch)
            self.pos += 1
        bond_code = self.pending
        self.pending = None
        if number in self.open_rings:
            other, open_code = self.open_rings.pop(number)
            if bond_code is not None and open_code is not None and bond_code != open_code:
                raise SmilesSyntaxError(
                    f"conflicting bond orders on ring closure {number}")
            code = bond_code if bond_code is not None else open_code
            self._bond(other, self.prev, code)
        else:
            self.open_rings[number] = (self.prev, bond_code)

    def _add_atom(self, atom: Atom, consumed: int) -> None:
        self.atoms.append(atom)
        idx = len(self.atoms) - 1
        if self.prev is not None:
            self._bond(self.prev, idx, self.pending)
        elif self.pending is not None:
            raise SmilesSyntaxError("bond with no left atom" + self.error_context())
        self.pending = None
        self.prev = idx
        self.pos += consumed

    def _bond(self, a: int, b: int, code: int | None) -> None:
        if a == b:
            raise SmilesSyntaxError(f"self-bond on atom {a} in {self.text!r}")
        if code is None:
            both_aromatic = self.atoms[a].aromatic and self.atoms[b].aromatic
            code = AROMATIC if both_aromatic else SINGLE
        if code == AROMATIC and not (self.atoms[a].aromatic and self.atoms[b].aromatic):
            raise SmilesSyntaxError(
                f"aromatic bond between non-aromatic atoms {a},{b} in {self.text!r}")
        key = (min(a, b), max(a, b))
        if key in self.bond_keys:
            raise SmilesSyntaxError(f"duplicate bond {key} in {self.text!r}")
        self.bond_keys.add(key)
        self.bonds.append(Bond(a, b, code))

    def _read_bare_atom(self) -> tuple[Atom, int]:
        text, pos = self.text, self.pos
        two = text[pos:pos + 2]
        if two in ("Cl", "Br"):
            return Atom(two), 2
        ch = text[pos]
        if ch in AROMATIC_ORGANIC:
            return Atom(ch.upper(), aromatic=True), 1
        if ch.isupper() and ch in ORGANIC_SUBSET:
            return Atom(ch), 1
        raise UnknownElement(f"unexpected character {ch!r}" + self.error_context())

    def _read_bracket(self) -> tuple[Atom, int]:
        text = self.text
        end = text.find("]", self.pos)
        if end < 0:
            raise SmilesSyntaxError("missing ']'" + self.error_context())
        body = text[self.pos + 1:end]
        consumed = end - self.pos + 1
        i = 0
        # Isotope: discarded.
        while i < len(body) and body[i].isdigit():
            i += 1
        if i > 3:
            raise SmilesSyntaxError(f"bad isotope in [{body}]")
        # Element symbol, possibly aromatic lowercase.
        aromatic = False
        rest = body[i:]
        symbol = None
        for cand in (rest[:2], rest[:1]):
            if not cand:
                continue
            if cand in AROMATIC_BRACKET and (cand[:1].islower()):
                symbol, aromatic = cand.capitalize(), True
                break
            if cand[:1].isupper() and cand in PERIODIC_TABLE:
                symbol = cand
                break
        if symbol is None:
            raise UnknownElement(f"unknown element in [{body}]")
        if aromatic and symbol not in AROMATIC_OK:
            raise UnknownElement(f"element {symbol} cannot be aromatic")
        i += len(symbol)
        # Chirality: discarded.
        while i < len(body) and body[i] == "@":
            i += 1
        # Explicit hydrogen count, default 0 when absent.
        explicit_h = 0
        if i < len(body) and body[i] == "H":
            i += 1
            start = i
            while i < len(body) and body[i].isdigit():
                i += 1
            explicit_h = int(body[start:i]) if i > start else 1
        # Charge: '+'/'-' runs or a signed digit count.
        charge = 0
        if i < len(body) and body[i] in "+-":
            sign = 1 if body[i] == "+" else -1
            symbol_char = body[i]
            run = 0
            while i < len(body) and body[i] == symbol_char:
                run += 1
                i += 1
            if i < len(body) and body[i].isdigit():
                if run != 1:
                    raise InvalidCharge(f"malformed charge in [{body}]")
                start = i
                while i < len(body) and body[i].isdigit():
                    i += 1
                charge = sign * int(body[start:i])
            else:
                charge = sign * run
            if not -4 <= charge <= 4:
                raise InvalidCharge(f"charge {charge} outside [-4, 4] in [{body}]")
        # Atom map: discarded.
        if i < len(body) and body[i] == ":":
            i += 1
            start = i
            while i < len(body) and body[i].isdigit():
                i += 1
            if i == start:
                raise SmilesSyntaxError(f"bad atom map in [{body}]")
        if i != len(body):
            raise SmilesSyntaxError(f"trailing junk {body[i:]!r} in [{body}]")
        return Atom(symbol, charge, explicit_h, aromatic), consumed

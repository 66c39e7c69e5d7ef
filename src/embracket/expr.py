"""Symbolic expression core for indexed tensor algebra in three spatial dimensions.

Every ``Expr`` is held in canonical form at all times: a sum of monomials,
each monomial carrying an exact rational coefficient, a power product of the
opaque symbolic constants e, m, c, and a sorted tuple of indexed atoms.
Canonicalization

* contracts Kronecker deltas against summed indices and evaluates them on
  concrete ones,
* evaluates Levi-Civita symbols with concrete indices, expands the summed
  index of an epsilon that already holds a concrete one, and rewrites a
  product of two epsilons sharing a summed index into delta combinations,
* relabels summed (dummy) indices into a fixed alphabet, choosing the
  lexicographically minimal relabeling so that monomials that differ only by
  a dummy permutation collide (and cancel when the permutation flips the
  epsilon sign),
* collects like monomials with exact rational arithmetic.

The minimal relabeling is found by an exact depth-first branch and bound
rather than by trying all n! relabelings of n dummies.  The pool names are
handed out in increasing order, and level d of the search decides which
remaining dummy receives the d-th smallest name.  A node's lower bound
renames every still-unassigned dummy to a sentinel just above the last name
handed out (``name + "\\x00"``), then normalizes and sorts as for a leaf.
Sorting the slots inside an atom and sorting the atoms are both monotone in
the index values, so no completion of the node sorts below that bound.
Children are visited in bound order and cut only when their bound exceeds
the best key found so far.  A bound still holds a sentinel, so it never
equals a complete key, and every minimizer stays in an uncut subtree: the
signs of all minimizers decide whether the term vanishes by antisymmetry.
A child is skipped when swapping its dummy with that of an already searched
sibling of equal bound maps the term onto itself with the same sign, since
the two subtrees then yield the same keys and signs.  With three or fewer
dummies left their permutations are enumerated outright.

The delta and epsilon rewrites are three rules in one tuple, tried in
priority order: ``_delta_rule``, ``_eps_rule``, ``_eps_pair_rule``, each
acting on the first delta, epsilon or epsilon pair by position it applies
to.  ``_canonicalize_terms`` keeps one last-in-first-out worklist, raw terms
taken in input order: it drops a zero term, rejects a name occurring more
than twice, replaces a term by what the first applicable rule returns, and
hands a term no rule changes to ``_canonical_term``.

An index-free term, one with no symbolic name and no delta or epsilon atom
(every DSL-parsed field and force is a sum of such terms), skips the rules
and the relabeling search: no rule applies to it, it has no dummy to
relabel and no epsilon sign, so its canonical form is its atoms normalized
and sorted.  Likewise ``_term_pairs`` renames summed indices apart only
when both terms of a pair carry a symbolic name, since nothing else clashes.

Every sum of canonical expressions goes through one private ``_sum``: it
chains the terms of all addends and collects them once, building each
term's sort key once, so an n-term accumulation costs one O(n log n) sort
rather than a re-sort of the running total per addend.  ``partial`` writes
each differentiated term raw and canonicalizes the whole derivative once.

Indices are either concrete (1, 2, 3) or symbolic names.  A symbolic index
occurring twice in a monomial is summed per the Einstein convention; more
than two occurrences raises :class:`IndexConventionError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Index = Union[int, str]

SPATIAL_RANGE = (1, 2, 3)

VECTOR_FAMILIES = ("E", "B", "A")
SCALAR_FAMILIES = ("A0", "U", "f")

# Families whose components flip sign under spatial inversion.  B is an
# axial vector and stays put; scalars stay put.  Each spatial derivative
# contributes one extra sign flip.
_PARITY_ODD_FAMILIES = frozenset({"E", "A"})


class ExprError(Exception):
    """Base class for symbolic-layer errors."""


class IndexConventionError(ExprError):
    """An index appears more than twice in a monomial, or is out of range."""


class UnboundSymbolError(ExprError):
    """Evaluation or substitution hit a symbol with no binding."""


class UnsupportedOperandError(ExprError):
    """An operation received an expression kind it cannot reduce."""


class NonPolynomialError(ExprError):
    """Division or exponentiation would leave the polynomial ring."""


def _index_key(i: Index | None) -> tuple:
    if i is None:
        return (-1, 0, "")
    if isinstance(i, int):
        return (0, i, "")
    return (1, 0, i)


def _check_index(i: Index) -> Index:
    if isinstance(i, int):
        if i not in SPATIAL_RANGE:
            raise IndexConventionError(f"concrete index {i} outside 1..3")
        return i
    if isinstance(i, str) and i:
        return i
    raise IndexConventionError(f"bad index {i!r}")


# Derivative variables attached to field atoms: ('q', i), ('x', i), ('t', None).
DVar = tuple

_DVAR_RANK = {"q": 0, "x": 1, "t": 2}


def _dvar_key(dv: DVar) -> tuple:
    return (_DVAR_RANK[dv[0]],) + _index_key(dv[1])


_VAR_KIND_RANK = {"t": 0, "q": 1, "x": 2, "v": 3, "a": 4}


@dataclass(frozen=True)
class Var:
    """A coordinate-like symbol: t, q_i, x_i, v_i, or the acceleration a_i."""

    kind: str
    index: Index | None = None

    def key(self) -> tuple:
        return (2, _VAR_KIND_RANK[self.kind], "", 0) + _index_key(self.index)


@dataclass(frozen=True)
class Scalar:
    """An opaque scalar field A0, U, or f of (position, t), possibly differentiated."""

    family: str
    derivs: tuple = ()

    def key(self) -> tuple:
        return (3, 0, self.family, len(self.derivs), 0, 0, "") + tuple(
            itertools.chain.from_iterable(_dvar_key(d) for d in self.derivs)
        )


@dataclass(frozen=True)
class Field:
    """One component of an opaque vector field E, B, or A, possibly differentiated."""

    family: str
    index: Index
    derivs: tuple = ()

    def key(self) -> tuple:
        return (4, 0, self.family, len(self.derivs)) + _index_key(self.index) + tuple(
            itertools.chain.from_iterable(_dvar_key(d) for d in self.derivs)
        )


@dataclass(frozen=True)
class Delta:
    """Kronecker delta on two spatial indices."""

    a: Index
    b: Index

    def key(self) -> tuple:
        return (0, 0, "", 0) + _index_key(self.a) + _index_key(self.b)


@dataclass(frozen=True)
class Eps:
    """Levi-Civita symbol on three spatial indices."""

    a: Index
    b: Index
    c: Index

    def key(self) -> tuple:
        return (1, 0, "", 0) + _index_key(self.a) + _index_key(self.b) + _index_key(self.c)


Atom = Union[Var, Scalar, Field, Delta, Eps]

# A term is (coefficient, (pow_e, pow_m, pow_c), atoms).
Term = tuple


def _atom_indices(atom: Atom) -> list[Index]:
    if isinstance(atom, Var):
        return [] if atom.index is None else [atom.index]
    if isinstance(atom, Delta):
        return [atom.a, atom.b]
    if isinstance(atom, Eps):
        return [atom.a, atom.b, atom.c]
    if isinstance(atom, Field):
        return [atom.index] + [d[1] for d in atom.derivs if d[1] is not None]
    if isinstance(atom, Scalar):
        return [d[1] for d in atom.derivs if d[1] is not None]
    raise TypeError(f"not an atom: {atom!r}")


def _rename_idx(i: Index | None, mapping: Mapping[str, Index]) -> Index | None:
    if isinstance(i, str):
        return mapping.get(i, i)
    return i


def _rename_atom(atom: Atom, mapping: Mapping[str, Index]) -> Atom:
    if isinstance(atom, Var):
        return Var(atom.kind, _rename_idx(atom.index, mapping))
    if isinstance(atom, Delta):
        return Delta(_rename_idx(atom.a, mapping), _rename_idx(atom.b, mapping))
    if isinstance(atom, Eps):
        return Eps(
            _rename_idx(atom.a, mapping),
            _rename_idx(atom.b, mapping),
            _rename_idx(atom.c, mapping),
        )
    if isinstance(atom, Field):
        return Field(
            atom.family,
            _rename_idx(atom.index, mapping),
            tuple((d[0], _rename_idx(d[1], mapping)) for d in atom.derivs),
        )
    if isinstance(atom, Scalar):
        return Scalar(
            atom.family,
            tuple((d[0], _rename_idx(d[1], mapping)) for d in atom.derivs),
        )
    raise TypeError(f"not an atom: {atom!r}")


def _sort3_signed(seq: Sequence[Index]) -> tuple[int, tuple]:
    """Sort three indices, returning the permutation parity as +1/-1."""
    items = list(seq)
    sign = 1
    for i in range(2):
        for j in range(2 - i):
            if _index_key(items[j]) > _index_key(items[j + 1]):
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign, tuple(items)


def _normalize_atom(atom: Atom) -> tuple[int, Atom]:
    """Bring an atom's internal slots into sorted order, tracking epsilon parity."""
    if isinstance(atom, Delta):
        if _index_key(atom.a) > _index_key(atom.b):
            return 1, Delta(atom.b, atom.a)
        return 1, atom
    if isinstance(atom, Eps):
        sign, (a, b, c) = _sort3_signed((atom.a, atom.b, atom.c))
        return sign, Eps(a, b, c)
    if isinstance(atom, Field) and len(atom.derivs) > 1:
        return 1, Field(atom.family, atom.index, tuple(sorted(atom.derivs, key=_dvar_key)))
    if isinstance(atom, Scalar) and len(atom.derivs) > 1:
        return 1, Scalar(atom.family, tuple(sorted(atom.derivs, key=_dvar_key)))
    return 1, atom


def _name_counts(atoms: Iterable[Atom]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for atom in atoms:
        for idx in _atom_indices(atom):
            if isinstance(idx, str):
                counts[idx] = counts.get(idx, 0) + 1
    return counts


_EPS_SIGN = {p: _sort3_signed(p)[0] for p in itertools.permutations(SPATIAL_RANGE)}

_gensym_counter = itertools.count()


def _fresh_name() -> str:
    return f"~{next(_gensym_counter)}"


def _delta_rule(coeff: Fraction, atoms: tuple, counts: Mapping[str, int]) -> list | None:
    """Remove the first Kronecker delta that can go: concrete, traced or contracted."""
    for pos, atom in enumerate(atoms):
        if not isinstance(atom, Delta):
            continue
        a, b = atom.a, atom.b
        rest = atoms[:pos] + atoms[pos + 1:]
        if isinstance(a, int) and isinstance(b, int):
            return [(coeff, rest)] if a == b else []
        if a == b:  # same symbolic name twice: the trace over 3 dims
            return [(coeff * 3, rest)]
        for first, second in ((a, b), (b, a)):
            if isinstance(first, str) and counts[first] == 2:
                return [(coeff, tuple(_rename_atom(x, {first: second}) for x in rest))]
    return None


def _eps_rule(coeff: Fraction, atoms: tuple, counts: Mapping[str, int]) -> list | None:
    """Rewrite the first epsilon that can go: a repeated slot makes the term 0,
    concrete slots give its sign, and a summed index beside a concrete one is
    expanded over 1, 2, 3."""
    for pos, atom in enumerate(atoms):
        if not isinstance(atom, Eps):
            continue
        slots = (atom.a, atom.b, atom.c)
        if len(set(slots)) < 3:
            return []
        if all(isinstance(s, int) for s in slots):
            return [(coeff * _EPS_SIGN[slots], atoms[:pos] + atoms[pos + 1:])]
        dummy = next((s for s in slots if isinstance(s, str) and counts[s] == 2), None)
        if dummy is not None and any(isinstance(s, int) for s in slots):
            return [
                (coeff, tuple(_rename_atom(x, {dummy: val}) for x in atoms))
                for val in SPATIAL_RANGE
            ]
    return None


def _eps_pair_rule(coeff: Fraction, atoms: tuple, counts: Mapping[str, int]) -> list | None:
    """Rewrite the first two epsilons sharing a summed index n by
    eps_nab eps_ncd = delta_ac delta_bd - delta_ad delta_bc."""
    eps_positions = [i for i, a in enumerate(atoms) if isinstance(a, Eps)]
    for i1, i2 in itertools.combinations(eps_positions, 2):
        e1, e2 = atoms[i1], atoms[i2]
        slots1, slots2 = (e1.a, e1.b, e1.c), (e2.a, e2.b, e2.c)
        shared = sorted(s for s in slots1 if isinstance(s, str) and counts[s] == 2 and s in slots2)
        if not shared:
            continue
        # the two slots after n in cyclic (even) order
        k1, k2 = slots1.index(shared[0]), slots2.index(shared[0])
        a1, b1 = slots1[(k1 + 1) % 3], slots1[(k1 + 2) % 3]
        a2, b2 = slots2[(k2 + 1) % 3], slots2[(k2 + 2) % 3]
        rest = tuple(a for i, a in enumerate(atoms) if i not in (i1, i2))
        return [
            (coeff, rest + (Delta(a1, a2), Delta(b1, b2))),
            (-coeff, rest + (Delta(a1, b2), Delta(b1, a2))),
        ]
    return None


# Delta/epsilon rewrites in priority order.  Each takes (coeff, atoms, name
# counts) and returns the (coeff, atoms) terms that replace the term, or None
# when it does not apply.  Deltas go first: they only ever shrink the term.
_RULES = (_delta_rule, _eps_rule, _eps_pair_rule)


# Dummy indices are relabeled into this pool (skipping any name already free
# in the monomial); it grows on demand.
_DUMMY_POOL = ("i", "j", "k", "l", "s", "r", "u", "w", "y", "z")


def _dummy_pool(n: int, frees: set[str]) -> list[str]:
    pool = [x for x in _DUMMY_POOL if x not in frees]
    k = 1
    while len(pool) < n:
        for base in _DUMMY_POOL:
            cand = f"{base}{k}"
            if cand not in frees:
                pool.append(cand)
        k += 1
    return pool[:n]


def _normalized(atoms: Iterable[Atom]) -> tuple[int, tuple]:
    """Sort each atom's slots and then the atoms; return the epsilon parity too."""
    sign = 1
    norm = []
    for a in atoms:
        s, na = _normalize_atom(a)
        sign *= s
        norm.append(na)
    norm.sort(key=lambda a: a.key())
    return sign, tuple(norm)


# With at most this many unassigned dummies left the search enumerates their
# permutations outright: a bound costs as much as a leaf there.
_DIRECT_DUMMIES = 3


def _canonical_term(coeff: Fraction, cpow: tuple, atoms: Sequence[Atom]) -> Term | None:
    """Relabel dummies, sort atoms, fix epsilon parity.  None means the term is 0.

    Branch and bound over the relabelings (see the module docstring): level
    d decides which remaining dummy receives the d-th smallest pool name.
    """
    counts = _name_counts(atoms)
    dummies = sorted(n for n, k in counts.items() if k == 2)
    frees = {n for n, k in counts.items() if k == 1}

    if not dummies:
        sign, norm = _normalized(atoms)
        return (coeff * sign, cpow, norm)

    names = sorted(_dummy_pool(len(dummies), frees))
    best_key = None
    best_atoms = None
    best_signs: set[int] = set()

    def relabeled(mapping: Mapping[str, str]) -> tuple[int, tuple, tuple]:
        sign, norm = _normalized(_rename_atom(a, mapping) for a in atoms)
        return sign, norm, tuple(a.key() for a in norm)

    unchanged = _normalized(atoms) if len(dummies) > _DIRECT_DUMMIES else None
    swaps: dict[tuple, bool] = {}

    def symmetric(x: str, y: str) -> bool:
        """Swapping dummies x and y leaves the term unchanged, sign included."""
        if (x, y) not in swaps:
            swaps[x, y] = relabeled({x: y, y: x})[:2] == unchanged
        return swaps[x, y]

    def search(mapping: dict[str, str], left: list[str]) -> None:
        nonlocal best_key, best_atoms, best_signs
        depth = len(mapping)
        if len(left) <= _DIRECT_DUMMIES:
            for perm in itertools.permutations(names[depth:]):
                sign, norm, key = relabeled({**mapping, **dict(zip(left, perm))})
                if best_key is None or key < best_key:
                    best_key, best_atoms, best_signs = key, norm, {sign}
                elif key == best_key:
                    best_signs.add(sign)
            return
        name = names[depth]
        sentinel = name + "\x00"
        children = []
        for dummy in left:
            child = {**mapping, dummy: name}
            rest = [x for x in left if x != dummy]
            bound = relabeled({**child, **dict.fromkeys(rest, sentinel)})[2]
            children.append((bound, dummy, child, rest))
        children.sort(key=lambda ch: ch[:2])
        searched: list[tuple] = []
        for bound, dummy, child, rest in children:
            # a bound holds a sentinel, so it never ties a complete key: every
            # minimizer, of either sign, stays in an uncut subtree
            if best_key is not None and bound > best_key:
                break
            # a sibling that a symmetry of the term maps onto a searched one adds nothing
            if any(b == bound and symmetric(x, dummy) for b, x in searched):
                continue
            searched.append((bound, dummy))
            search(child, rest)

    search({}, dummies)
    if len(best_signs) == 2:
        return None
    return (coeff * best_signs.pop(), cpow, best_atoms)


def _collect(terms: Iterable[Term]) -> tuple[Term, ...]:
    """Add like terms and sort by (atom keys, powers); each key is built once."""
    acc: dict[tuple, Term] = {}
    for coeff, cpow, atoms in terms:
        key = (tuple(a.key() for a in atoms), cpow)
        prev = acc.get(key)
        acc[key] = (coeff if prev is None else prev[0] + coeff, cpow, atoms)
    return tuple(t for _, t in sorted(acc.items()) if t[0] != 0)


def _sum(exprs: Iterable["Expr"]) -> "Expr":
    """The sum of canonical expressions, collected once."""
    return Expr(
        _collect(itertools.chain.from_iterable(e.terms for e in exprs)), _canonical=True
    )


def _canonicalize_terms(raw: Iterable[Term]) -> tuple[Term, ...]:
    pieces: list[Term] = []
    work = list(raw)[::-1]  # popped last first: raw terms in input order
    while work:
        coeff, cpow, atoms = work.pop()
        if coeff == 0:
            continue
        counts = _name_counts(atoms)
        if not counts and not any(isinstance(a, (Delta, Eps)) for a in atoms):
            # index-free: no rule applies, no dummy to relabel, no epsilon sign
            pieces.append((coeff, cpow, _normalized(atoms)[1]))
            continue
        for name, n in counts.items():
            if n > 2:
                raise IndexConventionError(f"index {name!r} appears {n} times in one monomial")
        for rule in _RULES:
            out = rule(coeff, atoms, counts)
            if out is not None:
                work.extend((c, cpow, ats) for c, ats in out)
                break
        else:
            ct = _canonical_term(coeff, cpow, atoms)
            if ct is not None:
                pieces.append(ct)
    return _collect(pieces)


def _rename_dummies_apart(term: Term, taken: set[str]) -> Term:
    """Alpha-rename a term's summed indices away from a set of visible names."""
    coeff, cpow, atoms = term
    counts = _name_counts(atoms)
    clash = [n for n, k in counts.items() if k == 2 and n in taken]
    if not clash:
        return term
    mapping = {n: _fresh_name() for n in clash}
    return (coeff, cpow, tuple(_rename_atom(a, mapping) for a in atoms))


def _term_pairs(a: "Expr", b: "Expr"):
    """Every pair of terms of a and b as (coeff, cpow, atoms_a, atoms_b).

    Summed indices are renamed apart so that only the free indices the two
    factors share contract in their product.  Each term's name set is built
    once, and a pair is renamed only when both of its terms carry a symbolic
    name: with none on either side nothing can clash.
    """
    named_b = [(tb, set(_name_counts(tb[2]))) for tb in b.terms]
    for ta in a.terms:
        names_a = set(_name_counts(ta[2]))
        for tb, names_b in named_b:
            ta2, tb2 = ta, tb
            if names_a and names_b:
                ta2 = _rename_dummies_apart(ta, names_b)
                tb2 = _rename_dummies_apart(tb, names_a | set(_name_counts(ta2[2])))
            cpow = tuple(x + y for x, y in zip(ta2[1], tb2[1]))
            yield ta2[0] * tb2[0], cpow, ta2[2], tb2[2]


class Expr:
    """An immutable symbolic expression in canonical form.

    Supports +, -, *, ** (integer exponents) and / (by invertible constant
    monomials).  Equality and hashing are structural on the canonical form,
    so two expressions compare equal exactly when canonicalization proves
    them identical.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Term, ...] = (), _canonical: bool = False):
        if not _canonical:
            terms = _canonicalize_terms(terms)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *args):
        raise AttributeError("Expr is immutable")

    # -- core predicates ------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def free_indices(self) -> set[str]:
        frees: set[str] = set()
        for _, _, atoms in self.terms:
            frees.update(n for n, k in _name_counts(atoms).items() if k == 1)
        return frees

    def atoms(self) -> Iterable[Atom]:
        for _, _, ats in self.terms:
            yield from ats

    def has_kind(self, *kinds: str) -> bool:
        """True when any Var atom of the given kinds ('q','v','x','a','t') occurs."""
        return any(isinstance(a, Var) and a.kind in kinds for a in self.atoms())

    def has_fields(self) -> bool:
        return any(isinstance(a, (Field, Scalar)) for a in self.atoms())

    # -- arithmetic ------------------------------------------------------
    @staticmethod
    def _coerce(value) -> "Expr":
        if isinstance(value, Expr):
            return value
        if isinstance(value, (int, Fraction)):
            return rational(value)
        return NotImplemented

    def __add__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return Expr(
            tuple((-c, p, a) for c, p, a in self.terms), _canonical=True
        )

    def __sub__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum((self, -other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        for const, rest in ((self, other), (other, self)):
            if len(const.terms) == 1 and not const.terms[0][2]:
                # a constant monomial scales every coefficient and shifts every
                # power alike: term order and distinctness, so canonical form, hold
                k, d, _ = const.terms[0]
                scaled = ((k * c, tuple(x + y for x, y in zip(p, d)), a) for c, p, a in rest.terms)
                return Expr(tuple(scaled), _canonical=True)
        return Expr(
            tuple((c, p, aa + ab) for c, p, aa, ab in _term_pairs(self, other))
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise NonPolynomialError("exponents must be integers")
        if n < 0:
            return self._invert() ** (-n)
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def _invert(self) -> "Expr":
        if len(self.terms) != 1 or self.terms[0][2]:
            raise NonPolynomialError("can only invert constant monomials")
        c, p, _ = self.terms[0]
        return Expr((((Fraction(1) / c), tuple(-x for x in p), ()),), _canonical=True)

    def __truediv__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._invert()

    def __rtruediv__(self, other):
        return Expr._coerce(other) * self._invert()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = rational(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    # -- printing ----------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for n, (coeff, cpow, atoms) in enumerate(self.terms):
            body = _term_str(abs(coeff), cpow, atoms)
            if n == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Expr({self})"


ZERO = Expr((), _canonical=True)
ONE = Expr(((Fraction(1), (0, 0, 0), ()),), _canonical=True)


# ---------------------------------------------------------------------------
# printing helpers


def _dvar_str(dv: DVar) -> str:
    kind, idx = dv
    if kind == "t":
        return "t"
    if isinstance(idx, int):
        return f"{kind}{idx}"
    return f"{kind}[{idx}]"


def _atom_str(atom: Atom) -> str:
    if isinstance(atom, Var):
        return _dvar_str((atom.kind, atom.index))
    if isinstance(atom, Delta):
        return f"delta({atom.a},{atom.b})"
    if isinstance(atom, Eps):
        return f"eps({atom.a},{atom.b},{atom.c})"
    if isinstance(atom, Field):
        base = f"{atom.family}[{atom.index}]"
        if not atom.derivs:
            return base
        return "d(" + ",".join([base] + [_dvar_str(d) for d in atom.derivs]) + ")"
    if isinstance(atom, Scalar):
        if not atom.derivs:
            return atom.family
        return "d(" + ",".join([atom.family] + [_dvar_str(d) for d in atom.derivs]) + ")"
    raise TypeError(f"not an atom: {atom!r}")


_CONST_NAMES = ("e", "m", "c")


def _term_str(coeff: Fraction, cpow: tuple, atoms: tuple) -> str:
    num: list[str] = []
    den: list[str] = []
    if coeff.numerator != 1 or (not atoms and all(p <= 0 for p in cpow)):
        num.append(str(coeff.numerator))
    if coeff.denominator != 1:
        den.append(str(coeff.denominator))
    for name, p in zip(_CONST_NAMES, cpow):
        if p > 0:
            num.append(name if p == 1 else f"{name}^{p}")
        elif p < 0:
            den.append(name if p == -1 else f"{name}^{-p}")
    grouped = [(k, len(list(g))) for k, g in itertools.groupby(atoms)]
    for atom, count in grouped:
        s = _atom_str(atom)
        num.append(s if count == 1 else f"{s}^{count}")
    num_str = "*".join(num)
    if not den:
        return num_str
    den_str = den[0] if len(den) == 1 else "(" + "*".join(den) + ")"
    return f"{num_str}/{den_str}"


# ---------------------------------------------------------------------------
# constructors


def rational(p, q: int = 1) -> Expr:
    """Exact rational constant."""
    value = Fraction(p, q)
    if value == 0:
        return ZERO
    return Expr(((value, (0, 0, 0), ()),), _canonical=True)


def _const(pe: int, pm: int, pc: int) -> Expr:
    return Expr(((Fraction(1), (pe, pm, pc), ()),), _canonical=True)


E_SYM = _const(1, 0, 0)
M_SYM = _const(0, 1, 0)
C_SYM = _const(0, 0, 1)


def _atom_expr(*atoms: Atom) -> Expr:
    """The product of the given atoms with unit coefficient.

    One variable, or one field atom with no derivative slot, is canonical as
    it stands; anything else goes through the canonicalizer.
    """
    bare = len(atoms) == 1 and isinstance(atoms[0], (Var, Field, Scalar))
    bare = bare and not getattr(atoms[0], "derivs", ())
    return Expr(((Fraction(1), (0, 0, 0), atoms),), _canonical=bare)


def q(i: Index) -> Expr:
    return _atom_expr(Var("q", _check_index(i)))


def v(i: Index) -> Expr:
    return _atom_expr(Var("v", _check_index(i)))


def x(i: Index) -> Expr:
    return _atom_expr(Var("x", _check_index(i)))


def accel(i: Index) -> Expr:
    return _atom_expr(Var("a", _check_index(i)))


def t() -> Expr:
    return _atom_expr(Var("t", None))


def field_component(family: str, i: Index) -> Expr:
    if family not in VECTOR_FAMILIES:
        raise ExprError(f"unknown vector field family {family!r}")
    return _atom_expr(Field(family, _check_index(i)))


def scalar_field(family: str) -> Expr:
    if family not in SCALAR_FAMILIES:
        raise ExprError(f"unknown scalar field family {family!r}")
    return _atom_expr(Scalar(family))


def delta(i: Index, j: Index) -> Expr:
    return _atom_expr(Delta(_check_index(i), _check_index(j)))


def eps(i: Index, j: Index, k: Index) -> Expr:
    return _atom_expr(Eps(_check_index(i), _check_index(j), _check_index(k)))


def canonicalize(expr: Expr) -> Expr:
    """Re-run the canonicalization pipeline (a fixed point on canonical input)."""
    return Expr(expr.terms)


# ---------------------------------------------------------------------------
# calculus


def _as_var(var) -> tuple[str, Index | None]:
    """Accept a ('q', 1)-style (kind, index) pair."""
    if not (isinstance(var, tuple) and len(var) == 2):
        raise ExprError(f"not a variable reference: {var!r}")
    kind, idx = var
    if kind == "t":
        return ("t", None)
    if kind not in ("q", "v", "x"):
        raise ExprError(f"cannot differentiate with respect to {kind!r}")
    return (kind, _check_index(idx))


def _atom_partial(atom: Atom, kind: str, idx: Index | None) -> tuple | None:
    """Derivative of one atom as the atoms of its product; None encodes zero."""
    if isinstance(atom, (Delta, Eps)):
        return None
    if isinstance(atom, Var):
        if atom.kind != kind:
            return None
        if kind == "t":
            return ()
        if isinstance(atom.index, int) and isinstance(idx, int):
            return () if atom.index == idx else None
        return (Delta(atom.index, idx),)
    if isinstance(atom, (Field, Scalar)):
        if kind == "v":
            return None
        dv = ("t", None) if kind == "t" else (kind, idx)
        if isinstance(atom, Field):
            return (Field(atom.family, atom.index, atom.derivs + (dv,)),)
        return (Scalar(atom.family, atom.derivs + (dv,)),)
    raise TypeError(f"not an atom: {atom!r}")


def partial(expr: Expr, var) -> Expr:
    """Partial derivative with respect to t, q_i, v_i, or x_i.

    The index may be symbolic; derivatives of opaque field components stay
    symbolic (they pick up a derivative slot), everything else reduces.
    A symbolic derivative index shared with a free index of the expression
    contracts per the summation convention, so d(B_l)/dq_l is the
    divergence; the expression's own summed pairs are renamed apart first.
    """
    kind, idx = _as_var(var)
    raw: list[Term] = []
    for term in expr.terms:
        if isinstance(idx, str):
            term = _rename_dummies_apart(term, {idx})
        coeff, cpow, atoms = term
        for pos, atom in enumerate(atoms):
            datoms = _atom_partial(atom, kind, idx)
            if datoms is not None:
                raw.append((coeff, cpow, atoms[:pos] + datoms + atoms[pos + 1:]))
    return Expr(tuple(raw))


def total_time_derivative(expr: Expr) -> Expr:
    """Total derivative along the flow: d/dt = del_t + v.del_q + a.del_v.

    Acceleration symbols a_i stay free.
    """
    k1, k2 = _fresh_name(), _fresh_name()
    return _sum((
        partial(expr, ("t", None)),
        v(k1) * partial(expr, ("q", k1)),
        accel(k2) * partial(expr, ("v", k2)),
    ))


def expand_dummies(expr: Expr) -> Expr:
    """Expand every summed symbolic index into its concrete sum over 1..3."""
    raw: list[Term] = []
    for coeff, cpow, atoms in expr.terms:
        counts = _name_counts(atoms)
        dummies = sorted(n for n, k in counts.items() if k == 2)
        if not dummies:
            raw.append((coeff, cpow, atoms))
            continue
        for combo in itertools.product(SPATIAL_RANGE, repeat=len(dummies)):
            mapping = dict(zip(dummies, combo))
            raw.append((coeff, cpow, tuple(_rename_atom(a, mapping) for a in atoms)))
    return Expr(tuple(raw))


def instantiate_indices(expr: Expr, mapping: Mapping[str, int]) -> Expr:
    """Assign concrete values to free symbolic indices."""
    for name, val in mapping.items():
        _check_index(val)
        if not isinstance(name, str):
            raise IndexConventionError(f"bad index name {name!r}")
    raw: list[Term] = []
    for coeff, cpow, atoms in expr.terms:
        counts = _name_counts(atoms)
        safe = {n: val for n, val in mapping.items() if counts.get(n, 0) == 1}
        raw.append((coeff, cpow, tuple(_rename_atom(a, safe) for a in atoms)))
    return Expr(tuple(raw))


def parity_transform(expr: Expr) -> Expr:
    """Spatial inversion: flips q, x, v, a, E, A; leaves t, B, scalars alone.

    Spatial derivative slots on field atoms each contribute one extra sign.
    An expression is parity even exactly when the transform returns it
    unchanged; the transform is an involution.
    """
    raw: list[Term] = []
    for coeff, cpow, atoms in expr.terms:
        sign = 1
        for atom in atoms:
            if isinstance(atom, Var) and atom.kind in ("q", "x", "v", "a"):
                sign = -sign
            elif isinstance(atom, (Field, Scalar)):
                if isinstance(atom, Field) and atom.family in _PARITY_ODD_FAMILIES:
                    sign = -sign
                for dv in atom.derivs:
                    if dv[0] in ("q", "x"):
                        sign = -sign
        raw.append((coeff * sign, cpow, atoms))
    return Expr(tuple(raw), _canonical=True)


def substitute_fields(expr: Expr, bindings: Mapping[str, object]) -> Expr:
    """Replace opaque field components by concrete polynomials in (x, t).

    Bindings map family names to :class:`VectorField` (for E, B, A) or to
    field-space expressions (for A0, U, f).  Derivative slots are applied to
    the bound polynomial; remaining coordinates q_i are renamed to x_i.
    Free symbolic indices must be instantiated beforehand.
    """
    frees = expr.free_indices()
    if frees:
        raise UnboundSymbolError(
            f"cannot bind fields with free indices {sorted(frees)}"
        )
    needed = {
        a.family for a in expr.atoms() if isinstance(a, (Field, Scalar))
    }
    missing = sorted(needed - set(bindings))
    if missing:
        raise UnboundSymbolError(f"unbound field families: {missing}")
    pieces = []
    for coeff, cpow, atoms in expand_dummies(expr).terms:
        piece = Expr(((coeff, cpow, ()),), _canonical=True)
        for atom in atoms:
            if isinstance(atom, Field):
                binding = bindings[atom.family]
                if not isinstance(binding, VectorField):
                    raise UnboundSymbolError(
                        f"family {atom.family!r} needs a VectorField binding"
                    )
                piece = piece * _apply_derivs(binding.components[atom.index - 1], atom.derivs)
            elif isinstance(atom, Scalar):
                binding = bindings[atom.family]
                if not isinstance(binding, Expr):
                    raise UnboundSymbolError(
                        f"family {atom.family!r} needs a scalar expression binding"
                    )
                piece = piece * _apply_derivs(binding, atom.derivs)
            else:
                piece = piece * _atom_expr(atom)
        pieces.append(piece)
    return _field_space(_sum(pieces))


def _apply_derivs(component: Expr, derivs: tuple) -> Expr:
    result = component
    for kind, idx in derivs:
        if kind == "t":
            result = partial(result, ("t", None))
        else:
            result = partial(result, ("x", idx))
    return result


def _rename_coordinates(expr: Expr, old: str, new: str) -> Expr:
    raw = []
    for coeff, cpow, atoms in expr.terms:
        new_atoms = tuple(
            Var(new, a.index) if isinstance(a, Var) and a.kind == old else a
            for a in atoms
        )
        raw.append((coeff, cpow, new_atoms))
    return Expr(tuple(raw))


def phase_space(expr: Expr) -> Expr:
    """Rename x_i -> q_i (move a field-space polynomial onto the trajectory)."""
    return _rename_coordinates(expr, "x", "q")


def _field_space(expr: Expr) -> Expr:
    """Rename q_i -> x_i, the inverse of :func:`phase_space`."""
    return _rename_coordinates(expr, "q", "x")


def map_field_families(expr: Expr, mapping: Mapping[str, tuple[str, int]]) -> Expr:
    """Relabel field families with signs, e.g. {'B': ('E', -1), 'E': ('B', 1)}."""
    raw = []
    for coeff, cpow, atoms in expr.terms:
        sign = 1
        new_atoms = []
        for atom in atoms:
            if isinstance(atom, Field) and atom.family in mapping:
                fam, s = mapping[atom.family]
                sign *= s
                new_atoms.append(Field(fam, atom.index, atom.derivs))
            else:
                new_atoms.append(atom)
        raw.append((coeff * sign, cpow, tuple(new_atoms)))
    return Expr(tuple(raw))


# ---------------------------------------------------------------------------
# Levi-Civita contractions of three-component sequences


def _axial_dual(matrix) -> tuple[Expr, Expr, Expr]:
    """axial_dual(M)_k = eps_kij M_ij for a 3x3 nested sequence.

    Only the off-diagonal entries are read.
    """
    parts: list[list[Expr]] = [[], [], []]
    for (k, i, j), sign in _EPS_SIGN.items():
        entry = matrix[i - 1][j - 1]
        parts[k - 1].append(entry if sign > 0 else -entry)
    return tuple(_sum(p) for p in parts)  # type: ignore[return-value]


def _cross(u, w) -> tuple[Expr, Expr, Expr]:
    """cross(u, w)_i = eps_ijk u_j w_k."""
    return _axial_dual(
        [[u[j] * w[k] if j != k else ZERO for k in range(3)] for j in range(3)]
    )


def _eps_matrix(w) -> tuple[tuple[Expr, ...], ...]:
    """eps_matrix(w)_ij = eps_ijk w_k, the antisymmetric tensor dual to w."""
    out = [[ZERO] * 3 for _ in range(3)]
    for (i, j, k), sign in _EPS_SIGN.items():
        out[i - 1][j - 1] = w[k - 1] if sign > 0 else -w[k - 1]
    return tuple(tuple(row) for row in out)


def _lorentz(e_vec, b_vec) -> tuple[Expr, Expr, Expr]:
    """e E_i + (e/c) eps_ijk v_j B_k for three-component E and B."""
    v_cross_b = _cross([v(i) for i in SPATIAL_RANGE], b_vec)
    return tuple(
        E_SYM * e_i + (E_SYM / C_SYM) * vb_i for e_i, vb_i in zip(e_vec, v_cross_b)
    )  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# concrete vector fields


_ALLOWED_FIELD_SPACE = ("x", "t")


class VectorField:
    """Three field-space components: polynomials in x1, x2, x3, t.

    Components may carry the symbolic constants e, m, c but no phase-space
    variables, opaque field atoms, or symbolic indices.
    """

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Expr]):
        comps = tuple(components)
        if len(comps) != 3:
            raise ExprError("a vector field needs exactly three components")
        for comp in comps:
            if not isinstance(comp, Expr):
                raise ExprError("components must be expressions")
            if comp.free_indices():
                raise ExprError("vector field components must have concrete indices")
            for atom in comp.atoms():
                if isinstance(atom, Var) and atom.kind in _ALLOWED_FIELD_SPACE:
                    continue
                raise ExprError(
                    f"vector field components live in (x, t); found {_atom_str(atom)}"
                )
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *args):
        raise AttributeError("VectorField is immutable")

    @classmethod
    def zero(cls) -> "VectorField":
        return cls((ZERO, ZERO, ZERO))

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __neg__(self) -> "VectorField":
        return VectorField(tuple(-c for c in self.components))

    def __str__(self) -> str:
        return ";".join(str(c) for c in self.components)

    def __repr__(self) -> str:
        return f"VectorField({self})"

    def to_phase(self) -> tuple[Expr, Expr, Expr]:
        """Components with x_i renamed to q_i, for use along a trajectory."""
        return tuple(phase_space(c) for c in self.components)  # type: ignore[return-value]

    def is_static(self) -> bool:
        return not any(c.has_kind("t") for c in self.components)


def divergence(vf: VectorField) -> Expr:
    return _sum(partial(vf[i], ("x", i + 1)) for i in range(3))


def curl(vf: VectorField) -> VectorField:
    grads = [
        [partial(vf[k], ("x", j + 1)) if j != k else ZERO for k in range(3)]
        for j in range(3)
    ]
    return VectorField(_axial_dual(grads))


def gradient(scalar: Expr) -> VectorField:
    return VectorField(tuple(partial(scalar, ("x", i)) for i in SPATIAL_RANGE))


def time_derivative_field(vf: VectorField) -> VectorField:
    return VectorField(tuple(partial(c, ("t", None)) for c in vf.components))

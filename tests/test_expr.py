"""Expression core: parsing, canonicalization, calculus, parity."""

import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embracket import expr as ex
from embracket.dsl import CONTEXTS, ParseError, parse, parse_components, parse_vector_field
from embracket.expr import (
    VectorField,
    ZERO,
    canonicalize,
    curl,
    delta,
    divergence,
    eps,
    field_component,
    parity_transform,
    partial,
    scalar_field,
    substitute_fields,
    total_time_derivative,
)

from conftest import (
    assert_same_tensor,
    delta_value,
    eps_value,
    random_concrete_expr,
    random_polynomial,
    reference_add,
    reference_canonical_term,
    reference_canonicalize_terms,
    reference_parse,
    reference_partial,
    reference_term_pairs,
)


class TestParse:
    def test_commutative_cancellation(self):
        assert parse("q1*v2 - v2*q1").is_zero

    def test_field_space_monomial(self):
        result = parse("x1^2*x2", "field-space")
        assert result == ex.x(1) * ex.x(1) * ex.x(2)
        assert len(result.terms) == 1
        assert result.terms[0][0] == Fraction(1)

    def test_index_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse("v4")
        assert "1..3" in err.value.message
        assert 0 <= err.value.position < len("v4")

    def test_context_enforcement(self):
        with pytest.raises(ParseError):
            parse("x1", "phase-space")
        with pytest.raises(ParseError):
            parse("q1", "field-space")
        with pytest.raises(ParseError):
            parse("v2", "field-space")

    def test_acceleration_rejected_outside_extended(self):
        with pytest.raises(ParseError):
            parse("a1")
        assert parse("a1", "extended") == ex.accel(1)

    def test_rationals_and_constants(self):
        assert parse("3/4") == ex.rational(3, 4)
        assert parse("e*m^2/c") == ex.E_SYM * ex.M_SYM**2 / ex.C_SYM
        assert parse("2^-1") == ex.rational(1, 2)

    def test_unary_minus(self):
        assert parse("-v1") == -ex.v(1)
        assert parse("-v1 + v1").is_zero

    def test_division_restrictions(self):
        with pytest.raises(ParseError):
            parse("q1/q2")
        with pytest.raises(ParseError):
            parse("v1^-2")

    def test_exponent_cap(self):
        assert parse("q1^64") == ex.q(1) ** 64
        assert parse("e^-64") == ex.E_SYM ** -64
        for text in ("q1^65", "q1^1000000", "e^-65", "q1^" + "9" * 5000):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert "exponent" in err.value.message
            assert err.value.position == 3

    def test_term_count_cap(self):
        base = ex.q(1) + ex.v(2) - ex.t()
        assert parse("(q1+v2-t)^5") == base**5
        assert parse("(q1+v2-t)^2*(q1+v2-t)/3") == base**3 / 3
        assert parse("(2*e)^-3") == (2 * ex.E_SYM) ** -3
        assert parse("q1^-0") == ex.ONE
        with pytest.raises(ParseError) as err:
            parse("(q1+q2+q3+v1+v2+v3+t)^64")
        assert "more than" in err.value.message
        assert err.value.position == 21  # the '^'
        with pytest.raises(ParseError) as err:
            parse("(q1+q2+q3+v1+v2+v3+t)^4*(q1+q2+q3+v1+v2+v3+t)^3")
        assert err.value.position == 23  # the '*'

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError):
            parse("q1^x")

    @pytest.mark.parametrize(
        "bad",
        ["", "q1 +", "(q1", "q1)", "foo", "q12", "1..2", "q1^", "x1*x2", "A0"],
    )
    def test_parse_error_position_inside_input(self, bad):
        with pytest.raises(ParseError) as err:
            parse(bad)
        limit = max(len(bad), 1)
        assert 0 <= err.value.position < limit

    def test_vector_field_parse(self):
        vf = parse_vector_field("0;0;x1*x2")
        assert vf[0].is_zero and vf[2] == ex.x(1) * ex.x(2)
        with pytest.raises(ParseError):
            parse_vector_field("0;0")
        with pytest.raises(ParseError):
            parse_vector_field("0;q1;0")
        for text, position in (("x1;x2;x4", 6), ("x1;;x2", 3)):  # within the whole text
            with pytest.raises(ParseError) as err:
                parse_vector_field(text)
            assert err.value.position == position

    @pytest.mark.parametrize(
        "text, position",
        [("q\u0663", 1), ("q\u00b2", 1), ("v1^\u00b2", 3), ("\u0663", 0), ("q1+\u00e9", 3)],
    )
    def test_ascii_tokens_only(self, text, position):
        # str.isdigit takes the Arabic-Indic three and the superscript two
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.position, err.value.message) == (position, "unexpected character")

    @pytest.mark.parametrize(
        "text, position",
        [("1" + "0" * 5000, 0), ("q1+" + "9" * 5000, 3), ("q" + "0" * 5000 + "1", 0)],
        ids=["literal", "addend", "index"],
    )
    def test_integer_past_conversion_limit(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.position, err.value.message) == (position, "integer too long")

    def test_indexed_forms(self):
        assert parse("q01") == parse("q[1]") == parse("q[001]") == ex.q(1)
        assert parse("x[2]", "field-space") == ex.x(2)
        assert parse("a[i]*d(B[1],q[i],x2,t)", "extended") == parse(
            "a[j]*d(B[1],q[j],x[2],t)", "extended"
        )
        with pytest.raises(ParseError) as err:
            parse("q[i]")
        assert err.value.position == 0 and "extended" in err.value.message

    @pytest.mark.parametrize(
        "text, position",
        [
            ("qv[1]", 0),
            ("v1+xa[1]", 3),
            ("qvxa[2]", 0),
            ("d(B[1],qx[1])", 7),
            ("d(B[1],v1)", 7),
            ("E[4]", 2),
            ("delta(i,j", 8),
        ],
    )
    def test_names_and_indices_rejected(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text, "extended")
        assert err.value.position == position

    @pytest.mark.parametrize("text, position", [("eps(i,i,i)", 9), ("q1+eps(j,j,j)*t", 12)])
    def test_expression_layer_rejections_are_parse_errors(self, text, position):
        # the last token read: the one that completed the rejected atom
        with pytest.raises(ParseError) as err:
            parse(text, "extended")
        assert err.value.position == position and "3 times" in err.value.message

    def test_deep_nesting(self):
        assert parse("(" * 40 + "q1" + ")" * 40) == ex.q(1)
        with pytest.raises(ParseError) as err:
            parse("(" * 5000 + "q1" + ")" * 5000)
        assert "nested" in err.value.message


# A grammar for differential tests of the parser: every form of every
# context, leaves the parser rejects, then one corruption of the text.
_INDICES = st.sampled_from(["1", "2", "3", "01", "i", "j", "k", "0", "4", "\u0663", "+", ""])
_NAME_DIGITS = st.sampled_from(["1", "2", "3", "01", "0", "4", "12", "\u0663", "\u00b2", ""])
_KIND_LETTERS = ["q", "v", "x", "a", "qv", "vx", "xa", "qvxa", "qx", "qq"]


def _indexed(names):
    return st.one_of(
        st.tuples(st.sampled_from(names), _NAME_DIGITS).map("".join),
        st.tuples(st.sampled_from(names), _INDICES).map(lambda p: f"{p[0]}[{p[1]}]"),
    )


def _index_list(name, count):
    return st.lists(_INDICES, min_size=count - 1, max_size=count + 1).map(
        lambda idx: f"{name}({','.join(idx)})"
    )


_VALID_LEAVES = st.sampled_from(
    ["q1", "v2", "x3", "a1", "q[i]", "v[j]", "x[2]", "a[k]", "B[i]", "E[1]", "delta(i,j)"]
)
_PARSE_LEAVES = st.one_of(
    _VALID_LEAVES,
    _VALID_LEAVES,
    st.sampled_from(["0", "2", "12", "007", "e", "m", "c", "t", "A0", "U", "f", "d", "foo", "_"]),
    st.sampled_from(["1" + "0" * 4400, "\u0663", "\u00e9", "?", "eps(k,k,k)"]),
    _indexed(_KIND_LETTERS),
    _indexed(["E", "B", "A"]),
    _index_list("delta", 2),
    _index_list("eps", 3),
)
_DERIV_VARS = st.one_of(
    st.sampled_from(["t", "", "1", "v1"]), _indexed(["q", "x", "qx", "v", "xa"])
)


def _parse_texts():
    tree = st.recursive(
        _PARSE_LEAVES,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " * "]), inner).map("".join),
            st.tuples(inner, st.sampled_from(["^2", "^3", "^0", "^-1", "^65", "^x"])).map(
                "".join
            ),
            inner.map(lambda s: f"({s})"),
            inner.map(lambda s: f"-{s}"),
            st.tuples(inner, st.lists(_DERIV_VARS, max_size=2)).map(
                lambda p: "d(" + ",".join([p[0], *p[1]]) + ")"
            ),
        ),
        max_leaves=6,
    )
    corruption = st.tuples(
        st.integers(0, 5), st.integers(0, 10**6), st.sampled_from("([)],;^* \u00a0")
    )
    return st.tuples(tree, corruption).map(_corrupt)


def _corrupt(parts):
    """Insert a character, delete one or cut the text short, half of the time."""
    text, (how, where, char) = parts
    at = where % (len(text) + 1)
    if how == 1:
        return text[:at] + char + text[at:]
    if how == 2:
        return text[:at] + text[at + 1:]
    if how == 3:
        return text[:at]
    return text


# A multi-letter name of kind letters followed by '[': the reference parser
# read the bracket before rejecting the name (or failing on it with a
# KeyError or an ExprError), dsl.parse rejects the name first.
_READ_PAST_NAME = re.compile(r"(?<![A-Za-z0-9_])(qv|vx|xa|qvx|vxa|qvxa|qx)\s*\[")


class TestParseDifferential:
    """dsl.parse against conftest.reference_parse on the same text."""

    @settings(max_examples=1500, deadline=None)
    @given(_parse_texts(), st.sampled_from(CONTEXTS))
    def test_matches_reference(self, text, context):
        try:
            expected = reference_parse(text, context)
        except Exception as err:  # noqa: BLE001 - every failure mode is compared
            expected = err
        try:
            actual = parse(text, context)
        except ParseError as err:
            actual = err
        if any(not ch.isascii() and ch.isalnum() for ch in text):
            # the reference took non-ASCII digits and letters into tokens
            assert isinstance(actual, ParseError), text
        elif _READ_PAST_NAME.search(text):
            assert isinstance(actual, ParseError), text
            if isinstance(expected, ParseError):
                assert actual.position <= expected.position, text
        elif isinstance(expected, ParseError):
            assert isinstance(actual, ParseError), text
            assert actual.position == expected.position, text
        elif isinstance(expected, Exception):
            assert isinstance(actual, ParseError), (text, expected)
        else:
            assert actual == expected, text


class TestCanonicalization:
    def test_delta_contraction(self):
        assert delta("i", "j") * ex.v("j") == ex.v("i")

    def test_delta_trace(self):
        assert delta("i", "i") == ex.rational(3)

    def test_epsilon_epsilon_identity(self):
        lhs = eps("i", "j", "k") * eps("i", "l", "m")
        rhs = delta("j", "l") * delta("k", "m") - delta("j", "m") * delta("k", "l")
        assert lhs == rhs

    def test_epsilon_epsilon_identity_brute_force(self):
        # independent oracle: enumerate all five indices over {1,2,3}
        for j, k, l, m in itertools.product((1, 2, 3), repeat=4):
            lhs = sum(eps_value(i, j, k) * eps_value(i, l, m) for i in (1, 2, 3))
            rhs = delta_value(j, l) * delta_value(k, m) - delta_value(j, m) * delta_value(k, l)
            assert lhs == rhs

    def test_symmetric_times_antisymmetric(self):
        b = field_component
        assert (eps("i", "j", "k") * b("B", "j") * b("B", "k")).is_zero

    def test_double_contraction(self):
        assert eps("i", "j", "k") * eps("i", "j", "m") == 2 * delta("k", "m")
        assert eps("i", "j", "k") * eps("i", "j", "k") == ex.rational(6)

    def test_concrete_epsilon_resolution(self):
        assert eps(1, 2, "k") * field_component("B", "k") == field_component("B", 3)
        assert eps(1, 2, 3) == ex.ONE
        assert eps(2, 1, 3) == -ex.ONE

    def test_idempotence_on_random_expressions(self):
        rng = random.Random(11)
        for _ in range(1000):
            expr = random_concrete_expr(rng, depth=6)
            once = canonicalize(expr)
            assert canonicalize(once) == once
            assert once == expr

    def test_index_convention_violation(self):
        # operators alpha-rename bound pairs, so a triple needs raw terms
        raw = (
            (
                Fraction(1),
                (0, 0, 0),
                (ex.Var("v", "i"), ex.Var("v", "i"), ex.Var("v", "i")),
            ),
        )
        with pytest.raises(ex.IndexConventionError):
            ex.Expr(raw)

    def test_bound_pairs_stay_private_under_products(self):
        # a contracted pair times the same name leaves the new factor free
        contracted = ex.v("i") * ex.v("i")
        product = contracted * ex.v("i")
        assert product.free_indices() == {"i"}

    def test_contraction_patterns_against_enumeration(self):
        # random monomials with up to two epsilons keep their tensor value
        rng = random.Random(23)
        names = ["i", "j", "k", "l", "m", "n"]
        for trial in range(120):
            counts = {n: 0 for n in names}

            def pick_index():
                if rng.random() < 0.35:
                    return rng.randint(1, 3)
                avail = [n for n in names if counts[n] < 2]
                name = rng.choice(avail)
                counts[name] += 1
                return name

            atoms = []
            for _ in range(rng.randint(0, 2)):
                atoms.append(ex.Eps(pick_index(), pick_index(), pick_index()))
            for _ in range(rng.randint(0, 2)):
                atoms.append(ex.Delta(pick_index(), pick_index()))
            for _ in range(rng.randint(0, 2)):
                kind = rng.choice(["v", "q"])
                atoms.append(ex.Var(kind, pick_index()))
            if rng.random() < 0.5:
                atoms.append(ex.Field("B", pick_index()))
            raw = ((Fraction(rng.randint(1, 3)), (0, 0, 0), tuple(atoms)),)
            frees = [n for n, c in counts.items() if c == 1]
            expr = ex.Expr(raw)
            assert_same_tensor(raw, expr, frees, seed=trial)

    def test_canonical_ordering_is_stable(self):
        expr = parse("q2*v1 + 3 + q1*v2 - 1/2*t^2")
        assert str(parse(str(expr), "extended")) == str(expr)


def _motif(kind: int, fresh) -> list:
    """A few atoms sharing fresh summed indices, from symmetric to antisymmetric."""
    a, b, c = fresh(), fresh(), fresh()
    return [
        [ex.Var("v", a), ex.Field("B", a)],  # symmetric when repeated
        [ex.Field("E", a, (("q", b),)), ex.Field("E", b, (("q", a),))],
        [ex.Eps(a, b, c), ex.Var("v", a), ex.Var("v", b), ex.Field("B", c)],  # zero
        [ex.Eps(a, b, c), ex.Var("v", a), ex.Field("B", b), ex.Field("E", c)],
        [ex.Field("B", a, (("q", a), ("t", None)))],
        [ex.Delta(a, b), ex.Var("q", a), ex.Scalar("U", (("q", b),))],
    ][kind]


@st.composite
def motif_terms(draw):
    """Products of motifs with up to six summed indices in a shuffled order."""
    names = iter(range(100))
    atoms: list = []
    for kind in draw(st.lists(st.sampled_from(range(6)), min_size=2, max_size=6)):
        more = _motif(kind, lambda: f"d{next(names)}")
        if len(ex._name_counts(atoms + more)) > 6:
            break
        atoms += more
    return tuple(draw(st.permutations(atoms)))


@st.composite
def carved_terms(draw):
    """Up to six summed indices, two frees and concrete indices cut into atoms."""
    dummies = [f"d{n}" for n in range(draw(st.sampled_from(range(7))))]
    frees = draw(st.lists(st.sampled_from(["a", "m"]), unique=True))
    concrete = draw(st.lists(st.integers(1, 3), max_size=2))
    slots = list(draw(st.permutations(dummies * 2 + frees + concrete)))
    atoms = []
    while slots:
        kind = draw(st.sampled_from(["eps", "delta", "grad", "field", "var", "scalar"]))
        width = {"eps": 3, "delta": 2, "grad": 2}.get(kind, 1)
        if width > len(slots):
            kind, width = "var", 1
        cut, slots = slots[:width], slots[width:]
        if kind == "eps":
            atoms.append(ex.Eps(*cut))
        elif kind == "delta":
            atoms.append(ex.Delta(*cut))
        elif kind == "grad":
            atoms.append(ex.Field(draw(st.sampled_from("EBA")), cut[0], (("q", cut[1]),)))
        elif kind == "field":
            atoms.append(ex.Field(draw(st.sampled_from("EBA")), cut[0]))
        elif kind == "scalar":
            atoms.append(ex.Scalar("U", (("x", cut[0]), ("t", None))))
        else:
            atoms.append(ex.Var(draw(st.sampled_from("qvx")), cut[0]))
    return tuple(atoms)


class TestDummyRelabeling:
    """The branch-and-bound relabeling against the factorial reference."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(motif_terms(), carved_terms()))
    def test_matches_reference(self, atoms):
        term = (Fraction(2, 3), (1, 0, -1), atoms)
        assert ex._canonical_term(*term) == reference_canonical_term(*term)

    @pytest.mark.parametrize(
        "kinds, vanishes",
        [
            ((0, 0, 0, 0, 0, 0), False),  # six interchangeable pairs
            ((1, 1, 1), False),
            ((2, 0, 0, 0), True),  # eps_abc v_a v_b times three symmetric pairs
            ((0, 2, 0, 0), True),
            ((3, 3), False),
            ((3, 2), True),  # the opposite sign is not under the lowest-bound children
            ((4, 5, 5, 4), False),
        ],
    )
    def test_symmetric_ties_and_antisymmetric_zeros(self, kinds, vanishes):
        names = iter(range(100))
        atoms = tuple(
            atom for kind in kinds for atom in _motif(kind, lambda: f"d{next(names)}")
        )
        term = (Fraction(1), (0, 0, 0), atoms)
        assert (ex._canonical_term(*term) is None) == vanishes
        assert ex._canonical_term(*term) == reference_canonical_term(*term)

    def test_ten_dummy_trace_equals_shuffled_twin(self):
        # d_{i1}F1_{i0} d_{i2}F2_{i1} ... d_{i0}F10_{i9}: ten summed indices
        families = "EBAEBBAEAB"
        rng = random.Random(10)
        first = [f"i{n}" for n in range(10)]
        second = [f"p{n}" for n in range(10)]
        rng.shuffle(second)

        def trace(names, order):
            product = ex.ONE
            for m in order:
                component = field_component(families[m], names[m])
                product = product * partial(component, ("q", names[(m + 1) % 10]))
            return product

        order = list(range(10))
        rng.shuffle(order)
        start = time.process_time()
        lhs = trace(first, range(10))
        rhs = trace(second, order)
        elapsed = time.process_time() - start
        assert lhs == rhs
        assert len(lhs.terms) == 1 and not lhs.free_indices()
        # the factorial search took minutes here; a generous bound catches it
        assert elapsed < 5.0


@st.composite
def rewrite_terms(draw):
    """One raw term mixing every delta/epsilon rewrite; each name occurs at most twice.

    Motifs leave some names open (used once); each open name then stays free,
    is closed by a variable or field atom, or two of them are closed by one
    differentiated field, which makes them summed.
    """
    fresh = iter(f"n{k}" for k in range(100))
    ints = st.integers(1, 3)
    atoms: list = []
    kinds = st.sampled_from([0, 1, 2, 2, 3, 4, 5, 5, 6, 7, 8])  # fewer that zero the term
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        a, b, c, d = (next(fresh) for _ in range(4))
        if kind == 0:  # concrete delta, equal or unequal
            atoms.append(ex.Delta(draw(ints), draw(ints)))
        elif kind == 1:  # traced delta
            atoms.append(ex.Delta(a, a))
        elif kind == 2:  # contracted, free or mixed, as the names are closed
            atoms.append(ex.Delta(a, draw(st.sampled_from([b, 1, 2, 3]))))
        elif kind == 3:  # concrete epsilon, possibly with a repeated value
            slots = draw(st.one_of(st.permutations([1, 2, 3]), st.tuples(ints, ints, ints)))
            atoms.append(ex.Eps(*slots))
        elif kind == 4:  # repeated name
            slots = [a, a, draw(st.sampled_from([b, 2]))]
            atoms.append(ex.Eps(*draw(st.permutations(slots))))
        elif kind == 5:  # concrete and summed slots
            slots = [draw(ints), a, draw(st.sampled_from([b, 3]))]
            atoms.append(ex.Eps(*draw(st.permutations(slots))))
        elif kind in (6, 7):  # an epsilon pair sharing one to three names
            shared = [a, b, c][: draw(st.integers(1, 3))]
            for _ in range(2):
                own = [next(fresh) for _ in range(3 - len(shared))]
                atoms.append(ex.Eps(*draw(st.permutations(shared + own))))
        else:  # a chain eps_abc eps_cde eps_eaf
            e, f = next(fresh), next(fresh)
            for slots in ([a, b, c], [c, d, e], [e, a, f]):
                atoms.append(ex.Eps(*draw(st.permutations(slots))))
    opens = [n for n, k in ex._name_counts(atoms).items() if k == 1]
    opens = list(draw(st.permutations(opens)))
    while opens:
        name = opens.pop()
        close = draw(st.sampled_from(["free", "var", "field", "grad"]))
        if close == "var":
            atoms.append(ex.Var(draw(st.sampled_from("qvx")), name))
        elif close == "field":
            atoms.append(ex.Field(draw(st.sampled_from("EBA")), name))
        elif close == "grad":
            other = opens.pop() if opens else draw(ints)
            derivs = draw(st.sampled_from([(("q", other),), (("x", other), ("t", None))]))
            atoms.append(ex.Field(draw(st.sampled_from("EBA")), name, derivs))
    return tuple(draw(st.permutations(atoms)))


class TestRuleWorklist:
    """The delta/epsilon rule worklist against the flag loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]),
                st.sampled_from([(0, 0, 0), (1, 0, -1)]),
                rewrite_terms(),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_matches_reference(self, raw):
        assert ex._canonicalize_terms(raw) == reference_canonicalize_terms(raw)

    def test_triple_index_raises_on_both_sides(self):
        atoms = (ex.Eps("i", 1, "j"), ex.Var("v", "i"), ex.Field("B", "j"), ex.Var("q", "i"))
        raw = ((Fraction(1), (0, 0, 0), atoms),)
        with pytest.raises(ex.IndexConventionError) as new:
            ex._canonicalize_terms(raw)
        with pytest.raises(ex.IndexConventionError) as old:
            reference_canonicalize_terms(raw)
        assert str(new.value) == str(old.value)


def _slots_reversed(atom):
    """The atom with its derivative slots in reverse order."""
    if isinstance(atom, ex.Field):
        return ex.Field(atom.family, atom.index, atom.derivs[::-1])
    if isinstance(atom, ex.Scalar):
        return ex.Scalar(atom.family, atom.derivs[::-1])
    return atom


@st.composite
def index_free_terms(draw):
    """Atoms with concrete indices only, no delta and no epsilon: variables,
    t, and fields whose derivative slots come in any order, some repeated."""
    ints = st.integers(1, 3)
    slots = st.lists(
        st.one_of(st.tuples(st.sampled_from("qx"), ints), st.just(("t", None))), max_size=3
    ).map(tuple)
    atom = st.one_of(
        st.builds(ex.Var, st.sampled_from("qvxa"), ints),
        st.just(ex.Var("t")),
        st.builds(ex.Field, st.sampled_from("EBA"), ints, slots),
        st.builds(ex.Scalar, st.sampled_from(ex.SCALAR_FAMILIES), slots),
    )
    atoms = draw(st.lists(atom, max_size=4))
    if atoms:
        atoms += draw(st.lists(st.sampled_from(atoms), max_size=2))
    return tuple(draw(st.permutations(atoms)))


@st.composite
def index_free_raw(draw):
    """Raw terms, index-free or (in a mixed list) from ``rewrite_terms``, with
    e/m/c powers, zero coefficients and twins that cancel a drawn term."""
    coeffs = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)])
    cpows = st.tuples(*[st.integers(-2, 2)] * 3)
    atoms = index_free_terms()
    if draw(st.booleans()):  # a mixed list
        atoms = st.one_of(atoms, rewrite_terms())
    raw = draw(st.lists(st.tuples(coeffs, cpows, atoms), min_size=1, max_size=4))
    for coeff, cpow, ats in draw(st.lists(st.sampled_from(raw), max_size=2)):
        twin = tuple(_slots_reversed(a) for a in draw(st.permutations(ats)))
        raw.append((-coeff, cpow, twin))
    return draw(st.permutations(raw))


class TestIndexFreeTerms:
    """Terms with no symbolic name and no delta or epsilon go straight to the
    atom sort; the result must be the full worklist's."""

    @settings(max_examples=300, deadline=None)
    @given(index_free_raw())
    def test_fast_path_matches_reference(self, raw):
        assert ex._canonicalize_terms(raw) == reference_canonicalize_terms(raw)

    def test_index_free_parses_skip_rules_and_relabeling(self, cold_chain, monkeypatch):
        calls = {"canonical": 0, "rules": 0}

        def counted(fn, key):
            def shim(*args):
                calls[key] += 1
                return fn(*args)
            return shim

        monkeypatch.setattr(ex, "_canonical_term", counted(ex._canonical_term, "canonical"))
        monkeypatch.setattr(ex, "_RULES", tuple(counted(rule, "rules") for rule in ex._RULES))
        parse("(q1+q2+v3+t+1)^4")
        parse_components("e/c*v2;-e/c*v1;0", "phase-space")
        assert calls == {"canonical": 0, "rules": 0}
        parse("eps(i,j,k)*v[j]*B[k]", "extended")
        assert calls["canonical"] > 0


class TestBareAtoms:
    """One variable, or one field atom with no derivative slot, is built
    canonical; the canonicalizer must leave it as it is."""

    @pytest.mark.parametrize("index", [2, "i"])
    def test_one_atom_constructors_are_canonical(self, index):
        built = [
            ex.q(index), ex.v(index), ex.x(index), ex.accel(index), ex.t(),
            ex.field_component("E", index), ex.field_component("B", index),
            ex.field_component("A", index), ex.scalar_field("A0"), ex.scalar_field("U"),
        ]
        for e in built:
            assert ex.Expr(e.terms).terms == e.terms

    def test_delta_and_eps_still_canonicalize(self):
        assert ex.delta(1, 1) == ex.ONE
        assert ex.delta(2, 1) == ex.delta(1, 2)
        assert ex.eps(1, 1, 2).is_zero
        assert ex.eps(2, 1, 3) == -ex.ONE


@st.composite
def carved_exprs(draw):
    """A sum of up to three carved terms with small rational coefficients."""
    raw = tuple(
        (Fraction(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.integers(1, 2))), (0, 0, 0), atoms)
        for atoms in draw(st.lists(carved_terms(), min_size=1, max_size=3))
    )
    return ex.Expr(raw)


@st.composite
def any_exprs(draw):
    """Carved tensor expressions or random polynomials in (x, t) or phase space."""
    choice = draw(st.sampled_from(["carved", "polynomial", "concrete"]))
    if choice == "carved":
        return draw(carved_exprs())
    rng = random.Random(draw(st.integers(0, 2**32)))
    if choice == "polynomial":
        return random_polynomial(rng, max_degree=3, terms=rng.randint(1, 5))
    return random_concrete_expr(rng)


@st.composite
def derivative_variables(draw, expr):
    """t, or q, v, x with a concrete index, an out-of-range one, a name the
    expression sums over, a name free in it, or a name it does not use."""
    kind = draw(st.sampled_from("tqvx"))
    if kind == "t":
        return ("t", None)
    summed = {n for _, _, atoms in expr.terms for n, k in ex._name_counts(atoms).items() if k == 2}
    names = sorted(summed) + sorted(expr.free_indices()) + ["n"]
    return (kind, draw(st.sampled_from([1, 2, 3, 4] + names)))


class TestSumAndPartial:
    """Collect-once sums and the one-pass derivative against the
    term-at-a-time versions they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_partial_matches_reference(self, data):
        expr = data.draw(any_exprs())
        var = data.draw(derivative_variables(expr))
        try:
            expected = reference_partial(expr, var)
        except ex.IndexConventionError:
            with pytest.raises(ex.IndexConventionError):
                partial(expr, var)
            return
        assert partial(expr, var).terms == expected.terms

    @settings(max_examples=200, deadline=None)
    @given(st.lists(any_exprs(), min_size=1, max_size=4))
    def test_sums_match_reference(self, exprs):
        expected = ZERO
        for e in exprs:
            expected = reference_add(expected, e)
        assert ex._sum(exprs).terms == expected.terms
        a, b = exprs[0], exprs[-1]
        assert (a + b).terms == reference_add(a, b).terms
        assert (a - b).terms == reference_add(a, -b).terms
        assert (a - a).is_zero


def _product_through(pairs, a, b):
    return ex.Expr(tuple((c, p, aa + ab) for c, p, aa, ab in pairs(a, b)))


class TestTermPairs:
    """Products whose pairs skip the rename-apart when a side has no name,
    against the pairs that renamed every pair."""

    @settings(max_examples=200, deadline=None)
    @given(any_exprs(), any_exprs())
    def test_products_match_reference(self, a, b):
        assert (a * b).terms == _product_through(reference_term_pairs, a, b).terms

    def test_dummies_clashing_with_a_free_name_are_renamed(self):
        a = ex.q("i")
        b = ex.q("i") * ex.v("i")  # summed i, clashing with the free i of a
        product = a * b
        assert product.terms == _product_through(reference_term_pairs, a, b).terms
        assert product.free_indices() == {"i"}
        qv = sum((ex.q(n) * ex.v(n) for n in (1, 2, 3)), start=ZERO)
        assert ex.expand_dummies(ex.instantiate_indices(product, {"i": 2})) == ex.q(2) * qv

    def test_one_named_side_is_not_renamed(self, cold_chain, monkeypatch):
        a = parse("q1+t^2")
        b = parse("eps(i,j,k)*v[j]*B[k]", "extended")
        expected = _product_through(reference_term_pairs, a, b).terms
        renames = []
        rename = ex._rename_dummies_apart
        monkeypatch.setattr(
            ex, "_rename_dummies_apart", lambda *args: renames.append(args) or rename(*args)
        )
        assert (a * b).terms == expected
        assert (b * a).terms == expected
        assert renames == []


@st.composite
def constant_monomials(draw):
    """A nonzero rational times powers of e, m and c."""
    coeff = Fraction(draw(st.integers(-4, 4).filter(bool)), draw(st.integers(1, 3)))
    return ex.Expr(((coeff, tuple(draw(st.integers(-2, 2)) for _ in "emc"), ()),))


class TestConstantMonomialProducts:
    """A product with a constant monomial scales the other factor's terms in
    place; it must equal the general product path term for term."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(any_exprs(), constant_monomials(), st.just(ZERO)), constant_monomials())
    def test_matches_general_path(self, a, k):
        assert (a * k).terms == _product_through(reference_term_pairs, a, k).terms
        assert (k * a).terms == _product_through(reference_term_pairs, k, a).terms
        assert (a / k).terms == _product_through(reference_term_pairs, a, k._invert()).terms


class TestArithmetic:
    def test_power_and_inverse(self):
        assert parse("q1^0") == ex.ONE
        assert (ex.E_SYM / ex.M_SYM) ** -2 == ex.M_SYM**2 / ex.E_SYM**2
        with pytest.raises(ex.NonPolynomialError):
            (ex.q(1) + ex.ONE) ** -1

    def test_dummy_indices_kept_apart_in_products(self):
        qv = ex.q("i") * ex.v("i")  # contracted pair
        square = qv * qv
        # independent expansion: (sum_i q_i v_i)^2 has 9 concrete terms
        expanded = ex.expand_dummies(square)
        direct = sum(
            (
                ex.q(a) * ex.v(a) * ex.q(b) * ex.v(b)
                for a in (1, 2, 3)
                for b in (1, 2, 3)
            ),
            start=ZERO,
        )
        assert expanded == direct

    def test_shared_free_names_contract(self):
        # multiplying expressions that share a free name sums over it
        left = ex.q("i")
        right = ex.v("i")
        assert ex.expand_dummies(left * right) == sum(
            (ex.q(a) * ex.v(a) for a in (1, 2, 3)), start=ZERO
        )


class TestPartial:
    def test_velocity_square(self):
        assert partial(parse("v1^2"), ("v", 1)) == 2 * ex.v(1)

    def test_field_component_velocity_independent(self):
        assert partial(field_component("E", "j"), ("v", "i")).is_zero

    def test_product_rule_with_field(self):
        got = partial(ex.q(1) * field_component("B", 2), ("q", 1))
        expected = field_component("B", 2) + ex.q(1) * partial(
            field_component("B", 2), ("q", 1)
        )
        assert got == expected

    def test_partials_commute(self):
        rng = random.Random(5)
        variables = [("t", None), ("q", 1), ("q", 2), ("v", 1), ("v", 3)]
        for _ in range(60):
            expr = random_concrete_expr(rng, depth=4)
            for u in variables:
                for w in variables:
                    assert partial(partial(expr, u), w) == partial(partial(expr, w), u)

    def test_symbolic_index_derivative(self):
        # d q_1 / d q_k contracts against v_k inside the flow derivative
        assert partial(ex.q(1), ("q", "k")) == delta(1, "k")

    @pytest.mark.parametrize("var", [("a", 1), ex.q(1)], ids=["unknown-kind", "expression"])
    def test_bad_variable_rejected(self, var):
        # only (kind, index) pairs of t, q, v or x name a variable
        with pytest.raises(ex.ExprError):
            partial(parse("q1*v1"), var)


class TestTotalTimeDerivative:
    def test_coordinate(self):
        assert total_time_derivative(ex.q(1)) == ex.v(1)

    def test_field_component(self):
        got = total_time_derivative(field_component("B", "s"))
        expected = partial(field_component("B", "s"), ("t", None)) + ex.v(
            "j"
        ) * partial(field_component("B", "s"), ("q", "j"))
        assert got == expected

    def test_velocity_free_mode(self):
        assert total_time_derivative(ex.v(1)) == ex.accel(1)

    def test_chain_rule_against_difference_quotient(self):
        # numerical oracle along an explicit trajectory
        import math

        expr = parse("q1^2*v2 + t*q3")
        force_free = total_time_derivative(expr)

        def traj(tval):
            r = (math.sin(tval), tval**2, 1.0 + tval)
            v = (math.cos(tval), 2 * tval, 1.0)
            a = (-math.sin(tval), 2.0, 0.0)
            return r, v, a

        def value(e, tval):
            r, v, a = traj(tval)
            env = ex.expand_dummies(e)
            total = 0.0
            for coeff, cpow, atoms in env.terms:
                piece = float(coeff)
                for atom in atoms:
                    assert isinstance(atom, ex.Var)
                    if atom.kind == "t":
                        piece *= tval
                    elif atom.kind == "q":
                        piece *= r[atom.index - 1]
                    elif atom.kind == "v":
                        piece *= v[atom.index - 1]
                    elif atom.kind == "a":
                        piece *= a[atom.index - 1]
                total += piece
            return total

        t0, h = 0.7, 1e-6
        numeric = (value(expr, t0 + h) - value(expr, t0 - h)) / (2 * h)
        symbolic = value(force_free, t0)
        assert abs(numeric - symbolic) < 1e-6


class TestSubstituteFields:
    def test_derivative_substitution(self):
        vf = parse_vector_field("0;0;x1*x2")
        db3 = partial(field_component("B", 3), ("q", 1))
        assert substitute_fields(db3, {"B": vf}) == ex.x(2)

    def test_divergence_free_binding(self):
        div_b = partial(field_component("B", "l"), ("q", "l"))
        vf = parse_vector_field("x1;x2;-2*x3")
        assert substitute_fields(div_b, {"B": vf}).is_zero

    def test_zero_curl(self):
        zero = VectorField.zero()
        assert all(c.is_zero for c in curl(zero))

    def test_unbound_family(self):
        with pytest.raises(ex.UnboundSymbolError):
            substitute_fields(field_component("E", 1), {"B": VectorField.zero()})

    def test_free_index_rejected(self):
        with pytest.raises(ex.UnboundSymbolError):
            substitute_fields(field_component("B", "s"), {"B": VectorField.zero()})

    def test_coordinates_move_to_field_space(self):
        got = substitute_fields(ex.q(1) * field_component("B", 2), {"B": parse_vector_field("0;1;0")})
        assert got == ex.x(1)


class TestParity:
    def test_examples(self):
        e_sq = field_component("E", "i") * field_component("E", "i")
        e_dot_b = field_component("E", "i") * field_component("B", "i")
        b_sq = field_component("B", "i") * field_component("B", "i")
        assert parity_transform(e_sq) == e_sq
        assert parity_transform(e_dot_b) == -e_dot_b
        assert parity_transform(b_sq) == b_sq

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(200):
            expr = random_concrete_expr(rng, depth=5)
            assert parity_transform(parity_transform(expr)) == expr

    def test_derivative_slots_flip(self):
        db = partial(field_component("B", 1), ("q", 2))
        assert parity_transform(db) == -db
        d2b = partial(db, ("q", 3))
        assert parity_transform(d2b) == d2b
        da0 = partial(scalar_field("A0"), ("q", 1))
        assert parity_transform(da0) == -da0


class TestPrinting:
    def test_round_trip_fixed_point(self):
        rng = random.Random(17)
        samples = [random_concrete_expr(rng, depth=5) for _ in range(300)]
        samples += [
            ex.partial(field_component("B", "l"), ("q", "l")),
            eps("s", "a", "b") * partial(field_component("E", "b"), ("q", "a")),
            delta(1, "k") * ex.q(2),
            total_time_derivative(field_component("B", "s")),
        ]
        for expr in samples:
            printed = str(expr)
            reparsed = parse(printed, "extended")
            assert reparsed == expr
            assert str(reparsed) == printed

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, seed):
        expr = random_concrete_expr(random.Random(seed), depth=5)
        assert parse(str(expr), "extended") == expr


class TestVectorField:
    def test_validation(self):
        with pytest.raises(ex.ExprError):
            VectorField((ex.q(1), ZERO, ZERO))
        with pytest.raises(ex.ExprError):
            VectorField((ex.v(1), ZERO, ZERO))
        with pytest.raises(ex.ExprError):
            VectorField((ZERO, ZERO))

    def test_calculus_helpers(self):
        vf = parse_vector_field("x2;x3;x1")
        assert divergence(vf).is_zero
        assert [str(c) for c in curl(vf)] == ["-1", "-1", "-1"]

    def test_static_detection(self):
        assert parse_vector_field("x1;0;0").is_static()
        assert not parse_vector_field("t*x1;0;0").is_static()


class TestLeviCivitaHelpers:
    """The shared eps contractions against brute sums over eps_value."""

    def test_sign_table_matches_eps_value(self):
        # the reference canonicalizer reads _EPS_SIGN too, so check it here
        perms = set(itertools.permutations((1, 2, 3)))
        assert set(ex._EPS_SIGN) == perms
        for p in perms:
            assert ex._EPS_SIGN[p] == eps_value(*p)

    @staticmethod
    def vectors(seed):
        rng = random.Random(seed)
        return [random_polynomial(rng) for _ in range(3)], [
            random_polynomial(rng) for _ in range(3)
        ]

    @pytest.mark.parametrize("seed", range(5))
    def test_axial_dual_inverts_eps_matrix(self, seed):
        _, w = self.vectors(seed)
        assert ex._axial_dual(ex._eps_matrix(w)) == tuple(2 * wk for wk in w)

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_is_antisymmetric(self, seed):
        u, w = self.vectors(seed)
        assert ex._cross(u, w) == tuple(-c for c in ex._cross(w, u))

    @pytest.mark.parametrize("seed", range(5))
    def test_against_brute_sums(self, seed):
        u, w = self.vectors(seed)
        cross = ex._cross(u, w)
        matrix = ex._eps_matrix(w)
        outer = [[a * b for b in w] for a in u]
        dual = ex._axial_dual(outer)
        r = (1, 2, 3)
        for i in r:
            brute_cross = sum(
                (eps_value(i, j, k) * u[j - 1] * w[k - 1] for j in r for k in r),
                start=ZERO,
            )
            assert cross[i - 1] == brute_cross
            by_matrix = sum((matrix[i - 1][j - 1] * u[j - 1] for j in r), start=ZERO)
            assert by_matrix == brute_cross
            assert dual[i - 1] == sum(
                (eps_value(i, j, k) * outer[j - 1][k - 1] for j in r for k in r),
                start=ZERO,
            )
            for j in r:
                assert matrix[i - 1][j - 1] == sum(
                    (eps_value(i, j, k) * w[k - 1] for k in r), start=ZERO
                )

    @pytest.mark.parametrize("seed", range(5))
    def test_coordinate_rename_round_trip(self, seed):
        p = random_polynomial(random.Random(seed), max_degree=3, terms=4)
        moved = ex.phase_space(p)
        assert not moved.has_kind("x")
        assert ex._field_space(moved) == p

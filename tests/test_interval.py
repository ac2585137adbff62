from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cctt.errors import FaceTooLarge
from cctt.interval import (
    FAnd, FEq, FOr, FBOT, FTOP, MAX_CLAUSES,
    IJoin, IMeet, INeg, IVar, IZERO, IONE,
    face_clauses, face_dnf, face_entails, face_is_false, face_join,
    face_is_true, face_of_equation, iv_substitute, iv_vars,
)
from cctt.syntax import weaken_iv
from oracles import (
    DM4, TBOT, TONE, TTOP, TZERO, dm4_equal, dm4_eval, dm4_table,
    face_clauses_oracle, face_entails_oracle, face_equal_oracle, face_eval,
    face_eval_under, face_tree, face_valuations, iv_tree, iv_tree_vars,
    kernel_face, kernel_iv,
)

i, j, k = IVar(0), IVar(1), IVar(2)


def ivexprs(max_vars=3):
    """Interval expressions as the oracle's trees; `kernel_iv` builds
    each."""
    leaves = st.sampled_from([TZERO, TONE]
                             + [("var", n) for n in range(max_vars)])
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(lambda t: ("neg", t)),
            st.tuples(sub, sub).map(lambda p: ("meet", *p)),
            st.tuples(sub, sub).map(lambda p: ("join", *p)),
        ),
        max_leaves=12,
    )


def faces(max_vars=3):
    """Face formulas as the oracle's trees; `kernel_face` builds each."""
    gens = [("eq", n, b) for n in range(max_vars) for b in (0, 1)]
    leaves = st.sampled_from([TBOT, TTOP] + gens)
    return st.recursive(
        leaves,
        lambda sub: st.tuples(st.sampled_from(("and", "or")), sub, sub),
        max_leaves=12,
    )


class TestIntervalNormalize:
    # An interval expression is its normal form, so equality is `==`.

    def test_involution(self):
        assert INeg(INeg(i)) == i

    def test_units(self):
        assert IMeet(i, IONE) == i
        assert IJoin(i, IZERO) == i
        assert IMeet(i, IZERO) == IZERO
        assert IJoin(i, IONE) == IONE

    def test_distribution_agrees(self):
        lhs = IMeet(IJoin(i, j), INeg(i))
        rhs = IJoin(IMeet(j, INeg(i)), IMeet(i, INeg(i)))
        assert lhs == rhs

    def test_de_morgan_law(self):
        assert INeg(IMeet(i, j)) == IJoin(INeg(i), INeg(j))

    def test_meet_with_reversal_not_zero(self):
        # The interval is not a Boolean algebra.
        assert IMeet(i, INeg(i)) != IZERO
        assert IJoin(i, INeg(i)) != IONE

    def test_absorption(self):
        assert IJoin(i, IMeet(i, j)) == i
        assert IMeet(i, IJoin(i, j)) == i

    @given(ivexprs())
    def test_idempotent(self, tree):
        # Building an expression again from its own clauses gives the same
        # expression.
        r = kernel_iv(tree)
        assert kernel_iv(iv_tree(r)) == r

    @given(ivexprs())
    def test_normal_form_is_equal(self, tree):
        assert dm4_equal(tree, iv_tree(kernel_iv(tree)))

    @given(ivexprs())
    def test_dm4_table_is_every_valuation(self, tree):
        # The oracle's all-at-once evaluation against one valuation at a
        # time.
        vs = sorted(iv_tree_vars(tree))
        first, second = dm4_table(tree, vs)
        for a, values in enumerate(product(DM4, repeat=len(vs))):
            got = (first >> a & 1, second >> a & 1)
            assert got == dm4_eval(tree, dict(zip(vs, values)))

    @given(ivexprs(), ivexprs())
    def test_agrees_with_dm4_oracle(self, r, s):
        assert (kernel_iv(r) == kernel_iv(s)) == dm4_equal(r, s)

    def test_commutativity(self):
        assert IMeet(i, j) == IMeet(j, i)
        assert IJoin(i, j) == IJoin(j, i)

    def test_zero_one_detection(self):
        assert IMeet(IZERO, i) == IZERO
        assert IJoin(IONE, i) == IONE
        assert IMeet(i, INeg(i)) != IZERO

    def test_prints_in_normal_form_order(self):
        # A variable before its reversal, fewer literals first.
        assert repr(IMeet(INeg(i), i)) == "(i0 /\\ ~i0)"
        assert repr(IJoin(IMeet(j, k), INeg(i))) == "(~i0 \\/ (i1 /\\ i2))"
        assert repr(IJoin(INeg(j), j)) == "(i1 \\/ ~i1)"
        assert (repr(IZERO), repr(IONE), repr(INeg(k))) == ("0", "1", "~i2")


class TestFaceNormalize:
    def test_contradictory_generators(self):
        assert face_is_false(FAnd(FEq(0, 0), FEq(0, 1)))

    def test_lattice_units(self):
        phi = FOr(FEq(0, 0), FEq(1, 1))
        assert FOr(phi, FBOT) == phi
        assert FAnd(phi, FTOP) == phi

    def test_absorption(self):
        phi = FAnd(FOr(FEq(0, 0), FEq(1, 1)), FEq(0, 0))
        assert phi == FEq(0, 0)

    @given(faces())
    def test_idempotent(self, tree):
        # Building a face again from its own clauses gives the same face.
        phi = kernel_face(tree)
        assert kernel_face(face_tree(phi)) == phi

    @given(faces(), faces())
    def test_equal_agrees_with_oracle(self, p, q):
        assert (kernel_face(p) == kernel_face(q)) == face_equal_oracle(p, q)

    def test_clauses_are_consistent(self):
        phi = FOr(FAnd(FEq(0, 0), FEq(0, 1)), FEq(1, 0))
        assert face_clauses(phi) == [{1: 0}]


class TestFaceEntails:
    def test_conjunction_elimination(self):
        assert face_entails(FAnd(FEq(0, 0), FEq(1, 1)), FEq(0, 0))

    def test_bottom_entails_everything(self):
        assert face_entails(FBOT, FEq(2, 0))

    def test_disjunction_does_not_entail_fresh(self):
        assert not face_entails(FOr(FEq(0, 0), FEq(0, 1)), FEq(1, 0))

    @given(faces(), faces())
    def test_agrees_with_valuation_oracle(self, p, q):
        assert (face_entails(kernel_face(p), kernel_face(q))
                == face_entails_oracle(p, q))


class TestFaceOfEquation:
    def test_involution_clause(self):
        assert face_of_equation(INeg(j), 1) == FEq(1, 0)

    def test_meet_at_one(self):
        got = face_dnf(face_of_equation(IMeet(i, j), 1))
        assert got == face_dnf(FAnd(FEq(0, 1), FEq(1, 1)))

    def test_constant_mismatch(self):
        assert face_of_equation(IZERO, 1) == FBOT
        assert face_of_equation(IZERO, 0) == FTOP

    @given(ivexprs(), st.sampled_from([0, 1]))
    def test_agrees_with_endpoint_valuations(self, r, b):
        # For 0/1 valuations, r evaluates to b iff the face holds.
        phi = face_of_equation(kernel_iv(r), b)
        vs = sorted(iv_tree_vars(r) | iv_vars(phi))
        const = {0: (0, 0), 1: (1, 1)}
        for bits in product((0, 1), repeat=len(vs)):
            val = dict(zip(vs, bits))
            env = {v: const[x] for v, x in val.items()}
            assert ((dm4_eval(r, env) == const[b])
                    == face_eval(face_tree(phi), val))


class TestFaceSubstitute:
    def test_endpoint_substitution(self):
        assert face_is_true(iv_substitute(FEq(0, 0), {0: IZERO}))
        got = iv_substitute(FOr(FEq(0, 0), FEq(1, 1)), {0: IONE})
        assert got == FEq(1, 1)

    def test_join_substitution(self):
        got = iv_substitute(FEq(0, 1), {0: IJoin(j, k)})
        assert got == FOr(FEq(1, 1), FEq(2, 1))

    @given(faces())
    def test_commutes_with_normalize(self, tree):
        # Substituting into the normal form agrees with substituting into
        # the tree it was built from.
        sub = {0: ("meet", ("var", 3), ("var", 4)),
               1: ("neg", ("var", 3)), 2: TONE}
        kernel_sub = {n: kernel_iv(r) for n, r in sub.items()}
        got = face_tree(iv_substitute(kernel_face(tree), kernel_sub))
        for v in face_valuations(range(5)):
            assert face_eval(got, v) == face_eval_under(tree, sub, v)

    def test_identity_substitution(self):
        phi = FOr(FAnd(FEq(0, 0), FEq(1, 1)), FEq(2, 0))
        assert iv_substitute(phi, {}) == phi


# -- the kernel's faces against the oracle's trees --------------------------

VARS = 4


def _images(max_vars):
    """Interval trees a face variable may be replaced by."""
    leaves = st.sampled_from(
        [TZERO, TONE] + [("var", n) for n in range(max_vars)]
    )
    return st.one_of(
        leaves,
        leaves.map(lambda t: ("neg", t)),
        st.tuples(leaves, leaves).map(lambda p: ("meet", *p)),
        st.tuples(leaves, leaves).map(lambda p: ("join", *p)),
    )


@settings(derandomize=True, max_examples=150, deadline=None)
@given(faces(VARS), faces(VARS),
       st.fixed_dictionaries({n: _images(VARS + 1) for n in range(VARS)}),
       st.integers(0, VARS), st.integers(1, 2))
def test_kernel_faces_agree_with_tree_oracle(p, q, sub, cut, by):
    kp, kq = kernel_face(p), kernel_face(q)
    assert set(kp) == face_clauses_oracle(p, range(VARS))
    assert (kp == kq) == face_equal_oracle(p, q)
    assert face_entails(kp, kq) == face_entails_oracle(p, q)
    assert face_is_true(kp) == face_equal_oracle(p, TTOP)
    assert face_is_false(kp) == face_equal_oracle(p, TBOT)
    meet, join = face_tree(FAnd(kp, kq)), face_tree(FOr(kp, kq))
    kernel_sub = {n: kernel_iv(r) for n, r in sub.items()}
    substituted = face_tree(iv_substitute(kp, kernel_sub))
    weakened = face_tree(weaken_iv(kp, (0, 0, 0, by), (0, 0, 0, cut)))
    shift = {n: ("var", n + by if n >= cut else n) for n in range(VARS)}
    for v in face_valuations(range(VARS + by)):
        at_p, at_q = face_eval(p, v), face_eval(q, v)
        assert face_eval(meet, v) == (at_p and at_q)
        assert face_eval(join, v) == (at_p or at_q)
        assert face_eval(substituted, v) == face_eval_under(p, sub, v)
        assert face_eval(weakened, v) == face_eval_under(p, shift, v)


def test_substitution_by_reversal_and_meet():
    # (i=1)[~i/i] is (i=0); (i=0)[i /\ j/i] is (i=0) \/ (j=0).
    assert iv_substitute(FEq(0, 1), {0: INeg(i)}) == FEq(0, 0)
    assert (iv_substitute(FEq(0, 0), {0: IMeet(i, j)})
            == FOr(FEq(0, 0), FEq(1, 0)))
    # A clause the substitution makes inconsistent is dropped:
    # ((i=0) /\ (j=0))[~i/j] is (i=0) /\ (i=1), which is empty.
    assert face_is_false(iv_substitute(FAnd(FEq(0, 0), FEq(1, 0)),
                                       {1: INeg(i)}))
    assert (iv_substitute(FOr(FAnd(FEq(0, 0), FEq(1, 0)), FEq(2, 1)),
                          {1: INeg(i)}) == FEq(2, 1))


def test_normal_forms_past_the_limit_are_not_built():
    # A meet of joins over distinct variables doubles its clauses with
    # each conjunct, up to the limit and no further.
    phi, ors, n = FTOP, IZERO, 0
    while 2 * len(phi) <= MAX_CLAUSES:
        phi = FAnd(phi, FOr(FEq(2 * n, 0), FEq(2 * n + 1, 0)))
        ors = IJoin(ors, IMeet(IVar(2 * n), IVar(2 * n + 1)))
        n += 1
    assert len(phi) == MAX_CLAUSES
    with pytest.raises(FaceTooLarge):
        FAnd(phi, FOr(FEq(2 * n, 0), FEq(2 * n + 1, 0)))
    with pytest.raises(FaceTooLarge):
        FOr(phi, FEq(2 * n, 1))
    # The reversal of a join of n meets is a meet of n joins.
    assert len(INeg(ors)) == MAX_CLAUSES
    with pytest.raises(FaceTooLarge):
        INeg(IJoin(ors, IMeet(IVar(2 * n), IVar(2 * n + 1))))
    # Faces joined all at once are bounded by the clauses given, as a join
    # of two is.
    assert face_join((phi, FBOT)) == phi
    with pytest.raises(FaceTooLarge, match=f"of {MAX_CLAUSES + 1} clauses"):
        face_join((phi, FEq(2 * n, 1)))
    with pytest.raises(FaceTooLarge, match=f"of {MAX_CLAUSES + 1} clauses"):
        face_join(FEq(j, 0) for j in range(MAX_CLAUSES + 1))

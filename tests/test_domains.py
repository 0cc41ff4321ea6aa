import collections
import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from condwrites.domains import (
    ASCII, CM_BOT, CM_TOP, PW_BOT, PW_TOP, UNIVERSE_CAP, ConstDomain,
    ConstPowersetDomain, StateDomain, Universe, UniverseTooLarge, _pw_normalize,
    cm_filter_cmp, cm_havoc, cm_items, cm_join, cm_leq, cm_make,
    cm_meet, cm_post, fmt_map, make_domain,
)
from condwrites import domains
from condwrites.interference import CondWrites
from condwrites.lang import (
    CMP_OPS, INT_MAX, Assign, BinOp, Cmp, Lit, VarRef, parse_program,
)

from conftest import (
    bf_exec_assign, bf_gamma, bf_gamma_cm, bf_states, random_assign, random_cm,
    random_elem, random_interference, random_pw, sparse,
)
import reference_domains
import reference_oracle

VARS = ("x", "y")
U2 = Universe.of({"x": (0, 1), "y": (0, 1)})


def all_cms():
    """Every constant map over VARS with values in {0,1}, plus bottom."""
    out = [CM_BOT]
    for keys in itertools.chain.from_iterable(
            itertools.combinations(VARS, k) for k in range(len(VARS) + 1)):
        for vals in itertools.product((0, 1), repeat=len(keys)):
            out.append(cm_make(dict(zip(keys, vals))))
    return out


ALL_CMS = all_cms()


def test_universe_basics():
    assert U2.var_order == ("x", "y")
    assert U2.size() == 4
    assert len(list(reference_oracle.states(U2))) == 4
    # 8^7 states exceed the cap; the size is computed, not enumerated
    big = Universe.of({f"v{i}": range(8) for i in range(7)})
    assert big.size() > UNIVERSE_CAP
    with pytest.raises(UniverseTooLarge):
        list(reference_oracle.states(big))
    with pytest.raises(ValueError):
        Universe.of({"x": ()})


# -- exhaustive lattice laws for the constant domain ---------------------------


def test_const_exhaustive_partial_order():
    dom = ConstDomain(VARS)
    for d in ALL_CMS:
        assert dom.leq(d, d)
    for d1, d2 in itertools.product(ALL_CMS, repeat=2):
        if dom.leq(d1, d2) and dom.leq(d2, d1):
            assert d1 == d2
        # order agrees with concretisation
        if dom.leq(d1, d2):
            assert bf_gamma(dom, d1, U2) <= bf_gamma(dom, d2, U2)
    for d1, d2, d3 in itertools.product(ALL_CMS, repeat=3):
        if dom.leq(d1, d2) and dom.leq(d2, d3):
            assert dom.leq(d1, d3)


def test_const_exhaustive_join_meet():
    dom = ConstDomain(VARS)
    for d1, d2 in itertools.product(ALL_CMS, repeat=2):
        j = dom.join(d1, d2)
        m = dom.meet(d1, d2)
        # join is the least upper bound within the finite element set
        assert dom.leq(d1, j) and dom.leq(d2, j)
        for ub in ALL_CMS:
            if dom.leq(d1, ub) and dom.leq(d2, ub):
                assert dom.leq(j, ub)
        # meet is the greatest lower bound
        assert dom.leq(m, d1) and dom.leq(m, d2)
        for lb in ALL_CMS:
            if dom.leq(lb, d1) and dom.leq(lb, d2):
                assert dom.leq(lb, m)
        # soundness w.r.t. sets of states; meet is exact for constant maps
        g1, g2 = bf_gamma(dom, d1, U2), bf_gamma(dom, d2, U2)
        assert bf_gamma(dom, j, U2) >= g1 | g2
        assert bf_gamma(dom, m, U2) == g1 & g2
        # commutativity
        assert j == dom.join(d2, d1)
        assert m == dom.meet(d2, d1)


def test_const_exhaustive_havoc_axioms():
    dom = ConstDomain(VARS)
    subsets = [frozenset(s) for k in range(3)
               for s in itertools.combinations(VARS, k)]
    for d in ALL_CMS:
        assert dom.havoc(d, frozenset()) == d
        for v1 in subsets:
            h = dom.havoc(d, v1)
            assert dom.leq(d, h)  # extensive
            for v2 in subsets:
                assert dom.havoc(h, v2) == dom.havoc(d, v1 | v2)
            # concretisation includes every variation on the havocked vars
            g = bf_gamma(dom, d, U2)
            gh = bf_gamma(dom, h, U2)
            for s in g:
                for t in bf_states(U2):
                    if all(t[i] == s[i] or U2.var_order[i] in v1
                           for i in range(len(s))):
                        assert t in gh


def test_const_top_bot():
    dom = ConstDomain(VARS)
    assert dom.is_bot(dom.bot()) and not dom.is_bot(dom.top())
    assert bf_gamma(dom, dom.bot(), U2) == set()
    assert bf_gamma(dom, dom.top(), U2) == set(bf_states(U2))


# -- post and filter -------------------------------------------------------------


def test_post_examples():
    dom = ConstDomain(VARS)
    d = cm_make({"x": 1})
    a = Assign(1, ("y",), (VarRef("x"),))
    assert dom.post(a, d) == cm_make({"x": 1, "y": 1})
    # assigning an unknown expression drops the binding
    a2 = Assign(1, ("x",), (VarRef("y"),))
    assert dom.post(a2, d) == CM_TOP
    # simultaneous swap reads the pre-state
    swap = Assign(1, ("x", "y"), (VarRef("y"), VarRef("x")))
    d2 = cm_make({"x": 0, "y": 1})
    assert dom.post(swap, d2) == cm_make({"x": 1, "y": 0})
    assert dom.post(a, CM_BOT) == CM_BOT


def test_post_soundness_randomized():
    rng = random.Random(7)
    dom = ConstDomain(VARS)
    for _ in range(300):
        d = random_cm(rng, VARS)
        k = rng.randint(1, 2)
        targets = tuple(rng.sample(VARS, k))
        exprs = tuple(
            Lit(rng.choice((0, 1))) if rng.random() < 0.5
            else VarRef(rng.choice(VARS)) for _ in range(k))
        a = Assign(1, targets, exprs)
        post = dom.post(a, d)
        for s in bf_gamma(dom, d, U2):
            assert bf_exec_assign(a, s, U2.var_order) in bf_gamma(dom, post, U2)


def test_filter_examples():
    dom = ConstDomain(VARS)
    # an unbound variable compared for equality against a constant is bound
    assert dom.filter(Cmp("==", VarRef("x"), Lit(1)), CM_TOP) == cm_make({"x": 1})
    assert dom.filter(Cmp("==", Lit(0), VarRef("y")), CM_TOP) == cm_make({"y": 0})
    # decidable comparisons go to bottom or stay put
    d = cm_make({"x": 1})
    assert dom.filter(Cmp("!=", VarRef("x"), Lit(1)), d) == CM_BOT
    assert dom.filter(Cmp("<", VarRef("x"), Lit(5)), d) == d
    # undecidable ones are kept (sound no-op)
    assert dom.filter(Cmp("<", VarRef("y"), Lit(1)), d) == d


def test_filter_soundness_randomized():
    rng = random.Random(11)
    dom = ConstDomain(VARS)
    pool = [parse_program(f"vars x, y; pre {src}; thread T {{ skip; }}").pre
            for src in (
                "x == 0", "x != y", "x < y || y == 1", "!(x == 1) && y >= 0",
                "true", "false", "x <= 0 && !(y != 1)")]
    from condwrites.lang import eval_cond
    for _ in range(300):
        d = random_cm(rng, VARS)
        c = rng.choice(pool)
        f = dom.filter(c, d)
        kept = {s for s in bf_gamma(dom, d, U2)
                if eval_cond(c, dict(zip(U2.var_order, s)))}
        assert kept <= bf_gamma(dom, f, U2)
        assert bf_gamma(dom, f, U2) <= bf_gamma(dom, d, U2)


# -- powerset completion ----------------------------------------------------------


def pw_dom(max_disjuncts=64):
    return ConstPowersetDomain(VARS, max_disjuncts=max_disjuncts)


def test_pw_normalization():
    dom = pw_dom()
    a = cm_make({"x": 0})
    b = cm_make({"x": 0, "y": 1})
    d = dom.make([b, CM_BOT, a, a])
    # bottoms dropped, subsumed disjuncts dropped, duplicates collapsed
    assert d == {a}
    assert dom.make([]) == dom.bot()
    assert dom.is_bot(dom.bot())
    assert dom.top() == {CM_TOP}


def test_pw_gamma_is_union():
    rng = random.Random(3)
    dom = pw_dom()
    for _ in range(200):
        ms = [random_cm(rng, VARS) for _ in range(rng.randint(0, 4))]
        d = dom.make(ms)
        expect = set()
        for m in ms:
            expect |= bf_gamma_cm(m, U2)
        assert bf_gamma(dom, d, U2) == expect


def test_pw_lattice_soundness_randomized():
    rng = random.Random(5)
    dom = pw_dom()
    for _ in range(400):
        d1 = random_pw(rng, dom)
        d2 = random_pw(rng, dom)
        j = dom.join(d1, d2)
        m = dom.meet(d1, d2)
        g1, g2 = bf_gamma(dom, d1, U2), bf_gamma(dom, d2, U2)
        assert bf_gamma(dom, j, U2) == g1 | g2  # join is exact (set union)
        assert bf_gamma(dom, m, U2) == g1 & g2  # meets of constant maps are exact
        if dom.leq(d1, d2):
            assert g1 <= g2
        assert dom.leq(d1, j) and dom.leq(d2, j)
        assert dom.leq(m, d1) and dom.leq(m, d2)
        # havoc axioms carry over
        drop = frozenset(rng.sample(VARS, rng.randint(0, 2)))
        assert dom.leq(d1, dom.havoc(d1, drop))
        assert dom.havoc(dom.havoc(d1, drop), drop) == dom.havoc(d1, drop)


def maximal_maps(maps) -> frozenset:
    """The definition `_pw_normalize` implements: the non-bottom maps whose
    bindings strictly contain no other's, by comparing every pair of
    decoded binding sets."""
    uniq = {m: set(cm_items(m)) for m in maps if m is not CM_BOT}
    return frozenset(m for m, b in uniq.items()
                     if not any(b2 < b for b2 in uniq.values()))


def test_pw_normalize_matches_pairwise_definition():
    rng = random.Random(6)
    variables = ("a", "b", "c", "d")
    for _ in range(3000):
        maps = [random_cm(rng, variables, values=(0, 1, 2))
                for _ in range(rng.randint(0, 12))]
        assert _pw_normalize(maps) == maximal_maps(maps)


# constant maps over three variables with values (0, 1, 2), and bottom
CMS3 = st.one_of(
    st.just(CM_BOT),
    st.dictionaries(st.sampled_from(("a", "b", "c")), st.integers(0, 2))
    .map(cm_make))


@given(st.lists(CMS3, max_size=10), st.lists(CMS3, max_size=10))
def test_pw_normalize_of_a_normalized_part(a, b):
    # the ⊆-minimal maps are a unique normal form, so normalising part of a
    # pool first changes nothing: the fused powerset stabilise normalises once
    assert _pw_normalize(list(_pw_normalize(a)) + b) == _pw_normalize(a + b)


@given(st.lists(CMS3, max_size=10),
       st.frozensets(st.sampled_from(("a", "b", "c"))))
def test_pw_normalize_commutes_with_havoc(a, drop):
    # cm_havoc is monotone on binding sets: a dropped map's havoc contains a
    # kept map's havoc, so havocking before or after normalising agrees
    assert (_pw_normalize(cm_havoc(x, drop) for x in _pw_normalize(a))
            == _pw_normalize(cm_havoc(x, drop) for x in a))


@pytest.mark.parametrize("max_disjuncts", [64, 2, 1])
def test_pw_join_of_antichains_is_make_of_union(max_disjuncts):
    # the cross-comparison join equals renormalising the union, cap included
    rng = random.Random(7)
    variables = ("a", "b", "c")
    dom = ConstPowersetDomain(variables, max_disjuncts=max_disjuncts)
    for _ in range(3000):
        d1, d2 = (random_pw(rng, dom, values=(0, 1, 2), max_disjuncts=5)
                  for _ in range(2))
        if rng.random() < 0.3:  # antichains sharing maps, or nested ones
            shared = sorted(d1, key=cm_items)
            d2 = dom.make(shared[:rng.randint(0, len(shared))] + list(d2))
        assert dom.join(d1, d2) == dom.make(d1 | d2)
        assert dom.join(d2, d1) == dom.join(d1, d2)


# non-bottom constant maps over three variables (CM_TOP built apart among
# them), and expressions, comparisons and assignments over them; INT_MAX
# lets a sum or product overflow
MAPS3 = st.dictionaries(st.sampled_from(("a", "b", "c")), st.integers(0, 2)).map(cm_make)
LEAVES3 = st.one_of(st.sampled_from((0, 1, 2, INT_MAX)).map(Lit),
                    st.sampled_from(("a", "b", "c")).map(VarRef))
EXPRS3 = st.one_of(LEAVES3, st.builds(
    lambda op, left, right: BinOp((op,), (left, right)),
    st.sampled_from("+-*"), LEAVES3, LEAVES3))
CMPS3 = st.builds(Cmp, st.sampled_from(sorted(CMP_OPS)), EXPRS3, EXPRS3)
ASSIGNS3 = st.lists(st.sampled_from(("a", "b", "c")), min_size=1, max_size=3,
                    unique=True).flatmap(lambda targets: st.lists(
                        EXPRS3, min_size=len(targets), max_size=len(targets)).map(
                            lambda exprs: Assign(1, tuple(targets), tuple(exprs))))


def pw_elems(cap: int):
    """Powerset elements within cap: ⊥, ⊤, one map, or several maps
    normalised (which may leave one)."""
    shapes = [st.just(PW_BOT), st.just(PW_TOP), MAPS3.map(lambda m: frozenset((m,)))]
    if cap > 1:
        shapes.append(st.lists(MAPS3, min_size=2, max_size=min(cap, 4))
                      .map(_pw_normalize))
    return st.one_of(shapes)


def counted(dom, fn, *args):
    """fn's result, with the ops and cap collapses it added to dom."""
    ops, collapses = dom.ops, dom.cap_collapses
    out = fn(*args)
    return out, dom.ops - ops, dom.cap_collapses - collapses


@pytest.mark.parametrize("cap", [64, 2, 1])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pw_fast_paths_match_the_make_path(cap, data):
    # the one-disjunct paths against the method bodies that sent every
    # result through `make`: the same value, ops and cap collapses on ⊥, ⊤,
    # one map and several. At cap 1 a join of two incomparable maps must
    # collapse to their flat join, and count the collapse
    dom = ConstPowersetDomain(("a", "b", "c"), max_disjuncts=cap)
    d1, d2 = data.draw(pw_elems(cap)), data.draw(pw_elems(cap))
    drop = data.draw(st.frozensets(st.sampled_from(("a", "b", "c"))))
    a, c = data.draw(ASSIGNS3), data.draw(CMPS3)
    assert_powerset_matches_reference(dom, d1, d2, drop, a, c)


def assert_powerset_matches_reference(dom, d1, d2, drop, a, c, state=None):
    """Each powerset primitive against its make-path body over the
    frozenset maps of `reference_domains`: the same value, read through
    `cm_items`, the same ops and the same cap collapses."""
    r1, r2 = reference_domains.ref_pw(d1), reference_domains.ref_pw(d2)
    cases = [
        ("leq", (d1, d2), (r1, r2)), ("leq", (d2, d1), (r2, r1)),
        ("join", (d1, d2), (r1, r2)), ("join", (d2, d1), (r2, r1)),
        ("meet", (d1, d2), (r1, r2)), ("havoc", (d1, drop), (r1, drop)),
        ("post", (a, d1), (a, r1)), ("_filter_cmp", (c, d1), (c, r1))]
    if state is not None:
        cases.append(("contains", (d1, state), (r1, state)))
    for name, args, ref_args in cases:
        want = counted(dom, getattr(reference_domains, name.lstrip("_")),
                       dom, *ref_args)
        out, ops, collapses = counted(dom, getattr(dom, name), *args)
        if isinstance(out, frozenset):
            assert is_elem(dom, out), (name, out)
            out = reference_domains.ref_pw(out)
        assert (out, ops, collapses) == want, name
    assert dom.fmt(d1) == reference_domains.fmt_pw(r1)


@given(st.one_of(st.just(CM_BOT), MAPS3), ASSIGNS3)
def test_cm_post_one_pass_matches_havoc_and_union(d, a):
    # the bitset post clears the targets and ORs in the known bindings; the
    # reference is the frozenset body that rebuilt the bindings as a dict
    assert (reference_domains.ref(cm_post(a, d))
            == reference_domains.cm_post(a, reference_domains.ref(d)))


def test_pw_disjunct_cap_collapses_to_flat_join():
    dom = pw_dom(max_disjuncts=2)
    ms = [cm_make({"x": 0, "y": 0}), cm_make({"x": 1, "y": 0}),
          cm_make({"x": 0, "y": 1})]
    d = dom.make(ms)
    # three incomparable disjuncts exceed the cap; they collapse to their join
    (collapsed,) = d
    for m in ms:
        assert cm_leq(m, collapsed)


def test_pw_cap_collapses_are_counted():
    dom = pw_dom(max_disjuncts=2)
    x0, x1, y1 = cm_make({"x": 0}), cm_make({"x": 1}), cm_make({"y": 1})
    two = dom.make([x0, x1])
    assert dom.cap_collapses == 0
    assert dom.join(two, dom.make([y1])) == dom.top()  # three disjuncts
    assert dom.cap_collapses == 1
    dom.make([x0, x1, y1])
    assert dom.cap_collapses == 2
    assert ConstDomain(VARS).cap_collapses == 0


def test_pw_filter_keeps_disjunct_precision():
    dom = pw_dom()
    d = dom.make([cm_make({"x": 0}), cm_make({"x": 1, "y": 1})])
    f = dom.filter(Cmp("==", VarRef("x"), Lit(1)), d)
    assert f == {cm_make({"x": 1, "y": 1})}


# -- shared bits ------------------------------------------------------------------


def test_ops_counter_counts_join_meet_only():
    dom = ConstDomain(VARS)
    d = cm_make({"x": 1})
    dom.join(d, d)
    dom.meet(d, d)
    dom.havoc(d, frozenset({"x"}))
    dom.leq(d, d)
    assert dom.ops == 2


# -- the ⊥ rule: a join or meet with a ⊥ operand is neither performed nor counted

DOMAINS3 = pytest.mark.parametrize(
    "kind", [ConstDomain, ConstPowersetDomain], ids=["const", "powerset"])


@DOMAINS3
def test_join_and_meet_with_bottom_count_no_op(kind):
    dom = kind(("a", "b", "c"))
    rng = random.Random(53)
    bot = dom.bot()
    for _ in range(100):
        d = random_elem(rng, dom, values=(0, 1, 2))
        before = dom.ops
        assert dom.join(bot, d) == d and dom.join(d, bot) == d
        assert dom.is_bot(dom.meet(bot, d)) and dom.is_bot(dom.meet(d, bot))
        assert dom.ops == before
        if not dom.is_bot(d):
            dom.join(d, d)
            dom.meet(d, d)
            assert dom.ops == before + 2


@DOMAINS3
def test_stabilising_bottom_counts_no_op(kind):
    dom = kind(("a", "b", "c"))
    rng = random.Random(54)
    for _ in range(50):
        step = dom.stabiliser(random_interference(rng, dom, values=(0, 1, 2)))
        before = dom.ops
        assert dom.is_bot(step(dom.bot()))
        assert dom.ops == before


def assert_step_matches_meets(dom, pairs):
    """The const step, which decides each meet by a bit count, against the
    closed form's built meets: the same value and the same ops on each
    (i, d), with i applied as given, ⊥ entries included. Returns how often
    the edge cases came up: ⊥ d, ⊤ and ⊥ write-conditions, and d binding a
    variable to a value that no write-condition binds it to."""
    seen = collections.Counter()
    for i, d in pairs:
        want = counted(dom, reference_domains.const_stabiliser(dom, i), d)
        assert counted(dom, dom.stabiliser(i), d) == want, (i, d)
        if d is CM_BOT:
            seen["⊥ d"] += 1
            continue
        seen["⊤ write-condition"] += CM_TOP in i.values()
        seen["⊥ write-condition"] += CM_BOT in i.values()
        # d binds x to a value that no write-condition binds x to, while
        # some write-condition binds x: every binder of x is ruled out
        used = {b for wc in i.values() if wc is not CM_BOT for b in cm_items(wc)}
        bound = {x for x, _ in used}
        seen["unused value"] += any(x in bound and (x, c) not in used
                                    for x, c in cm_items(d))
    return seen


def test_const_indexed_stabilise_matches_meets_random():
    # sparse interferences over three variables with values {0, 1}, and
    # states that also bind 2, which no write-condition uses
    rng = random.Random(56)
    dom = ConstDomain(("a", "b", "c"))
    pairs = [(random_interference(rng, dom), random_cm(rng, dom.variables, (0, 1, 2)))
             for _ in range(5_000)]
    seen = assert_step_matches_meets(dom, pairs)
    assert all(seen[what] for what in ("⊥ d", "⊤ write-condition", "unused value")), seen


def test_const_indexed_stabilise_matches_meets_exhaustive():
    # every write-condition map over two {0,1} variables, sparse and with
    # its ⊥ entries kept, against every d over the values {0, 1, 2}
    dom = ConstDomain(VARS)
    states = [CM_BOT] + [cm_make(dict(zip(keys, vals)))
                         for k in range(len(VARS) + 1)
                         for keys in itertools.combinations(VARS, k)
                         for vals in itertools.product((0, 1, 2), repeat=k)]
    pairs = [(i, d)
             for wcs in itertools.product(ALL_CMS, repeat=len(VARS))
             for i in (dict(zip(VARS, wcs)), sparse(dict(zip(VARS, wcs))))
             for d in states]
    seen = assert_step_matches_meets(dom, pairs)
    assert all(seen[what] for what in (
        "⊥ d", "⊤ write-condition", "⊥ write-condition", "unused value")), seen


@DOMAINS3
def test_write_set_walks_meet_no_bottom(kind, monkeypatch):
    # the powerset's subset walk and the const closed forms range over the
    # rely's variables, so none meets a missing (⊥) write-condition, and
    # none meets a ⊥ it built itself; the const stabilise step decides its
    # meets by bit counts and performs none
    dom = kind(("a", "b", "c"))
    rng = random.Random(55)
    operands = []
    meet = dom.meet

    def spy(d1, d2):
        operands.extend((d1, d2))
        return meet(d1, d2)

    monkeypatch.setattr(dom, "meet", spy)
    for _ in range(200):
        i = random_interference(rng, dom, values=(0, 1, 2))
        d = random_elem(rng, dom, values=(0, 1, 2))
        if kind is ConstPowersetDomain:
            dom._write_sets(i)
        elif not dom.is_bot(d):
            dom.stabiliser(i)(d)
        for v in i:
            dom.close_one(i, v)
    assert operands and not any(dom.is_bot(x) for x in operands)


# -- abstract evaluation: the concrete evaluator on the known bindings -----------

# INT_MAX + w overflows 64 bits once w is bound to 1
OVERFLOW = BinOp(("+",), (Lit(INT_MAX), VarRef("w")))


def test_eval_unknown_on_unbound_or_overflow():
    d = cm_make({"w": 1})
    assert domains._eval(BinOp(("*",), (VarRef("w"), Lit(3))), d) == 3
    assert domains._eval(VarRef("z"), d) is None
    assert domains._eval(OVERFLOW, d) is None
    # an intermediate overflow is unknown even when the final value fits
    assert domains._eval(BinOp(("-",), (OVERFLOW, Lit(1))), d) is None
    # and so is one inside a spine, applied left to right
    assert domains._eval(
        BinOp(("+", "-"), (Lit(INT_MAX), VarRef("w"), Lit(1))), d) is None
    assert domains._eval(
        BinOp(("-", "+"), (Lit(INT_MAX), VarRef("w"), Lit(1))), d) == INT_MAX
    # no algebraic short cut: x * 0 with x unbound stays unknown
    assert domains._eval(BinOp(("*",), (VarRef("x"), Lit(0))), d) is None


def test_cm_post_drops_only_the_unknown_targets():
    # x overflows, y reads the unbound z, w is known; all read the pre-state
    a = Assign(1, ("x", "y", "w"),
               (OVERFLOW, BinOp(("+",), (VarRef("z"), Lit(1))), BinOp(("*",), (VarRef("w"), Lit(2)))))
    assert cm_post(a, cm_make({"x": 0, "y": 0, "w": 1})) == cm_make({"w": 2})
    times_zero = Assign(1, ("y",), (BinOp(("*",), (VarRef("x"), Lit(0))),))
    assert cm_post(times_zero, cm_make({"y": 5})) == CM_TOP
    assert cm_post(a, CM_BOT) is CM_BOT


@pytest.mark.parametrize("op", ["==", "!=", "<", ">="])
def test_cm_filter_with_an_overflowing_side_keeps_d(op):
    d = cm_make({"w": 1})
    for left, right in ((OVERFLOW, Lit(0)), (Lit(0), OVERFLOW), (VarRef("y"), OVERFLOW)):
        assert cm_filter_cmp(Cmp(op, left, right), d) == d
    # a known side still refines an unbound variable
    assert cm_filter_cmp(Cmp("==", VarRef("y"), VarRef("w")), d) == cm_make({"w": 1, "y": 1})


def test_fmt():
    dom = ConstDomain(VARS)
    assert dom.fmt(CM_TOP) == "⊤" and dom.fmt(CM_BOT) == "⊥"
    assert dom.fmt(cm_make({"y": 0, "x": 3})) == "[x↦3, y↦0]"
    pw = pw_dom()
    two = pw.make([cm_make({"y": 1}), cm_make({"x": 0})])
    assert pw.fmt(two) == "{[x↦0]; [y↦1]}"
    assert pw.fmt(pw.top()) == "⊤" and pw.fmt(pw.bot()) == "⊥"
    # a constant map and an interference share the map syntax
    assert fmt_map(cm_items(cm_make({"x": 3}))) == dom.fmt(cm_make({"x": 3}))
    assert fmt_map([("x", dom.fmt(cm_make({"y": 1}))), ("y", dom.fmt(CM_BOT))]) \
        == "[x↦[y↦1], y↦⊥]"
    assert fmt_map([]) == "[]"
    # `ASCII` respells the three glyphs and nothing else
    assert f"{pw.fmt(two)} {pw.fmt(pw.top())} {dom.fmt(CM_BOT)}".translate(ASCII) \
        == "{[x|->0]; [y|->1]} top bot"


def test_make_domain():
    assert isinstance(make_domain("const", VARS), ConstDomain)
    assert isinstance(make_domain("const-powerset", VARS), ConstPowersetDomain)
    with pytest.raises(ValueError):
        make_domain("intervals", VARS)
    with pytest.raises(ValueError):
        make_domain("constPowerset", VARS)
    with pytest.raises(ValueError):
        make_domain("const-powerset", VARS, max_disjuncts=0)


def test_n_and_the_write_set_plan_belong_to_the_powerset():
    # n is a precision parameter of the powerset, fixed when it is built
    # (default |V|); the const domain's stabilise needs neither n nor a plan
    vs = ("a", "b", "c")
    assert make_domain("const-powerset", vs).n == len(vs)
    for k in range(len(vs) + 1):
        assert make_domain("const-powerset", vs, n=k).n == k
    dom = make_domain("const-powerset", vs, 2, 1)
    assert (dom.max_disjuncts, dom.n) == (2, 1)
    from condwrites.engine import AnalysisConfig, analyse

    p = parse_program("vars a, b, c; thread T { a := 1; b := a; }")
    for k in range(len(vs) + 1):
        res = analyse(p, AnalysisConfig(domain="const-powerset", n=k))
        assert res.domain.n == k and res.config.n == k
    assert analyse(p, AnalysisConfig(domain="const")).config.n == len(vs)
    const = make_domain("const", vs)
    for name in ("n", "_write_sets"):
        assert not hasattr(const, name) and not hasattr(ConstDomain, name)
        assert not hasattr(StateDomain, name)
    assert hasattr(ConstPowersetDomain, "_write_sets")


@pytest.mark.parametrize("n", [-1, 4])
def test_n_outside_zero_to_v_is_rejected(n):
    # at n = -1 the write-set plan would hold only the empty set, and
    # stabilise would ignore the rely
    vs = ("a", "b", "c")
    with pytest.raises(ValueError, match=r"n must be within 0\.\.3"):
        ConstPowersetDomain(vs, n=n)
    with pytest.raises(ValueError, match=r"n must be within 0\.\.3"):
        make_domain("const-powerset", vs, n=n)


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
def test_cm_bot_copies_are_cm_bot(clone):
    # bottom is checked by identity, so a copy of CM_BOT must be CM_BOT
    # itself, also inside a proof outline
    assert clone(CM_BOT) is CM_BOT
    outline = {1: CM_BOT, 2: cm_make({"x": 1}), 0: CM_TOP}
    out = clone(outline)
    assert out == outline and out[1] is CM_BOT
    assert ConstDomain(("x", "y", "z")).is_bot(out[1])


def test_every_domain_defines_stabilise():
    # a domain returns its own stabilise step for a rely, d ↦ stabilise(i, d):
    # there is no default route, and no per-call `stabilise` in the contract
    assert "stabiliser" in StateDomain.__abstractmethods__
    assert not hasattr(StateDomain, "stabilise")
    primitives = {name: lambda self, *args: None
                  for name in StateDomain.__abstractmethods__ - {"stabiliser"}}
    with pytest.raises(TypeError, match="stabiliser"):
        type("NoStabiliser", (StateDomain,), primitives)(VARS)
    full = type("WithStabiliser", (StateDomain,),
                {**primitives, "stabiliser": lambda self, i: lambda d: d})(VARS)
    assert full.stabiliser({})(CM_TOP) is CM_TOP
    assert CondWrites(full).stabilise({}, CM_TOP) is CM_TOP


def test_the_contract_is_the_two_interference_steps():
    # each domain supplies both interference steps, `stabiliser` and
    # `close_one`, with no default route for either; `bound_vars` is no part
    # of the contract. No domain overrides a concrete method of the contract
    # (the constructor aside, which takes the powerset's parameters)
    abstract = StateDomain.__abstractmethods__
    assert {"stabiliser", "close_one"} <= abstract
    assert not hasattr(StateDomain, "bound_vars")
    assert not hasattr(ConstDomain, "bound_vars")
    primitives = {name: lambda self, *args: None
                  for name in abstract - {"close_one"}}
    with pytest.raises(TypeError, match="close_one"):
        type("NoCloseOne", (StateDomain,), primitives)(VARS)
    concrete = {name for name, f in vars(StateDomain).items()
                if callable(f) and name not in abstract
                and not name.startswith("__")}
    assert "filter" in concrete
    for dom in (ConstDomain, ConstPowersetDomain):
        for name in concrete:
            assert getattr(dom, name) is getattr(StateDomain, name), (dom, name)


@given(st.dictionaries(st.sampled_from(VARS), st.integers(0, 1)),
       st.dictionaries(st.sampled_from(VARS), st.integers(0, 1)))
def test_cm_join_associates_with_gamma(b1, b2):
    d1, d2 = cm_make(b1), cm_make(b2)
    dom = ConstDomain(VARS)
    assert (bf_gamma(dom, dom.join(d1, d2), U2)
            >= bf_gamma(dom, d1, U2) | bf_gamma(dom, d2, U2))
    assert dom.join(d1, dom.join(d2, d1)) == dom.join(dom.join(d1, d2), d1)


# -- representation contract ------------------------------------------------------

CONTRACT_VARS = ("x", "y", "z")
CONTRACT_CONDS = [
    parse_program(f"vars x, y, z; pre {src}; thread T {{ skip; }}").pre
    for src in ("x == 1", "y != z", "x < y || z == 2", "!(x == 0) && y >= 1",
                "z == x", "true", "false")]


def bits_ok(d) -> bool:
    """The bitset invariant, read off the intern table without `cm_items`:
    d is a non-negative int of interned bits, and a variable's bit is set
    iff exactly one of its binding bits is. A variable with two binding
    bits would be a second, unrecognised bottom, and one with a variable
    bit and no binding bit would make a later meet or join wrong."""
    if type(d) is not int or d < 0:
        return False
    var_bits, owners = [], []
    for p, bit in enumerate(reversed(bin(d)[2:])):
        if bit == "0":
            continue
        if p % 2 == 0:
            if p // 2 >= len(domains._VAR_MASK):
                return False
            var_bits.append(1 << p)
        else:
            if 1 << p not in domains._BINDING:
                return False
            var, _ = domains._BINDING[1 << p]
            owners.append(domains._VAR_MASK[var] & domains._VARS)
    return sorted(owners) == sorted(var_bits)


def is_cm(d) -> bool:
    """CM_BOT itself, or a bitset that keeps the invariant."""
    return d is CM_BOT or bits_ok(d)


def is_elem(dom, d) -> bool:
    if isinstance(dom, ConstPowersetDomain):
        return (type(d) is frozenset
                and all(m is not CM_BOT and is_cm(m) for m in d)
                and len(d) <= dom.max_disjuncts)
    return is_cm(d)


def bottom_only_by_identity(d) -> bool:
    return (d == CM_BOT) == (d is CM_BOT)


@pytest.mark.parametrize("dom", [
    ConstDomain(CONTRACT_VARS), ConstPowersetDomain(CONTRACT_VARS),
    ConstPowersetDomain(CONTRACT_VARS, max_disjuncts=2),
], ids=["const", "powerset", "powerset-cap2"])
def test_primitives_keep_the_representation(dom):
    # every const result is the CM_BOT sentinel or a bitset that keeps the
    # invariant, every powerset result a frozenset of such bitsets, no result
    # or disjunct merely equals CM_BOT, and no powerset element holds CM_BOT
    rng = random.Random(9)
    values = (0, 1, 2)
    for _ in range(1500):
        d1, d2 = (random_elem(rng, dom, values) for _ in range(2))
        drop = frozenset(rng.sample(CONTRACT_VARS, rng.randint(0, 3)))
        results = [
            d1, d2, dom.join(d1, d2), dom.meet(d1, d2), dom.havoc(d1, drop),
            dom.post(random_assign(rng, CONTRACT_VARS, values), d1),
            dom.filter(rng.choice(CONTRACT_CONDS), d1), dom.top(), dom.bot(),
        ]
        i = random_interference(rng, dom, values)
        results.append(dom.stabiliser(i)(d1))
        results += [dom.close_one(i, v) for v in i]
        if isinstance(dom, ConstPowersetDomain):
            maps = [random_cm(rng, CONTRACT_VARS, values)
                    for _ in range(rng.randint(0, 6))]
            results.append(dom._cap(_pw_normalize(maps)))
        for r in results:
            assert is_elem(dom, r), r
            assert bottom_only_by_identity(r)
            if isinstance(dom, ConstPowersetDomain):
                assert all(bottom_only_by_identity(m) for m in r)


def rebuilt(d):
    """An element equal to d built anew: a map encoded again from its
    decoded bindings, a powerset element as a new set of such maps."""
    if d is CM_BOT:
        return d
    if isinstance(d, frozenset):
        return frozenset([rebuilt(m) for m in d])
    return cm_make(dict(cm_items(d)))


@pytest.mark.parametrize("powerset", [False, True], ids=["const", "powerset"])
def test_equal_elements_built_apart_share_a_stabilise_memo_entry(powerset):
    dom = (ConstPowersetDomain(CONTRACT_VARS, n=2) if powerset
           else ConstDomain(CONTRACT_VARS))
    cw = CondWrites(dom)
    i = random_interference(random.Random(10), dom)
    d = cm_make({"x": 1, "y": 0})
    if powerset:
        d = dom.make([d, cm_make({"z": 2})])
    d2, i2 = rebuilt(d), {v: rebuilt(w) for v, w in i.items()}
    assert d2 == d
    if powerset:  # a new set object; a small int is one object in CPython
        assert d2 is not d
    out = cw.stabilise(i, d)
    hits = cw.memo_hits
    assert cw.stabilise(i2, d2) is out
    assert cw.memo_hits == hits + 1


@pytest.mark.parametrize("domain", ["const", "const-powerset"])
def test_corpus_outline_values_hash_by_content(domain):
    # the interference memos and the oracle's grouped soundness check key
    # dicts on outline values: each must hash, and a copy of it built anew
    # from its decoded bindings must hash and compare alike
    from condwrites.corpus import CASES, PROGRAMS_DIR
    from condwrites.engine import AnalysisConfig, analyse

    values = points = 0
    for case in CASES:
        p = parse_program((PROGRAMS_DIR / case.filename).read_text())
        res = analyse(p, AnalysisConfig(domain=domain))
        points += sum(len(t.flow.stmts) for t in p.threads)
        for outline in res.outlines.values():
            for d in outline.values():
                copy = rebuilt(d)
                assert copy == d and hash(copy) == hash(d), (case.name, d)
                values += 1
    # one value per control-flow point of the corpus, 74 in all
    assert values == points == 74


# -- the bitset maps against the frozenset reference --------------------------------

# values that include a negative one and one past 32 bits; literals also draw
# values no map has bound, so post and filter intern bindings as they go
DIFF_VALUES = (0, 1, 2, -3, 2**62)


def fresh_variables(rng: random.Random, batch: int) -> tuple[str, ...]:
    """Two to four variables that nothing has interned yet."""
    return tuple(f"fresh{batch}_{k}" for k in range(rng.randint(2, 4)))


def random_ref_map(rng: random.Random, variables):
    """A map of `reference_domains` (a frozenset of bindings), or CM_BOT."""
    if rng.random() < 0.05:
        return CM_BOT
    return frozenset((v, rng.choice(DIFF_VALUES)) for v in variables
                     if rng.random() < 0.6)


def encoded(m):
    """A reference map as a bitset."""
    return m if m is CM_BOT else cm_make(dict(m))


def random_leaf(rng: random.Random, variables):
    if rng.random() < 0.5:
        return VarRef(rng.choice(variables))
    return Lit(rng.choice(DIFF_VALUES) if rng.random() < 0.7
               else rng.randint(3, 10**6))


def random_expr(rng: random.Random, variables):
    if rng.random() < 0.7:
        return random_leaf(rng, variables)
    return BinOp((rng.choice("+-*"),),
                 (random_leaf(rng, variables), random_leaf(rng, variables)))


def random_diff_case(rng: random.Random, variables):
    """An assignment, a comparison, a drop set and a total store."""
    targets = tuple(rng.sample(variables, rng.randint(1, min(2, len(variables)))))
    a = Assign(1, targets, tuple(random_expr(rng, variables) for _ in targets))
    c = Cmp(rng.choice(sorted(CMP_OPS)), random_expr(rng, variables),
            random_expr(rng, variables))
    drop = frozenset(rng.sample(variables, rng.randint(0, len(variables))))
    state = {v: rng.choice(DIFF_VALUES) for v in variables}
    return a, c, drop, state


def test_const_primitives_match_the_frozenset_reference():
    # every const primitive, and compositions that feed a result back as an
    # operand, against the frozenset bodies, read through `cm_items`; each
    # result keeps the bit invariant. A join of maps binding a variable to
    # two values must repair that variable's bit, or the meets after it go
    # wrong; post and filter intern new bindings, after which every cached
    # havoc mask must cover them
    R = reference_domains
    rng = random.Random(61)
    dom = ConstDomain(VARS)
    seen = collections.Counter()
    for batch in range(60):
        variables = fresh_variables(rng, batch)
        for _ in range(50):
            r1, r2, r3 = (random_ref_map(rng, variables) for _ in range(3))
            d1, d2, d3 = map(encoded, (r1, r2, r3))
            a, c, drop, state = random_diff_case(rng, variables)
            interned = len(domains._BINDING)
            post, ref_post = dom.post(a, d1), R.cm_post(a, r1)
            seen["post interned"] += len(domains._BINDING) > interned
            interned = len(domains._BINDING)
            filtered, ref_filtered = dom._filter_cmp(c, d1), R.cm_filter_cmp(c, r1)
            seen["filter interned"] += len(domains._BINDING) > interned
            j, ref_j = dom.join(d1, d2), R.cm_join(r1, r2)
            seen["join repaired"] += (
                r1 is not CM_BOT and r2 is not CM_BOT
                and len(dict(r1 | r2)) < len(r1 | r2))
            for got, want in [
                    (dom.meet(d1, d2), R.cm_meet(r1, r2)), (j, ref_j),
                    (dom.meet(j, d3), R.cm_meet(ref_j, r3)),
                    (dom.join(j, d3), R.cm_join(ref_j, r3)),
                    (dom.join(dom.meet(d1, d2), d3),
                     R.cm_join(R.cm_meet(r1, r2), r3)),
                    (dom.havoc(d1, drop), R.cm_havoc(r1, drop)),
                    (post, ref_post), (filtered, ref_filtered),
                    (dom.havoc(post, drop), R.cm_havoc(ref_post, drop)),
                    (dom.meet(post, d2), R.cm_meet(ref_post, r2)),
                    (dom.join(filtered, d2), R.cm_join(ref_filtered, r2))]:
                assert is_cm(got) and bottom_only_by_identity(got), got
                assert R.ref(got) == want, (got, want)
            for x, y, rx, ry in [(d1, d2, r1, r2), (j, d3, ref_j, r3),
                                 (post, d1, ref_post, r1)]:
                assert dom.leq(x, y) == R.cm_leq(rx, ry)
            assert dom.contains(d1, state) == R.cm_contains(r1, state)
            assert dom.contains(post, state) == R.cm_contains(ref_post, state)
            for d, r in [(d1, r1), (j, ref_j), (post, ref_post)]:
                assert dom.fmt(d) == R.fmt_cm(r)
    assert all(seen[what] for what in (
        "post interned", "filter interned", "join repaired")), seen


def test_a_join_of_two_values_unbinds_the_variable():
    # {x↦0} ⊔ {x↦1} binds nothing: x's variable bit must go with its
    # binding bits, or a later meet counts x as bound with no value
    x0, x1, y0 = cm_make({"x": 0}), cm_make({"x": 1}), cm_make({"y": 0})
    j = cm_join(x0, x1)
    assert j == CM_TOP and cm_join(x0, cm_join(x1, y0)) == CM_TOP
    assert cm_meet(j, y0) == y0 and cm_meet(j, x1) == x1


@pytest.mark.parametrize("cap", [64, 2, 1])
def test_powerset_primitives_match_the_frozenset_reference(cap):
    # the powerset primitives and `make` over bitset maps against their
    # make-path bodies over frozenset maps: value, ops and cap collapses
    R = reference_domains
    rng = random.Random(62)
    dom = ConstPowersetDomain(VARS, max_disjuncts=cap)
    for batch in range(40):
        variables = fresh_variables(rng, batch)
        for _ in range(25):
            d1, d2 = (frozenset(map(encoded, R.pw_normalize(
                random_ref_map(rng, variables)
                for _ in range(rng.randint(0, min(cap, 4))))))
                for _ in range(2))
            a, c, drop, state = random_diff_case(rng, variables)
            assert_powerset_matches_reference(dom, d1, d2, drop, a, c, state)
            maps = [random_ref_map(rng, variables) for _ in range(rng.randint(0, 6))]
            out, ops, collapses = counted(dom, dom.make, map(encoded, maps))
            assert is_elem(dom, out)
            assert (R.ref_pw(out), ops, collapses) == counted(dom, R.make, dom, maps)


# -- the intern table ---------------------------------------------------------------


def interned() -> tuple[int, int]:
    return len(domains._VAR_MASK), len(domains._BINDING)


def test_a_second_analysis_interns_nothing():
    # the table grows with the distinct variables and bindings an analysis
    # meets, and only once: analysing the same program again, in every
    # cell, interns nothing new
    from condwrites.engine import AnalysisConfig, analyse

    names = [f"grow{k}" for k in range(4)]
    p = parse_program(
        f"vars {', '.join(names)}; pre {names[0]} == 7;\n"
        + "".join(f"thread T{t} {{ if ({names[t]} == {t + 7}) "
                  f"{{ {names[t + 1]} := {names[t]} + 1; }} }}\n"
                  for t in range(3)))
    configs = [AnalysisConfig(mode=mode, domain=domain)
               for mode in ("nontransitive", "transitive")
               for domain in ("const", "const-powerset")]
    before = interned()
    for config in configs:
        analyse(p, config)
    after = interned()
    assert after[0] > before[0] and after[1] > before[1]
    for config in configs:
        analyse(p, config)
    assert interned() == after


@pytest.mark.parametrize("domain", ["const", "const-powerset"])
def test_equal_maps_from_two_analyses_are_equal_and_hash_alike(domain):
    # the table is process-wide, so two analyses of one program hand out
    # equal elements, which hash alike, at every point
    from condwrites.corpus import CASES, PROGRAMS_DIR
    from condwrites.engine import AnalysisConfig, analyse

    for case in CASES:
        p = parse_program((PROGRAMS_DIR / case.filename).read_text())
        first, second = (analyse(p, AnalysisConfig(domain=domain))
                         for _ in range(2))
        assert first.outlines == second.outlines
        for tid, outline in first.outlines.items():
            for point, d in outline.items():
                assert hash(second.outlines[tid][point]) == hash(d)

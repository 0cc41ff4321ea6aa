import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from condwrites.domains import (
    CM_BOT, CM_TOP, UNIVERSE_CAP, ConstDomain, ConstPowersetDomain, StateDomain,
    Universe, UniverseTooLarge, _pw_normalize, cm_eval, cm_filter_cmp, cm_havoc,
    cm_leq, cm_make, cm_post, make_domain,
)
from condwrites.interference import CondWrites
from condwrites.lang import INT_MAX, Assign, BinOp, Cmp, Lit, VarRef, parse_program

from conftest import (
    bf_exec_assign, bf_gamma, bf_gamma_cm, bf_states, random_assign, random_cm,
    random_elem, random_interference, random_pw,
)
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
    bindings strictly contain no other's, by comparing every pair."""
    uniq = {m for m in maps if m is not CM_BOT}
    return frozenset(m for m in uniq if not any(m2 < m for m2 in uniq))


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
            shared = sorted(d1, key=sorted)
            d2 = dom.make(shared[:rng.randint(0, len(shared))] + list(d2))
        assert dom.join(d1, d2) == dom.make(d1 | d2)
        assert dom.join(d2, d1) == dom.join(d1, d2)


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


# -- abstract evaluation: the concrete evaluator on the known bindings -----------

# INT_MAX + w overflows 64 bits once w is bound to 1
OVERFLOW = BinOp(("+",), (Lit(INT_MAX), VarRef("w")))


def test_cm_eval_unknown_on_unbound_or_overflow():
    s = {"w": 1}
    assert cm_eval(BinOp(("*",), (VarRef("w"), Lit(3))), s) == 3
    assert cm_eval(VarRef("z"), s) is None
    assert cm_eval(OVERFLOW, s) is None
    # an intermediate overflow is unknown even when the final value fits
    assert cm_eval(BinOp(("-",), (OVERFLOW, Lit(1))), s) is None
    # and so is one inside a spine, applied left to right
    assert cm_eval(BinOp(("+", "-"), (Lit(INT_MAX), VarRef("w"), Lit(1))), s) is None
    assert cm_eval(BinOp(("-", "+"), (Lit(INT_MAX), VarRef("w"), Lit(1))), s) == INT_MAX
    # no algebraic short cut: x * 0 with x unbound stays unknown
    assert cm_eval(BinOp(("*",), (VarRef("x"), Lit(0))), s) is None


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
    assert dom.fmt(CM_TOP) == "⊤" and dom.fmt(CM_TOP, ascii_only=True) == "top"
    assert dom.fmt(CM_BOT) == "⊥" and dom.fmt(CM_BOT, ascii_only=True) == "bot"
    assert dom.fmt(cm_make({"x": 3})) == "[x↦3]"
    assert dom.fmt(cm_make({"x": 3}), ascii_only=True) == "[x|->3]"
    pw = pw_dom()
    two = pw.make([cm_make({"x": 0}), cm_make({"y": 1})])
    assert pw.fmt(two) == "{[x↦0]; [y↦1]}"
    assert pw.fmt(pw.top()) == "⊤" and pw.fmt(pw.bot(), ascii_only=True) == "bot"
    assert pw.fmt(pw.top(), ascii_only=True) == "top" and pw.fmt(pw.bot()) == "⊥"
    assert pw.fmt(two, ascii_only=True) == "{[x|->0]; [y|->1]}"
    cw = CondWrites(dom)
    i = {**cw.bot(), "x": cm_make({"y": 1})}
    assert cw.fmt(i) == "[x↦[y↦1], y↦⊥]"
    assert cw.fmt(i, ascii_only=True) == "[x|->[y|->1], y|->bot]"


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


def is_cm(d) -> bool:
    """CM_BOT itself, or a frozenset binding each variable at most once (a
    variable bound twice would be a second, unrecognised bottom)."""
    return d is CM_BOT or (type(d) is frozenset and len(dict(d)) == len(d))


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
    # every result is a frozenset (const: or the CM_BOT sentinel), no result
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
    """An element equal to d made of new set objects."""
    if d is CM_BOT:
        return d
    return frozenset([rebuilt(m) if isinstance(m, frozenset) else m for m in d])


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
    assert d2 == d and d2 is not d
    out = cw.stabilise(i, d)
    hits = cw.memo_hits
    assert cw.stabilise(i2, d2) is out
    assert cw.memo_hits == hits + 1


@pytest.mark.parametrize("domain", ["const", "const-powerset"])
def test_corpus_outline_values_hash_by_content(domain):
    # the interference memos and the oracle's grouped soundness check key
    # dicts on outline values: each must hash, and a copy of it built from
    # new set objects must hash and compare alike
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

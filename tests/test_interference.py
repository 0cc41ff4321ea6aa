import collections
import itertools
import random
from functools import partial, reduce

import pytest

from condwrites import domains
from condwrites.domains import (
    ASCII, CM_BOT, CM_TOP, PW_BOT, PW_TOP, ConstDomain, ConstPowersetDomain,
    Universe, cm_items, cm_make, fmt_map, make_domain,
)
from condwrites.interference import CondWrites, FuelExhausted
from condwrites.lang import Assign, Lit, VarRef

from conftest import (
    bf_exec_assign, bf_gamma, bf_gamma_x, bf_is_transitive, bf_states,
    bf_step_image, random_assign, random_cm, random_elem, random_interference,
    random_pw, sparse,
)
import reference_interference
from reference_interference import reference_walk, subsets

VARS3 = ("x", "z", "r")
U3 = Universe.of({v: (0, 1) for v in VARS3})


def cw_const(n: int | None = None, **kw) -> CondWrites:
    # the const domain takes no n: its stabilise is the same for every n
    return CondWrites(ConstDomain(VARS3), **kw)


def cw_pw(n: int | None = None, **kw) -> CondWrites:
    return CondWrites(ConstPowersetDomain(VARS3, n=n), **kw)


# -- lattice structure -------------------------------------------------------


def test_bot_is_identity_top_is_everything():
    cw = cw_const()
    states = bf_states(U3)
    # bottom is the empty interference: every write-condition is ⊥
    assert cw.bot() == {}
    assert bf_gamma_x(cw.dom, cw.bot(), U3) == {(s, s) for s in states}
    top = {v: CM_TOP for v in VARS3}
    assert bf_gamma_x(cw.dom, top, U3) == {
        (s1, s2) for s1 in states for s2 in states}


def test_join_leq_componentwise():
    rng = random.Random(22)
    cw = cw_const()

    def gx(i):
        return bf_gamma_x(cw.dom, i, U3)
    for _ in range(100):
        i1 = random_interference(rng, cw.dom)
        i2 = random_interference(rng, cw.dom)
        j = cw.join(i1, i2)
        assert cw.leq(i1, j) and cw.leq(i2, j)
        # the transition concretisation is monotone in the element
        assert gx(i1) | gx(i2) <= gx(j)
        # `==` is lattice equality: both domains' elements compare by content
        assert (i1 == j) == cw.leq(j, i1)


def test_fmt():
    # an interference prints as the report prints it: the shared map syntax
    # over every variable in declaration order, a missing write-condition ⊥
    cw = cw_const()
    i = {**cw.bot(), "x": cm_make({"z": 0})}
    line = fmt_map((v, cw.dom.fmt(i.get(v, cw.dom.bot()))) for v in cw.dom.variables)
    assert line == "[x↦[z↦0], z↦⊥, r↦⊥]"
    assert line.translate(ASCII) == "[x|->[z|->0], z|->bot, r|->bot]"


# -- worked-example goldens ---------------------------------------------------


def g0() -> dict:
    # guarantee of a thread that writes x under r=0,z=0, r anywhere, and
    # never z (a missing variable's write-condition is ⊥)
    return {"x": cm_make({"r": 0, "z": 0}), "r": CM_TOP}


def test_stabilise_golden():
    cw = cw_const()
    i = {"x": cm_make({"z": 0})}
    d = cm_make({"r": 0, "z": 0, "x": 0})
    # one environment step may rewrite x (z=0 holds), losing x and r's link
    assert cw.stabilise(i, d) == cm_make({"z": 0, "r": 0})
    # with the write-condition on x unreachable nothing changes
    i2 = {"x": cm_make({"z": 1})}
    assert cw.stabilise(i2, d) == d


def test_stabilise_fix_golden():
    cw = cw_const()
    i = g0()
    d = cm_make({"r": 1, "x": 0, "z": 0})
    # r is writable anywhere, so a first step may set r := 0; after that the
    # write-condition on x holds and a second step may rewrite x. A single
    # stabilise pass misses the chain, the fixpoint does not.
    one = cw.stabilise(i, d)
    assert one == cm_make({"x": 0, "z": 0})
    assert cw.stabilise_fix(i, d) == cm_make({"z": 0})


def test_close_golden():
    cw = cw_const()
    closed = cw.close(g0())
    assert closed == {"x": cm_make({"z": 0}), "r": CM_TOP}


def test_transitions():
    cw = cw_const()
    d = cm_make({"z": 1})
    a = Assign(1, ("x",), (Lit(1),))
    # only the targets are present: every other write-condition is ⊥
    t = cw.transitions(d, a)
    assert t == {"x": d}
    assert cw.transitions(CM_BOT, a) == cw.bot() == {}
    both = cw.transitions(d, Assign(1, ("x", "r"), (Lit(1), Lit(0))))
    assert both == {"x": d, "r": d}


# -- soundness properties ------------------------------------------------------


def cw_pw_cap(cap: int):
    def mk(n: int | None = None) -> CondWrites:
        return CondWrites(ConstPowersetDomain(VARS3, cap, n))
    mk.__name__ = f"cw_pw_{cap}"
    return mk


# the powerset at caps 2 and 1, where the cap fires on stabilise's results
STABILISE_DOMAINS = [cw_const, cw_pw, cw_pw_cap(2), cw_pw_cap(1)]


def per_n(mk) -> list[CondWrites]:
    """One instance of mk for each n in 0..|VARS3|, indexed by n."""
    return [mk(n) for n in range(len(VARS3) + 1)]


@pytest.mark.parametrize("mk", STABILISE_DOMAINS)
def test_stabilise_one_step_soundness(mk):
    rng = random.Random(31)
    cws = per_n(mk)
    for _ in range(250):
        i = random_interference(rng, cws[0].dom)
        d = random_elem(rng, cws[0].dom)
        cw = cws[rng.randint(0, 3)]
        out = cw.stabilise(i, d)
        g_in = bf_gamma(cw.dom, d, U3)
        reach = g_in | bf_step_image(bf_gamma_x(cw.dom, i, U3), g_in)
        assert reach <= bf_gamma(cw.dom, out, U3)
        assert cw.dom.leq(d, out)  # stabilisation only weakens


@pytest.mark.parametrize("mk", STABILISE_DOMAINS)
def test_stabilise_fix_many_step_soundness(mk):
    rng = random.Random(32)
    cws = per_n(mk)
    for _ in range(100):
        i = random_interference(rng, cws[0].dom)
        d = random_elem(rng, cws[0].dom)
        cw = cws[rng.randint(0, 3)]
        out = cw.stabilise_fix(i, d)
        # concrete reachability closure under any number of steps
        pairs = bf_gamma_x(cw.dom, i, U3)
        reach = set(bf_gamma(cw.dom, d, U3))
        while True:
            nxt = reach | bf_step_image(pairs, reach)
            if nxt == reach:
                break
            reach = nxt
        assert reach <= bf_gamma(cw.dom, out, U3)
        # and the result is a fixpoint of one-step stabilisation
        again = cw.stabilise(i, out)
        assert cw.dom.leq(again, out) and cw.dom.leq(out, again)


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_transitions_soundness(mk):
    rng = random.Random(33)
    cw = mk()
    for _ in range(250):
        d = random_elem(rng, cw.dom)
        a = random_assign(rng, VARS3)
        t = cw.transitions(d, a)
        gx = bf_gamma_x(cw.dom, t, U3)
        for s in bf_gamma(cw.dom, d, U3):
            assert (s, bf_exec_assign(a, s, U3.var_order)) in gx


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_close_soundness(mk):
    rng = random.Random(34)
    cw = mk()
    for _ in range(60):
        i = random_interference(rng, cw.dom)
        c = cw.close(i)
        assert cw.leq(i, c)  # inflationary
        assert bf_is_transitive(bf_gamma_x(cw.dom, c, U3))
        again = cw.close(c)
        assert again == c  # idempotent


# -- pruning equivalence ---------------------------------------------------------


@pytest.mark.parametrize("mk", [cw_pw])
def test_stabilise_pruning_equivalence(mk):
    # the pruned subset enumeration and the walk over the production
    # write-set plan, against the unpruned reference enumeration
    rng = random.Random(41)
    cws, ref = per_n(mk), mk()
    for _ in range(250):
        i = random_interference(rng, ref.dom)
        d = random_elem(rng, ref.dom)
        n = rng.randint(0, 3)
        want = reference_interference.stabilise_enum(ref, i, d, n, b1=False)
        assert reference_interference.stabilise_enum(
            cws[n], i, d, n, b1=True) == want
        assert reference_interference.stabilise_walk(
            cws[n].dom, d, cws[n].dom._write_sets(i)) == want


def memo_free(cw: CondWrites, step) -> CondWrites:
    """cw with its stabiliser, and so its stabilise and stabilise_fix,
    answered by step(i, d) through none of the CondWrites memos: each
    look-up binds step to i afresh, so the reference side of a differential
    shares no memo key or hit path with the side under test."""
    def stabiliser(i, transitive):
        bound = partial(step, i)
        return bound if transitive else partial(
            reference_interference.fix_loop, cw, bound)

    cw.stabiliser = stabiliser
    return cw


def enumerating(cw: CondWrites, pruned: bool, n: int | None = None) -> CondWrites:
    """cw with its stabilise and stabilise_fix bound, memo-free, to the
    subset enumeration, the reference for a domain's closed form or fused
    pass: for the powerset, at its n on an uncapped copy of the domain and
    capped once; for the const domain, which takes no n, at bound n. pruned
    skips the supersets of a write set whose wc is bottom."""
    if isinstance(cw.dom, ConstPowersetDomain):
        return memo_free(cw, lambda i, d: reference_interference
                         .stabilise_cap_once(cw, i, d, b1=pruned))
    return memo_free(cw, lambda i, d: reference_interference
                     .stabilise_enum(cw, i, d, n, b1=pruned))


def assert_closed_form_matches_enumeration(variables, pairs, pruned):
    fast = CondWrites(ConstDomain(variables))
    refs = [enumerating(CondWrites(ConstDomain(variables)), pruned, n)
            for n in range(len(variables) + 1)]
    for i, d in pairs:
        for ref in refs:
            assert fast.stabilise(i, d) == ref.stabilise(i, d)
            assert fast.stabilise_fix(i, d) == ref.stabilise_fix(i, d)


@pytest.mark.parametrize("pruned", [True, False])
def test_const_closed_form_stabilise_random(pruned):
    rng = random.Random(43)
    dom = ConstDomain(VARS3)
    pairs = [(random_interference(rng, dom), random_cm(rng, VARS3))
             for _ in range(20_000)]
    assert_closed_form_matches_enumeration(VARS3, pairs, pruned)


@pytest.mark.parametrize("pruned", [True, False])
def test_const_closed_form_stabilise_exhaustive(pruned):
    # every write-condition map and every d over two {0,1} variables
    from test_domains import ALL_CMS, VARS

    pairs = [(sparse(dict(zip(VARS, wcs))), d)
             for wcs in itertools.product(ALL_CMS, repeat=len(VARS))
             for d in ALL_CMS]
    assert_closed_form_matches_enumeration(VARS, pairs, pruned)


def over_plan(cw: CondWrites) -> CondWrites:
    """cw with its stabilise and stabilise_fix bound, memo-free, to the
    cap-once spec over cw's own write-set plan, whose write-conditions stay
    capped as built."""
    return memo_free(cw, lambda i, d: reference_interference
                     .stabilise_over_plan(cw.dom, d, cw.dom._write_sets(i)))


@pytest.mark.parametrize("pruned", [True, False])
@pytest.mark.parametrize("max_disjuncts", [64, 2, 1])
def test_powerset_memoised_stabilise_matches_enumeration(max_disjuncts, pruned):
    # caps 2 and 1 collapse stabilise's results. Where building the plan
    # collapsed nothing, the memoised stabilise and its fixpoint, whose
    # steps share that plan, equal the enumeration on an uncapped copy of
    # the domain capped once; elsewhere the same spec over the plan
    rng = random.Random(44)
    make = cw_pw_cap(max_disjuncts)
    fasts = per_n(make)
    specs = [enumerating(cw, pruned) for cw in per_n(make)]
    planned = [over_plan(cw) for cw in per_n(make)]
    inputs = collections.Counter()
    for _ in range(300):
        i = random_interference(rng, fasts[0].dom)
        d = random_elem(rng, fasts[0].dom)
        for n, fast in enumerate(fasts):
            collapses = fast.dom.cap_collapses
            fast.dom._write_sets(i)
            exact = fast.dom.cap_collapses == collapses
            ref = specs[n] if exact else planned[n]
            inputs["exact" if exact else "planned"] += 1
            want = ref.stabilise(i, d)
            assert fast.stabilise(i, d) == want  # miss
            assert fast.stabilise(i, d) == want  # hit
            assert fast.stabilise_fix(i, d) == ref.stabilise_fix(i, d)
    # cap 2 collapses some plans' write-conditions, caps 64 and 1 none
    assert inputs["exact"] > 0, inputs
    assert (inputs["planned"] > 0) == (max_disjuncts == 2), inputs


def count_computations(monkeypatch) -> list:
    """Record the state d of each stabilise computation of the powerset fused
    pass."""
    calls = []
    fused = ConstPowersetDomain.stabilise_plan

    def counted_fused(self, d, plan):
        calls.append(d)
        return fused(self, d, plan)

    monkeypatch.setattr(ConstPowersetDomain, "stabilise_plan", counted_fused)
    return calls


def test_powerset_repeated_stabilise_enumerates_once(monkeypatch):
    # one computation per distinct (rely, d) key
    calls = count_computations(monkeypatch)
    cw = cw_pw(2)

    def pw(*maps):
        return cw.dom.make(cm_make(m) for m in maps)

    def inputs():
        i = {"x": pw({"z": 0}), "z": pw({"x": 1}, {"r": 0}), "r": pw({})}
        return i, pw({"x": 0, "z": 1}, {"r": 1})

    i, d = inputs()
    first = cw.stabilise(i, d)
    ops = cw.dom.ops
    assert len(calls) == 1 and ops > 0
    # an equal key built from fresh values hits: keys are values, not identities
    assert cw.stabilise(*inputs()) == first
    assert len(calls) == 1 and cw.dom.ops == ops
    # a fresh instance starts with an empty memo
    assert cw_pw(2).stabilise(i, d) == first and len(calls) == 2
    # at cap 2 the same pass computes it, still once per key: the result
    # fits the cap, so nothing collapses and the value is cap 64's
    small = CondWrites(ConstPowersetDomain(VARS3, max_disjuncts=2, n=2))
    assert small.stabilise(i, d) == small.stabilise(*inputs()) == first
    assert len(calls) == 3 and small.dom.cap_collapses == 0


def test_const_closed_form_never_enumerates(monkeypatch):
    calls = count_computations(monkeypatch)
    rng = random.Random(46)
    cw = cw_const()
    for _ in range(50):
        i = random_interference(rng, cw.dom)
        d = random_cm(rng, VARS3)
        cw.stabilise(i, d)
        cw.stabilise_fix(i, d)
    assert calls == []  # no fused pass


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_repeated_input_is_answered_from_memo(mk):
    # a repeat returns the stored value and performs no lattice operation;
    # it passes a fresh dict, as the keys hold the write-conditions' values
    rng = random.Random(47)
    cws = per_n(mk)
    cw = cws[-1]
    for _ in range(40):
        i = random_interference(rng, cw.dom)
        d = random_elem(rng, cw.dom)
        for each in cws:
            first = each.stabilise(i, d)
            hits = each.memo_hits
            again, ops = with_ops(each, each.stabilise, dict(i), d)
            assert again is first and ops == 0 and each.memo_hits == hits + 1
            first = each.stabilise_fix(i, d)
            hits = each.memo_hits
            again, ops = with_ops(each, each.stabilise_fix, dict(i), d)
            assert again is first and ops == 0 and each.memo_hits > hits
        first = cw.close(i)
        hits = cw.memo_hits
        again, ops = with_ops(cw, cw.close, dict(i))
        assert again is first and ops == 0 and cw.memo_hits == hits + 1


# -- the write-set plan against the enumerations it replaced -------------------


def with_ops(cw: CondWrites, fn, *args, **kwargs):
    before = cw.dom.ops
    out = fn(*args, **kwargs)
    return out, cw.dom.ops - before


def walk_plan(cw: CondWrites, i, d):
    """`reference_interference.stabilise_walk` over cw's write-set plan for
    i, built afresh on each call, in cw's own domain."""
    return reference_interference.stabilise_walk(
        cw.dom, d, cw.dom._write_sets(i))


@pytest.mark.parametrize("kind,cap", [
    ("const-powerset", 64), ("const-powerset", 4),
    ("const-powerset", 2), ("const-powerset", 1),
], ids=lambda x: str(x))
def test_plan_enumerations_match_reference(kind, cap):
    # same values, never more ops, against the reference walks with the same
    # pruning; caps 4, 2 and 1 collapse disjuncts inside the meets and joins,
    # so each prefix-shared meet must be the same fold. The stabilise walk
    # is the one over the write-set plan, through the capped domain: the
    # placement of the powerset cap that the end-to-end tests compare with.
    # A collapse can also let close's pruning change a value, so the
    # pruning-equivalence tests compare with the unpruned walks where the
    # lattice stays exact
    rng = random.Random(48)
    for variables in (("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")):
        news = [CondWrites(make_domain(kind, variables, cap, n))
                for n in range(len(variables) + 1)]
        new, ref = news[-1], CondWrites(make_domain(kind, variables, cap))
        for _ in range(60):
            i = random_interference(rng, new.dom, values=(0, 1, 2))
            d = random_elem(rng, new.dom, values=(0, 1, 2))
            for n, each in enumerate(news):
                got, ops = with_ops(each, walk_plan, each, i, d)
                want, ref_ops = with_ops(
                    ref, reference_interference.stabilise_enum, ref, i, d, n,
                    b1=True)
                assert got == want and ops <= ref_ops
            for v in variables:
                got, ops = with_ops(new, new.dom.close_one, i, v)
                want, ref_ops = with_ops(
                    ref, reference_interference.close_one, ref, i, v,
                    b2a=True, b2b=True)
                assert got == want and ops <= ref_ops


def test_second_stabilise_under_same_rely_reuses_plan():
    cw = cw_pw()

    def pw(*maps):
        return cw.dom.make(cm_make(m) for m in maps)

    i = {"x": pw({"z": 0}, {"r": 1}), "z": pw({"x": 1}, {"r": 0}, {"r": 1}),
         "r": pw({})}
    cw.stabilise(i, pw({"x": 0, "z": 1}))
    plan = cw.dom._write_sets(i)  # an equal plan, built apart
    walk = reference_interference.plan_walk(plan)
    assert all(vset for vset, _ in walk)  # the empty set takes no op
    assert any(len(vset) > 1 for vset, _ in walk)  # some wc took a meet
    meets, plans = [], []
    meet, write_sets = cw.dom.meet, cw.dom._write_sets

    def recording(d1, d2):
        meets.append(d1)
        return meet(d1, d2)

    def planning(i):
        plans.append(i)
        return write_sets(i)

    cw.dom.meet, cw.dom._write_sets = recording, planning
    # a second stabilise under the same rely, on a new state, builds no
    # plan and so counts no plan meets: the fused pass calls no meet, and
    # counts the enumeration's ops, one meet with d and one join per
    # non-empty write set
    d = pw({"x": 1}, {"r": 0, "z": 0})
    before = cw.dom.ops
    cw.stabilise(i, d)
    assert plans == [] and meets == []
    assert cw.dom.ops - before == 2 * len(walk)
    # the walk over the same plan, which caps inside every meet and join,
    # meets d with each wc and counts the same ops; no wc is re-met
    d = pw({"x": 0}, {"r": 1, "z": 0})
    _, ops = with_ops(
        cw, reference_interference.stabilise_walk, cw.dom, d, plan)
    assert meets == [d] * len(walk)
    assert ops == 2 * len(walk)
    # a new rely builds its plan once, when its stabiliser is looked up
    i2 = {**i, "r": pw({"x": 0})}
    step = cw.stabiliser(i2, True)
    assert plans == [i2]
    step(d)
    cw.stabilise(i2, pw({"z": 1}))
    assert plans == [i2]


# -- the fused powerset stabilise against the enumeration --------------------


def with_counts(cw: CondWrites, fn, *args, **kwargs):
    collapses = cw.dom.cap_collapses
    out, ops = with_ops(cw, fn, *args, **kwargs)
    return out, ops, cw.dom.cap_collapses - collapses


@pytest.mark.parametrize("cap", [64, 4, 2, 1])
def test_fused_stabilise_matches_enumeration(cap):
    # a miss of `stabilise` on one instance against the cap-once spec on
    # another: building the plan, then the walk over it on an uncapped copy
    # of the domain and one cap, with the same value, ops and cap collapses,
    # the plan's included. Where building the plan collapsed nothing, also
    # the value of the unpruned enumeration of i on an uncapped copy,
    # capped once
    rng = random.Random(49)
    seen = collections.Counter()
    for variables in (("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")):
        shape = ConstPowersetDomain(variables, max_disjuncts=cap)
        for _ in range(60):
            # up to 6 disjuncts, so that cap 4 also collapses plans
            i = {v: random_pw(rng, shape, (0, 1, 2), 6) for v in variables}
            d = random_pw(rng, shape, (0, 1, 2), 6)
            for n in range(len(variables) + 1):
                new, spec, ref = (
                    CondWrites(ConstPowersetDomain(variables, cap, n))
                    for _ in range(3))
                got = with_counts(new, new.stabilise, i, d)
                plan, plan_ops, plan_collapses = with_counts(
                    spec, spec.dom._write_sets, i)
                out, ops, collapses = with_counts(
                    spec, reference_interference.stabilise_over_plan,
                    spec.dom, d, plan)
                assert got == (out, plan_ops + ops, plan_collapses + collapses)
                assert collapses <= 1  # the cap fires once, on the result
                seen["capped"] += collapses
                if plan_collapses:
                    seen["plan collapsed"] += 1
                    continue
                seen["exact plan"] += 1
                assert out == reference_interference.stabilise_cap_once(
                    ref, i, d)
    # caps 4, 2 and 1 collapse results, caps 4 and 2 also plans: at cap 1
    # the inputs are single maps, and a meet of single maps is one map
    assert seen["exact plan"] > 0, seen
    assert (seen["capped"] > 0) == (cap in (4, 2, 1)), seen
    assert (seen["plan collapsed"] > 0) == (cap in (4, 2)), seen


@pytest.mark.parametrize("cap", [64, 3, 2, 1])
def test_stabilise_plan_skips_only_dominated_terms(cap):
    # `stabilise_plan` builds terms only for the heads of the plan's groups,
    # the exact sets S (|S| ≤ n) with no one-larger exact superset S ∪ {u}
    # of equal wc: havocking more variables drops more bindings, so
    # S ∪ {u}'s term for a map and a disjunct dominates S's. For a head S it
    # also skips each map of d that binds no variable of S: the map's term
    # keeps all its bindings, so the map itself, already in the pool,
    # dominates it. It must equal the walk over every write set of the same
    # plan, which meets every map with every write set, in value, ops and
    # cap collapses; where building the plan collapsed nothing, also the
    # unpruned enumeration of i on an uncapped copy of the domain, capped
    # once, and the plan must then list every set of at most n + 1
    # variables whose wc is not ⊥, with that wc. A coarse (n+1)-set's terms
    # are havocked by the union of every feasible coarse set, so a map that
    # binds no variable of one may still lose the bindings of another: the
    # inputs include such maps at n = 0 and n = 1, where the coarse sets are
    # skipped by none
    rng = random.Random(52)
    seen = collections.Counter()
    for variables in (("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")):
        shape = ConstPowersetDomain(variables, max_disjuncts=cap)
        wide = reference_interference.uncapped(shape)
        for n in sorted({0, 1, len(variables)}):
            new = CondWrites(ConstPowersetDomain(variables, cap, n))
            dom = new.dom
            for _ in range(80):
                # up to 6 disjuncts, so that cap 3 also collapses plans
                i = {v: random_pw(rng, shape, (0, 1, 2), 6) for v in variables}
                d = random_pw(rng, shape, (0, 1, 2), 6)
                plan, _, plan_collapses = with_counts(new, dom._write_sets, i)
                got = with_counts(new, dom.stabilise_plan, d, plan)
                spec, ref = (CondWrites(ConstPowersetDomain(variables, cap, n))
                             for _ in range(2))
                assert got == with_counts(
                    spec, reference_interference.stabilise_over_plan, spec.dom, d, plan)
                walk = reference_interference.plan_walk(plan)
                if not plan_collapses:
                    out, _, collapses = with_counts(
                        ref, reference_interference.stabilise_cap_once, ref, i, d)
                    assert (got[0], got[2]) == (out, collapses)
                    assert walk == [
                        (frozenset(c), wc) for c in subsets(variables, n + 1)
                        if c and (wc := reduce(
                            wide.meet, [i[v] for v in c]))]
                    seen["exact plan"] += 1
                seen["capped"] += got[2]
                wcs = dict(walk)
                groups, coarse = plan
                assert all(len(vset) > n for vset, _ in coarse)
                for wc, sets, heads in groups:
                    assert heads == [s for s in sets if len(s) == n or not any(
                        wcs.get(s | {u}) == wc for u in variables if u not in s)]
                    met = [m for m in d if dom.meet(frozenset({m}), wc)]
                    for vset in sets:
                        skipped = [m for m in met if vset.isdisjoint(
                            v for v, _ in cm_items(m))]
                        if vset not in heads:
                            seen["dominated set"] += len(met) > len(skipped)
                        else:
                            seen["dominated map"] += len(skipped) > 0
                    # a group whose joins only maps that every head skips decide
                    seen["decided by a skipped map"] += bool(met) and all(
                        vset.isdisjoint(v for v, _ in cm_items(m))
                        for m in met for vset in heads)
                for vset, wc in coarse:
                    for m in d:
                        if (vset.isdisjoint(v for v, _ in cm_items(m))
                                and dom.meet(frozenset({m}), wc)):
                            seen[f"coarse at n={n}"] += 1
    assert seen["exact plan"] and seen["dominated set"], seen
    assert seen["dominated map"] and seen["decided by a skipped map"], seen
    assert seen["coarse at n=0"] and seen["coarse at n=1"], seen
    assert (seen["capped"] > 0) == (cap < 64), seen


@pytest.mark.parametrize("cap", [64, 2, 1])
def test_stabilise_plan_returns_d_when_it_pools_no_term(cap, monkeypatch):
    # the pass pools d's own maps with the terms it builds, one `cm_havoc`
    # each. Where it builds none, the pool is d, already normalised and
    # within the cap, so `make` of it is d: the pass returns d itself. Terms
    # of the coarse (n+1)-sets alone can change the result (at n = 0 they
    # are the only terms), so they must not take that shortcut. The result
    # equals the walk over every write set of the plan, capped once, in
    # value, ops and cap collapses, and, where building the plan collapsed
    # nothing, the unpruned enumeration of i on an uncapped copy, capped once.
    # ⊤ takes the same pass under every i: its one map binds nothing, so it
    # pools only coarse terms, which normalise back to ⊤
    rng = random.Random(53)
    seen = collections.Counter()
    terms: list[frozenset[str]] = []
    havoc = domains.cm_havoc

    def recording(x, vset):
        terms.append(vset)
        return havoc(x, vset)

    for variables in (("a", "b"), ("a", "b", "c")):
        shape = ConstPowersetDomain(variables, max_disjuncts=cap)
        for n in sorted({0, 1, len(variables)}):
            new = CondWrites(ConstPowersetDomain(variables, cap, n))
            dom = new.dom
            for _ in range(80):
                i = random_interference(rng, shape, (0, 1, 2))
                drawn = random_pw(rng, shape, (0, 1, 2), 4)
                plan, _, plan_collapses = with_counts(new, dom._write_sets, i)
                for d in (drawn, PW_TOP):
                    terms.clear()
                    with monkeypatch.context() as m:
                        m.setattr(domains, "cm_havoc", recording)
                        got = with_counts(new, dom.stabilise_plan, d, plan)
                    spec, ref = (
                        CondWrites(ConstPowersetDomain(variables, cap, n))
                        for _ in range(2))
                    assert got == with_counts(
                        spec, reference_interference.stabilise_over_plan,
                        spec.dom, d, plan)
                    if not plan_collapses:
                        out, _, collapses = with_counts(
                            ref, reference_interference.stabilise_cap_once,
                            ref, i, d)
                        assert (got[0], got[2]) == (out, collapses)
                    if not terms:
                        assert got[0] is d
                        seen["no term"] += d not in (PW_BOT, PW_TOP)
                    elif d == PW_TOP:
                        assert got[0] == d
                        seen[f"top, coarse terms at n={n}"] += 1
                    elif all(len(vset) > n for vset in terms):
                        seen[f"coarse only, changed at n={n}"] += got[0] != d
    # "no term" leaves out ⊥, which the pass returns before it starts, and
    # ⊤, which every i adds, so that the drawn d must reach it
    assert seen["no term"] and seen["coarse only, changed at n=0"], seen
    assert seen["top, coarse terms at n=0"], seen
    assert seen["top, coarse terms at n=1"], seen


def test_top_write_condition_leaves_only_heads_with_it(monkeypatch):
    # wc_{S ∪ {r}} = wc_S ⊓ ⊤ = wc_S when i[r] is ⊤, so at n = |V| every
    # write set without r is dominated by the one with r, and each group's
    # heads all hold r: the pass havocs by no other set, with the value, ops
    # and collapses of the walk over every write set
    dom = ConstPowersetDomain(VARS3)

    def pw(*maps):
        return dom.make(cm_make(m) for m in maps)

    i = {"x": pw({"z": 0}, {"r": 1}), "z": pw({"x": 1}, {"z": 0}),
         "r": dom.top()}
    plan = dom._write_sets(i)
    groups, coarse = plan
    heads = [vset for _, _, hs in groups for vset in hs]
    assert heads and all("r" in vset for vset in heads)
    assert sum(len(sets) for _, sets, _ in groups) > len(heads)
    assert coarse == []
    drops = []
    havoc = domains.cm_havoc

    def recording(m, drop):
        drops.append(drop)
        return havoc(m, drop)

    monkeypatch.setattr(domains, "cm_havoc", recording)
    d = pw({"x": 0, "z": 0, "r": 0}, {"x": 1, "r": 1})
    got = with_counts(CondWrites(dom), dom.stabilise_plan, d, plan)
    assert drops and all("r" in drop for drop in drops)
    monkeypatch.undo()
    spec = CondWrites(ConstPowersetDomain(VARS3))
    assert got == with_counts(
        spec, reference_interference.stabilise_over_plan, spec.dom, d, plan)


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_close_optimisation_equivalence(mk):
    # the pruned close against the reference fixpoint under every pruning
    rng = random.Random(42)
    cw = mk()
    for _ in range(60):
        i = random_interference(rng, cw.dom)
        out = cw.close(i)
        for a, b in itertools.product((False, True), repeat=2):
            assert out == reference_interference.close(cw, i, b2a=a, b2b=b)


def test_close_candidates_are_the_bound_variables():
    # the powerset `close_one` walks the variables of i that some disjunct of
    # i[v] binds. On a normalised element these are the variables whose
    # one-variable havoc changes it, the rule it used before: a disjunct
    # binding u loses that binding, and no disjunct of the havoc binds u. ⊥,
    # ⊤ and elements a cap collapsed are included
    rng = random.Random(56)
    for cap in (64, 2, 1):
        dom = ConstPowersetDomain(VARS5, cap)
        elems = [dom.bot(), dom.top()]
        elems += [random_elem(rng, dom, (0, 1, 2)) for _ in range(300)]
        elems += [dom.make(random_cm(rng, VARS5, (0, 1, 2))
                           for _ in range(rng.randint(1, 5)))
                  for _ in range(100)]
        assert (dom.cap_collapses > 0) == (cap < 64)
        for d in elems:
            assert sorted(dom.bound_vars(d)) == (
                reference_interference.havoc_candidates(dom, d, VARS5))


# -- the level-wise subset walk against the enumerating walk --------------------


WALK_VARS = ("a", "b", "c", "d", "e", "f")


def random_walk_interference(rng: random.Random, dom: ConstPowersetDomain) -> dict:
    """A sparse interference over dom with ⊥ and ⊤ write-conditions among
    random ones of up to 4 disjuncts and at most dom's cap, so that meets
    can collapse at cap 2."""
    i = {}
    for v in dom.variables:
        r = rng.random()
        if r < 0.15:
            continue  # missing: ⊥ by sparseness
        i[v] = (PW_BOT if r < 0.25 else PW_TOP if r < 0.4
                else random_pw(rng, dom, (0, 1, 2), 4))
    return i


def drive_walk(walk, dom, i, names, max_card, drop: float, seed: int):
    """The sets a walk yields to a caller that drops each yielded set with
    probability `drop`, by appending it to the skip list before it takes
    the next set, as `close_one` does, with the domain's ops and
    collapses."""
    rng = random.Random(seed)
    skip: list = []
    ops, collapses = dom.ops, dom.cap_collapses
    out = []
    for vset, wc in walk(i, names, max_card, skip):
        out.append((vset, wc))
        if rng.random() < drop:
            skip.append(vset)
    return out, dom.ops - ops, dom.cap_collapses - collapses


@pytest.mark.parametrize("cap", [64, 2, 1])
def test_level_wise_walk_matches_enumerating_walk(cap):
    # the same sets and wcs, in the same order, by the same meets, with no
    # caller drops and with seeded random ones, over every max_card
    rng = random.Random(4800 + cap)
    seen = collections.Counter()
    for k in range(1, len(WALK_VARS) + 1):
        variables = WALK_VARS[:k]
        fast, ref = (ConstPowersetDomain(variables, cap) for _ in range(2))
        for _ in range(40):
            i = random_walk_interference(rng, fast)
            names = rng.sample(sorted(i), rng.randint(0, len(i)))
            for max_card in range(len(names) + 2):
                for drop in (0.0, 0.3, 0.7):
                    seed = rng.randrange(1 << 30)
                    got = drive_walk(fast._walk, fast, i, names, max_card,
                                     drop, seed)
                    want = drive_walk(partial(reference_walk, ref), ref, i,
                                      names, max_card, drop, seed)
                    assert got == want, (i, names, max_card, drop)
                    full = [c for c in subsets(sorted(names), max_card) if c]
                    seen["pruned" if len(got[0]) < len(full) else "full"] += 1
                    seen["collapsed"] += got[2] > 0
                    seen["⊤ set"] += any(wc == PW_TOP for _, wc in got[0])
    assert all(seen[what] for what in ("pruned", "full", "⊤ set")), seen
    assert (cap == 2) <= (seen["collapsed"] > 0), seen


# -- the closed-form const close against the subset walks ----------------------


VARS5 = ("a", "b", "c", "d", "e")


def assert_close_one_matches_walks(variables, interferences):
    # same values and ops as the least-set form without clash lists, same
    # values as the pruned walk and the unpruned reference walk, and never
    # more ops than the pruned walk
    fast, least, walk, ref = (
        CondWrites(ConstDomain(variables)) for _ in range(4))
    for i in interferences:
        for v in variables:
            got, ops = with_ops(fast, fast.dom.close_one, i, v)
            assert (got, ops) == with_ops(
                least, reference_interference.const_close_one, least.dom, i, v)
            want, walk_ops = with_ops(
                walk, reference_interference.pruned_close_one, walk.dom, i, v)
            assert got == want and ops <= walk_ops
            assert got == reference_interference.close_one(ref, i, v)


def test_const_close_one_random():
    rng = random.Random(49)
    for k in range(1, len(VARS5) + 1):
        dom = ConstDomain(VARS5[:k])
        assert_close_one_matches_walks(
            dom.variables,
            [random_interference(rng, dom, values=(0, 1, 2)) for _ in range(600)])


def test_const_close_one_exhaustive():
    # every write-condition map over two {0,1} variables
    from test_domains import ALL_CMS, VARS

    assert_close_one_matches_walks(
        VARS, [sparse(dict(zip(VARS, wcs)))
               for wcs in itertools.product(ALL_CMS, repeat=len(VARS))])


def test_const_close_matches_reference():
    rng = random.Random(50)
    for k in range(1, len(VARS5) + 1):
        cw = CondWrites(ConstDomain(VARS5[:k]))
        for _ in range(150):
            i = random_interference(rng, cw.dom, values=(0, 1, 2))
            assert cw.close(i) == reference_interference.close(cw, i)


def test_const_close_never_walks(monkeypatch):
    # the subset walk is the powerset's alone: const close takes its closed
    # form and never reaches it, powerset close does
    calls = []
    real = ConstPowersetDomain._walk

    def counted(self, i, names, max_card, skip):
        calls.append(max_card)
        return real(self, i, names, max_card, skip)

    monkeypatch.setattr(ConstPowersetDomain, "_walk", counted)
    rng = random.Random(51)
    cw = cw_const()
    for _ in range(50):
        cw.close(random_interference(rng, cw.dom))
    assert calls == []
    pw = cw_pw()
    pw.close(random_interference(rng, pw.dom))
    assert calls  # the powerset close still walks


@pytest.mark.parametrize("cap", [None, 64, 4, 2, 1])
def test_close_loop_matches_rounds(cap):
    # the loop that stops when a round returns its input against rounds
    # that stop when a round is ⊑ its input, for const (cap None) and the
    # powerset: the same value, ops and cap collapses on random relies over
    # 1-5 variables, each close on a fresh instance so that no memo answers
    rng = random.Random(4900 + (cap or 0))
    collapses = 0
    for k in range(1, len(VARS5) + 1):
        variables = VARS5[:k]
        doms = [ConstDomain(variables) if cap is None
                else ConstPowersetDomain(variables, cap) for _ in range(2)]
        for _ in range(60):
            fast, ref = map(CondWrites, doms)
            i = random_interference(rng, fast.dom, values=(0, 1, 2))
            got = with_counts(fast, fast.close, i)
            assert got == with_counts(
                ref, reference_interference.close_rounds, ref, i), i
            collapses += got[2]
    assert (collapses > 0) == (cap in (4, 2, 1)), collapses


# -- fuel -------------------------------------------------------------------------


def test_fuel_exhaustion_reported():
    cw = cw_const(fuel=0)
    top = {v: CM_TOP for v in VARS3}
    with pytest.raises(FuelExhausted, match="stabilise_fix did not converge in 0 steps"):
        cw.stabilise_fix(top, CM_TOP)
    with pytest.raises(FuelExhausted, match="close did not converge in 0 steps"):
        cw.close(top)
    assert cw._close_memo == {}  # a close out of fuel stores nothing


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_fixpoint_out_of_fuel_stores_nothing(mk):
    # d steps to ⊤ and ⊤ to itself: 2 steps, one more than the fuel. Each
    # try steps d again, as no element of its chain was stored, and with
    # the fuel for 2 steps the fixpoint is found and then answered
    cw = mk(fuel=1)
    i = {v: cw.dom.top() for v in VARS3}
    d = cm_make({"x": 0})
    d = d if mk is cw_const else cw.dom.make([d])
    calls = count_steps(cw)
    for tries in (1, 2):
        with pytest.raises(FuelExhausted, match="converge in 1 steps"):
            cw.stabilise_fix(i, d)
        assert calls == [tries] and cw.memo_hits == 0
    cw = mk(fuel=2)
    calls = count_steps(cw)
    assert cw.stabilise_fix(i, d) == cw.stabilise_fix(i, d) == cw.dom.top()
    assert calls == [2] and cw.memo_hits == 2


# -- the fixpoint memo against the loop of memoised steps ---------------------

FIX_VARS = VARS5[:4]

FIX_DOMAINS = {"const": partial(ConstDomain, FIX_VARS)} | {
    f"pw-cap{cap}-n{n}": partial(ConstPowersetDomain, FIX_VARS, cap, n)
    for cap in (64, 4, 2, 1) for n in (None, 0, 1)}


def ring_rely(rng: random.Random, dom) -> dict:
    """A rely over dom's variables in which most write-conditions bind the
    previous variable of the ring, and some one more: a step that havocs
    one variable can let the next be written, so chains run long."""
    names, i = dom.variables, {}
    for k, v in enumerate(names):
        if rng.random() < 0.15:
            continue  # ⊥: nothing writes v
        bind = {names[k - 1]: rng.randint(0, 1)}
        if rng.random() < 0.3:
            bind[rng.choice(names)] = rng.randint(0, 1)
        wc = cm_make(bind)
        i[v] = dom.make([wc]) if isinstance(dom, ConstPowersetDomain) else wc
    return i


def fix_inputs(rng: random.Random, mk, count: int) -> list:
    """About count (rely, d, steps) triples over four ring relies and a
    random one, steps the number of steps a loop takes from d to its
    fixpoint. A third of the ds are inputs stepped from an earlier d under
    the same rely, so that the whole chain a miss stores is looked up
    again. Half of the others come after a later input of their own chain,
    so that their chain runs into a memoised element."""
    dom = mk()
    relies = [*(ring_rely(rng, dom) for _ in range(4)),
              random_interference(rng, dom, values=(0, 1, 2))]
    stabs = [dom.stabiliser(i) for i in relies]
    stepped: list[list] = [[] for _ in relies]
    out = []
    while len(out) < count:
        k = rng.randrange(len(relies))
        if stepped[k] and rng.random() < 1 / 3:
            out.append((relies[k], *rng.choice(stepped[k])))
            continue
        chain = [random_elem(rng, dom)]
        while (nxt := stabs[k](chain[-1])) != chain[-1]:
            chain.append(nxt)
        steps = [(d, len(chain) - j) for j, d in enumerate(chain)]
        stepped[k] += steps
        if len(chain) > 1 and rng.random() < 1 / 2:
            out.append((relies[k], *rng.choice(steps[1:])))
        out.append((relies[k], *steps[0]))
    return out


def count_steps(cw: CondWrites) -> list:
    """A one-element list that counts the domain steps cw runs from now on."""
    calls, stabiliser = [0], cw.dom.stabiliser

    def counted(i):
        stab = stabiliser(i)

        def step(d):
            calls[0] += 1
            return stab(d)
        return step

    cw.dom.stabiliser = counted
    return calls


def fix_outcome(cw: CondWrites, i, d) -> tuple:
    """stabilise_fix(i, d), or its FuelExhausted message, with the ops, cap
    collapses and memo hits it added."""
    ops, collapses, hits = cw.dom.ops, cw.dom.cap_collapses, cw.memo_hits
    try:
        out = cw.stabilise_fix(i, d)
    except FuelExhausted as exc:
        out = str(exc)
    return (out, cw.dom.ops - ops, cw.dom.cap_collapses - collapses,
            cw.memo_hits - hits)


@pytest.mark.parametrize("mk", FIX_DOMAINS.values(), ids=FIX_DOMAINS)
def test_fixpoint_memo_matches_step_loop(mk):
    # one instance per side serves the whole sequence, so that chains run
    # into the memoised elements of earlier ones: the same values, ops, cap
    # collapses and memo hits as the loop of memoised steps, and at every
    # fuel from 0 to the longest chain + 1 the same FuelExhausted messages.
    # A fixpoint out of fuel stores nothing and counts no hit, where the
    # loop keeps its steps and counts the hits it made before it ran out;
    # an analysis ends at its first raise, so the raising call's hits and,
    # after it, all but values and messages are left uncompared
    rng = random.Random(5000)
    inputs = fix_inputs(rng, mk, 200)
    longest = max(steps for _, _, steps in inputs)
    seen = collections.Counter()
    for fuel in [1000, *range(longest + 2)]:
        fast = CondWrites(mk(), fuel)
        ref = reference_interference.StepMemo(mk(), fuel)
        calls = count_steps(fast)
        raised = False
        for i, d, steps in inputs:
            before = calls[0]
            got, want = fix_outcome(fast, i, d), fix_outcome(ref, i, d)
            assert got[0] == want[0], (fuel, i, d)
            assert isinstance(got[0], str) == (steps > fuel), (fuel, steps)
            if not raised:
                assert got[:3] == want[:3], (fuel, i, d)
                assert isinstance(got[0], str) or got[3] == want[3], (fuel, i, d)
            raised = raised or isinstance(got[0], str)
            stepped, hits = calls[0] - before, got[3]
            if isinstance(got[0], str):
                seen["raised"] += 1
                seen["raised on a memoised rest"] += 0 < stepped < fuel
            else:
                seen["hit"] += not stepped
                seen["ran into the memo"] += stepped > 0 and hits > 0
    assert longest > 1 and all(seen[k] for k in (
        "raised", "raised on a memoised rest", "hit", "ran into the memo")), seen

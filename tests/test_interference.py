import itertools
import random

import pytest

from condwrites.domains import (
    CM_BOT, CM_TOP, ConstDomain, ConstPowersetDomain, Universe, cm_make,
    make_domain,
)
from condwrites.interference import CondWrites, FuelExhausted
from condwrites.lang import Assign, Lit, VarRef

from conftest import (
    bf_exec_assign, bf_gamma, bf_gamma_x, bf_is_transitive, bf_states,
    bf_step_image, random_assign, random_cm, random_elem, random_interference,
)
import reference_interference

VARS3 = ("x", "z", "r")
U3 = Universe.of({v: (0, 1) for v in VARS3})


def cw_const(**kw) -> CondWrites:
    return CondWrites(ConstDomain(VARS3), **kw)


def cw_pw(**kw) -> CondWrites:
    return CondWrites(ConstPowersetDomain(VARS3), **kw)


# -- lattice structure -------------------------------------------------------


def test_bot_is_identity_top_is_everything():
    cw = cw_const()
    states = bf_states(U3)
    assert bf_gamma_x(cw.dom, cw.bot(), U3) == {(s, s) for s in states}
    assert bf_gamma_x(cw.dom, cw.top(), U3) == {
        (s1, s2) for s1 in states for s2 in states}


def test_join_meet_leq_componentwise():
    rng = random.Random(22)
    cw = cw_const()

    def gx(i):
        return bf_gamma_x(cw.dom, i, U3)
    for _ in range(100):
        i1 = random_interference(rng, cw.dom)
        i2 = random_interference(rng, cw.dom)
        j = cw.join(i1, i2)
        m = cw.meet(i1, i2)
        assert cw.leq(i1, j) and cw.leq(i2, j)
        assert cw.leq(m, i1) and cw.leq(m, i2)
        # the transition concretisation is monotone in the element
        assert gx(i1) | gx(i2) <= gx(j)
        assert gx(m) <= gx(i1) & gx(i2)
        # `==` is lattice equality: both domains' elements compare by content
        assert (i1 == j) == cw.leq(j, i1) and (m == i1) == cw.leq(i1, m)


def test_fmt():
    cw = cw_const()
    i = cw.bot()
    i["x"] = cm_make({"z": 0})
    assert cw.fmt(i) == "[x↦[z↦0], z↦⊥, r↦⊥]"
    assert cw.fmt(i, ascii_only=True) == "[x|->[z|->0], z|->bot, r|->bot]"


# -- worked-example goldens ---------------------------------------------------


def g0() -> dict:
    # guarantee of a thread that writes x under r=0,z=0 and writes nothing else
    return {"x": cm_make({"r": 0, "z": 0}), "z": CM_BOT, "r": CM_TOP}


def test_stabilise_golden():
    cw = cw_const()
    i = {"x": cm_make({"z": 0}), "z": CM_BOT, "r": CM_BOT}
    d = cm_make({"r": 0, "z": 0, "x": 0})
    # one environment step may rewrite x (z=0 holds), losing x and r's link
    assert cw.stabilise(i, d, 3) == cm_make({"z": 0, "r": 0})
    # with the write-condition on x unreachable nothing changes
    i2 = {"x": cm_make({"z": 1}), "z": CM_BOT, "r": CM_BOT}
    assert cw.stabilise(i2, d, 3) == d


def test_stabilise_fix_golden():
    cw = cw_const()
    i = g0()
    d = cm_make({"r": 1, "x": 0, "z": 0})
    # r is writable anywhere, so a first step may set r := 0; after that the
    # write-condition on x holds and a second step may rewrite x. A single
    # stabilise pass misses the chain, the fixpoint does not.
    one = cw.stabilise(i, d, 3)
    assert one == cm_make({"x": 0, "z": 0})
    assert cw.stabilise_fix(i, d, 3) == cm_make({"z": 0})


def test_close_golden():
    cw = cw_const()
    closed = cw.close(g0())
    assert closed == {"x": cm_make({"z": 0}), "z": CM_BOT, "r": CM_TOP}


def test_transitions():
    cw = cw_const()
    d = cm_make({"z": 1})
    a = Assign(1, ("x",), (Lit(1),))
    t = cw.transitions(d, a)
    assert t == {"x": d, "z": CM_BOT, "r": CM_BOT}
    assert cw.transitions(CM_BOT, a) == cw.bot()
    both = cw.transitions(d, Assign(1, ("x", "r"), (Lit(1), Lit(0))))
    assert both == {"x": d, "r": d, "z": CM_BOT}


# -- soundness properties ------------------------------------------------------


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_stabilise_one_step_soundness(mk):
    rng = random.Random(31)
    cw = mk()
    for _ in range(250):
        i = random_interference(rng, cw.dom)
        d = random_elem(rng, cw.dom)
        n = rng.randint(0, 3)
        out = cw.stabilise(i, d, n)
        g_in = bf_gamma(cw.dom, d, U3)
        reach = g_in | bf_step_image(bf_gamma_x(cw.dom, i, U3), g_in)
        assert reach <= bf_gamma(cw.dom, out, U3)
        assert cw.dom.leq(d, out)  # stabilisation only weakens


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_stabilise_fix_many_step_soundness(mk):
    rng = random.Random(32)
    cw = mk()
    for _ in range(100):
        i = random_interference(rng, cw.dom)
        d = random_elem(rng, cw.dom)
        n = rng.randint(0, 3)
        out = cw.stabilise_fix(i, d, n)
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
        again = cw.stabilise(i, out, n)
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


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_stabilise_pruning_equivalence(mk):
    # the pruned subset enumeration, which const's public stabilise skips,
    # against the unpruned reference walk
    rng = random.Random(41)
    cw, ref = mk(), mk()
    for _ in range(250):
        i = random_interference(rng, cw.dom)
        d = random_elem(rng, cw.dom)
        n = rng.randint(0, 3)
        assert cw._stabilise_enum(i, d, n) == reference_interference.stabilise_enum(
            ref, i, d, n, b1=False)


def enumerating(cw: CondWrites, pruned: bool) -> CondWrites:
    """cw with its stabilise, and so its stabilise_fix, bound to a subset
    enumeration: the reference for a domain's closed form. pruned picks the
    production walk, which skips the supersets of a write set whose wc is
    bottom; otherwise the unpruned reference walk."""
    if pruned:
        cw.stabilise = cw._stabilise_enum
    else:
        cw.stabilise = lambda i, d, n: reference_interference.stabilise_enum(
            cw, i, d, n, b1=False)
    return cw


def assert_closed_form_matches_enumeration(variables, pairs, pruned):
    fast = CondWrites(ConstDomain(variables))
    ref = enumerating(CondWrites(ConstDomain(variables)), pruned)
    for i, d in pairs:
        for n in range(len(variables) + 1):
            assert fast.stabilise(i, d, n) == ref.stabilise(i, d, n)
            assert fast.stabilise_fix(i, d, n) == ref.stabilise_fix(i, d, n)


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

    pairs = [(dict(zip(VARS, wcs)), d)
             for wcs in itertools.product(ALL_CMS, repeat=len(VARS))
             for d in ALL_CMS]
    assert_closed_form_matches_enumeration(VARS, pairs, pruned)


@pytest.mark.parametrize("pruned", [True, False])
@pytest.mark.parametrize("max_disjuncts", [64, 2, 1])
def test_powerset_memoised_stabilise_matches_enumeration(max_disjuncts, pruned):
    # caps 2 and 1 collapse disjuncts inside the enumeration's joins and meets
    rng = random.Random(44)

    def make():
        return CondWrites(ConstPowersetDomain(VARS3, max_disjuncts=max_disjuncts))

    fast, ref = make(), enumerating(make(), pruned)
    for _ in range(300):
        i = random_interference(rng, fast.dom)
        d = random_elem(rng, fast.dom)
        for n in range(len(VARS3) + 1):
            want = ref.stabilise(i, d, n)
            assert fast.stabilise(i, d, n) == want  # miss
            assert fast.stabilise(i, d, n) == want  # hit
            assert fast.stabilise_fix(i, d, n) == ref.stabilise_fix(i, d, n)


def count_enumerations(monkeypatch) -> list:
    calls = []
    real = CondWrites._stabilise_enum

    def counted(self, i, d, n):
        calls.append((d, n))
        return real(self, i, d, n)

    monkeypatch.setattr(CondWrites, "_stabilise_enum", counted)
    return calls


def test_powerset_repeated_stabilise_enumerates_once(monkeypatch):
    calls = count_enumerations(monkeypatch)
    cw = cw_pw()

    def pw(*maps):
        return cw.dom.make(cm_make(m) for m in maps)

    def inputs():
        i = {"x": pw({"z": 0}), "z": pw({"x": 1}, {"r": 0}), "r": pw({})}
        return i, pw({"x": 0, "z": 1}, {"r": 1})

    i, d = inputs()
    first = cw.stabilise(i, d, 2)
    ops = cw.dom.ops
    assert len(calls) == 1 and ops > 0
    # an equal key built from fresh values hits: keys are values, not identities
    assert cw.stabilise(*inputs(), 2) == first
    assert len(calls) == 1 and cw.dom.ops == ops
    cw.stabilise(i, d, 1)  # another n is another key
    assert len(calls) == 2 and cw.dom.ops > ops
    # a fresh instance starts with an empty memo
    assert cw_pw().stabilise(i, d, 2) == first and len(calls) == 3


def test_const_closed_form_never_enumerates(monkeypatch):
    calls = count_enumerations(monkeypatch)
    rng = random.Random(46)
    cw = cw_const()
    for _ in range(50):
        i = random_interference(rng, cw.dom)
        d = random_cm(rng, VARS3)
        cw.stabilise(i, d, 3)
        cw.stabilise_fix(i, d, 3)
    assert calls == []


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_repeated_input_is_answered_from_memo(mk):
    # a repeat returns the stored value and performs no lattice operation;
    # it passes a fresh dict, as the keys hold the write-conditions' values
    rng = random.Random(47)
    cw = mk()
    for _ in range(40):
        i = random_interference(rng, cw.dom)
        d = random_elem(rng, cw.dom)
        for n in range(len(VARS3) + 1):
            first = cw.stabilise(i, d, n)
            hits = cw.memo_hits
            again, ops = with_ops(cw, cw.stabilise, dict(i), d, n)
            assert again is first and ops == 0 and cw.memo_hits == hits + 1
            first = cw.stabilise_fix(i, d, n)
            hits = cw.memo_hits
            again, ops = with_ops(cw, cw.stabilise_fix, dict(i), d, n)
            assert again is first and ops == 0 and cw.memo_hits > hits
        first = cw.close(i)
        hits = cw.memo_hits
        again, ops = with_ops(cw, cw.close, dict(i))
        assert again is first and ops == 0 and cw.memo_hits == hits + 1


# -- the write-set plan against the enumerations it replaced -------------------


def with_ops(cw: CondWrites, fn, *args, **kwargs):
    before = cw.dom.ops
    out = fn(*args, **kwargs)
    return out, cw.dom.ops - before


@pytest.mark.parametrize("kind,cap", [
    ("const", 64), ("const-powerset", 64), ("const-powerset", 4),
    ("const-powerset", 2), ("const-powerset", 1),
], ids=lambda x: str(x))
def test_plan_enumerations_match_reference(kind, cap):
    # same values, never more ops, against the reference walks with the same
    # pruning; caps 4, 2 and 1 collapse disjuncts inside the meets and joins,
    # so each prefix-shared meet must be the same fold. A collapse can also
    # let close's pruning change a value, so the pruning-equivalence tests
    # compare with the unpruned walks where the lattice stays exact
    rng = random.Random(48)
    for variables in (("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")):
        new, ref = (CondWrites(make_domain(kind, variables, max_disjuncts=cap))
                    for _ in range(2))
        for _ in range(60):
            i = random_interference(rng, new.dom, values=(0, 1, 2))
            d = random_elem(rng, new.dom, values=(0, 1, 2))
            for n in range(len(variables) + 1):
                got, ops = with_ops(new, new._stabilise_enum, i, d, n)
                want, ref_ops = with_ops(
                    ref, reference_interference.stabilise_enum, ref, i, d, n,
                    b1=True)
                assert got == want and ops <= ref_ops
            for v in variables:
                got, ops = with_ops(new, new._close_one, i, v)
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
    n = len(VARS3)
    cw.stabilise(i, pw({"x": 0, "z": 1}), n)
    plan = cw._write_sets(i, n)
    assert next(iter(plan.items())) == ((), (frozenset(), cw.dom.top()))
    assert any(len(combo) > 1 for combo in plan)  # some wc took a meet
    meets = []
    meet = cw.dom.meet

    def recording(d1, d2):
        meets.append(d1)
        return meet(d1, d2)

    cw.dom.meet = recording
    d = pw({"x": 1}, {"r": 0, "z": 0})
    before = cw.dom.ops
    cw.stabilise(i, d, n)
    # one meet with d and one join per non-empty write set; no wc is re-met
    assert meets == [d] * (len(plan) - 1)
    assert cw.dom.ops - before == 2 * (len(plan) - 1)
    assert cw._write_sets(i, n) is plan


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


# -- the closed-form const close against the subset walks ----------------------


VARS5 = ("a", "b", "c", "d", "e")


def assert_close_one_matches_walks(variables, interferences):
    # same values as the pruned walk and the unpruned reference walk, and
    # never more ops than the pruned walk
    fast, walk, ref = (CondWrites(ConstDomain(variables)) for _ in range(3))
    for i in interferences:
        for v in variables:
            got, ops = with_ops(fast, fast.dom.close_one, i, v)
            want, walk_ops = with_ops(walk, walk._close_one, i, v)
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
        VARS, [dict(zip(VARS, wcs))
               for wcs in itertools.product(ALL_CMS, repeat=len(VARS))])


def test_const_close_matches_reference():
    rng = random.Random(50)
    for k in range(1, len(VARS5) + 1):
        cw = CondWrites(ConstDomain(VARS5[:k]))
        for _ in range(150):
            i = random_interference(rng, cw.dom, values=(0, 1, 2))
            assert cw.close(i) == reference_interference.close(cw, i)


def test_const_close_never_walks(monkeypatch):
    calls = []
    real = CondWrites._close_one

    def counted(self, i, v):
        calls.append(v)
        return real(self, i, v)

    monkeypatch.setattr(CondWrites, "_close_one", counted)
    rng = random.Random(51)
    cw = cw_const()
    for _ in range(50):
        cw.close(random_interference(rng, cw.dom))
    assert calls == []
    pw = cw_pw()
    pw.close(random_interference(rng, pw.dom))
    assert calls  # the powerset close still walks


# -- fuel -------------------------------------------------------------------------


def test_fuel_exhaustion_reported():
    cw = cw_const(fuel=0)
    with pytest.raises(FuelExhausted):
        cw.stabilise_fix(cw.top(), CM_TOP, 3)
    with pytest.raises(FuelExhausted):
        cw.close(cw.top())

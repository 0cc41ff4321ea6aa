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
    assert cw.gamma_x(cw.bot(), U3) == {(s, s) for s in states}
    assert cw.gamma_x(cw.top(), U3) == {(s1, s2) for s1 in states for s2 in states}


def test_gamma_x_matches_brute_force():
    rng = random.Random(21)
    for cw in (cw_const(), cw_pw()):
        for _ in range(50):
            i = random_interference(rng, cw.dom)
            assert cw.gamma_x(i, U3) == bf_gamma_x(i, U3)


def test_join_meet_leq_componentwise():
    rng = random.Random(22)
    cw = cw_const()
    for _ in range(100):
        i1 = random_interference(rng, cw.dom)
        i2 = random_interference(rng, cw.dom)
        j = cw.join(i1, i2)
        m = cw.meet(i1, i2)
        assert cw.leq(i1, j) and cw.leq(i2, j)
        assert cw.leq(m, i1) and cw.leq(m, i2)
        # the transition concretisation is monotone in the element
        assert cw.gamma_x(i1, U3) | cw.gamma_x(i2, U3) <= cw.gamma_x(j, U3)
        assert cw.gamma_x(m, U3) <= cw.gamma_x(i1, U3) & cw.gamma_x(i2, U3)
        assert cw.eq(i1, i1) and (not cw.eq(i1, j) or cw.leq(j, i1))


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
        g_in = bf_gamma(d, U3)
        reach = g_in | bf_step_image(bf_gamma_x(i, U3), g_in)
        assert reach <= bf_gamma(out, U3)
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
        pairs = bf_gamma_x(i, U3)
        reach = set(bf_gamma(d, U3))
        while True:
            nxt = reach | bf_step_image(pairs, reach)
            if nxt == reach:
                break
            reach = nxt
        assert reach <= bf_gamma(out, U3)
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
        gx = bf_gamma_x(t, U3)
        for s in bf_gamma(d, U3):
            assert (s, bf_exec_assign(a, s, U3.var_order)) in gx


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_close_soundness(mk):
    rng = random.Random(34)
    cw = mk()
    for _ in range(60):
        i = random_interference(rng, cw.dom)
        c = cw.close(i)
        assert cw.leq(i, c)  # inflationary
        assert bf_is_transitive(bf_gamma_x(c, U3))
        again = cw.close(c)
        assert cw.eq(again, c)  # idempotent


# -- optimisation equivalence ----------------------------------------------------


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_stabilise_pruning_equivalence(mk):
    # b1 prunes the subset enumeration, which const's public stabilise skips
    rng = random.Random(41)
    base = mk(opt_b1=True)
    plain = mk(opt_b1=False)
    for _ in range(250):
        i = random_interference(rng, base.dom)
        d = random_elem(rng, base.dom)
        n = rng.randint(0, 3)
        assert base._stabilise_enum(i, d, n) == plain._stabilise_enum(i, d, n)


def enumerating(cw: CondWrites) -> CondWrites:
    """cw with its stabilise, and so its stabilise_fix, bound to the subset
    enumeration: the reference for a domain's closed form."""
    cw.stabilise = cw._stabilise_enum
    return cw


def assert_closed_form_matches_enumeration(variables, pairs, opt_b1):
    fast = CondWrites(ConstDomain(variables), opt_b1=opt_b1)
    ref = enumerating(CondWrites(ConstDomain(variables), opt_b1=opt_b1))
    for i, d in pairs:
        for n in range(len(variables) + 1):
            assert fast.stabilise(i, d, n) == ref.stabilise(i, d, n)
            assert fast.stabilise_fix(i, d, n) == ref.stabilise_fix(i, d, n)


@pytest.mark.parametrize("opt_b1", [True, False])
def test_const_closed_form_stabilise_random(opt_b1):
    rng = random.Random(43)
    dom = ConstDomain(VARS3)
    pairs = [(random_interference(rng, dom), random_cm(rng, VARS3))
             for _ in range(20_000)]
    assert_closed_form_matches_enumeration(VARS3, pairs, opt_b1)


@pytest.mark.parametrize("opt_b1", [True, False])
def test_const_closed_form_stabilise_exhaustive(opt_b1):
    # every write-condition map and every d over two {0,1} variables
    from test_domains import ALL_CMS, VARS

    pairs = [(dict(zip(VARS, wcs)), d)
             for wcs in itertools.product(ALL_CMS, repeat=len(VARS))
             for d in ALL_CMS]
    assert_closed_form_matches_enumeration(VARS, pairs, opt_b1)


@pytest.mark.parametrize("opt_b1", [True, False])
@pytest.mark.parametrize("max_disjuncts", [64, 2, 1])
def test_powerset_memoised_stabilise_matches_enumeration(max_disjuncts, opt_b1):
    # caps 2 and 1 collapse disjuncts inside the enumeration's joins and meets
    rng = random.Random(44)

    def make():
        return CondWrites(ConstPowersetDomain(VARS3, max_disjuncts=max_disjuncts),
                          opt_b1=opt_b1)

    fast, ref = make(), enumerating(make())
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
    ops = cw.dom.ops.count
    assert len(calls) == 1 and ops > 0
    # an equal key built from fresh values hits: keys are values, not identities
    assert cw.stabilise(*inputs(), 2) == first
    assert len(calls) == 1 and cw.dom.ops.count == ops
    cw.stabilise(i, d, 1)  # another n is another key
    assert len(calls) == 2 and cw.dom.ops.count > ops
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


def with_ops(cw: CondWrites, fn, *args):
    before = cw.dom.ops.count
    out = fn(*args)
    return out, cw.dom.ops.count - before


@pytest.mark.parametrize("kind,cap", [
    ("const", 64), ("const-powerset", 64), ("const-powerset", 4),
    ("const-powerset", 2), ("const-powerset", 1),
], ids=lambda x: str(x))
def test_plan_enumerations_match_reference(kind, cap):
    # same values, never more ops; caps 4, 2 and 1 collapse disjuncts inside
    # the meets and joins, so each prefix-shared meet must be the same fold
    rng = random.Random(48)
    for variables in (("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")):
        def make(**opts):
            return CondWrites(make_domain(kind, variables, max_disjuncts=cap), **opts)

        stab = [(make(opt_b1=b1), make(opt_b1=b1)) for b1 in (False, True)]
        close = [(make(opt_b2a=a, opt_b2b=b), make(opt_b2a=a, opt_b2b=b))
                 for a in (False, True) for b in (False, True)]
        dom = stab[0][0].dom
        for _ in range(60):
            i = random_interference(rng, dom, values=(0, 1, 2))
            d = random_elem(rng, dom, values=(0, 1, 2))
            for new, ref in stab:
                for n in range(len(variables) + 1):
                    got, ops = with_ops(new, new._stabilise_enum, i, d, n)
                    want, ref_ops = with_ops(
                        ref, reference_interference.stabilise_enum, ref, i, d, n)
                    assert got == want and ops <= ref_ops
            for new, ref in close:
                for v in variables:
                    got, ops = with_ops(new, new._close_one, i, v)
                    want, ref_ops = with_ops(
                        ref, reference_interference.close_one, ref, i, v)
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
    before = cw.dom.ops.count
    cw.stabilise(i, d, n)
    # one meet with d and one join per non-empty write set; no wc is re-met
    assert meets == [d] * (len(plan) - 1)
    assert cw.dom.ops.count - before == 2 * (len(plan) - 1)
    assert cw._write_sets(i, n) is plan


@pytest.mark.parametrize("mk", [cw_const, cw_pw])
def test_close_optimisation_equivalence(mk):
    rng = random.Random(42)
    variants = [mk(opt_b2a=a, opt_b2b=b)
                for a in (False, True) for b in (False, True)]
    for _ in range(60):
        i = random_interference(rng, variants[0].dom)
        outs = [v.close(i) for v in variants]
        for out in outs[1:]:
            assert variants[0].eq(out, outs[0])


# -- fuel -------------------------------------------------------------------------


def test_fuel_exhaustion_reported():
    cw = cw_const(fuel=0)
    with pytest.raises(FuelExhausted):
        cw.stabilise_fix(cw.top(), CM_TOP, 3)
    with pytest.raises(FuelExhausted):
        cw.close(cw.top())

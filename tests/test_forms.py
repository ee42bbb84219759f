"""The shared linear algebra of the three form classes.

``FForm``, ``GValuedForm`` and ``AForm`` share ``geometry.Form``: the
constructor drops zero components, ``+``, ``-`` and ``scale`` work
componentwise on the stored values, and the signed lookup (``get``,
``eval_frame``) returns the sign of the argument permutation, or zero
on a repeated index.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from courant.ample import AForm
from courant.geometry import FForm, GValuedForm, Patch
from courant.poly import Poly

PATCH = Patch(3, 3)
DIM = 2
SETTINGS = settings(max_examples=40, deadline=None)


def perm_sign(perm) -> int:
    inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def polys():
    """Small polynomials in x1..x3, zero included."""
    exps = st.tuples(*[st.integers(0, 1)] * PATCH.n)
    return st.dictionaries(exps, st.integers(-2, 2), max_size=2).map(lambda t: Poly(PATCH.n, t))


def leaf_keys(degree):
    return list(combinations(range(1, PATCH.p + 1), degree))


def a_keys(degree):
    return [
        (g, f)
        for gcount in range(degree + 1)
        for g in combinations(range(1, DIM + 1), gcount)
        for f in combinations(range(1, PATCH.p + 1), degree - gcount)
    ]


def fform(data, degree):
    comps = data.draw(st.dictionaries(st.sampled_from(leaf_keys(degree)), polys(), max_size=3))
    return comps, FForm(PATCH, degree, comps)


def gform(data, degree):
    vecs = st.lists(polys(), min_size=DIM, max_size=DIM)
    comps = data.draw(st.dictionaries(st.sampled_from(leaf_keys(degree)), vecs, max_size=3))
    return comps, GValuedForm(PATCH, DIM, degree, comps)


def aform(data, degree):
    comps = data.draw(st.dictionaries(st.sampled_from(a_keys(degree)), polys(), max_size=3))
    return comps, AForm(PATCH, DIM, degree, comps)


def check_linear_algebra(make, data, degree, live):
    comps, a = make(data, degree)
    _, b = make(data, degree)
    assert all(live(v) for v in a.comps.values())
    assert sorted(a.comps) == sorted(k for k, v in comps.items() if live(v))
    assert (a + b) - b == a
    assert a - a == a.scale(0)
    assert not a.scale(0)
    assert bool(a) == any(live(v) for v in comps.values())


@SETTINGS
@given(st.data(), st.integers(1, 3))
def test_fform_linear_algebra_and_signed_lookup(data, degree):
    check_linear_algebra(fform, data, degree, bool)
    _, a = fform(data, degree)
    key = data.draw(st.sampled_from(leaf_keys(degree)))
    perm = data.draw(st.permutations(range(degree)))
    value = a.comps.get(key, PATCH.zero())
    assert a.get([key[i] for i in perm]) == value.scale(perm_sign(perm))
    if degree > 1:
        assert a.get(key[:-1] + key[:1]) == PATCH.zero()


@SETTINGS
@given(st.data(), st.integers(1, 3))
def test_gvalued_form_linear_algebra_and_signed_lookup(data, degree):
    check_linear_algebra(gform, data, degree, any)
    _, a = gform(data, degree)
    key = data.draw(st.sampled_from(leaf_keys(degree)))
    perm = data.draw(st.permutations(range(degree)))
    value = a.comps.get(key, [PATCH.zero()] * DIM)
    assert a.get([key[i] for i in perm]) == [v.scale(perm_sign(perm)) for v in value]
    if degree > 1:
        assert a.get(key[:-1] + key[:1]) == [PATCH.zero()] * DIM


@SETTINGS
@given(st.data(), st.integers(1, 3))
def test_aform_linear_algebra_and_signed_lookup(data, degree):
    check_linear_algebra(aform, data, degree, bool)
    _, a = aform(data, degree)
    gidx, fidx = key = data.draw(st.sampled_from(a_keys(degree)))
    syms = [("g", i) for i in gidx] + [("f", j) for j in fidx]
    perm = data.draw(st.permutations(range(degree)))
    value = a.comps.get(key, PATCH.zero())
    assert a.eval_frame([syms[i] for i in perm]) == value.scale(perm_sign(perm))
    if degree > 1:
        assert a.eval_frame(syms[:-1] + syms[:1]) == PATCH.zero()


def test_gvalued_form_addition_is_componentwise():
    one, x1 = PATCH.one(), PATCH.var(1)
    u = GValuedForm(PATCH, DIM, 1, {(1,): [x1, PATCH.zero()], (2,): [one, one]})
    v = GValuedForm(PATCH, DIM, 1, {(1,): [one, x1]})
    assert (u + v).comps == {(1,): [x1 + one, x1], (2,): [one, one]}
    assert (u - u).comps == {}
    assert u.scale(-2).get((2,)) == [one.scale(-2), one.scale(-2)]

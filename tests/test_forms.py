"""The shared linear algebra of the three form classes.

``FForm``, ``GValuedForm`` and ``AForm`` share ``geometry.Form``: the
constructor drops zero components, ``+``, ``-`` and ``scale`` work
componentwise on the stored values, and the signed lookup (``get``,
``eval_frame``) returns the sign of the argument permutation, or zero
on a repeated index.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courant.ample import AForm, aform_keys, frame_wedge
from courant.geometry import FForm, Form, GValuedForm, Patch
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
    key = data.draw(st.sampled_from(a_keys(degree)))
    wedge = frame_wedge(DIM, key)
    perm = data.draw(st.permutations(range(degree)))
    value = a.comps.get(key, PATCH.zero())
    assert a.eval_frame([wedge[i] for i in perm]) == value.scale(perm_sign(perm))
    if degree > 1:
        assert a.eval_frame(wedge[:-1] + wedge[:1]) == PATCH.zero()
    for stored in aform_keys(PATCH, DIM, degree):
        assert a.eval_frame(frame_wedge(DIM, stored)) == a.comps.get(stored, PATCH.zero())


def test_gvalued_form_addition_is_componentwise():
    one, x1 = PATCH.one(), PATCH.var(1)
    u = GValuedForm(PATCH, DIM, 1, {(1,): [x1, PATCH.zero()], (2,): [one, one]})
    v = GValuedForm(PATCH, DIM, 1, {(1,): [one, x1]})
    assert (u + v).comps == {(1,): [x1 + one, x1], (2,): [one, one]}
    assert (u - u).comps == {}
    assert u.scale(-2).get((2,)) == [one.scale(-2), one.scale(-2)]


def test_adding_forms_of_different_shape_raises():
    # every key of both forms is a key on Patch(3, 2) too, so only the
    # shape comparison of ``+`` tells them apart
    wide, narrow = Patch(3, 3), Patch(3, 2)
    a = FForm(wide, 1, {(1,): wide.var(3), (2,): wide.one()})
    b = FForm(narrow, 1, {(2,): narrow.one()})
    pairs = [
        (a, b),
        (b, a),
        (GValuedForm(PATCH, 1, 1, {(1,): [PATCH.one()]}), GValuedForm(PATCH, 2, 1, {(1,): [PATCH.one()] * 2})),
        (FForm(PATCH, 0, {(): PATCH.one()}), AForm(PATCH, DIM, 0, {((), ()): PATCH.one()})),
    ]
    for left, right in pairs:
        with pytest.raises(ValueError, match="form shape mismatch"):
            left + right
        with pytest.raises(ValueError, match="form shape mismatch"):
            left - right
    with pytest.raises(ValueError, match="form degree mismatch"):
        a + FForm(wide, 2)


def test_sum_and_scale_do_not_recheck_keys(monkeypatch):
    one, x1 = PATCH.one(), PATCH.var(1)
    forms = [
        (FForm(PATCH, 1, {(1,): x1}), FForm(PATCH, 1, {(1,): one, (2,): x1})),
        (GValuedForm(PATCH, DIM, 1, {(1,): [x1, one]}), GValuedForm(PATCH, DIM, 1, {(2,): [one, one]})),
        (AForm(PATCH, DIM, 1, {((1,), ()): x1}), AForm(PATCH, DIM, 1, {((), (1,)): one})),
    ]
    checked = []
    for cls in (Form, GValuedForm, AForm):
        check = cls.__dict__["_check"]
        monkeypatch.setattr(cls, "_check", lambda self, key, value, check=check: checked.append(key) or check(self, key, value))
    for a, b in forms:
        total, difference, scaled = a + b, a - b, a.scale(3)
        assert checked == []
        assert sorted(total.comps) == sorted(set(a.comps) | set(b.comps))
        assert difference + b == a
        assert scaled.comps.keys() == a.comps.keys()
        assert not a.scale(0).comps

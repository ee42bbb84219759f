"""The reduced axiom check against a literal copy of its frame stages.

``literal_reduced_report`` runs every frame-level stage in full: axiom 1
on all frame x frame x frame triples without an early exit, axiom 5 on
coefficients up to degree max(2 * cap, 2), both Leibniz rules with f = 1
included, and after a Leibniz failure the whole literal enumeration
``_axioms_direct``.  ``check_axioms`` restricts these stages by the arguments in
``Quintuple._axioms_reduced``; its reports must be byte-identical.
"""

from itertools import product

import pytest

from courant import Quintuple, monomials
from courant.dorfman import AXIOM_IDENTITIES
from courant.report import Check, Report
from fixtures import (
    ALL_FIXTURES,
    fixture_a,
    fixture_c,
    fixture_d,
    mutate_fixture_d,
    rank_mutant,
    su2_patch,
)
from test_knockouts import KNOCKOUTS

CAPS = (0, 1, 2)


def literal_reduced_report(q, degree_cap):
    """Reference: the frame stages of the reduced check, each run in full."""
    frames = q.frame_sections()
    nu = len(frames)
    linear = monomials(q.patch.n, 1)
    pairs = list(product(enumerate(frames), repeat=2))
    br = {(i, j): q.dorfman(u, v) for (i, u), (j, v) in pairs}
    pair = {(i, j): q.pairing(u, v) for (i, u), (j, v) in pairs}

    ax = {k: Check("axiom_%d" % k, text) for k, text in AXIOM_IDENTITIES.items()}
    ax[3] = Check("axiom_3", "[[e1, f u]] - f[[e1,u]] - (rho(e1)f) u")
    left = Check("leibniz_left_rule", "[[f u, e2]] - f[[u,e2]] + (rho(e2)f) u - 2<u,e2> D f")

    for (i, u), (j, v) in pairs:
        rhs = q.vf_bracket(u.x, v.x)
        for a, (s, t) in enumerate(zip(q.anchor(br[(i, j)]), rhs), start=1):
            ax[2].add((i + 1, j + 1, a), s - t)

    for ((i, u), (j, v)), (fi, f) in product(pairs, enumerate(linear)):
        rhs = br[(i, j)].mul(f)
        rf = q.anchor_apply(u, f)
        if rf:
            rhs = rhs + v.mul(rf)
        ax[3].add_section((i + 1, j + 1, fi + 1), q.dorfman(u, v.mul(f)) - rhs)
        if ax[3].failed:
            break
    for ((i, u), (j, v)), (fi, f) in product(pairs, enumerate(linear)):
        rhs = br[(i, j)].mul(f) - u.mul(q.anchor_apply(v, f))
        if pair[(i, j)]:
            rhs = rhs + q.d_operator(f).mul(pair[(i, j)].scale(2))
        left.add_section((i + 1, j + 1, fi + 1), q.dorfman(u.mul(f), v) - rhs)
        if left.failed:
            break

    for i in range(nu):
        for j in range(i, nu):
            d = br[(i, j)] + br[(j, i)] - q.d_operator(pair[(i, j)]).scale(2)
            ax[4].add_section((i + 1, j + 1), d)

    for fi, f in enumerate(monomials(q.patch.n, max(2 * degree_cap, 2))):
        if ax[5].failed:
            break
        df = q.d_operator(f)
        if df.is_zero():
            continue
        for j in range(nu):
            ax[5].add_section((fi + 1, j + 1), q.dorfman(df, frames[j]))
            if ax[5].failed:
                break

    for i in range(nu):
        for j in range(nu):
            for k in range(j, nu):
                d = (
                    q.anchor_apply(frames[i], pair[(j, k)])
                    - q.pairing(br[(i, j)], frames[k])
                    - q.pairing(frames[j], br[(i, k)])
                )
                ax[6].add((i + 1, j + 1, k + 1), d)
    for i in range(nu):
        for j in range(nu):
            for k in range(nu):
                d = (
                    q.dorfman(frames[i], br[(j, k)])
                    - q.dorfman(br[(i, j)], frames[k])
                    - q.dorfman(frames[j], br[(i, k)])
                )
                ax[1].add_section((i + 1, j + 1, k + 1), d)

    records = [ax[k].record() for k in range(1, 7)]
    if ax[3].failed or left.failed:
        direct = q._axioms_direct(degree_cap)
        records = [direct[r.name] if r.ok and r.name != "axiom_3" else r for r in records]
    return Report(records + [left.record()])


def assert_matches_literal(q):
    for cap in CAPS:
        assert q.check_axioms(cap).to_json() == literal_reduced_report(q, cap).to_json(), cap


@pytest.mark.parametrize("name, build", ALL_FIXTURES)
def test_matches_literal_on_fixtures(name, build):
    assert_matches_literal(build())


@pytest.mark.parametrize("seed", range(12))
def test_matches_literal_on_fixture_d_mutants(seed):
    assert_matches_literal(mutate_fixture_d(seed)[0])


@pytest.mark.parametrize("family", ["mut_c", "mut_s"])
@pytest.mark.parametrize("index", range(3))
def test_matches_literal_on_rank_mutants(family, index):
    assert_matches_literal(rank_mutant(family, index)[0])


@pytest.mark.parametrize("knockout", sorted(KNOCKOUTS))
@pytest.mark.parametrize("build", [fixture_a, fixture_d])
def test_matches_literal_under_knockouts(monkeypatch, knockout, build):
    monkeypatch.setattr(Quintuple, *KNOCKOUTS[knockout])
    assert_matches_literal(build())


@pytest.mark.parametrize("knockout", ["h_contract=0", "h_contract*-1"])
def test_matches_literal_under_h_knockouts_on_rank_4_leaf(monkeypatch, knockout):
    monkeypatch.setattr(Quintuple, *KNOCKOUTS[knockout])
    assert_matches_literal(fixture_c())


def test_matches_literal_when_only_axiom_6_fails(monkeypatch):
    # both Leibniz rules and axioms 4 and 5 pass but axiom 6 fails, so the
    # Jacobiator need not be skew: its first failure is not increasing
    monkeypatch.setattr(Quintuple, *KNOCKOUTS["q_form=0"])
    q = rank_mutant("mut_c", 2)[0]
    assert q.check_axioms(1)["axiom_1"].witness.indices == (6, 7, 5)
    assert_matches_literal(q)


@pytest.mark.parametrize("family", ["mut_c", "mut_s"])
def test_validate_iff_axioms_on_rank_mutants(family):
    # the equivalence the quintuple construction rests on, on leaves of
    # rank 4 and 3 where Bianchi and Pontryagin can fail; the bracket code
    # is intact, so axioms 4, 5 and 6 pass and axiom 1 fails on a sorted
    # triple
    base = fixture_c() if family == "mut_c" else su2_patch(4, 3)
    assert base.validate().ok and base.check_axioms(1).ok
    for index in range(12):
        q = rank_mutant(family, index)[0]
        assert not q.validate().ok
        failures = q.check_axioms(1).failures()
        assert [r.name for r in failures] == ["axiom_1"]
        i, j, k = failures[0].witness.indices
        assert i < j < k

"""The six Courant axioms of a quintuple, checked exactly.

``Quintuple.check_axioms`` (in :mod:`courant.dorfman`) runs ``reduced``,
a frame-level certificate: both Leibniz rules on frame pairs with
coefficients x_a, which certifies them for all polynomial sections,
axiom 5 on coefficients of degree <= 1 (<= 2 after a Leibniz failure),
and the other axioms on frame tuples, axiom 1 on strictly increasing
triples once the Jacobiator is known to be totally skew.  The argument
rests on one structural property of ``Quintuple.dorfman``: each term
of the closed-form bracket differentiates at most one factor, at most
once.  ``reduced``'s docstring gives it in full.

``direct`` is the literal enumeration on the family {monomial * frame
section} up to a degree cap.  The cap matters only after a Leibniz
failure, where ``direct`` supplies the records that the frame checks
cannot certify; the test suite runs it whole as the certificate's
oracle.

Only ``check`` and ``axioms`` run this code, so the layer is lazy
(see ``courant/__init__.py``): the other commands never compile it.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from .dorfman import FrameBrackets, Quintuple, monomials
from .report import Check, Report

AXIOM_IDENTITIES = {
    1: "jacobiator",
    2: "rho([[e1,e2]]) - [rho e1, rho e2]",
    3: "[[e1, f e2]] - f[[e1,e2]] - (rho(e1)f) e2",
    4: "[[e1,e2]] + [[e2,e1]] - 2 D<e1,e2>",
    5: "[[D f, e]]",
    6: "rho(e1)<e2,e3> - <[[e1,e2]],e3> - <e2,[[e1,e3]]>",
}


def direct(q: Quintuple, degree_cap: int, axioms: Sequence[int] = tuple(AXIOM_IDENTITIES)) -> Report:
    """Literal enumeration: pairs for axioms 2-4, triples for 1 and 6.

    Axiom 3 tries the coefficients f of degree <= cap, so at cap 0
    only f = 1.  Axiom 5 pairs D f with every family member for the
    monomials f of degree <= max(2 * cap, 2): its defect [[D f, e]]
    has order 2 in f, which coefficients of degree <= 1 (D f
    constant) cannot see.  Those monomials extend ``monos``, so the
    witness indices keep the family numbering.  Only the records of
    ``axioms`` are computed and returned, in axiom order."""
    family, monos = q.axiom_family(degree_cap)
    nf = len(family)
    br = FrameBrackets(q, family)

    ax = {k: Check("axiom_%d" % k, AXIOM_IDENTITIES[k]) for k in sorted(axioms)}

    def live(k: int) -> bool:
        return k in ax and not ax[k].failed

    for i, j in product(range(nf), repeat=2):
        if live(2):
            lhs = q.anchor(br[(i, j)])
            rhs = q.vf_bracket(family[i].x, family[j].x)
            for a, (u, v) in enumerate(zip(lhs, rhs), start=1):
                ax[2].add((i + 1, j + 1, a), u - v)
        if live(3):
            for fi, f in enumerate(monos):
                lhs = q.dorfman(family[i], family[j].mul(f))
                rhs = br[(i, j)].mul(f) + family[j].mul(q.anchor_apply(family[i], f))
                if ax[3].add_section((i + 1, j + 1, fi + 1), lhs - rhs):
                    break
        if live(4) and i <= j:
            d = br[(i, j)] + br[(j, i)] - q.d_operator(q.pairing(family[i], family[j])).scale(2)
            ax[4].add_section((i + 1, j + 1), d)

    if live(5):
        for fi, f in enumerate(monomials(q.patch.n, max(2 * degree_cap, 2))):
            df = q.d_operator(f)
            if df.is_zero():
                continue
            if any(ax[5].add_section((fi + 1, j + 1), q.dorfman(df, family[j])) for j in range(nf)):
                break

    for i, j, k in product(range(nf), repeat=3):
        if not (live(1) or live(6)):
            break
        if live(1):
            d = (
                q.dorfman(family[i], br[(j, k)])
                - q.dorfman(br[(i, j)], family[k])
                - q.dorfman(family[j], br[(i, k)])
            )
            ax[1].add_section((i + 1, j + 1, k + 1), d)
        if live(6):
            d = (
                q.anchor_apply(family[i], q.pairing(family[j], family[k]))
                - q.pairing(br[(i, j)], family[k])
                - q.pairing(family[j], br[(i, k)])
            )
            ax[6].add((i + 1, j + 1, k + 1), d)

    return Report([check.record() for check in ax.values()])

def reduced(q: Quintuple, degree_cap: int) -> Report:
    """Frame-level certificate of the six axioms for all polynomial sections.

    Assumption (a structural property of ``dorfman``, which no finite
    check can certify for arbitrary code): the bracket is bilinear with
    polynomial coefficients, and each of its terms differentiates at
    most one factor, at most once.  ``vf_bracket``, ``nabla_along``,
    ``lie_covector``, the dual-pairing differential and ``p_form``
    differentiate one factor once; the fiber bracket, ``curv_contract``,
    ``h_contract`` and ``q_form`` differentiate nothing.  So the
    bracket is a bidifferential operator of total order <= 1, and

        [[e1, f e2]] - f[[e1,e2]] - (rho(e1)f) e2 = sum_a (d_a f) S_a(e1, e2)

    with every S_a linear over functions in e1 and e2; the left
    defect [[f e1, e2]] - f[[e1,e2]] + (rho(e2)f) e1 - 2<e1,e2> D f has
    the same form.  Both defects are tensorial in the two sections and
    depend on f only through df, and at f = x_a they equal S_a.  So
    checking both rules on frame x frame x {x_n, .., x_1} certifies
    them for all polynomial sections and coefficients, whatever the
    degree cap.  f = 1 is skipped: u.mul(1) == u, so both defects
    vanish there identically.

    With both rules, and with rho(D f) = 0 and 2<D f, e> = rho(e) f
    (D f has F* components only), the defects of axioms 2, 4 and 6
    are tensorial, so frame pairs and triples certify them.

    Axiom 5: by the assumption alone, [[D f, e]] for a frame e is a
    linear differential operator of order <= 2 in f, sum_a c^a d_a f
    + sum_{a<=b} c^{ab} d_a d_b f, which vanishes at f = 1.  At f =
    x_a it is c^a, and at f = x_a x_b it is x_b c^a + x_a c^b + c^{ab}
    (2 x_a c^a + 2 c^{aa} at a = b), so if it vanishes on all
    monomials of degree <= 2 it vanishes for all f.  Those monomials
    come first in the graded order, so they also hold the first
    witness of any longer list.  When both Leibniz stages pass, the
    order is 1 and degree <= 1 suffices: D f = sum_a (d_a f) delta^a
    over the leaf directions, and the left rule with 2<delta^a, e> =
    e^a = rho(e) x_a gives

        [[D f, e]] = sum_a (d_a f) [[delta^a, e]]
                     + sum_{a,b} (d_a d_b f) (e^a delta^b - e^b delta^a),

    whose second sum vanishes: symmetric times skew in (a, b).  The
    coefficients [[delta^a, e]] are the values at f = x_a.  After a
    Leibniz failure the stage keeps degree <= 2, so that a frame-level
    failure keeps its witness.

    Axiom 1: given axioms 2, 4, 5 and 6 the Jacobiator J is
    tensorial, so frame triples certify it.  When both rules and the
    frame checks of 4, 5 and 6 pass (so 4, 5 and 6 hold for all
    sections), J is also totally skew:

        J(a,b,c) + J(b,a,c) = -[[2 D<a,b>, c]] = 0           (4, 5)
        J(a,b,c) + J(a,c,b) = [[a, 2 D<b,c>]] - 2 D<[[a,b]],c>
                              - 2 D<[[a,c]],b>
                            = 2 D(rho(a)<b,c> - <[[a,b]],c>
                              - <b,[[a,c]]>) = 0              (6)

    using [[a, D f]] = -[[D f, a]] + 2 D<D f, a> = D(rho(a) f) by 4
    and 5.  So J vanishes on triples with a repeated frame and is
    +-J(sorted) on the others: the strictly increasing triples
    certify it, and the lex-first failing triple of the full loop is
    strictly increasing, so the witness is the same.  Otherwise the
    full frame x frame x frame loop runs.  Every loop stops at its
    first witness.

    Uchino (LMP 2002) shows that some of these axioms follow from the
    others; all six are still checked, since on broken code each
    gives its own witness.  After a Leibniz failure a frame-level
    pass of axiom 1, 2, 4, 5 or 6 certifies nothing, so those records
    come from the literal enumeration at the degree cap, which
    computes only them; a frame-level failure is a counterexample
    and stays.  The cap matters only there.

    Witness indices use family numbering: the frames are the first
    members of ``axiom_family`` and 1, x_n, .., x_1 the first
    monomials, and under the assumption a failing Leibniz instance
    anywhere in family x frame x monomials implies one at some
    (frame, frame, x_a), which comes earlier.  The test suite
    cross-checks this certificate against the literal enumeration
    ``direct``, on valid and on mutated data.
    """
    br = q.frame_brackets()
    frames = br.frames
    nu = len(frames)
    linear = list(enumerate(monomials(q.patch.n, 1)))[1:]
    pairs = list(product(enumerate(frames), repeat=2))
    pair = {(i, j): q.pairing(u, v) for (i, u), (j, v) in pairs}
    # f u for every frame u and coefficient x_a, read by both Leibniz stages
    times = {(i, fi): u.mul(f) for i, u in enumerate(frames) for fi, f in linear}

    ax = {k: Check("axiom_%d" % k, text) for k, text in AXIOM_IDENTITIES.items()}
    ax[3] = Check("axiom_3", "[[e1, f u]] - f[[e1,u]] - (rho(e1)f) u")
    left = Check("leibniz_left_rule", "[[f u, e2]] - f[[u,e2]] + (rho(e2)f) u - 2<u,e2> D f")

    # axiom 2 on frame pairs
    for (i, u), (j, v) in pairs:
        rhs = q.vf_bracket(u.x, v.x)
        for a, (s, t) in enumerate(zip(q.anchor(br[(i, j)]), rhs), start=1):
            ax[2].add((i + 1, j + 1, a), s - t)

    # axiom 3 and the left Leibniz rule: frame pairs, coefficients x_n, .., x_1
    for ((i, u), (j, v)), (fi, f) in product(pairs, linear):
        rhs = br[(i, j)].mul(f)
        rf = q.anchor_apply(u, f)
        if rf:
            rhs = rhs + v.mul(rf)
        if ax[3].add_section((i + 1, j + 1, fi + 1), q.dorfman(u, times[(j, fi)]) - rhs):
            break
    for ((i, u), (j, v)), (fi, f) in product(pairs, linear):
        rhs = br[(i, j)].mul(f) - u.mul(q.anchor_apply(v, f))
        if pair[(i, j)]:
            rhs = rhs + q.d_operator(f).mul(pair[(i, j)].scale(2))
        if left.add_section((i + 1, j + 1, fi + 1), q.dorfman(times[(i, fi)], v) - rhs):
            break

    # axiom 4 on unordered frame pairs
    for i, j in combinations_with_replacement(range(nu), 2):
        d = br[(i, j)] + br[(j, i)] - q.d_operator(pair[(i, j)]).scale(2)
        ax[4].add_section((i + 1, j + 1), d)

    # axiom 5 with frame second arguments, coefficients of degree <= 1
    # given both Leibniz rules, else <= 2
    leibniz = not (ax[3].failed or left.failed)
    for fi, f in enumerate(monomials(q.patch.n, 1 if leibniz else 2)):
        df = q.d_operator(f)
        if df.is_zero():
            continue
        if any(ax[5].add_section((fi + 1, j + 1), q.dorfman(df, frames[j])) for j in range(nu)):
            break

    # axiom 6 on frame triples, symmetric in the last two
    for i, (j, k) in product(range(nu), combinations_with_replacement(range(nu), 2)):
        d = (
            q.anchor_apply(frames[i], pair[(j, k)])
            - q.pairing(br[(i, j)], frames[k])
            - q.pairing(frames[j], br[(i, k)])
        )
        if ax[6].add((i + 1, j + 1, k + 1), d):
            break

    # axiom 1: strictly increasing frame triples when J is totally skew
    skew = leibniz and not any(c.failed for c in (ax[4], ax[5], ax[6]))
    for i, j, k in combinations(range(nu), 3) if skew else product(range(nu), repeat=3):
        d = (
            q.dorfman(frames[i], br[(j, k)])
            - q.dorfman(br[(i, j)], frames[k])
            - q.dorfman(frames[j], br[(i, k)])
        )
        if ax[1].add_section((i + 1, j + 1, k + 1), d):
            break

    records = [ax[k].record() for k in range(1, 7)]
    if not leibniz:
        redo = [k for k in (1, 2, 4, 5, 6) if not ax[k].failed]
        literal = {r.name: r for r in direct(q, degree_cap, redo)}
        records = [literal.get(r.name, r) for r in records]
    return Report(records + [left.record()])

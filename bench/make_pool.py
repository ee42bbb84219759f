"""Build the benchmark's input pool and record its expected-output oracle.

Usage (from the repository root)::

    PYTHONPATH=src python3 bench/make_pool.py

The pool is a fixed, committed set of config files under
``bench/pool``; a benchmark run draws its task list from it with the
run's ``--seed`` (see ``workloads.py``).  Pool members are made here with
the ``courant`` library itself: valid variants are transported along
explicit isomorphisms, invalid ones are edits of valid data.  Every
random choice comes from ``random.Random`` with a fixed seed, so this
script rewrites byte-identical files.

The oracle (``bench/oracle.json``) holds the outcome of every task the
workloads can draw, as this commit's ``courant`` produced it: exit code,
the SHA-256 of the report for exit 0, and the check names and statuses
for exit 1.  Recording it again on a later commit would hide a change
of behaviour; do so only when the pool itself changes, and say why.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import courant as cr
import oracle
import workloads
from courant import cli
from runner import run_task
from workloads import FAMILY_SIZES, POOL_DIR


# -- base data -----------------------------------------------------------------


def fixture_c():
    """Fixture C: abelian line over a rank-4 leaf, H = 2*x1 dx2dx3dx4."""
    patch = cr.Patch(4, 4)
    one = patch.one()
    curv = cr.GValuedForm(patch, 1, 2, {(1, 2): [one], (3, 4): [one]})
    hform = cr.FForm(patch, 3, {(2, 3, 4): patch.var(1).scale(2)})
    return cr.Quintuple(patch, cr.abelian(1), cr.GConnection.flat(patch, 1), curv, hform)


def fixture_d():
    """Fixture D: su(2) over a rank-2 leaf, Gamma_a = ad e_a, R_12 = e3."""
    return su2_patch(2, 2)


def su2_patch(n: int, p: int):
    """su(2) over an (n, p) patch with Gamma_a = ad e_a and R_ab = [e_a, e_b]."""
    patch = cr.Patch(n, p)
    fiber = cr.su2()

    def unit(k):
        return [patch.one() if i == k else patch.zero() for i in (1, 2, 3)]

    gamma = [fiber.ad_matrix(unit(a)) for a in range(1, p + 1)]
    curv = {}
    for a in range(1, p + 1):
        for b in range(a + 1, p + 1):
            vec = fiber.bracket(unit(a), unit(b))
            if any(vec):
                curv[(a, b)] = vec
    return cr.Quintuple(
        patch,
        fiber,
        cr.GConnection(patch, 3, gamma),
        cr.GValuedForm(patch, 3, 2, curv),
        cr.FForm.zero(patch, 3),
    )


# -- isomorphisms ----------------------------------------------------------------


def _det3(t):
    return (
        t[0][0] * (t[1][1] * t[2][2] - t[1][2] * t[2][1])
        - t[0][1] * (t[1][0] * t[2][2] - t[1][2] * t[2][0])
        + t[0][2] * (t[1][0] * t[2][1] - t[1][1] * t[2][0])
    )


def _beta_for(q, phi, rng, skew_terms):
    """beta = -<phi, phi> plus a random skew part: the pairing condition holds."""
    patch, fiber = q.patch, q.fiber
    n, p = patch.n, patch.p
    beta = [[cr.Poly.zero(n) for _ in range(p)] for _ in range(p)]
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            beta[b - 1][a - 1] = -fiber.pairing(phi.get((a,)), phi.get((b,)))
    for a, b, skew in skew_terms(rng):
        beta[b - 1][a - 1] = beta[b - 1][a - 1] + skew
        beta[a - 1][b - 1] = beta[a - 1][b - 1] - skew
    return beta


def integer_iso(q, rng: random.Random):
    """Integer isomorphism: signed-permutation tau, one-term linear phi.

    tau is +-1 on a line fiber and a signed permutation of determinant 1
    on su(2); each phi_a is +-1 or +-2 times a coordinate, placed on one
    fiber direction.  The fixed shape keeps the transported data of every
    variant about equally large, so variants cost about the same to check.
    """
    patch, fiber = q.patch, q.fiber
    n, p, m = patch.n, patch.p, fiber.dim
    if m == 1:
        t = [[rng.choice([1, -1])]]
    else:
        while True:
            perm = list(range(m))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(m)]
            t = [[signs[i] if perm[i] == j else 0 for j in range(m)] for i in range(m)]
            if _det3(t) == 1:
                break
    tau = [[cr.Poly.const(n, v) for v in row] for row in t]
    coords = list(range(1, n + 1))
    rng.shuffle(coords)
    comps = {}
    for a in range(1, p + 1):
        col = [cr.Poly.zero(n)] * m
        col[rng.randrange(m)] = patch.var(coords[a - 1]).scale(rng.choice([-2, -1, 1, 2]))
        comps[(a,)] = col
    phi = cr.GValuedForm(patch, m, 1, comps)

    def skew_terms(r):
        a, b = sorted(r.sample(range(1, p + 1), 2))
        return [(a, b, patch.var(r.randrange(1, n + 1)).scale(r.choice([-1, 1])))]

    return cr.IsoData(tau, phi, _beta_for(q, phi, rng, skew_terms))


def _rand_fraction(rng: random.Random, num: int, den: int) -> Fraction:
    """A nonzero rational with |numerator| <= num and denominator <= den."""
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, num), rng.randint(1, den))


def _rand_linear(rng: random.Random, n: int):
    """c0 + c1 * x_k with nonzero rational c0, c1: always two terms."""
    exp = [0] * n
    exp[rng.randrange(n)] = 1
    return cr.Poly(n, {(0,) * n: _rand_fraction(rng, 3, 3), tuple(exp): _rand_fraction(rng, 3, 3)})


def cayley_so3(rng: random.Random):
    """Rational rotation (I - S)(I + S)^-1 for a random skew S.

    S has entries a signed permutation of (1/2, 1, 2), so every rotation
    has the same denominators and transports cost about the same.
    """
    a, b, c = (rng.choice([-1, 1]) * Fraction(v) for v in rng.sample(["1/2", "1", "2"], 3))
    s = [[Fraction(0), a, b], [-a, Fraction(0), c], [-b, -c, Fraction(0)]]
    plus = [[(1 if i == j else 0) + s[i][j] for j in range(3)] for i in range(3)]
    minus = [[(1 if i == j else 0) - s[i][j] for j in range(3)] for i in range(3)]
    det = _det3(plus)
    inv = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [k for k in range(3) if k != j]
            minor = (
                plus[rows[0]][cols[0]] * plus[rows[1]][cols[1]]
                - plus[rows[0]][cols[1]] * plus[rows[1]][cols[0]]
            )
            inv[j][i] = (minor if (i + j) % 2 == 0 else -minor) / det
    return [[sum(minus[i][k] * inv[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def cayley_iso(q, rng: random.Random):
    """Rational isomorphism of fixture D: Cayley rotation, degree-1 phi."""
    patch, fiber = q.patch, q.fiber
    n, p, m = patch.n, patch.p, fiber.dim
    tau = [[cr.Poly.const(n, v) for v in row] for row in cayley_so3(rng)]
    comps = {}
    for a in range(1, p + 1):
        col = [_rand_linear(rng, n) for _ in range(m)]
        if any(col):
            comps[(a,)] = col
    phi = cr.GValuedForm(patch, m, 1, comps)

    def skew_terms(r):
        return [
            (a, b, _rand_linear(r, n))
            for a in range(1, p + 1)
            for b in range(a + 1, p + 1)
        ]

    return cr.IsoData(tau, phi, _beta_for(q, phi, rng, skew_terms))


# -- mutations -------------------------------------------------------------------


def _replace(q, conn=None, curv=None, hform=None):
    return cr.Quintuple(q.patch, q.fiber, conn or q.conn, curv or q.curv, hform or q.hform)


def _add_to_curv(q, key, delta):
    comps = {k: list(q.curv.get(k)) for k in q.curv.keys()}
    vec = comps.setdefault(key, [q.patch.zero()] * q.fiber.dim)
    comps[key] = [u + v for u, v in zip(vec, delta)]
    return _replace(q, curv=cr.GValuedForm(q.patch, q.fiber.dim, 2, comps))


def _add_to_gamma(q, a, delta):
    gamma = [[list(row) for row in mat] for mat in q.conn.gamma]
    m = q.fiber.dim
    for i in range(m):
        for j in range(m):
            gamma[a - 1][i][j] = gamma[a - 1][i][j] + delta[i][j]
    return _replace(q, conn=cr.GConnection(q.patch, m, gamma))


def _nonzero_vector(rng, n, m):
    v = [rng.randint(-2, 2) for _ in range(m)]
    if not any(v):
        v[rng.randrange(m)] = 1
    return [cr.Poly.const(n, t) for t in v]


MUTANT_CLASSES = {
    # fixture D, checked at degree 2: the leaf has rank 2, so only metric
    # invariance and curvature matching can break
    "mut_d": ("metric_skew", "gamma_ad", "curv_const"),
    # fixture C and su(2) on the n=4, p=3 patch, checked at degree 1:
    # Bianchi, Pontryagin and curvature matching can all break
    "mut_c": ("h_scale", "h_extra", "bianchi"),
    "mut_s": ("curv_const", "gamma_ad", "bianchi"),
}


def mutant(family: str, index: int):
    """The index-th seeded invalid variant of a family; class = index mod 3."""
    rng = random.Random("%s:%d" % (family, index))
    cls = MUTANT_CLASSES[family][index % 3]
    if family == "mut_c":
        q = fixture_c()
        n = q.patch.n
        k = rng.choice([-1, 1, 3, 4])
        if cls == "h_scale":
            return _replace(q, hform=cr.FForm(q.patch, 3, {(2, 3, 4): q.patch.var(1).scale(k)})), cls
        if cls == "h_extra":
            comps = {(2, 3, 4): q.patch.var(1).scale(2), (1, 2, 3): q.patch.var(4).scale(k)}
            return _replace(q, hform=cr.FForm(q.patch, 3, comps)), cls
        key = rng.choice([(1, 2), (3, 4)])
        free = rng.choice([c for c in range(1, n + 1) if c not in key])
        return _add_to_curv(q, key, [q.patch.var(free).scale(k)]), cls
    q = su2_patch(4, 3) if family == "mut_s" else fixture_d()
    n, p = q.patch.n, q.patch.p
    if cls == "metric_skew":
        lam, mu = rng.randint(1, 3), rng.randint(0, 2)
        err = [[lam, mu, 0], [mu, -lam, 0], [0, 0, 0]]
        delta = [[cr.Poly.const(n, e) for e in row] for row in err]
        return _add_to_gamma(q, rng.randrange(1, p + 1), delta), cls
    if cls == "gamma_ad":
        ad = q.fiber.ad_matrix(_nonzero_vector(rng, n, 3))
        x = q.patch.var(1)
        # an x1 factor on Gamma_2: d_1 Gamma_2 then picks up ad(v) itself
        return _add_to_gamma(q, 2, [[e * x for e in row] for row in ad]), cls
    if cls == "curv_const":
        return _add_to_curv(q, (1, 2), _nonzero_vector(rng, n, 3)), cls
    # bianchi: a non-closed perturbation of R_12 along the third leaf direction
    x3 = q.patch.var(3)
    return _add_to_curv(q, (1, 2), [v * x3 for v in _nonzero_vector(rng, n, 3)]), cls


def _checked(q, iso):
    if not cr.validate_iso(q.patch, q.fiber, iso).ok:
        raise RuntimeError("generated isomorphism data is invalid")
    return iso


# -- writing ----------------------------------------------------------------------


def config_text(q, header: str, **blocks) -> str:
    cfg = cli.Config(q.patch, q.fiber, q.conn, q.curv, q.hform, **blocks)
    return "# %s\n%s" % (header, cli.config_to_text(cfg))


def valid_variant(family: str, index: int):
    """Member ``index`` of family c (fixture C) or s (su(2), n=4, p=3).

    Member 0 is the base data; the others are transported along a seeded
    integer isomorphism, so they are valid and keep integer coefficients.
    """
    q = fixture_c() if family == "c" else su2_patch(4, 3)
    if index == 0:
        return q
    iso = _checked(q, integer_iso(q, random.Random("%s:%d" % (family, index))))
    return cr.transport(q, iso)


def pool_files():
    """Name -> config text for every pool member."""
    files = {}
    for fam, label in (("c", "fixture C"), ("s", "su(2) on the n=4, p=3 patch")):
        for k in range(FAMILY_SIZES[fam]):
            q = valid_variant(fam, k)
            how = "base data" if k == 0 else "transported along integer isomorphism %d" % k
            files["%s_%d" % (fam, k)] = config_text(q, "%s, %s" % (label, how))
    for fam in ("mut_d", "mut_c", "mut_s"):
        for k in range(FAMILY_SIZES[fam]):
            q, cls = mutant(fam, k)
            files["%s_%d" % (fam, k)] = config_text(q, "%s mutant %d, class %s" % (fam, k, cls))
    d = fixture_d()
    for k in range(FAMILY_SIZES["iso_d"]):
        iso = _checked(d, cayley_iso(d, random.Random("iso_d:%d" % k)))
        files["iso_d_%d" % k] = config_text(d, "fixture D with Cayley isomorphism %d" % k, iso=iso)

    # forms: extra blocks for coherent/build/shift, on the first variants
    for k in range(FAMILY_SIZES["form"]):
        q = valid_variant("c", k)
        omega = cr.FForm(q.patch, 2, {(1, 3): q.patch.var(2)})
        hoist = cr.Hoist(cr.GValuedForm(q.patch, 1, 1, {(1,): [q.patch.one()]}))
        files["form_c_%d" % k] = config_text(
            q, "fixture C variant %d with omega and hoist blocks" % k, omega=omega, hoist=hoist
        )
        q = valid_variant("s", k)
        files["form_s_%d" % k] = config_text(
            q, "su(2) n=4, p=3 variant %d with its canonical 3-form" % k,
            cform=cr.standard_three_form(q),
        )
    hoist = cr.Hoist(cr.GValuedForm(d.patch, 3, 1, {(1,): [d.patch.zero(), d.patch.zero(), d.patch.one()]}))
    files["form_d_hoist"] = config_text(d, "fixture D with a constant hoist", hoist=hoist)
    files["form_d_cform"] = config_text(d, "fixture D with its canonical 3-form", cform=cr.standard_three_form(d))
    files.update(malformed_files())
    return files


def malformed_files():
    """Inputs that must end in exit 2, two of which crash the seed commit."""
    base = "[base]\nbase.n = 4\nbase.p = 4\n\n[fiber]\nfiber.dim = 1\nfiber.metric.1.1 = \"1\"\n"
    deep = "(" * 5000 + "x1" + ")" * 5000
    return {
        "bad_section": "# unknown section\n" + base + "\n[bogus]\nbogus.x = 1\n",
        "bad_poly": "# variable out of range\n" + base + "\n[hform]\nhform.H.2.3.4 = \"2*x9\"\n",
        "bad_curv_order": "# descending curvature indices\n" + base + "\n[curvature]\ncurvature.R.2.1.1 = \"1\"\n",
        "bad_deep_parens": "# polynomial nested 5000 parentheses deep\n" + base + "\n[hform]\nhform.H.2.3.4 = \"%s\"\n" % deep,
    }


def write_pool() -> None:
    os.makedirs(POOL_DIR, exist_ok=True)
    for name, text in sorted(pool_files().items()):
        with open(os.path.join(POOL_DIR, name + ".cfg"), "w", encoding="utf-8") as handle:
            handle.write(text)


def record_oracle() -> None:
    entries = {}
    for task in workloads.all_tasks():
        result = run_task(task, POOL_DIR)
        entries[task.id] = oracle.expectation(task, result, workloads.pool_text(task.config))
        print(task.id, entries[task.id]["exit"], flush=True)
    with open(oracle.ORACLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    write_pool()
    record_oracle()

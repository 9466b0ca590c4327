"""The exact route's per-grid checks give the bits of the per-point rules.

``immerse`` checks the roundoff budget once on the axis tables
(``_Primitive._within_budget``) and skips the reach rule when every
puncture lies farther than the clearance from the rectangle
(``_far_from_punctures``).  Seeded draws of in-class curves, tolerances
and rectangles, at those checks' edges, against the same calls with both
shortcuts turned off: the route, the mask and every bit of the points
agree.  ``parametric_immersion`` takes the same exact route at flat
points, checking each point's budget: at a grid's valid points it gives
``immerse``'s bits.
"""

import math

import numpy as np
import pytest

from minsurf import expr as ex
from minsurf import surface as surface_mod
from minsurf.domain import DomainSpec
from minsurf.errors import SingularPath
from minsurf.nullcurve import NullCurve, WeierstrassData, from_weierstrass
from minsurf.quadrature import integrate_segments
from minsurf.surface import immerse, parametric_immersion


def _run(c, zeta0, res, tol, block, per_point):
    """(route, patch or the ValueError's message, decisions): route is
    whether the quadrature tree ran; decisions are the results of the two
    per-grid checks, each a list, empty under ``per_point``, where both
    are forced to False."""
    trees, decisions = [], {"budget": [], "far": []}
    tree = surface_mod._tree_integrals
    within = surface_mod._Primitive._within_budget
    far = surface_mod._far_from_punctures

    def spy_tree(*args):
        trees.append(1)
        return tree(*args)

    def spy_within(self, *args):
        decisions["budget"].append(False if per_point else within(self, *args))
        return decisions["budget"][-1]

    def spy_far(*args):
        decisions["far"].append(False if per_point else far(*args))
        return decisions["far"][-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(surface_mod, "BLOCK_POINTS", block)
        m.setattr(surface_mod, "_tree_integrals", spy_tree)
        m.setattr(surface_mod._Primitive, "_within_budget", spy_within)
        m.setattr(surface_mod, "_far_from_punctures", spy_far)
        try:
            p = immerse(c, zeta0=zeta0, res=res, tol=tol)
        except ValueError as err:
            p = str(err)
    return bool(trees), p, decisions


def _same_as_per_point(c, zeta0, res, tol, block=surface_mod.BLOCK_POINTS):
    """Assert that immerse agrees bitwise with its per-point rules; return
    the route and the per-grid decisions."""
    route, p, decisions = _run(c, zeta0, res, tol, block, per_point=False)
    want_route, want, _ = _run(c, zeta0, res, tol, block, per_point=True)
    assert route == want_route
    if isinstance(want, str):
        assert p == want
    else:
        assert p.valid.tobytes() == want.valid.tobytes()
        assert p.points.tobytes() == want.points.tobytes()
        assert p.points.shape == want.points.shape
    return route, decisions


def _budget_threshold(c, zeta0, res):
    """The least tol, to a relative 2^-40, at which ``_within_budget``
    passes the grid; None when it passes none (a log z term, a bound that
    is not finite)."""
    u, v = c.domain.grid(*res)
    sample = surface_mod._primitive_sampler(c, zeta0, 1.0)
    eu, ev = sample._tables(u), sample._tables(1j * v)

    def passes(tol):
        sample.tol = tol
        return sample._within_budget(u, v, eu, ev)

    if not passes(1e300):
        return None
    lo, hi = -1100.0, math.log2(1e300)    # log2 of tols that fail and pass
    while hi - lo > 2.0 ** -40 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if passes(2.0 ** mid) else (mid, hi)
    return 2.0 ** hi


def _term(rng, negative):
    """c z^n e^{kz} as source: n in [-3, 3], negative only where k = 0."""
    c = f"({rng.normal():.3f}{rng.normal():+.3f}i)"
    if negative:
        return f"{c}/z^{rng.integers(1, 4)}"
    n = rng.integers(0, 4)
    kind = rng.integers(0, 3)    # k = 0, real k, complex k
    k = ("" if kind == 0 else f"*exp({rng.uniform(-3, 3):.3f}*z)" if kind == 1
         else f"*exp(({rng.uniform(-2, 2):.3f}{rng.uniform(-2, 2):+.3f}i)*z)")
    return f"{c}*z^{n}{k}"


def _draw(rng):
    """An in-class curve on a rectangle, a grid, a base point and a block
    size: punctures at 0 for negative powers and, in most draws, one at
    0.5, 1, 1.01 or 3 clearances from the rectangle."""
    n = int(rng.integers(3, 6))
    negative = rng.random() < 0.4
    comps = ["+".join(_term(rng, negative and rng.random() < 0.5)
                      for _ in range(rng.integers(1, 4))) for _ in range(n)]
    res = tuple(int(r) for r in rng.integers(5, 26, size=2))
    if rng.random() < 0.3:      # 0 on a grid point when res is odd
        a, b = rng.uniform(0.5, 2.5, size=2)
        rect = (-a, a, -b, b)
    else:
        u0, v0 = rng.uniform(-3, 1.5, size=2)
        w, h = rng.uniform(0.3, 3, size=2)
        rect = (u0, u0 + w, v0, v0 + h)
    du = (rect[1] - rect[0]) / (res[0] - 1)
    dv = (rect[3] - rect[2]) / (res[1] - 1)
    clearance = 1.25 * math.hypot(du, dv)
    punctures = [0j] if negative else []
    if rng.random() < 0.8:
        # off an edge or a corner, straight out of the rectangle
        d = clearance * rng.choice([0.5, 1.0, 1.01, 3.0])
        side = rng.integers(0, 4)
        t = rng.uniform(-0.2, 1.2)
        u = rect[0] + t * (rect[1] - rect[0])
        v = rect[2] + t * (rect[3] - rect[2])
        if side == 0:
            p = complex(rect[0] - d, min(max(v, rect[2]), rect[3]))
        elif side == 1:
            p = complex(rect[1] + d, min(max(v, rect[2]), rect[3]))
        elif side == 2:
            p = complex(min(max(u, rect[0]), rect[1]), rect[2] - d)
        else:
            theta = rng.uniform(0, 0.5 * math.pi)
            p = complex(rect[1] + d * math.cos(theta),
                        rect[3] + d * math.sin(theta))
        punctures.append(p)
    dom = DomainSpec(*rect, punctures=tuple(punctures),
                     branch_cut=rng.uniform(-math.pi, math.pi))
    c = NullCurve(tuple(ex.parse(s) for s in comps), dom)
    u, v = dom.grid(*res)
    zeta0 = complex(u[rng.integers(res[0])], v[rng.integers(res[1])])
    block = int(rng.choice([1, 7, 4096]))
    return c, zeta0, res, block


def test_per_grid_checks_give_the_per_point_bits():
    rng = np.random.default_rng(22)
    tally = {"fast": 0, "slow": 0, "far": 0, "near": 0, "tree": 0}
    for _ in range(120):
        c, zeta0, res, block = _draw(rng)
        tols = [10.0 ** rng.uniform(-14, -5)]
        edge = _budget_threshold(c, zeta0, res)
        if edge is not None and edge < 1:
            # just over and just under the bound's own edge
            tols += [edge * (1 + 2.0 ** -30), edge * (1 - 2.0 ** -30)]
        for tol in tols:
            tree, d = _same_as_per_point(c, zeta0, res, tol, block)
            tally["tree"] += tree
            tally["fast"] += sum(d["budget"])
            tally["slow"] += len(d["budget"]) - sum(d["budget"])
            tally["far"] += sum(d["far"])
            tally["near"] += len(d["far"]) - sum(d["far"])
    # both sides of both checks are reached, and the tree
    assert min(tally.values()) >= 5, tally


def test_parametric_immersion_gives_immerses_bits():
    # in-class draws with no real period, at tols about the grid bound's
    # edge: where immerse keeps the exact route, whether the bound or the
    # per-point check passed it, parametric_immersion at its valid points
    # gives the same bits; a flat point set, no larger than its tables,
    # takes no bound and checks each point
    rng = np.random.default_rng(27)
    tally = {"grid fast": 0, "grid slow": 0}
    within = surface_mod._Primitive._within_budget
    decisions = []

    def spy_within(self, x, y, eu, ev):
        decisions.append(within(self, x, y, eu, ev))
        return decisions[-1]

    def no_tree(*args):
        decisions.append(None)
        return np.nan

    while tally["grid fast"] + tally["grid slow"] < 40:
        c, zeta0, res, block = _draw(rng)
        if surface_mod.real_period(c).any():
            continue
        tols = [10.0 ** rng.uniform(-14, -5)]
        edge = _budget_threshold(c, zeta0, res)
        if edge is not None and edge < 1:
            tols += [edge * (1 + 2.0 ** -30), edge * (1 - 2.0 ** -30)]
        for tol in tols:
            decisions.clear()
            with pytest.MonkeyPatch.context() as m:
                m.setattr(surface_mod, "BLOCK_POINTS", block)
                m.setattr(surface_mod._Primitive, "_within_budget", spy_within)
                m.setattr(surface_mod, "_tree_integrals", no_tree)
                try:
                    p = immerse(c, zeta0=zeta0, res=res, tol=tol)
                except ValueError:
                    continue
                if None in decisions:
                    continue
                grid, = decisions
                tally[f"grid {'fast' if grid else 'slow'}"] += 1
                uu, vv = np.meshgrid(p.u, p.v, indexing="ij")
                f = parametric_immersion(c, zeta0, tol).func
                got = f(uu[p.valid], vv[p.valid])
                assert got.tobytes() == p.points[p.valid].tobytes()
                d = c.domain
                f(rng.uniform(d.u_min, d.u_max, 50),
                  rng.uniform(d.v_min, d.v_max, 50))
                assert decisions == [grid]
    assert min(tally.values()) >= 5, tally


def test_the_exact_route_agrees_with_the_tree_at_every_block_size():
    # seeded draws with and without a real period: the exact route's
    # points are within 2 tol of the quadrature tree's (primitive_form
    # forced to None), which follows the same L-paths, with the same mask;
    # a draw over its budget takes the tree on both sides and is tallied,
    # as is a compared draw whose tree has cells its first L-path misses
    # (each reached by one leg along its row).  The bits, the route and
    # the mask are those of BLOCK_POINTS 4096 at block sizes 1 and 7 too
    rng = np.random.default_rng(12)
    tally = {"periodic": 0, "aperiodic": 0, "over budget": 0, "missed": 0}
    tree_integrals, missed = surface_mod._tree_integrals, []

    def spy_tree(c, tol, zz, zeta0, j0, k0, first, valid):
        missed.append(np.any(valid & ~first))
        return tree_integrals(c, tol, zz, zeta0, j0, k0, first, valid)

    for _ in range(60):
        c, zeta0, res, _ = _draw(rng)
        tol = 10.0 ** rng.uniform(-13, -6)
        route, p, _ = _run(c, zeta0, res, tol, 4096, per_point=False)
        for block in (1, 7):
            other = _run(c, zeta0, res, tol, block, per_point=False)
            assert other[0] == route
            if isinstance(p, str):
                assert other[1] == p
            else:
                assert other[1].valid.tobytes() == p.valid.tobytes()
                assert other[1].points.tobytes() == p.points.tobytes()
        missed.clear()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(surface_mod, "primitive_form", lambda e: None)
            m.setattr(surface_mod, "_tree_integrals", spy_tree)
            _, tree, _ = _run(c, zeta0, res, tol, 4096, per_point=False)
        if isinstance(p, str):
            assert tree == p
            continue
        assert tree.valid.tobytes() == p.valid.tobytes()
        if route:
            assert tree.points.tobytes() == p.points.tobytes()
            tally["over budget"] += 1
            continue
        assert np.nanmax(np.abs(p.points - tree.points)) <= 2 * tol
        periodic = surface_mod.real_period(c).any()
        tally["periodic" if periodic else "aperiodic"] += 1
        tally["missed"] += any(missed)
    assert (tally["periodic"] >= 10 and tally["over budget"] >= 3
            and tally["missed"] >= 5), tally


def test_a_point_whose_l_paths_both_pass_through_the_pole_is_refused():
    # seeded draws with a real period: from a base point on the real axis,
    # a point on the axis beyond the puncture at 0 has both L-paths through
    # 0, and the quadrature route (primitive_form forced to None) raises
    # SingularPath there.  The exact route reads no path: it gives the
    # value on the slit domain, the integral along a path that keeps to
    # the half-plane the cut's ray does not enter, within 2 tol.  A point
    # off the axis takes the column-first path on the quadrature route,
    # and the two routes agree within 2 tol
    rng = np.random.default_rng(31)
    for _ in range(10):
        comps = [f"({rng.normal():.3f}{rng.normal():+.3f}i)/z"
                 f"+{_term(rng, False)}" for _ in range(int(rng.integers(3, 6)))]
        a, b = rng.uniform(0.5, 2.5, size=2)
        dom = DomainSpec(-a, a, -b, b, punctures=(0j,),
                         branch_cut=rng.uniform(-math.pi, math.pi))
        c = NullCurve(tuple(ex.parse(t) for t in comps), dom)
        assert surface_mod.real_period(c).any()
        zeta0 = complex(rng.choice([-1, 1]) * rng.uniform(0.2, 1) * a)
        beyond = -zeta0.real * rng.uniform(0.2, 1.5)
        off = beyond + 1j * rng.uniform(0.1, 1) * b * rng.choice([-1, 1])
        tol = 10.0 ** rng.uniform(-12, -8)
        exact = parametric_immersion(c, zeta0, tol)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(surface_mod, "primitive_form", lambda e: None)
            tree = parametric_immersion(c, zeta0, tol)
        with pytest.raises(SingularPath, match="no L-path"):
            tree(np.array([beyond]), np.array([0.0]))
        side = -math.copysign(0.5 * b, math.sin(dom.branch_cut))
        path = np.array([zeta0, zeta0 + 1j * side, beyond + 1j * side, beyond])
        legs = integrate_segments(c.components, path[:-1], path[1:], tol / 3,
                                  domain=dom)
        assert np.max(np.abs(exact(beyond, 0.0)
                             - legs.real.sum(axis=1))) <= 2 * tol
        assert np.max(np.abs(exact(off.real, off.imag)
                             - tree(off.real, off.imag))) <= 2 * tol


@pytest.mark.parametrize("tol, fast", [(1e-6, True), (1e-10, False)])
def test_the_cosh_strip_at_the_budgets_edge(tol, fast):
    # (cosh z, i sinh z, i) on [0, 13] x [-1, 1]: the terms e^{+-z}/2 reach
    # 2.2e5, so the bound passes 1e-6; at 1e-10 it fails, and the points
    # beyond u = 12.3 send the grid to the tree
    c = NullCurve((ex.parse("cosh(z)"), ex.parse("i*sinh(z)"),
                   ex.const(1j)), DomainSpec(0, 13, -1, 1))
    for res in ((41, 9), (33, 5)):
        tree, d = _same_as_per_point(c, 6.5 + 0j, res, tol, block=18)
        assert d["budget"] == [fast] and d["far"] == [True]
        assert tree is not fast


def test_mixed_powers_are_bounded_at_the_ends_not_term_by_term():
    # F = (z - 1/z, i(z + 1/z), 0): z grows toward the far end of [0.2, 2]
    # x [-1, 1], 1/z toward the near one.  The level at either end is
    # below the sum of each term's largest value, so the grid passes at
    # 1.3e-14 on the axes, as each of its points does
    dom = DomainSpec(0.2, 2, -1, 1, punctures=(0j,))
    c = NullCurve((ex.parse("1 + z^-2"), ex.parse("i*(1 - z^-2)"),
                   ex.const(0)), dom)
    tree, d = _same_as_per_point(c, 1 + 0j, (129, 129), 1.3e-14)
    assert d["budget"] == [True] and not tree


def test_a_log_term_off_zero_is_not_bounded_at_the_ends():
    # F = (i log z, log z, 0) on [-1.2, -0.8] x [0.1, 0.5]: |log z| is
    # about 3 there, by arg z, while |log r| at the grid's nearest and
    # farthest |z| on the real axis is below 0.27.  At 4e-15 the points
    # are over their budget, which those ends would pass
    dom = DomainSpec(-1.2, -0.8, 0.1, 0.5, punctures=(0j,))
    c = NullCurve((ex.parse("i/z"), ex.parse("1/z"), ex.const(0)), dom)
    tree, d = _same_as_per_point(c, -1 + 0.3j, (17, 17), 4e-15, block=7)
    assert d["budget"] == [False] and tree


@pytest.mark.parametrize("curve", ["catenoid", "periodic"])
def test_a_pole_on_a_grid_point_and_a_log_term_check_each_point(curve):
    # the catenoid's z^-1 primitive term is inf at the grid point 0; the
    # periodic curve's primitive has log z terms: both take the per-point
    # check, and keep the exact route
    dom = DomainSpec(-1.5, 1.5, -1.5, 1.5, punctures=(0j,))
    c = (from_weierstrass(WeierstrassData(ex.Z, ex.parse("1/z^2"), dom))
         if curve == "catenoid" else
         NullCurve((ex.parse("i/z"), ex.parse("1/z"), ex.const(0)), dom))
    for tol in (1e-10, 1e-6):
        tree, d = _same_as_per_point(c, 1 + 0j, (33, 33), tol, block=7)
        assert d["budget"] == [False] and d["far"] == [False] and not tree


@pytest.mark.parametrize("times, far", [(0.5, False), (1.0, False),
                                        (1.01, True), (3.0, True)])
def test_a_puncture_at_the_clearance_from_the_rectangle(times, far):
    # off the right edge, off the top edge and off the corner (1, 1), at
    # the given multiple of the clearance 1.25 hypot(du, dv)
    res = (17, 9)
    clearance = 1.25 * math.hypot(2 / 16, 2 / 8)
    d = times * clearance
    for p in (1 + d + 0.3j, 0.2 + (1 + d) * 1j,
              (1 + 1j) + d * complex(math.cos(0.4), math.sin(0.4))):
        dom = DomainSpec(-1, 1, -1, 1, punctures=(p,))
        c = NullCurve((ex.parse("exp(z)"), ex.parse("i*exp(z)"),
                       ex.const(0)), dom)
        _, dec = _same_as_per_point(c, 0j, res, 1e-10, block=7)
        assert dec["far"] == [far]
        if far:
            assert immerse(c, zeta0=0j, res=res).valid.all()


def test_a_clear_rectangle_measures_no_distance(monkeypatch):
    calls = []
    distance = DomainSpec.puncture_distance

    def counting(self, a, b=None):
        calls.append(1)
        return distance(self, a, b)

    monkeypatch.setattr(DomainSpec, "puncture_distance", counting)
    # the base point is given: the default one measures its distance from
    # the punctures, once
    for punctures in ((), (5 + 5j,)):
        dom = DomainSpec(-1, 1, -1, 1, punctures=punctures)
        c = NullCurve((ex.parse("z"), ex.parse("i*z"), ex.const(0)), dom)
        assert immerse(c, zeta0=0.5j, res=(9, 9)).valid.all()
    assert calls == []


def test_a_clear_rectangle_with_a_real_period_measures_no_distance(
        monkeypatch):
    # (i/z, 1/z, 0) has a real period; with its puncture 0 farther than
    # the clearance from [0.5, 2] x [-1, 1], immerse's one segment test
    # passes at once for the default anchor and for the L-paths alike:
    # the one distance measured is DomainSpec.default_base_point's own
    calls = []
    distance = DomainSpec.puncture_distance

    def counting(self, a, b=None):
        calls.append(1)
        return distance(self, a, b)

    monkeypatch.setattr(DomainSpec, "puncture_distance", counting)
    dom = DomainSpec(0.5, 2, -1, 1, punctures=(0j,))
    c = NullCurve((ex.parse("i/z"), ex.parse("1/z"), ex.const(0)), dom)
    assert surface_mod.real_period(c).any()
    p = immerse(c, res=(9, 9))
    assert p.valid.all() and calls == [1]


def test_with_no_base_point_immerse_anchors_where_parametric_immersion_does():
    # the draws with no base point: immerse anchors at the domain's
    # default base point itself, on or off the grid (no draw's stem from
    # it passes a puncture); and where immerse keeps the exact route,
    # with a real period or none, parametric_immersion from the same
    # default gives its bits at the valid points
    rng = np.random.default_rng(30)
    tally = {"off grid": 0, "on grid": 0, "compared": 0, "periodic": 0}
    for _ in range(60):
        c, _, res, block = _draw(rng)
        tol = 10.0 ** rng.uniform(-13, -6)
        tree, p, _ = _run(c, None, res, tol, block, per_point=False)
        z0 = c.domain.default_base_point()
        assert p.base_point == z0
        on_grid = z0.real in p.u and z0.imag in p.v
        tally["on grid" if on_grid else "off grid"] += 1
        if tree:
            continue
        uu, vv = np.meshgrid(p.u, p.v, indexing="ij")
        got = parametric_immersion(c, tol=tol)(uu[p.valid], vv[p.valid])
        assert got.tobytes() == p.points[p.valid].tobytes()
        tally["compared"] += 1
        tally["periodic"] += bool(surface_mod.real_period(c).any())
    assert tally["off grid"] >= 20 and min(tally.values()) >= 5, tally


def test_a_base_point_on_the_grid_is_exactly_zero():
    # X(zeta0) = 0 exactly when zeta0 is a grid point: each draw's base
    # point moved to a valid grid point of its default-anchored patch, on
    # the exact route and on the forced tree (primitive_form None)
    rng = np.random.default_rng(31)
    tally = {"exact": 0, "tree": 0}
    for _ in range(40):
        c, _, res, block = _draw(rng)
        tol = 10.0 ** rng.uniform(-13, -6)
        valid = immerse(c, res=res, tol=tol).valid
        j, k = np.argwhere(valid)[rng.integers(np.count_nonzero(valid))]
        u, v = c.domain.grid(*res)
        zeta0 = complex(u[j], v[k])
        for forced in (False, True):
            with pytest.MonkeyPatch.context() as m:
                if forced:
                    m.setattr(surface_mod, "primitive_form", lambda e: None)
                tree, p, _ = _run(c, zeta0, res, tol, block, per_point=False)
            assert p.base_point == zeta0 and p.valid[j, k]
            assert np.all(p.points[j, k] == 0)
            tally["tree" if tree else "exact"] += 1
    assert min(tally.values()) >= 20, tally

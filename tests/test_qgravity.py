"""Metric functional integrals: quadrature, MC oracle, uvw theory, sweeps."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fuzzyqrg import qgravity
from fuzzyqrg.geometry import curvature, qlc
from fuzzyqrg.qgravity import (
    QGConfig, action_matrix, eigen_weight, quad_form, uvw_map, uvw_inverse,
    quad_form_uvw, moments, moment_set, mc_matrix_oracle,
    partial_zu_integrand, partial_Zu, sweep, SweepResult, SWEEP_SCHEMA,
    _axis_rules, _ordered_sector_sums, _panel_order, _ref_panel, _zu_value)

FAST = dict(G=1.0, eps=0.1, L=3.0, resolution=32, samples=20_000, seed=5)
# the frozen deep-cutoff point of the acceptance suite and the README
REGIME = dict(G=1.5625, eps=6.236294250248896e-30, L=10.0)


def test_config_validation():
    with pytest.raises(ValueError, match="G must be positive"):
        QGConfig(G=0.0)
    with pytest.raises(ValueError, match="eps < L"):
        QGConfig(eps=2.0, L=1.0)
    with pytest.raises(ValueError, match="eps < L"):
        QGConfig(eps=-0.1)
    with pytest.raises(ValueError, match="resolution"):
        QGConfig(resolution=8)
    with pytest.raises(ValueError, match="resolution"):
        QGConfig(resolution=32.0)
    with pytest.raises(ValueError, match="sample count"):
        QGConfig(samples=0)
    for bad in (dict(G=math.inf), dict(L=math.inf), dict(eps=math.nan),
                dict(G=math.nan, L=math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            QGConfig(**bad)


def test_action_matrix_identity():
    g = [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(1)]]
    assert action_matrix(g) == Fraction(-3, 4)


def test_action_matrix_diagonal():
    assert action_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]) == -0.5


def test_action_matrix_offdiagonal_hand_value():
    # det = 4, Tr g = 6, Tr g^2 = 16: (16 - 18) / 8 = -1/4
    g = [[Fraction(1), 0, Fraction(1)],
         [0, Fraction(2), 0],
         [Fraction(1), 0, Fraction(3)]]
    assert action_matrix(g) == Fraction(-1, 4)


def test_action_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="not symmetric"):
        action_matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="not invertible"):
        action_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="3x3"):
        action_matrix([[1, 0], [0, 1]])


_rational = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@settings(max_examples=40, deadline=None)
@given(st.lists(_rational, min_size=6, max_size=6))
def test_action_matrix_is_qlc_scalar_curvature(e):
    a, b, c, p, q, r = e
    g = [[a, p, q], [p, b, r], [q, r, c]]
    assume(a * (b * c - r * r) - p * (p * c - r * q) + q * (p * r - b * q))
    assert action_matrix(g) == curvature(qlc(g)).scalar


def test_quad_form_reference_point():
    assert quad_form(1, 2, 3) == -8
    assert quad_form(Fraction(1), Fraction(1), Fraction(1)) == Fraction(-3)


def test_eigen_weight_values():
    assert math.isclose(eigen_weight(1.0, 2.0, 3.0, 1.0),
                        math.exp(4.0) / 18.0, rel_tol=1e-14)
    assert eigen_weight(2.0, 2.0, 3.0, 1.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
       st.floats(0.5, 10.0))
def test_eigen_weight_permutation_invariant(lams, G):
    want = eigen_weight(*lams, G)
    for perm in itertools.permutations(lams):
        assert math.isclose(eigen_weight(*perm, G), want, rel_tol=1e-11)


def test_uvw_reference_point():
    u, v, w = uvw_map(Fraction(1), Fraction(2), Fraction(3))
    assert (u, v, w) == (Fraction(2), Fraction(1, 2), Fraction(1, 2))
    a = Fraction(5, 7)
    assert uvw_map(a, a, a) == (a, 0, 0)


def test_uvw_round_trip_exact():
    rng = random.Random(9)
    for _ in range(50):
        lams = sorted(Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                      for _ in range(3))
        assert uvw_inverse(*uvw_map(*lams)) == tuple(lams)
        assert quad_form(*lams) == quad_form_uvw(*uvw_map(*lams))


def test_quad_form_uvw_reference_point():
    assert quad_form_uvw(Fraction(2), Fraction(1, 2), Fraction(1, 2)) == -8


@pytest.mark.parametrize("bad, msg", [
    (dict(samples=2.5), "sample count"), (dict(samples=1e5), "sample count"),
    (dict(seed=-1), "seed"), (dict(seed=1.5), "seed")])
def test_config_rejects_bad_sampling_parameters(bad, msg):
    with pytest.raises(ValueError, match=msg):
        QGConfig(**bad)


@pytest.mark.parametrize("L", [1e103, 1e150, 1e200])
def test_moment_set_rejects_moments_outside_double_range(recwarn, L):
    # 1e103 and 1e150 gave inf or nan moments; 1e200 raised OverflowError
    cfg = QGConfig(L=L, resolution=16)
    with pytest.raises(ValueError, match="left the double range"):
        moment_set(cfg, [(1,), (1, 2, 3)])
    assert not recwarn.list


def test_moment_spec_validation():
    cfg = QGConfig(**FAST)
    with pytest.raises(ValueError, match="indices must be"):
        moments(cfg, (0,))
    with pytest.raises(ValueError, match="indices must be"):
        moments(cfg, (4,))


def test_ordered_sector_rows_match_node_loop():
    # reference: one node at a time, unshifted weights, plain Python sums
    G, eps, L, n = 1.0, 0.1, 3.0, 16
    exps_list = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, -1, -1)]
    terms = [sorted(set(itertools.permutations(e))) for e in exps_list]
    s0, nums = _ordered_sector_sums(G, eps, L, n, exps_list)
    a, w_top, order = math.log(eps), G / (2.0 * L * L), _panel_order(n)
    ref = [0.0] * (1 + len(terms))
    for m3, wt3 in zip(*_axis_rules(a, math.log(L), 1.0, w_top, order)[:2]):
        for m2, wt2 in zip(*_axis_rules(a, m3, 1.0, w_top, order)[:2]):
            for m1, wt1 in zip(*_axis_rules(a, m2, 1.0, w_top, order)[:2]):
                lam = (math.exp(m1), math.exp(m2), math.exp(m3))
                f = wt3 * wt2 * wt1 * eigen_weight(*lam, G) * math.prod(lam)
                ref[0] += f
                for i, perms in enumerate(terms, 1):
                    ref[i] += f * sum(math.prod(map(pow, lam, p))
                                      for p in perms) / len(perms)
    for exps, num, want in zip(exps_list, nums, ref[1:]):
        assert math.isclose(num / s0, want / ref[0], rel_tol=1e-12), exps


def test_moments_permutation_symmetric():
    cfg = QGConfig(**FAST)
    est = moment_set(cfg, [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3),
                           (1, 1, 2), (2, 2, 3)])
    assert est[(1,)].value == est[(2,)].value == est[(3,)].value
    assert est[(1, 2)].value == est[(2, 3)].value == est[(1, 3)].value
    assert est[(1, 1, 2)].value == est[(2, 2, 3)].value


def test_moments_deterministic():
    cfg = QGConfig(**FAST)
    a = moments(cfg, (1,))
    b = moments(cfg, (1,))
    assert a == b


def test_moments_resolution_halving_is_error_estimate():
    cfg = QGConfig(**FAST)
    half = QGConfig(**{**FAST, "resolution": FAST["resolution"] // 2})
    a = moments(cfg, (1,))
    b = moments(half, (1,))
    assert a.error == abs(a.value - b.value)


def test_half_rule_is_strictly_coarser():
    for n in range(16, 257):
        assert _panel_order(n // 2) < _panel_order(n)


@pytest.mark.parametrize("n", [16, 17])
def test_error_nonzero_at_smallest_resolutions(n):
    cfg = QGConfig(G=1.0, eps=0.1, L=3.0, resolution=n)
    assert moment_set(cfg, [(1,)])[(1,)].error > 0
    assert partial_Zu(2.0, 1.0, resolution=n).error > 0


def test_moments_resolution_doubling_stable():
    cfg = QGConfig(**FAST)
    dbl = QGConfig(**{**FAST, "resolution": 2 * FAST["resolution"]})
    a = moments(cfg, (1,))
    b = moments(dbl, (1,))
    assert abs(a.value - b.value) <= max(a.error, 1e-9)


def test_moments_plausible_range():
    cfg = QGConfig(**FAST)
    m1 = moments(cfg, (1,))
    assert cfg.eps < m1.value < cfg.L


def test_moments_finite_where_the_gap_product_underflows():
    # (lam2 - lam1)(lam3 - lam1) underflows near eps = 1e-200, so the
    # kernel adds the two logs; their product's log raised ValueError here
    cfg = QGConfig(G=REGIME["G"], eps=1e-200, L=REGIME["L"], resolution=16)
    m1 = moments(cfg, (1,))
    assert cfg.eps < m1.value < cfg.L


def test_mc_deterministic_seed_sensitive():
    cfg = QGConfig(**FAST)
    a = mc_matrix_oracle(cfg, lambda g: np.trace(g))
    b = mc_matrix_oracle(cfg, lambda g: np.trace(g))
    assert a == b
    other = QGConfig(**{**FAST, "seed": FAST["seed"] + 1})
    c = mc_matrix_oracle(other, lambda g: np.trace(g))
    assert a.value != c.value
    assert 0 < a.n_accepted <= a.n_total == cfg.samples


def test_mc_zero_acceptance_raises():
    # a spectrum window of width 1e-9 admits no N(0, G/4) off-diagonal
    cfg = QGConfig(G=1.0, eps=1.0, L=1.0 + 1e-9, samples=4, seed=1)
    with pytest.raises(RuntimeError, match="no Monte Carlo samples"):
        mc_matrix_oracle(cfg, lambda g: 1.0)


def test_mc_large_action_no_overflow():
    # exp(L^2 / G) alone would overflow; log-shifted weights must not
    cfg = QGConfig(G=1.0, eps=50.0, L=100.0, samples=2048, seed=0)
    with np.errstate(over="raise"):
        est = mc_matrix_oracle(cfg, lambda g: np.trace(g))
    assert math.isfinite(est.value) and math.isfinite(est.stderr)


def test_spectrum_test_matches_eigenvalues():
    rng = np.random.default_rng(7)
    d = rng.uniform(0.1, 3.0, size=(3, 4000))
    o = rng.normal(0.0, 0.5, size=(3, 4000))
    gs = np.stack([d[0], o[0], o[1], o[0], d[1], o[2], o[1], o[2], d[2]],
                  axis=-1).reshape(-1, 3, 3)
    lam = np.linalg.eigvalsh(gs)
    want = (lam[:, 0] > 0.1) & (lam[:, -1] < 3.0)
    assert 0 < want.sum() < len(want)
    assert np.array_equal(qgravity._spectrum_within(d, o, 0.1, 3.0), want)
    np.testing.assert_allclose(qgravity._det3(d, o), np.linalg.det(gs),
                               rtol=1e-12, atol=1e-12)


def test_mc_observable_sees_accepted_matrices():
    cfg = QGConfig(G=1.0, eps=0.1, L=3.0, samples=3000, seed=4)
    seen = []
    est = mc_matrix_oracle(cfg, lambda g: seen.append(g.copy()) or 1.0)
    assert len(seen) == est.n_accepted > 0
    gs = np.array(seen)
    assert np.array_equal(gs, np.transpose(gs, (0, 2, 1)))
    lam = np.linalg.eigvalsh(gs)
    assert lam.min() > cfg.eps and lam.max() < cfg.L
    assert est.value == 1.0 and est.stderr == 0.0


def test_mc_stderr_shift_invariant_and_ess():
    cfg = QGConfig(G=1.0, eps=0.1, L=3.0, samples=50_000, seed=3)
    base = mc_matrix_oracle(cfg, lambda g: np.trace(g))
    moved = mc_matrix_oracle(cfg, lambda g: 1e8 + np.trace(g))
    assert moved.stderr == pytest.approx(base.stderr, rel=1e-6)
    assert moved.value - 1e8 == pytest.approx(base.value, rel=1e-7)
    assert 1 <= base.ess <= base.n_accepted
    assert moved.ess == base.ess


@pytest.mark.parametrize("L", [3.0, 6.0])
def test_mc_calibrated_against_quadrature(L):
    # the 3 sigma band is honest: z scores have rms near 1 over seeds
    quad = moment_set(QGConfig(G=1.0, eps=0.1, L=L), [(1,)])[(1,)]
    zs = []
    for seed in range(40):
        cfg = QGConfig(G=1.0, eps=0.1, L=L, samples=20_000, seed=seed)
        est = mc_matrix_oracle(cfg, np.trace)
        zs.append((est.value - 3 * quad.value) / est.stderr)
    assert 0.5 <= math.sqrt(np.mean(np.square(zs))) <= 1.6


def test_dual_integrators_agree():
    cfg = QGConfig(G=1.0, eps=0.1, L=3.0, resolution=32,
                   samples=50_000, seed=2)
    quad = moment_set(cfg, [(1,), (1, 2, 3), (1, 1)])
    pairs = [
        (3 * quad[(1,)].value, 3 * quad[(1,)].error,
         mc_matrix_oracle(cfg, lambda g: np.trace(g))),
        (quad[(1, 2, 3)].value, quad[(1, 2, 3)].error,
         mc_matrix_oracle(cfg, lambda g: np.linalg.det(g))),
        (3 * quad[(1, 1)].value, 3 * quad[(1, 1)].error,
         mc_matrix_oracle(cfg, lambda g: np.trace(g @ g))),
    ]
    for qv, qe, mc in pairs:
        sigma = math.sqrt(mc.stderr ** 2 + qe ** 2)
        assert abs(qv - mc.value) < 6 * sigma


def test_partial_zu_integrand_spot_value():
    for u, G in [(2.0, 1.0), (1.0, 0.5), (3.0, 2.0)]:
        got = partial_zu_integrand(u, 0.0, u / 2, G)
        want = 2.0 / (9 * u ** 3) * math.exp(-u * u / (2 * G))
        assert math.isclose(got, want, rel_tol=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.5, 5.0), st.floats(0.1, 5.0),
       st.lists(st.tuples(st.floats(-0.9, 0.45), st.floats(0.0, 0.99)),
                min_size=1, max_size=20))
def test_partial_zu_integrand_array_matches_scalar(u, G, fracs):
    vs = [v_frac * u for v_frac, _ in fracs]
    for v_arg, v_list in ((np.array(vs), vs), (vs[0], [vs[0]] * len(vs))):
        ws = [w_frac * (u + v) for v, (_, w_frac) in zip(v_list, fracs)]
        got = partial_zu_integrand(u, v_arg, np.array(ws), G)
        assert list(got) == [partial_zu_integrand(u, v, w, G)
                             for v, w in zip(v_list, ws)]


def test_partial_zu_validation():
    with pytest.raises(ValueError, match="u must be positive"):
        partial_Zu(0.0, 1.0)
    with pytest.raises(ValueError, match="G must be positive"):
        partial_Zu(1.0, -1.0)
    with pytest.raises(ValueError, match="G must be positive and finite"):
        partial_Zu(2.0, math.inf)
    with pytest.raises(ValueError, match="margin must be positive"):
        partial_Zu(1.0, 1.0, margin=0.0)
    for bad in (0, -5, 15, 32.0, "32"):
        with pytest.raises(ValueError, match="resolution"):
            partial_Zu(2.0, 1.0, resolution=bad)


def test_partial_zu_converges_under_doubling():
    a = partial_Zu(2.0, 1.0, resolution=64)
    b = partial_Zu(2.0, 1.0, resolution=128)
    assert a.margin == 1e-4
    assert abs(a.value - b.value) / b.value < 0.01
    assert a.error == pytest.approx(abs(a.value - partial_Zu(
        2.0, 1.0, resolution=32).value))


def test_partial_zu_monotone_in_inverse_coupling():
    vals = [partial_Zu(2.0, G, resolution=64).value
            for G in (4.0, 2.0, 1.0, 0.5, 0.25)]
    assert all(v > 0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sweep_csv_schema_and_determinism():
    cfg = QGConfig(G=1.0, eps=0.1, L=3.0, resolution=24)
    res = sweep(cfg, [2.0, 3.0], specs=[(1,), (1, 2)])
    text = res.to_csv()
    again = sweep(cfg, [2.0, 3.0], specs=[(1,), (1, 2)]).to_csv()
    assert text == again
    # the header lines, then two L values times two specs
    assert len(text.splitlines()) == 3 + 4


def test_sweep_json_round_trip():
    cfg = QGConfig(G=1.0, eps=0.1, L=3.0, resolution=24)
    res = sweep(cfg, [2.0, 3.0])
    doc = json.loads(res.to_json())
    assert doc["schema"] == SWEEP_SCHEMA
    assert len(doc["rows"]) == 2
    row = doc["rows"][0]
    assert row["moment_spec"] == "1"
    assert row["L"] == 2.0
    assert row["ratio_16over3"] > 0
    assert row["uncertainty"] >= 0
    assert doc["eps_stability"]["eps_half"] == pytest.approx(0.05)
    assert doc["eps_stability"]["rel_change"] >= 0


def test_sweep_result_text_is_pinned():
    row = dict(L=2.0, G=1.0, eps=0.1, moment_spec="1,2", estimate=1 / 3,
               error=2.5e-17, ratio_16over3=1.1, uncertainty=None)
    report = dict(L=2.0, eps=0.1, eps_half=0.05, mean_lambda=1 / 3,
                  mean_lambda_half=0.3, rel_change=0.1)
    res = SweepResult(SWEEP_SCHEMA, (row,), report)
    assert res.to_csv() == (
        "# schema=fuzzyqrg.sweep.v1\n# eps_stability: L=2.0 eps=0.1"
        " eps_half=0.05 mean_lambda=0.3333333333333333 mean_lambda_half=0.3"
        " rel_change=0.1\n"
        "L,G,eps,moment_spec,estimate,error,ratio_16over3,uncertainty\n"
        '2.0,1.0,0.1,"1,2",0.3333333333333333,2.5e-17,1.1,\n')
    assert res.to_json() == (
        '{\n  "schema": "fuzzyqrg.sweep.v1",\n  "rows": [\n    {\n'
        '      "L": 2.0,\n      "G": 1.0,\n      "eps": 0.1,\n'
        '      "moment_spec": "1,2",\n'
        '      "estimate": 0.3333333333333333,\n      "error": 2.5e-17,\n'
        '      "ratio_16over3": 1.1,\n      "uncertainty": null\n    }\n'
        '  ],\n  "eps_stability": {\n    "L": 2.0,\n    "eps": 0.1,\n'
        '    "eps_half": 0.05,\n    "mean_lambda": 0.3333333333333333,\n'
        '    "mean_lambda_half": 0.3,\n    "rel_change": 0.1\n  }\n}\n')


def test_sweep_rejects_an_empty_cutoff_list():
    with pytest.raises(ValueError, match="at least one cutoff L"):
        sweep(QGConfig(G=1.0, eps=0.1, L=3.0, resolution=16), [])


def test_sweep_rows_match_direct_moments():
    cfg = QGConfig(G=1.0, eps=0.1, L=3.0, resolution=24)
    res = sweep(cfg, [3.0])
    direct = moments(cfg, (1,))
    assert res.rows[0]["estimate"] == direct.value
    assert res.rows[0]["error"] == direct.error


def test_sweep_one_pass_per_cutoff(monkeypatch):
    cfg = QGConfig(G=1.0, eps=0.1, L=3.0, resolution=24)
    L_values = [3.0, 2.0]
    calls = []
    real = qgravity.moment_set

    def counting(c, specs):
        calls.append(c)
        return real(c, specs)

    monkeypatch.setattr(qgravity, "moment_set", counting)
    res = sweep(cfg, L_values)
    assert len(calls) == len(L_values) + 1
    row = next(r for r in res.rows if r["L"] == max(L_values))
    assert res.eps_report["mean_lambda"] == row["estimate"]


def test_partial_zu_rejects_infinite_u():
    with pytest.raises(ValueError, match="u must be positive and finite"):
        partial_Zu(math.inf, 1.0, resolution=16)


@pytest.mark.parametrize("u", [1e3, 1e300])
def test_partial_zu_rejects_result_outside_double_range(u):
    # the true value underflows (1e3) or the integrand overflows (1e300);
    # it used to come back as a fake 0.0 +- 0.0 or as nan +- nan
    with pytest.raises(ValueError, match="left the double range"):
        partial_Zu(u, 1.0)


def test_partial_zu_tiny_value_still_returned():
    z = partial_Zu(100.0, 1.0, resolution=32)
    assert 0 < z.value < 1e-15 and math.isfinite(z.error)


@pytest.mark.parametrize("margin", [0.5, 0.6, 1.0])
def test_partial_zu_rejects_margin_from_one_half(margin):
    # the v range [-u + 1.5 margin u, u/2 - 1.5 margin u] is empty there
    with pytest.raises(ValueError, match="margin"):
        partial_Zu(2.0, 1.0, resolution=16, margin=margin)


# -- the graded rule against the scalar one-interval-at-a-time reference ----


def _ref_graded_edges(a, b, w_bot, w_top):
    mid = 0.5 * (a + b)
    lo, x, w = [a], a, w_bot
    while x + w < mid:
        x += w
        lo.append(x)
        w *= 2.0
    hi, x, w = [b], b, w_top
    while x - w > mid:
        x -= w
        hi.append(x)
        w *= 2.0
    return np.array(sorted(set(lo) | set(hi)))


def _ref_axis_nodes(a, b, w_bot, w_top, order):
    span = b - a
    edges = _ref_graded_edges(a, b, min(w_bot, span / 4),
                              min(w_top, span / 4))
    x, w = _ref_panel(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = edges[:-1, None] + half[:, None] * (x + 1.0)
    weights = half[:, None] * np.broadcast_to(w, (len(half), order))
    return nodes.ravel(), weights.ravel()


def _ref_rules(intervals, order):
    """Concatenated nodes, weights and counts of (a, b, w_bot, w_top)."""
    rules = [_ref_axis_nodes(*iv, order) for iv in intervals]
    return (np.concatenate([x for x, _ in rules]),
            np.concatenate([w for _, w in rules]),
            np.array([len(x) for x, _ in rules]))


def _assert_rules_equal(got, want):
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("G, eps, L, n", [
    (REGIME["G"], REGIME["eps"], REGIME["L"], 24),
    (1.0, 0.1, 3.0, 16),
    (1.0, 1e-3, 30000.0, 17),   # the 1e-7 floor on w_top binds
])
def test_axis_rules_match_reference_on_every_sector_row(G, eps, L, n):
    a, b = math.log(eps), math.log(L)
    w_top, order = max(G / (2.0 * L * L), 1e-7), _panel_order(n)
    mu3, w3 = _ref_axis_nodes(a, b, 1.0, w_top, order)
    _assert_rules_equal(_axis_rules(a, b, 1.0, w_top, order)[:2], (mu3, w3))
    # the kernel makes one call for the lam2 rules of all rows, and one per
    # row for its lam1 rules
    rows = [_ref_axis_nodes(a, m3, 1.0, w_top, order)[0] for m3 in mu3]
    for ends in [mu3, *rows]:
        _assert_rules_equal(
            _axis_rules(a, ends, 1.0, w_top, order),
            _ref_rules([(a, e, 1.0, w_top) for e in ends], order))


@pytest.mark.parametrize("G", [4.0, 1.0, 0.25])
@pytest.mark.parametrize("margin", [1e-4, 1e-2])
def test_zu_segments_match_reference(monkeypatch, G, margin):
    calls = []

    def recording(*args):
        out = _axis_rules(*args)
        calls.append([a.copy() for a in out])   # _zu_value scales weights
        return out

    monkeypatch.setattr(qgravity, "_axis_rules", recording)
    # u = 100 gives a tiny value, about 1.2e-17 at G = 1
    for u, n in [(2.0, 16), (2.0, 32), (2.0, 64), (100.0, 32)]:
        calls.clear()
        value = _zu_value(u, G, n, margin)
        order, dv = _panel_order(n), margin * 1.5 * u
        v_nodes, v_wts = _ref_axis_nodes(-u + dv, u / 2 - dv, u / 2, dv,
                                         order)
        assert len(calls) == 1 + len(v_nodes) // order   # v axis, panels
        _assert_rules_equal(calls[0][:2], (v_nodes, v_wts))
        rows = []
        for p, call in enumerate(calls[1:]):
            panel = slice(p * order, (p + 1) * order)
            segments, seg_v = [], []
            for v, wv in zip(v_nodes[panel], v_wts[panel]):
                w_hi, kink = (u + v) * (1.0 - margin), 3 * abs(v)
                cuts = [0.0, kink, w_hi] if 0 < kink < w_hi else [0.0, w_hi]
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    w_top = margin * (u + v) if hi == w_hi else (hi - lo) / 4
                    segments.append((lo, hi, (hi - lo) / 4, w_top))
                    seg_v.append((v, wv))
            w_nodes, w_wts, counts = _ref_rules(segments, order)
            # one row per v node; its empty [0, 0] interval has no panels
            _assert_rules_equal((call[0], call[1], call[2][call[2] > 0]),
                                (w_nodes, w_wts, counts))
            v, wv = np.repeat(np.array(seg_v).T, counts, axis=1)
            rows.append(float(np.sum(
                wv * w_wts * partial_zu_integrand(u, v, w_nodes, G))))
        assert value == 4.0 * math.fsum(rows), (u, n)


# -- the sector kernel against the lambda-coordinate one it replaced ---------


def _ref_sector_sums(G, eps, L, n, exps_list):
    """The lambda-coordinate kernel: six logs per node (log_eigen_weight
    plus the Jacobian), log(lam3 - lam2) per lam1 node and one ``**``
    pass per permutation."""
    a, b = math.log(eps), math.log(L)
    w_top = max(G / (2.0 * L * L), 1e-7)
    order = _panel_order(n)
    terms = [sorted(set(itertools.permutations(e))) for e in exps_list]
    mu3, w3, _ = _axis_rules(a, b, 1.0, w_top, order)
    shifts, rows = [], []
    for m3, wt3 in zip(mu3, w3):
        mu2, w2, _ = _axis_rules(a, m3, 1.0, w_top, order)
        mu1, w1, counts = _axis_rules(a, mu2, 1.0, w_top, order)
        mu2, w2 = np.repeat(mu2, counts), np.repeat(w2, counts)
        l1, l2, l3 = np.exp(mu1), np.exp(mu2), math.exp(m3)
        logf = (np.log(np.abs(l1 - l2)) + np.log(np.abs(l1 - l3))
                + np.log(np.abs(l2 - l3))
                - 2.0 * (np.log(np.abs(l1)) + np.log(np.abs(l2))
                         + np.log(np.abs(l3)))
                - (l1 * l1 + l2 * l2 + l3 * l3
                   - 2 * (l1 * l2 + l1 * l3 + l2 * l3)) / (2.0 * G)
                + (mu1 + mu2 + m3))
        shift = float(np.max(logf))
        base = wt3 * w2 * w1 * np.exp(logf - shift)
        sums = [float(np.sum(base))]
        for perms in terms:
            acc = np.zeros_like(base)
            for (e1, e2, e3) in perms:
                acc += base * (l1 ** e1) * (l2 ** e2) * (l3 ** e3)
            sums.append(float(np.sum(acc)) / len(perms))
        shifts.append(shift)
        rows.append(sums)
    top = max(shifts)
    scales = [math.exp(s - top) for s in shifts]
    totals = [math.fsum(f * sums[i] for f, sums in zip(scales, rows))
              for i in range(len(terms) + 1)]
    return totals[0], totals[1:]


# every spec of degree <= 3
SPECS_TO_DEGREE_3 = [spec for k in range(4) for spec in
                     itertools.combinations_with_replacement((1, 2, 3), k)]
FROZEN = tuple(REGIME.values())


@pytest.mark.parametrize("G, eps, L, n", [
    (*FROZEN, 16), (*FROZEN, 24), (1.0, 0.1, 3.0, 16), (4.0, 0.1, 3.0, 24),
    (1.0, 1e-3, 30.0, 24), (100.0, 0.01, 10.0, 16)])
def test_sector_sums_match_reference_kernel(G, eps, L, n):
    exps_list = [qgravity._spec_exponents(s) for s in SPECS_TO_DEGREE_3]
    # the curvature triples.  At the frozen r16 point the reference's
    # -2 sum log lam + sum mu loses 1.2e-14 on (1, -1, -1), which weights
    # the pinned phase by lam1^-2; the mu-weight is off by 1.1e-16 there
    # (both against an extended-precision sum over the same nodes)
    if (G, eps, L, n) != (*FROZEN, 16):
        exps_list += [(-1, 0, 0), (1, -1, -1)]
    s0, nums = _ordered_sector_sums(G, eps, L, n, exps_list)
    r0, refs = _ref_sector_sums(G, eps, L, n, exps_list)
    for exps, num, ref in zip(exps_list, nums, refs):
        assert math.isclose(num / s0, ref / r0, rel_tol=1e-14), exps


def _longdouble_sector_moments(G, eps, L, n, exps_list):
    """Moments over the kernel's nodes in np.longdouble: the weight as
    |Delta| / (lam1 lam2 lam3) exp(-Q / 2G), with Q the sum of squares
    minus twice the pairwise products, and no shifts."""
    ld = np.longdouble
    a, b = math.log(eps), math.log(L)
    w_top, order = max(G / (2.0 * L * L), 1e-7), _panel_order(n)
    terms = [sorted(set(itertools.permutations(e))) for e in exps_list]
    sums = [ld(0)] * (1 + len(terms))
    for m3, wt3 in zip(*_axis_rules(a, b, 1.0, w_top, order)[:2]):
        mu2, w2, _ = _axis_rules(a, m3, 1.0, w_top, order)
        mu1, w1, counts = _axis_rules(a, mu2, 1.0, w_top, order)
        lam = (np.exp(mu1.astype(ld)),
               np.repeat(np.exp(mu2.astype(ld)), counts), np.exp(ld(m3)))
        l1, l2, l3 = lam
        q = l1 * l1 + l2 * l2 + l3 * l3 - 2 * (l1 * l2 + l1 * l3 + l2 * l3)
        f = (ld(wt3) * np.repeat(w2, counts).astype(ld) * w1.astype(ld)
             * (l2 - l1) * (l3 - l1) * (l3 - l2) / (l1 * l2 * l3)
             * np.exp(-q / (2 * ld(G))))
        sums[0] += np.sum(f)
        pw = {(k, e): lam[k] ** e for k, e in
              {(k, p[k]) for perms in terms for p in perms for k in range(3)}}
        for i, perms in enumerate(terms, 1):
            sums[i] += np.sum(f * sum(pw[0, p1] * pw[1, p2] * pw[2, p3]
                                      for p1, p2, p3 in perms)) / len(perms)
    return [x / sums[0] for x in sums[1:]]


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="np.longdouble is no wider than a double here")
@pytest.mark.parametrize("G, eps, L, n", [
    (*FROZEN, 16), (*FROZEN, 24), (1.0, 0.1, 3.0, 16)])
def test_sector_sums_match_extended_precision(G, eps, L, n):
    exps_list = [qgravity._spec_exponents(s)
                 for s in [(1,), (1, 1), (1, 2), (1, 2, 3)]] + [(1, -1, -1)]
    s0, nums = _ordered_sector_sums(G, eps, L, n, exps_list)
    refs = _longdouble_sector_moments(G, eps, L, n, exps_list)
    for exps, num, ref in zip(exps_list, nums, refs):
        assert abs(np.longdouble(num / s0) - ref) <= 1e-14 * ref, exps


# -- quadrature values pinned bit for bit ------------------------------------


# NumPy's AVX-512 (X86_V4) loops and its AVX2 or baseline loops round
# exp and log differently, so the bits hold per host and SIMD target
# (NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" selects AVX2).
GOLDEN_MOMENT_BITS = {
    "avx512": {
        (1,): ("0x1.6aaf4e0fbe1c5p+0", "0x1.db46ad9b08000p-15"),
        (1, 2): ("0x1.562c4c506b99bp+3", "0x1.183a187484000p-11"),
        (1, 1): ("0x1.66cf4f2d4e406p+3", "0x1.4ff0e81678000p-11"),
    },
    "avx2": {
        (1,): ("0x1.6aaf4e0fbe1c6p+0", "0x1.db46ad9b18000p-15"),
        (1, 2): ("0x1.562c4c506b99ep+3", "0x1.183a187484000p-11"),
        (1, 1): ("0x1.66cf4f2d4e40ap+3", "0x1.4ff0e81674000p-11"),
    },
}


def test_moment_set_golden_bits():
    est = moment_set(QGConfig(resolution=16, **REGIME),
                     [(1,), (1, 2), (1, 1)])
    got = {k: (m.value.hex(), m.error.hex()) for k, m in est.items()}
    assert got in GOLDEN_MOMENT_BITS.values()


@pytest.mark.parametrize("G, value, error", [
    (4.0, "0x1.17524419553c0p+13", "0x1.3f4b260b404dap+12"),
    (1.0, "0x1.2ce1bb2132eacp+1", "0x1.0dd100288a400p-7"),
])
def test_partial_zu_golden_bits(G, value, error):
    z = partial_Zu(2.0, G, resolution=32)
    assert (z.value.hex(), z.error.hex()) == (value, error)

"""Euclidean functional integrals over 3x3 metrics.

The partition function integrates over the cone of positive symmetric
matrices with measure |det g|^{-2} dg and action weight
exp(-(1/G)(Tr g^2 - (1/2)(Tr g)^2)).  In eigenvalue coordinates the
weight becomes

    |Delta(lam)| / (lam1 lam2 lam3)^2 * exp(-Q / 2G),
    Q = sum lam_i^2 - 2 sum_{i<j} lam_i lam_j,

with Delta the Vandermonde factor, integrated over [eps, L]^3.  Moments
are computed two independent ways: deterministic quadrature in eigenvalue
coordinates, and importance-sampled Monte Carlo over matrix entries.
The (u, v, w) change of variables diagonalizes Q to -3u^2 + 12v^2 + 4w^2
and yields the fluctuation integral Z_u at fixed mean eigenvalue u.

Each formula is written once: ``_quad`` is Q (``quad_form``,
``log_eigen_weight`` and the quadrature kernel call it), ``_log_weight``
the eigenvalue weight, ``partial_zu_integrand`` the Z_u integrand and
``action_matrix`` ``geometry.scalar_closed_form``.  The Monte Carlo oracle
keeps its own matrix-coordinate log-weight so that it stays an
independent check of the quadrature.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .geometry import scalar_closed_form as action_matrix

__all__ = [
    "QGConfig", "MomentEstimate", "MCEstimate", "PartialZu", "SweepResult",
    "action_matrix", "log_eigen_weight", "eigen_weight", "moments",
    "moment_set", "mc_matrix_oracle", "uvw_map", "uvw_inverse", "quad_form",
    "quad_form_uvw", "partial_zu_integrand", "partial_Zu", "sweep",
]

SWEEP_SCHEMA = "fuzzyqrg.sweep.v1"


def _check_resolution(n):
    if not isinstance(n, numbers.Integral) or n < 16:
        raise ValueError("resolution must be an integer of at least 16 "
                         "per axis")


@dataclass(frozen=True)
class QGConfig:
    """Cutoffs, coupling and sampling parameters for the metric integrals."""

    G: float = 1.0
    eps: float = 0.01
    L: float = 10.0
    resolution: int = 48
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.G, self.eps, self.L))):
            raise ValueError("G, eps and L must be finite")
        if not self.G > 0:
            raise ValueError("coupling G must be positive")
        if not 0 < self.eps < self.L:
            raise ValueError("cutoffs must satisfy 0 < eps < L")
        _check_resolution(self.resolution)
        if not isinstance(self.samples, numbers.Integral) or self.samples < 1:
            raise ValueError("sample count must be a positive integer")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class MomentEstimate:
    spec: tuple
    value: float
    error: float


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    n_accepted: int
    n_total: int
    ess: float


@dataclass(frozen=True)
class PartialZu:
    value: float
    error: float
    margin: float


# -- pointwise quantities ---------------------------------------------------


def _quad(l1, s23, d23):
    """Q = l1 (l1 - 2 s23) + d23^2; s23 = lam2 + lam3, d23 = lam3 - lam2."""
    return l1 * (l1 - 2 * s23) + d23 * d23


def quad_form(l1, l2, l3):
    """Q = sum of squares minus twice the sum of pairwise products."""
    return _quad(l1, l2 + l3, l3 - l2)


def _log_weight(log_vdm, log_measure, q, G):
    """log |Delta| - log_measure - Q / 2G; log_measure is 2 sum log lam, or
    sum mu for the weight times the Jacobian lam1 lam2 lam3 of lam = e^mu."""
    return log_vdm - log_measure - q / (2.0 * G)


def log_eigen_weight(l1, l2, l3, G):
    """Log of the eigenvalue-coordinate weight
    |Delta| / (l1 l2 l3)^2 * exp(-Q / 2G).

    Broadcasts over arrays; coincident eigenvalues give -inf.
    """
    with np.errstate(divide="ignore"):
        return _log_weight(
            np.log(np.abs(l1 - l2)) + np.log(np.abs(l1 - l3))
            + np.log(np.abs(l2 - l3)),
            2.0 * (np.log(np.abs(l1)) + np.log(np.abs(l2))
                   + np.log(np.abs(l3))),
            quad_form(l1, l2, l3), G)


def eigen_weight(l1, l2, l3, G):
    """The eigenvalue-coordinate weight, exp of ``log_eigen_weight``."""
    return np.exp(log_eigen_weight(l1, l2, l3, G))


def uvw_map(l1, l2, l3):
    """(u, v, w) coordinates diagonalizing the quadratic form."""
    return (l1 + l2 + l3) / 3, (l2 + l3 - 2 * l1) / 6, (l3 - l2) / 2


def uvw_inverse(u, v, w):
    return u - 2 * v, u + v - w, u + v + w


def quad_form_uvw(u, v, w):
    return -3 * u * u + 12 * v * v + 4 * w * w


# -- eigenvalue-coordinate quadrature ---------------------------------------


@lru_cache(maxsize=None)
def _ref_panel(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_order(n):
    """Gauss-Legendre order per graded panel for resolution n."""
    return max(4, n // 3)


def _graded_walk(x, w, mid):
    """Edges x, x + w, x + 3w, ... below mid, one column per doubling of
    the step, broadcast over rows.  A row that has stopped repeats its
    last edge; the repeats are zero-width panels."""
    cols = [x]
    while True:
        step = x + w
        go = step < mid
        if not go.any():
            return np.stack(cols, axis=-1)
        x = np.where(go, step, x)
        w = w * 2.0
        cols.append(x)


def _axis_rules(a, b, w_bot, w_top, order):
    """Composite Gauss-Legendre rules on the intervals [a, b], broadcast
    over arrays of ends and end widths.

    Panels are graded toward both ends: the first panel at each end has
    width min(w, span / 4) and successive widths double toward the
    midpoint, so endpoint features cost only logarithmically many panels.
    The panel layout is fixed by the grading; the per-panel order is the
    refinement knob, so halving it coarsens every feature uniformly.
    Returns the nodes and weights of every interval, concatenated in
    order, and each interval's node count.
    """
    a, b = np.broadcast_arrays(a, b)
    span = b - a
    mid = 0.5 * (a + b)
    lo = _graded_walk(a, np.minimum(w_bot, span / 4), mid)
    # the upper walk is the lower one in negated coordinates (exact)
    hi = -_graded_walk(-b, np.minimum(w_top, span / 4), -mid)
    edges = np.concatenate([lo, hi[..., ::-1]], axis=-1)
    left, right = edges[..., :-1], edges[..., 1:]
    keep = right > left
    left, right = left[keep], right[keep]
    x, w = _ref_panel(order)
    half = 0.5 * (right - left)
    nodes = left[:, None] + half[:, None] * (x + 1.0)
    weights = half[:, None] * w
    return nodes.ravel(), weights.ravel(), keep.sum(axis=-1) * order


def _spec_exponents(spec):
    if not set(spec) <= {1, 2, 3}:
        raise ValueError("moment indices must be 1, 2 or 3")
    return tuple(map(spec.count, (1, 2, 3)))


def _ordered_sector_sums(G, eps, L, n, exps_list):
    """Integrals of the weight times symmetrized monomials over the
    ordered sector eps <= lam1 <= lam2 <= lam3 <= L.

    Works in mu = log lam, where the integrand is smooth and the Jacobian
    leaves the measure exp(-sum mu).  Panels are graded toward both ends
    of every axis: toward the peak near lam = L (log-width about G/L^2)
    and the mass pinned near eps.  Each lam3 node is one row of (lam2,
    lam1) nodes, summed under its own peak shift (no overflow at any
    L^2/G); rows combine relative to the largest shift in fixed order.
    Terms without lam1 are computed once per lam2 node.  A monomial (S0's
    is (0, 0, 0)) is the mean over its permutations of lam3^p3
    einsum(lam2^p2, B_p1), B_p the per-lam2 sums of weight * lam1^p.
    Returns (S0, [S_e...]) up to a common exp(shift), which cancels.
    """
    a, b = math.log(eps), math.log(L)
    w_top = max(G / (2.0 * L * L), 1e-7)
    order = _panel_order(n)
    terms = [sorted(set(itertools.permutations(e)))
             for e in [(0, 0, 0), *exps_list]]
    mu3, w3, _ = _axis_rules(a, b, 1.0, w_top, order)
    mu2s, w2s, counts2 = _axis_rules(a, mu3, 1.0, w_top, order)
    cuts = np.cumsum(counts2)[:-1]
    rows = []
    for m3, wt3, mu2, w2 in zip(mu3, w3, np.split(mu2s, cuts),
                                np.split(w2s, cuts)):
        l2, l3 = np.exp(mu2), math.exp(m3)
        s23 = l2 + l3
        own2 = _log_weight(np.log(l3 - l2), mu2 + m3,
                           _quad(0.0, s23, l3 - l2), G) + np.log(w2)
        mu1, w1, counts = _axis_rules(a, mu2, 1.0, w_top, order)
        assert counts.all()  # reduceat gives x[start] for an empty segment
        # in place, and q1 kept to the next row: a fresh row-sized array
        # may be faulted in again.  Two logs, as (lam2 - lam1)(lam3 - lam1)
        # underflows at eps < ~1e-154
        l1 = np.exp(mu1)
        logf = np.log(np.repeat(l2, counts) - l1) + np.log(l3 - l1)
        logf += np.repeat(own2, counts) - mu1
        q1 = _quad(l1, np.repeat(s23, counts), 0.0) / (2.0 * G)
        logf -= q1
        shift = float(np.max(logf))
        logf -= shift
        base = np.exp(logf, out=logf)
        base *= w1
        starts = np.cumsum(counts) - counts
        seg = {p: np.add.reduceat(base * l1 ** p if p else base, starts)
               for p in {perm[0] for perms in terms for perm in perms}}
        # einsum, not a BLAS dot, which splits a long row by thread count
        sums = [sum(l3 ** p3 * float(np.einsum("i,i", l2 ** p2, seg[p1]))
                    for p1, p2, p3 in perms) / len(perms) for perms in terms]
        rows.append((shift, [wt3 * x for x in sums]))
    top = max(shift for shift, _ in rows)
    totals = [math.fsum(math.exp(shift - top) * sums[i]
                        for shift, sums in rows) for i in range(len(terms))]
    return totals[0], totals[1:]


def moment_set(cfg, specs):
    """Moments for several multi-indices, sharing quadrature passes.

    Each moment is the ratio of the monomial-weighted integral to the
    plain one; the error is the change from resolution n to n // 2.  A
    normalization that is not finite and positive, or a moment that is not
    finite, at either resolution (an overflow at a huge L) raises
    ``ValueError``.
    """
    specs = [tuple(s) for s in specs]
    exps_list = [_spec_exponents(s) for s in specs]
    passes = []
    for n in (cfg.resolution, cfg.resolution // 2):
        with np.errstate(over="ignore", invalid="ignore",
                         divide="ignore"):
            try:
                s0, nums = _ordered_sector_sums(cfg.G, cfg.eps, cfg.L, n,
                                                exps_list)
                passes.append([num / s0 for num in nums])
            except (OverflowError, ZeroDivisionError):  # lam3 ** e, s0 == 0
                s0 = math.nan
        if not (0 < s0 < math.inf and all(map(math.isfinite, passes[-1]))):
            raise ValueError(
                "moments at G=%r, eps=%r, L=%r left the double range at "
                "resolution %d" % (cfg.G, cfg.eps, cfg.L, n))
    return {spec: MomentEstimate(spec=spec, value=v, error=abs(v - vh))
            for spec, v, vh in zip(specs, *passes)}


def moments(cfg, spec):
    """Expectation of lam_{i1} ... lam_{in} under the eigenvalue weight."""
    return moment_set(cfg, [spec])[tuple(spec)]


# -- matrix-coordinate Monte Carlo oracle -----------------------------------

_MC_CHUNK = 8192


def _det3(d, o):
    """Determinants of symmetric 3x3 matrices with diagonal rows
    d = (g11, g22, g33) and off-diagonal rows o = (g12, g13, g23)."""
    return (d[0] * d[1] * d[2] + 2 * o[0] * o[1] * o[2]
            - d[0] * o[2] ** 2 - d[1] * o[1] ** 2 - d[2] * o[0] ** 2)


def _spectrum_within(d, o, eps, L):
    """Whether each symmetric matrix (rows as in ``_det3``) has its whole
    spectrum in (eps, L): the leading principal minors of g - eps and of
    L - g are all positive."""
    lo, hi = d - eps, L - d
    return ((lo[0] > 0) & (hi[0] > 0) & (lo[0] * lo[1] > o[0] ** 2)
            & (hi[0] * hi[1] > o[0] ** 2) & (_det3(lo, o) > 0)
            & (_det3(hi, -o) > 0))


def mc_matrix_oracle(cfg, observable):
    """Monte Carlo mean of observable(g) over symmetric matrices.

    Importance sampling of the six entries: off-diagonals from N(0, G/4),
    the exact factor exp(-2 g_ij^2 / G) of the weight, and each diagonal
    entry from an equal mixture on [eps, L] of uniform, an exponential
    tilt toward L at rate L/G and log-uniform.  Draws whose spectrum leaves
    [eps, L] are rejected; the rest are weighted by |det g|^{-2}
    exp(-(1/G)(sum_i g_ii^2 - (1/2)(Tr g)^2)) over their diagonal density.
    Chunk sums are carried under a running log shift, so actions of order
    L^2/G never overflow, and centred on the first accepted observable, so
    an offset leaves the standard error (ratio delta method) unchanged.
    ``ess`` is Kish's (sum w)^2 / sum w^2.  Deterministic for a fixed seed.
    """
    G, eps, L = cfg.G, cfg.eps, cfg.L
    rate, span, log_span = L / G, L - eps, math.log(L / eps)
    # the tilt's density on [eps, L] is rate e^{rate (x - L)} / tilt
    tilt = -math.expm1(-rate * span)
    shift, sums, centre, accepted = -math.inf, np.zeros(5), 0.0, 0
    for c in range(-(-cfg.samples // _MC_CHUNK)):
        count = min(_MC_CHUNK, cfg.samples - c * _MC_CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(
            cfg.seed, spawn_key=(c,)))
        u = rng.random((3, count))
        d = np.choose(rng.integers(3, size=(3, count)), [
            eps + span * u, L + np.log1p(-tilt * u) / rate,
            eps * np.exp(log_span * u)])
        o = rng.normal(0.0, math.sqrt(G) / 2, size=(3, count))
        keep = _spectrum_within(d, o, eps, L)
        if not keep.any():
            continue
        d, o = d[:, keep], o[:, keep]
        density = (1 / span + rate * np.exp(rate * (d - L)) / tilt
                   + 1 / (d * log_span)) / 3
        logw = (-2 * np.log(_det3(d, o))
                - (np.sum(d * d, axis=0) - 0.5 * np.sum(d, axis=0) ** 2) / G
                - np.sum(np.log(density), axis=0))
        gs = np.stack([d[0], o[0], o[1], o[0], d[1], o[2], o[1], o[2], d[2]],
                      axis=-1).reshape(-1, 3, 3)
        obs = np.array([float(observable(g)) for g in gs])
        if not accepted:
            centre = float(obs[0])
        obs -= centre
        top = max(shift, float(np.max(logw)))
        w = np.exp(logw - top)
        sums = (sums * math.exp(shift - top) ** np.array([1, 1, 2, 2, 2])
                + np.stack([w, w * obs, w * w, w * w * obs,
                            w * w * obs * obs]).sum(axis=1))
        shift, accepted = top, accepted + len(obs)
    if not accepted:
        raise RuntimeError(
            "no Monte Carlo samples accepted; check eps, L and sample count")
    s_w, s_wo, s_w2, s_w2o, s_w2o2 = sums.tolist()
    mean = s_wo / s_w
    var = (s_w2o2 - 2 * mean * s_w2o + mean * mean * s_w2) / (s_w * s_w)
    return MCEstimate(value=centre + mean, stderr=math.sqrt(max(var, 0.0)),
                      n_accepted=accepted, n_total=cfg.samples,
                      ess=s_w * s_w / s_w2)


# -- partial theory at fixed mean eigenvalue --------------------------------


def partial_zu_integrand(u, v, w, G):
    """Integrand of the fluctuation integral at fixed u:
    |9v^2 - w^2| w / ((u - 2v)^2 ((u + v)^2 - w^2)^2)
    * exp(-(2/G)(3v^2 + w^2)).

    Broadcasts over arrays of v and w, bit-identically to scalar calls:
    every square is a product because libm pow(x, 2) is not always the
    correctly rounded x * x that NumPy uses for arrays.
    """
    num = np.abs(9 * v * v - w * w) * w
    p, q = u - 2 * v, (u + v) * (u + v) - w * w
    return num / ((p * p) * (q * q)) * np.exp(-(2.0 / G) * (3 * v * v + w * w))


def _zu_value(u, G, n, margin):
    """Z_u at panel order ``_panel_order(n)``: v is graded toward v = u/2,
    and w toward w = u + v (the excluded poles) and split at its kink
    w = 3|v|.  Every v node has the two w intervals [0, cut] and
    [cut, w_hi], with cut = 3|v| where the kink splits [0, w_hi] and
    cut = 0 (no panels) where it does not.  A v panel (``order``
    consecutive v nodes) is one row: one ``_axis_rules`` call, one
    integrand call and one ``np.sum``, NumPy's pairwise sum, whose bits,
    unlike a BLAS dot's or an einsum's, depend on neither the thread
    count nor the SIMD target."""
    order = _panel_order(n)
    dv = margin * 1.5 * u          # relative to the v-range size 3u/2
    v_nodes, v_wts, _ = _axis_rules(-u + dv, u / 2 - dv, u / 2, dv, order)
    rows = []
    for j in range(0, len(v_nodes), order):
        vs, wvs = v_nodes[j:j + order], v_wts[j:j + order]
        w_hi = (u + vs) * (1.0 - margin)
        kink = 3 * np.abs(vs)
        cut = np.where((0.0 < kink) & (kink < w_hi), kink, 0.0)
        lo = np.column_stack([np.zeros_like(cut), cut])
        hi = np.column_stack([cut, w_hi])
        top = np.column_stack([cut / 4, margin * (u + vs)])
        w, ww, counts = _axis_rules(lo, hi, (hi - lo) / 4, top, order)
        k = counts.sum(axis=1)          # w nodes per v node
        ww *= np.repeat(wvs, k)         # w_v w_w in place: a row is large
        rows.append(float(np.sum(
            ww * partial_zu_integrand(u, np.repeat(vs, k), w, G))))
    return 4.0 * math.fsum(rows)


def partial_Zu(u, G, resolution=64, margin=1e-4):
    """The fluctuation integral Z_u over the margin-shrunk (v, w) region.

    The exact integral diverges at the boundaries v = u/2 (lam1 = 0) and
    w = u + v (lam2 = 0); both are excluded by the given relative margin,
    which is reported alongside the value and must lie in (0, 1/2): from
    1/2 on, the v range is empty.  The error field is the change from
    resolution n to n // 2.  The integrand is positive on the region, so a
    value that is not finite and positive at either resolution (an
    underflow to 0 or an overflow to inf or nan) raises ``ValueError``.
    """
    if not 0 < u < math.inf:
        raise ValueError("u must be positive and finite")
    if not 0 < G < math.inf:
        raise ValueError("coupling G must be positive and finite")
    if not 0 < margin < 0.5:
        raise ValueError("margin must be positive and below 1/2")
    _check_resolution(resolution)
    with np.errstate(over="ignore", invalid="ignore"):
        v = _zu_value(u, G, resolution, margin)
        vh = _zu_value(u, G, resolution // 2, margin)
    if not (0 < v < math.inf and 0 < vh < math.inf):
        raise ValueError(
            "Z_u at u=%r, G=%r left the double range (%r at resolution %d, "
            "%r at %d)" % (u, G, v, resolution, vh, resolution // 2))
    return PartialZu(value=v, error=abs(v - vh), margin=margin)


# -- sweeps ------------------------------------------------------------------

_RATIO_SPECS = ((1,), (1, 2), (1, 1))
_SWEEP_COLUMNS = ("L", "G", "eps", "moment_spec", "estimate", "error",
                  "ratio_16over3", "uncertainty")


@dataclass(frozen=True)
class SweepResult:
    """Moment sweep over the upper cutoff L.

    rows: one mapping per (L, moment_spec) pair with keys matching the
    CSV columns; eps_report: halving-stability check at the largest L.
    """

    schema: str
    rows: tuple
    eps_report: dict

    def to_csv(self):
        import csv
        import io
        buf = io.StringIO()
        buf.write("# schema=%s\n" % self.schema)
        buf.write("# eps_stability: %s\n" % " ".join(
            "%s=%r" % item for item in self.eps_report.items()))
        wr = csv.writer(buf, lineterminator="\n")
        wr.writerow(_SWEEP_COLUMNS)
        for row in self.rows:
            wr.writerow(["" if row[c] is None else row[c]
                         for c in _SWEEP_COLUMNS])
        return buf.getvalue()

    def to_json(self):
        import json
        return json.dumps({"schema": self.schema, "rows": list(self.rows),
                           "eps_stability": self.eps_report}, indent=2) + "\n"


def sweep(cfg, L_values, specs=((1,),)):
    """Quadrature moments over a list of upper cutoffs L.

    Every row carries the requested moment plus two derived columns:
    ratio_16over3 = <lam1 lam2>/<lam1>^2 and uncertainty
    = sqrt(<lam1^2> - <lam1>^2)/<lam1>, the quantities whose large-L
    trends are the interesting ones.  Both are omitted (None) when <lam1>
    does not exceed its own error estimate, and the uncertainty also when
    the variance does not exceed its halving error plus the rounding of
    the difference (a variance that cancels to 0 is not measured).  Output
    is byte deterministic for a fixed config.
    """
    if len(L_values) == 0:
        raise ValueError("sweep needs at least one cutoff L")
    specs = [tuple(s) for s in specs]
    wanted = list(dict.fromkeys(list(_RATIO_SPECS) + specs))
    l_max = float(max(L_values))
    rows = []
    for L in L_values:
        est = moment_set(replace(cfg, L=float(L)), wanted)
        m1, m12, m11 = est[(1,)], est[(1, 2)], est[(1, 1)]
        if float(L) == l_max:
            v = m1.value
        ratio = unc = None
        if m1.value > m1.error:
            ratio = m12.value / (m1.value * m1.value)
            var = m11.value - m1.value * m1.value
            noise = (m11.error + m1.error * (2 * m1.value + m1.error)
                     + 4 * 2.0 ** -52 * m11.value)
            if var > noise:
                unc = math.sqrt(var) / m1.value
        for spec in specs:
            e = est[spec]
            rows.append(dict(zip(_SWEEP_COLUMNS, (
                float(L), cfg.G, cfg.eps, ",".join(map(str, spec)),
                e.value, e.error, ratio, unc))))
    vh = moments(replace(cfg, eps=cfg.eps / 2.0, L=l_max), (1,)).value
    report = {
        "L": l_max, "eps": cfg.eps, "eps_half": cfg.eps / 2.0,
        "mean_lambda": v, "mean_lambda_half": vh,
        "rel_change": abs(v - vh) / abs(v) if v else float("inf"),
    }
    return SweepResult(schema=SWEEP_SCHEMA, rows=tuple(rows),
                       eps_report=report)

"""The benchmark's four workloads.

Each workload builds its inputs and reference values from the seed in its
constructor (part of set-up) and ``run_pass`` makes a fixed list of calls
into fuzzyqrg's public functions, one after another, checking every output.
Calls go through module attributes (``qg.moment_set``), never through names
bound here at import, so that the tracer's wrappers see them.

``tiny`` shrinks every input for the self-test; ``corrupt`` spoils one
reference value so that the self-test can show the checks fail.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

from fuzzyqrg import algebra, cli, forms, geometry as geo, monopole as mono
from fuzzyqrg import qgravity as qg, scalars, verify

IDX = (0, 1, 2)


class Checks:
    """Output checks of one process; an exception counts as a failed check.

    ``record`` feeds exact values into a per-pass digest, so that passes and
    runs can be compared bit for bit.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._hash = hashlib.sha256()

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @contextlib.contextmanager
    def guard(self, what):
        try:
            yield
        except Exception as e:  # the pass goes on; the failure is counted
            self.expect(False, "%s raised %s: %s"
                        % (what, type(e).__name__, e))

    def record(self, *values):
        for v in values:
            self._hash.update(repr(v).encode())
            self._hash.update(b"\0")

    def take_digest(self):
        out = self._hash.hexdigest()
        self._hash = hashlib.sha256()
        return out


def rand_metric(rng, span=6):
    """A random invertible rational metric, built as the acceptance suite
    builds its ``rand_metric``."""
    while True:
        e = [[Fraction(rng.randint(-span, span), rng.randint(1, 4))
              for _ in IDX] for _ in IDX]
        for i in IDX:
            for j in range(i + 1, 3):
                e[j][i] = e[i][j]
        try:
            return geo.Metric3(e)
        except ValueError:
            continue


def _is_zero3(t):
    return all(not x for p in t for r in p for x in r)


# -- deep-cutoff --------------------------------------------------------------

# The frozen balance regime of the acceptance suite and the README.
REGIME = dict(G=1.5625, eps=6.236294250248896e-30, L=10.0)
README_RATIO, README_UNC = "5.32741", "2.14160"


class DeepCutoff:
    """One moment_set at the frozen deep-cutoff regime (seed not used)."""

    warmup = False

    def __init__(self, seed, tiny=False, corrupt=False, **_):
        self.cfg = qg.QGConfig(resolution=16 if tiny else 48, **REGIME)
        self.ratio_ref = 16.0 / 3.0 * (1.2 if corrupt else 1.0)
        self.unc_ref = math.sqrt(13.0 / 3.0)
        self.readme = not tiny  # the README digits hold at resolution 48

    def run_pass(self, chk, tr):
        with chk.guard("deep-cutoff moment_set"):
            est = qg.moment_set(self.cfg, [(1,), (1, 2), (1, 1)])
            m1, m12, m11 = est[(1,)], est[(1, 2)], est[(1, 1)]
            chk.record(*(v for m in (m1, m12, m11)
                         for v in (m.value, m.error)))
            ratio = m12.value / m1.value ** 2
            unc = math.sqrt(max(m11.value - m1.value ** 2, 0.0)) / m1.value
            chk.expect(abs(ratio - self.ratio_ref) / self.ratio_ref < 0.05,
                       "ratio %r not within 5%% of 16/3" % ratio)
            chk.expect(abs(unc - self.unc_ref) / self.unc_ref < 0.05,
                       "unc %r not within 5%% of sqrt(13/3)" % unc)
            if self.readme:
                chk.expect("%.5f" % ratio == README_RATIO,
                           "ratio %.5f != README %s" % (ratio, README_RATIO))
                chk.expect("%.5f" % unc == README_UNC,
                           "unc %.5f != README %s" % (unc, README_UNC))
        return {}


# -- moderate-cutoff ----------------------------------------------------------


def _trace(g):
    return np.trace(g)


def _det(g):
    return np.linalg.det(g)


def _trace_sq(g):
    return np.trace(g @ g)


# (label, moment, its multiple that equals the matrix mean, observable)
MC_OBSERVABLES = (("trace", (1,), 3, _trace),
                  ("det", (1, 2, 3), 1, _det),
                  ("tr g^2", (1, 1), 3, _trace_sq))
ZU_COUPLINGS = (4.0, 2.0, 1.0, 0.5, 0.25)


class ModerateCutoff:
    """Quadrature against Monte Carlo at G = 1, eps = 0.1, L = 3, the README
    sweep, and partial_Zu.  The seed drives the Monte Carlo samples only."""

    warmup = False

    def __init__(self, seed, tiny=False, corrupt=False, **_):
        res, samples, sweep_res, zu_res = ((16, 20_000, 16, 32) if tiny
                                           else (48, 1_000_000, 32, 64))
        self.cfg = qg.QGConfig(G=1.0, eps=0.1, L=3.0, resolution=res,
                               samples=samples, seed=seed)
        self.sweep_cfg = qg.QGConfig(G=1.0, eps=0.1, L=6.0,
                                     resolution=sweep_res)
        self.sweep_L = [2.0, 3.0] if tiny else [2.0, 3.0, 4.0, 5.0, 6.0]
        self.zu_res = zu_res
        self.quad_scale = 1.1 if corrupt else 1.0

    def run_pass(self, chk, tr):
        extra = {"mc_samples": 0, "mc_accepted": 0}
        with chk.guard("moderate-cutoff moment_set"):
            quad = qg.moment_set(self.cfg, [o[1] for o in MC_OBSERVABLES])
            for _, spec, _, _ in MC_OBSERVABLES:
                chk.record(quad[spec].value, quad[spec].error)
            for label, spec, mult, fn in MC_OBSERVABLES:
                with chk.guard("mc_matrix_oracle " + label):
                    mc = qg.mc_matrix_oracle(
                        self.cfg, tr.timed("qgravity.mc.observable", fn))
                    extra["mc_samples"] += mc.n_total
                    extra["mc_accepted"] += mc.n_accepted
                    qv = mult * quad[spec].value * self.quad_scale
                    qe = mult * quad[spec].error
                    chk.expect(abs(qv - mc.value)
                               < 3 * math.hypot(mc.stderr, qe),
                               "%s: quadrature %r vs MC %r +- %r beyond "
                               "3 sigma" % (label, qv, mc.value, mc.stderr))
        with chk.guard("sweep"):
            res = qg.sweep(self.sweep_cfg, self.sweep_L, specs=[(1,), (1, 2)])
            csv = res.to_csv()
            chk.record(csv)
            lines = csv.splitlines()
            chk.expect(lines[0] == "# schema=" + qg.SWEEP_SCHEMA
                       and len(lines) == 3 + 2 * len(self.sweep_L),
                       "sweep CSV has the wrong header or row count")
        with chk.guard("partial_Zu"):
            vals = [qg.partial_Zu(2.0, G, resolution=self.zu_res).value
                    for G in ZU_COUPLINGS]
            fine = qg.partial_Zu(2.0, 1.0, resolution=2 * self.zu_res).value
            chk.record(*vals, fine)
            coarse = vals[ZU_COUPLINGS.index(1.0)]
            chk.expect(abs(coarse - fine) / fine < 0.01,
                       "partial_Zu r%d %r vs r%d %r differ by 1%% or more"
                       % (self.zu_res, coarse, 2 * self.zu_res, fine))
            chk.expect(all(x > y for x, y in zip(vals, vals[1:])),
                       "partial_Zu not decreasing in G: %r" % vals)
        return extra


# -- exact-geometry -----------------------------------------------------------


def _normal_monomials(max_deg):
    return [algebra.AlgElem.monomial((a, b, c))
            for a in range(max_deg + 1) for b in range(max_deg + 1 - a)
            for c in (0, 1) if a + b + c <= max_deg]


def _eps(i, j, k):
    return forms.eps3(i + 1, j + 1, k + 1)


class ExactGeometry:
    """Exact connection, curvature, calculus and monopole identities on
    seeded rational metrics; one untimed warm-up pass fills the algebra's
    caches.  Every identity is compared exactly against a reference the
    benchmark builds from the public API."""

    warmup = True

    def __init__(self, seed, tiny=False, corrupt=False, **_):
        rng = random.Random(seed)
        self.metrics = [rand_metric(rng) for _ in range(3 if tiny else 100)]
        self.n_2form = 1 if tiny else 10
        self.monomials = _normal_monomials(1 if tiny else 3)
        self.big = algebra.AlgElem.monomial((1, 1, 0) if tiny else (4, 4, 1))
        self.suite = "algebra" if tiny else "all"
        names = list(verify.SUITES) if self.suite == "all" else [self.suite]
        self.n_suite_checks = sum(len(verify.SUITES[n]) for n in names)
        # closed forms: gamma = 2 g - Tr(g) id, Gamma_ijk = eps_ikm gamma_mj,
        # S = (Tr g^2 - (Tr g)^2 / 2) / (2 det g)
        self.refs = []
        for k, g in enumerate(self.metrics):
            e = g.entries
            tr = e[0][0] + e[1][1] + e[2][2]
            gm = tuple(tuple(2 * e[m][n] - (tr if m == n else 0) for n in IDX)
                       for m in IDX)
            gamma = tuple(tuple(tuple(
                sum(_eps(i, kk, m) * gm[m][j] for m in IDX) for kk in IDX)
                for j in IDX) for i in IDX)
            det = (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
                   - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
                   + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
            tr2 = sum(e[i][j] * e[j][i] for i in IDX for j in IDX)
            scalar = (tr2 - tr * tr / 2) / (2 * det)
            if corrupt and k == 0:
                scalar += 1
            self.refs.append((gm, gamma, scalar))

    def _rho_tensor(self, rho, i):
        """rho^i_jk eps_jmn s^m ^ s^n (x) s^k, the contraction route."""
        out = forms.TensorForm(2)
        for j in IDX:
            for k in IDX:
                r = rho[i][j][k]
                if not r:
                    continue
                for m in IDX:
                    for n in IDX:
                        e = _eps(j, m, n)
                        if e:
                            w = forms.wedge(forms.s_basis(m + 1),
                                            forms.s_basis(n + 1))
                            c = algebra.AlgElem.scalar(
                                scalars.ParamScalar.of(r * e))
                            out = out + forms.tensor(c * w,
                                                     forms.s_basis(k + 1))
        return out

    def run_pass(self, chk, tr):
        for k, (g, (gm, gamma, scalar)) in enumerate(
                zip(self.metrics, self.refs)):
            with tr.span("geometry.report"), chk.guard("metric %d" % k):
                conn = geo.qlc(g)
                chk.expect(conn.gamma == gamma,
                           "qlc closed form, metric %d" % k)
                chk.expect(_is_zero3(geo.torsion(conn)), "torsion %d" % k)
                chk.expect(_is_zero3(geo.cotorsion(conn)), "cotorsion %d" % k)
                chk.expect(_is_zero3(geo.metric_compat_defect(conn)),
                           "metric compatibility %d" % k)
                chk.expect(geo.solve_qlc_linear(g) == gm,
                           "linear solve, metric %d" % k)
                data = geo.curvature(conn, g)
                chk.expect(data.scalar == scalar
                           and geo.scalar_closed_form(g) == scalar,
                           "scalar curvature, metric %d" % k)
            if k < self.n_2form:
                with chk.guard("curvature_2form %d" % k):
                    two = geo.curvature_2form(conn, g)
                    chk.expect(len(two) == 3 and all(
                        two[i] == self._rho_tensor(data.rho, i) for i in IDX),
                        "2-form route vs contraction, metric %d" % k)
        with chk.guard("calculus"):
            th = forms.theta()
            for a in self.monomials:
                chk.expect(forms.d(forms.d(a)).is_zero(), "d(d %s)" % a)
                chk.expect(forms.d(a) == th * a - a * th, "inner, %s" % a)
            for i in (1, 2, 3):
                chk.expect(forms.d(forms.d(forms.s_basis(i))).is_zero(),
                           "d(d s^%d)" % i)
            with tr.span("forms.d_d_big"):
                dd = forms.d(forms.d(self.big))
            chk.expect(dd.is_zero(), "d(d %s)" % self.big)
        with chk.guard("monopole"):
            self._monopole(chk)
        with chk.guard("run_suite"):
            lines = []
            ok = verify.run_suite(self.suite, write=lines.append)
            chk.expect(ok and len(lines) == self.n_suite_checks
                       and all(s.endswith(": PASS") for s in lines),
                       "run_suite(%r)" % self.suite)
        return {}

    def _monopole(self, chk):
        AlgElem, AlgMatrix, FormMatrix = (algebra.AlgElem, mono.AlgMatrix,
                                          mono.FormMatrix)
        ONE, I, LP = scalars.ONE, scalars.I, scalars.LP
        half = scalars.ParamScalar.of(Fraction(1, 2))
        X1, X2, X3 = (AlgElem.generator(i) for i in (1, 2, 3))
        lp_a = AlgElem.scalar(LP)
        p = mono.projector()
        chk.expect((p @ p - p).is_zero(), "P^2 = P")
        chk.expect((p.star() - p).is_zero(), "P* = P")
        chk.expect(p.trace() == AlgElem.one() * (ONE + LP), "Tr P = 1 + lp")
        dp = mono.projector_dP()
        conn = mono.grassmann_connection()
        th = forms.theta()
        s1, s2, s3 = (forms.s_basis(i) for i in (1, 2, 3))
        q = FormMatrix([[-s3, s1 + I * s2], [s1 - I * s2, s3]])
        closed = ((ONE + LP) * half) * dp + LP * p.times_form(th) \
            + (I * (ONE - LP * LP) / 4) * q \
            - (LP * (ONE - LP) * half) * AlgMatrix.identity().times_form(th)
        chk.expect(conn == dp @ p, "connection = (dP)P")
        chk.expect(conn == closed, "Grassmann connection closed form")
        f12, f31, f23 = mono.monopole_curvature()
        curv = dp.wedge(dp @ p)
        scale = I * (ONE - LP) / 4
        chk.expect(scale * f12 == curv.coefficient_matrix(1, 2),
                   "f12 of curvature")
        chk.expect(-(scale * f31) == curv.coefficient_matrix(1, 3),
                   "f31 of curvature")
        chk.expect(scale * f23 == curv.coefficient_matrix(2, 3),
                   "f23 of curvature")
        m12 = AlgMatrix([[X3 - lp_a, 0], [0, X3 + lp_a]])
        chk.expect(f12 == 2 * (m12 @ p), "f12 = 2 diag(x3 - lp, x3 + lp) P")
        m31 = AlgMatrix([[X2, I * lp_a], [-I * lp_a, X2]])
        chk.expect(f31 == 2 * (m31 @ p), "f31 = 2 [[x2, i lp], [-i lp, x2]] P")
        chk.expect(all(f @ p == f for f in (f12, f31, f23)), "f P = f")
        m = mono.f23_factor()
        chk.expect(m == AlgMatrix([[X1, lp_a], [lp_a, X1]]),
                   "f23 factor = [[x1, lp], [lp, x1]]")
        chk.expect(2 * (m @ p) == f23, "f23 = 2 M P")


# -- cli-cold -----------------------------------------------------------------


def _in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("fuzzyqrg %s exited %s" % (" ".join(argv), code))
    return buf.getvalue()


class CliCold:
    """Fresh ``python -m fuzzyqrg.cli`` processes, one after another.  The
    seed drives the metric given to ``curvature``.  Every expected output is
    computed in set-up, in this process."""

    warmup = False

    def __init__(self, seed, tiny=False, corrupt=False, root=None, env=None):
        self.root, self.env = root, env
        rng = random.Random(seed)
        g = rand_metric(rng)
        metric = json.dumps([[str(x) for x in row] for row in g.entries])
        suite = "algebra" if tiny else "all"
        zu_res = 16 if tiny else 64
        sweep_res = 16 if tiny else 24

        lines = []
        verify.run_suite(suite, write=lines.append)
        z = qg.partial_Zu(2.0, 1.0, resolution=zu_res)
        zu = {"u": 2.0, "G": 1.0, "resolution": zu_res,
              "Zu": z.value * (1 + 1e-9 if corrupt else 1), "error": z.error,
              "margin": z.margin}
        sweep_csv = qg.sweep(
            qg.QGConfig(G=1.0, eps=0.1, L=3.0, resolution=sweep_res),
            [2.0, 3.0], specs=[(1,), (1, 2)]).to_csv()
        # (span name, arguments, how stdout is compared, expected stdout)
        self.commands = [
            ("cli.verify", ["verify", "--suite", suite], "text",
             "".join(s + "\n" for s in lines)),
            ("cli.curvature", ["curvature", "--metric", metric, "--exact"],
             "json", _curvature_report(g, str)),
        ]
        if not tiny:
            floats = geo.Metric3([[float(x) for x in row]
                                  for row in g.entries])
            self.commands.append(
                ("cli.curvature", ["curvature", "--metric", metric], "json",
                 _curvature_report(floats, float)))
        self.commands.append(
            ("cli.qg_partial", ["qg-partial", "--u", "2", "--G", "1",
                                "--resolution", str(zu_res),
                                "--format", "json"], "json", zu))
        if not tiny:
            self.commands += [
                ("cli.monopole", ["monopole", show], "text",
                 _in_process(["monopole", show]))
                for show in ("connection", "curvature")]
        self.commands.append(
            ("cli.qg_sweep", ["qg-sweep", "--G", "1", "--eps", "0.1",
                              "--Lmin", "2", "--Lmax", "3", "--steps", "2",
                              "--moments", "1", "--moments", "1,2",
                              "--resolution", str(sweep_res)], "text",
             sweep_csv))

    def _run(self, args):
        return subprocess.run([sys.executable] + args, cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=120)

    def run_pass(self, chk, tr):
        with chk.guard("import fuzzyqrg.cli"):
            with tr.span("cli.startup"):
                proc = self._run(["-c", "import fuzzyqrg.cli"])
            chk.expect(proc.returncode == 0, "import fuzzyqrg.cli failed")
        for name, args, kind, expected in self.commands:
            what = "fuzzyqrg %s" % args[0]
            with chk.guard(what):
                with tr.span(name):
                    proc = self._run(["-m", "fuzzyqrg.cli"] + args)
                out = (proc.stdout if kind == "text"
                       else json.loads(proc.stdout))
                chk.expect(proc.returncode == 0 and out == expected,
                           "%s: exit %d or stdout differs"
                           % (what, proc.returncode))
        return {}


def _curvature_report(g, render):
    conn = geo.qlc(g)
    data = geo.curvature(conn, g)
    return {
        "metric": [[render(x) for x in row] for row in g.entries],
        "gamma": [[[render(x) for x in row] for row in plane]
                  for plane in conn.gamma],
        "ricci": [[render(x) for x in row] for row in data.ricci],
        "scalar": render(data.scalar),
    }


WORKLOADS = {
    "deep-cutoff": DeepCutoff,
    "moderate-cutoff": ModerateCutoff,
    "exact-geometry": ExactGeometry,
    "cli-cold": CliCold,
}

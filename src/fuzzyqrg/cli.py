"""Command-line front end.

Subcommands: ``verify`` (exact identity suites), ``curvature`` (connection
and curvature of a metric), ``qg-sweep`` (moment sweeps of the metric
functional integral), ``qg-partial`` (the fixed-u fluctuation integral)
and ``monopole`` (exact connection/curvature reports, each checked by the
predicate of ``verify`` that its identity cites).  Exit codes: 0 success,
1 identity or invariant failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .geometry import Metric3, qlc, curvature
from .verify import (SUITES, run_suite, connection_closed_form_holds,
                     curvature_factors_hold)

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


def _write_output(text, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError("cannot write output file: %s" % e)


def _positive(name):
    def parse(raw):
        v = float(raw)
        if not v > 0:
            raise argparse.ArgumentTypeError("%s must be positive" % name)
        return v
    return parse


def build_parser():
    p = argparse.ArgumentParser(
        prog="fuzzyqrg",
        description="Exact quantum Riemannian geometry of the fuzzy sphere "
                    "and metric functional integrals.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the exact identity suites")
    v.add_argument("--suite", default="all",
                   choices=sorted(SUITES) + ["all"])
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("curvature",
                       help="connection and curvature of a 3x3 metric")
    c.add_argument("--metric", required=True,
                   help="path to a JSON file or an inline JSON matrix")
    c.add_argument("--exact", action="store_true",
                   help="keep entries as exact rationals (accepts integers "
                        "and strings like \"1/2\")")
    c.add_argument("--format", default="json", choices=["json", "text"])
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_curvature)

    s = sub.add_parser("qg-sweep",
                       help="moment sweep of the metric integral over L")
    s.add_argument("--G", type=_positive("G"), default=1.0)
    s.add_argument("--eps", type=_positive("eps"), default=0.01)
    s.add_argument("--Lmin", type=_positive("Lmin"), required=True)
    s.add_argument("--Lmax", type=_positive("Lmax"), required=True)
    s.add_argument("--steps", type=int, default=5)
    s.add_argument("--moments", action="append", default=None,
                   help="comma-separated eigenvalue indices, e.g. 1,2; "
                        "repeat the flag for several moments")
    s.add_argument("--resolution", type=int, default=48)
    s.add_argument("--format", default="csv", choices=["csv", "json"])
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_qg_sweep)

    z = sub.add_parser("qg-partial",
                       help="fluctuation integral at fixed mean eigenvalue")
    z.add_argument("--u", type=_positive("u"), required=True)
    z.add_argument("--G", type=_positive("G"), default=1.0)
    z.add_argument("--resolution", type=int, default=64)
    z.add_argument("--margin", type=_positive("margin"), default=1e-4)
    z.add_argument("--format", default="text", choices=["text", "json"])
    z.add_argument("--out", default=None)
    z.set_defaults(func=cmd_qg_partial)

    m = sub.add_parser("monopole",
                       help="exact monopole connection and curvature")
    m.add_argument("show", choices=["connection", "curvature"])
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_monopole)

    return p


# -- verify -------------------------------------------------------------------


def cmd_verify(args):
    return 0 if run_suite(args.suite) else 1


# -- curvature ----------------------------------------------------------------


def _parse_metric_entry(raw, exact):
    if isinstance(raw, bool):
        raise UsageError("not a number: %r" % (raw,))
    if exact:
        if not isinstance(raw, (int, str)):
            raise UsageError(
                "exact mode requires integer or rational-string entries")
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise UsageError("not a rational number: %r" % (raw,))
    try:
        v = float(raw) if not isinstance(raw, str) else float(Fraction(raw))
    except OverflowError:
        v = math.inf
    except (TypeError, ValueError, ZeroDivisionError):
        raise UsageError("not a number: %r" % (raw,))
    if not math.isfinite(v):
        raise UsageError("not a finite number: %r" % (raw,))
    return v


def _load_metric(spec, exact):
    text = spec.strip()
    if not text.startswith(("[", "{")):
        try:
            with open(spec) as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError("cannot read metric file: %s" % e)
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise UsageError("metric is not valid JSON: %s" % e)
    if isinstance(doc, dict):
        doc = doc.get("metric")
    if (not isinstance(doc, list) or len(doc) != 3
            or any(not isinstance(r, list) or len(r) != 3 for r in doc)):
        raise UsageError("metric must be a JSON 3x3 array "
                         "(or an object with a \"metric\" key)")
    return [[_parse_metric_entry(x, exact) for x in row] for row in doc]


def _render_value(v, exact):
    if exact:
        return str(v)
    if not math.isfinite(v):
        raise ValueError("the connection or curvature of this float "
                         "metric left the double range")
    return float(v)


def _curvature_report(entries, exact):
    g = Metric3(entries)
    conn = qlc(g)
    data = curvature(conn, g)
    r = lambda v: _render_value(v, exact)
    return {
        "metric": [[r(x) for x in row] for row in g.entries],
        "gamma": [[[r(x) for x in row] for row in plane]
                  for plane in conn.gamma],
        "ricci": [[r(x) for x in row] for row in data.ricci],
        "scalar": r(data.scalar),
    }


def cmd_curvature(args):
    entries = _load_metric(args.metric, args.exact)
    try:
        report = _curvature_report(entries, args.exact)
    except ValueError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    if args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        lines = ["scalar: %s" % report["scalar"], "ricci:"]
        lines += ["  %s" % " ".join(str(x) for x in row)
                  for row in report["ricci"]]
        lines.append("gamma (first index lowered):")
        for i, plane in enumerate(report["gamma"], start=1):
            lines.append("  Gamma_%d:" % i)
            lines += ["    %s" % " ".join(str(x) for x in row)
                      for row in plane]
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


# -- functional-integral commands ----------------------------------------------


def _parse_moments(raw_list):
    if not raw_list:
        return [(1,)]
    specs = []
    for raw in raw_list:
        try:
            spec = tuple(int(t) for t in raw.split(",") if t.strip())
        except ValueError:
            spec = ()
        if not spec:
            raise UsageError("bad moment spec: %r" % raw)
        specs.append(spec)
    return specs


def cmd_qg_sweep(args):
    from .qgravity import QGConfig, sweep
    specs = _parse_moments(args.moments)
    if args.steps < 1:
        raise UsageError("steps must be at least 1")
    if args.Lmax < args.Lmin:
        raise UsageError("Lmax must not be smaller than Lmin")
    # the last cutoff is Lmax itself, not Lmin plus a rounded multiple of h
    h = (args.Lmax - args.Lmin) / max(args.steps - 1, 1)
    l_values = [args.Lmin + i * h for i in range(args.steps - 1)]
    l_values.append(args.Lmax)
    try:
        cfg = QGConfig(G=args.G, eps=args.eps, L=args.Lmax,
                       resolution=args.resolution)
        result = sweep(cfg, l_values, specs=specs)
    except ValueError as e:
        raise UsageError(str(e))
    text = result.to_json() if args.format == "json" else result.to_csv()
    _write_output(text, args.out)
    return 0


def cmd_qg_partial(args):
    from .qgravity import partial_Zu
    try:
        z = partial_Zu(args.u, args.G, resolution=args.resolution,
                       margin=args.margin)
    except ValueError as e:
        raise UsageError(str(e))
    if args.format == "json":
        text = json.dumps({
            "u": args.u, "G": args.G, "resolution": args.resolution,
            "Zu": z.value, "error": z.error, "margin": z.margin,
        }, indent=2) + "\n"
    else:
        text = ("Z_u(u=%g, G=%g) = %r\n"
                "error (resolution halving) = %r\n"
                "boundary exclusion margin = %r\n"
                % (args.u, args.G, z.value, z.error, z.margin))
    _write_output(text, args.out)
    return 0


# -- monopole reports -----------------------------------------------------------


_Q_TERMS = (("- (i/4)(1-lp^2) s3", "+ (i/4)(1-lp^2) (s1 + i s2)"),
            ("+ (i/4)(1-lp^2) (s1 - i s2)", "+ (i/4)(1-lp^2) s3"))


def _connection_text():
    from .monopole import grassmann_connection
    conn = grassmann_connection()
    if not connection_closed_form_holds(conn):
        raise RuntimeError("Grassmann connection (dP)P does not equal its "
                           "closed form")
    lines = [
        "Grassmann connection (dP)P, verified equal to the closed form",
        "  (dP)P = ((1+lp)/2) dP + lp P theta + (i/4)(1-lp^2) Q"
        " - (lp(1-lp)/2) theta Id",
        "",
        "closed form by entry:",
    ]
    for a in (0, 1):
        for b in (0, 1):
            parts = ["((1+lp)/2) dP[%d,%d]" % (a + 1, b + 1),
                     "+ lp P[%d,%d] theta" % (a + 1, b + 1)]
            if a == b:
                parts.append("- (lp(1-lp)/2) theta")
            parts.append(_Q_TERMS[a][b])
            lines.append("  (%d,%d): %s" % (a + 1, b + 1, " ".join(parts)))
    lines.append("")
    lines.append("expanded entries (normal-ordered coefficients):")
    for a in (0, 1):
        for b in (0, 1):
            lines.append("  (%d,%d): %s" % (a + 1, b + 1, conn.m[a][b]))
    return "\n".join(lines) + "\n"


def _curvature_text():
    from .monopole import monopole_curvature
    f12, f31, f23 = monopole_curvature()
    if not curvature_factors_hold(f12, f31, f23):
        raise RuntimeError("monopole curvature: the factorizations f = 2 M P "
                           "and f P = f do not hold")
    lines = [
        "Monopole curvature dP ^ (dP)P"
        " = (i(1-lp)/4) (f12 s1^s2 + f31 s3^s1 + f23 s2^s3)",
        "",
        "verified factorizations (each f = 2 M P):",
        "  f12: M = diag(x3 - lp, x3 + lp)",
        "  f31: M = [[x2, i lp], [-i lp, x2]]",
        "  f23: M = [[x1, lp], [lp, x1]]",
        "",
    ]
    for name, f in (("f12", f12), ("f31", f31), ("f23", f23)):
        lines.append("%s =" % name)
        lines.append(str(f))
        lines.append("")
    return "\n".join(lines) + "\n"


def cmd_monopole(args):
    text = (_connection_text() if args.show == "connection"
            else _curvature_text())
    _write_output(text, args.out)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except (ArithmeticError, RuntimeError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())

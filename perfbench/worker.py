"""One workload in one fresh process: set-up, warm-up, then passes.

``run.py`` starts this file with ``PYTHONPATH`` set to the checkout's
``src``.  Modes:

- ``setup``: build the inputs, run the warm-up pass if the workload has one,
  report the monotonic time at which the first timed call would start, exit.
- ``timed``: as ``setup``, then untraced passes for about ``--seconds``.
- ``traced``: as ``setup``, one untraced pass (the tracing-overhead
  baseline), then the tracer is installed and traced passes follow.

The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import fuzzyqrg  # noqa: E402  (PYTHONPATH is set by run.py)
import numpy  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PARAM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
             "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "inverse")
CLI_SPANS = ("startup", "verify", "curvature", "qg_partial", "qg_sweep",
             "monopole")


def cpu_seconds():
    own = time.process_time()
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own + kids.ru_utime + kids.ru_stime


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def layer_metrics(agg, extra, traced_wall, untraced_wall, cpu_s):
    """Per-layer metrics of one traced pass."""
    stats = agg["stats"]

    def calls(*names):
        return sum(stats[n][0] for n in names if n in stats)

    def total(name):
        return stats[name][1] if name in stats else 0.0

    out = {
        "qgravity.moment_set.s": total("qgravity.moment_set"),
        "qgravity.moment_set.calls": calls("qgravity.moment_set"),
        "qgravity.sweep.s": total("qgravity.sweep"),
        "qgravity.mc.s": total("qgravity.mc_matrix_oracle"),
        "qgravity.mc.observable_s": total("qgravity.mc.observable"),
        "qgravity.partial_zu.s": total("qgravity.partial_Zu"),
        "geometry.curvature_2form.s": total("geometry.curvature_2form"),
        "forms.d.calls": calls("forms.d"),
        "forms.wedge.calls": calls("forms.DiffForm.wedge"),
        "algebra.mul.calls": calls("algebra.AlgElem.__mul__",
                                   "algebra.AlgElem.__rmul__"),
        "scalars.ops": calls(*("scalars.ParamScalar." + op
                               for op in PARAM_OPS)),
        "monopole.s": agg["layer_incl"]["monopole"],
        "verify.run_suite.s": total("verify.run_suite"),
        "run.cpu_s": cpu_s,
        "tracing.overhead_s": traced_wall - untraced_wall,
    }
    samples = extra.get("mc_samples", 0)
    out["qgravity.mc.us_per_sample"] = (
        1e6 * out["qgravity.mc.s"] / samples if samples else 0.0)
    out["qgravity.mc.accept_ratio"] = (
        extra["mc_accepted"] / samples if samples else 0.0)
    reports = agg["durations"].get("geometry.report", [])
    if len(reports) >= 2:
        deciles = statistics.quantiles(reports, n=10)
        out["geometry.report.ms_p50"] = 1e3 * statistics.median(reports)
        out["geometry.report.ms_p90"] = 1e3 * deciles[8]
    else:
        out["geometry.report.ms_p50"] = out["geometry.report.ms_p90"] = 0.0
    for layer in tracing.LAYERS:
        out[layer + ".self_s"] = agg["layer_self"][layer]
        out[layer + ".calls"] = agg["layer_calls"][layer]
    cli_calls = 0
    for name in CLI_SPANS:
        durs = agg["durations"].get("cli." + name, [])
        out["cli.%s_s" % name] = sum(durs, 0.0)
        cli_calls += len(durs)
    out["cli.calls"] = cli_calls
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=["setup", "timed", "traced"])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(fuzzyqrg.__file__).resolve().parent.parent != src:
        sys.exit("fuzzyqrg was imported from %s, not from %s"
                 % (fuzzyqrg.__file__, src))

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, tiny=args.tiny, corrupt=args.corrupt, root=str(ROOT),
             env=dict(os.environ))
    chk = workloads.Checks()
    null = tracing.NullTracer()
    if cls.warmup:
        wl.run_pass(chk, null)
        chk.take_digest()
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    start = time.perf_counter()
    digests = []

    def one_pass(tr):
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        extra = wl.run_pass(chk, tr)
        wall = time.perf_counter() - t0
        digests.append(chk.take_digest())
        return wall, cpu_seconds() - c0, extra

    def more(walls):
        # start another pass only if it should end within the budget
        elapsed = time.perf_counter() - start
        return elapsed + statistics.median(walls) <= args.seconds

    wall, untraced_cpu, _ = one_pass(null)
    walls = [wall]
    if args.mode == "timed":
        while more(walls):
            walls.append(one_pass(null)[0])
        result["peak_rss_mb"] = peak_rss_mb(
            children=args.workload == "cli-cold")
    else:
        tr = tracing.Tracer()
        result["wrapped_bindings"] = tr.install(fuzzyqrg)
        traced, per_pass = [], []
        while not traced or more(traced):
            wall, _, extra = one_pass(tr)
            traced.append(wall)
            per_pass.append(layer_metrics(tr.take(), extra, wall, walls[0],
                                          untraced_cpu))
        counts = [{k: v for k, v in m.items() if isinstance(v, int)}
                  for m in per_pass]
        chk.expect(all(c == counts[0] for c in counts),
                   "traced call counts differ between passes")
        result["per_layer"] = {
            k: (per_pass[0][k] if isinstance(per_pass[0][k], int)
                else statistics.median(m[k] for m in per_pass))
            for k in per_pass[0]}
        result["traced_walls"] = traced
        spans_dir = ROOT / "perfbench" / "out"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / ("spans-%s-seed%d.jsonl"
                                  % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            for s in tr.spans:
                fh.write(json.dumps(s) + "\n")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tr.spans)

    chk.expect(all(d == digests[0] for d in digests),
               "outputs differ between passes")
    result.update({
        "walls": walls, "digest": digests[0],
        "attempted": chk.attempted, "failed": chk.failed,
        "failures": chk.failures,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

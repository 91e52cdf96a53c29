"""fuzzyqrg benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in fresh processes as a closed loop with one client: a
fixed list of calls into fuzzyqrg's public functions, one after another, no
threads, every output checked.  ``--trace 0`` prints the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` prints its per-layer metrics, from a run
that wraps the package's public functions (see tracer.py).  ``--workload
all`` runs every workload in turn.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is run from the checkout's ``src`` with ``FUZZYQRG_THREADS``
unset.  Exit code 2: the checkout holds no fuzzyqrg source, or a worker
failed; no result is printed then.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
WORKLOADS = ("deep-cutoff", "moderate-cutoff", "exact-geometry", "cli-cold")
SETUP_SAMPLES = 3     # processes whose set-up time is measured, per run
BUDGET_S = 170        # one workload's run must end within 180 s


class BenchError(Exception):
    pass


def source_digest():
    """sha256 of the package source: names the program measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """The commit of the checkout, read without running git (the checkout
    need not be a repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = None
        self.env = dict(os.environ)
        self.threads_was_set = (
            self.env.pop("FUZZYQRG_THREADS", None) is not None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def worker(self, workload, mode):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--mode", mode]
        cmd += ["--tiny"] * self.args.tiny + ["--corrupt"] * self.args.corrupt
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before %s %s"
                             % (workload, mode))
        spawned = time.monotonic()
        # a session of its own, so that a timeout also ends the CLI
        # processes a worker has started
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("%s %s did not end within the time budget"
                             % (workload, mode))
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError("%s %s worker failed (exit %d):\n%s"
                             % (workload, mode, proc.returncode,
                                stderr[-2000:]))
        out = json.loads(lines[-1])
        out["setup_s"] = out["ready"] - spawned
        return out

    def run(self, workload):
        self.deadline = time.monotonic() + BUDGET_S
        if self.args.trace:
            return self.worker(workload, "traced"), []
        setups = [self.worker(workload, "setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        main = self.worker(workload, "timed")
        return main, setups + [main["setup_s"]]


def check_digest(workload, tiny, digest):
    """Numerical outputs must be bit-identical across runs of one program:
    the first run stores the digest of its outputs, later runs compare."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    key = "%s%s/%s" % (workload, "-tiny" if tiny else "", source_digest())
    if key not in known:
        known[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return known[key] == digest


def percentile_note(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return "n=%d: no percentile has ten samples beyond it" % n
    pct = 100 * (n - 10) // n
    return "n=%d, p%d=%.6g" % (n, pct, sorted(values)[n - 11])


def report(workload, main, setups, bench, args, runner):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]
             + bench["per_layer"]}
    attempted = main["attempted"] + 1
    failed = main["failed"]
    if not check_digest(workload, args.tiny, main["digest"]):
        failed += 1
        main["failures"].append("outputs differ from an earlier run")
    if args.trace:
        values = main["per_layer"]
        names = [m["name"] for m in bench["per_layer"]]
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(main["walls"]),
                  "peak_rss_mb": main["peak_rss_mb"]}
        names = [m["name"] for m in bench["end_to_end"]]
    if sorted(values) != sorted(names):
        raise BenchError("metrics %s do not match BENCHMARK.json %s"
                         % (sorted(values), sorted(names)))
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    env = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "git_commit": git_commit(),
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": main["python"], "numpy": main["numpy"],
        "FUZZYQRG_THREADS": "unset (was set in the caller's environment)"
        if runner.threads_was_set else "unset", "PYTHONHASHSEED": "0",
    }
    print("# %s seed=%d trace=%d" % (workload, args.seed, args.trace))
    if args.trace:
        print("#   passes: untraced %.4f s, traced %s s"
              % (main["walls"][0], ", ".join("%.4f" % w
                                              for w in main["traced_walls"])))
        print("#   %d bindings wrapped, %d spans written to %s"
              % (main["wrapped_bindings"], main["spans"], main["spans_file"]))
    else:
        print("#   setup_s     %.4f s  (median of %d processes: %s)"
              % (values["setup_s"], len(setups),
                 ", ".join("%.4f" % s for s in setups)))
        print("#   wall_s      %.4f s  (median pass; %s)"
              % (values["wall_s"], percentile_note(main["walls"])))
        print("#   peak_rss_mb %.1f MB" % values["peak_rss_mb"])
    print("#   fail_frac   %.6g  (%d of %d checks failed)"
          % (failed / attempted, failed, attempted))
    for f in main["failures"]:
        print("#   FAILED: %s" % f)
    print("# result " + json.dumps({"env": env, "walls": main["walls"],
                                    "setups": setups}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Benchmark of fuzzyqrg; see BENCHMARK.json.")
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the self-test")
    ap.add_argument("--corrupt", action="store_true",
                    help="spoil one reference value, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fuzzyqrg" / "__init__.py").is_file():
        print("error: no fuzzyqrg source under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = Runner(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: report(n, *runner.run(n), bench, args, runner)
                   for n in names}
    except BenchError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if args.workload == "all":
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s/%s" % (n, k): v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

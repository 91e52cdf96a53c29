"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Checks, for every workload:

1. every metric named in BENCHMARK.json is emitted with its unit, in both
   the timed and the traced run, and the output checks pass;
2. traced counts are identical across two fresh processes;
3. a corrupted reference value drives fail_frac above 0, so the checks can
   fail;

and that the benchmark exits non-zero without a result in a directory that
holds only BENCHMARK.json and the benchmark.  Exit code 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1", "--tiny"]


def bench(workload, *extra, cwd=ROOT):
    proc = subprocess.run([sys.executable] + RUN + ["--workload", workload]
                          + list(extra), cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}
    problems = []

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            problems.append(what)

    for w in [x["name"] for x in spec["workloads"]]:
        code, res, proc = bench(w, "--trace", "0")
        if res is None:
            expect(False, "%s: no result (exit %d)\n%s"
                   % (w, code, proc.stderr[-2000:]))
            continue
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(code == 0 and got == want["end_to_end"],
               "%s: end-to-end metrics and units" % w)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               "%s: output checks pass (%d attempted)" % (w, res["attempted"]))

        counts = []
        for _ in range(2):
            code, res, _ = bench(w, "--trace", "1")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(code == 0 and got == want["per_layer"] and res["correct"],
                   "%s: per-layer metrics and units" % w)
            counts.append({k: v["value"] for k, v in res["metrics"].items()
                           if v["unit"] == "count"})
        expect(counts[0] == counts[1],
               "%s: traced counts identical in two processes" % w)

        code, res, _ = bench(w, "--trace", "0", "--corrupt")
        expect(code == 0 and res["failed"] > 0 and not res["correct"],
               "%s: a corrupted reference fails (%d of %d checks failed)"
               % (w, res["failed"], res["attempted"]))

    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, res, _ = bench("deep-cutoff", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and res is None,
           "without the program's source: exit %d, no result" % code)

    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

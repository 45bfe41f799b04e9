"""End-to-end benchmark of tracesim.

    python3 e2ebench/run.py --workload decide|invariants|linalg \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs to be installed.  The
request list is built from ``--seed``; its length is fixed per workload and
does not depend on ``--seconds``.  A pass sends the whole list, block by
block, to a worker process, a single closed-loop client (``worker.py``).
``decide`` and ``linalg`` keep one worker for every pass; ``invariants``
starts a fresh one per pass, so every pass pays word enumeration once, as a
CLI call does.

``--trace 0`` prints the end-to-end metrics.  Passes follow one another
until the next one would end after ``--seconds`` (at least ``MIN_PASSES``).
A request's latency is the upper decile (``LATENCY_QUANTILE``) of its
timings over the passes.  The host's speed mostly sits at a slow level, with
short fast spells that some runs meet and others do not (see NOTES.md); the
least timing, the median or the mean then depends on how much fast time a run
happened to get, while the upper decile stays with the slow level.  Set-up
time is sampled by cold starts (fresh interpreter, ``import tracesim``, one
tiny decision) between passes, one every ``SETUP_PERIOD_S`` seconds, and
reported as their median.

``--trace 1`` runs the list ``TRACE_PASSES`` times in a traced worker and as
often in an untraced one, alternating, and prints the per-layer metrics
(summed over the traced passes) plus the tracing overhead: the traced
in-request time over the untraced one, minus one, each taken per request as
the same quantile of its passes (the middle one of three).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status is 0 on a complete
run; anything else, such as a checkout without ``src/tracesim``, exits
non-zero before printing it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".e2ebench_out")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import gen  # noqa: E402

MIN_PASSES = 5
# A request's latency: this quantile of its timings over the passes.  The
# host sits at its slow level most of the time; the upper decile follows that
# level, where the least timing or the median follows how much fast time a
# run happened to meet (NOTES.md, Host drift).
LATENCY_QUANTILE = 0.9
SETUP_PERIOD_S = 4.0
MIN_SETUP_SAMPLES = 7
TRACE_PASSES = 3
COLD_START = (
    "import tracesim as t\n"
    "q = t.tuple_from_dict({'field': 'rational', 'n': 2, 'd': 1,"
    " 'matrices': [['1', '2', '3', '4']]})\n"
    "f = t.tuple_from_dict({'field': 'float64', 'n': 2, 'd': 1,"
    " 'matrices': [[1.0, 2.0, 3.0, 4.0]]})\n"
    "assert t.gl_similar(q, q).is_similar and t.gl_similar(f, f).is_similar\n"
)
_RANK = {checks.CORRECT: 0, checks.WRONG: 1, checks.FAILED: 2}


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS would start a second busy thread on a 2-core host.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cold_start_s(env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_START], env=env, cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Lane:
    """Passes of one kind, traced or not, and the replies they got.

    With ``fresh`` every pass runs in a new worker process; otherwise one
    worker serves every pass of the lane.
    """

    def __init__(self, env, fresh, trace=0, spans_path=None):
        self.env = env
        self.fresh = fresh
        self.trace = trace
        self.spans_path = spans_path
        self.proc = None
        self.passes = []  # per pass, the replies in list order
        self.summaries = []  # per worker, its closing summary

    def _start(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")], env=self.env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1)
        self._send({"trace": self.trace, "spans": self.spans_path})

    def _send(self, doc):
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()

    def _recv(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited with status %s" % self.proc.wait())
        return json.loads(line)

    def run_pass(self, blocks):
        """Send the whole list, block by block, and keep the replies."""
        if self.proc is None:
            self._start()
        replies = []
        for block in blocks:
            self._send(block)
            replies.extend(self._recv())
        self.passes.append(replies)
        if self.fresh:
            self.finish()

    def finish(self):
        if self.proc is None:
            return
        self._send(None)
        self.summaries.append(self._recv())
        self.proc.stdin.close()
        status = self.proc.wait()
        self.proc.stdout.close()
        self.proc = None
        if status:
            raise RuntimeError("worker exited with status %d" % status)

    def kill(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None

    def merged(self):
        """Per request, its latency and worst outcome over the passes."""
        return [request_result(rs) for rs in zip(*self.passes)]

    def replies(self):
        return [r for replies in self.passes for r in replies]

    def ref_ms(self):
        return [ms for s in self.summaries for ms in s["ref_ms"]]

    def threads(self):
        return max(s["threads"] for s in self.summaries)


def tail_latency(latencies, beyond=10):
    """(value, percentile) of the highest percentile with ``beyond`` samples past it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def request_result(timings):
    """One request over its passes: the upper decile of its times, its worst outcome.

    That is the ``int(LATENCY_QUANTILE * (k - 1))``-th of the k sorted times;
    a request that failed in any pass has no latency (infinite).
    """
    worst = max(timings, key=lambda r: _RANK[r["outcome"]])
    failed = worst["outcome"] == checks.FAILED
    times = sorted(r["ms"] for r in timings)
    return {"id": worst["id"], "cat": worst["cat"], "outcome": worst["outcome"],
            "certified": all(r["certified"] for r in timings),
            "ms": math.inf if failed else times[int(LATENCY_QUANTILE * (len(times) - 1))],
            "error": worst["error"]}


def end_to_end(merged, setup, lane):
    """The seven end-to-end metrics; a failed request counts as missing the tail."""
    n = len(merged)
    lat = [r["ms"] for r in merged]
    ok = [ms for ms in lat if ms != math.inf]
    tail, pct = tail_latency(lat)
    print("latency tail: p%.3f of %d samples (10 beyond it) = %.4f ms" % (pct, n, tail))
    return {
        "throughput_rps": (len(ok) / (sum(ok) / 1000.0), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "certified_share": (sum(r["certified"] for r in merged) / n, "share"),
        "correct_share": (sum(r["outcome"] == checks.CORRECT for r in merged) / n, "share"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(s["rss_mb"] for s in lane.summaries), "MB"),
    }


def per_layer(plain, traced, plain_s, traced_s):
    import tracer  # only the traced run loads the tracer
    raws = [s["trace"] for s in traced.summaries]
    metrics = {name: (value, unit) for name, value, unit in tracer.layer_metrics(raws)}
    metrics["host.ref_loop_ms"] = (statistics.median(plain.ref_ms() + traced.ref_ms()), "ms")
    metrics["host.worker_threads"] = (traced.threads(), "count")
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    absent = raws[-1]["absent"]
    metrics["trace.absent_functions"] = (len(absent), "count")
    print("absent (reported with calls = 0): %s" % (", ".join(absent) or "none"))
    print("spans kept: %d" % sum(r["spans"] for r in raws))
    return metrics


def report_outcomes(results):
    """Print wrong and failed answers by category; True when none is unexpected."""
    by_cat = {}
    for r in results:
        if r["outcome"] != checks.CORRECT:
            key = (r["outcome"], r["cat"])
            by_cat[key] = by_cat.get(key, 0) + 1
    unexpected = False
    for (outcome, cat), count in sorted(by_cat.items()):
        known = outcome == checks.WRONG and checks.is_known_defect(cat)
        unexpected |= outcome == checks.WRONG and not known
        print("%s %s x%d%s" % (outcome, cat, count, " (known defect)" if known else ""))
    for r in results:
        if r["error"]:
            print("error in %s (%s): %s" % (r["id"], r["cat"], r["error"].splitlines()[0]),
                  file=sys.stderr)
    return not unexpected


def _blas(env):
    return " ".join("%s=%s" % (v, env[v]) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))


def _in_request_s(replies):
    return sum(r["ms"] for r in replies if r["ms"] != math.inf) / 1000.0


def run_untraced(args, env):
    blocks = gen.build(args.workload, args.seed)
    cold_start_s(env)  # writes bytecode caches; not a sample
    deadline = time.perf_counter() + args.seconds
    lane = Lane(env, gen.FRESH_WORKER_PER_PASS[args.workload])
    setup, pass_s = [], []
    last_setup = time.perf_counter()
    try:
        while len(lane.passes) < MIN_PASSES or time.perf_counter() + max(pass_s) < deadline:
            t0 = time.perf_counter()
            lane.run_pass(blocks)
            if time.perf_counter() - last_setup >= SETUP_PERIOD_S:
                setup.append(cold_start_s(env))
                last_setup = time.perf_counter()
            pass_s.append(time.perf_counter() - t0)
        lane.finish()
    finally:
        lane.kill()
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(cold_start_s(env))
    merged = lane.merged()

    ref = lane.ref_ms()
    print("workload=%s seed=%d blocks=%d requests=%d passes=%d workers=%d"
          % (args.workload, args.seed, len(blocks), len(merged), len(lane.passes),
             len(lane.summaries)))
    print("in-request seconds by pass: %s; upper decile per request: %.3f"
          % (" ".join("%.3f" % _in_request_s(p) for p in lane.passes), _in_request_s(merged)))
    print("host.ref_loop_ms=%.4f (median of %d probes; quartiles %s)"
          % (statistics.median(ref), len(ref),
             " ".join("%.4f" % q for q in statistics.quantiles(ref, n=4))))
    print("worker threads=%d with %s" % (lane.threads(), _blas(env)))
    print("setup samples (s): %s" % " ".join("%.4f" % s for s in setup))
    correct = report_outcomes(merged)
    replies = lane.replies()
    failed = sum(r["outcome"] == checks.FAILED for r in replies)
    return correct, len(replies), failed, end_to_end(merged, setup, lane)


def run_traced(args, env):
    blocks = gen.build(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    if os.path.exists(spans):
        os.remove(spans)  # workers append to it
    fresh = gen.FRESH_WORKER_PER_PASS[args.workload]
    plain, traced = Lane(env, fresh), Lane(env, fresh, 1, spans)
    try:
        for i in range(TRACE_PASSES):
            for lane in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                lane.run_pass(blocks)
        plain.finish()
        traced.finish()
    finally:
        plain.kill()
        traced.kill()
    plain_s, traced_s = _in_request_s(plain.merged()), _in_request_s(traced.merged())
    print("workload=%s seed=%d blocks=%d requests=%d passes=%d+%d"
          " in-request traced=%.3fs untraced=%.3fs"
          % (args.workload, args.seed, len(blocks), len(traced.passes[0]), TRACE_PASSES,
             TRACE_PASSES, traced_s, plain_s))
    print("worker threads=%d with %s" % (traced.threads(), _blas(env)))
    print("spans written to %s" % os.path.relpath(spans, ROOT))
    replies = plain.replies() + traced.replies()
    correct = report_outcomes(replies)  # every pass of both lanes
    failed = sum(r["outcome"] == checks.FAILED for r in replies)
    return correct, len(replies), failed, per_layer(plain, traced, plain_s, traced_s)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tracesim", "__init__.py")):
        print("error: %s holds no tracesim sources" % SRC, file=sys.stderr)
        return 2
    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics = runner(args, worker_env())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

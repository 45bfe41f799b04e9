"""Benchmark worker: one process, one closed-loop client.

Protocol on stdin/stdout, one JSON document per line:

    -> {"trace": 0 | 1, "spans": path or null}     configuration
    -> [request, ...]                                  a block; replies with
    <- [{"id", "ms", "outcome", "certified", "error"}, ...]
    -> null                                            end; replies with
    <- {"rss_mb", "threads", "ref_ms": [...], "trace": {...} or null}

Each request is parsed and answered through tracesim's public API inside
the timed region; the next request starts only after the reply has been
judged.  Between requests, at most every ``REF_PERIOD_S``, a fixed
pure-Python loop is timed as a probe of host speed (``host.ref_loop_ms``).
It is reported beside the metrics and never divides one.

The tracer is imported only when ``trace`` is 1, so the untraced run loads
none of it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import checks

REF_PERIOD_S = 0.25
REF_ITERATIONS = 20000


def ref_loop_ms() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


def execute(ts, req):
    """Run one request through tracesim; returns the reply the judge reads."""
    op = req["op"]
    parse = ts.tuple_from_dict
    if op == "gl_similar":
        return ts.gl_similar(parse(req["x"]), parse(req["y"]))
    if op == "orthogonal_witness":
        return ts.orthogonal_witness(parse(req["x"]), parse(req["y"]))
    if op == "run_fixture":
        fixture = next(fx for fx in ts.load_corpus() if fx.name == req["name"])
        return ts.run_fixture(fixture)
    if op == "fingerprint":
        x, y = parse(req["x"]), parse(req["y"])
        fx = ts.fingerprint(x, req["degree"], include_star=req["star"])
        fy = ts.fingerprint(y, req["degree"], include_star=req["star"])
        equal, diff = ts.fingerprints_equal(fx, fy)
        items = list(fx.items())
        sample = [items[0], items[len(items) // 2], items[-1]]
        return equal, diff, [(w.codes, v) for w, v in sample]
    if op == "specht_equivalent":
        return ts.specht_equivalent(parse(req["x"]), parse(req["y"]))
    if op == "sylvester_unique":
        return ts.sylvester_unique(parse(req["a"])[0], parse(req["b"])[0])
    if op == "sylvester_solve":
        return ts.sylvester_solve(parse(req["a"])[0], parse(req["b"])[0], parse(req["c"])[0])
    if op == "char_poly":
        return ts.char_poly_from_traces(parse(req["a"])[0])
    if op == "resultant":
        p = ts.char_poly_from_traces(parse(req["a"])[0])
        q = ts.char_poly_from_traces(parse(req["b"])[0])
        return ts.resultant(p, q)
    if op in ("units", "check_epsilon"):
        units = parse(req["units"])
        root = int(round(units.d ** 0.5))
        family = [[units[i * root + j] for j in range(root)] for i in range(root)]
        if op == "check_epsilon":
            return ts.check_epsilon(family)
        system = ts.UnitSystem.from_family(family)
        cs = parse(req["coeffs"])
        coeffs = [[cs[i * root + j] for j in range(root)] for i in range(root)]
        return ts.theta_embedding(system, coeffs)
    if op == "commutant":
        return ts.commutant(list(parse(req["x"])))
    if op == "subring":
        return ts.extract_subring_coefficients(list(parse(req["x"])))
    raise ValueError("unknown op %r" % op)


def thread_count() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return -1


class Worker:
    def __init__(self, ts, tracer=None):
        self.ts = ts
        self.tracer = tracer
        self.ref_ms = []
        self.last_probe = time.perf_counter()

    def run_block(self, block):
        out = []
        for req in block:
            if self.tracer is not None:
                self.tracer.request_id = req["id"]
            error = None
            t0 = time.perf_counter()
            try:
                reply = execute(self.ts, req)
            except Exception as exc:  # a failed request is counted, not fatal
                ms = (time.perf_counter() - t0) * 1000.0
                error = "%s: %s" % (type(exc).__name__, exc)
                outcome, certified = checks.FAILED, False
                if not isinstance(exc, self.ts.TracesimError):
                    error += "\n" + traceback.format_exc()
            else:
                ms = (time.perf_counter() - t0) * 1000.0
                outcome, certified = checks.judge(req, reply)
            out.append({"id": req["id"], "cat": req["cat"], "ms": ms, "outcome": outcome,
                        "certified": certified, "error": error})
            if time.perf_counter() - self.last_probe >= REF_PERIOD_S:
                self.ref_ms.append(ref_loop_ms())
                self.last_probe = time.perf_counter()
        return out


def main():
    config = json.loads(sys.stdin.readline())
    import tracesim as ts
    tracer = None
    if config["trace"]:
        from tracer import Tracer, install_tracesim
        tracer = Tracer()
        install_tracesim(tracer)
    worker = Worker(ts, tracer)
    for line in sys.stdin:
        block = json.loads(line)
        if block is None:
            break
        print(json.dumps(worker.run_block(block)), flush=True)
    summary = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": thread_count(),
        "ref_ms": worker.ref_ms,
        "trace": None,
    }
    if tracer is not None:
        summary["trace"] = tracer.summary()
        if config.get("spans"):
            tracer.write_spans(config["spans"])
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()

"""Tests of the benchmark itself: seeded inputs, judging, span arithmetic.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q e2ebench
"""

import hashlib
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _digest_in_fresh_process(workload, seed, hashseed):
    code = ("import hashlib, sys; sys.path.insert(0, %r); import gen; "
            "print(hashlib.sha256(gen.dump(gen.build(%r, %d))).hexdigest())"
            % (HERE, workload, seed))
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_requests(workload):
    a = _digest_in_fresh_process(workload, 7, 1)
    b = _digest_in_fresh_process(workload, 7, 2)
    assert a == b
    assert hashlib.sha256(gen.dump(gen.build(workload, 7))).hexdigest() == a
    assert hashlib.sha256(gen.dump(gen.build(workload, 8))).hexdigest() != a


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_mix_does_not_depend_on_seed(workload):
    def cats(seed):
        return [r["cat"] for blk in gen.build(workload, seed) for r in blk]
    assert cats(1) == cats(2)
    assert len(gen.build(workload, 1)) == gen.LIST_BLOCKS[workload]


def test_every_invariants_kind_sees_both_truths():
    seen = {r["cat"] for blk in gen.build("invariants", 5) for r in blk}
    for op in ("fingerprint", "specht"):
        for kind in gen.KINDS:
            assert {"%s/%s/True" % (op, kind), "%s/%s/False" % (op, kind)} <= seen


def _first(workload, op, pred=lambda r: True):
    for blk in gen.build(workload, 3):
        for r in blk:
            if r["op"] == op and pred(r):
                return r
    raise AssertionError("no %s request" % op)


def _answer(req):
    import tracesim
    import worker
    return worker.execute(tracesim, req)


def test_flipped_similarity_verdict_is_wrong():
    req = _first("decide", "gl_similar", lambda r: r["truth"]["similar"])
    verdict = _answer(req)
    assert checks.judge(req, verdict) == (checks.CORRECT, True)
    flipped = SimpleNamespace(verdict="not_similar", witness=None)
    assert checks.judge(req, flipped)[0] == checks.WRONG

    neg = _first("decide", "orthogonal_witness", lambda r: not r["truth"]["similar"])
    assert checks.judge(neg, _answer(neg))[0] == checks.CORRECT
    claim = SimpleNamespace(verdict="equivalent", witness=None, intertwiner=None)
    assert checks.judge(neg, claim)[0] == checks.WRONG


def test_bad_witness_is_wrong():
    req = _first("decide", "gl_similar",
                 lambda r: r["truth"]["similar"] and r["x"]["field"] == "rational")
    verdict = _answer(req)
    bogus = verdict.witness.scale(2) + verdict.witness.identity(
        verdict.witness.field, verdict.witness.rows)
    assert checks.judge(req, SimpleNamespace(verdict="similar", witness=bogus))[0] == checks.WRONG


def test_flipped_fingerprint_and_sylvester_answers_are_wrong():
    req = _first("invariants", "fingerprint", lambda r: r["x"]["field"] == "rational")
    equal, diff, values = _answer(req)
    assert checks.judge(req, (equal, diff, values))[0] == checks.CORRECT
    assert checks.judge(req, (not equal, diff, values))[0] == checks.WRONG

    req = _first("linalg", "sylvester_unique", lambda r: r["a"]["field"] == "rational")
    unique = _answer(req)
    assert checks.judge(req, unique)[0] == checks.CORRECT
    assert checks.judge(req, not unique)[0] == checks.WRONG


def test_known_defects_are_named_by_category():
    assert checks.is_known_defect("fingerprint/float64/True")
    assert checks.is_known_defect("sylvester_unique/float64/True")
    assert not checks.is_known_defect("fingerprint/rational/True")
    assert checks.is_known_defect("gl_similar/float64/pos")
    assert not checks.is_known_defect("gl_similar/float64/hard_neg")
    assert not checks.is_known_defect("gl_similar/rational/pos")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_self_time_arithmetic():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def leaf():
        clock.now += 2.0

    def kernel():
        clock.now += 0.5

    leaf_w = t.wrap("leaf", leaf, tracer.SPAN)
    kernel_w = t.wrap("kernel", kernel, tracer.TIMED)
    count_w = t.wrap("mul", lambda: None, tracer.COUNT)

    def middle():
        clock.now += 1.0
        leaf_w()
        kernel_w()
        count_w()
        count_w()
        clock.now += 1.0

    middle_w = t.wrap("middle", middle, tracer.SPAN)

    def top():
        clock.now += 3.0
        middle_w()
        leaf_w()

    t.wrap("top", top, tracer.SPAN)()
    # top: 3 own + middle (1 + 2 + 0.5 + 1 = 4.5) + leaf 2 = 9.5 in all
    got = {name: st.self_s for name, st in t.stats.items()}
    assert got == {"leaf": 4.0, "kernel": 0.5, "mul": 0.0, "middle": 2.0, "top": 3.0}
    assert t.stats["leaf"].calls == 2 and t.stats["mul"].calls == 2
    # from span records alone, the untimed-record kernel stays in middle's self time
    assert tracer.self_times(t.spans) == {"leaf": 4.0, "middle": 2.5, "top": 3.0}
    assert [s[1] for s in t.spans] == ["top", "middle", "leaf", "leaf"]
    assert t.spans[2][4] == 1 and t.spans[3][4] == 0 and t.spans[0][4] == -1


def test_span_is_closed_when_the_call_raises():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def boom():
        clock.now += 1.5
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom, tracer.SPAN)()
    assert t.stats["boom"].calls == 1 and t.stats["boom"].self_s == 1.5
    assert t._stack == []


def test_missing_names_are_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "SPEC", [
        ("no_such_module", "decide", tracer.SPAN, None),
        ("intertwiner", "no_such_function", tracer.SPAN, None),
        ("matrices", "Matrix.no_such_method", tracer.COUNT, None),
    ])
    t = tracer.Tracer()
    tracer.install_tracesim(t)
    summary = t.summary()
    assert summary["absent"] == ["no_such_module.decide", "intertwiner.no_such_function",
                                 "matrices.Matrix.no_such_method"]
    metrics = {name: value for name, value, _ in tracer.layer_metrics([summary])}
    assert metrics == {"no_such_module.decide.calls": 0, "no_such_module.decide.self_ms": 0.0,
                       "intertwiner.no_such_function.calls": 0,
                       "intertwiner.no_such_function.self_ms": 0.0,
                       "matrices.Matrix.no_such_method.calls": 0}


def test_untraced_worker_imports_no_tracer():
    code = ("import sys; sys.path[:0] = [%r, %r]; import run, worker; "
            "print('tracer' in sys.modules)" % (HERE, os.path.join(ROOT, "src")))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layer = [m["name"] for m in bench["per_layer"]]
    extra = ["host.ref_loop_ms", "host.worker_threads", "trace.overhead_share",
             "trace.absent_functions"]
    assert layer == [n for n, _ in tracer.metric_names()] + extra
    assert {m["name"] for m in bench["end_to_end"]} == {
        "throughput_rps", "latency_p50_ms", "latency_tail_ms", "certified_share",
        "correct_share", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)


def test_layer_metrics_sum_workers_and_share_hits():
    summaries = [
        {"stats": {"intertwiner.find_invertible": (3, 1.5, {"hits": 1})}},
        {"stats": {"intertwiner.find_invertible": (1, 0.5, {"hits": 1})}},
    ]
    metrics = {name: value for name, value, _ in tracer.layer_metrics(summaries)}
    assert metrics["intertwiner.find_invertible.calls"] == 4
    assert metrics["intertwiner.find_invertible.self_ms"] == 2.0
    assert metrics["intertwiner.find_invertible.hit_share"] == 0.5
    assert metrics["matrices.Matrix.det.calls"] == 0


def test_request_result_takes_upper_decile_and_worst_outcome():
    a = {"id": "0.1", "cat": "c", "outcome": checks.CORRECT, "certified": True, "ms": 5.0,
         "error": None}
    passes = [dict(a, ms=float(ms)) for ms in range(20, 0, -1)]
    assert run.request_result(passes)["ms"] == 18.0  # int(0.9 * 19) = 17th of 1..20
    assert run.request_result(passes[:3])["ms"] == 19.0  # the middle of 20, 19, 18
    merged = run.request_result(passes + [dict(a, ms=1.0, outcome=checks.WRONG,
                                               certified=False)])
    assert merged["outcome"] == checks.WRONG and not merged["certified"]
    failed = run.request_result([a, dict(a, outcome=checks.FAILED, error="E: x")])
    assert failed["outcome"] == checks.FAILED and failed["ms"] == float("inf")


def test_tail_latency_has_ten_samples_beyond():
    lat = list(range(100, 0, -1))
    value, pct = run.tail_latency(lat)
    assert value == 90 and pct == 90.0
    assert sum(v > value for v in lat) == 10

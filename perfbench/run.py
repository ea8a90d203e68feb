"""Closed-loop benchmark of polarlink's report pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  One client sends one request at a time (run_compute followed by
canonical_json) in a single thread.  A run sends the workload's request
list (workloads.py) in a fixed number of passes, one after the other, each
in a fresh interpreter that this process starts and waits for, and starts
no new pass after S seconds.  Every report is checked.  A request's latency
and CPU time are its slowest over the passes: on a shared host that is the
reading that repeats from run to run (README.md).
The last line of output is one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced pass (--trace 1).
--smoke runs one pass of the first request.  Run state (digests of earlier
reports, a log of runs, span dumps) goes to ./.perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

STATE_DIR = ".perfbench"
SETUP_SAMPLES = 11
PROBE_SAMPLES = 5

END_TO_END_UNITS = {
    "reports_per_s": "1/s",
    "report_p50_s": "s",
    "report_tail_s": "s",
    "ok_share": "ratio",
    "cpu_s_per_report": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Failure causes that mean the program answered wrongly, as opposed to not
# answering in time or reporting an unstable profile.
WRONG_ANSWER = {
    "oracle-mismatch",
    "gamma-closed-form",
    "true-betti-rejected",
    "engine-nondeterministic",
    "digest-mismatch",
    "input-rejected",
    "exception",
}


class DeadlineExceeded(BaseException):
    """Raised from the interval timer.  A BaseException, so that no
    `except Exception` inside the program can swallow it."""


@dataclass
class Outcome:
    """One execution of one request; index is its place in the workload list."""

    index: int
    latency: float
    cpu: float
    code: int | None = None
    text: str | None = None
    causes: list = field(default_factory=list)

    def doc(self):
        return None if self.text is None else json.loads(self.text)


# --- loading the program ---------------------------------------------------


def load_program(root):
    """Import polarlink from root/src; None when the checkout lacks it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "polarlink", "report.py")):
        return None
    sys.path.insert(0, src)
    import polarlink
    from polarlink import ideals, link, oracle, parse, polar, report

    if not os.path.realpath(polarlink.__file__).startswith(os.path.realpath(src) + os.sep):
        return None
    return {
        "ideals": ideals,
        "link": link,
        "oracle": oracle,
        "parse": parse,
        "polar": polar,
        "report": report,
    }


# --- one pass ----------------------------------------------------------------


class Alarm:
    """SIGALRM-driven per-request deadline, enforced from this process."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.tracer is not None:
            self.tracer.deadline_fired()
        raise DeadlineExceeded()

    @staticmethod
    def arm(seconds):
        signal.setitimer(signal.ITIMER_REAL, seconds)

    @staticmethod
    def disarm():
        signal.setitimer(signal.ITIMER_REAL, 0)


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def pass_indices(requests, first):
    """The requests a pass sends: all of them in the first pass, the ones
    not marked `once` in every later pass."""
    return [i for i, req in enumerate(requests) if first or not req.once]


def run_pass(requests, indices, deadline_s, report, tracer=None):
    """Send the requests one at a time, each under the deadline.  A request
    that hits the deadline is kept, timed at the deadline."""
    run_compute, canonical_json = report.run_compute, report.canonical_json
    if tracer is not None:
        run_compute, canonical_json = tracer.entry_points
    alarm = Alarm(tracer)
    outcomes = []
    for index in indices:
        req = requests[index]
        cfg = report.RunConfig(
            poly_text=req.poly,
            varnames=req.varnames,
            trials=req.trials,
            seed=req.seed,
            bound=req.bound,
            betti=req.betti,
            components=req.components,
        )
        if tracer is not None:
            tracer.start_request(index)
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            alarm.arm(deadline_s)
            try:
                doc, code = run_compute(cfg)
                text = canonical_json(doc)
            finally:
                alarm.disarm()
        except DeadlineExceeded:
            outcomes.append(Outcome(index, deadline_s, cpu_seconds() - c0, causes=["deadline"]))
            continue
        except Exception:
            outcomes.append(Outcome(index, time.perf_counter() - t0, cpu_seconds() - c0, causes=["exception"]))
            continue
        outcomes.append(Outcome(index, time.perf_counter() - t0, cpu_seconds() - c0, code, text))
    return outcomes


def spawn_pass(root, args, first):
    """Run one pass in a fresh interpreter and collect its outcomes.  A pass
    that runs far past the window is killed, and the run fails."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--worker",
        "first" if first else "later",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=60 + 2 * args.seconds)
    if done.returncode != 0:
        raise RuntimeError(f"pass failed: {done.stderr.strip()}")
    return [Outcome(**json.loads(line)) for line in done.stdout.splitlines()]


# --- correctness -----------------------------------------------------------


def _engine_fields(doc):
    return json.dumps(
        {k: doc.get(k) for k in ("gamma", "lambda", "stability", "oracles")},
        sort_keys=True,
    )


def check(outcomes, requests, digests):
    """Attach failure causes to every outcome.

    digests maps a request key to the SHA-256 of its canonical JSON from
    earlier runs and passes; new keys are added to it.
    """
    engine_seen = {}
    for out in outcomes:
        doc = out.doc()
        if doc is None:
            continue
        req, code = requests[out.index], out.code
        causes = out.causes
        if "error" in doc:
            kind = doc["error"]["kind"]
            causes.append("engine-error" if kind == "engine" else "input-rejected")
        else:
            if not doc["oracles"]["all_passed"]:
                causes.append("oracle-mismatch")
            if not doc["stability"]["stable"]:
                causes.append("unstable-profile")
            if code == 0:
                if req.expect_gamma is not None and tuple(doc["gamma"]) != req.expect_gamma:
                    causes.append("gamma-closed-form")
                feas = doc["feasibility"]
                if req.true_betti and not (feas and feas["all_passed"]):
                    causes.append("true-betti-rejected")
            fields = _engine_fields(doc)
            previous = engine_seen.setdefault(req.engine_key(), fields)
            if previous != fields:
                causes.append("engine-nondeterministic")
        if code != 0 and not causes:
            causes.append(f"exit-{code}")
        key = json.dumps(req.key())
        digest = hashlib.sha256(out.text.encode()).hexdigest()
        if digests.setdefault(key, digest) != digest:
            causes.append("digest-mismatch")


# --- state kept in the checkout --------------------------------------------


def _load_json(path, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def _save_json(path, data):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
    os.replace(tmp, path)


# --- measurements ------------------------------------------------------------


def speed_probe():
    """Median time of a fixed pure-Python loop: recorded beside each run so
    a reader can tell host drift from a program change.  Not folded into
    any metric."""
    times = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        acc = {}
        for i in range(200_000):
            k = i & 1023
            acc[k] = acc.get(k, 0) + i * 7 % 13
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_setup(root, args):
    """Median wall time from starting a fresh interpreter to the first
    request being ready (polarlink imported, workload generated)."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0 or done.stdout.strip() != "ready":
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    return statistics.median(times)


def tail_rank(n):
    """Rank (0-based, ascending) of the highest percentile with at least ten
    samples beyond it (the maximum when there are ten samples or fewer)."""
    return n - 11 if n > 10 else n - 1


def order_statistic(values, rank, width=5):
    """Mean of the `width` order statistics centred on `rank`, shifted to
    stay inside the sample, so that no single request's timing moves the
    statistic on its own."""
    ordered = sorted(values)
    lo = min(max(rank - width // 2, 0), max(len(ordered) - width, 0))
    window = ordered[lo : lo + width]
    return sum(window) / len(window)


@dataclass
class Slowest:
    """A request's slowest execution over the passes that sent it.  It is ok
    only when every execution passed every check; a failed request counts at
    the deadline in the latency metrics."""

    ok: bool
    latency: float  # as the latency metrics count it
    spent: float  # wall time it took, whether or not it failed
    cpu: float


def slowest_per_request(outcomes, deadline_s):
    runs = defaultdict(list)
    for o in outcomes:
        runs[o.index].append(o)
    slowest = {}
    for index, outs in runs.items():
        ok = not any(o.causes for o in outs)
        spent = max(o.latency for o in outs)
        slowest[index] = Slowest(ok, spent if ok else deadline_s, spent, max(o.cpu for o in outs))
    return slowest


def end_to_end(slowest, setup_s):
    values = list(slowest.values())
    ok = sum(b.ok for b in values)
    latencies = [b.latency for b in values]
    n = len(latencies)
    values = {
        "reports_per_s": ok / sum(b.spent for b in values),
        "report_p50_s": order_statistic(latencies, (n - 1) // 2),
        "report_tail_s": order_statistic(latencies, tail_rank(n)),
        "ok_share": ok / len(values),
        "cpu_s_per_report": statistics.mean(b.cpu for b in values),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(tracer, outcomes, untraced, requests):
    """The traced pass's layer metrics (see README.md for what each moves).
    untraced holds the same pass run without tracing, for the overhead."""
    s = tracer.summary()
    calls, busy, self_s = s["calls"], s["busy"], s["self"]
    c = tracer.counters
    engine_keys = set()
    repeats = 0
    valid = slots = 0
    json_bytes = []
    for o in outcomes:
        key = requests[o.index].engine_key()
        repeats += key in engine_keys
        engine_keys.add(key)
        doc = o.doc()
        if doc is not None and "stability" in doc:
            rows = doc["stability"]["per_trial"]
            valid += sum(v is not None for row in rows for v in row)
            slots += sum(len(row) for row in rows)
        if o.text is not None:
            json_bytes.append(len(o.text.encode()))

    def share(num, den):
        return num / den if den else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("ideals.saturate.calls", calls["ideals.saturate"], "count")
    put("ideals.saturate.busy_s", busy["ideals.saturate"], "s")
    put("ideals.saturate.rounds", c["ideals.saturate.rounds"], "count")
    put("ideals.mora_standard_basis.calls", calls["ideals.mora_standard_basis"], "count")
    put("ideals.mora_standard_basis.busy_s", busy["ideals.mora_standard_basis"], "s")
    put(
        "ideals.mora_standard_basis.repeat_share",
        share(c["ideals.mora_standard_basis.repeats"], calls["ideals.mora_standard_basis"]),
        "ratio",
    )
    put("ideals.local_colength.calls", calls["ideals.local_colength"], "count")
    put("ideals.local_colength.busy_s", busy["ideals.local_colength"], "s")
    put("polar.gamma_profile.self_s", self_s["polar.gamma_profile"], "s")
    put("polar.polar_ideal.calls", calls["polar.polar_ideal"], "count")
    put("polar.polar_ideal.busy_s", busy["polar.polar_ideal"], "s")
    put(
        "polar.polar_ideal.distinct_share",
        share(c["polar.polar_ideal.distinct"], calls["polar.polar_ideal"]),
        "ratio",
    )
    put("polar.frame_valid_share", share(valid, slots), "ratio")
    put("oracle.stable_colength.calls", calls["oracle.stable_colength"], "count")
    put("oracle.stable_colength.busy_s", busy["oracle.stable_colength"], "s")
    put("oracle.stable_colength.max_cap", c["oracle.stable_colength.max_cap"], "count")
    put("oracle.teissier_check.calls", calls["oracle.teissier_check"], "count")
    put("oracle.teissier_check.busy_s", busy["oracle.teissier_check"], "s")
    put("oracle.teissier_check.deadline_hits", tracer.deadline_spans["oracle.teissier_check"], "count")
    put("parse.parse_polynomial.busy_s", busy["parse.parse_polynomial"], "s")
    put("link.busy_s", s["layer_busy"]["link"], "s")
    put("report.canonical_json.busy_s", busy["report.canonical_json"], "s")
    put("report.json_bytes", statistics.mean(json_bytes) if json_bytes else 0.0, "bytes")
    put("report.run_compute.self_s", self_s["report.run_compute"], "s")
    put("report.engine_repeat_share", share(repeats, len(outcomes)), "ratio")
    for layer in ("parse", "polar", "ideals", "oracle", "link", "report"):
        put(f"{layer}.self_s", s["layer_self"][layer], "s")
    put("trace.spans", len(tracer.spans), "count")
    traced_s = sum(o.latency for o in outcomes)
    untraced_s = sum(o.latency for o in untraced)
    put("trace.request_s", traced_s, "s")
    put("trace.untraced_request_s", untraced_s, "s")
    put("trace.overhead_s", traced_s - untraced_s, "s")
    put("trace.unattributed_s", traced_s - s["roots_s"], "s")
    return m


# --- modes -----------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run one pass of the first request")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--worker", choices=("first", "later"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_passes(root, args, requests, passes):
    """The untraced run: up to `passes` passes.  A later pass is started
    only if, at the length of the previous one (its `once` requests left
    out), it would end inside the window."""
    outcomes = []
    start = time.perf_counter()
    done = 0
    while done < passes:
        latest = spawn_pass(root, args, done == 0)
        outcomes += latest
        done += 1
        later_s = sum(o.latency for o in latest if not requests[o.index].once)
        if time.perf_counter() - start + later_s > args.seconds:
            break
    return outcomes, done


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    program = load_program(root)
    if program is None:
        print("perfbench: no polarlink sources under ./src; run from a checkout root", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline_s = workloads.DEADLINE_S[args.workload]
    passes = workloads.PASSES[args.workload]
    requests = workloads.build(args.workload, args.seed)
    if args.smoke:
        requests = [r for r in requests if not r.once][:1]
        passes = 1
    if args.setup_probe:
        print("ready")
        return 0
    report = program["report"]
    if args.worker:
        for o in run_pass(requests, pass_indices(requests, args.worker == "first"), deadline_s, report):
            print(json.dumps(asdict(o)))
        return 0

    state = os.path.join(root, STATE_DIR)
    os.makedirs(state, exist_ok=True)
    probe_s = speed_probe()
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(program)
        untraced = spawn_pass(root, args, True)
        outcomes = run_pass(requests, pass_indices(requests, True), deadline_s, report, tracer)
        checked = outcomes + untraced
        done = 1
    else:
        setup_s = measure_setup(root, args)
        outcomes, done = run_passes(root, args, requests, passes)
        checked = outcomes

    digests_path = os.path.join(state, "digests.json")
    digests = _load_json(digests_path, {})
    check(checked, requests, digests)
    _save_json(digests_path, digests)

    slowest = slowest_per_request(outcomes, deadline_s)
    if args.trace:
        metrics = per_layer(tracer, outcomes, untraced, requests)
        tracer.write(os.path.join(state, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = end_to_end(slowest, setup_s)

    failed = sum(1 for o in checked if o.causes)
    correct = not any(WRONG_ANSWER.intersection(o.causes) for o in checked)
    tail_pct = 100.0 * (tail_rank(len(slowest)) + 1) / len(slowest)
    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": len(requests),
        "passes": done,
        "attempted": len(checked),
        "deadline_s": deadline_s,
        "tail_percentile": tail_pct,
        "tail_samples": len(slowest),
        "failure_causes": Counter(c for o in checked for c in o.causes),
        "failed_requests": [
            {"poly": requests[i].poly, "seed": requests[i].seed, "family": requests[i].family}
            for i, r in sorted(slowest.items())
            if not r.ok
        ],
        "speed_probe_s": probe_s,
    }
    if args.trace:
        notes["deadline_innermost_spans"] = tracer.deadline_innermost
    with open(os.path.join(state, "runs.jsonl"), "a", encoding="utf-8") as fh:
        per_request = [[o.index, requests[o.index].poly, o.latency, o.cpu, o.causes] for o in checked]
        fh.write(json.dumps({"notes": notes, "metrics": metrics, "requests": per_request}) + "\n")
    print(json.dumps({"perfbench": notes}))
    print(json.dumps({"correct": correct, "attempted": len(checked), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

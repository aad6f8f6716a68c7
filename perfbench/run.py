#!/usr/bin/env python3
"""Benchmark of the twistknot library and command line.

    python3 perfbench/run.py --workload certify|derive|enumerate --seed N \\
        --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory, and the run fails without printing a result when that is
missing.  Each workload is a closed loop with one caller: the next operation
starts when the previous one returns, and every result is checked against the
independent oracle in ``oracle.py``.

``--trace 0`` repeats the run's operations in passes for ``--seconds``
seconds and reports the end-to-end metrics.  ``--trace 1`` runs the same
operations twice, untraced and then with spans around every public function
(``spans.py``), sends one operation through ``twistknot.cli.main``, and times
the scaling curves (``curves.py``); it reports the per-layer metrics.  The metric names and units
are those of ``BENCHMARK.json``.  The line before the last describes the run
(seed, revision, coset budget, sample counts, error rate, and the end-to-end
timings before scaling by the reference loop); the last line is the
result, ``{"correct", "attempted", "failed", "metrics"}``.  The traced run also
writes its spans to ``.perfbench_out/trace-<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
#: Fresh interpreters timed for ``setup_s`` and ``cli.process_ms``; one more is
#: started first and discarded, so byte-code compilation is not counted.  The
#: ``setup_s`` ones are spread evenly over the run, so that their median sees
#: the host's typical speed over the whole run, not that of one moment.
SETUP_SPAWNS = 9
PROCESS_SPAWNS = 5
PROCESS_ARGV = ["-m", "twistknot", "bound", "--u", "-1", "--v", "0"]
PROCESS_STDOUT = "4\n"
#: Iterations of the reference loop, about 0.15 ms of interpreter work.
REFERENCE_LOOP = 2000
#: The reference loop's typical time on the 2-vCPU host the benchmark was
#: written on.  End-to-end timings are given at the speed at which the loop
#: takes this long.
REFERENCE_S = 150e-6


def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics named in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def revision() -> str:
    """Commit of the checkout when it is a git work tree, else ``unknown``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_seconds(args: list[str], stdout: str | None = None) -> float:
    """Wall time of a fresh interpreter running ``args``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or (stdout is not None and done.stdout != stdout):
        raise RuntimeError(f"{args} exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return elapsed


def reference_s() -> float:
    """CPU time of a fixed pure-Python loop that does not touch twistknot.

    The loop runs just before every operation, and the operation's time is
    taken relative to it.  On a shared 2-vCPU host the speed drifts by 15-30 %
    over minutes, for this loop and for twistknot alike, so the ratio holds
    where CPU time and wall time do not.
    """
    start = time.thread_time()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.thread_time() - start


def attempt(run, check) -> tuple[float, object, str | None]:
    """Time ``run()`` and pass its result to ``check``: ``(latency_s, result, error)``.

    The latency is CPU time of the calling thread, so time in which a shared
    host runs other processes instead of this one does not count.
    """
    start = time.thread_time()
    try:
        result = run()
    except Exception as exc:  # a failed operation is counted, the loop goes on
        return time.thread_time() - start, None, f"raised {exc!r}"
    latency = time.thread_time() - start
    try:
        check(result)
    except Exception as exc:  # an oracle mismatch, or a library error inside a check
        return latency, result, str(exc) or repr(exc)
    return latency, result, None


def fingerprint(result):
    if isinstance(result, tuple):
        return [fingerprint(r) for r in result]
    return result.to_json() if hasattr(result, "to_json") else result


def digest(result) -> str:
    return hashlib.sha256(json.dumps(fingerprint(result), sort_keys=True).encode()).hexdigest()


def timings(latencies: list[float]) -> dict:
    """Closed-loop throughput and latency percentiles of per-operation latencies."""
    return {"ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000}


def measure(workload, ops: list, seconds: float, rng: random.Random) -> tuple[dict, dict, list[str]]:
    """Untraced closed loop: end-to-end metrics, run description, failures.

    The loop runs every operation once, then keeps running them in passes,
    each in a new seeded order, until ``seconds`` of wall time have gone by.
    Each run of an operation is timed in CPU time against the reference loop
    (``reference_s``) run just before it, and the operation's latency is the
    median of these ratios times ``REFERENCE_S``: its time at a fixed host
    speed.  ``setup_s`` is scaled by the run's median reference time in the
    same way.  The figures before scaling are in the run description.
    ``ops_per_s`` is the throughput of a closed loop over all operations at
    those latencies.
    """
    from oracle import expect

    probe = ["-c", f"import twistknot as tk, twistknot.cli\n"
                   f"twistknot.cli.build_parser()\n{workload.warmup}"]
    spawn_seconds(probe)
    setup: list[float] = []
    runs_of: dict[tuple, list[tuple[float, float]]] = {}
    digests: dict[tuple, str] = {}
    resolved: dict[tuple, bool] = {}
    failures: list[str] = []
    pending: list[tuple] = []
    runs = 0
    start = time.perf_counter()
    deadline = start + seconds
    while runs < len(ops) or time.perf_counter() < deadline:
        if (len(setup) < SETUP_SPAWNS
                and time.perf_counter() >= start + seconds * len(setup) / SETUP_SPAWNS):
            setup.append(spawn_seconds(probe))
        if not pending:
            pending = rng.sample(ops, len(ops))
        op = pending.pop()
        reference = reference_s()
        if op not in digests:
            latency, result, error = attempt(partial(workload.run, op),
                                             partial(workload.check, op))
            digests[op] = digest(result)
            if not error and (done := workload.resolved(op, result)) is not None:
                resolved[op] = done
        else:
            # every later run must repeat the checked result of the first
            latency, result, error = attempt(
                partial(workload.run, op),
                lambda r, op=op: expect(digest(r) == digests[op],
                                        "result differs from the first run"))
        runs += 1
        runs_of.setdefault(op, []).append((latency, reference))
        if error:
            failures.append(f"{op}: {error}")
    setup += [spawn_seconds(probe) for _ in range(SETUP_SPAWNS - len(setup))]
    reference = statistics.median(r for pairs in runs_of.values() for _, r in pairs)
    scaled = [statistics.median(t / r for t, r in runs_of[op]) * REFERENCE_S for op in ops]
    unscaled = [statistics.median(t for t, _ in runs_of[op]) for op in ops]
    p90 = statistics.quantiles(scaled, n=10)[-1]
    finite = [resolved[op] for op in ops if op in resolved]
    metrics = {
        **timings(scaled),
        "setup_s": statistics.median(setup) * REFERENCE_S / reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # workloads without finite fillings leave nothing unresolved
        "resolved_share": sum(finite) / len(finite) if finite else 1.0,
    }
    info = {
        "reference_ms": reference * 1000,
        "unscaled": {**timings(unscaled), "setup_s": statistics.median(setup)},
        "runs_per_operation": runs / len(ops),
        "samples": len(scaled),
        "samples_beyond_p90": sum(1 for x in scaled if x > p90),
        "setup_spawns": SETUP_SPAWNS,
        "finite_fillings": len(finite),
        "attempted": runs,
        "error_rate": len(failures) / runs,
    }
    return metrics, info, failures


def traced(workload, ops: list, seed: int) -> tuple[dict, dict, list[str]]:
    """Traced run of the operations: per-layer metrics, run description, failures."""
    import twistknot.cli

    import curves
    from oracle import expect
    from spans import TARGETS, Tracer

    base = [attempt(partial(workload.run, op), partial(workload.check, op)) for op in ops]
    failures = [f"{op}: {error}" for op, (_, _, error) in zip(ops, base) if error]

    tracer = Tracer()
    traced_s = 0.0
    with tracer.installed():
        for i, (op, (_, expected, _)) in enumerate(zip(ops, base)):
            tracer.op = i
            latency, _, error = attempt(
                partial(workload.run, op),
                lambda r, want=digest(expected): expect(
                    digest(r) == want, "traced result differs from the untraced one"))
            traced_s += latency
            if error:
                failures.append(f"{op}: traced: {error}")
    untraced_s = sum(latency for latency, _, _ in base)

    # one operation that passed its checks goes through the command line,
    # in-process, and must print what the library call returned
    cli_tracer = Tracer()
    passed = [(op, result) for op, (_, result, error) in zip(ops, base) if not error]
    argv = workload.cli(passed[0][0]) if passed else None
    if passed:
        expected_stdout = json.dumps(workload.payload(passed[0][1]), indent=2,
                                     sort_keys=True) + "\n"
        captured = io.StringIO()
        with cli_tracer.installed(), redirect_stdout(captured):
            cli_tracer.op = "cli"
            with cli_tracer.span("cli.main"):
                status = twistknot.cli.main(argv)
        if status != 0 or captured.getvalue() != expected_stdout:
            failures.append(f"cli {argv}: exit {status}, stdout differs from the library result")
    else:
        failures.append("cli: no operation passed its checks, so none was sent through cli.main")
    process_s = statistics.median(
        [spawn_seconds(PROCESS_ARGV, PROCESS_STDOUT) for _ in range(PROCESS_SPAWNS + 1)][1:])

    curve_values, curve_record, curve_failures = curves.measure(ROOT)
    failures += curve_failures

    n = len(ops)
    self_ns = tracer.self_ns()
    counts = tracer.counts
    metrics = {}
    for mod, attr, _ in TARGETS:
        name = f"{mod}.{attr.rsplit('.', 1)[-1]}"
        metrics[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / n
    for name in ("words.substitute.runs_out", "words.is_conjugate.calls",
                 "words.cyclic_reduce.calls", "words.substitute.calls",
                 "criterion.match_it_shape.calls", "criterion.match_it_shape.shapes_found",
                 "coset_enum.cosets_defined"):
        metrics[name] = counts[name]
    for outcome in ("finished", "exceeded"):
        ns = counts[f"coset_enum.{outcome}.ns"]
        metrics[f"coset_enum.{outcome}_cosets_per_s"] = (
            counts[f"coset_enum.{outcome}.cosets"] / (ns / 1e9) if ns else 0.0)
    metrics["cli.main.self_ms"] = cli_tracer.self_ns().get("cli.main", 0) / 1e6
    metrics["cli.process_ms"] = process_s * 1000
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1
    metrics.update(curve_values)

    info = {
        "attempted": n + 1,  # the workload's operations and the CLI one
        "spans": len(tracer.spans),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "cli_argv": argv,
        "curves": curve_record,
        "curve_timeout_s": curves.TIMEOUT_S,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}.json"
    path.write_text(json.dumps({
        **info,
        "workload": workload.name,
        "seed": seed,
        "ops": [list(op) for op in ops],
        "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
        "spans": tracer.spans + cli_tracer.spans,
        "counts": dict(counts),
        "metrics": metrics,
    }))
    info["spans_file"] = str(path.relative_to(ROOT))
    return metrics, info, failures


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark and return the result object; prints the run description."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import twistknot
    import workloads

    if Path(twistknot.__file__).resolve().parent != SRC / "twistknot":
        raise RuntimeError(f"twistknot imported from {twistknot.__file__}, not from {SRC}")
    end_to_end, per_layer = declared_metrics()
    rng = random.Random(seed)
    bench = workloads.WORKLOADS[workload](rng)
    ops = bench.ops()
    exec(bench.warmup, {"tk": twistknot})
    if trace:
        values, info, failures = traced(bench, ops, seed)
        units = per_layer
    else:
        values, info, failures = measure(bench, ops, seconds, rng)
        units = end_to_end
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    for error in failures[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({"workload": workload, "seed": seed, "trace": int(trace),
                      "revision": revision(), "coset_budget": workloads.COSET_BUDGET,
                      "closed_loop_callers": 1, **info}, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": info["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "derive", "enumerate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twistknot" / "__init__.py").is_file():
        print(f"perfbench: no twistknot sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

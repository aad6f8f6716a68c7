"""Scaling curves: how single public functions grow with exponent, u and v.

Each point runs in its own interpreter, so one slow or memory-hungry point
cannot disturb the next.  ``measure`` starts one child per point and kills a
child that runs past the per-point limit; such a point is recorded as
``"timeout"`` and kept, and the grid stays the same size.  Run
``python3 perfbench/curves.py <metric>`` (with ``src`` on ``PYTHONPATH``) to
time one point; it prints the median milliseconds per call.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Per-point time limit of a child, in seconds.
TIMEOUT_S = 10.0
#: Address-space cap of a child; keeps a runaway point from exhausting memory.
MEMORY_CAP_BYTES = 2 << 30
#: ``u`` of the verify_proof curve, which varies ``v``.
VERIFY_U = 5

NAMES = (
    [f"words.is_conjugate.e{k}_ms" for k in range(1, 7)]
    + [f"words.cyclic_reduce.e{k}_ms" for k in range(1, 7)]
    + [f"presentations.alexander_polynomial.u{k}_ms" for k in range(1, 6)]
    + [f"twisted_torus.verify_proof.v{v}_ms" for v in (10, 20, 40, 80)]
    + [f"criterion.match_it_shape.u{u}_ms" for u in (10, 30, 100, 300, 1000)]
)


def _point(name: str):
    """Return ``(call, check)`` for one curve point; ``check`` validates the result."""
    import twistknot as tk

    curve, size = name.rsplit(".", 1)[0], int(name.rsplit(".", 1)[1][1:-3])
    if curve.startswith("words."):
        n = 10**size
        conjugated = tk.word(("b", 1), ("a", n), ("b", -1))
        power = tk.word(("a", n))
        if curve == "words.is_conjugate":
            return (lambda: tk.is_conjugate(conjugated, power)), (lambda r: r is True)
        return conjugated.cyclic_reduce, (lambda r: r[0] == power)
    if curve == "presentations.alexander_polynomial":
        pres = tk.closed_form(tk.TwistParams(10**size, 0)).presentation
        return (lambda: tk.alexander_polynomial(pres)), (lambda r: not r.is_zero())
    if curve == "twisted_torus.verify_proof":
        params = tk.TwistParams(VERIFY_U, size)
        return (lambda: tk.verify_proof(params)), (lambda r: r.check(8).passed)
    pres = tk.closed_form(tk.TwistParams(size, 0)).presentation
    return (lambda: tk.match_it_shape(pres)), (lambda r: bool(r))


def _child(name: str) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    call, check = _point(name)
    times = []
    while not times or (len(times) < 5 and sum(times) < 0.2):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
        if not check(result):
            print(f"{name}: wrong result", file=sys.stderr)
            return 1
    print(json.dumps(statistics.median(times) * 1000))
    return 0


def point(root: Path, name: str) -> tuple[float, object, str | None]:
    """Time one point in a child: ``(value, record, failure)``.

    ``value`` is milliseconds per call, or for a child that was stopped or
    failed, the wall time until then; ``record`` is the value or ``"timeout"``;
    ``failure`` describes a child that failed.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, __file__, name], cwd=root, env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return (time.perf_counter() - start) * 1000, "timeout", None
    if done.returncode != 0:
        elapsed = (time.perf_counter() - start) * 1000
        return elapsed, elapsed, f"{name}: {done.stderr.strip()[-200:]}"
    value = json.loads(done.stdout)
    return value, value, None


def measure(root: Path) -> tuple[dict, dict, list[str]]:
    """Time every point: ``(values, record, failures)`` keyed by metric name."""
    values, record, failures = {}, {}, []
    for name in NAMES:
        values[name], record[name], failure = point(root, name)
        if failure:
            failures.append(failure)
    return values, record, failures


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1]))

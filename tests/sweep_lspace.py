"""L-space consistency of the certified bounds, member by member.

An L-space knot's Alexander polynomial has nonzero coefficients ±1 that
alternate in sign, and its L-space surgery slopes are exactly those at least
2g - 1 = deg Δ - 1 (Ozsváth-Szabó, Topology 2005).  By the L-space conjecture
(Boyer-Gordon-Watson) a non-left-orderable filling is an L-space, so wherever
``minimal_integer_bound`` certifies an integer slope, the member should be an
L-space knot and the bound at least deg Δ - 1.  The polynomial comes from Fox
calculus (``alexander_polynomial``), not from the paper's formulas.

``check_member(u, v)`` returns the failed checks for one member and the
smallest margin ``bound - (deg Δ - 1)`` over the longitudes with a bound
(``None`` when neither has one, in which case nothing is checked).

Tier-1 runs it on a seeded sample of ``SAMPLE_BOX`` and the corners of
``BOX`` (``test_criterion.py``).  Run as a script, it checks every member of
the box and prints the failures, the member counts, the smallest margin and
the wall time; it exits 1 if any member failed:

    PYTHONPATH=src python tests/sweep_lspace.py
"""

from __future__ import annotations

import random
import sys
import time

from twistknot.criterion import CriterionError, minimal_integer_bound
from twistknot.presentations import alexander_polynomial
from twistknot.twisted_torus import TwistParams, closed_form

#: the parameter box: u in [-12, 300], v in [0, 20]
BOX = ((-12, 300), (0, 20))
#: tier-1's sample is drawn from this corner of the box, where the members
#: without a bound (u <= -2) and the small ones (u in {-1, 0}) are dense
SAMPLE_BOX = ((-12, 30), (0, 6))


def check_member(u: int, v: int) -> tuple[list[str], int | None]:
    params = TwistParams(u, v)
    bounds = {}
    for use in ("paper", "corrected"):
        try:
            bounds[use] = minimal_integer_bound(params, use)
        except CriterionError:
            pass
    if not bounds:
        return [], None
    delta = alexander_polynomial(closed_form(params).presentation)
    coeffs = [c for _, c in sorted(delta.coeffs.items())]
    failures = []
    if any(abs(c) != 1 for c in coeffs) or any(c == d for c, d in zip(coeffs, coeffs[1:])):
        failures.append(f"Δ = {delta.as_text()} is not an L-space knot's")
    floor = max(delta.coeffs) - 1
    for use, bound in bounds.items():
        if bound < floor:
            failures.append(f"{use} bound {bound} is below deg Δ - 1 = {floor}")
    return failures, min(bounds.values()) - floor


def members(box=BOX) -> list[tuple[int, int]]:
    (umin, umax), (vmin, vmax) = box
    return [(u, v) for u in range(umin, umax + 1) for v in range(vmin, vmax + 1)]


def sample(seed: int, size: int) -> list[tuple[int, int]]:
    """``size`` members of ``SAMPLE_BOX`` drawn with ``seed``, then the corners of ``BOX``."""
    (umin, umax), (vmin, vmax) = BOX
    corners = [(u, v) for u in (umin, umax) for v in (vmin, vmax)]
    return random.Random(seed).sample(members(SAMPLE_BOX), size) + corners


def main() -> int:
    start = time.perf_counter()
    box = members()
    failed = 0
    margins = []
    for u, v in box:
        failures, margin = check_member(u, v)
        if margin is not None:
            margins.append(margin)
        if failures:
            failed += 1
            print(f"({u}, {v}): {'; '.join(failures)}", flush=True)
    elapsed = time.perf_counter() - start
    print(f"{len(box)} members, {len(margins)} with a bound, {failed} failed, "
          f"smallest margin {min(margins, default=None)}, {elapsed:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

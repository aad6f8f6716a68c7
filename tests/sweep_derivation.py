"""Closed form against derivation against proof replay, member by member.

``check_member(u, v)`` returns the list of checks that failed for one member
of the family (empty when all hold):

* the derived relator is conjugate to the closed-form relator or to its
  inverse;
* the derived ``longitude_precorrection`` equals the closed form's;
* ``verify_proof`` fails check 9 and no other, and check 9 only when
  ``u != 0``.

Tier-1 runs it on a seeded sample of ``BOX`` (``test_twisted_torus.py``).
Run as a script, it checks every member of the box and the ``FAR`` members,
and prints the failures, the member count and the wall time; it exits 1 if
any member failed:

    PYTHONPATH=src python tests/sweep_derivation.py
"""

from __future__ import annotations

import random
import sys
import time

from twistknot.twisted_torus import (
    PipelineError,
    TwistParams,
    closed_form,
    derive_from_diagram,
    verify_proof,
)
from twistknot.words import is_conjugate

#: the parameter box: u in [-200, 200], v in [0, 150]
BOX = ((-200, 200), (0, 150))
#: ``v = 0`` members far outside the box; there every derived word holds a
#: few runs however large ``|u|`` is
FAR = [(u, 0) for u in (-(10**12), -(10**6), 10**6, 10**12)]


def check_member(u: int, v: int) -> list[str]:
    params = TwistParams(u, v)
    closed = closed_form(params)
    try:
        derived = derive_from_diagram(params)
    except PipelineError as exc:
        return [f"derivation failed: {exc}"]
    failures = []
    rel_d = derived.presentation.relators[0]
    rel_c = closed.presentation.relators[0]
    if not (is_conjugate(rel_d, rel_c) or is_conjugate(rel_d, rel_c.inverse())):
        failures.append("relator is not conjugate to the closed form or its inverse")
    if derived.longitude_precorrection != closed.longitude_precorrection:
        failures.append("longitude_precorrection differs from the closed form")
    failed = [c.index for c in verify_proof(params).checks if not c.passed]
    if failed != ([9] if u != 0 else []):
        failures.append(f"verify_proof failed checks {failed}")
    return failures


def members() -> list[tuple[int, int]]:
    (umin, umax), (vmin, vmax) = BOX
    return [(u, v) for u in range(umin, umax + 1) for v in range(vmin, vmax + 1)]


def sample(seed: int, size: int) -> list[tuple[int, int]]:
    """The box's four corners plus ``size`` other members drawn with ``seed``."""
    (umin, umax), (vmin, vmax) = BOX
    corners = [(u, v) for u in (umin, umax) for v in (vmin, vmax)]
    rest = [m for m in members() if m not in corners]
    return corners + random.Random(seed).sample(rest, size)


def main() -> int:
    start = time.perf_counter()
    box = members() + FAR
    failed = 0
    for u, v in box:
        failures = check_member(u, v)
        if failures:
            failed += 1
            print(f"({u}, {v}): {'; '.join(failures)}", flush=True)
    elapsed = time.perf_counter() - start
    print(f"{len(box)} members, {failed} failed, {elapsed:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

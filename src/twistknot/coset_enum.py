"""Todd-Coxeter coset enumeration over the trivial subgroup.

The strategy is relator-driven filling with first-undefined-coset selection
and no lookahead; coincidences are processed with an iterative union-find
queue.  Given the same presentation and limit the run is fully deterministic,
and the result carries a hash of the canonically renumbered coset table so
reproductions can be compared across machines.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .presentations import Presentation, PresentationError
from .words import Word

if TYPE_CHECKING:
    from .twisted_torus import KnotGroupModel

DEFAULT_MAX_COSETS = 10**6

# an infinite filling fills its table at about 19.3 MiB and 3 s per 10^6 cosets;
# a larger budget is refused instead of filling memory
MAX_COSET_BUDGET = 10**7

# the enumerator expands relators into single letters; past this many in all,
# a presentation is refused instead of filling memory
MAX_RELATOR_LETTERS = 10**6

STRATEGY = "hlt/first-undefined/no-lookahead"


class _Limit(Exception):
    pass


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one enumeration: ``finished`` with a group order, or
    ``exceeded`` when the coset budget ran out (a result, not a failure)."""

    outcome: str  # "finished" | "exceeded"
    order: Optional[int]
    limit: int
    cosets_defined: int
    trace_hash: str
    strategy: str = STRATEGY

    @property
    def finished(self) -> bool:
        return self.outcome == "finished"

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "order": self.order,
            "limit": self.limit,
            "cosets_defined": self.cosets_defined,
            "trace_hash": self.trace_hash,
            "strategy": self.strategy,
        }


def surgered_presentation(model: KnotGroupModel, slope, use: str = "paper") -> Presentation:
    """Knot group presentation plus the filling relator ``meridian^p longitude^q``.

    ``slope`` is a ``criterion.Slope``; this layer does not import it.
    """
    relator = model.meridian**slope.p * model.longitude(use) ** slope.q
    return Presentation(model.presentation.generators, model.presentation.relators + (relator,))


def _relator_columns(rel: Word, column_of: dict) -> list[int]:
    return [column_of[g] ^ (e < 0) for g, e in rel.runs for _ in range(abs(e))]


def todd_coxeter(p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> EnumerationResult:
    """Enumerate cosets of the trivial subgroup in the presented group.

    ``Finished(order)`` means the table closed with ``order`` live cosets,
    i.e. the group is finite of that order.  ``Exceeded`` means more than
    ``max_cosets`` cosets would have been needed under this strategy.
    """
    if not 1 <= max_cosets <= MAX_COSET_BUDGET:
        raise PresentationError(f"max_cosets must be between 1 and {MAX_COSET_BUDGET}")
    letters = sum(len(r) for r in p.relators)
    if letters > MAX_RELATOR_LETTERS:
        raise PresentationError(
            f"relators have {letters} letters in all; coset enumeration takes at most "
            f"{MAX_RELATOR_LETTERS}"
        )
    gens = p.generators
    if not gens:
        return EnumerationResult(
            "finished", 1, max_cosets, 1, _hash_text("trivial-presentation")
        )
    column_of = {g: 2 * i for i, g in enumerate(gens)}
    ncols = 2 * len(gens)
    relators = [_relator_columns(r, column_of) for r in p.relators if not r.is_identity]

    # column-major tables; coset numbers are 1-based, 0 means undefined.
    # Every nonzero entry table[c][x] = y has its partner table[c ^ 1][y] = x:
    # define and the scan's deduction write both, and new entries only ever
    # fill zero slots.  Processing a dead coset clears both members of each
    # of its pairs, so once coincidence returns no entry names a dead coset
    # and scans follow the table as it stands.  The columns and ``parent``
    # grow in place by doubling, never past ``max_cosets + 1`` rows, so the
    # column arrays bound to each relator below stay the live table.
    table = [array("i", [0, 0]) for _ in range(ncols)]
    parent = array("i", [0, 1])
    rows = 2
    pairs = [(table[c], table[c ^ 1]) for c in range(ncols)]
    # each relator read forward (one column per letter) and backward (the
    # inverse letters' columns), so a scan step indexes once
    scans = [([table[c] for c in rel], [table[c ^ 1] for c in rel]) for rel in relators]
    defined = live = 1

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def define(alpha: int, column: array, partner: array) -> int:
        nonlocal defined, live, rows
        if defined >= max_cosets:
            raise _Limit
        defined += 1
        live += 1
        beta = defined
        if beta == rows:
            # CPython's array over-allocates by 1/16 on each resize, so growing
            # to 16/17 of the target first lets the last rows land in that
            # slack; the columns copy their new zero rows from parent's, so no
            # zero buffer is alive once the whole table has grown
            target = min(2 * rows, max_cosets + 1)
            for size in (max(rows, target * 16 // 17), target):
                parent.frombytes(bytes(parent.itemsize * (size - rows)))
                with memoryview(parent).cast("B")[parent.itemsize * rows:] as zeros:
                    for col in table:
                        col.frombytes(zeros)
                rows = size
        parent[beta] = beta
        column[alpha] = beta
        partner[beta] = alpha
        return beta

    merge_queue: deque[int] = deque()

    def merge(x: int, y: int) -> None:
        nonlocal live
        x, y = find(x), find(y)
        if x == y:
            return
        if x > y:
            x, y = y, x
        parent[y] = x
        live -= 1
        merge_queue.append(y)

    def coincidence(x: int, y: int) -> None:
        merge(x, y)
        while merge_queue:
            dead = merge_queue.popleft()
            for column, partner in pairs:
                target = column[dead]
                if not target:
                    continue
                column[dead] = 0
                if partner[target] == dead:
                    partner[target] = 0
                mu = find(dead)
                nu = find(target)
                existing = column[mu]
                if existing:
                    merge(nu, existing)
                else:
                    mirrored = partner[nu]
                    if mirrored:
                        merge(mu, mirrored)
                    else:
                        column[mu] = nu
                        partner[nu] = mu

    def scan_and_fill(alpha: int, forward: list, backward: list) -> None:
        i, j = 0, len(forward) - 1
        fwd = bwd = alpha
        while True:
            while i <= j:
                nxt = forward[i][fwd]
                if not nxt:
                    break
                fwd = nxt
                i += 1
            if i > j:
                if fwd != bwd:
                    coincidence(fwd, bwd)
                return
            while j >= i:
                nxt = backward[j][bwd]
                if not nxt:
                    break
                bwd = nxt
                j -= 1
            if j < i:
                coincidence(fwd, bwd)
                return
            if j == i:
                forward[i][fwd] = bwd
                backward[i][bwd] = fwd
                return
            fwd = define(fwd, forward[i], backward[i])
            i += 1

    try:
        alpha = 1
        while alpha <= defined:
            if parent[alpha] == alpha:
                for forward, backward in scans:
                    scan_and_fill(alpha, forward, backward)
                    if parent[alpha] != alpha:
                        break
                if parent[alpha] == alpha:
                    for column, partner in pairs:
                        if not column[alpha]:
                            define(alpha, column, partner)
            alpha += 1
    except _Limit:
        digest = _hash_text(f"exceeded:{max_cosets}:{defined}")
        return EnumerationResult("exceeded", None, max_cosets, defined, digest)
    return EnumerationResult("finished", live, max_cosets, defined, _hash_table(table, ncols))


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _hash_table(table, ncols: int) -> str:
    """Hash the closed table after canonical breadth-first renumbering."""
    # coset 1 never dies: merge always keeps the smaller number
    number = {1: 1}
    order_list = [1]
    for coset in order_list:
        for col in range(ncols):
            target = table[col][coset]
            if target and target not in number:
                number[target] = len(order_list) + 1
                order_list.append(target)
    hasher = hashlib.sha256()
    hasher.update(STRATEGY.encode())
    for coset in order_list:
        row = [number.get(table[col][coset], 0) for col in range(ncols)]
        hasher.update(bytes(str(row), "ascii"))
    return hasher.hexdigest()[:16]

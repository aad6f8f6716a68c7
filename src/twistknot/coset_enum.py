"""Todd-Coxeter coset enumeration over the trivial subgroup.

The strategy is relator-driven filling (HLT) with first-undefined-coset
selection and no lookahead, run as one flat loop: each live coset is scanned
against every relator from both ends, the gap is closed by a deduction or a
chain of definitions along the relator, and the coset's empty slots are then
defined.  Coincidences are processed with an iterative union-find queue.
Given the same presentation and limit the run is fully deterministic, and the
result carries a hash of the canonically renumbered coset table so
reproductions can be compared across machines.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Optional

from .presentations import Presentation, PresentationError, add_relators
from .words import Record, is_integer

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


class EnumerationResult(Record):
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


def surgered_presentation(model: KnotGroupModel, slope, use: str = "paper") -> Presentation:
    """Knot group presentation plus the filling relator ``meridian^p longitude^q``.

    ``slope`` is a ``criterion.Slope``; this layer does not import it.
    """
    relator = model.meridian**slope.p * model.longitude(use) ** slope.q
    return add_relators(model.presentation, [relator])


def todd_coxeter(p: Presentation, max_cosets: int = DEFAULT_MAX_COSETS) -> EnumerationResult:
    """Enumerate cosets of the trivial subgroup in the presented group.

    ``Finished(order)`` means the table closed with ``order`` live cosets,
    i.e. the group is finite of that order.  ``Exceeded`` means more than
    ``max_cosets`` cosets would have been needed under this strategy.
    """
    if not is_integer(max_cosets):
        raise PresentationError(f"max_cosets must be an integer, got {max_cosets!r}")
    if not 1 <= max_cosets <= MAX_COSET_BUDGET:
        raise PresentationError(f"max_cosets must be between 1 and {MAX_COSET_BUDGET}")
    letters = sum(abs(e) for r in p.relators for _, e in r.runs)
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

    # column-major tables; coset numbers are 1-based, 0 means undefined.
    # Every nonzero entry table[c][x] = y has its partner table[c ^ 1][y] = x:
    # definitions and the scan's deduction write both, and new entries only
    # ever fill zero slots.  Processing a dead coset clears both members of
    # each of its pairs, so once _coincide returns no entry names a dead coset
    # and scans follow the table as it stands.  The columns and ``parent``
    # grow in place by doubling, never past ``max_cosets + 1`` rows, so the
    # column arrays bound to each relator below stay the live table.
    table = [array("i", [0, 0]) for _ in range(2 * len(gens))]
    parent = array("i", [0, 1])
    rows = 2
    pairs = [(column, table[c ^ 1]) for c, column in enumerate(table)]
    # each relator spelled out letter by letter, read forward (one column per
    # letter) and backward (the inverse letters' columns) so that a scan step
    # indexes once, with the index of its last letter
    spelled = ([column_of[g] ^ (e < 0) for g, e in r.runs for _ in range(abs(e))]
               for r in p.relators if not r.is_identity)
    scans = [([table[c] for c in rel], [table[c ^ 1] for c in rel], len(rel) - 1)
             for rel in spelled]
    defined = alpha = 1
    while alpha <= defined:
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for forward, backward, j in scans:
            fwd = bwd = alpha
            for i, column in enumerate(forward):
                if not (nxt := column[fwd]):
                    break
                fwd = nxt
            else:
                if fwd != alpha:
                    _coincide(parent, pairs, fwd, alpha)
                    if parent[alpha] != alpha:
                        break
                continue
            while True:
                while j >= i and (nxt := backward[j][bwd]):
                    bwd = nxt
                    j -= 1
                if j < i:
                    _coincide(parent, pairs, fwd, bwd)
                    break
                if j == i:
                    forward[i][fwd] = bwd
                    backward[i][bwd] = fwd
                    break
                # definition chain: a fresh coset's one entry points back along
                # letter i, and letter i + 1 is never its inverse (relators are
                # freely reduced), so a forward re-read would stop at once;
                # define on until one letter is left for the deduction above or
                # the backward scan can move again
                while True:
                    defined += 1
                    if defined == rows and not (rows := _grow(table, parent, rows, max_cosets)):
                        return _exceeded(max_cosets)
                    parent[defined] = defined
                    forward[i][fwd] = defined
                    backward[i][defined] = fwd
                    fwd = defined
                    i += 1
                    if i == j or backward[j][bwd]:
                        break
            if parent[alpha] != alpha:
                break
        else:
            # alpha survived every relator: define its empty slots
            for column, partner in pairs:
                if not column[alpha]:
                    defined += 1
                    if defined == rows and not (rows := _grow(table, parent, rows, max_cosets)):
                        return _exceeded(max_cosets)
                    parent[defined] = defined
                    column[alpha] = defined
                    partner[defined] = alpha
        alpha += 1
    order, digest = _canonical_walk(table)
    return EnumerationResult("finished", order, max_cosets, defined, digest)


def _grow(table: list, parent: array, rows: int, max_cosets: int) -> int:
    """Double the rows of ``parent`` and every column, up to ``max_cosets + 1``;
    return the new row count, or 0 when the table is already full."""
    if rows > max_cosets:
        return 0
    # CPython's array over-allocates by 1/16 on each resize, so growing to
    # 16/17 of the target first lets the last rows land in that slack; the
    # columns copy their new zero rows from parent's, so no zero buffer is
    # alive once the whole table has grown
    target = min(2 * rows, max_cosets + 1)
    for size in (max(rows, target * 16 // 17), target):
        parent.frombytes(bytes(parent.itemsize * (size - rows)))
        with memoryview(parent).cast("B")[parent.itemsize * rows:] as zeros:
            for column in table:
                column.frombytes(zeros)
        rows = size
    return rows


def _merge(parent: array, queue: array, x: int, y: int) -> None:
    # x is a root at every call: todd_coxeter reads it from the table, where no
    # entry names a dead coset, and _coincide has just found it as a root; find
    # y's root, halving the path on the way
    while (up := parent[y]) != y:
        parent[y] = y = parent[up]
    if x != y:
        if x > y:
            x, y = y, x
        parent[y] = x
        queue.append(y)


def _coincide(parent: array, pairs: list, x: int, y: int) -> None:
    """Merge ``x``, ``y`` and what that forces, each into the smaller."""
    # the cosets merged away, in order; processing one may append more
    queue = array("i")
    _merge(parent, queue, x, y)
    for dead in queue:
        for column, partner in pairs:
            target = column[dead]
            if not target:
                continue
            # the pair invariant gives partner[target] == dead: an earlier
            # clearing in this call removes that entry only with this pair
            column[dead] = 0
            partner[target] = 0
            mu, nu = dead, target
            while (up := parent[mu]) != mu:
                parent[mu] = mu = parent[up]
            while (up := parent[nu]) != nu:
                parent[nu] = nu = parent[up]
            if existing := column[mu]:
                _merge(parent, queue, nu, existing)
            elif mirrored := partner[nu]:
                _merge(parent, queue, mu, mirrored)
            else:
                column[mu] = nu
                partner[nu] = mu


def _exceeded(max_cosets: int) -> EnumerationResult:
    digest = _hash_text(f"exceeded:{max_cosets}:{max_cosets}")
    return EnumerationResult("exceeded", None, max_cosets, max_cosets, digest)


def _hash_text(text: str) -> str:
    from hashlib import sha256  # on first use: only an enumeration hashes

    return sha256(text.encode()).hexdigest()[:16]


def _canonical_walk(table: list) -> tuple[int, str]:
    """The order of the closed table and its hash after canonical breadth-first
    renumbering.  No entry names a dead coset and every live one is reachable
    from coset 1, so the walk visits exactly the live cosets."""
    # coset 1 never dies: merge always keeps the smaller number
    number = [0] * len(table[0])
    number[1] = 1
    order_list = [1]
    for coset in order_list:
        for column in table:
            target = column[coset]
            if target and not number[target]:
                order_list.append(target)
                number[target] = len(order_list)
    from hashlib import sha256

    hasher = sha256()
    hasher.update(STRATEGY.encode())
    for coset in order_list:
        hasher.update(str([number[column[coset]] for column in table]).encode())
    return len(order_list), hasher.hexdigest()[:16]

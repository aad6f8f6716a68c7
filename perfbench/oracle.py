"""Checks of twistknot results that do not rely on the library or the paper.

Words are handled here as plain ``[name, exponent]`` run lists (the JSON form
the library emits), with their own free reduction and conjugacy test, so a
defect in ``twistknot.words`` cannot hide itself.  Homology classes use the
fact that a two-generator one-relator group whose relator has coprime
exponent sums ``(x, y)`` has H1 = Z, in which a word with exponent sums
``(p, q)`` is null-homologous exactly when ``y*p - x*q == 0``.  Orders of
finite fillings come from Moser's classification of torus-knot surgeries.
"""

from __future__ import annotations

from math import gcd


class OracleError(AssertionError):
    """A result disagrees with its independent check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


# -- free-group words as run lists ---------------------------------------------


def _letters(pairs) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for name, exp in pairs:
        step = 1 if exp > 0 else -1
        out.extend([(name, step)] * abs(exp))
    return out


def _reduce(letters) -> list[tuple[str, int]]:
    stack: list[tuple[str, int]] = []
    for name, sign in letters:
        if stack and stack[-1][0] == name and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((name, sign))
    return stack


def _cyclic_core(pairs) -> list[tuple[str, int]]:
    letters = _reduce(_letters(pairs))
    i, j = 0, len(letters) - 1
    while i < j and letters[i][0] == letters[j][0] and letters[i][1] == -letters[j][1]:
        i += 1
        j -= 1
    return letters[i : j + 1]


def inverse(pairs) -> list[list]:
    return [[name, -exp] for name, exp in reversed(pairs)]


def conjugate(x, y) -> bool:
    """Free-group conjugacy of two run lists: equal cyclic cores up to rotation."""
    cx, cy = _cyclic_core(x), _cyclic_core(y)
    if len(cx) != len(cy):
        return False
    alphabet: dict[tuple[str, int], str] = {}

    def encode(letters) -> str:
        return "".join(alphabet.setdefault(l, chr(0x100 + len(alphabet))) for l in letters)

    sx, sy = encode(cx), encode(cy)
    return sx in sy + sy


def conjugate_or_inverse(x, y) -> bool:
    return conjugate(x, y) or conjugate(x, inverse(y))


def exponent_sum(pairs, name: str) -> int:
    return sum(exp for gen, exp in pairs if gen == name)


def nullhomologous(relator, x, gens=("a", "b")) -> bool:
    """Whether ``x`` is 0 in H1 of <gens | relator>, which must be infinite cyclic."""
    ra, rb = (exponent_sum(relator, g) for g in gens)
    expect(gcd(ra, rb) == 1, f"relator exponent sums {ra}, {rb} do not give H1 = Z")
    xa, xb = (exponent_sum(x, g) for g in gens)
    return rb * xa - ra * xb == 0


def positive(pairs) -> bool:
    return all(exp > 0 for _, exp in pairs)


# -- orders of torus-knot fillings ----------------------------------------------

#: Order of the commutator subgroup of pi1 for the spherical base orbifolds
#: S^2(2,3,k); S^2(2,2,n) gives n.
_SPHERICAL = {(2, 3, 3): 8, (2, 3, 4): 24, (2, 3, 5): 120}


def filling_order(torus: tuple[int, int] | None, p: int, q: int) -> int | None:
    """Order of pi1 of p/q surgery on the torus knot T(r, s), None when infinite.

    ``torus=None`` is the unknot, whose p/q surgery is a lens space of order
    |p|.  For T(r, s) the filling is Seifert fibred over S^2(r, s, k) with
    k = |rsq - p| (Moser 1971): k = 1 gives a lens space, a spherical base
    gives |p| times the order of the commutator subgroup, and k = 0 or a
    Euclidean or hyperbolic base gives an infinite group.
    """
    if torus is None:
        return abs(p) or None
    r, s = torus
    k = abs(r * s * q - p)
    if k == 0:
        return None
    if k == 1:
        return abs(p)
    base = tuple(sorted((r, s, k)))
    if base[:2] == (2, 2):
        return abs(p) * base[2]
    commutator = _SPHERICAL.get(base)
    return abs(p) * commutator if commutator else None

"""The three benchmark workloads: seeded operations and their checks.

``ops`` gives a run's distinct operations.  They cover a fixed grid or catalog
of inputs, and the seed picks offsets, operations and order within it, so runs
with different seeds see nearly the same mix of cheap and expensive operations
and their percentiles agree.  Each workload has at least 100 operations, so at
least 10 lie beyond the 90th percentile.  ``run`` performs one operation
through the library's public API and ``check`` compares its result with the
independent checks in ``oracle``.
"""

from __future__ import annotations

import random

import twistknot as tk

import oracle
from oracle import expect

#: Coset budget of every enumeration in the ``enumerate`` workload.  An
#: exceeded run costs about 2 ms per 1000 cosets, so the budget bounds the
#: longest operations, which must still repeat many times in a run.  The lens
#: fillings 23/4 and 25/4 of T(2,3) need more than 30000 cosets; at this
#: budget they, 29/5 and 31/5 end ``exceeded``.
COSET_BUDGET = 20_000


class Certify:
    """Slope checks near the bound for both longitudes, plus the integer bound."""

    name = "certify"
    warmup = "tk.check_family_slope(tk.TwistParams(0, 0), tk.Slope(5, 1), 'corrected')"
    # matching grows about quadratically in u; stopping at 21 keeps a run's
    # operations short enough for each to be repeated about 20 times
    u_range = (-3, 21)
    v_range = (0, 3)

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def ops(self) -> list[tuple]:
        """One operation for every member of the u x v grid.

        The seed picks each member's longitude and operation: a slope below the
        bound, a slope at or above it, or (for u >= -1) the integer bound.
        Matching the relator dominates all of them, so the cost of a round
        hardly depends on the seed.
        """
        rng = self.rng
        ops = []
        for u in range(self.u_range[0], self.u_range[1] + 1):
            for v in range(self.v_range[0], self.v_range[1] + 1):
                use = rng.choice(("paper", "corrected"))
                kind = rng.choice(("below", "above", "bound") if u >= -1 else ("below", "above"))
                if kind == "bound":
                    ops.append(("bound", u, v, use))
                    continue
                # the bound as stated in the README; it only places the slope
                bound = (2 if use == "paper" else 4) * u + 3 * (3 * v + 2)
                offsets = (-2, -1) if kind == "below" else (0, 1, 2)
                ops.append(("slope", u, v, use, bound + rng.choice(offsets)))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        kind, u, v, use = op[:4]
        params = tk.TwistParams(u, v)
        if kind == "slope":
            return tk.check_family_slope(params, tk.Slope(op[4], 1), use)
        return tk.minimal_integer_bound(params, use)

    def check(self, op, result) -> None:
        kind, u, v, use = op[:4]
        model = tk.closed_form(tk.TwistParams(u, v))
        relator = model.presentation.relators[0].to_pairs()
        w = model.w.to_pairs()
        expect(tk.class_in_h1(model.presentation, model.longitude_corrected) == (0,),
               "class_in_h1 of the corrected longitude is not 0")
        expect(oracle.nullhomologous(relator, model.longitude_corrected.to_pairs()),
               "corrected longitude is not null-homologous")
        expect(oracle.nullhomologous(relator, [["a", -model.s_corrected], *w, ["a", 1]]),
               "s_corrected does not make a^-s w a null-homologous")
        if u >= -1:
            expect(any((s.a.name, s.m, s.n, s.r, s.k) == ("a", 1, 1, u + 1, 1)
                       for s in tk.match_it_shape(model.presentation)),
                   "reference shape (1, 1, u+1, 1) not among the shapes")
        if kind == "bound":
            expected = model.s_value(use) + model.t
            expect(result == expected, f"minimal_integer_bound {result} != s + t = {expected}")
            return
        report = result
        p = op[4]
        if report.shape is not None:
            expect(oracle.conjugate_or_inverse(report.shape.reconstruct().to_pairs(), relator),
                   "shape.reconstruct() is not conjugate to the relator or its inverse")
        expect(report.w_positive_blocks == (u >= -1), "w_positive_blocks disagrees with u >= -1")
        expect(report.w_positive_reduced == oracle.positive(report.w.to_pairs()),
               "w_positive_reduced disagrees with the reduced word")
        s = report.s_paper if use == "paper" else report.s_corrected
        bound = report.bound_paper if use == "paper" else report.bound_corrected
        expect(bound == s + report.t, "reported bound is not s + t")
        if report.shape is None or not report.w_positive_blocks:
            expected = "NotApplicable"
        else:
            expected = "GuaranteedNonLO" if p >= bound else "Unknown"
        expect(report.verdict.kind == expected,
               f"verdict {report.verdict.kind} at {p}/1, expected {expected} (bound {bound})")

    def resolved(self, op, result):
        return None

    def cli(self, op) -> list[str]:
        kind, u, v, use = op[:4]
        if kind == "slope":
            return ["check-slope", "--u", str(u), "--v", str(v), "--p", str(op[4]), "--q", "1",
                    "--longitude", use]
        return ["bound", "--u", str(u), "--v", str(v), "--longitude", use]

    def payload(self, result):
        return result if isinstance(result, int) else result.to_json()


class Derive:
    """Derivation from the diagram, proof replay, homology and Alexander polynomial."""

    name = "derive"
    warmup = "tk.derive_from_diagram(tk.TwistParams(0, 0))"
    u_lattice = range(-12, 13, 2)
    v_lattice = range(0, 16, 2)

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def ops(self) -> list[tuple]:
        """The u x v lattice, each point moved by a seeded offset.

        Every seed covers the same lattice, so the cost hardly depends on it;
        u stays in [-12, 13] and v in [0, 15]; larger members would make
        each operation too long to be repeated about 20 times in a run.
        """
        rng = self.rng
        # offsets smaller than the lattice step keep every operation distinct
        ops = [("member", u + rng.randint(0, 1), v + rng.randint(0, 1))
               for u in self.u_lattice for v in self.v_lattice]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        params = tk.TwistParams(op[1], op[2])
        model = tk.derive_from_diagram(params)
        proof = tk.verify_proof(params)
        h1 = tk.homology(model.presentation)
        delta = tk.alexander_polynomial(model.presentation)
        return model, proof, h1, delta

    def check(self, op, result) -> None:
        _, u, v = op
        model, proof, h1, delta = result
        closed = tk.closed_form(tk.TwistParams(u, v))
        expect(oracle.conjugate_or_inverse(model.presentation.relators[0].to_pairs(),
                                           closed.presentation.relators[0].to_pairs()),
               "derived relator is not conjugate to the closed-form relator or its inverse")
        expect(model.longitude_precorrection == closed.longitude_precorrection,
               "longitude_precorrection differs from the closed form")
        failed = [c.index for c in proof.checks if not c.passed]
        expect(failed == ([] if u == 0 else [9]), f"verify_proof failed checks {failed}")
        expect((h1.torsion_orders, h1.free_rank) == ((), 1), f"H1 of a knot group is not Z: {h1}")
        coeffs = [c for _, c in sorted(delta.coeffs.items())]
        expect(coeffs == coeffs[::-1], "Alexander polynomial is not symmetric")
        expect(abs(sum(coeffs)) == 1, f"Alexander polynomial has value {sum(coeffs)} at 1")

    def resolved(self, op, result):
        return None

    def cli(self, op) -> list[str]:
        return ["generate", "--u", str(op[1]), "--v", str(op[2]), "--mode", "derive"]

    def payload(self, result):
        return result[0].to_json()


#: Family members that are torus knots T(r, s); ``None`` is the unknot.
TORUS = {(0, 0): (2, 3), (1, 0): (2, 5), (0, 1): (3, 5), (0, 2): (3, 8), (-2, 0): None}

#: Every finite p/1 filling of the torus-knot members.
TORUS_FINITE = tuple(
    (member, p, 1)
    for member, torus in TORUS.items() if torus
    for p in range(-40, 41) if p and oracle.filling_order(torus, p, 1)
)
LENS = tuple(((0, 0), p, q) for p, q in ((11, 2), (13, 2), (17, 3), (19, 3), (23, 4), (25, 4),
                                         (29, 5), (31, 5)))
#: Finite p/q fillings of T(2,3) with q > 1 and a non-cyclic group; those with
#: larger q or order end ``exceeded`` at this budget and cost as much as an
#: infinite filling, so they are left out.
SPHERICAL = tuple(((0, 0), p, q) for p, q in ((7, 2), (9, 2), (15, 2), (16, 3), (20, 3)))
#: Infinite fillings: 12/1 of T(2,3) has Euclidean base orbifold S^2(2,3,6),
#: the others hyperbolic ones.
INFINITE = (((0, 0), 12, 1), ((0, 0), 13, 1), ((0, 0), -1, 1), ((0, 0), -2, 1), ((0, 0), -3, 1),
            ((0, 0), -4, 1), ((0, 0), -5, 1), ((0, 0), -6, 1), ((1, 0), 3, 1), ((0, 1), 11, 1),
            ((0, 1), 18, 1), ((0, 2), 22, 1), ((0, 2), 26, 1))


class Enumerate:
    """Coset enumeration of fillings whose group orders are known from theory."""

    name = "enumerate"
    warmup = (f"tk.todd_coxeter(tk.surgered_presentation(tk.closed_form(tk.TwistParams(-2, 0)), "
              f"tk.Slope(3, 1), 'corrected'), {COSET_BUDGET})")
    #: Unknot fillings, which are cheap; they bring the run to 100 operations.
    unknot = 52

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def ops(self) -> list[tuple]:
        """Every catalog filling once, plus unknot fillings with seeded slopes.

        The k-th unknot filling has |p| = 2k + 1 or 2k + 2, so the mix, and
        with it the percentiles, is the same for every seed.
        """
        rng = self.rng
        unknot = tuple(((-2, 0), rng.choice((-1, 1)) * (2 * k + rng.randint(1, 2)), 1)
                       for k in range(self.unknot))
        ops = [("fill", *entry) for entry in TORUS_FINITE + LENS + SPHERICAL + INFINITE + unknot]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        _, (u, v), p, q = op
        model = tk.closed_form(tk.TwistParams(u, v))
        pres = tk.surgered_presentation(model, tk.Slope(p, q), "corrected")
        return tk.todd_coxeter(pres, COSET_BUDGET)

    def check(self, op, result) -> None:
        _, member, p, q = op
        expected = oracle.filling_order(TORUS[member], p, q)
        if result.finished:
            expect(expected is not None, f"infinite filling {member} {p}/{q} finished")
            expect(result.order == expected,
                   f"filling {member} {p}/{q} has order {result.order}, expected {expected}")
        else:
            expect(result.outcome == "exceeded", f"unknown outcome {result.outcome}")

    def resolved(self, op, result):
        """Whether a finite filling finished; None for an infinite one."""
        _, member, p, q = op
        if oracle.filling_order(TORUS[member], p, q) is None:
            return None
        return result.finished

    def cli(self, op) -> list[str]:
        _, (u, v), p, q = op
        return ["enumerate", "--u", str(u), "--v", str(v), "--p", str(p), "--q", str(q),
                "--longitude", "corrected", "--max-cosets", str(COSET_BUDGET)]

    def payload(self, result):
        return result.to_json()


WORKLOADS = {w.name: w for w in (Certify, Derive, Enumerate)}


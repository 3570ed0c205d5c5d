"""Relative magnitudes and their certified matrix-level bounds.

The relative magnitude of a nonzero vector is the ratio of its largest
absolute coordinate to its smallest nonzero absolute coordinate.  For a
matrix it is the minimum over nonzero null vectors, 0 by convention when
the null space is trivial.  The certificate records the circuit-based
upper bound together with the per-clause verdicts of the sharp bound
(norm - 1)^rank and its min-support refinement t, or, for norm <= 2,
of the dichotomy omega in {0, 1} (every circuit has ratio 1).

omega_matrix_upper takes the rank as the column count minus the length of
nullspace_basis(A) and the circuits from enumerate_circuits(A).  Both
keep their result on the matrix, so A is eliminated and walked once,
however many times it is asked for its omega and its circuits.  One pass
over the circuits reads each vector once, skipping its zeros: its ratio
as the integer pair (max |x|, min |x|) and its support size.  The pass
keeps the minimum ratio, found by cross-multiplication, the smallest
support t, and whether every circuit is within its bound, a power of
norm - 1 read from a table built once per call.  The certificate keeps
the pair of the minimum, written in lowest terms only when a report is
printed.
"""

from typing import NamedTuple

from relmag.circuits import Circuit, enumerate_circuits
from relmag.matrices import IntegerMatrix, format_ratio, infinity_norm, nullspace_basis


class MagnitudeCertificate(NamedTuple):
    """Upper bound on the matrix relative magnitude with verification data.

    The bound is omega_hi / omega_lo, the max and min |x| of the witness
    circuit, or 0 / 1 when the null space is trivial.  It is exact when
    the null space is at most one-dimensional (then it is the unique
    circuit ray); otherwise it is the minimum over circuits, an upper
    bound only.  theorem_bound and support_bound are defined for
    norm >= 3.
    """

    omega_hi: int
    omega_lo: int
    exact: bool
    witness: Circuit | None
    norm: int
    rank: int
    nullity: int
    min_support: int | None
    theorem_bound: int | None
    support_bound: int | None
    sharp: bool
    checks: tuple[tuple[str, bool], ...]

    @property
    def verdict(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_dict(self) -> dict:
        return {
            "omega_upper": format_ratio(self.omega_hi, self.omega_lo),
            "exact": self.exact,
            "witness": self.witness.to_dict() if self.witness else None,
            "norm": self.norm,
            "rank": self.rank,
            "nullity": self.nullity,
            "min_support": self.min_support,
            "theorem_bound": self.theorem_bound,
            "support_bound": self.support_bound,
            "sharp": self.sharp,
            "checks": {name: ok for name, ok in self.checks},
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        lines = [
            "norm=%d" % self.norm,
            "rank=%d" % self.rank,
            "nullity=%d" % self.nullity,
            "t=%s" % (self.min_support if self.min_support is not None else "-"),
            "omega_upper=%s" % format_ratio(self.omega_hi, self.omega_lo),
            "exact=%s" % ("yes" if self.exact else "upper-bound-only"),
            "theorem_bound=%s" % (self.theorem_bound if self.theorem_bound is not None else "-"),
            "support_bound=%s" % (self.support_bound if self.support_bound is not None else "-"),
            "sharp=%s" % ("yes" if self.sharp else "no"),
        ]
        if self.witness is not None:
            lines.append("witness: %s" % self.witness.to_line())
        for name, ok in self.checks:
            lines.append("check %s: %s" % (name, "pass" if ok else "FAIL"))
        lines.append("verdict=%s" % ("pass" if self.verdict else "FAIL"))
        return "\n".join(lines)


def omega_matrix_upper(a: IntegerMatrix, allow_large: bool = False) -> MagnitudeCertificate:
    """Certified upper bound on the matrix relative magnitude.

    Minimizes the vector magnitude over all circuits; ties are broken by
    lexicographic support (the enumeration order).  Exactly the matrix
    value whenever the null space is a single ray.
    """
    norm = infinity_norm(a)
    nullity = len(nullspace_basis(a))
    rk = a.cols - nullity
    if nullity == 0:
        return MagnitudeCertificate(
            omega_hi=0,
            omega_lo=1,
            exact=True,
            witness=None,
            norm=norm,
            rank=rk,
            nullity=0,
            min_support=None,
            theorem_bound=(norm - 1) ** rk if norm >= 3 else None,
            support_bound=None,
            sharp=False,
            checks=(("zero_iff_full_rank", True),),
        )
    circs = enumerate_circuits(a, allow_large)
    # one pass over the circuits: each one's (max |x|, min |x|) and support
    # size from its nonzero entries; the first minimum of hi / lo is the
    # witness, and (1, 0) stands above every ratio
    powers = [(norm - 1) ** k for k in range(rk + 1)] if norm >= 3 else None
    witness, best_hi, best_lo = None, 1, 0
    t = a.cols
    within = True
    for c in circs:
        mags = [abs(v) for v in c.vector if v]
        hi, lo, size = max(mags), min(mags), len(mags)
        if hi * best_lo < best_hi * lo:
            witness, best_hi, best_lo = c, hi, lo
        if size < t:
            t = size
        if within:
            within = hi <= powers[size - 1] * lo if powers else hi == lo
    checks = [("omega_ge_1", best_hi >= best_lo)]
    theorem_bound = support_bound = None
    if powers:
        theorem_bound = powers[rk]
        support_bound = powers[t - 1]
        checks.append(("omega_le_support_bound", best_hi <= support_bound * best_lo))
        checks.append(("support_bound_le_theorem_bound", support_bound <= theorem_bound))
        checks.append(("every_circuit_le_support_power", within))
    else:
        checks.append(("small_norm_all_circuits_unit", within))
    sharp = theorem_bound is not None and best_hi == theorem_bound * best_lo
    return MagnitudeCertificate(
        omega_hi=best_hi,
        omega_lo=best_lo,
        exact=nullity == 1,
        witness=witness,
        norm=norm,
        rank=rk,
        nullity=nullity,
        min_support=t,
        theorem_bound=theorem_bound,
        support_bound=support_bound,
        sharp=sharp,
        checks=tuple(checks),
    )

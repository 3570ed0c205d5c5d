"""Relative magnitudes and their certified matrix-level bounds.

The relative magnitude of a nonzero vector is the ratio of its largest
absolute coordinate to its smallest nonzero absolute coordinate.  For a
matrix it is the minimum over nonzero null vectors, 0 by convention when
the null space is trivial.  The certificate records the circuit-based
upper bound together with the per-clause verdicts of the sharp bound
(norm - 1)^rank and its min-support refinement t, or, for norm <= 2,
of the dichotomy omega in {0, 1} (every circuit has ratio 1).

omega_matrix_upper eliminates A once, in the public nullspace_basis: the
rank is the column count minus the basis length, and circuits_from_basis
walks the circuits from that basis.  Each circuit's ratio is kept as the
integer pair (max |x|, min |x|): the minimum is found and every bound is
tested by cross-multiplication, and the certificate keeps the pair of the
minimum, written in lowest terms only when a report is printed.
"""

from __future__ import annotations

from typing import NamedTuple

from relmag.circuits import Circuit, circuits_from_basis
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
    basis = nullspace_basis(a)
    nullity = len(basis)
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
    circs = circuits_from_basis(a, basis, allow_large)
    # (max |x|, min |x|) of each circuit; its ratio is hi / lo
    ratios = []
    for c in circs:
        mags = [abs(v) for v in c.restricted()]
        ratios.append((max(mags), min(mags)))
    best = 0
    for i, (hi, lo) in enumerate(ratios):
        if hi * ratios[best][1] < ratios[best][0] * lo:
            best = i
    best_hi, best_lo = ratios[best]
    t = min(len(c.support) for c in circs)
    checks = [("omega_ge_1", best_hi >= best_lo)]
    theorem_bound = support_bound = None
    if norm >= 3:
        theorem_bound = (norm - 1) ** rk
        support_bound = (norm - 1) ** (t - 1)
        checks.append(("omega_le_support_bound", best_hi <= support_bound * best_lo))
        checks.append(("support_bound_le_theorem_bound", support_bound <= theorem_bound))
        checks.append(
            (
                "every_circuit_le_support_power",
                all(
                    hi <= (norm - 1) ** (len(c.support) - 1) * lo
                    for c, (hi, lo) in zip(circs, ratios)
                ),
            )
        )
    else:
        checks.append(("small_norm_all_circuits_unit", all(hi == lo for hi, lo in ratios)))
    sharp = theorem_bound is not None and best_hi == theorem_bound * best_lo
    return MagnitudeCertificate(
        omega_hi=best_hi,
        omega_lo=best_lo,
        exact=nullity == 1,
        witness=circs[best],
        norm=norm,
        rank=rk,
        nullity=nullity,
        min_support=t,
        theorem_bound=theorem_bound,
        support_bound=support_bound,
        sharp=sharp,
        checks=tuple(checks),
    )

"""Seeded inputs and the timed per-instance pipelines of the workloads.

Every input is built here from the seed alone: the text the CLI would read
(system DSL or matrix text) plus the structured form that the checker
evaluates without relmag.  The pipelines call relmag through module
attributes (``systems.parse_system``), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations

from relmag import circuits, magnitude, matrices, systems


@dataclass(frozen=True)
class SystemSpec:
    """A unit-coefficient system; equations are (((coeff, var), ...), rhs)."""

    k: int
    nvars: int
    equations: tuple
    expect_max: int | None = None  # max |x_i| known in closed form

    def text(self) -> str:
        lines = ["k=%d" % self.k]
        for terms, rhs in self.equations:
            if rhs:
                lines.append("x%d=%d" % (terms[0][1], rhs))
                continue
            parts = []
            for c, v in terms:
                mag = "" if abs(c) == 1 else str(abs(c))
                parts.append("%s%sx%d" % ("-" if c < 0 else "+", mag, v))
            lines.append("".join(parts).lstrip("+") + "=0")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MatrixSpec:
    rows: tuple[tuple[int, ...], ...]

    def text(self) -> str:
        lines = ["%d %d" % (len(self.rows), len(self.rows[0]))]
        lines.extend(" ".join(str(e) for e in row) for row in self.rows)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Instance:
    label: str
    spec: SystemSpec | MatrixSpec
    text: str


def _unit(var: int, sign: int):
    return (((1, var),), sign)


def _link(k: int, i: int):
    """k x_i - x_{i+1} = 0."""
    return (((k, i), (-1, i + 1)), 0)


def extremal(k: int, n: int) -> SystemSpec:
    """x_1 = 1, k x_i = x_{i+1}: the sharp instance, max |x_i| = k^(n-1)."""
    eqs = [_unit(1, 1)] + [_link(k, i) for i in range(1, n)]
    return SystemSpec(k=k, nvars=n, equations=tuple(eqs), expect_max=k ** (n - 1))


def multichain(rng: random.Random, k: int, n: int, chains: int = 3) -> SystemSpec:
    """Chains k x_i - x_{i+1} = 0 tied together by residual equations.

    Chain 1 starts at x_1 = 1; every later chain head is x_a + x_b for two
    earlier chain variables, and the last n // 7 variables are residual-only
    (y = x_a + x_b), which makes their columns case-2 in certification.
    Chain lengths are jittered around an even split so that the cost of an
    instance moves little with the seed.
    """
    m = n - n // 7
    lengths = [m // chains + rng.randint(-3, 3) for _ in range(chains - 1)]
    lengths.append(m - sum(lengths))
    eqs = [_unit(1, 1)]
    chain_vars: list[int] = []
    head = 1
    for length in lengths:
        if chain_vars:
            a, b = rng.sample(chain_vars, 2)
            eqs.append((((1, a), (1, b), (-1, head)), 0))
        eqs.extend(_link(k, i) for i in range(head, head + length - 1))
        chain_vars.extend(range(head, head + length))
        head += length
    for y in range(head, n + 1):
        a, b = rng.sample(chain_vars, 2)
        eqs.append((((1, a), (1, b), (-1, y)), 0))
    return SystemSpec(k=k, nvars=n, equations=tuple(eqs))


def fuzz_system(rng: random.Random, kmax: int = 4, nmax: int = 10) -> SystemSpec:
    """A random system, solvable or not (the acceptance criterion-5 recipe).

    Mixes unit equations, chain links k x_b = +-x_a and signed sums of two
    or three variables within the coefficient weight limit k + 1.
    """
    k = rng.randint(2, kmax)
    n = rng.randint(2, nmax)
    eqs = [_unit(rng.randint(1, n), rng.choice((1, -1)))]
    for _ in range(rng.randint(1, n + 2)):
        roll = rng.random()
        if roll < 0.1:
            eqs.append(_unit(rng.randint(1, n), rng.choice((1, -1))))
        elif roll < 0.45:
            a, b = rng.sample(range(1, n + 1), 2)
            eqs.append((((k, b), (rng.choice((1, -1)), a)), 0))
        else:
            nterms = rng.randint(2, min(3, n, k + 1))
            budget = k + 1
            terms = []
            for i, v in enumerate(rng.sample(range(1, n + 1), nterms)):
                c = rng.randint(1, budget - (nterms - i - 1))
                budget -= c
                terms.append((c * rng.choice((1, -1)), v))
            eqs.append((tuple(terms), 0))
    return SystemSpec(k=k, nvars=n, equations=tuple(eqs))


def _nonsingular(rows) -> bool:
    """A square integer matrix has full rank (cross-multiplying elimination)."""
    rows = [list(r) for r in rows]
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        p = rows[c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [p[c] * a - f * b for a, b in zip(rows[i], p)]
    return True


def in_general_position(rows) -> bool:
    """Every choice of m columns of the m x n matrix (m <= n) is independent.

    The circuits are then exactly the (m+1)-column sets, so the shape alone
    fixes how many candidate supports the enumeration tests and finds.
    """
    m = len(rows)
    return all(_nonsingular([[row[j] for j in idx] for row in rows])
               for idx in combinations(range(len(rows[0])), m))


def random_matrix(rng: random.Random, m: int, n: int) -> MatrixSpec:
    """Entries in -3..3, in general position, redrawn until the infinity
    norm is at least 3."""
    while True:
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m))
        if (max(sum(abs(e) for e in row) for row in rows) >= 3
                and in_general_position(rows)):
            return MatrixSpec(rows)


# Every instance takes at most ~0.5 s, so a run times each one ten times or
# more: on a shared machine a figure over many passes repeats from run to
# run, one over two or three long timings does not (see README.md).
#
# Small shapes set the per-call cost: the latency median.  In general
# position a shape fixes an instance's cost, and the median falls inside
# the 3x5 block, which has twice the repeats and is ~40 % away in cost from
# the next cheaper (1x4) and dearer (1x5) shapes, so it does not jump
# between shapes with the seed.  The large shapes carry about 40 % of a
# pass's time through the candidate-support loop.
OMEGA_SMALL_SHAPES = {
    (1, 2): 6, (1, 3): 6, (1, 4): 6, (1, 5): 6, (1, 6): 6, (1, 7): 6,
    (2, 3): 6, (2, 4): 6, (2, 6): 6, (2, 7): 6,
    (3, 4): 6, (3, 5): 12, (3, 6): 6, (4, 5): 6,
}
OMEGA_LARGE_SHAPES = ((4, 8),) * 4
FUZZ_INSTANCES = 4000
# Extremal chains (k, n) of certify_large, and the n of its multi-chain
# systems.  At n below ~24 certification falls under 80 % of the self time.
CERTIFY_EXTREMAL = ((2, 24), (2, 28), (2, 32), (3, 28))
CERTIFY_MULTICHAIN = (28, 28, 28)


def build(workload: str, seed: int) -> list[Instance]:
    """The fixed instance set of one workload; one pass runs each once."""
    rng = random.Random("%s:%d" % (workload, seed))
    specs: list[tuple[str, SystemSpec | MatrixSpec]] = []
    if workload == "certify_large":
        for k, n in CERTIFY_EXTREMAL:
            specs.append(("extremal k=%d n=%d" % (k, n), extremal(k, n)))
        for i, n in enumerate(CERTIFY_MULTICHAIN):
            specs.append(("multichain #%d k=2 n=%d" % (i, n), multichain(rng, 2, n)))
    elif workload == "solve_fuzz":
        for i in range(FUZZ_INSTANCES):
            specs.append(("fuzz #%d" % i, fuzz_system(rng)))
    elif workload == "omega_mixed":
        shapes = [shape for shape, repeats in OMEGA_SMALL_SHAPES.items()
                  for _ in range(repeats)] + list(OMEGA_LARGE_SHAPES)
        for m, n in shapes:
            specs.append(("random %dx%d" % (m, n), random_matrix(rng, m, n)))
    else:
        raise ValueError("unknown workload %r" % workload)
    return [Instance(label, spec, spec.text()) for label, spec in specs]


@dataclass(frozen=True)
class Rejection:
    """A system proved unsolvable; the CLI reports it with exit code 2."""

    message: str

    def to_dict(self) -> dict:
        return {"rejected": "unsolvable", "message": self.message}


@dataclass(frozen=True)
class OmegaOutput:
    """What `relmag omega` and `relmag circuits` print for one matrix."""

    certificate: magnitude.MagnitudeCertificate
    circuits: list

    def to_dict(self) -> dict:
        return {
            "omega": self.certificate.to_dict(),
            "circuits": [c.to_dict() for c in self.circuits],
        }


def emit(output) -> str:
    """The CLI's output step for --format json: to_dict, then json.dumps."""
    return json.dumps(output.to_dict(), indent=2)


def solve_text(text: str) -> str:
    """`relmag solve --format json`: parse, solve with certification, emit."""
    system = systems.parse_system(text)
    try:
        report = systems.solve_and_certify(system, certify=True, jobs=1)
    except systems.UnsolvableSystemError as exc:
        return emit(Rejection(str(exc)))
    return emit(report)


def omega_text(text: str) -> str:
    """`relmag omega` and `relmag circuits` on one matrix text, emitted together."""
    a = matrices.parse_matrix(text)
    cert = magnitude.omega_matrix_upper(a)
    return emit(OmegaOutput(cert, circuits.enumerate_circuits(a)))


def pipeline(instance: Instance):
    return solve_text if isinstance(instance.spec, SystemSpec) else omega_text

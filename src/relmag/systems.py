"""Unit-coefficient constraint systems: parsing, reduction, solving.

Systems consist of unit equations ``x_i = +-1`` and homogeneous signed
sums of unit-coefficient terms (at most ``k + 1`` terms per equation).
A solvable system is reduced, preserving the maximum coordinate
magnitude, to a square system with a unique all-nonzero solution whose
coordinates have pairwise distinct absolute values.  One pass then splits
the two-variable equations ``k x_i = +-x_j`` into disjoint maximal chains
and writes the square rows (unit row, chain bands, residual rows), which
are solved exactly, certifying ``|x_i| <= k^(n-1)``.  parse_system reads
a system from its DSL text in one token scan, which also finds the line
and column of the first error in a bad text.  The validation of a System,
each stage of the reduction and the solution checks read each equation
once, in a plain loop over its terms.

By Cramer's rule every solution is an integer vector over one common
denominator, so the reduction, the solve, the solution checks and the
bound test carry it as integers y and a denominator t > 0 with
gcd(t, y) = 1, x = y / t.  The reduction finds the solution once and
keeps it on both the original and the reduced variables, so nothing maps
it back; one elimination of the assembled matrix gives det A and every
Cramer numerator, which check the reduced one at every size.  The
``SolveReport`` keeps the integers too, and its text writes each y_i / t
in lowest terms.
"""

import re
import sys
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

from relmag.detbounds import CertificationReport, certify_solution_bound
from relmag.matrices import (
    _Frozen,
    _decimal,
    _line_col,
    _signed_maximal_minors,
    _solve_augmented,
    _sparse_echelon,
    format_ratio,
)


# Largest variable index a system may use.  The eliminations hold only the
# nonzeros of their rows, but each step still tests every row below its
# pivot, so the cost grows with the square of the variable count.
MAX_VARIABLES = 4096


class SystemError_(ValueError):
    """Base for constraint-system errors."""


class ParseError(SystemError_):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


class UnsolvableSystemError(SystemError_):
    """The input system has no solution."""


class AllHomogeneousError(SystemError_):
    """No unit equation present; the zero vector solves the system."""


class ReductionError(RuntimeError):
    """A reduction or assembly postcondition failed (signals an internal bug)."""


class BoundViolationError(AssertionError):
    """A certified inequality failed; would falsify a proved theorem."""


class UnitEquation(NamedTuple):
    """x_var = sign, with sign in {+1, -1}."""

    var: int
    sign: int

    def to_text(self) -> str:
        return "x%d=%d" % (self.var, self.sign)


class SumEquation(NamedTuple):
    """Homogeneous equation sum of coeff * x_var = 0.

    terms are (signed coefficient, variable) pairs.  Parsed input may
    repeat a variable (raw unit terms); reduced systems combine them.
    """

    terms: tuple[tuple[int, int], ...]

    def weight(self) -> int:
        """Total number of unit terms (sum of absolute coefficients).

        Only error messages call it: System validation sums the weight in
        the loop that reads the terms."""
        return sum(abs(c) for c, _ in self.terms)

    def to_text(self) -> str:
        """The terms with their coefficients written out, e.g. ``1000000x1-x2=0``.

        Its length follows the number of terms, not their weight, and
        parse_system reads it back to the same terms.
        """
        return "".join(
            "%s%sx%d" % ("-" if c < 0 else "+", abs(c) if abs(c) != 1 else "", v)
            for c, v in self.terms
        ).removeprefix("+") + "=0"


Equation = UnitEquation | SumEquation


def _overweight_message(eq: SumEquation, k: int) -> str:
    """The error for an equation over the weight limit k + 1."""
    return "equation %s has %s unit terms, limit is k+1 = %s" % (
        eq.to_text(), _decimal(eq.weight()), _decimal(k + 1))


class System(_Frozen):
    """A system of unit and sum equations over x_1..x_nvars, for k >= 2.

    Construction validates it in one loop over the equations: a unit
    equation's sign is +-1 and its variable in range; a sum equation has
    terms, each with a nonzero coefficient and a variable in range, and
    its weight, summed as the terms are read, is at most k + 1.  The
    first check that fails raises SystemError_.
    """

    _fields = ("k", "nvars", "equations")

    def __init__(self, k: int, nvars: int, equations: tuple[Equation, ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "equations", equations)
        if k < 2:
            raise SystemError_("k must be >= 2, got %d" % k)
        if nvars < 1:
            raise SystemError_("system needs at least one variable")
        if nvars > MAX_VARIABLES:
            raise SystemError_(
                "system has %d variables, limit is %d" % (nvars, MAX_VARIABLES)
            )
        for eq in equations:
            if isinstance(eq, UnitEquation):
                if eq.sign not in (1, -1):
                    raise SystemError_("unit equation sign must be +-1")
                if not 1 <= eq.var <= nvars:
                    raise SystemError_("variable x%d out of range" % eq.var)
                continue
            if not eq.terms:
                raise SystemError_("empty homogeneous equation")
            weight = 0
            for c, v in eq.terms:
                if c == 0:
                    raise SystemError_("zero coefficient")
                if not 1 <= v <= nvars:
                    raise SystemError_("variable x%d out of range" % v)
                weight += abs(c)
            if weight > k + 1:
                raise SystemError_(_overweight_message(eq, k))

    def to_text(self) -> str:
        lines = ["k=%d" % self.k]
        lines.extend(eq.to_text() for eq in self.equations)
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing

# The scan reads blanks, line breaks and '-' in ASCII.  A text with other
# characters is first translated: a str.isspace() character is a blank
# ' ' unless str.splitlines() breaks lines at it, when it is '\n', and '−'
# is '-'.  Digits stay Unicode: \d matches what int() converts.
_TO_ASCII = str.maketrans(
    "\x85\u2028\u2029"
    "\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u202f\u205f\u3000"
    "−",
    "\n" * 3 + " " * 16 + "-",
)
_BLANKS = r"[\t\x1f ]*"
# '=' or a statement end: ';', a line break or a comment to the end of the line
_TAIL = r"=|[;\n\r\x0b\x0c\x1c-\x1e]|#[^\n\r\x0b\x0c\x1c-\x1e]*"
# One token per match, after its leading blanks, in the groups (sign, coeff,
# index, constant, tail, k, other): a signed term or constant, with the
# _TAIL after it in tail; the k= header; or in other a _TAIL or any other
# single character.  Every character of a text but its trailing blanks
# falls in some token.
_TOKEN = re.compile(
    r"{b}(?:([+-]?){b}(?:(?:(\d+){b}\*?{b})?x{b}(\d+)|(\d+)){b}({tail})?"
    r"|k{b}={b}(\d+)|({tail}|\S))".format(b=_BLANKS, tail=_TAIL)
)
_STATEMENT_ENDS = "#;\n\r\x0b\x0c\x1c\x1d\x1e"
_BLANK_RUN = re.compile(_BLANKS)


def parse_system(text: str) -> System:
    """Parse the system DSL.

    Grammar: optional ``k=<int>`` header (default 2); statements separated
    by ';' or line breaks, ``#`` comments to the end of the line;
    equations ``xI = 1``, ``xI = -1``, ``+-xI +- xJ ... = 0`` and the sugar
    ``xI + xJ = xK``.  Coefficients like ``3x1`` or ``3*x1`` abbreviate
    repeated unit terms.  Variable indices run from 1 to MAX_VARIABLES.

    One _TOKEN scan reads the text.  The first token that breaks a rule
    raises the ParseError, with its line and column, that _scan_error finds.
    """
    k = 2
    first = True  # no statement yet, so a k= header may come
    equations: list[Equation] = []
    nvars = 0
    terms: list[tuple[int, int]] = []
    # side is 0 left of '=', 1 right of it and 2 in a header; count is the
    # number of terms and constants on this side
    const = weight = count = side = 0
    tokens = _TOKEN.findall((text if text.isascii() else text.translate(_TO_ASCII)) + "\n")
    unread = iter(tokens)  # _scan_error finds the bad token from what is left
    try:
        for sign, coeff, var, num, tail, hdr, other in unread:
            if var:
                if count and not sign:
                    raise _scan_error(text, tokens, unread, "expected '+' or '-'")
                c = int(coeff) if coeff else 1
                v = int(var)
                if not c or not 0 < v <= MAX_VARIABLES:
                    raise _scan_error(text, tokens, unread, "zero coefficient" if not c else
                                      "variable indices start at 1" if not v else
                                      "variable index %d exceeds the limit %d" % (v, MAX_VARIABLES))
                weight += c
                if v > nvars:
                    nvars = v
                terms.append((-c if (sign == "-") != side else c, v))
                count += 1
            elif num:
                if count and not sign:
                    raise _scan_error(text, tokens, unread, "expected '+' or '-'")
                n = int(num)
                const += -n if (sign == "-") != side else n
                count += 1
            elif hdr:
                if not first or side or count:
                    raise _scan_error(text, tokens, unread, "expected '+' or '-'" if count else
                                      "k header must be the first statement")
                k = int(hdr)
                if k < 2:
                    raise _scan_error(text, tokens, unread, "k must be >= 2")
                side = 2
                continue
            else:
                tail = other
            if not tail:
                continue
            if tail == "=":
                if side or not count:  # a second '=' is _scan_error's rule 1
                    raise _scan_error(text, tokens, unread, "empty expression")
                side = 1
                count = 0
            elif tail[0] not in _STATEMENT_ENDS:
                raise _scan_error(text, tokens, unread, "expected '+' or '-'" if count else "expected term")
            elif side == 1:
                if not count:
                    raise _scan_error(text, tokens, unread, "empty expression", "end")
                if not terms:
                    raise _scan_error(text, tokens, unread, "equation has no variables", "statement")
                if not const and weight <= k + 1:
                    equations.append(SumEquation(tuple(terms)))
                elif weight == 1 and (const == 1 or const == -1):  # the one term +-xI
                    c, v = terms[0]
                    equations.append(UnitEquation(v, -const * c))
                elif not const:
                    raise _scan_error(text, tokens, unread,
                                      _overweight_message(SumEquation(tuple(terms)), k), "statement")
                elif const == 1 or const == -1:
                    raise _scan_error(text, tokens, unread,
                                      "a right-hand side of +-1 needs a single term +-xI", "statement")
                else:
                    raise _scan_error(text, tokens, unread, "right-hand side must be 0, 1 or -1", "constant")
                first = False
                terms = []
                const = weight = count = side = 0
            elif count:  # no '=' in the statement, or a header with more after it
                raise _scan_error(text, tokens, unread, "equation needs exactly one '='", "statement")
            elif side:  # the header statement
                first = False
                side = 0
    except ParseError:
        raise
    except ValueError:  # a literal of tok too long for int()
        raise _scan_error(text, tokens, unread, None) from None
    if not equations:
        raise ParseError("no equations", 1, 0)
    return System(k=k, nvars=nvars, equations=tuple(equations))


def _ends(field: str) -> bool:
    """Whether a tail or other group of a token ends a statement."""
    return field != "" and field[0] in _STATEMENT_ENDS


def _scan_error(text: str, tokens: list, unread, message: str | None,
                at: str = "token") -> ParseError:
    """The ParseError of a text whose scan stopped at tok, the token of
    tokens before those that the iterator unread still holds.

    Only a bad text gets here, so the scan keeps no positions: they come
    from a second _TOKEN scan up to tok.  Lines are counted in the text as
    written, where '\\r' before U+2028 is two breaks, not the '\\r\\n' of
    _TO_ASCII.  The error is the first that holds:
      1. a statement without exactly one '=' (a k= token has one), at its
         start;
      2. a statement that starts with a k= token and goes on, "expected
         term" at the k;
      3. tok a sign that starts no term: "unexpected sign" at a sign after
         it, "dangling sign" at an '=' after it or just after it at the
         end of the statement, else "expected term" at what follows;
      4. message, or with message None the first literal of tok too long
         for int(), at the position at names: "token", the first character
         of tok after its sign; "statement", the start of the statement;
         "end", the start of tok's match, which is the column after '=';
         "constant", the first constant of the statement.
    """
    i = start = end = len(tokens) - 1 - sum(1 for _ in unread)
    tok = tokens[i]
    while start and not _ends(tokens[start - 1][4] or tokens[start - 1][6]):
        start -= 1
    while not _ends(tokens[end][4] or tokens[end][6]):
        end += 1
    scanned = text.translate(_TO_ASCII)
    matches = list(islice(_TOKEN.finditer(scanned + "\n"), i + 2))

    def lead(j: int) -> int:  # the first character of token j
        return _BLANK_RUN.match(scanned, matches[j].start()).end()

    if sum(t[4] == "=" or t[6] == "=" or t[5] != "" for t in tokens[start:end + 1]) != 1:
        message, pos = "equation needs exactly one '='", lead(start)
    elif tokens[start][5] and not _ends(tokens[start + 1][6]):
        message, pos = "expected term", lead(start)
    elif tok[6] in ("+", "-"):
        after = tokens[i + 1]
        if after[0] or after[6] in ("+", "-"):
            message, pos = "unexpected sign", lead(i + 1)
        elif after[6] == "=":
            message, pos = "dangling sign", lead(i + 1)
        elif _ends(after[6]):
            message, pos = "dangling sign", lead(i) + 1
        else:
            message, pos = "expected term", lead(i + 1)
    elif message is None:
        m = matches[i]
        limit = sys.get_int_max_str_digits()
        group = next(g for g in (2, 3, 4, 6) if len(m.group(g) or "") > limit)
        message = "literal of %d digits is too long, limit is %d" % (len(m.group(group)), limit)
        pos = m.start(group)
    elif at == "statement":
        pos = lead(start)
    elif at == "end":
        pos = matches[i].start()
    elif at == "constant":
        pos = matches[next(j for j in range(start, i + 1) if tokens[j][3])].start(4)
    elif tok[2] or tok[3]:  # a term or constant: after its sign, group 1
        pos = _BLANK_RUN.match(scanned, matches[i].end(1)).end()
    else:
        pos = lead(i)
    return ParseError(message, *_line_col(text, pos))


# ---------------------------------------------------------------------------
# reduction

# the sort key of a (coefficient, variable) term
_BY_VARIABLE = itemgetter(1)


class ReductionTrace(NamedTuple):
    """Auditable record of the reduction; supports exact reconstruction.

    Each step's facts are fields: the extra unit equations turned into
    differences (step 1), the equations, as parsed, whose opposite terms
    cancelled (step 5), the free (step 2) and zero-valued (step 3)
    variables set to zero, the merges (step 4), the number of dependent
    equations dropped and whether the unit sign was absorbed (step 6).
    The solution of the one elimination is kept as integers over the
    common denominator den: y on the original variables, free ones 0, and
    reduced_y on the reduced ones, x = y / den.
    """

    kept_unit: tuple[int, int]
    converted_units: tuple[tuple[int, int], ...]
    cancelled: tuple[SumEquation, ...]
    zeroed_free: tuple[int, ...]
    zeroed_solved: tuple[int, ...]
    merges: tuple[tuple[int, int, int], ...]  # (removed j, sign, kept i), in order
    dropped_dependent: int
    unit_sign_flipped: bool
    rename: dict[int, int]  # surviving original variable -> reduced index
    y: tuple[int, ...]  # x_1..x_nvars of the original system
    reduced_y: tuple[int, ...]
    den: int


def check_solution(system: System, x, den: int = 1) -> bool:
    """Exact check of the candidate solution x / den (1-based values in x).

    Every equation but the unit ones is homogeneous, so only a unit
    equation reads den: it holds when x_var = sign * den.
    """
    for eq in system.equations:
        if isinstance(eq, UnitEquation):
            if x[eq.var - 1] != eq.sign * den:
                return False
            continue
        total = 0
        for c, v in eq.terms:
            total += c * x[v - 1]
        if total != 0:
            return False
    return True


def reduce_system(system: System) -> tuple[System, ReductionTrace]:
    """Reduce to an equivalent square system with unique nonzero solution.

    Steps: fold extra unit equations into differences; zero out free
    variables; drop zero-valued variables; merge variables equal up to
    sign; cancel opposite terms; keep an independent equation set; absorb
    the unit sign.  The reduced system has first equation x_1 = 1, every
    solution coordinate nonzero, pairwise distinct absolute values, and
    every homogeneous equation with at least two variables.  The maximum
    absolute coordinate value is preserved.  The steps read the solution
    as integers y over one denominator t: zero, equal and opposite values
    of y are those of x = y / t.

    Step 2 eliminates the augmented rows [A | b] once (_solve_augmented):
    column v is x_v, column 0 stays empty, and a pivot in column nvars + 1,
    b, means the system is unsolvable.  The free variables, the non-pivot
    columns (the lexicographically earliest pivot set), are 0.

    Each stage reads each equation once: step 1 splits the equations into
    the kept unit, differences and combined sums, noting opposite terms
    as it adds them up; one loop applies the substitution of steps 2-4,
    when there is one, and checks each equation's variable count; one
    loop writes the reduced equations.
    """
    k = system.k
    # step 1: keep the first unit equation, turn the others into
    # differences; combine repeated variables of the sum equations, and
    # record those with opposite terms, whose sums cancel (step 5)
    uvar = usign = 0
    converted: list[tuple[int, int]] = []
    eqs: list[dict[int, int]] = []
    sums: list[dict[int, int]] = []
    cancelled: list[SumEquation] = []
    for eq in system.equations:
        if isinstance(eq, UnitEquation):
            if not uvar:
                uvar, usign = eq.var, eq.sign
            elif eq.var == uvar:
                if eq.sign != usign:
                    raise UnsolvableSystemError("system is unsolvable")
            else:
                eqs.append({eq.var: 1, uvar: -eq.sign * usign})
                converted.append((eq.var, eq.sign))
            continue
        # a variable's terms add up to less than their weight just when
        # their signs differ, which the first term against the sign of the
        # sum before it shows
        d: dict[int, int] = {}
        opposite = False
        for c, v in eq.terms:
            if v in d:
                old = d[v]
                if (old < 0) != (c < 0):
                    opposite = True
                d[v] = old + c
            else:
                d[v] = c
        if opposite:
            cancelled.append(eq)
            d = {v: c for v, c in d.items() if c}
            if not d:
                continue
        sums.append(d)
    if not uvar:
        raise AllHomogeneousError("no unit equation; the zero vector solves the system")
    eqs.extend(sums)

    # steps 2-4 collect one substitution `target`: a free (step 2) or
    # zero-valued (step 3) variable maps to None, one equal up to sign to
    # a kept variable (step 4: keep the smallest index, preferring the unit
    # variable) to (kept, sign)
    nvars = system.nvars
    rows = [{uvar: 1, nvars + 1: usign}]
    rows.extend(d.copy() for d in eqs)
    solved = _solve_augmented(rows, nvars + 1)
    if solved is None:
        raise UnsolvableSystemError("system is unsolvable")
    pivots, y, den = solved
    values = {v: y[v] for v in pivots}
    zeroed_free = tuple(v for v in range(1, nvars + 1) if v not in values)
    target: dict[int, tuple[int, int] | None] = dict.fromkeys(zeroed_free)
    zeroed_solved = tuple(sorted(v for v in values if values[v] == 0))
    for v in zeroed_solved:
        target[v] = None
        del values[v]
    groups: dict[int, list[int]] = {}
    for v in sorted(values):
        groups.setdefault(abs(values[v]), []).append(v)
    merges: list[tuple[int, int, int]] = []
    for key in sorted(groups):
        grp = groups[key]
        keep = uvar if uvar in grp else grp[0]
        for j in grp:
            if j != keep:
                sgn = 1 if values[j] == values[keep] else -1
                merges.append((j, sgn, keep))
                target[j] = (keep, sgn)
    for j, _, _ in merges:
        del values[j]
    # apply it once, cancelling opposite terms as it goes (step 5); a kept
    # variable is never a target.  A single-variable equation fails.  No
    # equation exceeds the weight k + 1 that System validation checked:
    # combining a variable's terms (step 1) and merging (step 4) add
    # coefficients, |a + b| <= |a| + |b|, dropping a term lowers the
    # weight, and a converted unit weighs 2 <= k + 1
    kept: list[dict[int, int]] = []
    for d in eqs:
        if target:
            for v in tuple(d):
                if v in target:
                    c = d.pop(v)
                    if target[v] is not None:
                        keep, sgn = target[v]
                        nc = d.get(keep, 0) + sgn * c
                        if nc:
                            d[keep] = nc
                        else:
                            del d[keep]
            if not d:
                continue
        if len(d) == 1:
            raise ReductionError("single-variable homogeneous equation survived steps 2-4")
        kept.append(d)
    eqs = kept
    active = set(values)

    # select an independent equation set: unit row + n-1 homogeneous rows
    n = len(active)
    selected = _select_equations(uvar, eqs, active)
    dropped = len(eqs) - len(selected)
    if len(selected) != n - 1:
        raise ReductionError("could not select %d independent equations" % (n - 1))
    # step 6 (sign absorption): make the unit equation x = +1
    flipped = usign == -1
    if flipped:
        for d in selected:
            if uvar in d:
                d[uvar] = -d[uvar]
        values[uvar] = den

    # final rename: unit variable first, the rest ascending
    others = sorted(v for v in active if v != uvar)
    rename = {uvar: 1}
    for i, v in enumerate(others, start=2):
        rename[v] = i
    reduced_y = [0] * n
    for v in active:
        reduced_y[rename[v] - 1] = values[v]
    equations: list[Equation] = [UnitEquation(var=1, sign=1)]
    for d in selected:
        terms = []
        for v, c in d.items():
            terms.append((c, rename[v]))
        terms.sort(key=_BY_VARIABLE)
        equations.append(SumEquation(terms=tuple(terms)))
    reduced = System(k=k, nvars=n, equations=tuple(equations))
    trace = ReductionTrace(
        kept_unit=(uvar, usign),
        converted_units=tuple(converted),
        cancelled=tuple(cancelled),
        zeroed_free=zeroed_free,
        zeroed_solved=zeroed_solved,
        merges=tuple(merges),
        dropped_dependent=dropped,
        unit_sign_flipped=flipped,
        rename=rename,
        y=tuple(y[1:]),
        reduced_y=tuple(reduced_y),
        den=den,
    )
    _check_reduced(reduced, trace)
    return reduced, trace


def _select_equations(uvar: int, eqs: list[dict[int, int]], active: set[int]):
    """The equations of an independent set [unit row; n-1 of eqs].

    The matrix [unit row; eqs] over the n active variables has full column
    rank n: step 2's pivot columns are independent, and steps 3 and 4 only
    drop such columns or merge them injectively.  So when there are n-1
    equations they are all independent, and no elimination is run; should
    that ever fail, solve_assembled finds the assembled matrix singular.
    Otherwise see _independent_equations.
    """
    if len(eqs) == len(active) - 1:
        return eqs
    return _independent_equations(uvar, eqs, active)


def _independent_equations(uvar: int, eqs: list[dict[int, int]], active: set[int]):
    """The equations each kept iff independent of the unit row and the
    equations before it: the pivot columns after the first of the
    transposed matrix [unit row; eqs]^T, one {column: value} row per active
    variable, written from the equation dicts."""
    transposed = {v: {} for v in sorted(active)}
    transposed[uvar][0] = 1
    for j, d in enumerate(eqs, start=1):
        for v, c in d.items():
            transposed[v][j] = c
    # column 0 holds one entry, the unit row's, so it is the first pivot
    pivots, _ = _sparse_echelon(list(transposed.values()), len(eqs) + 1)
    return [eqs[p - 1] for p in pivots[1:]]


def _check_reduced(reduced: System, trace: ReductionTrace) -> None:
    """Machine-check the reduced-system postconditions."""
    y = trace.reduced_y
    if not check_solution(reduced, y, trace.den):
        raise ReductionError("reduced solution does not satisfy the reduced system")
    if 0 in y:
        raise ReductionError("reduced solution has a zero coordinate")
    if len(set(map(abs, y))) != len(y):
        raise ReductionError("reduced solution has coincident absolute values")
    first = reduced.equations[0]
    if not (isinstance(first, UnitEquation) and first.var == 1 and first.sign == 1):
        raise ReductionError("reduced system does not start with x1 = 1")
    for eq in reduced.equations[1:]:
        if not isinstance(eq, SumEquation) or len(eq.terms) < 2:
            raise ReductionError("reduced homogeneous equation with fewer than 2 variables")
        seen = set()
        for _, v in eq.terms:
            if v in seen:
                raise ReductionError("duplicate variable in reduced equation")
            seen.add(v)


# ---------------------------------------------------------------------------
# assembly

class Assembled(NamedTuple):
    """Square system A x = e_1, with the block layout on record.

    Each row of A is held as its nonzero (column, value) pairs in column
    order: the unit row has one, a chain row two, a residual row one per
    term, so the rows take space linear in the nonzeros of A.
    """

    rows: tuple[tuple[tuple[int, int], ...], ...]
    k: int
    n: int
    column_of: dict[int, int]  # reduced variable -> 0-based column
    chain_cols: tuple[tuple[int, ...], ...]
    chain_rows: tuple[tuple[int, ...], ...]  # 0-based row indices
    type3_rows: tuple[int, ...]


def assemble(system: System) -> Assembled:
    """Split a reduced system into maximal chains and write its n x n rows.

    An equation k x_b = +-x_a is a link a -> b.  Distinct maximal chains
    cannot share a variable; a shared variable or a cycle signals a
    reduction bug.  A variable tails at most one link and a head tails
    none, so the walk from a head never meets a visited variable; a cycle
    leaves its variables unvisited.  Each chain, in ascending order of
    heads, occupies consecutive columns tail first, so its rows form a
    t x (t+1) band with k on the diagonal and +-1 beside it; the other
    variables follow in ascending order.  The rows are the unit row, each
    chain's links tail first, and the residual equations in system order,
    each written as its nonzero (column, value) pairs in column order.
    """
    k, n = system.k, system.nvars
    links: dict[int, tuple[int, int]] = {}  # a -> (b, entry of x_a in the row k x_b)
    tails: set[int] = set()
    residual = []
    for eq in system.equations:
        if isinstance(eq, UnitEquation):
            continue
        if len(eq.terms) == 2:
            (cb, b), (ca, a) = eq.terms
            if abs(cb) == 1:
                (ca, a), (cb, b) = eq.terms
            if abs(cb) == k and abs(ca) == 1:
                if a in links:
                    raise ReductionError("variable x%d heads two links" % a)
                if b in tails:
                    raise ReductionError("variable x%d tails two links" % b)
                links[a] = (b, ca if cb > 0 else -ca)
                tails.add(b)
                continue
        residual.append(eq)
    column_of: dict[int, int] = {}
    rows = [()]  # the unit row is written once x_1 has its column
    chain_cols, chain_rows = [], []
    visited: set[int] = set()
    for head in sorted(set(links) - tails):
        chain = [head]
        visited.add(head)
        while chain[-1] in links:
            b = links[chain[-1]][0]
            visited.add(b)
            chain.append(b)
        start = len(column_of)
        column_of.update((v, start + i) for i, v in enumerate(reversed(chain)))
        chain_cols.append(tuple(range(start, len(column_of))))
        chain_rows.append(tuple(range(len(rows), len(rows) + len(chain) - 1)))
        for c, a in enumerate(reversed(chain[:-1]), start=start):
            rows.append(((c, k), (c + 1, links[a][1])))
    if visited != set(links) | tails:
        raise ReductionError("cyclic two-variable equations detected")
    if chain_cols and len(residual) < len(chain_cols) - 1:
        raise ReductionError("fewer than r-1 residual equations for %d chains" % len(chain_cols))
    for v in range(1, n + 1):
        column_of.setdefault(v, len(column_of))
    rows[0] = ((column_of[1], 1),)
    type3_rows = tuple(range(len(rows), len(rows) + len(residual)))
    rows.extend(tuple(sorted((column_of[v], c) for c, v in eq.terms)) for eq in residual)
    if len(rows) != n:
        raise ReductionError("assembled matrix is not square (%d rows, %d cols)" % (len(rows), n))
    return Assembled(rows=tuple(rows), k=k, n=n, column_of=column_of, chain_cols=tuple(chain_cols),
                     chain_rows=tuple(chain_rows), type3_rows=type3_rows)


def solve_assembled(asm: Assembled, reduced_y, den: int):
    """Check the reduction's solution of A x = e_1 by Cramer's rule; returns
    (y, det A, per-column det A_i).

    The first row of A is the unit row e_u, so every Cramer numerator det
    A_i (column i replaced by e_1) is a signed maximal minor of the other
    rows, all taken from one elimination of them
    (matrices._signed_maximal_minors) on {column: value} rows made from
    the (column, value) pairs of Assembled.rows, and det A is det A_u.  The
    solution reduced_y / den, put in column order as y over t = den, must
    satisfy A y = t e_1, one dot product per row, and Cramer's rule
    det A_i t = y_i det A at every i.
    """
    n = asm.n
    det_ai = _signed_maximal_minors([dict(pairs) for pairs in asm.rows[1:]], n)
    det_a = det_ai[asm.column_of[1]]
    if not det_a:
        raise ReductionError("assembled matrix is singular")
    y = [0] * n
    for v, yv in enumerate(reduced_y, start=1):
        y[asm.column_of[v]] = yv
    for i, pairs in enumerate(asm.rows):
        total = 0
        for c, a in pairs:
            total += a * y[c]
        if total != (den if i == 0 else 0):
            raise ReductionError("assembled solution disagrees with the reduction")
    for yi, num in zip(y, det_ai):
        if num * den != yi * det_a:
            raise ReductionError("Cramer and elimination solutions disagree")
    return tuple(y), det_a, tuple(det_ai)


# ---------------------------------------------------------------------------
# end-to-end solve with bound report

class SolveReport(NamedTuple):
    """The solution of a system and its certified bound.

    Only a solution within the bound, max_y <= bound * t, gets a report:
    solve_and_certify raises BoundViolationError on any other.  So the
    report keeps no verdict of its own; its JSON key bound_ok, which
    readers of the JSON (perfbench/checker.py among them) test, is
    always true.
    """

    k: int
    n: int  # reduced system size
    bound: int  # k^(n-1)
    det_a: int
    det_ai: tuple[int, ...]
    max_y: int  # max |y_i|
    t: int  # common denominator, t > 0
    sharp: bool
    y: tuple[int, ...]  # x = y / t, original variables in 1-based order
    trace: ReductionTrace | None
    certification: CertificationReport | None  # None only when trivial
    trivial: bool = False

    def to_dict(self) -> dict:
        t = self.t
        return {
            "k": self.k,
            "n": self.n,
            "bound": self.bound,
            "det_a": self.det_a,
            "max_abs": format_ratio(self.max_y, t),
            "sharp": self.sharp,
            "bound_ok": True,
            "trivial": self.trivial,
            "solution": {
                "x%d" % (i + 1): format_ratio(v, t) for i, v in enumerate(self.y)
            },
            "certification": self.certification.to_dict() if self.certification else None,
        }

    def to_text(self) -> str:
        t = self.t
        sol = ", ".join(
            "x%d=%s" % (i + 1, format_ratio(v, t)) for i, v in enumerate(self.y)
        )
        lines = [
            "solution: %s" % sol,
            "n=%d k=%d" % (self.n, self.k),
            "max=%s bound=k^(n-1)=%d OK" % (format_ratio(self.max_y, t), self.bound),
            "sharp=%s" % ("yes" if self.sharp else "no"),
        ]
        if self.certification is not None:
            lines.append(self.certification.to_text())
        return "\n".join(lines)


def solve_and_certify(system: System, certify: bool = True, jobs: int = 1) -> SolveReport:
    """Solve a unit-coefficient system and certify the magnitude bound.

    Reduces, which solves the system exactly, assembles and checks the
    reduced solution on the assembled matrix, checks the solution of the
    original system that the reduction kept against that system and its
    maximum against the assembled one, and checks |x_i| <= k^(n-1) with n
    the reduced size, then runs the determinant certification chain x_i^2
    <= det W_i <= k^(2(n-1)) per column, single-threaded.  certify and jobs are accepted
    for existing callers and must be True and 1.
    """
    if certify is not True or jobs != 1:
        raise ValueError("certify must be True and jobs 1, got %r and %r" % (certify, jobs))
    k = system.k
    try:
        reduced, trace = reduce_system(system)
    except AllHomogeneousError:
        return SolveReport(
            k=k,
            n=0,
            bound=1,
            det_a=1,
            det_ai=(),
            max_y=0,
            t=1,
            sharp=False,
            y=(0,) * system.nvars,
            trace=None,
            certification=None,
            trivial=True,
        )
    asm = assemble(reduced)
    y, det_a, det_ai = solve_assembled(asm, trace.reduced_y, trace.den)
    n, t = asm.n, trace.den
    if not check_solution(system, trace.y, t):
        raise ReductionError("reconstructed solution fails the original system")
    max_y = max(abs(v) for v in y)
    if max_y != max(abs(v) for v in trace.y):
        raise ReductionError("reduction changed the maximum coordinate magnitude")
    bound = k ** (n - 1)
    if max_y > bound * t:
        raise BoundViolationError("solution magnitude exceeds k^(n-1) = %s" % _decimal(bound))
    certification = certify_solution_bound(asm, y, t, det_ai)
    if not certification.all_ok:
        raise BoundViolationError("determinant certification failed")
    return SolveReport(
        k=k,
        n=n,
        bound=bound,
        det_a=det_a,
        det_ai=det_ai,
        max_y=max_y,
        t=t,
        sharp=max_y == bound * t,
        y=trace.y,
        trace=trace,
        certification=certification,
    )

"""Self-contained verification suites over the whole library.

Each suite checks one family of exact claims end to end.  It returns a
short account of what was covered, or raises SuiteFailure naming the
first mismatch; `run` makes each suite's pass/fail result.  Everything
is exact integer or rational arithmetic.

The suites that read generated rows (the keys of ROW_READERS) each take
a row reader that keeps small per-row results, never rows.  A suite runs
through `run([name])`, which streams only that suite's rows; `run` builds
every row the named suites read once and hands it to each reader that
reads it.  The calling process streams q = 5 while one forked worker
streams the larger q's; while the worker finishes, the caller runs the
suites that read no rows or only q = 5 rows, so only the suites that
read the worker's rows run after the merge; if the worker dies, those
suites fail.  The suites that read closed forms share one table per
run, so each closed form is evaluated once.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import islice, zip_longest
from typing import Callable, Iterable

from . import linrec, locator, pattern, sequences
from .quadfield import NotIntegralError, NotRationalError
from .triangle import (
    DEFAULT_CELL_BUDGET,
    Cell,
    Row,
    binomial_row,
    central_cell,
    generate_rows,
    largest_row_within,
    row_counts,
    row_sums,
)

AGREEMENT_QS = (5, 6, 7, 10)
AGREEMENT_N_MAX = 60

# signed (A-part, B-part, total) row sums for q = 5, rows 0..12
ALT_TABLE = (
    (0, 0, 1),
    (0, 0, 0),
    (-2, 0, 0),
    (-6, 2, -2),
    (0, 0, 0),
    (2, -2, 2),
    (2, -2, 2),
    (0, 0, 0),
    (2, -2, 2),
    (2, -2, 2),
    (0, 0, 0),
    (2, -2, 2),
    (2, -2, 2),
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


class SuiteFailure(Exception):
    """A suite's check failed; the message is the result's detail."""


# what an exact check raises when it fails: the CLI's exit 1
CHECK_FAILURES = (
    locator.LocationFailure, NotIntegralError, NotRationalError, ArithmeticError
)


class RowReader:
    """What one suite keeps of the rows it reads, never a row.

    stream() calls feed(q, row) once for each row 0..last[q] of each q,
    in order; feed keeps keep(row) in kept[q, n].  The first check
    failure keep raises is kept in error, for run to fail the suite
    with, and nothing more is kept.
    """

    def __init__(self, last: dict[int, int], keep: Callable[[Row], object]) -> None:
        self.last, self.keep, self.kept = last, keep, {}
        self.error: Exception | None = None

    def feed(self, q: int, row: Row) -> None:
        if self.error is None:
            try:
                self.kept[q, row.n] = self.keep(row)
            except CHECK_FAILURES as exc:
                self.error = exc


def _stream(readers: list[RowReader], qs: list[int]) -> list[tuple]:
    for q in qs:
        for row in generate_rows(q, max(r.last.get(q, -1) for r in readers)):
            for r in readers:
                if row.n <= r.last.get(q, -1):
                    r.feed(q, row)
    return [(r.kept, r.error) for r in readers]


def stream(readers: list[RowReader], while_waiting: Callable[[set[int]], None]) -> None:
    """Build each row once and hand it to every reader that keeps it.

    The first q streams here while one forked worker streams the rest.
    The caller then passes the first q to while_waiting (its readers are
    complete) and merges in what the worker's readers kept.  Every
    worker q is larger than the first, so the readers end as after one
    stream of every q in order, or, if the worker ends without sending,
    as if a SuiteFailure naming it came at its first q.  With one q, one
    CPU or no fork, every q streams here and while_waiting is not called.
    """
    import multiprocessing  # here, so that importing the CLI does not load it

    qs = sorted({q for r in readers for q in r.last})
    if (len(qs) < 2 or (os.cpu_count() or 1) < 2
            or "fork" not in multiprocessing.get_all_start_methods()):
        _stream(readers, qs)
        return
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    # forked: the readers and their keep functions are inherited, never pickled
    worker = ctx.Process(target=lambda: send.send(_stream(readers, qs[1:])))
    worker.start()
    send.close()
    sent = None
    try:
        _stream(readers, qs[:1])
        while_waiting(set(qs[:1]))
        sent = receive.recv()
    except EOFError:  # the worker ended without sending
        pass
    finally:
        receive.close()
        if sent is None:
            worker.kill()
        worker.join()
    if sent is None:
        died = SuiteFailure(
            f"the row worker, which took q in {qs[1:]}, exited with code {worker.exitcode}"
        )
        sent = [({}, None if r.last.keys() <= set(qs[:1]) else died) for r in readers]
    for r, (kept, error) in zip(readers, sent):
        r.kept.update(kept)
        r.error = r.error or error


def euclidean_oracle() -> str:
    """q = 4 rows 0..20 are exactly Pascal's triangle, with no kind-B cells."""
    for row in generate_rows(4, 20):
        cells = enumerate(zip_longest(row.values, binomial_row(row.n)))
        k = next((k for k, (got, want) in cells if got != want), None)
        if k is not None:
            raise SuiteFailure(
                f"row {row.n} differs from binomial coefficients at k={k}"
            )
        if "B" in row.kinds:
            raise SuiteFailure(f"row {row.n} contains a kind-B cell")
    return "q=4 rows 0..20 match binomials, zero kind-B cells"


def _count_and_sum_rows() -> RowReader:
    """Counts and sums of each agreement q's rows inside the default budget."""
    last = {q: largest_row_within(q, DEFAULT_CELL_BUDGET) for q in AGREEMENT_QS}
    # row 0 has no winger pair, so no counts or sums
    return RowReader(last, lambda row: row.n and (row_counts(row), row_sums(row)))


class ClosedForms:
    """One run's closed-form counts and sums, each (q, n) evaluated once.

    A form that raises keeps nothing, so each suite that asks for it
    meets the exception.
    """

    def __init__(self) -> None:
        self.counts = cache(sequences.counts_closed)
        self.sums = cache(sequences.sums_closed)


def three_way_agreement(seen: RowReader, closed: ClosedForms) -> str:
    """Coupled, ternary and closed-form counts/sums agree, and match rows."""
    for q in AGREEMENT_QS:
        for n in range(1, AGREEMENT_N_MAX + 1):
            c = sequences.counts_coupled(q, n)
            if sequences.counts_ternary(q, n) != c:
                raise SuiteFailure(f"count ternary/coupled mismatch at q={q} n={n}")
            if closed.counts(q, n) != c:
                raise SuiteFailure(f"count closed/coupled mismatch at q={q} n={n}")
            s = sequences.sums_coupled(q, n)
            if sequences.sums_ternary(q, n) != s:
                raise SuiteFailure(f"sum ternary/coupled mismatch at q={q} n={n}")
            if closed.sums(q, n) != s:
                raise SuiteFailure(f"sum closed/coupled mismatch at q={q} n={n}")
    for q, last in seen.last.items():
        for n in range(1, last + 1):
            if (q, n) not in seen.kept:
                raise SuiteFailure(f"generated row missing at q={q} n={n}")
            counts, sums = seen.kept[q, n]
            if counts != tuple(sequences.counts_coupled(q, n)):
                raise SuiteFailure(f"generated counts mismatch at q={q} n={n}")
            if sums != tuple(sequences.sums_coupled(q, n)):
                raise SuiteFailure(f"generated sums mismatch at q={q} n={n}")
    return (
        f"q in {AGREEMENT_QS}: three routes agree for n=1..{AGREEMENT_N_MAX}; "
        f"{sum(seen.last.values())} generated rows match"
    )


def _signed_subsum_rows() -> RowReader:
    return RowReader({5: 17}, sequences.alt_triple_from_row)


def alternating_sums(seen: RowReader) -> str:
    """Alternating-sum table, closed description, and three-row stepping."""
    for (_, n), triple in seen.kept.items():
        if n <= 12 and triple != ALT_TABLE[n]:
            raise SuiteFailure(f"signed subsums at n={n}: {triple}")
        if triple.total != sequences.alt_sum(n):
            raise SuiteFailure(f"alternating sum of generated row {n}")
    # step the signed subsums three rows at a time along both odd-length
    # residue chains; even-length rows (n = 3t+1) vanish by symmetry
    for start, seed in ((0, (0, 0)), (2, (-2, 0))):
        a_part, b_part = seed
        n = start
        while n <= 10**4:
            expected = 1 if n == 0 else a_part + b_part + 2
            if expected != sequences.alt_sum(n):
                raise SuiteFailure(f"stepped subsums disagree with alt_sum at n={n}")
            a_part, b_part = sequences.alt_step(a_part, b_part)
            n += 3
    for n in range(1, 10**4, 3):
        if sequences.alt_sum(n) != 0:
            raise SuiteFailure(f"even-length row n={n} must have alternating sum 0")
    return "table rows 0..12, generated rows 0..17, stepping to n=10^4"


def _row_lengths() -> RowReader:
    return RowReader({5: largest_row_within(5, DEFAULT_CELL_BUDGET)}, len)


def parity(seen: RowReader) -> str:
    """Row-size parity rule: even exactly at n = 3t+1 (q = 5)."""
    for n, s in enumerate(islice(sequences._count_streams(5)[2], 1000), 1):
        if s % 2 != sequences.parity_s(n):
            raise SuiteFailure(f"ternary parity mismatch at n={n}")
    for (_, n), length in seen.kept.items():
        if n and length % 2 != sequences.parity_s(n):
            raise SuiteFailure(f"generated row length parity at n={n}")
    return f"ternary n=1..1000 and generated rows 1..{seen.last[5]}"


def _pattern_rows() -> RowReader:
    """Bit strings of q = 5 rows 0..16, central cells of rows 3k up to 18."""

    def keep(row: Row) -> tuple[str | None, Cell | None]:
        bits = pattern.pattern_bits(row) if row.n <= 16 else None
        return bits, central_cell(row) if row.n % 3 == 0 else None

    return RowReader({5: 18}, keep)


def pattern_checks(seen: RowReader) -> str:
    """Pattern code value, difference recurrence, and repetition checks."""
    bits, centres = zip(*seen.kept.values())  # by row index
    codes = [int(b, 2) for b in bits[:16]]
    if codes[3] != 21:
        raise SuiteFailure("pattern of row 3 must encode to 21")
    for n in range(3, 15):
        if not pattern.recurrence_holds(n, codes[n - 2 : n + 2]):
            raise SuiteFailure(f"pattern-difference recurrence fails at n={n}")
    for n in [0, *range(2, 16)]:
        if not pattern.prefix_holds(bits[n], bits[n + 1]):
            raise SuiteFailure(f"prefix repetition fails at n={n}")
    for n in range(0, 13):
        if not pattern.central_copy_holds(bits[n], bits[n + 3]):
            raise SuiteFailure(f"central copy fails at n={n}")
    for k in range(1, 7):
        if not pattern.central_value_holds(k, centres[3 * k]):
            raise SuiteFailure(f"central value 2^{k} fails at k={k}")
    return (
        "code(3)=21; recurrence n=3..14; prefix n=0,2..15; "
        "central copy n=0..12; central value k=1..6"
    )


# (pair, row, column) of pairs whose cell is known
LOCATOR_SPOTS = (
    ((2, 3), 3, 2), ((3, 5), 4, 2), ((2, 2), 4, 4), ((4, 6), 6, 28)
)


class PairRows(RowReader):
    """Places a batch of pairs in the q = 5 rows as they go by."""

    def __init__(self, pairs: Iterable[tuple[int, int]]) -> None:
        self.scanner = locator.PairScanner(pairs)
        super().__init__({5: self.scanner.last_row}, self.scanner.feed)

    def located(self) -> list[locator.PairLocation]:
        """Every pair's PairLocation, once no pair is missing from its row."""
        for out in self.scanner.outcomes:
            if isinstance(out, locator.LocationFailure):
                raise SuiteFailure(f"location failure: {out}")
        return self.scanner.outcomes


def _locator_rows() -> PairRows:
    coprime = [(u, v) for v in range(2, 31) for u in range(1, v) if math.gcd(u, v) == 1]
    return PairRows([*coprime, *(pair for pair, _, _ in LOCATOR_SPOTS)])


def locator_pairs(seen: PairRows) -> str:
    """Every in-budget coprime pair up to 30 scan-verifies, plus spot pairs."""
    outcomes = seen.located()
    total = len(outcomes) - len(LOCATOR_SPOTS)
    skipped = sum(out.verified == locator.UNVERIFIED for out in outcomes)
    verified = total - skipped
    if verified < 0.9 * total:
        raise SuiteFailure(f"only {verified}/{total} coprime pairs verified")
    for ((u, v), want_row, want_col), loc in zip(LOCATOR_SPOTS, outcomes[total:]):
        if loc.verified != locator.FULL_ROW or (loc.row, loc.col) != (want_row, want_col):
            raise SuiteFailure(f"spot pair ({u},{v}): got row {loc.row} col {loc.col}")
    return (
        f"{verified}/{total} coprime pairs <= 30 verified ({skipped} over budget), "
        "spot pairs at expected cells"
    )


# (f0, f1, eta, m) of the chains placed: Fibonacci, Pell, then six eta
# families (one repeated), each with every pair in rows <= 14
EMBED_CHAINS = (
    (1, 2, 1, 14), (1, 2, 2, 5),
    (2, 5, 2, 4), (1, 3, 2, 4), (4, 7, 1, 4), (3, 4, 2, 4), (1, 3, 2, 4), (3, 5, 1, 4),
)


def _embedding_rows() -> PairRows:
    return PairRows(
        pair for chain in EMBED_CHAINS for pair in locator.recurrence_pairs(*chain)
    )


def embeddings(seen: PairRows) -> str:
    """Fibonacci and Pell pair chains, and eta-spaced rows in general."""
    outcomes = iter(seen.located())
    fib, pell, *families = (list(islice(outcomes, m)) for *_, m in EMBED_CHAINS)
    if [loc.row for loc in fib] != list(range(2, 16)):
        raise SuiteFailure(f"Fibonacci rows: {[loc.row for loc in fib]}")
    for loc in fib:
        if loc.verified != locator.FULL_ROW:
            raise SuiteFailure(f"Fibonacci pair ({loc.u},{loc.v}) unverified")
        if loc.value_kinds[1] != "A":
            raise SuiteFailure(f"Fibonacci cell {loc.v} in row {loc.row} not kind A")
    if [loc.row for loc in pell] != [2, 4, 6, 8, 10]:
        raise SuiteFailure(f"Pell rows: {[loc.row for loc in pell]}")
    if any(loc.verified != locator.FULL_ROW for loc in pell):
        raise SuiteFailure("Pell pair unverified")
    for (f0, f1, eta, _), locs in zip(EMBED_CHAINS[2:], families):
        rows = [loc.row for loc in locs]
        for j in range(1, len(rows) - 1):
            if rows[j + 1] - rows[j] != eta:
                raise SuiteFailure(f"spacing {rows} != {eta} for ({f0},{f1},eta={eta})")
        if any(loc.verified != locator.FULL_ROW for loc in locs):
            raise SuiteFailure(f"unverified pair in family ({f0},{f1},eta={eta})")
    return "Fibonacci rows 2..15 (kind A), Pell rows 2..10, 6 eta families"


def elimination() -> str:
    """Coupled-to-ternary elimination: named systems and random round trips."""
    for q in range(4, 13):
        got = linrec.eliminate(linrec.CoupledSystem(1, 1, 1, q - 4, q - 3, 0))
        if got != (q - 1, -(q - 1), 1):
            raise SuiteFailure(f"count system at q={q}: {got}")
        got = linrec.eliminate(linrec.CoupledSystem(2, 2, 2, q - 4, q - 3, 0))
        if got != (q, -(q + 1), 2):
            raise SuiteFailure(f"sum system at q={q}: {got}")
    got = linrec.eliminate(linrec.CoupledSystem(-4, -8, -6, 2, 4, 2))
    if got != (1, 0, 0):
        raise SuiteFailure(f"alternating-influence system: {got}")
    rng = random.Random(181737)
    done = 0
    while done < 100:
        a1, b1, c1, a2, b2, c2 = (rng.randint(-5, 5) for _ in range(6))
        if a2 * b1 == 0:
            continue
        sys_ = linrec.CoupledSystem(a1, b1, c1, a2, b2, c2)
        x, y = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        xs, ys = [x], [y]
        for _ in range(12):
            x, y = sys_.step(x, y)
            xs.append(x)
            ys.append(y)
        coeffs = linrec.eliminate(sys_)
        if not (linrec.check_satisfies(xs, coeffs) and linrec.check_satisfies(ys, coeffs)):
            raise SuiteFailure(f"round trip fails for {sys_}")
        if c1 == 0 and c2 == 0:
            a_bin, b_bin = linrec.eliminate_homogeneous(sys_)
            if any(
                xs[k + 2] != a_bin * xs[k + 1] + b_bin * xs[k] for k in range(11)
            ):
                raise SuiteFailure(f"homogeneous elimination fails for {sys_}")
        done += 1
    return "named systems q=4..12, influence system, 100 random round trips"


def exactness(closed: ClosedForms) -> str:
    """Every closed-form evaluation lands exactly on an integer."""
    for q in AGREEMENT_QS:
        for n in range(1, AGREEMENT_N_MAX + 1):
            try:
                closed.counts(q, n)
                closed.sums(q, n)
            except (NotRationalError, NotIntegralError) as exc:
                raise SuiteFailure(f"closed form q={q} n={n}: {exc}") from exc
    return f"all closed forms integral for q in {AGREEMENT_QS}, n=1..{AGREEMENT_N_MAX}"


SUITES: dict[str, Callable[..., str]] = {
    "euclidean-oracle": euclidean_oracle,
    "three-way": three_way_agreement,
    "alternating": alternating_sums,
    "parity": parity,
    "pattern": pattern_checks,
    "locator": locator_pairs,
    "embeddings": embeddings,
    "elimination": elimination,
    "exactness": exactness,
}


# the suites that read generated rows, and what each keeps of them
ROW_READERS: dict[str, Callable[[], RowReader]] = {
    "three-way": _count_and_sum_rows,
    "alternating": _signed_subsum_rows,
    "parity": _row_lengths,
    "pattern": _pattern_rows,
    "locator": _locator_rows,
    "embeddings": _embedding_rows,
}


# the suites that read closed forms, through the run's one ClosedForms
CLOSED_FORM_READERS = ("three-way", "exactness")


def run(names: Iterable[str] | None = None) -> list[CheckResult]:
    """Run the named suites (all by default), streaming their rows once.

    A suite that raises fails with the exception's message as its detail
    (named by type unless it is a SuiteFailure); the rest still run.
    While a forked worker streams rows, the caller runs every suite that
    reads no rows or only rows the caller streamed; the rest run after
    the merge.  The results come in the order named.
    """
    picked = list(SUITES) if names is None else list(names)
    for suite_name in picked:
        if suite_name not in SUITES:
            raise ValueError(
                f"unknown suite {suite_name!r}; choose from {', '.join(SUITES)}"
            )
    fed = {name: ROW_READERS[name]() for name in picked if name in ROW_READERS}
    closed = ClosedForms()
    done: dict[int, CheckResult] = {}

    def result(name: str) -> CheckResult:
        args = [fed[name]] if name in fed else []
        if name in CLOSED_FORM_READERS:
            args.append(closed)
        try:
            if name in fed and fed[name].error is not None:
                raise fed[name].error
            passed, detail = True, SUITES[name](*args)
        except SuiteFailure as exc:
            passed, detail = False, str(exc)
        except CHECK_FAILURES as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        return CheckResult(name, passed, detail)

    def run_streamed(streamed: set[int]) -> None:
        for i, name in enumerate(picked):
            if i not in done and (name not in fed or fed[name].last.keys() <= streamed):
                done[i] = result(name)

    stream(list(fed.values()), run_streamed)
    return [done[i] if i in done else result(name) for i, name in enumerate(picked)]

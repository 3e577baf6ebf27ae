"""The four benchmark workloads: seeded inputs, one timed pass, and the gates.

Each workload is a closed loop driven by one caller: a pass issues its
operations one at a time and waits for each.  A pass returns what the
gates need; `check` runs after the pass's clock has stopped and
`final_check` once per run.  Both return (attempted, failed) operation
counts.  The library is handed in as `lib`, a namespace of hpascal
modules, and sees only the generated inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import random
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

from hostspeed import handler_s

MODULES = ("triangle", "quadfield", "sequences", "linrec", "locator", "pattern",
           "export", "verify")


def purge_library() -> None:
    """Forget every imported hpascal module so the next import starts cold."""
    for name in [m for m in sys.modules if m == "hpascal" or m.startswith("hpascal.")]:
        del sys.modules[name]


def library() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"hpascal.{m}") for m in MODULES})


class Workload:
    """What run.py drives: inputs from a seed, a timed pass, and the gates."""

    name: str

    def make_inputs(self, seed: int):
        raise NotImplementedError

    def run_pass(self, lib, inputs):
        raise NotImplementedError

    def check(self, lib, inputs, out) -> tuple[int, int]:
        """(attempted, failed) operations of one pass."""
        raise NotImplementedError

    def final_check(self, lib, inputs, outs) -> tuple[int, int]:
        """(attempted, failed) of the once-per-run checks over all passes."""
        return 0, 0

    def extras(self, inputs, outs, pass_times, scales) -> dict[str, float]:
        """Figures only this workload has (see run.WORKLOAD_UNITS).

        pass_times are at reference host speed; scales convert a pass's raw
        times to that speed.
        """
        return {}


def row_size(q: int, n: int) -> int:
    """Cells in row n of the {4,q} triangle, by the coupled count recurrence."""
    a = b = 0
    for _ in range(n - 1):
        a, b = a + b + 1, (q - 4) * a + (q - 3) * b
    return 1 if n == 0 else a + b + 2


# ---------------------------------------------------------------------------
# verify: one verify.run() over all nine suites
# ---------------------------------------------------------------------------

# (name, detail) of every suite at the seed commit, in run order
VERIFY_EXPECTED = (
    ("euclidean-oracle", "q=4 rows 0..20 match binomials, zero kind-B cells"),
    ("three-way", "q in (5, 6, 7, 10): three routes agree for n=1..60; 53 generated rows match"),
    ("alternating", "table rows 0..12, generated rows 0..17, stepping to n=10^4"),
    ("parity", "ternary n=1..1000 and generated rows 1..18"),
    ("pattern", "code(3)=21; recurrence n=3..14; prefix n=0,2..15; "
                "central copy n=0..12; central value k=1..6"),
    ("locator", "253/277 coprime pairs <= 30 verified (24 over budget), "
                "spot pairs at expected cells"),
    ("embeddings", "Fibonacci rows 2..15 (kind A), Pell rows 2..10, 6 eta families"),
    ("elimination", "named systems q=4..12, influence system, 100 random round trips"),
    ("exactness", "all closed forms integral for q in (5, 6, 7, 10), n=1..60"),
)


class Verify(Workload):
    name = "verify"

    def make_inputs(self, seed: int) -> None:
        return None  # the suites carry their own fixed inputs

    def run_pass(self, lib, inputs) -> list[tuple[str, bool, str]]:
        return [(r.name, r.passed, r.detail) for r in lib.verify.run()]

    def check(self, lib, inputs, out) -> tuple[int, int]:
        got = {name: (passed, detail) for name, passed, detail in out}
        failed = sum(got.get(name) != (True, detail) for name, detail in VERIFY_EXPECTED)
        return len(VERIFY_EXPECTED), failed


# ---------------------------------------------------------------------------
# export: every row built once and streamed to CSV, JSON lines and DOT
# ---------------------------------------------------------------------------


class HashSink:
    """Write-only text file that keeps a SHA-256 and a byte count instead of data."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.sha.update(data)
        self.bytes += len(data)
        return len(text)


@dataclass(frozen=True)
class ExportSpec:
    row_streams: tuple[tuple[int, int], ...]  # (q, n_max): CSV and JSON of rows 0..n_max
    dot: tuple[int, int]  # (q, n_max) of the DOT graph
    digests: dict[str, str]  # stream name -> SHA-256 recorded at the seed commit


# q = 5 up to the largest row inside the default budget; q = 7 has a
# different fill per kind-B parent; the DOT graph is small because its
# writer is per cell and per edge.  Digests are of the seed commit.
EXPORT_SPEC = ExportSpec(
    row_streams=((5, 18), (7, 12)),
    dot=(6, 7),
    digests={
        "q5.csv": "7010df0f07a48f82bbb4e719db3c4d71b6053f1fef1a7215e36c8b898b7e23f6",
        "q5.json": "066adef149437bca62bc29a801f713d82f1b3825c6bde7a874a1c1b40722f8d2",
        "q7.csv": "3cbb6eac13c5e5c2d23a1c4711f8f6740eceeecc22a1eb3255481ff212befb8a",
        "q7.json": "b5c6d600907ffd645f115d817796b9400dfcfe7c84c24f0326b7e31bf4a524bd",
        "q6.dot": "8b2a6a45bc09707e838b5f7c07d19594565ad1219954fa0a8f326a02bb9e72ca",
    },
)


@dataclass
class ExportPass:
    digests: dict[str, str]
    bytes: int
    cells: int


class Export(Workload):
    name = "export"

    def __init__(self, spec: ExportSpec = EXPORT_SPEC) -> None:
        self.spec = spec

    def make_inputs(self, seed: int) -> ExportSpec:
        return self.spec

    def run_pass(self, lib, spec: ExportSpec) -> ExportPass:
        sinks: dict[str, HashSink] = {}
        cells = 0
        for q, n_max in spec.row_streams:
            csv = sinks[f"q{q}.csv"] = HashSink()
            js = sinks[f"q{q}.json"] = HashSink()
            for row in lib.triangle.generate_rows(q, n_max):
                lib.export.write_csv([row], csv)
                lib.export.write_json([row], js)
                cells += len(row)
        q, n_max = spec.dot
        dot = sinks[f"q{q}.dot"] = HashSink()
        lib.export.write_dot(q, n_max, dot)
        return ExportPass(
            {name: s.sha.hexdigest() for name, s in sinks.items()},
            sum(s.bytes for s in sinks.values()),
            cells + sum(row_size(q, n) for n in range(n_max + 1)),
        )

    def check(self, lib, spec: ExportSpec, out: ExportPass) -> tuple[int, int]:
        failed = sum(out.digests.get(name) != want for name, want in spec.digests.items())
        return len(spec.digests), failed

    def final_check(self, lib, spec: ExportSpec, outs) -> tuple[int, int]:
        """Every exported row has the cell count and value sum of the closed forms."""
        attempted = failed = 0
        for q, n_max in (*spec.row_streams, spec.dot):
            for row in lib.triangle.generate_rows(q, n_max):
                if row.n == 0:
                    ok = row.values == [1]
                else:
                    ok = (len(row.values) == lib.sequences.counts_closed(q, row.n).s
                          and sum(row.values) == lib.sequences.sums_closed(q, row.n).s)
                attempted += 1
                failed += not ok
        return attempted, failed

    def extras(self, spec, outs, pass_times, scales) -> dict[str, float]:
        return {"cells_per_s": outs[0].cells / statistics.median(pass_times)}


# ---------------------------------------------------------------------------
# sequences: the three count/sum routes at large n, no rows built
# ---------------------------------------------------------------------------

SEQ_QS = range(5, 13)
SEQ_N = (19_000, 20_000)  # narrow, so the O(n^2) cost of a pass barely moves with the seed


class Sequences(Workload):
    name = "sequences"

    def make_inputs(self, seed: int) -> list[tuple[int, int, int, int]]:
        """One (q, n, v, w) per q in seeded order; v, w weight weighted_sum."""
        rng = random.Random(seed)
        qs = list(SEQ_QS)
        rng.shuffle(qs)
        return [(q, rng.randint(*SEQ_N), rng.randint(1, 9), rng.randint(1, 9)) for q in qs]

    def run_pass(self, lib, pairs) -> list[tuple]:
        seq, linrec = lib.sequences, lib.linrec
        out = []
        for q, n, v, w in pairs:
            out.append((
                (seq.counts_coupled(q, n), seq.counts_ternary(q, n), seq.counts_closed(q, n)),
                (seq.sums_coupled(q, n), seq.sums_ternary(q, n), seq.sums_closed(q, n)),
                seq.weighted_sum(n, v, w),
                linrec.eliminate(linrec.CoupledSystem(1, 1, 1, q - 4, q - 3, 0)),
                linrec.eliminate(linrec.CoupledSystem(2, 2, 2, q - 4, q - 3, 0)),
            ))
        return out

    def check(self, lib, pairs, out) -> tuple[int, int]:
        failed = 0
        for (q, n, v, w), (counts, sums, weighted, count_rec, sum_rec) in zip(pairs, out):
            # weighted_sum is the q = 5 row sum split by position parity
            total, alt = lib.sequences.sums_closed(5, n).s, lib.sequences.alt_sum(n)
            ok = (
                counts[0] == counts[1] == counts[2]
                and sums[0] == sums[1] == sums[2]
                and weighted == (total + alt) // 2 * v + (total - alt) // 2 * w
                and tuple(count_rec) == (q - 1, -(q - 1), 1)
                and tuple(sum_rec) == (q, -(q + 1), 2)
            )
            failed += not ok
        return len(pairs), failed + (len(out) != len(pairs))


# ---------------------------------------------------------------------------
# locate: closed loop of single locate_pair queries, plus two recurrence chains
# ---------------------------------------------------------------------------

LOCATE_MAX = 40
LOCATE_SHARE = 0.1  # of the unordered pairs in each row stratum, per pass
CELL_BUDGET = 10**7  # hpascal's default; used here only to sort pairs into strata
OVER_BUDGET = -1
SPOT_PAIRS = (((2, 3), 3, 2), ((3, 5), 4, 2), ((2, 2), 4, 4), ((4, 6), 6, 28))
CHAINS = (((1, 2, 1, 14), list(range(2, 16))), ((1, 2, 2, 5), [2, 4, 6, 8, 10]))


def pair_row(u: int, v: int) -> int:
    """Row of the q = 5 triangle holding u <= v side by side (Euclidean descent).

    Written out here rather than taken from the locator, so that a change
    to the locator cannot change the benchmark's inputs.
    """
    if u == 1:
        return v
    if u == v:
        return v + 2
    d = math.gcd(u, v)
    if d > 1:
        return d + 1 + pair_row(u // d, v // d)
    quotients, remainders = [], []
    a, b = v, u
    while b:
        quotients.append(a // b)
        a, b = b, a % b
        if b:
            remainders.append(b)
    penultimate = u if len(remainders) == 1 else remainders[-2]
    return penultimate + sum(quotients[:-1])


def locate_strata() -> dict[int, list[tuple[int, int]]]:
    """Unordered pairs u <= v <= LOCATE_MAX by target row; over-budget rows pooled."""
    last = 0  # row sizes grow with n, so a row fits the budget iff n <= last
    while row_size(5, last + 1) <= CELL_BUDGET:
        last += 1
    strata: dict[int, list[tuple[int, int]]] = {}
    for v in range(1, LOCATE_MAX + 1):
        for u in range(1, v + 1):
            row = pair_row(u, v)
            strata.setdefault(row if row <= last else OVER_BUDGET, []).append((u, v))
    return strata


def quotas(sizes: dict[int, int], share: float) -> dict[int, int]:
    """Per-stratum sample sizes summing to round(share * total), largest remainders first."""
    exact = {k: n * share for k, n in sizes.items()}
    out = {k: int(x) for k, x in exact.items()}
    short = round(share * sum(sizes.values())) - sum(out.values())
    for k in sorted(exact, key=lambda k: (out[k] - exact[k], k))[:short]:
        out[k] += 1
    return out


@dataclass
class LocatePass:
    answers: list[tuple]  # per query, see _answer
    latencies: list[float]
    chains: list[list[tuple]]


def _answer(loc) -> tuple:
    return (loc.u, loc.v, loc.row, loc.col, loc.verified, loc.orientation)


class Locate(Workload):
    name = "locate"

    def make_inputs(self, seed: int) -> list[tuple[int, int]]:
        """A stratified sample of pairs by target row, each asked in both orders.

        Asking (u, v) and (v, u) makes the pair's scan cost close to one
        full row wherever the seed's pairs sit, so a pass costs about the
        same for every seed.
        """
        rng = random.Random(seed)
        strata = locate_strata()
        want = quotas({k: len(v) for k, v in strata.items()}, LOCATE_SHARE)
        queries = []
        for key in sorted(strata):
            for u, v in rng.sample(strata[key], want[key]):
                queries += [(u, v), (v, u)]
        rng.shuffle(queries)
        return queries

    def run_pass(self, lib, queries) -> LocatePass:
        locator = lib.locator
        answers, latencies = [], []
        for u, v in queries:
            # a host-speed sample taken during the query is not the query's time
            spent, start = handler_s(), perf_counter()
            try:
                answer = _answer(locator.locate_pair(u, v))
            except locator.LocationFailure as exc:
                answer = (u, v, exc.row, None, "failure", None)
            latencies.append(perf_counter() - start - (handler_s() - spent))
            answers.append(answer)
        chains = [[_answer(loc) for loc in locator.embed_recurrence(*args)]
                  for args, _ in CHAINS]
        return LocatePass(answers, latencies, chains)

    def check(self, lib, queries, out: LocatePass) -> tuple[int, int]:
        failed = sum(a[4] == "failure" for a in out.answers)
        for (_, rows), chain in zip(CHAINS, out.chains):
            failed += [a[2] for a in chain] != rows or any(a[4] != "full-row" for a in chain)
        return len(queries) + len(CHAINS), failed

    def final_check(self, lib, queries, outs: list[LocatePass]) -> tuple[int, int]:
        """Full-row answers hold the pair at (row, col); passes agree; spot pairs land."""
        first = outs[0]
        spots = [lib.locator.locate_pair(u, v) for (u, v), _, _ in SPOT_PAIRS]
        misplaced = sum((loc.verified, loc.row, loc.col) != ("full-row", row, col)
                        for loc, (_, row, col) in zip(spots, SPOT_PAIRS))
        claims = [*first.answers, *(a for chain in first.chains for a in chain),
                  *map(_answer, spots)]
        by_row: dict[int, list[tuple]] = {}
        for u, v, row, col, verified, orientation in claims:
            if verified == "full-row":
                want = (u, v) if orientation == "as-given" else (v, u)
                by_row.setdefault(row, []).append((col, want))
        wrong = 0
        for row in lib.triangle.generate_rows(5, max(by_row, default=0)):
            wrong += sum(tuple(row.values[col:col + 2]) != want
                         for col, want in by_row.get(row.n, ()))
        unstable = sum((o.answers, o.chains) != (first.answers, first.chains) for o in outs[1:])
        return len(claims) + len(outs) - 1, wrong + misplaced + unstable

    def extras(self, queries, outs: list[LocatePass], pass_times, scales) -> dict[str, float]:
        samples = sorted(t * scale for o, scale in zip(outs, scales) for t in o.latencies)
        answers = outs[0].answers
        return {
            "query_p50_ms": percentile(samples, 50) * 1e3,
            "query_p90_ms": percentile(samples, 90) * 1e3,
            "query_samples": len(samples),
            "verified_share": sum(a[4] == "full-row" for a in answers) / len(answers),
        }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(n: int, candidates=(50, 90, 99, 99.9)) -> float | None:
    """Highest candidate percentile with at least ten of n samples beyond it."""
    best = None
    for p in candidates:
        if n - math.ceil(p / 100 * n) >= 10:
            best = p
    return best


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of sorted samples, refused when too few lie beyond it."""
    if tail_percentile(len(ordered), (p,)) is None:
        raise ValueError(f"{len(ordered)} samples leave fewer than ten beyond p{p}")
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


WORKLOADS = {w.name: w for w in (Verify(), Export(), Sequences(), Locate())}

"""The three benchmark workloads: their inputs, one pass of each, and output checks.

Nothing here imports frogcrit or numpy at module level, so the orchestrator
can load these definitions without paying for either; the functions that run
library code import it when called.  Every check returns a list of problems;
an empty list means the output is correct.
"""

import contextlib
import functools
import hashlib
import io
import math
import random
import warnings
from dataclasses import dataclass

# The seed of the discarded warm-up pass, whose outputs are pinned in
# expected.json; README.md gives the checks that hold for any seed.
DEFAULT_SEED = 7
SEED_MOD = 2**64
# One-sided normal tail beyond 4 standard errors: the significance level
# of every statistical check below.
FOUR_SIGMA_TAIL = 0.5 * math.erfc(4.0 / math.sqrt(2.0))
# A site's hit count is judged by its z-score only when this many hits are
# expected; below that the normal approximation fails and exact Poisson
# tails judge it instead.
NORMAL_MIN_COUNT = 10.0

_CLI_MAIN = "import sys; from frogcrit.cli import main; sys.exit(main())"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mc_seed(seed: int) -> int:
    return seed % SEED_MOD


def _fmt(x: float) -> str:
    return f"{x:g}"


def _table(stdout: str, header: list[str], rows: int) -> tuple[list[list[str]], list[str]]:
    """Split plain CLI output into `rows` table rows and the trailing lines."""
    lines = stdout.splitlines()
    if not lines or lines[0].split() != header:
        raise ValueError(f"header is not {header}")
    body = [line.split() for line in lines[1 : rows + 1]]
    if len(body) != rows or any(len(r) != len(header) for r in body):
        raise ValueError(f"expected {rows} rows of {len(header)} columns")
    return body, lines[rows + 1 :]


def poisson_tails(mean: float, k: int) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Poisson(mean), mean > 0, k >= 0."""
    def term(j):
        return math.exp(-mean + j * math.log(mean) - math.lgamma(j + 1))
    lower = math.fsum(term(j) for j in range(k + 1))
    upper, t, j = 0.0, term(k), k
    while t > 0.0 and t >= 1e-17 * upper:
        upper += t
        j += 1
        t *= mean / j
    return lower, upper


@functools.lru_cache(maxsize=None)
def renewal_oracle(c: float, q: float, n: int) -> list[float]:
    """Exact u_0..u_n of the geometric-hazard renewal sequence, in plain Python.

    Independent of the package: f_k = c q^k prod_{i<k}(1 - c q^i) and
    u_m = sum_k f_k u_{m-k}, summed with math.fsum.
    """
    f = [0.0] * (n + 1)
    surv, qk = 1.0, q
    for k in range(1, n + 1):
        f[k] = c * qk * surv
        surv *= 1.0 - c * qk
        qk *= q
    u = [1.0] + [0.0] * n
    for m in range(1, n + 1):
        u[m] = math.fsum(f[k] * u[m - k] for k in range(1, m + 1))
    return u


def run_cli_inprocess(argv: list[str]) -> tuple[int, str, int]:
    """Call frogcrit.cli.main(argv) in this process: (exit code, stdout, RuntimeWarnings)."""
    from frogcrit import cli

    buf = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(buf):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 1
    runtime = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return code, buf.getvalue(), runtime


@dataclass(frozen=True)
class LineMC:
    """`frogcrit simulate firework`: the vectorized line engine."""

    name: str = "line_mc"
    c: float = 1.0
    q: float = 0.25
    n: int = 200
    replicates: int = 100_000
    items_unit: str = "replicate-sites"
    home_layer: tuple = ("rng.uniform_matrix.s",)
    setup_code: str = "import frogcrit.cli"

    @property
    def items(self) -> int:
        return self.replicates * self.n

    def argv(self, seed: int) -> list[str]:
        return ["simulate", "firework", "--c", _fmt(self.c), "--q", _fmt(self.q),
                "--n", str(self.n), "--replicates", str(self.replicates),
                "--seed", str(mc_seed(seed))]

    def command(self, python: str, seed: int) -> list[str]:
        return [python, "-c", _CLI_MAIN, *self.argv(seed)]

    def check(self, stdout: str) -> list[str]:
        R, n = self.replicates, self.n
        oracle = renewal_oracle(self.c, self.q, n)
        try:
            rows, rest = _table(stdout, ["site", "hits", "p_hat", "u_exact", "z"], n + 1)
            sites = [int(r[0]) for r in rows]
            hits = [int(r[1]) for r in rows]
            p_hat = [r[2] for r in rows]
            u_printed = [float(r[3]) for r in rows]
            z = [float(r[4]) for r in rows]
        except ValueError as exc:
            return [f"unparseable firework output: {exc}"]
        problems = []
        if rest:
            problems.append(f"{len(rest)} unexpected trailing lines")
        if sites != list(range(n + 1)):
            problems.append("sites are not 0..n in order")
        if hits[0] != R:
            problems.append(f"hits[0] = {hits[0]}, expected {R}")
        if any(b > a for a, b in zip(hits, hits[1:])):
            problems.append("hits increase along the line")
        for k in range(n + 1):
            u = oracle[k]
            if p_hat[k] != f"{hits[k] / R:.6f}":
                problems.append(f"site {k}: p_hat {p_hat[k]} is not hits/replicates")
            if abs(u_printed[k] - u) > 6e-7:
                problems.append(f"site {k}: u_exact {u_printed[k]} differs from {u:.9g}")
            if k == 0:
                continue
            mean = R * u
            if mean >= NORMAL_MIN_COUNT:
                z_ref = (hits[k] / R - u) / math.sqrt(u * (1.0 - u) / R)
                if abs(z[k]) > 4.0:
                    problems.append(f"site {k}: |z| = {abs(z[k]):.2f} > 4")
                if abs(z[k] - z_ref) > 1e-5 * max(1.0, abs(z_ref)):
                    problems.append(f"site {k}: z {z[k]} differs from {z_ref:.6f}")
            else:
                # too few expected hits for a z-score: exact Poisson tails
                lower, upper = poisson_tails(mean, hits[k])
                if min(lower, upper) < FOUR_SIGMA_TAIL:
                    problems.append(
                        f"site {k}: {hits[k]} hits are beyond 4 sigma of mean {mean:.3g}"
                    )
        return problems


@dataclass(frozen=True)
class TreeMC:
    """`frogcrit simulate frog`: the scalar tree work queue, supercritical case."""

    name: str = "tree_mc"
    d: int = 2
    c: float = 1.0
    q: float = 0.35
    max_depth: int = 12
    replicates: int = 30_000
    items_unit: str = "replicates"
    home_layer: tuple = ("simulator.frog_replicate.s",)
    setup_code: str = "import frogcrit.cli"

    @property
    def items(self) -> int:
        return self.replicates

    def argv(self, seed: int) -> list[str]:
        return ["simulate", "frog", "--d", str(self.d), "--c", _fmt(self.c),
                "--q", _fmt(self.q), "--max-depth", str(self.max_depth),
                "--replicates", str(self.replicates), "--seed", str(mc_seed(seed))]

    def command(self, python: str, seed: int) -> list[str]:
        return [python, "-c", _CLI_MAIN, *self.argv(seed)]

    def check(self, stdout: str) -> list[str]:
        R, depth = self.replicates, self.max_depth
        try:
            rows, notes = _table(stdout, ["depth", "count", "reach_fraction"], depth + 1)
            depths = [int(r[0]) for r in rows]
            counts = [int(r[1]) for r in rows]
        except ValueError as exc:
            return [f"unparseable frog output: {exc}"]
        problems = []
        if depths != list(range(depth + 1)):
            problems.append("depths are not 0..max_depth in order")
        if any(x < 0 for x in counts) or sum(counts) != R:
            problems.append(f"histogram mass {sum(counts)} != replicates {R}")
            return problems
        tail = R
        for k, row in enumerate(rows):
            if row[2] != f"{tail / R:.6f}":
                problems.append(f"depth {k}: reach_fraction {row[2]} is not the tail mass")
            tail -= counts[k]
        expected = self.c * self.d * self.q
        reach1 = (R - counts[0]) / R
        se = math.sqrt(expected * (1.0 - expected) / R)
        if abs(reach1 - expected) > 4.0 * se:
            problems.append(f"reach_fraction[1] = {reach1:.6f} is beyond 4 SE of {expected}")
        if notes != ["growth classification (horizon 200): supercritical"]:
            problems.append(f"classification note is {notes!r}, expected supercritical")
        return problems


@dataclass(frozen=True)
class ExactSweep:
    """In-process exact layer: solve_qc, convergence_rate and growth_classifier per cell."""

    name: str = "exact_sweep"
    degrees: tuple = (2, 3, 5, 10, 30, 100)
    scales: tuple = (0.25, 0.5, 1.0)
    horizon: int = 5000
    margin: float = 0.05
    items_unit: str = "cells"
    home_layer: tuple = ("renewal.growth_sequence.sub_s", "renewal.growth_sequence.sup_s")
    setup_code: str = (
        "from frogcrit import cli, critical, renewal, distributions\n"
        "r = critical.solve_qc(2, 1.0)\n"
        "renewal.convergence_rate(distributions.HazardSpec(1.0, r.q_c))\n"
        "renewal.growth_classifier(2, distributions.HazardSpec(1.0, r.q_c), 200)\n"
    )

    @property
    def items(self) -> int:
        return len(self.degrees) * len(self.scales)

    def cells(self, seed: int) -> list[tuple[int, float]]:
        """Every (d, c) cell, in an order drawn from the seed."""
        cells = [(d, c) for d in self.degrees for c in self.scales]
        random.Random(seed).shuffle(cells)
        return cells

    def run_cell(self, d: int, c: float) -> tuple[dict, int]:
        """One cell through the library: (result record, RuntimeWarnings raised)."""
        from frogcrit import critical, distributions, renewal

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = critical.solve_qc(d, c)
            rate = renewal.convergence_rate(distributions.HazardSpec(c, res.q_c))
            below = distributions.HazardSpec(c, res.q_c * (1.0 - self.margin))
            above = distributions.HazardSpec(c, res.q_c * (1.0 + self.margin))
            sub = renewal.growth_classifier(d, below, self.horizon)
            sup = renewal.growth_classifier(d, above, self.horizon)
        record = {
            "d": d, "c": c, "q_c": res.q_c, "lower_c2": res.lower_c2,
            "lower_c3": res.lower_c3, "gamma": rate.gamma,
            "below": sub.value, "above": sup.value,
        }
        return record, sum(issubclass(w.category, RuntimeWarning) for w in caught)

    def check(self, record: dict) -> list[str]:
        cell = f"cell d={record['d']} c={record['c']}"
        problems = []
        if not abs(record["gamma"] - record["d"]) <= 1e-6:
            problems.append(f"{cell}: |gamma - d| = {abs(record['gamma'] - record['d']):.3g}")
        if not record["lower_c3"] <= record["lower_c2"] <= record["q_c"]:
            problems.append(f"{cell}: lower_c3 <= lower_c2 <= q_c fails")
        if record["below"] != "subcritical":
            problems.append(f"{cell}: q_c*{1 - self.margin:g} is {record['below']}")
        if record["above"] != "supercritical":
            problems.append(f"{cell}: q_c*{1 + self.margin:g} is {record['above']}")
        return problems

    def run_pass(self, cells) -> tuple[list[dict], int, list[str]]:
        """One sweep: (records, failed cells, problems)."""
        records, failed, problems = [], 0, []
        for d, c in cells:
            try:
                record, runtime = self.run_cell(d, c)
            except Exception as exc:  # a cell that raises is a failed operation
                failed += 1
                problems.append(f"cell d={d} c={c}: {type(exc).__name__}: {exc}")
                continue
            found = self.check(record)
            if runtime:
                found.append(f"cell d={d} c={c}: {runtime} RuntimeWarning(s)")
            failed += bool(found)
            problems += found
            records.append(record)
        return records, failed, problems

    @staticmethod
    def digest(records: list[dict]) -> str:
        """SHA-256 of the records in (d, c) order, floats at full precision."""
        lines = [
            ",".join(repr(r[k]) for k in
                     ("d", "c", "q_c", "lower_c2", "lower_c3", "gamma", "below", "above"))
            for r in sorted(records, key=lambda r: (r["d"], r["c"]))
        ]
        return sha256("\n".join(lines) + "\n")


WORKLOADS = {w.name: w for w in (LineMC(), TreeMC(), ExactSweep())}

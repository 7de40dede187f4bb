"""Command-line surface: solvers, bound tables, and seeded simulations.

Every command is deterministic given its full flag set (including the
seed).  Results go to stdout, diagnostics to stderr.  Exit codes:
0 success, 2 domain/validation error, 3 solver or simulation failure.

Output formats:
  plain  aligned columns, probabilities at 6 decimals
  csv    header row + rows; first column carries the schema version
  jsonl  one JSON object per row with a "schema" key

Every library name a command calls is read through this module, and the
module `__getattr__` (PEP 562) hands it to the package table, which loads
its submodule on first use.  So importing the CLI loads only `errors` and
builtin modules: building the parser loads argparse, `qc` and `table` the
solver, `gamma` and `simulate` the renewal layer, and only `simulate` the
simulator and numpy; no command loads dataclasses.  `json` loads only for
`--format jsonl`.  Reading through the module also means that a name
replaced with setattr (as bench/tracing.py does) is the one that runs.
"""

import atexit
import gc
import sys

from . import _NAMES
from .errors import ActivationCapError, BracketError, ParameterError

# At exit CPython runs the atexit handlers, flushes stdout and stderr, then clears the modules
# with full collections; gc.freeze() moves every live object into the permanent generation,
# which they skip.  So cyclic garbage alive at exit is not finalized: the CLI holds none.
atexit.register(gc.freeze)

_FORMATS = ("plain", "csv", "jsonl")
# a table call of this many degrees takes about 100 s (cone rows)
_MAX_DEGREES = 1_000_000
# a firework run takes ~13 us and ~0.7 KB of RSS per site (2.6 s and 148 MB at 2e5 sites)
_MAX_SITES = 1_000_000

# this module, whose attributes the commands call (see the docstring)
_cli = sys.modules[__name__]


def __getattr__(name):
    if name in _NAMES:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parse_d_list(text: str) -> list[int]:
    """Parse a degree list like "2..10,15,20" into explicit integers.

    Ranges are counted from their endpoints before any is built, so a list
    of more than _MAX_DEGREES degrees is refused without allocating it.
    """
    ranges: list[tuple[int, int]] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            if ".." in piece:
                a, b = piece.split("..")
                lo, hi = int(a), int(b)
                if hi < lo:
                    raise ValueError
            else:
                lo = hi = int(piece)
        except ValueError:
            raise ParameterError(f"cannot parse degree entry {piece!r}") from None
        ranges.append((lo, hi))
    if not ranges:
        raise ParameterError("the degree list is empty")
    if sum(hi - lo + 1 for lo, hi in ranges) > _MAX_DEGREES:
        raise ParameterError(f"the degree list has more than {_MAX_DEGREES} entries")
    return [d for lo, hi in ranges for d in range(lo, hi + 1)]


def _fmt_plain(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(schema: str, header: list[str], rows: list[list], fmt: str,
          out, notes: list[str] | None = None) -> None:
    """Render rows in the requested format.

    Notes (free-form summary lines) appear after the table in plain
    output and as a separate "<schema>.note" object in jsonl; csv output
    carries rows only.
    """
    if fmt == "csv":
        print("schema," + ",".join(header), file=out)
        for row in rows:
            print(",".join([schema] + [_fmt_csv(v) for v in row]), file=out)
        return
    if fmt == "jsonl":
        import json

        for row in rows:
            obj = {"schema": schema}
            obj.update(zip(header, row))
            print(json.dumps(obj), file=out)
        for note in notes or []:
            print(json.dumps({"schema": schema + ".note", "note": note}), file=out)
        return
    cells = [[_fmt_plain(v) for v in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in cells)) if cells else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)), file=out)
    for r in cells:
        print("  ".join(v.rjust(w) for v, w in zip(r, widths)), file=out)
    for note in notes or []:
        print(note, file=out)


def _cmd_qc(args, out) -> int:
    res = _cli.solve_qc(args.d, args.c, args.tol)
    header = ["d", "c", "q_c", "residual", "lower_c2", "upper_c2", "lower_c3", "upper_c3"]
    row = [res.d, res.c, res.q_c, res.residual,
           res.lower_c2, res.upper_c2, res.lower_c3, res.upper_c3]
    if args.format == "plain":
        for name, value in zip(header, row):
            if name == "residual":
                print(f"{name:<10} {value:.3e}", file=out)
            else:
                print(f"{name:<10} {_fmt_plain(value)}", file=out)
        return 0
    _emit("qc.v1", header, [row], args.format, out)
    return 0


def _cmd_table(args, out) -> int:
    model = _cli.Model(args.model)
    columns, rows = _cli.bound_table(model, parse_d_list(args.d))
    _emit(f"{model.value}.v1", columns, rows, args.format, out)
    return 0


def _cmd_gamma(args, out) -> int:
    res = _cli.convergence_rate(_cli.HazardSpec(args.c, args.q))
    header = ["c", "q", "gamma", "residual", "bracket_lo", "bracket_hi", "terms"]
    row = [args.c, args.q, res.gamma, res.residual,
           res.bracket[0], res.bracket[1], res.truncation_K]
    if args.format == "plain":
        print(f"gamma      {res.gamma:.6f}", file=out)
        print(f"residual   {res.residual:.3e}", file=out)
        print(f"bracket    [{res.bracket[0]:.12f}, {res.bracket[1]:.12f}]", file=out)
        print(f"terms      {res.truncation_K}", file=out)
        return 0
    _emit("gamma.v1", header, [row], args.format, out)
    return 0


def _cmd_simulate(args, out) -> int:
    if args.engine == "firework":
        if args.n > _MAX_SITES:
            raise ParameterError(f"n must be at most {_MAX_SITES}, got {args.n}")
        spec = _cli.HazardSpec(args.c, args.q)
        outcome = _cli.simulate_firework(spec, args.n, args.replicates, args.seed)
        exact = _cli.renewal_probabilities(spec, args.n).values
        header = ["site", "hits", "p_hat", "u_exact", "z"]
        rows = []
        for site in range(args.n + 1):
            p_hat = outcome.branch_hits[site] / args.replicates
            u = exact[site]
            se = (u * (1.0 - u) / args.replicates) ** 0.5
            z = (p_hat - u) / se if se > 0.0 else 0.0
            rows.append([site, int(outcome.branch_hits[site]), p_hat, u, z])
        _emit("firework.v1", header, rows, args.format, out)
        return 0
    params = _cli.TreeParams(args.d, args.c, args.q)
    # without --cap, FrogSimConfig's own default applies
    cap = {} if args.cap is None else {"activation_cap": args.cap}
    config = _cli.FrogSimConfig(
        params=params, max_depth=args.max_depth,
        replicates=args.replicates, seed=args.seed, **cap,
    )
    verdict = _cli.growth_classifier(args.d, params.hazard_spec, 200)
    outcome = _cli.simulate_frog(config)
    fractions = outcome.reach_fractions()
    header = ["depth", "count", "reach_fraction"]
    rows = [
        [k, int(outcome.reached_depth[k]), float(fractions[k])]
        for k in range(args.max_depth + 1)
    ]
    notes = [f"growth classification (horizon 200): {verdict.value}"]
    _emit("frog.v1", header, rows, args.format, out, notes=notes)
    return 0


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="frogcrit",
        description="Critical parameters of geometric-lifetime growth "
                    "processes on directed trees: solver, bounds, tables, "
                    "and seeded simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    qc = sub.add_parser("qc", help="solve the critical parameter q_c(d, c)")
    qc.add_argument("--d", type=int, required=True, help="tree degree, >= 2")
    qc.add_argument("--c", type=float, required=True, help="hazard scale in (0, 1]")
    qc.add_argument("--tol", type=float, default=1e-12)
    qc.add_argument("--format", choices=_FORMATS, default="plain")
    qc.set_defaults(func=_cmd_qc)

    table = sub.add_parser("table", help="bound tables for the coupled models")
    table.add_argument("--model", choices=sorted(m.value for m in _cli.Model), required=True)
    table.add_argument("--d", type=str, required=True,
                       help="degree list, e.g. 2..10,15,20,30,50,100")
    table.add_argument("--format", choices=_FORMATS, default="plain")
    table.set_defaults(func=_cmd_table)

    gamma = sub.add_parser("gamma", help="renewal decay rate for a hazard law")
    gamma.add_argument("--c", type=float, required=True)
    gamma.add_argument("--q", type=float, required=True)
    gamma.add_argument("--format", choices=_FORMATS, default="plain")
    gamma.set_defaults(func=_cmd_gamma)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo engines")
    engines = sim.add_subparsers(dest="engine", required=True)

    frog = engines.add_parser("frog", help="growth process on the directed tree")
    frog.add_argument("--d", type=int, required=True)
    frog.add_argument("--c", type=float, required=True)
    frog.add_argument("--q", type=float, required=True)
    frog.add_argument("--max-depth", type=int, required=True)
    frog.add_argument("--replicates", type=int, default=100_000)
    frog.add_argument("--seed", type=int, required=True)
    frog.add_argument("--cap", type=int, help="activated-vertex cap per replicate")
    frog.add_argument("--format", choices=_FORMATS, default="plain")
    frog.set_defaults(func=_cmd_simulate)

    firework = engines.add_parser("firework", help="line spreading process")
    firework.add_argument("--c", type=float, required=True)
    firework.add_argument("--q", type=float, required=True)
    firework.add_argument("--n", type=int, required=True, help="last site tracked")
    firework.add_argument("--replicates", type=int, default=100_000)
    firework.add_argument("--seed", type=int, required=True)
    firework.add_argument("--format", choices=_FORMATS, default="plain")
    firework.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, ActivationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

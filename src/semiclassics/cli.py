"""Command-line front end and the crossing-time vs lifetime pipeline.

Subcommands: tau, trajectory, turning-points, crossing-time, table1,
gutzwiller eval, gutzwiller poles, reversibility.  Every command prints
a JSON run manifest to stderr with all resolved parameters, so a run
can be replayed exactly.  Numeric output uses 6 significant digits in
human tables and 17 in CSV.

The argparse tree is built on the first ``main`` call and reused by
every later call in the process.

Exit codes: 0 on success, 1 when a run fails, 2 for a usage error
(including a number that is out of range or not finite).
"""

import argparse
import cmath
import datetime
import functools
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, fields
from importlib import resources

from . import __version__
from .cubic import (
    CubicModel,
    HarmonicModel,
    corrected_quasi_bound_energy,
    quasi_bound_energy,
    turning_points,
    wkb_lifetime,
)
from .errors import NoCrossing, SemiclassicsError
from .gutzwiller import (
    PoleIndex,
    SemiclassicalContext,
    find_pole,
    load_orbit,
    pole_residual,
    response_function,
)
from .trajectory import (
    SAMPLED_T_MAX,
    IntegratorConfig,
    crossing_time,
    initial_momentum,
    integrate,
    reversibility_error,
)

__all__ = [
    "TABLE1_G",
    "Table1Row",
    "compute_table1",
    "load_reference_table",
    "main",
    "resolve_energy",
]

# Largest (k, s) rectangle `gutzwiller poles` searches: one Newton solve per pole.
MAX_POLES = 10**5

ROOT_HEADERS = ["root", "re", "im"]


# ---------------------------------------------------------------------------
# output: run manifest and the row renderer
# ---------------------------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {obj!r}")


def _command(args) -> str:
    return " ".join(filter(None, (args.command, getattr(args, "gutzwiller_command", None))))


def _emit_manifest(args, **resolved) -> None:
    """Print everything needed to replay the run bit-identically to stderr:
    the parsed flags, overlaid with the values the command resolved."""
    parameters = {name: value for name, value in vars(args).items()
                  if name not in ("command", "gutzwiller_command", "func")}
    manifest = {
        "command": _command(args),
        "parameters": {**parameters, **resolved},
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    print(json.dumps(manifest, default=_json_default, sort_keys=True), file=sys.stderr)


def _cell(value, digits: int, missing: str) -> str:
    if value is None:
        return missing
    if isinstance(value, (str, int)):
        return str(value)
    return f"{value:.{digits}g}"


def _render(fmt: str, headers, rows=(), columns=()):
    """Yield the text of rows (tuples) of plain values in chunks of whole
    lines: CSV with 17 significant digits, taking the rows as they come,
    or a right-aligned table with 6.  A missing value (None) is an empty
    CSV cell and ``none`` in a table.  A CSV chunk is one row.

    ``columns``, for CSV in place of ``rows``, holds float64 arrays of
    equal length, one per header; a chunk is then up to
    _csvfloat._BLOCK_ROWS of its rows.
    """
    if fmt == "csv":
        yield ",".join(headers) + "\n"
        for row in rows:
            yield ",".join(_cell(v, 17, "") for v in row) + "\n"
        if columns:
            # only a command with sample arrays gets here; every cell is
            # '%.17g' % v, the conversion of _cell
            from ._csvfloat import csv_rows

            yield from csv_rows(columns)
        return
    cells = [[_cell(v, 6, "none") for v in row] for row in rows]
    widths = [max(len(c) for c in column) for column in zip(headers, *cells)]
    for row in [headers, *cells]:
        yield "  ".join(c.rjust(w) for c, w in zip(row, widths)) + "\n"


def _emit(args, headers, rows=(), columns=()) -> None:
    """Write rows to --out or stdout as a table, CSV, or JSON:
    {"command", "rows"} with one object per row keyed by the headers.  A
    subcommand without --format (trajectory) writes CSV, the only format
    that takes ``columns`` (see _render)."""
    fmt = getattr(args, "format", "csv")
    if fmt == "json":
        payload = {"command": _command(args), "rows": [dict(zip(headers, r)) for r in rows]}
        lines = [json.dumps(payload) + "\n"]
    else:
        lines = _render(fmt, headers, rows, columns)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _root_rows(tps):
    return [(name, x.real, x.imag) for name, x in zip(("x1", "x2", "x3"), tps)]


# ---------------------------------------------------------------------------
# flag parsing
# ---------------------------------------------------------------------------

def _number_type(accept, what: str):
    """An argparse type: a finite float for which accept(value) holds."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive = _number_type(lambda v: v > 0, "a positive finite number")
_nonnegative = _number_type(lambda v: v >= 0, "a nonnegative finite number")
_finite = _number_type(lambda v: True, "a finite number")


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _complex(text: str) -> complex:
    """A finite complex number: re=<float>,im=<float> with each part
    exactly once, or a bare float (imaginary part 0)."""
    if "=" not in text:
        return complex(_finite(text), 0.0)
    pairs = [item.partition("=") for item in text.split(",")]
    parts = {key: value for key, _, value in pairs}
    if len(pairs) != 2 or set(parts) != {"re", "im"}:
        raise argparse.ArgumentTypeError(f"expected re=<float>,im=<float>, got {text!r}")
    return complex(_finite(parts["re"]), _finite(parts["im"]))


def _complex_or(*names):
    """An argparse type: one of the named policies, or else _complex."""
    return lambda text: text if text in names else _complex(text)


def resolve_energy(policy, g: float) -> complex:
    """Turn an energy policy into a complex energy for coupling g."""
    if policy == "corrected":
        return corrected_quasi_bound_energy(g).energy
    if policy == "leading":
        return quasi_bound_energy(g).energy
    return complex(policy)


def _resolve_start(args):
    """(model, energy, x0, p0, IntegratorConfig) from --g/--harmonic,
    --energy, --x0, --branch and the integration flags, after writing the
    run manifest with the resolved start.  A named start is a turning
    point with p0 = 0; the harmonic oscillator takes E = 1/2 unless given
    and starts from sqrt(2E) for either name.
    """
    branch = 1 if args.branch == "+" else -1
    harmonic = getattr(args, "harmonic", False)
    if harmonic:
        model = HarmonicModel()
        energy = args.energy if isinstance(args.energy, complex) else complex(0.5, 0.0)
    else:
        model = CubicModel(args.g)
        energy = resolve_energy(args.energy, args.g)
    if isinstance(args.x0, complex):
        x0, p0 = args.x0, initial_momentum(model, energy, args.x0, branch)
    elif harmonic:
        x0, p0 = cmath.sqrt(2.0 * energy), 0j
    else:
        x0, p0 = getattr(turning_points(model, energy), args.x0), 0j
    cfg = _config(args)
    _emit_manifest(args, g=model.g, energy=energy, x0_policy=str(args.x0), x0=x0, p0=p0,
                   branch=branch)
    return model, energy, x0, p0, cfg


def _config(args) -> IntegratorConfig:
    """IntegratorConfig from the tolerance, horizon and sampling flags the
    subcommand takes."""
    names = [f.name for f in fields(IntegratorConfig)]
    return IntegratorConfig(**{n: getattr(args, n) for n in names if hasattr(args, n)})


# ---------------------------------------------------------------------------
# table1 pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    """One coupling's classical crossing time vs quantum lifetime."""

    g: float
    t_c: float | None  # None marks NoCrossing
    tau: float
    ratio: float | None
    t_c_ref: float | None  # None: no shipped reference for this g
    tau_ref: float | None


def load_reference_table() -> dict:
    """Reference values shipped with the package (g, t_c, tau columns)."""
    text = resources.files("semiclassics").joinpath("data/table1_reference.json").read_text(
        encoding="utf-8"
    )
    return json.loads(text)


_REFERENCE = load_reference_table()

# Benchmark coupling grid: the couplings of the shipped reference table.
TABLE1_G = tuple(_REFERENCE["g"])

_REFERENCE_ROWS = {round(g, 10): (tc, tau) for g, tc, tau
                   in zip(_REFERENCE["g"], _REFERENCE["t_c"], _REFERENCE["tau"])}


def compute_table1(g_values=TABLE1_G, cfg: IntegratorConfig | None = None):
    """Crossing time and lifetime for each coupling, default policies,
    with the shipped reference values for the benchmark couplings.

    The default energy construction is the corrected quasi-bound energy
    E = E0(g) - i/(2 tau) with E0 the second-order ground-state value,
    started from the leftmost turning point x1 with p0 = 0.
    """
    rows = []
    for g in g_values:
        model = CubicModel(g)
        state = corrected_quasi_bound_energy(g)
        x1 = turning_points(model, state.energy).x1
        try:
            t_c = crossing_time(model, state.energy, x1, 0j, cfg)
            ratio = t_c / state.tau
        except NoCrossing:
            t_c = None
            ratio = None
        t_c_ref, tau_ref = _REFERENCE_ROWS.get(round(g, 10), (None, None))
        rows.append(Table1Row(g, t_c, state.tau, ratio, t_c_ref, tau_ref))
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_tau(args) -> int:
    _emit_manifest(args)
    _emit(args, ["g", "tau"], [(g, wkb_lifetime(g)) for g in args.g])
    return 0


def _cmd_turning_points(args) -> int:
    energy = resolve_energy(args.energy, args.g)
    _emit_manifest(args, energy=energy)
    _emit(args, ROOT_HEADERS, _root_rows(turning_points(CubicModel(args.g), energy)))
    return 0


def _cmd_trajectory(args) -> int:
    model, energy, x0, p0, cfg = _resolve_start(args)
    tps = turning_points(model, energy)
    traj = integrate(model, energy, x0, p0, cfg)
    columns = (traj.t, traj.x.real, traj.x.imag, traj.p.real, traj.p.imag, traj.energy_drift)
    _emit(args, ["t", "re_x", "im_x", "re_p", "im_p", "energy_drift"], columns=columns)
    sys.stdout.writelines(_render("table", ROOT_HEADERS, _root_rows(tps)))
    print(f"wrote {len(traj)} samples to {args.out} "
          f"(max energy drift {traj.max_energy_drift:.3e})")
    return 0


def _cmd_crossing_time(args) -> int:
    model, energy, x0, p0, cfg = _resolve_start(args)
    _emit(args, ["g", "t_c"], [(args.g, crossing_time(model, energy, x0, p0, cfg))])
    return 0


def _cmd_table1(args) -> int:
    _emit_manifest(args, energy_policy="corrected", x0_policy="x1")
    rows = compute_table1(args.g, _config(args))
    names = [f.name for f in fields(Table1Row)]
    _emit(args, names, map(operator.attrgetter(*names), rows))
    return 0


def _cmd_gutzwiller_eval(args) -> int:
    orbit = load_orbit(args.orbit)
    _emit_manifest(args)
    value = response_function(SemiclassicalContext(hbar=args.hbar), orbit, args.energy)
    _emit(args, ["re_g", "im_g"], [(value.real, value.imag)])
    return 0


def _cmd_gutzwiller_poles(args) -> int:
    if (args.k_max + 1) * (args.s_max + 1) > MAX_POLES:
        print(f"error: more than {MAX_POLES} poles in the (k, s) rectangle", file=sys.stderr)
        return 2
    orbit = load_orbit(args.orbit)
    ctx = SemiclassicalContext(hbar=args.hbar)
    _emit_manifest(args)
    rows = []
    failures = 0
    for k in range(args.k_max + 1):
        for s in range(args.s_max + 1):
            idx = PoleIndex(k=k, s=s)
            try:
                pole = find_pole(ctx, orbit, idx)
            except SemiclassicsError as exc:
                failures += 1
                print(f"pole (k={k}, s={s}) failed: {exc}", file=sys.stderr)
                continue
            residual = abs(pole_residual(ctx, orbit, pole, idx))
            rows.append((k, s, pole.real, pole.imag, residual))
    _emit(args, ["k", "s", "re_e", "im_e", "residual"], rows)
    return 1 if failures else 0


def _cmd_reversibility(args) -> int:
    model, energy, x0, p0, cfg = _resolve_start(args)
    error = reversibility_error(model, energy, x0, p0, args.duration, cfg)
    headers = ["duration", "retrace_error", "rel_tol", "abs_tol"]
    _emit(args, headers, [(args.duration, error, cfg.rel_tol, cfg.abs_tol)])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reads every negative number, exponent form included, as a value
    (argparse's own pattern takes -5e-1 for an option)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _horizon(default: float) -> argparse.ArgumentParser:
    horizon = argparse.ArgumentParser(add_help=False)
    horizon.add_argument("--t-max", type=_nonnegative, default=default,
                         help="integration horizon (default %(default)g)")
    return horizon


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once: parse_args leaves the parser unchanged and returns a fresh
    # Namespace, every default is immutable, and the handlers look up the
    # library functions as module globals when they run.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="write output to this file")
    output.add_argument("--format", choices=("table", "csv", "json"), default="table",
                        help="output format (default table)")

    tolerances = argparse.ArgumentParser(add_help=False)
    tolerances.add_argument("--rel-tol", type=_positive, default=IntegratorConfig.rel_tol,
                            help="relative integration tolerance (default %(default)g); "
                            "the energy drift guard fails table1 above about 2e-7")
    tolerances.add_argument("--abs-tol", type=_positive, default=IntegratorConfig.abs_tol,
                            help="absolute integration tolerance (default %(default)g)")

    # trajectory takes the same flags, but its samples come from the closed
    # form: no stepper reads them there
    unused_tolerances = argparse.ArgumentParser(add_help=False)
    unused = ("no effect here (default %(default)g): the samples come from the closed form; "
              "it sets the Taylor stepper of crossing-time, table1 and reversibility")
    unused_tolerances.add_argument("--rel-tol", type=_positive, default=IntegratorConfig.rel_tol,
                                   help=unused)
    unused_tolerances.add_argument("--abs-tol", type=_positive, default=IntegratorConfig.abs_tol,
                                   help=unused)

    energy = argparse.ArgumentParser(add_help=False)
    energy.add_argument("--energy", type=_complex_or("corrected", "leading"),
                        default="corrected",
                        help="'corrected' (default), 'leading', re=..,im=.. or a float")

    start = argparse.ArgumentParser(add_help=False)
    start.add_argument("--x0", type=_complex_or("x1", "x2"), default="x1",
                       help="'x1' (default), 'x2', re=..,im=.. or a float")
    start.add_argument("--branch", choices=("+", "-"), default="+",
                       help="momentum branch used for explicit --x0")

    horizon = _horizon(IntegratorConfig.t_max)

    # Parents declared once and listed last in parents=, so that --help
    # keeps each subcommand's flag order.
    single_g = argparse.ArgumentParser(add_help=False)
    single_g.add_argument("--g", type=_positive, required=True)

    orbit = argparse.ArgumentParser(add_help=False)
    orbit.add_argument("--orbit", required=True, help="orbit-model JSON file")

    parser = _Parser(
        prog="semiclassics",
        description="Complex classical trajectories in the cubic well and "
                    "single-orbit semiclassical resonances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tau", parents=[output],
                       help="barrier-penetration lifetime tau(g)")
    p.add_argument("--g", type=_positive, nargs="+", required=True)
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("turning-points", parents=[output, energy, single_g],
                       help="the three roots of V(x) = E")
    p.set_defaults(func=_cmd_turning_points)

    p = sub.add_parser("trajectory",
                       parents=[unused_tolerances, _horizon(SAMPLED_T_MAX), energy, start,
                                single_g],
                       help="integrate and export a sampled trajectory as CSV")
    p.add_argument("--out", required=True, help="the CSV file to write")
    p.add_argument("--sample-interval", type=_positive, default=IntegratorConfig.sample_interval)
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("crossing-time",
                       parents=[output, tolerances, horizon, energy, start, single_g],
                       help="first time Re x(t) reaches Re x3")
    p.set_defaults(func=_cmd_crossing_time)

    p = sub.add_parser("table1", parents=[output, tolerances, horizon],
                       help="crossing time vs lifetime over the benchmark grid")
    p.add_argument("--g", type=_positive, nargs="+", default=TABLE1_G,
                   help="override the benchmark coupling grid")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("gutzwiller", help="single-orbit response and poles")
    gsub = p.add_subparsers(dest="gutzwiller_command", required=True)

    pe = gsub.add_parser("eval", parents=[output, orbit],
                         help="evaluate the response function at one energy")
    pe.add_argument("--energy", type=_complex, required=True,
                    help="re=..,im=.. or a float")
    pe.add_argument("--hbar", type=_positive, default=1.0)
    pe.set_defaults(func=_cmd_gutzwiller_eval)

    pp = gsub.add_parser("poles", parents=[output, orbit],
                         help="resonance poles over a (k, s) rectangle")
    pp.add_argument("--k-max", type=_count, default=3)
    pp.add_argument("--s-max", type=_count, default=3)
    pp.add_argument("--hbar", type=_positive, default=1.0)
    pp.set_defaults(func=_cmd_gutzwiller_poles)

    p = sub.add_parser("reversibility", parents=[output, tolerances, energy, start],
                       help="forward-backward retrace error")
    model = p.add_mutually_exclusive_group(required=True)
    model.add_argument("--g", type=_positive)
    model.add_argument("--harmonic", action="store_true",
                       help="use the reference harmonic oscillator")
    p.add_argument("--duration", type=_nonnegative, required=True,
                   help="forward (and backward) integration time")
    p.set_defaults(func=_cmd_reversibility)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except (SemiclassicsError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

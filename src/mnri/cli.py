"""Command-line front end.

Four subcommands: ``compare`` (nested-model reclassification report as
JSON), ``simulate`` (Type-1-error table as CSV), ``plotdata`` (per-subject
base/expanded probability pairs as CSV), and ``spline`` (restricted cubic
spline expansion of a CSV column).

Exit codes are a stable contract: 0 success, 2 data errors, 3 fit
failures, 4 degenerate outcome.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, glm, inference, reclass, sim
from .errors import (
    DegenerateOutcome,
    ExcessiveFitFailures,
    FitError,
    MnriError,
    TooFewDistinctValues,
)
from .glm import Dataset, Link
from .reclass import TrainTestPair
from .spline import KNOT_QUANTILES, default_knots, rcs_basis

EXIT_OK = 0
EXIT_DATA = 2
EXIT_FIT = 3
EXIT_DEGENERATE = 4


class DataError(MnriError):
    """Malformed or unusable input data (maps to exit code 2)."""


@dataclass(frozen=True)
class ColumnSpec:
    outcome: str
    base: tuple[str, ...]
    new: tuple[str, ...]
    spline: dict[str, int]

    def __post_init__(self):
        names = [self.outcome, *self.base, *self.new]
        if len(set(names)) != len(names):
            raise DataError("outcome, base, and new column names must be distinct")
        for col in self.spline:
            if col not in self.base and col not in self.new:
                raise DataError(f"spline column {col!r} is not among the base/new columns")


# The only bytes the fast path accepts in a data line.
_NUMERIC_BYTES = b"0123456789+-.eE, \t\r\n"


def _read_numeric(path: str) -> tuple[list[str], dict[str, np.ndarray]] | None:
    """Fast path of ``_read_table``: the header as ``csv`` reads it, and each
    column as a contiguous float64 array from numpy's C reader. Returns None
    for any file it cannot vouch that ``_read_cells`` reads to the same
    finite values.

    The end of the file ends its last line, as it does for ``csv``. It
    vouches only when the file decodes, has no line longer than
    ``csv.field_size_limit()`` and no ``\\r`` outside ``\\r\\n``;
    the header fits on its first line, with distinct names; and every data
    line holds only ``_NUMERIC_BYTES``. Each newline then ends one row for
    both readers and each comma splits a field, and a field of those bytes
    parses as ``float()`` parses it or fails in both. Last, the C reader must
    return one finite row per data line, each as long as the header.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        if not data.endswith(b"\n"):
            data += b"\n"
        ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
        if (
            ends.size < 2
            or np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit()
            or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")
        ):
            return None
        body = data[ends[0] + 1:]
        if body.translate(None, _NUMERIC_BYTES):
            return None
        # The reader takes a second line only if the header's quote is open.
        reader = csv.reader([data[: ends[0] + 1].decode("utf-8-sig"), ""])
        header = next(reader)
        if reader.line_num != 1 or len(set(header)) != len(header):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            table = np.loadtxt(
                io.BytesIO(body), delimiter=",", comments=None, ndmin=2, dtype=float
            )
    except Exception:  # whatever went wrong, the string parser reports it
        return None
    if table.shape != (ends.size - 1, len(header)) or not np.isfinite(table).all():
        return None
    # One array per column: a column kept (a Dataset's y) holds only itself.
    return header, {name: table[:, j].copy() for j, name in enumerate(header)}


def _read_table(path: str) -> tuple[list[str], dict]:
    """The header and each column by name: float64 arrays when the fast path
    vouches for the file, otherwise the raw cell strings of ``_read_cells``,
    whose messages every malformed file gets."""
    return _read_numeric(path) or _read_cells(path)


def _read_cells(path: str) -> tuple[list[str], dict[str, list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            columns: dict[str, list[str]] = {name: [] for name in header}
            if len(columns) != len(header):
                raise DataError(f"{path}: duplicate column names in header")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(f"{path}:{line_no}: expected {len(header)} fields")
                for name, value in zip(header, row):
                    columns[name].append(value)
        return header, columns
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _numeric_column(columns: dict, name: str, path: str) -> np.ndarray:
    if name not in columns:
        raise DataError(f"{path}: missing column {name!r}")
    raw = columns[name]
    if isinstance(raw, np.ndarray):  # from _read_numeric: float64 and finite
        return raw
    # np.array applies float(), which strips like str.strip(), to each cell in C.
    # Only a column that fails is scanned cell by cell, to name its first bad cell.
    try:
        out = np.array(raw, dtype=float)
        if np.all(np.isfinite(out)):
            return out
    except ValueError:
        pass
    for i, value in enumerate(raw):
        text = value.strip()
        if text == "" or text.upper() in ("NA", "NAN", "NULL"):
            raise DataError(f"{path}: missing value in column {name!r} (row {i + 2})")
        try:
            float(text)
        except ValueError:
            raise DataError(
                f"{path}: non-numeric value {value!r} in column {name!r} (row {i + 2})"
            ) from None
    raise DataError(f"{path}: non-finite value in column {name!r}")


def _build_dataset(columns, spec: ColumnSpec, path: str, knots=None) -> tuple[Dataset, dict]:
    """Convert each column ``spec`` uses, once, into a Dataset. Returns it with
    its spline knots by column: placed on this file unless given a training file's."""
    converted = {}
    if knots is None:
        knots = {}
        for col, k in spec.spline.items():
            converted[col] = _numeric_column(columns, col, path)
            knots[col] = default_knots(converted[col], k)

    y = _numeric_column(columns, spec.outcome, path)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise DataError(f"{path}: outcome column {spec.outcome!r} must be coded 0/1")
    if y.shape[0] == 0:
        raise DataError(f"{path}: no data rows")

    def expand(names):
        blocks = []
        for name in names:
            values = converted[name] if name in converted else _numeric_column(columns, name, path)
            if values.min() == values.max():
                raise DataError(f"{path}: column {name!r} is constant")
            if name in knots:
                blocks.append(rcs_basis(values, knots[name]))
            else:
                blocks.append(values[:, None])
        return np.hstack(blocks) if blocks else np.empty((y.shape[0], 0))

    x = np.hstack([np.ones((y.shape[0], 1)), expand(spec.base)])
    z = expand(spec.new)
    try:
        return Dataset(y=y, x=x, z=z), knots
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def _load_dataset(
    path: str, spec: ColumnSpec, knots=None, primary=None
) -> tuple[list[str], Dataset, dict]:
    """Read ``path`` and convert it as ``_build_dataset`` does. Returns the
    header, the Dataset and its knots; the parsed columns are dropped on
    return, so only the Dataset's arrays outlive the call. ``primary`` is
    the (path, header) of the file whose header this one must repeat."""
    header, columns = _read_table(path)
    if primary is not None and header != primary[1]:
        raise DataError(f"{path}: header differs from {primary[0]}")
    return (header, *_build_dataset(columns, spec, path, knots))


def _knot_count(k: int, flag: str) -> int:
    if k not in KNOT_QUANTILES:
        raise DataError(f"{flag} knot count must be one of {sorted(KNOT_QUANTILES)}, got {k}")
    return k


def _spline_flag_pairs(values: list[str] | None) -> dict[str, int]:
    spline: dict[str, int] = {}
    for chunk in values or []:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise DataError(f"--spline expects COL=KNOTS, got {item!r}")
            col, _, count = item.partition("=")
            try:
                k = int(count)
            except ValueError:
                raise DataError(f"--spline knot count must be an integer, got {count!r}") from None
            col = col.strip()
            if col in spline:
                raise DataError(f"--spline names column {col!r} twice")
            spline[col] = _knot_count(k, "--spline")
    return spline


def _column_spec(args) -> ColumnSpec:
    base = tuple(name.strip() for name in args.base.split(",") if name.strip())
    new = tuple(name.strip() for name in args.new.split(",") if name.strip()) if args.new else ()
    return ColumnSpec(
        outcome=args.outcome,
        base=base,
        new=new,
        spline=_spline_flag_pairs(args.spline),
    )


def _write_output(text: str, out: str | None, mode: str = "w") -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, mode, encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DataError(f"cannot write {out}: {exc}") from exc


def cmd_compare(args) -> int:
    spec = _column_spec(args)
    if not spec.new:
        raise DataError("compare needs at least one --new column")
    link = Link(args.link)
    header, train_data, knots = _load_dataset(args.input, spec)
    fits = glm.fit_nested(train_data, link)
    subject, test_mnri, n_train = fits, inference.test_mnri_single, None
    if args.test_file is not None:
        # Spline knots come from the primary (training) data so both samples
        # share one covariate specification.
        _, test_data, _ = _load_dataset(args.test_file, spec, knots, (args.input, header))
        test_fits = glm.fit_nested(test_data, link)
        subject = TrainTestPair(train_fits=fits, test_fits=test_fits)
        fits, test_mnri, n_train = test_fits, inference.test_mnri_train_test, train_data.n

    # The displayed statistics describe ``fits`` (in train/test mode the test
    # sample's own fits); the tests take those of the compared ``subject``.
    stats = reclass.build_report(fits)
    subject_stats = stats if subject is fits else reclass.half_nris(subject)
    mnri_result = test_mnri(subject, subject_stats)
    legacy_result = inference.test_nri_normal_legacy(subject, subject_stats)

    # Display scaling only; every test statistic stays on the half scale.
    # --classical-scale doubles nri/mnri, scaled_mad and mad_cross_term; mad is
    # a raw probability difference and sign_inner a raw inner product.
    display = 2.0 if args.classical_scale else 1.0
    report = {
        "nri_hard": display * stats.nri_hard,
        "nri_smooth": display * stats.nri_smooth,
        "mnri_hard": display * stats.mnri_hard,
        "mnri_smooth": display * stats.mnri_smooth,
        "mad": stats.mad,
        "scaled_mad": display * stats.scaled_mad,
        "mad_cross_term": display * stats.mad_cross_term,
        "sign_inner": stats.sign_inner,
        "sign_norm": stats.sign_norm,
        "ties": stats.ties,
        "scale": "classical" if args.classical_scale else "half",
        "mnri_test": asdict(mnri_result),
        "nri_test_legacy": asdict(legacy_result),
        "mode": "single" if n_train is None else "train_test",
        "n": fits.data.n,
        "n_events": int(fits.data.y.sum()),
        "n_train": n_train,
        "link": args.link,
        "columns": asdict(spec),
        "version": __version__,
    }
    _write_output(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_plotdata(args) -> int:
    spec = _column_spec(args)
    link = Link(args.link)
    _, data, _ = _load_dataset(args.input, spec)
    fits = glm.fit_nested(data, link)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["id", "y", "prob_base", "prob_expanded"])
    writer.writerows(
        zip(
            range(1, data.n + 1),
            data.y.astype(int).tolist(),
            fits.base.fitted_probs.tolist(),
            fits.expanded.fitted_probs.tolist(),
        )
    )
    _write_output(buffer.getvalue(), args.out)
    return EXIT_OK


def cmd_spline(args) -> int:
    k = _knot_count(args.knots, "--knots")
    header, columns = _read_cells(args.input)  # the output echoes each raw cell
    values = _numeric_column(columns, args.column, args.input)
    knots = default_knots(values, k)
    design = rcs_basis(values, knots)

    buffer = io.StringIO()
    buffer.write("# knots: " + ",".join(repr(float(t)) for t in knots) + "\n")
    writer = csv.writer(buffer, lineterminator="\n")
    extra = [f"{args.column}_rcs{j + 1}" for j in range(design.shape[1])]
    writer.writerow(header + extra)
    writer.writerows(zip(*(columns[name] for name in header), *design.T.tolist()))
    _write_output(buffer.getvalue(), args.out)
    return EXIT_OK


def _number_list(text: str, kind: type) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise DataError(f"expected a comma-separated list of {noun}, got {text!r}") from None


def cmd_simulate(args) -> int:
    if args.workers < 1:
        raise DataError(f"--workers must be at least 1, got {args.workers}")
    ns = _number_list(args.n, int)
    pi0s = _number_list(args.pi0, float)
    mu_xs = _number_list(args.mu_x, float)
    rhos = _number_list(args.rho, float)
    if not (ns and pi0s and mu_xs and rhos):
        raise DataError("the simulation grid is empty")
    try:
        configs = [
            sim.SimConfig(
                n=n,
                pi0=pi0,
                mu_x=mu_x,
                rho=rho,
                replicates=args.reps,
                mode=args.mode,
                null_style=args.null_style,
                seed=args.seed,
                alpha=args.alpha,
            )
            for n in ns
            for pi0 in pi0s
            for mu_x in mu_xs
            for rho in rhos
        ]
    except ValueError as exc:
        raise DataError(f"invalid simulation grid: {exc}") from exc

    created = False
    if args.out is not None:  # fail before the grid runs; appending keeps an existing file
        created = not os.path.exists(args.out)
        _write_output("", args.out, "a")
    try:
        _write_output(_grid_csv(sim.run_grid(configs, workers=args.workers)), args.out)
    except BaseException:
        if created:  # a failed run leaves no file behind
            os.remove(args.out)
        raise
    return EXIT_OK


def _grid_csv(rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "n", "pi0", "mu_x", "rho", "mode", "null_style", "replicates", "alpha",
            "seed", "mnri_rejection_rate", "nri_normal_rejection_rate",
            "mnri_mc_se", "nri_mc_se", "redraws",
        ]
    )
    for row in rows:
        cfg = row.config
        writer.writerow(
            [
                cfg.n, repr(cfg.pi0), repr(cfg.mu_x), repr(cfg.rho), cfg.mode,
                cfg.null_style, cfg.replicates, repr(cfg.alpha), cfg.seed,
                repr(row.rejection_rate_mnri), repr(row.rejection_rate_nri_normal),
                repr(row.mc_se_mnri), repr(row.mc_se_nri), row.redraws,
            ]
        )
    return buffer.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mnri",
        description="Nested binary-response model comparison: NRI and modified NRI "
        "with valid asymptotic tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p):
        p.add_argument("input", help="CSV file with a header row; outcome coded 0/1")
        p.add_argument("--outcome", required=True, help="outcome column name")
        p.add_argument("--base", required=True, help="comma-separated base covariate columns")
        p.add_argument("--link", choices=["logit", "probit"], default="logit")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_compare = sub.add_parser("compare", help="NRI/mNRI report for nested models")
    add_model_flags(p_compare)
    p_compare.add_argument("--new", required=True, help="comma-separated new covariate columns")
    p_compare.add_argument(
        "--spline", action="append", default=None, metavar="COL=K",
        help="expand a column with a restricted cubic spline (K knots); repeatable",
    )
    p_compare.add_argument(
        "--test-file", default=None,
        help="independent test-sample CSV (same header); switches to train/test mode",
    )
    p_compare.add_argument(
        "--classical-scale", action="store_true",
        help="display the reclassification statistics doubled (classical "
        "continuous-NRI convention); tests always use the half scale",
    )
    p_compare.set_defaults(func=cmd_compare)

    p_plot = sub.add_parser("plotdata", help="per-subject probability pairs for plotting")
    add_model_flags(p_plot)
    p_plot.add_argument("--new", default="", help="comma-separated new covariate columns")
    p_plot.add_argument("--spline", action="append", default=None, metavar="COL=K")
    p_plot.set_defaults(func=cmd_plotdata)

    p_spline = sub.add_parser("spline", help="append restricted cubic spline columns")
    p_spline.add_argument("input")
    p_spline.add_argument("--column", required=True, help="numeric column to expand")
    p_spline.add_argument("--knots", type=int, default=4, help="knot count (3-5, default 4)")
    p_spline.add_argument("--out", default=None)
    p_spline.set_defaults(func=cmd_spline)

    p_sim = sub.add_parser("simulate", help="Type-1-error table over a configuration grid")
    p_sim.add_argument("--n", required=True, help="comma-separated sample sizes")
    p_sim.add_argument("--pi0", required=True, help="comma-separated event probabilities")
    p_sim.add_argument("--mu-x", required=True, help="comma-separated class-1 means of X")
    p_sim.add_argument("--rho", required=True, help="comma-separated correlations")
    p_sim.add_argument("--reps", type=int, default=2000)
    p_sim.add_argument("--mode", choices=["single", "train_test"], default="single")
    p_sim.add_argument("--null-style", choices=["enforced", "literal"], default="enforced")
    p_sim.add_argument("--seed", type=int, default=sim.DEFAULT_SEED)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, TooFewDistinctValues) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FitError, ExcessiveFitFailures) as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except DegenerateOutcome as exc:
        print(f"degenerate outcome: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())

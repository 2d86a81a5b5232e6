"""Command-line interface.

Subcommands cover every pipeline stage: synthetic data generation, eigen
decomposition, per-vertex signatures, global descriptors, spectral
reconstruction, two-group comparison over a manifest, parameter sweeps,
and SVG plotting of the emitted CSVs.

Exit codes: 0 success, 2 usage or validation failure, 3 numerical failure.
Every run prints its resolved configuration to stderr; --json-errors
switches error reporting to a single machine-readable JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .eigen import solve_eigen
from .errors import (
    NUMERICAL_ERRORS,
    USAGE_ERRORS,
    InvalidParam,
    ParseError,
)
from .laplacian import LUMPING_SCHEMES, laplacian_matrices
from .mesh_io import _off_bytes, _synthetic_settings, load_mesh, make_synthetic, write_mesh
from .outputs import _atomic_write_bytes, _csv_bytes, _nearest_existing
from .pipeline import (
    DatasetManifest,
    RunConfig,
    _csv_rows,
    _gsgw_vectors,
    make_null_manifest,
    make_two_class_manifest,
    parameter_sweep,
    run_group_comparison,
)
from .reconstruct import nmse_curve
from .sgws import signature_length, signature_matrix, write_signature_csv
from .svgplot import heatmap, line_plot

__all__ = ["main", "build_parser"]


def _announce(command: str, settings: dict) -> None:
    body = " ".join(f"{key}={value}" for key, value in settings.items())
    print(f"[{command}] resolved config: {body}", file=sys.stderr)


def _int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidParam(f"expected a comma-separated integer list, got {text!r}") from None


def _float_triple(text: str) -> tuple:
    parts = [tok for tok in text.split(",") if tok.strip()]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(tok) for tok in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric axis in {text!r}") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _one_job(text: str) -> int:
    value = int(text)
    if value != 1:
        raise argparse.ArgumentTypeError(f"only 1 is accepted; the worker count follows the "
                                         f"usable CPUs, got {value}")
    return value


def _check_output(args) -> None:
    """Reject the command's output path, of the wrong kind or under a file, before any work."""
    is_dir = hasattr(args, "out_dir")
    path = Path(args.out_dir if is_dir else args.out)
    found = _nearest_existing(path)
    if found.is_dir() != (is_dir or found != path):  # an ancestor must be a directory
        kind = "a directory" if found.is_dir() else "not a directory"
        raise InvalidParam(f"output path {path}: {found} is {kind}")


def _config_from_args(args) -> RunConfig:
    """RunConfig of the flags the command offers; the others keep their defaults.

    Building it validates every setting before any mesh is read.
    """
    offered = {
        name: getattr(args, name)
        for name in ("k", "R", "normalize", "cache_dir", "pca_dims", "n_perm", "seed")
        if getattr(args, name, None) is not None
    }
    return RunConfig(lumping=args.lumping, area_factor=not args.no_area_factor, **offered)


def _add_solver_flags(parser):
    """--lumping, the one solver flag: every command solves by the one eigensolver
    route (see eigen), so a single solve gives the pairs a run stores."""
    parser.add_argument(
        "--lumping", default="mixed", choices=LUMPING_SCHEMES,
        help="vertex area scheme (default mixed)",
    )


def _add_signature_flags(parser, grid=False):
    """Flags of the per-vertex signature, shared by every descriptor command.

    A grid command takes k and R from its own grid flags. There --k and --R
    are hidden and default to None: they still parse, because existing
    command lines pass them, and the command says that it ignores them.
    """
    parser.add_argument("--k", type=int, default=None if grid else 31,
                        help=argparse.SUPPRESS if grid else "eigenpair count (default 31)")
    parser.add_argument("--R", type=int, default=None if grid else 30,
                        help=argparse.SUPPRESS if grid else "resolution levels (default 30)")
    parser.add_argument(
        "--no-area-factor", action="store_true",
        help="drop the squared vertex-area factor from signatures",
    )


def _add_config_flags(parser, batch=True, grid=False):
    """Descriptor flags: signature flags, --normalize, --cache-dir; batch adds the stats flags.

    A batch command also parses a hidden --jobs that accepts only 1, because
    existing command lines pass --jobs 1. It sets nothing: a run solves its
    cold meshes in one worker process per usable CPU (see pipeline).
    """
    _add_signature_flags(parser, grid)
    _add_solver_flags(parser)
    if batch:
        parser.add_argument(
            "--pca-dims", dest="pca_dims", type=int, default=8,
            help="PCA dimension before MANOVA (default 8)",
        )
        parser.add_argument(
            "--n-perm", dest="n_perm", type=int, default=1000,
            help="permutation count (default 1000)",
        )
        parser.add_argument("--seed", type=int, default=0, help="permutation seed (default 0)")
        parser.add_argument("--jobs", type=_one_job, default=1, help=argparse.SUPPRESS)
    parser.add_argument(
        "--normalize", action="store_true",
        help="divide descriptors by the total area squared, which removes size "
        "(needs the area factor)",
    )
    parser.add_argument("--cache-dir", default=None, help="content-addressed cache directory")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth_mesh(args) -> int:
    settings = _synthetic_settings(
        args.kind, axes=args.axes, amplitude=args.amplitude, seed=args.seed
    )
    _announce("synth mesh", {
        "kind": args.kind, "subdivisions": args.subdivisions, **settings, "out": args.out,
    })
    mesh = make_synthetic(args.kind, args.subdivisions, **settings)
    write_mesh(mesh, args.out)
    print(f"wrote {args.out} ({mesh.m} vertices, {mesh.g} triangles)")
    return 0


def _cmd_synth_two_class(args) -> int:
    _announce("synth two-class", {
        "out": args.out_dir, "n": args.n, "subdivisions": args.subdivisions,
        "axes": args.axes, "amplitude": args.amplitude, "seed": args.seed,
    })
    manifest = make_two_class_manifest(
        args.out_dir, n_per_group=args.n, subdivisions=args.subdivisions,
        axes=args.axes, amplitude=args.amplitude, seed=args.seed,
    )
    print(f"wrote {manifest}")
    return 0


def _cmd_synth_null(args) -> int:
    _announce("synth null", {
        "out": args.out_dir, "n": args.n, "subdivisions": args.subdivisions,
        "amplitude": args.amplitude, "mesh_seed": args.mesh_seed,
        "split_seed": args.split_seed,
    })
    manifest = make_null_manifest(
        args.out_dir, n=args.n, subdivisions=args.subdivisions, amplitude=args.amplitude,
        mesh_seed=args.mesh_seed, split_seed=args.split_seed,
    )
    print(f"wrote {manifest}")
    return 0


def _cmd_eigen(args) -> int:
    if args.k < 1:
        raise InvalidParam(f"--k must be >= 1, got {args.k}")
    _announce("eigen", {
        "mesh": args.mesh, "k": args.k, "lumping": args.lumping, "out_dir": args.out_dir,
    })
    mesh = load_mesh(args.mesh)
    stiffness, mass = laplacian_matrices(mesh, lumping=args.lumping)
    basis = solve_eigen(stiffness, mass, args.k)

    out = Path(args.out_dir)
    values = [[str(i), repr(val)] for i, val in enumerate(basis.eigenvalues.tolist(), 1)]
    functions = [[repr(x) for x in row] for row in basis.eigenvectors.tolist()]
    areas = [[repr(a)] for a in basis.vertex_areas.tolist()]
    for name, header, rows in (
        ("eigenvalues.csv", ["index", "eigenvalue"], values),
        ("eigenfunctions.csv", [f"phi_{i + 1}" for i in range(basis.k)], functions),
        ("vertex_areas.csv", ["area"], areas),
    ):
        _atomic_write_bytes(out / name, _csv_bytes([header, *rows]))
        print(f"wrote {out / name}")
    return 0


def _cmd_signature(args) -> int:
    cfg = _config_from_args(args)
    _announce("signature", {
        "mesh": args.mesh, "k": cfg.k, "R": cfg.R, "lumping": cfg.lumping,
        "area_factor": cfg.area_factor, "out": args.out,
    })
    mesh = load_mesh(args.mesh)
    stiffness, mass = laplacian_matrices(mesh, lumping=cfg.lumping)
    basis = solve_eigen(stiffness, mass, cfg.k)
    sig = signature_matrix(basis, cfg.R, area_factor=cfg.area_factor)
    write_signature_csv(sig, args.out)
    print(f"wrote {args.out} ({sig.p} rows x {sig.m} columns)")
    return 0


def _cmd_gsgw(args) -> int:
    labels = args.labels.split(",") if args.labels else [""] * len(args.meshes)
    if len(labels) != len(args.meshes):
        raise InvalidParam(
            f"{len(labels)} labels for {len(args.meshes)} meshes"
        )
    cfg = _config_from_args(args)
    _announce("gsgw", {
        "meshes": len(args.meshes), "k": cfg.k, "R": cfg.R, "lumping": cfg.lumping,
        "area_factor": cfg.area_factor, "normalize": cfg.normalize,
        "cache_dir": cfg.cache_dir, "out": args.out,
    })
    p = signature_length(cfg.R)
    table = [["id", "label", *(f"v{i + 1}" for i in range(p))]]
    vectors = _gsgw_vectors(args.meshes, cfg)
    table += [
        [mesh_path, label, *(f"{x:.12g}" for x in vector.values.tolist())]
        for mesh_path, label, vector in zip(args.meshes, labels, vectors)
    ]
    _atomic_write_bytes(args.out, _csv_bytes(table))
    print(f"wrote {args.out} ({len(table) - 1} shapes, p={p})")
    return 0


def _cmd_reconstruct(args) -> int:
    ks = _int_list(args.ks)
    if not ks:
        raise InvalidParam("--ks must name at least one basis size")
    if min(ks) < 1:
        raise InvalidParam(f"k must be >= 1, got {min(ks)}")
    _announce("reconstruct", {
        "mesh": args.mesh, "ks": ks, "lumping": args.lumping,
        "weighted": not args.unweighted, "out_dir": args.out_dir,
    })
    mesh = load_mesh(args.mesh)
    stiffness, mass = laplacian_matrices(mesh, lumping=args.lumping)
    basis = solve_eigen(stiffness, mass, max(ks))
    report = nmse_curve(
        mesh, basis, ks, keep_meshes=args.dump_meshes, weighted=not args.unweighted
    )
    out = Path(args.out_dir)
    nmse_path = out / "nmse.csv"
    report.write_csv(nmse_path)
    print(f"wrote {nmse_path}")
    for k, positions in sorted(report.positions.items()):
        mesh_path = out / f"reconstructed_k{k:05d}.off"
        _atomic_write_bytes(mesh_path, _off_bytes(positions, mesh.triangles))
        print(f"wrote {mesh_path}")
    return 0


def _exit_code_for_failed_run(strata) -> int:
    kinds = {s.error_kind for s in strata if s.error_kind}
    return 3 if "numerical" in kinds else 2


def _cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    _announce("compare", {"manifest": args.manifest, **cfg.science_dict(),
                          "cache_dir": cfg.cache_dir})
    result = run_group_comparison(DatasetManifest.load(args.manifest), cfg)
    out = Path(args.out_dir)
    json_path = out / "report.json"
    csv_path = out / "report.csv"
    result.write_json(json_path)
    result.write_csv(csv_path)
    print(result.summary_table())
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    if all(s.comparison is None for s in result.strata):
        return _exit_code_for_failed_run(result.strata)
    return 0


def _cmd_sweep(args) -> int:
    for flag, value, grid_flag in (("k", args.k, "--ks-grid"), ("R", args.R, "--Rs")):
        if value is not None:
            print(f"[sweep] note: --{flag} {value} is ignored; each cell takes {flag} "
                  f"from {grid_flag}", file=sys.stderr)
    cfg = _config_from_args(args)
    Rs = _int_list(args.Rs)
    ks = _int_list(args.ks_grid)
    science = {key: value for key, value in cfg.science_dict().items() if key not in ("k", "R")}
    _announce("sweep", {"manifest": args.manifest, "Rs": Rs, "ks": ks,
                        **science, "cache_dir": cfg.cache_dir})
    manifest = DatasetManifest.load(args.manifest)
    result = parameter_sweep(manifest, cfg, Rs, ks)
    sweep_path = Path(args.out_dir) / "sweep.csv"
    result.write_csv(sweep_path)
    print(f"wrote {sweep_path}")
    if all(cell.stratum.comparison is None for cell in result.cells):
        return _exit_code_for_failed_run([cell.stratum for cell in result.cells])
    return 0


# --- plot subcommands ------------------------------------------------------


def _read_csv_rows(path) -> list:
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"{p}: no such file")
    rows = _csv_rows(p)
    if not rows:
        raise ParseError(f"{p}: empty CSV")
    return rows


def _cmd_plot_nmse(args) -> int:
    _announce("plot nmse", {"csv": args.csv, "out": args.out, "log_y": args.log_y})
    rows = _read_csv_rows(args.csv)
    if rows[0][:2] != ["k", "nmse"]:
        raise ParseError(f"{args.csv}: expected header k,nmse")
    try:
        ks = [int(row[0]) for row in rows[1:]]
        vals = [float(row[1]) for row in rows[1:]]
    except (ValueError, IndexError):
        raise ParseError(f"{args.csv}: malformed data row") from None
    if not ks:
        raise ParseError(f"{args.csv}: no data rows")
    line_plot(
        [("nmse", ks, vals)], args.out,
        title="Spectral reconstruction error", xlabel="eigenfunctions",
        ylabel="log10 NMSE" if args.log_y else "NMSE", log_y=args.log_y,
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_plot_gsgw(args) -> int:
    _announce("plot gsgw", {"csv": args.csv, "out": args.out, "max_series": args.max_series})
    rows = _read_csv_rows(args.csv)
    if len(rows[0]) < 3 or rows[0][:2] != ["id", "label"]:
        raise ParseError(f"{args.csv}: expected header id,label,v1,...")
    series = []
    for row in rows[1 : 1 + args.max_series]:
        try:
            values = [float(x) for x in row[2:]]
        except ValueError:
            raise ParseError(f"{args.csv}: malformed descriptor row") from None
        label = Path(row[0]).name + (f" ({row[1]})" if row[1] else "")
        series.append((label, list(range(1, len(values) + 1)), values))
    if not series:
        raise ParseError(f"{args.csv}: no data rows")
    line_plot(
        series, args.out, title="Global descriptors",
        xlabel="descriptor index", ylabel="value",
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_plot_sweep(args) -> int:
    _announce("plot sweep", {
        "csv": args.csv, "out": args.out, "metric": args.metric,
        "bone": args.bone, "side": args.side,
    })
    rows = _read_csv_rows(args.csv)
    header = rows[0]
    try:
        col = {name: header.index(name) for name in ("R", "k", "bone", "side", args.metric)}
    except ValueError:
        raise ParseError(f"{args.csv}: missing column for metric {args.metric!r}") from None
    cells, strata = {}, {}
    for row in rows[1:]:
        if args.bone and row[col["bone"]] != args.bone:
            continue
        if args.side and row[col["side"]] != args.side:
            continue
        raw = row[col[args.metric]]
        try:
            value = float(raw) if raw else None
            key = (int(row[col["R"]]), int(row[col["k"]]))
        except ValueError:
            raise ParseError(f"{args.csv}: malformed sweep row") from None
        stratum = (row[col["bone"]], row[col["side"]])
        if key in cells:
            raise InvalidParam(f"{args.csv}: (bone, side) {strata[key]} and {stratum} share the "
                               f"cell (R, k) = {key}; pick one stratum with --bone and --side")
        cells[key], strata[key] = value, stratum
    if not cells:
        raise ParseError(f"{args.csv}: no matching sweep rows")
    r_values = sorted({r for r, _ in cells})
    k_values = sorted({k for _, k in cells})
    grid = [[cells.get((r, k)) for k in k_values] for r in r_values]
    heatmap(
        grid, [f"R={r}" for r in r_values], [f"k={k}" for k in k_values], args.out,
        title=f"Sweep: {args.metric}", xlabel="eigenpairs", ylabel="resolution",
    )
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly


class _ArgvError(Exception):
    """An argument error, raised for main to report as argparse does or as one JSON line."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose errors raise _ArgvError; its subcommand parsers share the class."""

    def error(self, message):
        raise _ArgvError(self, message)


def build_parser() -> argparse.ArgumentParser:
    """The sgwshape parser. An argument error raises _ArgvError, which main reports."""
    parser = _Parser(
        prog="sgwshape",
        description="Spectral graph wavelet shape descriptors and group comparison.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--json-errors", action="store_true",
        help="report failures as a single JSON line on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate synthetic meshes and manifests")
    synth_sub = synth.add_subparsers(dest="synth_command", required=True)

    sm = synth_sub.add_parser("mesh", help="write one synthetic mesh as OFF")
    sm.add_argument("--kind", default="unit_sphere",
                    choices=["unit_sphere", "ellipsoid", "bumpy_sphere"])
    sm.add_argument("--subdivisions", type=int, default=3)
    sm.add_argument("--axes", type=_float_triple,
                    help="axis scales a,b,c (ellipsoid, bumpy_sphere; default 1,1,1)")
    sm.add_argument("--amplitude", type=float, help="bump height (bumpy_sphere; default 0.05)")
    sm.add_argument("--seed", type=int, help="bump field seed (bumpy_sphere; default 0)")
    sm.add_argument("--out", required=True)
    sm.set_defaults(func=_cmd_synth_mesh)

    st = synth_sub.add_parser("two-class", help="two-class population with manifest")
    st.add_argument("--out", dest="out_dir", required=True, help="output directory")
    st.add_argument("--n", type=_positive_int, default=10, help="shapes per class")
    st.add_argument("--subdivisions", type=int, default=3)
    st.add_argument("--axes", type=_float_triple, default=(1.3, 1.0, 1.0),
                    help="second-class axis scales")
    st.add_argument("--amplitude", type=float, default=0.05)
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=_cmd_synth_two_class)

    sn = synth_sub.add_parser("null", help="one-population manifest with a random split")
    sn.add_argument("--out", dest="out_dir", required=True, help="output directory")
    sn.add_argument("--n", type=_positive_int, default=20)
    sn.add_argument("--subdivisions", type=int, default=3)
    sn.add_argument("--amplitude", type=float, default=0.05)
    sn.add_argument("--mesh-seed", dest="mesh_seed", type=int, default=0)
    sn.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    sn.set_defaults(func=_cmd_synth_null)

    eig = sub.add_parser("eigen", help="eigenvalues and eigenfunctions of one mesh")
    eig.add_argument("mesh")
    eig.add_argument("--k", type=int, default=31, help="eigenpair count (default 31)")
    _add_solver_flags(eig)
    eig.add_argument("--out-dir", dest="out_dir", required=True)
    eig.set_defaults(func=_cmd_eigen)

    sig = sub.add_parser("signature", help="per-vertex signature matrix of one mesh")
    sig.add_argument("mesh")
    _add_signature_flags(sig)
    _add_solver_flags(sig)
    sig.add_argument("--out", required=True, help="output CSV path")
    sig.set_defaults(func=_cmd_signature)

    gs = sub.add_parser("gsgw", help="global descriptors of one or more meshes")
    gs.add_argument("meshes", nargs="+")
    _add_config_flags(gs, batch=False)
    gs.add_argument("--labels", default="", help="comma-separated labels, one per mesh")
    gs.add_argument("--out", required=True, help="output CSV path")
    gs.set_defaults(func=_cmd_gsgw)

    rec = sub.add_parser("reconstruct", help="spectral reconstruction error curve")
    rec.add_argument("mesh")
    rec.add_argument("--ks", default="1,5,10,20,30,50",
                     help="comma-separated basis sizes (default 1,5,10,20,30,50)")
    _add_solver_flags(rec)
    rec.add_argument("--unweighted", action="store_true",
                     help="plain vertex sums instead of area-weighted norms")
    rec.add_argument("--dump-meshes", dest="dump_meshes", action="store_true",
                     help="write each reconstruction as OFF")
    rec.add_argument("--out-dir", dest="out_dir", required=True)
    rec.set_defaults(func=_cmd_reconstruct)

    cmp_ = sub.add_parser("compare", help="two-group comparison over a manifest")
    cmp_.add_argument("manifest")
    _add_config_flags(cmp_)
    cmp_.add_argument("--out-dir", dest="out_dir", required=True)
    cmp_.set_defaults(func=_cmd_compare)

    sw = sub.add_parser("sweep", help="compare over an (R, k) grid")
    sw.add_argument("manifest")
    _add_config_flags(sw, grid=True)
    sw.add_argument("--Rs", required=True, help="comma-separated resolutions")
    sw.add_argument("--ks-grid", dest="ks_grid", required=True,
                    help="comma-separated eigenpair counts")
    sw.add_argument("--out-dir", dest="out_dir", required=True)
    sw.set_defaults(func=_cmd_sweep)

    plot = sub.add_parser("plot", help="render pipeline CSVs as SVG")
    plot_sub = plot.add_subparsers(dest="plot_command", required=True)

    pn = plot_sub.add_parser("nmse", help="reconstruction error curve")
    pn.add_argument("csv")
    pn.add_argument("--out", required=True)
    pn.add_argument("--log-y", dest="log_y", action="store_true")
    pn.set_defaults(func=_cmd_plot_nmse)

    pg = plot_sub.add_parser("gsgw", help="descriptor overlay")
    pg.add_argument("csv")
    pg.add_argument("--out", required=True)
    pg.add_argument("--max-series", dest="max_series", type=_positive_int, default=8)
    pg.set_defaults(func=_cmd_plot_gsgw)

    ps = plot_sub.add_parser("sweep", help="sweep heatmap")
    ps.add_argument("csv")
    ps.add_argument("--out", required=True)
    ps.add_argument("--metric", default="permutation_p")
    ps.add_argument("--bone", default="")
    ps.add_argument("--side", default="")
    ps.set_defaults(func=_cmd_plot_sweep)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except _ArgvError as exc:
        if "--json-errors" not in argv:
            argparse.ArgumentParser.error(exc.parser, str(exc))  # usage and message, exit 2
        _report_error(True, "ArgumentError", str(exc), 2)
        raise SystemExit(2) from None
    try:
        _check_output(args)
        return args.func(args)
    except USAGE_ERRORS as exc:
        _report_error(args.json_errors, type(exc).__name__, str(exc), 2)
        return 2
    except NUMERICAL_ERRORS as exc:
        _report_error(args.json_errors, type(exc).__name__, str(exc), 3)
        return 3


def _report_error(json_errors: bool, kind: str, message: str, code: int) -> None:
    if json_errors:
        payload = {"error": message, "kind": kind, "exit_code": code}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

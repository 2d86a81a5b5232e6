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
import csv
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
from .laplacian import laplacian_matrices
from .mesh_io import load_mesh, make_synthetic, write_mesh
from .pipeline import (
    DatasetManifest,
    RunConfig,
    gsgw_for_mesh,
    make_null_manifest,
    make_two_class_manifest,
    parameter_sweep,
    run_group_comparison,
)
from .reconstruct import nmse_curve
from .sgws import KernelConfig, signature_length, signature_matrix, write_signature_csv
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
        raise InvalidParam(f"expected three comma-separated numbers, got {text!r}")
    try:
        return tuple(float(tok) for tok in parts)
    except ValueError:
        raise InvalidParam(f"non-numeric axis in {text!r}") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _config_from_args(args) -> RunConfig:
    batch = {}
    if hasattr(args, "n_perm"):
        batch = {
            "pca_dims": args.pca_dims,
            "n_perm": args.n_perm,
            "seed": args.seed,
            "jobs": args.jobs,
        }
    return RunConfig(
        k=args.k,
        R=args.R,
        lumping=args.lumping,
        area_factor=not args.no_area_factor,
        normalize=args.normalize,
        method=args.method,
        cache_dir=args.cache_dir,
        **batch,
    )


def _add_signature_flags(parser):
    """Flags of the per-vertex signature, shared by every descriptor command."""
    parser.add_argument("--k", type=int, default=31, help="eigenpair count (default 31)")
    parser.add_argument("--R", type=int, default=30, help="resolution levels (default 30)")
    parser.add_argument(
        "--lumping", default="mixed", choices=["mixed", "barycentric"],
        help="vertex area scheme (default mixed)",
    )
    parser.add_argument(
        "--no-area-factor", action="store_true",
        help="drop the squared vertex-area factor from signatures",
    )
    parser.add_argument(
        "--method", default="auto", choices=["auto", "dense", "sparse"],
        help="eigensolver route (default auto)",
    )


def _add_config_flags(parser, batch=True):
    """Descriptor flags: signature flags, --normalize, --cache-dir; batch adds stats, --jobs."""
    _add_signature_flags(parser)
    if batch:
        parser.add_argument(
            "--pca-dims", dest="pca_dims", type=int, default=18,
            help="PCA dimension before MANOVA (default 18)",
        )
        parser.add_argument(
            "--n-perm", dest="n_perm", type=int, default=1000,
            help="permutation count (default 1000)",
        )
        parser.add_argument("--seed", type=int, default=0, help="permutation seed (default 0)")
        parser.add_argument(
            "--jobs", type=_positive_int, default=1, help="shape-level parallelism (default 1)"
        )
    parser.add_argument(
        "--normalize", action="store_true", help="divide descriptors by total area"
    )
    parser.add_argument("--cache-dir", default=None, help="content-addressed cache directory")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth_mesh(args) -> int:
    _announce("synth mesh", {
        "kind": args.kind, "subdivisions": args.subdivisions, "axes": args.axes,
        "amplitude": args.amplitude, "seed": args.seed, "out": args.out,
    })
    mesh = make_synthetic(
        args.kind, args.subdivisions, axes=args.axes, amplitude=args.amplitude, seed=args.seed
    )
    write_mesh(mesh, args.out)
    print(f"wrote {args.out} ({mesh.m} vertices, {mesh.g} triangles)")
    return 0


def _cmd_synth_two_class(args) -> int:
    _announce("synth two-class", {
        "out": args.out, "n": args.n, "subdivisions": args.subdivisions,
        "axes": args.axes, "amplitude": args.amplitude, "seed": args.seed,
    })
    manifest = make_two_class_manifest(
        args.out, n_per_group=args.n, subdivisions=args.subdivisions,
        axes=args.axes, amplitude=args.amplitude, seed=args.seed,
    )
    print(f"wrote {manifest}")
    return 0


def _cmd_synth_null(args) -> int:
    _announce("synth null", {
        "out": args.out, "n": args.n, "subdivisions": args.subdivisions,
        "amplitude": args.amplitude, "mesh_seed": args.mesh_seed,
        "split_seed": args.split_seed,
    })
    manifest = make_null_manifest(
        args.out, n=args.n, subdivisions=args.subdivisions, amplitude=args.amplitude,
        mesh_seed=args.mesh_seed, split_seed=args.split_seed,
    )
    print(f"wrote {manifest}")
    return 0


def _cmd_eigen(args) -> int:
    if args.k < 1:
        raise InvalidParam(f"--k must be >= 1, got {args.k}")
    _announce("eigen", {
        "mesh": args.mesh, "k": args.k, "method": args.method,
        "lumping": args.lumping, "out_dir": args.out_dir,
    })
    mesh = load_mesh(args.mesh)
    stiffness, mass = laplacian_matrices(mesh, lumping=args.lumping)
    basis = solve_eigen(stiffness, mass, args.k, method=args.method)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    values_path = out / "eigenvalues.csv"
    lines = ["index,eigenvalue"]
    lines += [f"{i + 1},{float(val)!r}" for i, val in enumerate(basis.eigenvalues)]
    values_path.write_text("\n".join(lines) + "\n")

    functions_path = out / "eigenfunctions.csv"
    header = ",".join(f"phi_{i + 1}" for i in range(basis.k))
    rows = [",".join(repr(float(x)) for x in row) for row in basis.eigenvectors]
    functions_path.write_text(header + "\n" + "\n".join(rows) + "\n")

    areas_path = out / "vertex_areas.csv"
    areas_path.write_text(
        "area\n" + "\n".join(repr(float(a)) for a in basis.vertex_areas) + "\n"
    )
    print(f"wrote {values_path}")
    print(f"wrote {functions_path}")
    print(f"wrote {areas_path}")
    return 0


def _cmd_signature(args) -> int:
    _announce("signature", {
        "mesh": args.mesh, "k": args.k, "R": args.R, "lumping": args.lumping,
        "area_factor": not args.no_area_factor, "method": args.method, "out": args.out,
    })
    mesh = load_mesh(args.mesh)
    stiffness, mass = laplacian_matrices(mesh, lumping=args.lumping)
    basis = solve_eigen(stiffness, mass, args.k, method=args.method)
    cfg = KernelConfig.from_eigen(basis, args.R, area_factor=not args.no_area_factor)
    sig = signature_matrix(basis, cfg)
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
        "method": cfg.method, "cache_dir": cfg.cache_dir, "out": args.out,
    })
    rows = [
        (mesh_path, label, gsgw_for_mesh(load_mesh(mesh_path), cfg).values)
        for mesh_path, label in zip(args.meshes, labels)
    ]
    p = signature_length(cfg.R)
    header = "id,label," + ",".join(f"v{i + 1}" for i in range(p))
    lines = [header]
    lines += [
        f"{mesh_path},{label}," + ",".join(f"{x:.12g}" for x in values)
        for mesh_path, label, values in rows
    ]
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out} ({len(rows)} shapes, p={p})")
    return 0


def _cmd_reconstruct(args) -> int:
    ks = _int_list(args.ks)
    if not ks:
        raise InvalidParam("--ks must name at least one basis size")
    _announce("reconstruct", {
        "mesh": args.mesh, "ks": ks, "lumping": args.lumping, "method": args.method,
        "weighted": not args.unweighted, "out_dir": args.out_dir,
    })
    mesh = load_mesh(args.mesh)
    stiffness, mass = laplacian_matrices(mesh, lumping=args.lumping)
    basis = solve_eigen(stiffness, mass, max(ks), method=args.method)
    report = nmse_curve(
        mesh, basis, ks, keep_meshes=args.dump_meshes, weighted=not args.unweighted
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nmse_path = out / "nmse.csv"
    report.write_csv(nmse_path)
    print(f"wrote {nmse_path}")
    for k, recon in sorted(report.meshes.items()):
        mesh_path = out / f"reconstructed_k{k:05d}.off"
        write_mesh(recon, mesh_path)
        print(f"wrote {mesh_path}")
    return 0


def _warn_fragile_dims(manifest: DatasetManifest, cfg: RunConfig) -> None:
    for (bone, side), entries in manifest.strata().items():
        if cfg.pca_dims > len(entries) / 2:
            print(
                f"warning: stratum ({bone}, {side}) has {len(entries)} shapes; "
                f"pca_dims={cfg.pca_dims} exceeds half of that and the MANOVA "
                "F-test will have very few denominator degrees of freedom",
                file=sys.stderr,
            )


def _exit_code_for_failed_run(strata) -> int:
    kinds = {s.error_kind for s in strata if s.error_kind}
    return 3 if "numerical" in kinds else 2


def _cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    _announce("compare", {"manifest": args.manifest, **cfg.science_dict(),
                          "cache_dir": cfg.cache_dir, "jobs": cfg.jobs})
    manifest = DatasetManifest.load(args.manifest)
    _warn_fragile_dims(manifest, cfg)
    result = run_group_comparison(manifest, cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    cfg = _config_from_args(args)
    Rs = _int_list(args.Rs)
    ks = _int_list(args.ks_grid)
    _announce("sweep", {"manifest": args.manifest, "Rs": Rs, "ks": ks,
                        **cfg.science_dict(), "cache_dir": cfg.cache_dir})
    manifest = DatasetManifest.load(args.manifest)
    result = parameter_sweep(manifest, cfg, Rs, ks)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sweep_path = out / "sweep.csv"
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
    with p.open(newline="") as handle:
        rows = list(csv.reader(handle))
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
    cells = {}
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
        cells[key] = value
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    sm.add_argument("--axes", type=_float_triple, default=(1.0, 1.0, 1.0),
                    help="axis scales a,b,c")
    sm.add_argument("--amplitude", type=float, default=0.05)
    sm.add_argument("--seed", type=int, default=0)
    sm.add_argument("--out", required=True)
    sm.set_defaults(func=_cmd_synth_mesh)

    st = synth_sub.add_parser("two-class", help="two-class population with manifest")
    st.add_argument("--out", required=True, help="output directory")
    st.add_argument("--n", type=_positive_int, default=10, help="shapes per class")
    st.add_argument("--subdivisions", type=int, default=3)
    st.add_argument("--axes", type=_float_triple, default=(1.3, 1.0, 1.0),
                    help="second-class axis scales")
    st.add_argument("--amplitude", type=float, default=0.05)
    st.add_argument("--seed", type=int, default=0)
    st.set_defaults(func=_cmd_synth_two_class)

    sn = synth_sub.add_parser("null", help="one-population manifest with a random split")
    sn.add_argument("--out", required=True, help="output directory")
    sn.add_argument("--n", type=_positive_int, default=20)
    sn.add_argument("--subdivisions", type=int, default=3)
    sn.add_argument("--amplitude", type=float, default=0.05)
    sn.add_argument("--mesh-seed", dest="mesh_seed", type=int, default=0)
    sn.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    sn.set_defaults(func=_cmd_synth_null)

    eig = sub.add_parser("eigen", help="eigenvalues and eigenfunctions of one mesh")
    eig.add_argument("mesh")
    eig.add_argument("--k", type=int, default=31, help="eigenpair count (default 31)")
    eig.add_argument("--method", default="auto", choices=["auto", "dense", "sparse"])
    eig.add_argument("--lumping", default="mixed", choices=["mixed", "barycentric"])
    eig.add_argument("--out-dir", dest="out_dir", required=True)
    eig.set_defaults(func=_cmd_eigen)

    sig = sub.add_parser("signature", help="per-vertex signature matrix of one mesh")
    sig.add_argument("mesh")
    _add_signature_flags(sig)
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
    rec.add_argument("--method", default="auto", choices=["auto", "dense", "sparse"])
    rec.add_argument("--lumping", default="mixed", choices=["mixed", "barycentric"])
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
    _add_config_flags(sw)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        _report_error(args, exc, 2)
        return 2
    except NUMERICAL_ERRORS as exc:
        _report_error(args, exc, 3)
        return 3


def _report_error(args, exc, code: int) -> None:
    if getattr(args, "json_errors", False):
        payload = {"error": str(exc), "kind": type(exc).__name__, "exit_code": code}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

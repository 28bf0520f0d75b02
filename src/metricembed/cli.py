"""Command-line surface: validate, check-embed, min-dim, scan.

Exit codes: 0 positive result, 1 negative, 2 invalid input metric or
argument, 3 IO/parse error (also a failed ``--out`` write, reported on
stdout; a command that runs out of memory; for ``scan`` also a config
whose sampler cannot serve the requested ladder; for ``check-embed`` and
``min-dim`` also a distance outside
``embeddability.CERTIFIABLE_RANGE``), 4 undetermined (a
determinant engine does not confirm the factorization's witness tuple,
or a scan is inconclusive).

``validate``, ``check-embed`` and ``min-dim`` factor each part of the
space once: every engine, the Blumenthal basis and ``--realize`` read the
same decision, which accepts a realization exactly when it accepts the
space. Its realization also certifies the triangle inequality in
O(N^2 m); the O(N^3) triangle check runs only where it cannot
(``embeddability.triangles_certified``). Only ``scan`` imports the scan
layer (``pretangent``, ``spaces``).

Every JSON output embeds the run configuration; the finite commands are
deterministic, and ``scan`` is deterministic for a fixed ``--seed``, so
identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .determinants import DEFAULT_TOL_DET
from .embeddability import (
    blumenthal_basis_search,
    menger_check,
    min_embedding_dimension,
    realize_coordinates,
    schoenberg_check,
    triangles_certified,
)
from .errors import DistanceOutOfRangeError, MetricViolationError
from .metric import load_space

EXIT_YES = 0
EXIT_NO = 1
EXIT_INVALID_METRIC = 2
EXIT_IO = 3
EXIT_UNDETERMINED = 4


def marked_space_from_config(cfg: dict):
    """``spaces.marked_space_from_config``, imported on first use."""
    from .spaces import marked_space_from_config

    return marked_space_from_config(cfg)


def transfer_check(space, n: int, **kwargs):
    """``pretangent.transfer_check``, imported on first use."""
    from .pretangent import transfer_check

    return transfer_check(space, n, **kwargs)


def _out_path(args) -> str | None:
    """Where a command writes its payload: ``--out``, except that ``scan
    --out DIR`` (no suffix) writes the aggregate to ``DIR/transfer.<ext>``."""
    if args.command == "scan" and args.out and Path(args.out).suffix == "":
        return str(Path(args.out) / f"transfer.{'json' if args.format == 'json' else 'txt'}")
    return args.out


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_text(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render_text(payload: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                lines.append(f"{indent}{key}[{i}]:")
                lines.append(_render_text(item, indent + "  "))
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if not indent else "")


def _parse_scales(text: str) -> list[float]:
    from .pretangent import scale_ladder

    r0, q, count = text.split(":")
    return scale_ladder(float(r0), float(q), int(count))


def _load(path: str, tol: float | None, tol_det: float):
    try:
        return load_space(path, tol=tol, certificate=partial(triangles_certified, tol_det=tol_det)), None
    except MetricViolationError as exc:
        return None, (EXIT_INVALID_METRIC, f"invalid metric: {exc} (indices {exc.indices})")
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        return None, (EXIT_IO, f"cannot read space: {exc}")


def cmd_validate(args) -> int:
    space, err = _load(args.input, args.tol_metric, args.tol_det)
    if err:
        code, msg = err
        _emit({"command": "validate", "input": args.input, "ok": False, "error": msg,
               "exit_code": code}, args.format, args.out)
        return code
    _emit({"command": "validate", "input": args.input, "ok": True, "n_points": space.n_points,
           "tol": space.tol, "exit_code": EXIT_YES}, args.format, args.out)
    return EXIT_YES


def cmd_check_embed(args) -> int:
    space, err = _load(args.input, args.tol_metric, args.tol_det)
    if err:
        code, msg = err
        _emit({"command": "check-embed", "error": msg, "exit_code": code}, args.format, args.out)
        return code
    config = _config_dict(args)

    if args.criterion == "blumenthal":
        basis = blumenthal_basis_search(space, args.dim, tol_det=args.tol_det)
        result = {"criterion": "blumenthal", "n": args.dim, "verdict": "yes" if basis is not None else "no",
                  "witness_tuple": list(basis) if basis else None, "witness_value": None, "residual": None}
        code = EXIT_YES if basis is not None else EXIT_NO
    else:
        checks = {"menger": [menger_check], "schoenberg": [schoenberg_check],
                  "all": [menger_check, schoenberg_check]}[args.criterion]
        verdicts = [check(space, args.dim, tol_det=args.tol_det) for check in checks]
        primary = next((v for v in verdicts if v.embeddable == "no"), verdicts[0])
        result = primary.to_json_dict()
        code = {"yes": EXIT_YES, "no": EXIT_NO, "undetermined": EXIT_UNDETERMINED}[primary.embeddable]
    if args.realize and code == EXIT_YES:
        real = realize_coordinates(space, args.dim, tol_det=args.tol_det)
        result["residual"] = real.max_residual
        result["coordinates"] = real.coords.tolist()
        result["achieved_dim"] = real.m
    payload = {"command": "check-embed", "config": config, "result": result, "exit_code": code}
    _emit(payload, args.format, args.out)
    return code


def cmd_min_dim(args) -> int:
    space, err = _load(args.input, args.tol_metric, args.tol_det)
    if err:
        code, msg = err
        _emit({"command": "min-dim", "error": msg, "exit_code": code}, args.format, args.out)
        return code
    res = min_embedding_dimension(space, tol_det=args.tol_det)
    result = {"feasible": res.feasible, "m": res.dim, "base_point": res.base,
              "psd": {"psd": res.psd.psd, "rank": res.psd.rank,
                      "witness_subset": list(res.psd.witness_subset) if res.psd.witness_subset else None,
                      "witness_value": res.psd.witness_value}}
    if args.realize and res.feasible and res.dim >= 1:
        real = realize_coordinates(space, res.dim, tol_det=args.tol_det)
        result["coordinates"] = real.coords.tolist()
        result["residual"] = real.max_residual
    code = EXIT_YES if res.feasible else EXIT_NO
    payload = {"command": "min-dim", "config": _config_dict(args), "result": result, "exit_code": code}
    _emit(payload, args.format, args.out)
    return code


def cmd_scan(args) -> int:
    # with --out DIR (no suffix), one JSON file per scan plus the aggregate,
    # or the error payload, in DIR/transfer.<ext>
    out = _out_path(args)
    outdir = Path(args.out) if out != args.out else None
    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = json.loads(Path(args.space).read_text(encoding="utf-8"))
        space = marked_space_from_config(cfg)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        _emit({"command": "scan", "error": f"cannot build space: {exc}", "exit_code": EXIT_IO},
              args.format, out)
        return EXIT_IO
    try:
        report = transfer_check(space, args.dim, samples_per_scale=args.samples,
                                scales=_parse_scales(args.scales), seed=args.seed, tol_det=args.tol_det)
    except (ValueError, RuntimeError) as exc:
        # typed scan failures: a sampler that cannot serve the ladder
        _emit({"command": "scan", "config": _config_dict(args, space=cfg), "error": f"cannot scan: {exc}",
               "exit_code": EXIT_IO}, args.format, out)
        return EXIT_IO
    code = {"consistent-with-embeddable": EXIT_YES, "refuted": EXIT_NO,
            "inconclusive": EXIT_UNDETERMINED}[report.verdict]
    payload = {"command": "scan", "config": _config_dict(args, space=cfg),
               "result": report.to_json_dict(space.point_repr), "exit_code": code}
    if outdir is not None:
        for scan in report.scans:
            name = f"scan_k{scan.k}_{scan.mode}.json"
            (outdir / name).write_text(
                json.dumps(scan.to_json_dict(space.point_repr), sort_keys=True, indent=2) + "\n",
                encoding="utf-8")
    _emit(payload, args.format, out)
    return code


def _config_dict(args, space=None) -> dict:
    cfg = {
        "command": args.command,
        "n": getattr(args, "dim", None),
        "criterion": getattr(args, "criterion", None),
        "tol_det": getattr(args, "tol_det", None),
        "tol_metric": getattr(args, "tol_metric", None),
        "scales": getattr(args, "scales", None),
        "samples": getattr(args, "samples", None),
        "seed": getattr(args, "seed", None),
        "format": args.format,
        "version": __version__,
    }
    if args.command == "scan":
        from .pretangent import SAMPLER_VERSION

        cfg["sampler_version"] = SAMPLER_VERSION
    if space is not None:
        cfg["space"] = space
    inp = getattr(args, "input", None) or getattr(args, "space", None)
    if inp:
        cfg["input"] = inp
    return cfg


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _scales_arg(text: str) -> str:
    """Check an r0:q:count ladder at parse time by building it
    (``pretangent.scale_ladder``, which refuses an underflowing last rung
    before building anything). The config echoes the text."""
    try:
        _parse_scales(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected r0:q:count, got {text} ({exc})")
    except MemoryError:
        raise argparse.ArgumentTypeError(f"the ladder {text} does not fit in memory")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metricembed",
                                     description="Euclidean embeddability of metric spaces "
                                                 "and infinitesimal embeddability scans")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scan=False):
        p.add_argument("--format", choices=["text", "json"], default="json")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--tol-det", dest="tol_det", type=_positive_float, default=DEFAULT_TOL_DET)
        if scan:
            p.add_argument("--seed", type=_nonnegative_int, default=0)
            p.add_argument("--scales", type=_scales_arg, default="0.5:0.5:12", help="ladder as r0:q:count")
            p.add_argument("--samples", type=_positive_int, default=128, help="samples per scale rung")
        else:
            p.add_argument("--tol-metric", dest="tol_metric", type=_positive_float, default=None)

    p = sub.add_parser("validate", help="validate a distance matrix file")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-embed", help="decide isometric embeddability into E^n")
    p.add_argument("input")
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--criterion", choices=["menger", "schoenberg", "blumenthal", "all"], default="all")
    p.add_argument("--realize", action="store_true", help="emit coordinates on a yes verdict")
    common(p)
    p.set_defaults(func=cmd_check_embed)

    p = sub.add_parser("min-dim", help="minimal embedding dimension via PSD rank")
    p.add_argument("input")
    p.add_argument("--realize", action="store_true")
    common(p)
    p.set_defaults(func=cmd_min_dim)

    p = sub.add_parser("scan", help="transfer-principle scans on a configured marked space")
    p.add_argument("space", help="space config JSON file")
    p.add_argument("--dim", type=_positive_int, required=True)
    common(p, scan=True)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DistanceOutOfRangeError as exc:
        # raised by check-embed and min-dim before anything is written
        _emit({"command": args.command, "error": f"cannot decide: {exc}", "exit_code": EXIT_IO},
              args.format, args.out)
        return EXIT_IO
    except OSError as exc:
        # every input is read under its own handler, so this is a failed --out write
        _emit({"command": args.command, "error": f"cannot write output: {exc}", "exit_code": EXIT_IO},
              args.format, None)
        return EXIT_IO
    except MemoryError as exc:
        error = f"out of memory: {str(exc) or 'allocation failed'}"
    # reported once the handler has dropped the failed command's frames, and
    # with them whatever it had allocated
    _emit({"command": args.command, "error": error, "exit_code": EXIT_IO}, args.format, _out_path(args))
    return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

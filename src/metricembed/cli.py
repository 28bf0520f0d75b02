"""Command-line surface: validate, check-embed, min-dim, scan.

Exit codes: 0 positive result, 1 negative, 2 invalid input metric or
argument, 3 IO/parse error (also a failed ``--out`` write, reported on
stdout; a failed write or flush of stdout itself, reported in one line on
stderr; a command that runs out of memory; for ``scan`` also a config
whose sampler cannot serve the requested ladder; for ``check-embed`` and
``min-dim`` also distances that no power of two brings into
``embeddability.CERTIFIABLE_RANGE``), 4 undetermined (an engine does not
confirm the factorization's witness tuple, or a scan is inconclusive).

``validate``, ``check-embed`` and ``min-dim`` factor each part of the
space once: every engine, the Blumenthal basis and ``--realize`` read the
same decision, which accepts a realization exactly when it accepts the
space. Its realization also certifies the triangle inequality in
O(N^2 m); the O(N^3) triangle check runs only where it cannot
(``embeddability.triangles_certified``).

Each command imports only the layers it runs, and the front end loads no
layer: each option reads only its rule in ``errors`` (a count, a positive
number, ``tol_det``, the target dimension, the scale ladder), which needs
no numpy, so ``--version``, ``--help`` and every usage refusal, ``--scales``
included, exit before numpy loads. The finite commands load ``metric``,
``determinants`` and ``embeddability``, ``scan`` ``metric``, ``determinants``,
``spaces`` and ``pretangent``; each function of theirs is a stand-in here
that imports its module on first call and looks it up there on every call.

``cli`` builds every payload, each ``result`` from the fields of the plain
records the layers return. Each command returns its payload, a dict that
holds its ``exit_code``, or raises the one refusal type, whose payload
carries the ``error``.
:func:`main` alone adds ``"command"``, writes the payload once, to stdout
or to the one file ``--out`` names, and returns its ``exit_code``; a
failed ``--out`` write of any payload gives the ``cannot write output``
payload on stdout instead. So a run writes at most one file.

A CLI process runs :func:`console_entry`, which flushes stdout and stderr
and ends the process with ``os._exit``: interpreter finalization and
atexit handlers never run. Callers in a process of their own call
:func:`main`, which returns the exit code.

Every JSON output embeds the run configuration; the finite commands are
deterministic, and ``scan`` is deterministic for a fixed ``--seed``, so
identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from functools import cache, partial
from pathlib import Path
from typing import NoReturn

from . import __version__
from .errors import (DEFAULT_TOL_DET, DistanceOutOfRangeError, MetricViolationError, _check_target, _checked_count,
                     _checked_positive, _checked_tol_det, scale_ladder)

EXIT_YES = 0
EXIT_NO = 1
EXIT_INVALID_METRIC = 2
EXIT_IO = 3
EXIT_UNDETERMINED = 4

#: Errors that mean the input cannot be read or run, reported with exit 3:
#: an overflow, and a document nested past the recursion limit
#: (RecursionError is a RuntimeError), included. MemoryError is left to main.
_BAD_INPUT = (OSError, ValueError, KeyError, TypeError, OverflowError, RuntimeError)

#: the exit code of every verdict: check-embed's, min-dim's feasibility and scan's
_EXIT_CODES = {"yes": EXIT_YES, True: EXIT_YES, "consistent-with-embeddable": EXIT_YES,
               "no": EXIT_NO, False: EXIT_NO, "refuted": EXIT_NO,
               "undetermined": EXIT_UNDETERMINED, "inconclusive": EXIT_UNDETERMINED}


def _first_use(module: str, name: str):
    """A stand-in for ``module.name`` that imports the module on its first
    call. It is a module attribute, looked up when a command calls it, so
    it can be replaced like the function it stands for."""

    def call(*args, **kwargs):
        # __import__, unlike importlib.import_module, shows in -X importtime
        return getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``{module}.{name}``, imported on first call."
    return call


load_space = _first_use("metric", "load_space")
triangles_certified = _first_use("embeddability", "triangles_certified")
menger_check = _first_use("embeddability", "menger_check")
schoenberg_check = _first_use("embeddability", "schoenberg_check")
blumenthal_basis_search = _first_use("embeddability", "blumenthal_basis_search")
min_embedding_dimension = _first_use("embeddability", "min_embedding_dimension")
realize_coordinates = _first_use("embeddability", "realize_coordinates")
marked_space_from_config = _first_use("spaces", "marked_space_from_config")
transfer_check = _first_use("pretangent", "transfer_check")


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
    try:
        r0, q, count = text.split(":")
        numbers = float(r0), float(q), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected r0:q:count, got {text}") from None
    return scale_ladder(*numbers)


class _Refused(Exception):
    """A command refuses its input: the payload is ``error``, the exit
    code and any further ``fields``."""

    def __init__(self, code: int, error: str, **fields):
        super().__init__(error)
        self.payload = {**fields, "error": error, "exit_code": code}


def _load(args, **fields):
    """The space a finite command reads; a refusal's payload also carries
    ``fields``."""
    try:
        return load_space(args.input, tol=args.tol_metric,
                          certificate=partial(triangles_certified, tol_det=args.tol_det))
    except MetricViolationError as exc:
        raise _Refused(EXIT_INVALID_METRIC, f"invalid metric: {exc} (indices {exc.indices})", **fields)
    except _BAD_INPUT as exc:
        raise _Refused(EXIT_IO, f"cannot read space: {exc}", **fields)


def _realize(result: dict, space, n: int, tol_det: float):
    """Add the ``--realize`` payload, the coordinates of ``space`` in E^n
    and their residual, to ``result``; returns the realization."""
    real = realize_coordinates(space, n, tol_det=tol_det)
    result["coordinates"] = real.coords.tolist()
    result["residual"] = real.max_residual
    return real


def cmd_validate(args) -> dict:
    space = _load(args, input=args.input, ok=False)
    return {"input": args.input, "ok": True, "n_points": space.n_points, "tol": space.tol, "exit_code": EXIT_YES}


def cmd_check_embed(args) -> dict:
    space = _load(args)
    if args.criterion == "blumenthal":
        basis = blumenthal_basis_search(space, args.dim, tol_det=args.tol_det)
        result = {"criterion": "blumenthal", "n": args.dim, "verdict": "yes" if basis is not None else "no",
                  "witness_tuple": list(basis) if basis else None, "witness_value": None, "residual": None}
    else:
        checks = {"menger": [menger_check], "schoenberg": [schoenberg_check],
                  "all": [menger_check, schoenberg_check]}[args.criterion]
        verdicts = [check(space, args.dim, tol_det=args.tol_det) for check in checks]
        v = next((v for v in verdicts if v.embeddable == "no"), verdicts[0])
        w = v.witness
        result = {"criterion": v.criterion, "n": v.dim_tested, "verdict": v.embeddable,
                  "witness_tuple": list(w.indices) if w else None, "witness_value": w.value if w else None,
                  "witness_kind": w and (f"vanishing(order {w.k})" if w.kind == "vanishing" else f"sign(k={w.k})"),
                  # the witness whose height fell inside the zero band
                  "borderline_count": int(v.embeddable == "undetermined"), "residual": None}
    code = _EXIT_CODES[result["verdict"]]
    if args.realize and code == EXIT_YES:
        result["achieved_dim"] = _realize(result, space, args.dim, args.tol_det).m
    return {"config": _config_dict(args), "result": result, "exit_code": code}


def cmd_min_dim(args) -> dict:
    space = _load(args)
    res = min_embedding_dimension(space, tol_det=args.tol_det)
    result = {"feasible": res.feasible, "m": res.dim, "base_point": res.base,
              "psd": {"psd": res.psd.psd, "rank": res.psd.rank,
                      "witness_subset": list(res.psd.witness_subset) if res.psd.witness_subset else None,
                      "witness_value": res.psd.witness_value}}
    if args.realize and res.feasible:
        # realize_coordinates refuses n < 1; a one-point space (m = 0) gets [[]] in E^1
        _realize(result, space, max(res.dim, 1), args.tol_det)
    return {"config": _config_dict(args), "result": result, "exit_code": _EXIT_CODES[res.feasible]}


def cmd_scan(args) -> dict:
    try:
        cfg = json.loads(Path(args.space).read_text(encoding="utf-8"))
        space = marked_space_from_config(cfg)
    except _BAD_INPUT as exc:
        raise _Refused(EXIT_IO, f"cannot build space: {exc}")
    config = _config_dict(args, space=cfg)
    try:
        report = transfer_check(space, args.dim, samples_per_scale=args.samples,
                                scales=_parse_scales(args.scales), seed=args.seed, tol_det=args.tol_det)
    except _BAD_INPUT as exc:
        # a sampler that cannot serve the ladder, or a scale that overflows it
        raise _Refused(EXIT_IO, f"cannot scan: {exc}", config=config)
    return {"config": config, "result": _report_json(report, space.point_repr),
            "exit_code": _EXIT_CODES[report.verdict]}


def _report_json(report, point_repr) -> dict:
    """A scan's report (``TransferReport``, ``ScanReport`` or ``ScanWitness``)
    as JSON values, one per field: a nested report rendered in turn, a tuple
    as a list, an infinite ``trend`` as ``"inf"`` and each witness point
    through ``point_repr``."""
    from dataclasses import fields, is_dataclass

    out = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name == "points":
            value = [point_repr(x) for x in value]
        elif f.name == "scans":
            value = [_report_json(scan, point_repr) for scan in value]
        elif f.name == "trend" and not math.isfinite(value):
            value = "inf"
        elif is_dataclass(value):
            value = _report_json(value, point_repr)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


#: the option behind each field of a payload's ``config``; a command
#: without that option echoes null
_CONFIG_FIELDS = {"command": "command", "n": "dim", "criterion": "criterion", "tol_det": "tol_det",
                  "tol_metric": "tol_metric", "scales": "scales", "samples": "samples", "seed": "seed",
                  "format": "format", "input": "input"}


def _config_dict(args, space=None) -> dict:
    """The run configuration; ``scan`` passes the ``space`` config it read."""
    cfg = {field: getattr(args, name, None) for field, name in _CONFIG_FIELDS.items()}
    cfg["version"] = __version__
    if space is not None:
        from .pretangent import SAMPLER_VERSION

        cfg.update(input=args.space, space=space, sampler_version=SAMPLER_VERSION)
    return cfg


def _option_type(parse, rule, words: str):
    """An option's argparse type: ``rule``, an input rule of :mod:`errors`, of ``parse`` of
    its text, refused as ``must be {words}, got {text}`` when either raises ValueError."""

    def read(text: str):
        try:
            return rule(parse(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {words}, got {text}") from None

    return read


_dim = _option_type(int, _check_target, "an integer >= 1")
_samples = _option_type(int, partial(_checked_count, name="samples"), "an integer >= 1")
_seed = _option_type(int, partial(_checked_count, name="seed", least=0), "an integer >= 0")
_tol_metric = _option_type(float, partial(_checked_positive, name="tol_metric"), "finite and > 0")
_tol_det = _option_type(float, _checked_tol_det, "in (0, 1)")


def _scales_arg(text: str) -> str:
    """Check an r0:q:count ladder at parse time by building it
    (:func:`_parse_scales`). The config echoes the text."""
    try:
        _parse_scales(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected r0:q:count, got {text} ({exc})")
    except MemoryError:
        raise argparse.ArgumentTypeError(f"the ladder {text} does not fit in memory")
    return text


@cache  # one parser per process: main reads it on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metricembed",
                                     description="Euclidean embeddability of metric spaces "
                                                 "and infinitesimal embeddability scans")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scan=False):
        p.add_argument("--format", choices=["text", "json"], default="json")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--tol-det", dest="tol_det", type=_tol_det, default=DEFAULT_TOL_DET)
        if scan:
            p.add_argument("--seed", type=_seed, default=0)
            p.add_argument("--scales", type=_scales_arg, default="0.5:0.5:12", help="ladder as r0:q:count")
            p.add_argument("--samples", type=_samples, default=128, help="samples per scale rung")
        else:
            p.add_argument("--tol-metric", dest="tol_metric", type=_tol_metric, default=None)

    p = sub.add_parser("validate", help="validate a distance matrix file")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-embed", help="decide isometric embeddability into E^n")
    p.add_argument("input")
    p.add_argument("--dim", type=_dim, required=True)
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
    p.add_argument("--dim", type=_dim, required=True)
    common(p, scan=True)
    p.set_defaults(func=cmd_scan)

    return parser


def _payload(args) -> dict:
    """The payload of the command ``args`` names, or of its refusal."""
    try:
        return args.func(args)
    except _Refused as exc:
        return exc.payload
    except DistanceOutOfRangeError as exc:  # check-embed and min-dim
        return {"error": f"cannot decide: {exc}", "exit_code": EXIT_IO}


def _write(args, payload: dict, out: str | None) -> int:
    """Write ``payload`` as the run's output, in ``--format``, to the file
    ``out`` (stdout if None); returns its exit code."""
    payload = {"command": args.command, **payload}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n" if args.format == "json" else _render_text(payload)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    elif sys.stdout is None:  # the process started with fd 1 closed
        raise OSError(errno.EBADF, "stdout is closed")
    else:
        sys.stdout.write(text)
    return payload["exit_code"]


def main(argv=None) -> int:
    """Run one command, write its payload and return the payload's exit
    code; argparse raises SystemExit for ``--version``, ``--help`` and a
    usage error, and a failed write to stdout raises its OSError."""
    args = build_parser().parse_args(argv)
    try:
        try:
            return _write(args, _payload(args), args.out)
        except MemoryError as exc:  # while the command ran or its payload was written
            error = f"out of memory: {str(exc) or 'allocation failed'}"
        # reported once the handler has dropped the failed command's frames,
        # and with them whatever it had allocated
        return _write(args, {"error": error, "exit_code": EXIT_IO}, args.out)
    except OSError as exc:
        if args.out is None:
            raise  # stdout itself failed, so no payload can reach it: console_entry reports it
        # every input is read under its own handler, so this is a failed --out write
        return _write(args, {"error": f"cannot write output: {exc}", "exit_code": EXIT_IO}, None)


def console_entry(argv=None) -> NoReturn:
    """The process entry of ``python -m metricembed.cli`` and of the
    ``metricembed`` script: run :func:`main`, flush stdout and stderr, and
    end the process with ``os._exit``. Finalization would only spend
    cyclic collections over numpy's objects and tear every module down.
    A failed write or flush of stdout exits 3 with one line on stderr."""
    message = ""
    try:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --version, --help, a usage error
            code = exc.code
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        code = EXIT_IO
        message = f"metricembed: cannot write output: {exc}\n"
    try:
        if sys.stderr is not None:  # likewise for fd 2
            sys.stderr.write(message)
            sys.stderr.flush()
    except OSError:  # stderr shares stdout's broken pipe (2>&1)
        pass
    os._exit(code)


if __name__ == "__main__":
    console_entry()

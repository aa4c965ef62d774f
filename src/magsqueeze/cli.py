"""Command-line interface: steady, sweep, wigner and validate subcommands."""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import CONTRASTS, MEASURES, Evaluation, evaluate, sweep, temperature_thresholds
from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    InvalidInputError,
    MagsqueezeError,
    NoMeasuresError,
    NoSteadyStateError,
    NumericalError,
    ParametricResonanceError,
    raise_first,
)
from .gaussian import wigner_single_mode
from .model import ValidityReport, rabi_frequency, total_spins, validity_report
from .tableio import ResultTable, sweep_table, write_csv, write_json

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_STEADY_STATE = 3
EXIT_NUMERICAL = 4


def _base_metadata(config: RunConfig, command: str) -> list[tuple[str, str]]:
    meta = [("artifact", f"magsqueeze {__version__}"), ("command", command)]
    for key in sorted(config.raw_parameters):
        meta.append((f"param {key}", str(config.raw_parameters[key])))
    return meta


def _write(table: ResultTable, stem: Path, fmt: str, label: str = "wrote") -> None:
    """Write ``table`` to ``stem``.csv, and to ``stem``.json as well when ``fmt`` is json."""
    # Made here, after the solve, so a failing command leaves no directory; one that
    # cannot be made or written raises the system's OSError, which main reports.
    stem.parent.mkdir(parents=True, exist_ok=True)
    for suffix, write in ((".csv", write_csv), (".json", write_json)):
        if suffix == ".csv" or fmt == "json":
            path = stem.with_name(stem.name + suffix)
            write(table, path)
            print(f"{label} {path}")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _validity(config: RunConfig, evaluation: Evaluation) -> ValidityReport:
    """The validity report of ``evaluation``'s point, after printing its lines."""
    report = validity_report(config.params, config.kerr, evaluation.m_s[0], evaluation.code[0])
    print(f"validity: |m_s| = {_fmt(report.magnon_amplitude)}")
    print(
        f"validity: magnon occupation = {_fmt(report.magnon_occupation)}"
        f" (bound {_fmt(report.excitation_bound)},"
        f" low-excitation {'PASS' if report.low_excitation_ok else 'FAIL'})"
    )
    print(
        f"validity: Kerr/drive ratio = {_fmt(report.kerr_drive_ratio)}"
        f" (threshold 0.5, {'PASS' if report.kerr_ok else 'FAIL'})"
    )
    print(f"validity: stable = {'PASS' if report.stable else 'FAIL'}")
    return report


def cmd_steady(config: RunConfig, out_dir: Path, fmt: str) -> int:
    evaluation = evaluate([config.params])
    raise_first(evaluation.code, evaluation.value)

    max_real = float(evaluation.max_real_part[0])
    print(f"stability: stable (max Re eigenvalue = {_fmt(max_real)} rad/s)")
    for name, value in zip(MEASURES, evaluation.measures[0].tolist()):
        print(f"{name} = {_fmt(value)}")
    if config.kerr is None:
        print("validity: skipped (set validate.kerr_over_2pi_hz to enable)")
    else:
        try:
            _validity(config, evaluation)
        except InvalidInputError as exc:  # no drive or no sphere: the point is ok
            print(f"validity: skipped ({exc})")

    if config.dump_covariance:
        labels = ["x_a", "p_a", "x_m", "p_m", "q", "p"]
        table = ResultTable(
            columns=dict(zip(labels, evaluation.covariances[0].T.tolist())),
            metadata=_base_metadata(config, "steady"),
        )
        _write(table, out_dir / "covariance", fmt, "covariance written to")
    return EXIT_OK


def cmd_sweep(config: RunConfig, out_dir: Path, fmt: str) -> int:
    if config.sweep is None:
        raise ConfigError("the sweep command needs a sweep section in the config")

    spec = config.sweep
    result = sweep(
        config.params,
        axes=[(axis.name, axis.si_values) for axis in spec.axes],
        pairing=spec.pairing,
    )

    metadata = _base_metadata(config, "sweep")
    for axis in spec.axes:
        d = axis.display_values
        metadata.append(
            (f"axis {axis.column_name}", f"{float(d[0])!r} .. {float(d[-1])!r} ({len(d)} points)")
        )
    if spec.pairing is not None:
        metadata.append(
            (
                "pairing",
                f"theta_forward_rad={spec.pairing.theta_forward!r}"
                f" theta_backward_rad={spec.pairing.theta_backward!r}",
            )
        )
        if len(spec.axes) == 1 and spec.axes[0].name == "temperature":
            for measure in CONTRASTS:
                intervals = temperature_thresholds(result, measure)
                text = "; ".join(f"{lo!r}..{hi!r} K" for lo, hi in intervals) or "none"
                metadata.append((f"ideal_zone {measure}", text))

    table = sweep_table(
        result,
        axis_columns=[(axis.column_name, axis.display_values) for axis in spec.axes],
        extra_metadata=metadata,
    )
    _write(table, out_dir / "sweep", fmt)
    return EXIT_OK


def _phase_tag(theta: float) -> str:
    return f"{theta / np.pi:.6g}".replace(".", "p").replace("-", "m")


def cmd_wigner(config: RunConfig, out_dir: Path, fmt: str) -> int:
    spec = config.wigner
    # Every phase is solved before any file is written, so a failing phase leaves none.
    evaluation = evaluate([replace(config.params, theta=theta) for theta in spec.phases])
    raise_first(evaluation.code, evaluation.value)
    blocks = evaluation.covariances[:, 2:4, 2:4]
    extents = [spec.extent_sigmas * float(np.sqrt(np.linalg.eigvalsh(b)[-1])) for b in blocks]
    if not all(math.isfinite(2.0 * extent) for extent in extents):
        raise ConfigError(f"wigner.extent_sigmas = {spec.extent_sigmas!r} gives a grid span"
                          " that is not finite")
    for theta, block, extent in zip(spec.phases, blocks, extents):
        axis = np.linspace(-extent, extent, spec.points_per_axis)
        xs, ys = np.meshgrid(axis, axis, indexing="ij")
        points = np.stack([xs.reshape(-1), ys.reshape(-1)], axis=1)
        w = wigner_single_mode(block, points)
        norm = float(np.trapezoid(np.trapezoid(w.reshape(xs.shape), axis, axis=1), axis))

        metadata = _base_metadata(config, "wigner")
        metadata.append(("theta_rad", repr(float(theta))))
        metadata.append(("normalization_integral", repr(norm)))
        columns = {"x": points[:, 0].tolist(), "y": points[:, 1].tolist(), "W": w.tolist()}
        table = ResultTable(columns=columns, metadata=metadata)
        _write(table, out_dir / f"wigner_theta_{_phase_tag(theta)}pi", fmt)
    return EXIT_OK


def cmd_validate(config: RunConfig) -> int:
    if config.kerr is None:
        raise ConfigError("the validate command needs validate.kerr_over_2pi_hz in the config")
    report = _validity(config, evaluate([config.params]))
    params = config.params
    if params.h_d is not None and params.sphere_diameter is not None:
        computed = rabi_frequency(params.h_d, total_spins(params.sphere_diameter))
        print(f"drive: field-derived rabi = {_fmt(computed)} rad/s")
        if params.rabi is not None:
            # A zero field derives a zero rabi, and then there is no ratio to print.
            ratio = f" (configured/derived = {_fmt(params.rabi / computed)})" if computed else ""
            print(f"drive: configured rabi = {_fmt(params.rabi)} rad/s{ratio}")
    print(f"drive: rabi used = {_fmt(report.drive_amplitude)} rad/s")
    verdict = report.low_excitation_ok and report.kerr_ok and report.stable
    print(f"overall: {'PASS' if verdict else 'FAIL'}")
    return EXIT_OK if verdict else EXIT_VALIDATION_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magsqueeze",
        description=(
            "Steady-state entanglement and phase-contrast analysis of a three-mode"
            " cavity magnomechanical system with a squeezed magnon drive."
        ),
    )
    parser.add_argument("--version", action="version", version=f"magsqueeze {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("steady", "solve one operating point and print its entanglement measures"),
        ("sweep", "evaluate measures over a 1-D or 2-D parameter grid"),
        ("wigner", "write magnon Wigner-function grids at selected phases"),
        ("validate", "check the linearization validity bounds"),
    ):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--config", required=True, help="path to a YAML run configuration")
        sub.add_argument("--output", default=".", help="output directory (default: .)")
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="also write JSON when set to json")
        sub.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility (>= 1); sweeps run batched in one thread")
        sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config key, e.g. --set upsilon_over_2pi_hz=3.9e6")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one ``magsqueeze`` command and return its exit code.

    This is the process entry point of the ``magsqueeze`` console script.
    It first moves every object alive at entry (the interpreter's, numpy's,
    yaml's and this package's import-time heap) into the collector's
    permanent generation with ``gc.freeze()``, so that neither a full
    collection during the run nor the collections at interpreter shutdown
    walk them again; objects that ``main`` itself creates stay collectable.
    Freezing is O(1) and changes no result; a process that calls ``main``
    more than once freezes what is alive at each call.
    """
    gc.freeze()
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        config = load_config(args.config, args.set)
        out_dir = Path(args.output)
        if args.command == "steady":
            return cmd_steady(config, out_dir, args.format)
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, args.format)
        if args.command == "wigner":
            return cmd_wigner(config, out_dir, args.format)
        return cmd_validate(config)
    except (MagsqueezeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (NoSteadyStateError, ParametricResonanceError, NoMeasuresError)):
            return EXIT_NO_STEADY_STATE
        return EXIT_NUMERICAL if isinstance(exc, NumericalError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Three tables hold the rules.  ``FIELDS`` has one row per configuration field:
its INI section and key, its ``RunConfig`` attribute (which is also its flag:
``--phi-rad`` sets ``phi_rad``), its type, default and check.  ``COMMANDS``
maps each subcommand (rates, sweep, oracle, plan, montecarlo) to its help and
handler, and ``_SWEEP_STEP`` maps each sweep axis to one step's model inputs.
A handler takes ``(cfg, args)`` and returns records; ``main`` alone writes them
and picks the exit code.  Values merge from defaults, an INI file with sections
[source], [channel], [detector], [sweep], [run], ``--set section.key=value``
and named flags (named flags win).  Numbers must be finite; only the rate
floor may be inf, an infeasible request.  CSV and JSON output carry 12
significant digits, byte-identical for identical inputs; JSON is exactly
``json.dump(indent=2, sort_keys=True)`` of those values.  Tables round to 4.

Exit codes: 0 success, 1 configuration, usage or model-domain error,
2 infeasible request or oracle disagreement.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import sys
from dataclasses import make_dataclass
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import experiment
from .experiment import (PROTOCOLS, SQRT8, ChannelParams, DetectorSpec, ProtocolParams,
                         protocol_report)

TABLE, CSV, JSON = "table", "csv", "json"
OUTPUTS = (TABLE, CSV, JSON)
# Sweep axis -> the (params p, channel c) of one step at value v.  Points are built
# by calling ProtocolParams, so its phi-regime warning names this file.
_SWEEP_STEP = {
    "delta_sigma_rad": lambda p, c, v: (ProtocolParams(p.alpha, p.phi, v, 0.0), c),
    "phi_rad": lambda p, c, v: (ProtocolParams(p.alpha, v, p.sigma1, p.sigma2), c),
    "alpha": lambda p, c, v: (ProtocolParams(v, p.phi, p.sigma1, p.sigma2), c),
    "distance_km_total": lambda p, c, v: (p, ChannelParams.from_total(c.loss_db_per_km, v)),
}
SWEEP_AXES = tuple(_SWEEP_STEP)
MAX_SWEEP_STEPS = 10**6  # rows are built in memory before any is written

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2


class ConfigError(Exception):
    """Bad configuration or usage; maps to exit code 1."""


class InfeasibleError(Exception):
    """Physically infeasible request or failed oracle check; maps to exit code 2.

    ``records`` are written before the message, as the evidence for it.
    """

    def __init__(self, message: str, records: list[dict] | None = None):
        super().__init__(message)
        self.records = records


class Field(NamedTuple):
    """One configuration field: INI location, RunConfig attribute and flag dest, rule."""

    section: str
    key: str
    name: str
    kind: type
    default: object
    check: tuple | None = None  # allowed values, or (">" | ">=", bound)
    help: str | None = None
    inf_ok: bool = False        # +inf is a meaningful value (an unreachable floor)


FIELDS = (
    Field("source", "alpha", "alpha", float, 100.0, (">", 0)),
    Field("source", "phi_rad", "phi_rad", float, 0.0028),
    Field("source", "sigma1_rad", "sigma1_rad", float, 0.0),
    Field("source", "sigma2_rad", "sigma2_rad", float, 0.0),
    Field("source", "rate_hz", "source_rate_hz", float, 1e9, (">", 0)),
    Field("channel", "loss_db_per_km", "loss_db_per_km", float, 0.15, (">=", 0)),
    Field("channel", "distance_km_total", "distance_km_total", float, 400.0, (">=", 0)),
    Field("detector", "dark_rate_hz", "dark_rate_hz", float, 0.0008, (">=", 0)),
    Field("detector", "coincidence_window_s", "coincidence_window_s", float, 1e-9, (">", 0)),
    # The sweep fields are checked by cmd_sweep: they are unset for every other command.
    Field("sweep", "variable", "axis", str, "", help="one of " + ", ".join(SWEEP_AXES)),
    Field("sweep", "start", "start", float, 0.0),
    Field("sweep", "stop", "stop", float, 0.0),
    Field("sweep", "steps", "steps", int, 0),
    Field("run", "protocol", "protocol", str, "usd2", PROTOCOLS),
    Field("run", "seed", "seed", int, 12345, (">=", 0)),
    Field("run", "duration_s", "duration_s", float, 10000.0, (">=", 0)),
    Field("run", "output", "output", str, TABLE, OUTPUTS, "output format"),
    Field("run", "rate_floor_counts_per_s", "rate_floor", float, 1.0, (">", 0),
          "rate floor in counts/s (plan)", inf_ok=True),
    Field("run", "oracle_tolerance", "tolerance", float, 1e-8, (">", 0),
          "oracle agreement tolerance"),
)

_FIELD_AT = {(f.section, f.key): f for f in FIELDS}
_COMPARE = {">": operator.gt, ">=": operator.ge}


RunConfig = make_dataclass(
    "RunConfig", [(f.name, f.kind) for f in FIELDS], frozen=True,
    namespace={"__module__": __name__,
               "__doc__": "Resolved configuration: one attribute per FIELDS row, named by Field.name."})


def _model(source: str, make, *args):
    """make(*args), a model-side ValueError turned into a ConfigError that names its source."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _link(cfg: RunConfig) -> tuple[ProtocolParams, ChannelParams]:
    """The configured source and channel; ProtocolParams's phi warning names _model, in this file."""
    return (_model("source", ProtocolParams,
                   cfg.alpha, cfg.phi_rad, cfg.sigma1_rad, cfg.sigma2_rad),
            _model("channel", ChannelParams.from_total, cfg.loss_db_per_km, cfg.distance_km_total))


def _coerce(field: Field, raw: str):
    """Parse one raw INI, --set or flag value; floats must be finite."""
    where = f"{field.section}.{field.key}"
    try:
        value = field.kind(raw)
    except (TypeError, ValueError):
        want = {float: "a number", int: "an integer"}[field.kind]
        raise ConfigError(f"{where}: expected {want}, got {raw!r}") from None
    if field.kind is float and not math.isfinite(value) and not (field.inf_ok and value > 0):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _check(field: Field, value) -> None:
    if field.check is None:
        return
    where = f"{field.section}.{field.key}"
    if field.kind is str:
        if value not in field.check:
            raise ConfigError(f"{where}: expected one of {field.check}, got {value!r}")
        return
    op, bound = field.check
    if not _COMPARE[op](value, bound):
        raise ConfigError(f"{where}: must be {op} {bound}, got {value}")


def load_config(path: str | None, overrides: list[tuple[str, str, str]]) -> RunConfig:
    """Merge defaults, an optional INI file, and override assignments into a RunConfig."""
    raw = []
    if path is not None:
        import configparser  # only a --config file needs it
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path!r}: {exc}") from None
        sections = {f.section for f in FIELDS}
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"unknown config section [{section}]")
            raw += [(section, key, value) for key, value in parser.items(section)]
    values = {f.name: f.default for f in FIELDS}
    for section, key, text in raw + overrides:
        field = _FIELD_AT.get((section, key))
        if field is None:
            raise ConfigError(f"unknown config field {section}.{key}")
        values[field.name] = _coerce(field, text)
    for field in FIELDS:
        _check(field, values[field.name])
    return RunConfig(**values)


def _fmt(value, digits: int = 12, none: str = "") -> str:
    """One table or CSV cell: floats to `digits` significant digits, None as `none`."""
    if value is None:
        return none
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _json_literal(value) -> str:
    """One JSON value as json.dump writes it, a float first cut to 12 significant digits.

    That float's repr has the digits of its .12g text, which is already the
    literal save where repr differs: it adds ".0" to an integral value, writes
    1e12 to 1e16 in fixed notation, and keeps fewer digits of a subnormal.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            return f'"{value}"'
        text = f"{value:.12g}"
        if text.endswith(("e+12", "e+13", "e+14", "e+15")) or abs(value) < sys.float_info.min:
            return float.__repr__(float(text))
        return text if "." in text or "e" in text else text + ".0"
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return encode_basestring_ascii(value)  # TypeError for any other type


def _json_text(rows: list[dict]) -> str:
    """The rows as json.dumps writes them with indent=2, sort_keys=True: an object for one row."""
    pad = "\n  " if len(rows) == 1 else "\n    "
    heads = {}  # a row's key tuple -> its sorted (key, line head) pairs
    objects = []
    for row in rows:
        keys = tuple(row)
        if keys not in heads:
            heads[keys] = [(k, f"{pad}{encode_basestring_ascii(k)}: ") for k in sorted(keys)]
        body = ",".join([head + _json_literal(row[k]) for k, head in heads[keys]])
        objects.append("{" + body + pad[:-2] + "}" if body else "{}")
    return objects[0] if len(rows) == 1 else "[\n  " + ",\n  ".join(objects) + "\n]"


def _emit(rows: list[dict], output: str, stream) -> None:
    """Write records: key/value table, RFC 4180 CSV, or JSON array/object."""
    if output == CSV:
        import csv  # only CSV output needs it
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(_fmt(v) for v in row.values())
    elif output == JSON:
        stream.write(_json_text(rows) + "\n")
    else:
        for row in rows:
            width = max(len(k) for k in row)
            for key, value in row.items():
                stream.write(f"{key:<{width}}  {_fmt(value, 4, 'n/a')}\n")
            if row is not rows[-1]:
                stream.write("\n")


def cmd_rates(cfg: RunConfig, args: argparse.Namespace) -> list[dict]:
    params, channel = _link(cfg)
    report = protocol_report(params, channel, cfg.protocol)
    rates = experiment.counting_rates(report.p_max, report.p_min, cfg.source_rate_hz)
    alpha_prime, n_lost = experiment.attenuate(params.alpha, channel)
    record = {
        "protocol": cfg.protocol,
        "alpha": params.alpha,
        "phi_rad": params.phi,
        "sigma1_rad": params.sigma1,
        "sigma2_rad": params.sigma2,
        "loss_db_per_km": cfg.loss_db_per_km,
        "distance_km_total": channel.distance_km_total,
        "alpha_prime_sq": alpha_prime**2,
        "n_lost": n_lost,
        "p_success": report.p_success,
        "p_max": report.p_max,
        "p_min": report.p_min,
        "visibility": report.visibility,
        "chsh_s": report.chsh_s,
        "r_success_per_s": report.p_success * cfg.source_rate_hz,
        "r_max_per_s": rates.r_max,
        "r_min_per_s": rates.r_min,
    }
    if params.phi == 0.0:
        record["note"] = ("phi = 0: no conditional phase is imprinted, "
                          "so every detection rate vanishes")
    return [record]


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> list[dict]:
    axis = cfg.axis
    if not axis:
        raise ConfigError("sweep.variable: exactly one sweep axis is required")
    if "," in axis:
        raise ConfigError(f"sweep.variable: exactly one sweep axis is required, got {axis!r}")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.variable: expected one of {SWEEP_AXES}, got {axis!r}")
    if cfg.steps < 1:
        raise ConfigError(f"sweep.steps: must be >= 1, got {cfg.steps}")
    if cfg.steps > MAX_SWEEP_STEPS:
        raise ConfigError(f"sweep.steps: must be <= {MAX_SWEEP_STEPS}, got {cfg.steps}")
    (base_params, base_channel), step = _link(cfg), _SWEEP_STEP[axis]
    rows = []
    for i in range(cfg.steps):
        if cfg.steps == 1:
            value = cfg.start
        else:
            value = cfg.start + (cfg.stop - cfg.start) * i / (cfg.steps - 1)
        if not math.isfinite(value):
            raise ConfigError(f"sweep.start/sweep.stop: the sweep from {cfg.start} to "
                              f"{cfg.stop} overflows at step {i} of {cfg.steps}")
        params, channel = _model(f"sweep value {value}", step, base_params, base_channel, value)
        report = protocol_report(params, channel, cfg.protocol)
        rates = experiment.counting_rates(report.p_max, report.p_min, cfg.source_rate_hz)
        rows.append({
            axis: value,
            "p_success": report.p_success,
            "p_max": report.p_max,
            "p_min": report.p_min,
            "visibility": report.visibility,
            "chsh_s": report.chsh_s,
            "r_max_per_s": rates.r_max,
            "r_min_per_s": rates.r_min,
        })
    return rows


def cmd_oracle(cfg: RunConfig, args: argparse.Namespace) -> list[dict]:
    from . import fock  # only this command needs the Fock oracle
    from .protocols import pipeline_prob

    params, channel = _link(cfg)
    rows = []
    worst = 0.0
    for which in PROTOCOLS:
        for dsig in (math.pi, math.pi / 2, 0.0):
            point = ProtocolParams(params.alpha, params.phi, dsig, 0.0)
            try:  # first: the budget check comes before any evaluation
                p_oracle = fock.oracle_protocol_prob(point, channel, which)
            except fock.OracleBudgetError as exc:
                raise InfeasibleError(str(exc)) from None
            p_pipeline = pipeline_prob(point, channel, which)
            err = abs(p_pipeline - p_oracle)
            worst = max(worst, err)
            rows.append({
                "protocol": which,
                "delta_sigma_rad": dsig,
                "p_pipeline": p_pipeline,
                "p_oracle": p_oracle,
                "abs_error": err,
                "ok": err <= cfg.tolerance,
            })
    if worst > cfg.tolerance:
        raise InfeasibleError(
            f"oracle disagreement {worst:.3e} exceeds tolerance {cfg.tolerance:.3e}", rows)
    return rows


def cmd_plan(cfg: RunConfig, args: argparse.Namespace) -> list[dict]:
    params = _link(cfg)[0]  # plan picks its own distances
    result = experiment.max_range(params, cfg.loss_db_per_km, cfg.rate_floor,
                                  cfg.source_rate_hz, cfg.protocol)
    record = {
        "protocol": cfg.protocol,
        "rate_floor_counts_per_s": cfg.rate_floor,
        "feasible": result.feasible,
        "max_range_km_total": None,
        "limited_by": result.limited_by,
    }
    if not result.feasible:
        raise InfeasibleError(f"no distance satisfies rate >= {cfg.rate_floor} counts/s "
                              "with visibility above 1/sqrt(2)", [record])
    from decimal import ROUND_FLOOR, Context  # only plan needs it
    # Rounded down to the 12 printed digits, the printed range is feasible too.
    distance = float(Context(12, ROUND_FLOOR).create_decimal_from_float(result.distance_km_total))
    channel = ChannelParams.from_total(cfg.loss_db_per_km, distance)
    report = protocol_report(params, channel, cfg.protocol)
    optimum = experiment.optimize_phi(params.alpha, channel, cfg.protocol)
    record.update(max_range_km_total=distance, visibility_at_range=report.visibility,
                  chsh_s_at_range=report.chsh_s,
                  chsh_margin=experiment.chsh_margin(report.visibility),
                  phi_star_at_range=optimum.phi_star, phi_star_p_max=optimum.p_max)
    return [record]


def _write_bins(chunks, path: str):
    """Pass chunks through, one write of CSV lines per chunk; a failed session leaves no file."""
    try:
        bins = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write --bins-out {path!r}: {exc}") from None
    try:
        with bins:
            bins.write("block_index,t_start_s,counts_max,counts_min\n")
            for start, c_max, c_min in chunks:
                # t_start_s = i s, and _fmt writes it as str(i): block indices lie below 2^32.
                rows = zip(range(start, start + len(c_max)), c_max, c_min)
                bins.write("".join([f"{i},{i},{a},{b}\n" for i, a, b in rows]))
                yield start, c_max, c_min
    except BaseException:
        if os.path.isfile(path):  # a device such as /dev/stdout stays
            os.remove(path)
        raise


def cmd_montecarlo(cfg: RunConfig, args: argparse.Namespace) -> list[dict]:
    params, channel = _link(cfg)
    det = _model("detector", DetectorSpec, cfg.dark_rate_hz, cfg.coincidence_window_s)
    if cfg.duration_s > experiment.MAX_MC_BLOCKS:  # one block per second
        raise ConfigError(f"run.duration_s: must be <= {experiment.MAX_MC_BLOCKS}, "
                          f"got {cfg.duration_s}")
    # A refused session raises here, before --bins-out is opened.
    chunks = experiment.monte_carlo_chunks(params, channel, det, cfg.duration_s, cfg.seed,
                                           cfg.protocol, cfg.source_rate_hz)
    if args.bins_out is not None:
        chunks = _write_bins(chunks, args.bins_out)
    result = experiment.RunResult.from_chunks(chunks, cfg.seed)
    no_counts = result.counts_max + result.counts_min == 0
    if no_counts:
        print("warning: no counts collected; visibility estimate undefined",
              file=sys.stderr)
    s_est = None if no_counts else SQRT8 * result.estimated_visibility
    s_err = None if no_counts else SQRT8 * result.stderr_visibility
    record = {
        "protocol": cfg.protocol,
        "duration_s": cfg.duration_s,
        "seed": result.seed,
        "source_rate_hz": cfg.source_rate_hz,
        "counts_max": result.counts_max,
        "counts_min": result.counts_min,
        "estimated_visibility": None if no_counts else result.estimated_visibility,
        "stderr_visibility": None if no_counts else result.stderr_visibility,
        "s_estimate": s_est,
        "s_stderr": s_err,
        "s_above_2_at_3sigma": bool(not no_counts and s_err > 0
                                    and (s_est - 2.0) / s_err > 3.0),
        "accidental_rate_per_s": experiment.accidental_rate(det, cfg.protocol),
    }
    return [record]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# Subcommand name -> (help, handler); the parser and main both read this table.
COMMANDS = {
    "rates": ("detection probabilities and counting rates", cmd_rates),
    "sweep": ("sweep one axis and tabulate rates", cmd_sweep),
    "oracle": ("compare the branch algebra against the Fock oracle", cmd_oracle),
    "plan": ("maximum range for a rate floor and Bell violation", cmd_plan),
    "montecarlo": ("simulate coincidence counting", cmd_montecarlo),
}


@cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="catbell",
                     description="Phase-entangled coherent-state link calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", metavar="PATH", help="INI configuration file")
        sp.add_argument("--set", dest="assignments", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override one config field")
        for field in FIELDS:
            if field.section != "sweep" or name == "sweep":
                sp.add_argument("--" + field.name.replace("_", "-"), help=field.help,
                                choices=field.check if field.kind is str else None)
        if name == "montecarlo":
            sp.add_argument("--bins-out", metavar="PATH",
                            help="write per-block counts as CSV")
    return parser


def _collect_overrides(args: argparse.Namespace) -> list[tuple[str, str, str]]:
    overrides = []
    for assignment in args.assignments:
        if "=" not in assignment or "." not in assignment.split("=", 1)[0]:
            raise ConfigError(f"--set expects SECTION.KEY=VALUE, got {assignment!r}")
        target, raw = assignment.split("=", 1)
        section, key = target.split(".", 1)
        overrides.append((section.strip(), key.strip(), raw.strip()))
    for field in FIELDS:
        value = getattr(args, field.name, None)
        if value is not None:
            overrides.append((field.section, field.key, value))
    return overrides


def main(argv: list[str] | None = None, stream=None) -> int:
    """Run one subcommand; the only place that writes records and picks the exit code."""
    code, message = EXIT_OK, None
    try:
        args = build_parser().parse_args(argv)
        cfg = load_config(args.config, _collect_overrides(args))
        try:
            records = COMMANDS[args.command][1](cfg, args)
        except InfeasibleError as exc:
            records, code, message = exc.records, EXIT_INFEASIBLE, f"infeasible: {exc}"
        if records:
            _emit(records, cfg.output, stream or sys.stdout)
    except (ConfigError, ValueError, ArithmeticError) as exc:
        code, message = EXIT_CONFIG, f"error: {exc}"  # also a value the model itself refused
    if message is not None:
        print(message, file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())

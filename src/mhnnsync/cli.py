"""Command line interface: config loading, dispatch, and report serialization.

Subcommands: constants, threshold, simulate, verify, sweep. Configs and
reports are JSON; trajectories and sweeps are CSV. Exit codes: 0 success,
1 verification verdict fail, 2 config parse error, 3 config validation error,
4 numerical blow-up, 64 unknown subcommand, 71 an input too large to
allocate memory for, 73 output path cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import analysis, constants as cst
from .integrate import BlowUpError, IntegratorConfig, default_dt, integrate
from .model import ActivationSpec, HebbianParams, MhnnParams, ParameterError, as_integer

COMMANDS = ("constants", "threshold", "simulate", "verify", "sweep")

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BLOWUP = 4
EXIT_USAGE = 64
EXIT_OSERR = 71
EXIT_CANTCREAT = 73

_COUPLING_ALIASES = {"weak": "weak-sigmoidal", "weak-sigmoidal": "weak-sigmoidal",
                     "linear": "linear"}


@dataclass
class RunConfig:
    model: str
    parameters: Union[MhnnParams, HebbianParams]
    integrator: IntegratorConfig
    ensemble: analysis.EnsembleSpec
    epsilon: float


_MISSING = object()


def _field(block: dict, key: str, convert=None, default=_MISSING, prefix: str = ""):
    """block[key] passed through convert, or default when the key is absent.

    A missing required field, or a value that convert rejects, raises
    ParameterError naming the field path prefix + key.
    """
    path = prefix + key
    if key not in block:
        if default is _MISSING:
            raise ParameterError(path, "required field is missing")
        return default
    value = block[key]
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(path, f"malformed value {value!r} ({exc})") from None


def _block(cfg: dict, key: str) -> dict:
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ParameterError(key, f"expected a JSON object, got {block!r}")
    return block


def _activation(spec, path: str) -> ActivationSpec:
    if not isinstance(spec, dict):
        raise ParameterError(path, f"expected a JSON object with 'kind' and 'beta', got {spec!r}")
    return ActivationSpec(kind=spec.get("kind", "tanh-scaled"),
                          beta=_field(spec, "beta", float, 1.0, path + "."))


def _build_params(cfg: dict, model: str):
    # checked before the parameter object broadcasts scalar fields to length m
    m = as_integer(_field(cfg, "m"), "m")
    if m < 2:
        raise ParameterError("m", "node count must satisfy m >= 2")
    acts = cfg.get("activations")
    if acts is None:
        activations = ()
    elif isinstance(acts, list):
        activations = tuple(_activation(a, f"activations[{i}]") for i, a in enumerate(acts))
    else:
        raise ParameterError("activations", f"expected a list of activation specs, got {acts!r}")
    common = dict(
        m=m, a=_field(cfg, "a"), b=_field(cfg, "b", float),
        eta=_field(cfg, "eta"), J=_field(cfg, "J"), gamma=_field(cfg, "gamma"),
        P=_field(cfg, "P", float, 0.0), r=_field(cfg, "r", float, 1.0),
        V=_field(cfg, "V", float, 0.0), activations=activations,
    )
    if model == "mhnn":
        coupling = cfg.get("coupling", "weak")
        if not isinstance(coupling, str) or coupling not in _COUPLING_ALIASES:
            raise ParameterError("coupling", f"expected 'weak' or 'linear', got {coupling!r}")
        if isinstance(cfg.get("k"), (list, dict)):
            raise ParameterError("k", "mhnn model takes a scalar memristive strength")
        return MhnnParams(k=_field(cfg, "k", float), w=_field(cfg, "w"),
                          coupling_kind=_COUPLING_ALIASES[coupling], **common)
    if model == "hebbian":
        return HebbianParams(k=_field(cfg, "k"), c=_field(cfg, "c"),
                             lam=_field(cfg, "lambda"),
                             w0=cfg.get("w0", np.ones((m, m))), **common)
    raise ParameterError("model", f"expected 'mhnn' or 'hebbian', got {model!r}")


def load_config(path: str, *, model_override: Optional[str] = None,
                seed_override: Optional[int] = None,
                epsilon_override: Optional[float] = None) -> RunConfig:
    """Load and fully validate a run configuration, applying defaults.

    A missing, mistyped or out-of-range field raises ParameterError with its path.
    """
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ParameterError("<root>", "config must be a JSON object")
    model = model_override or _field(cfg, "model")
    params = _build_params(cfg, model)
    params.validate()

    epsilon = (float(epsilon_override) if epsilon_override is not None
               else _field(cfg, "epsilon", float, 0.1))
    if not (0 < epsilon < math.inf):
        raise ParameterError("epsilon", "prescribed gap epsilon must be positive and finite")

    ens_cfg = _block(cfg, "ensemble")
    ensemble = analysis.EnsembleSpec(
        count=_field(ens_cfg, "count", None, 10, "ensemble."),
        radius=_field(ens_cfg, "radius", float, 5.0, "ensemble."),
        seed=(int(seed_override) if seed_override is not None
              else _field(ens_cfg, "seed", None, 0, "ensemble.")),
        tail_fraction=_field(ens_cfg, "tail_fraction", float, 0.2, "ensemble."),
    )
    ensemble.validate()

    int_cfg = _block(cfg, "integrator")
    dt = _field(int_cfg, "dt", float, None, "integrator.")
    # One derivation serves both defaults and is skipped when the config gives
    # both, except under weak coupling, where it also rejects an r whose
    # sigmoid term overflows.
    if dt is None or "t_end" not in int_cfg or params.coupling_kind == "weak-sigmoidal":
        d = cst._derive(params)
    t_end = _field(int_cfg, "t_end", float, None, "integrator.")
    integrator = IntegratorConfig(
        method=_field(int_cfg, "method", None, "rk4-fixed", "integrator."),
        dt=default_dt(params, d.dc) if dt is None else dt,
        t_end=analysis._horizon(d, params.P, ensemble) if t_end is None else t_end,
        record_stride=_field(int_cfg, "record_stride", None, 1, "integrator."),
        abs_tol=_field(int_cfg, "abs_tol", float, 1e-9, "integrator."),
        rel_tol=_field(int_cfg, "rel_tol", float, 1e-9, "integrator."),
    )
    integrator.validate()
    return RunConfig(model=model, parameters=params, integrator=integrator,
                     ensemble=ensemble, epsilon=epsilon)


def _output_problem(path: str) -> Optional[str]:
    """Why ``path`` cannot be written, or None; found without creating or truncating it."""
    if os.path.isdir(path):
        return "is a directory"
    if os.path.exists(path):
        return None if os.access(path, os.W_OK) else "permission denied"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return "no such directory"
    return None if os.access(parent, os.W_OK | os.X_OK) else "permission denied"


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _cmd_constants(run: RunConfig, args) -> int:
    dc = cst.derive_constants(run.parameters)
    n_scale, n_force, n_rate, n_bound = dc.names()
    out = {"model": dc.model, n_scale: dc.scale, n_force: dc.forcing,
           n_rate: dc.diss_rate, n_bound: dc.bound,
           "extremes": dataclasses.asdict(cst.derive_extremes(run.parameters))}
    _emit(_json_text(out), args.output)
    return EXIT_OK


def _cmd_threshold(run: RunConfig, args) -> int:
    thr = cst.threshold(run.parameters, run.epsilon)
    out = {"model": run.model, "epsilon": run.epsilon, "p_star": thr.p_star,
           "p_used": run.parameters.P,
           "rate_theory": thr.rate_at(run.parameters.P),
           "residual": thr.residual_at(run.parameters.P)}
    _emit(_json_text(out), args.output)
    return EXIT_OK


def _cmd_simulate(run: RunConfig, args) -> int:
    p = run.parameters
    y0 = analysis._initial_states(p, run.ensemble)[0]
    hebbian = run.model == "hebbian"
    traj = integrate(analysis._make_rhs(p), y0, run.integrator,
                     params_digest=p.digest(), m=p.m, has_weights=hebbian)
    header = ["t"] + [f"u{i + 1}" for i in range(p.m)] + ["rho"]
    if hebbian:
        header += [f"w{i + 1}{j + 1}" for i in range(p.m) for j in range(p.m)]
    lines = [",".join(header)]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join([_fmt(float(t))] + [_fmt(float(x)) for x in row]))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _cmd_verify(run: RunConfig, args) -> int:
    report = analysis.verify_guarantees(run.parameters, run.integrator,
                                        run.ensemble, run.epsilon)
    _emit(_json_text(report.to_dict()), args.output)
    return EXIT_OK if report.verdict == "pass" else EXIT_VERDICT_FAIL


def _cmd_sweep(run: RunConfig, args) -> int:
    try:
        p_values = [float(x) for x in args.p_values.split(",") if x.strip() != ""]
    except ValueError:
        raise ParameterError("p_values", f"could not parse coupling list {args.p_values!r}")
    rows = analysis.sweep_coupling(run.parameters, run.integrator, run.ensemble,
                                   p_values, run.epsilon)
    lines = ["P,deg_estimate,p_star,rate_theory,rate_fitted,verdict"]
    for row in rows:
        lines.append(",".join([_fmt(row.P), _fmt(row.deg_estimate), _fmt(row.p_star),
                               _fmt(row.rate_theory), _fmt(row.rate_fitted), row.verdict]))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


_HANDLERS = {
    "constants": _cmd_constants,
    "threshold": _cmd_threshold,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="mhnnsync",
        description="Simulate memristive Hopfield networks and verify their "
                    "synchronization and dissipativity guarantees.")
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(COMMANDS) + "}")
    for name, help_text in [
        ("constants", "emit the derived dissipativity constants as JSON"),
        ("threshold", "emit the coupling threshold p_star(epsilon) as JSON"),
        ("simulate", "integrate one trajectory and emit it as CSV"),
        ("verify", "run a seeded ensemble and check every guarantee"),
        ("sweep", "run verify over a list of coupling strengths, emit CSV"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to a JSON run config")
        sp.add_argument("--output", default=None, help="output path (default stdout)")
        sp.add_argument("--seed", type=int, default=None, help="override the ensemble seed")
        sp.add_argument("--model", choices=("mhnn", "hebbian"), default=None,
                        help="override the config model")
        if name in ("threshold", "verify", "sweep"):
            sp.add_argument("--epsilon", type=float, default=None,
                            help="override the prescribed gap")
        if name == "sweep":
            sp.add_argument("--p-values", required=True,
                            help="comma-separated coupling strengths")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    if argv and not argv[0].startswith("-") and argv[0] not in COMMANDS:
        parser.print_usage(sys.stderr)
        print(f"mhnnsync: unknown subcommand {argv[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        run = load_config(args.config,
                          model_override=args.model,
                          seed_override=args.seed,
                          epsilon_override=getattr(args, "epsilon", None))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"mhnnsync: config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParameterError as exc:
        print(f"mhnnsync: config validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        return _out_of_memory(exc)
    # checked before anything is integrated, so that a long run is not lost
    problem = _output_problem(args.output) if args.output else None
    if problem is not None:
        print(f"mhnnsync: cannot write output {args.output}: {problem}", file=sys.stderr)
        return EXIT_CANTCREAT
    try:
        return _HANDLERS[args.command](run, args)
    except ParameterError as exc:
        print(f"mhnnsync: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BlowUpError as exc:
        print(f"mhnnsync: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except MemoryError as exc:
        return _out_of_memory(exc)


def _out_of_memory(exc: MemoryError) -> int:
    print(f"mhnnsync: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
    return EXIT_OSERR


if __name__ == "__main__":
    sys.exit(main())

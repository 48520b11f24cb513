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
from typing import Optional, Sequence, Union

from . import analysis, constants as cst
from .analysis import default_dt
from .integrate import BlowUpError, IntegratorConfig, integrate
from .model import ActivationSpec, HebbianParams, MhnnParams, ParameterError, as_real

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BLOWUP = 4
EXIT_USAGE = 64
EXIT_OSERR = 71
EXIT_CANTCREAT = 73

# the values of "coupling" that each model takes, its default first, and the kind each names
_COUPLINGS = {"mhnn": {"weak": "weak-sigmoidal", "weak-sigmoidal": "weak-sigmoidal",
                       "linear": "linear"},
              "hebbian": {"linear": "linear"}}


@dataclass
class RunConfig:
    model: str
    parameters: Union[MhnnParams, HebbianParams]
    integrator: IntegratorConfig
    ensemble: analysis.EnsembleSpec
    epsilon: float


def _required(block: dict, key: str):
    """block[key], else ParameterError naming the missing field.

    Values are passed on as given: the parameter, ensemble and integrator
    types coerce and check them, naming the field of a value they reject.
    """
    if key not in block:
        raise ParameterError(key, "required field is missing")
    return block[key]


def _block(cfg: dict, key: str) -> dict:
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ParameterError(key, f"expected a JSON object, got {block!r}")
    return block


def _given(cls, block: dict) -> dict:
    """The defaulted fields of dataclass ``cls`` that ``block`` gives; the rest keep their default."""
    return {f.name: block[f.name] for f in dataclasses.fields(cls)
            if f.name in block and f.default is not dataclasses.MISSING}


def _activation(spec, path: str) -> ActivationSpec:
    if not isinstance(spec, dict):
        raise ParameterError(path, f"expected a JSON object with 'kind' and 'beta', got {spec!r}")
    return ActivationSpec(**_given(ActivationSpec, spec))


def _build_params(cfg: dict, model: str):
    _required(cfg, "m")
    if model not in _COUPLINGS:
        raise ParameterError("model", f"expected 'mhnn' or 'hebbian', got {model!r}")
    couplings = _COUPLINGS[model]
    coupling = cfg.get("coupling", next(iter(couplings)))
    if not isinstance(coupling, str) or coupling not in couplings:
        raise ParameterError("coupling", f"expected one of {tuple(couplings)}, got {coupling!r}")
    # P, the activations and, for the mHNN, r and V, where the config gives them
    given = _given(MhnnParams if model == "mhnn" else HebbianParams, cfg)
    acts = given.get("activations")
    if not isinstance(acts, (list, type(None))):
        raise ParameterError("activations", f"expected a list of activation specs, got {acts!r}")
    given["activations"] = tuple(_activation(a, f"activations[{i}]")
                                 for i, a in enumerate(acts or ()))
    common = {key: _required(cfg, key) for key in ("m", "a", "b", "eta", "J", "gamma")}
    if "P" in given:
        given["P"] = as_real(given["P"], "P")
    given["coupling_kind"] = couplings[coupling]
    if model == "mhnn":
        if isinstance(cfg.get("k"), (list, dict)):
            raise ParameterError("k", "mhnn model takes a scalar memristive strength")
        return MhnnParams(k=_required(cfg, "k"), w=_required(cfg, "w"), **common, **given)
    return HebbianParams(k=_required(cfg, "k"), c=_required(cfg, "c"),
                         lam=_required(cfg, "lambda"), w0=cfg.get("w0", 1.0), **common, **given)


def load_config(path: str, *, model_override: Optional[str] = None,
                seed_override: Optional[int] = None,
                epsilon_override: Optional[float] = None,
                p_values: Optional[Sequence[float]] = None) -> RunConfig:
    """Load and fully validate a run configuration, applying defaults.

    A missing, mistyped or out-of-range field raises ParameterError with its
    path. ``p_values`` are the coupling strengths of a sweep. Where the
    config omits dt or t_end, they are validated as one lockstep column, and
    then the default dt is sized at the largest and the default t_end at the
    smallest, so that every swept run is resolved and long enough.
    """
    with open(path, encoding="utf-8") as fh:     # JSON is UTF-8 whatever the locale
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ParameterError("<root>", "config must be a JSON object")
    model = model_override or _required(cfg, "model")
    params = _build_params(cfg, model)
    params.validate()

    epsilon = (float(epsilon_override) if epsilon_override is not None
               else as_real(cfg.get("epsilon", 0.1), "epsilon"))
    if not (0 < epsilon < math.inf):
        raise ParameterError("epsilon", "prescribed gap epsilon must be positive and finite")

    ensemble = analysis.EnsembleSpec(**_given(analysis.EnsembleSpec, _block(cfg, "ensemble")))
    if seed_override is not None:
        ensemble.seed = int(seed_override)
    ensemble.validate()

    given = _given(IntegratorConfig, _block(cfg, "integrator"))
    defaults = "dt" not in given or "t_end" not in given
    # One derivation serves both defaults and is skipped when the config gives
    # both, except under weak coupling, where it also rejects an r whose
    # sigmoid term overflows.
    if defaults or params.coupling_kind == "weak-sigmoidal":
        d = cst._derive(params)
    # the defaults are sized at the swept P column: dt at its largest, t_end at its smallest
    sized = params
    if defaults and p_values:
        sized = analysis._p_column(params, p_values)
        sized.validate()
    if "dt" not in given:
        given["dt"] = default_dt(sized, d.dc)
    if "t_end" not in given:
        given["t_end"] = analysis._horizon(d, sized.P, ensemble)
    integrator = IntegratorConfig(**given)
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
    """obj as JSON, else ParameterError naming the first output field that is not finite."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError:
        field = _not_finite(obj, "")[1:]
        raise ParameterError(field, f"{field} leaves the double range") from None


def _not_finite(obj, path: str) -> Optional[str]:
    """``path`` extended to obj's first float that is not finite, else None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    found = (_not_finite(v, f"{path}.{k}" if isinstance(k, str) else f"{path}[{k}]")
             for k, v in items)
    return next(filter(None, found), None)


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else repr(x)


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
           "N": thr.N, "N_terms": thr.N_terms, "B": thr.B,
           "p_used": run.parameters.P,
           "rate_theory": thr.rate_at(run.parameters.P),
           "residual": thr.residual_at(run.parameters.P)}
    _emit(_json_text(out), args.output)
    return EXIT_OK


def _cmd_simulate(run: RunConfig, args) -> int:
    p = run.parameters
    y0 = analysis._initial_states(p, run.ensemble)[0]
    traj = integrate(analysis._make_rhs(p), y0, run.integrator, m=p.m)
    header = ["t"] + [f"u{i + 1}" for i in range(p.m)] + ["rho"]
    if run.model == "hebbian":
        sep = "_" if p.m >= 10 else ""      # w1_11 and w11_1, not w111 twice
        header += [f"w{i + 1}{sep}{j + 1}" for i in range(p.m) for j in range(p.m)]
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


def _parse_p_values(text: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ParameterError("p_values", f"could not parse coupling list {text!r}") from None


def _cmd_sweep(run: RunConfig, args) -> int:
    reports = analysis.sweep_coupling(run.parameters, run.integrator, run.ensemble,
                                      args.p_values, run.epsilon)
    lines = ["P,deg_estimate,p_star,rate_theory,rate_fitted,verdict"]
    for rep in reports:
        lines.append(",".join([_fmt(rep.p_used), _fmt(rep.deg_estimate), _fmt(rep.p_star),
                               _fmt(rep.rate_theory), _fmt(rep.fitted_rate), rep.verdict]))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# each subcommand's handler and help text, in the order that --help lists them
COMMANDS = {
    "constants": (_cmd_constants, "emit the derived dissipativity constants as JSON"),
    "threshold": (_cmd_threshold, "emit the coupling threshold p_star(epsilon) as JSON"),
    "simulate": (_cmd_simulate, "integrate one trajectory and emit it as CSV"),
    "verify": (_cmd_verify, "run a seeded ensemble and check every guarantee"),
    "sweep": (_cmd_sweep, "run verify over a list of coupling strengths, emit CSV"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="mhnnsync",
        description="Simulate memristive Hopfield networks and verify their "
                    "synchronization and dissipativity guarantees.")
    sub = parser.add_subparsers(dest="command", metavar="{" + ",".join(COMMANDS) + "}")
    for name, (_, help_text) in COMMANDS.items():
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
        if args.command == "sweep":
            args.p_values = _parse_p_values(args.p_values)
        run = load_config(args.config,
                          model_override=args.model,
                          seed_override=args.seed,
                          epsilon_override=getattr(args, "epsilon", None),
                          p_values=getattr(args, "p_values", None))
    except ParameterError as exc:       # a ValueError, so caught before the parse errors
        print(f"mhnnsync: config validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError, RecursionError) as exc:    # unreadable, not JSON, too deep
        print(f"mhnnsync: config parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        return _out_of_memory(exc)
    # checked before anything is integrated, so that a long run is not lost
    problem = _output_problem(args.output) if args.output else None
    if problem is not None:
        print(f"mhnnsync: cannot write output {args.output}: {problem}", file=sys.stderr)
        return EXIT_CANTCREAT
    try:
        return COMMANDS[args.command][0](run, args)
    except ParameterError as exc:
        print(f"mhnnsync: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BlowUpError as exc:
        print(f"mhnnsync: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except MemoryError as exc:
        return _out_of_memory(exc)
    except OSError as exc:              # the write failed after the path was checked
        print(f"mhnnsync: cannot write output {args.output or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_CANTCREAT


def _out_of_memory(exc: MemoryError) -> int:
    print(f"mhnnsync: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
    return EXIT_OSERR


if __name__ == "__main__":
    sys.exit(main())

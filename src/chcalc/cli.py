"""Command-line interface: calculators, schedulers, and the experiment runner.

Each handler returns the text it prints; ``main`` prints it and chooses the
exit code: 0 success, 1 a refused input (one ``error:`` line on stderr), 2 an
infeasible design (a JSON reason on stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import chcalc  # emit_csv's annotation names the package's lazy ResultTable

from .errors import Infeasible, InvalidArgument, from_json

# Each handler imports the modules it runs, so that a process loads only its
# subcommand's code, and a JSON input is refused before numpy is imported.


def _sanitize(value):
    """Strict JSON has no Infinity/NaN literals; encode them as strings."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _dumps(payload: dict) -> str:
    return json.dumps(_sanitize(payload), indent=2, sort_keys=True, allow_nan=False)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InvalidArgument(f"file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidArgument(f"invalid JSON in {path}: {exc}") from exc


def _int(text: str) -> int:
    """An integer flag's argparse type, which refuses an integer beyond float
    range; argparse names the flag."""
    try:
        value = int(text)
        float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    except OverflowError:
        raise argparse.ArgumentTypeError(f"out of range, got {text}") from None
    return value


def _given(**options) -> dict:
    """The options set on the command line; the library defaults the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _cmd_calc_horizon(args) -> str:
    from . import horizon

    params = horizon.HorizonParams(n=args.n, delta2=args.delta2, epsilon=args.epsilon, eta=args.eta)
    h_full = horizon.critical_horizon(params)
    payload = {
        "h_crit": h_full,
        "h_crit_simplified": horizon.critical_horizon_simplified(args.n, args.delta2, args.eta),
        "sample_lb_at": {},
    }
    gaps = {"floor_h_crit": math.floor(h_full), "ceil_h_crit_plus_1": math.ceil(h_full) + 1}
    if args.gap is not None:
        gaps["requested_gap"] = args.gap
    for label, gap in gaps.items():
        bound = horizon.sample_lb(params, gap)
        payload["sample_lb_at"][label] = {"gap": gap, "bound": bound.bound, "regime": bound.regime}
    if args.eta_g is not None:
        payload["h_crit_noisy_outcome"] = horizon.noisy_outcome_adjust(params, args.eta_g)
    return _dumps(payload)


def _cmd_calc_width(args) -> str:
    from . import width

    params = width.WidthParams(W=args.W, rho=args.rho, **_given(value=args.value))
    payload = {
        "w_eff": width.effective_width(params.W, params.rho),
        "variance": width.correlated_variance(params.value, params.W, params.rho),
        "variance_iid": width.estimator_variance_iid(params.value, params.W),
        "saturation_cap": (1.0 / params.rho) if params.rho > 0 else math.inf,
    }
    return _dumps(payload)


def _cmd_calc_contraction(args) -> str:
    from .schema import KernelFile

    file = KernelFile.from_json_dict(_load_json(args.kernel_file))
    from . import contraction
    from .markov import Kernel

    report = contraction.contraction_report(
        Kernel.from_file(file), **_given(trials=args.trials, seed=args.seed)
    )
    return _dumps(report.to_json_dict())


def _cmd_calc_objectives(args) -> str:
    from . import objectives

    point = objectives.ObjectivePoint(p=args.p, H=args.H, **_given(lam=args.lam))
    payload = {
        "j_add": objectives.j_add(point.p, point.H),
        "j_mult": objectives.j_mult(point.p, point.H),
        "grad_attenuation": objectives.grad_attenuation(point.p, point.H),
        "dj_add_dp": objectives.dj_add_dp(point.p, point.H),
        "dj_mult_dp": objectives.dj_mult_dp(point.p, point.H),
    }
    value, grad = objectives.j_interp(point.p, point.H, point.lam)
    payload["j_interp"] = {"lambda": point.lam, "value": value, "gradient": grad}
    if args.threshold is not None:
        payload["mostly_correct_but_wrong"] = objectives.mostly_correct_but_wrong_prob(
            point.p, point.H, args.threshold
        )
    return _dumps(payload)


def _cmd_calc_gamma(args) -> str:
    from .horizon import feasibility_threshold

    return _dumps({"gamma": feasibility_threshold(args.n, args.delta2, args.epsilon)})


def _cmd_schedule_uniform(args) -> str:
    from . import inspection

    report = {"--eta": args.eta, "--delta2": args.delta2, "--epsilon": args.epsilon}
    missing = [flag for flag, value in report.items() if value is None]
    if missing and (len(missing) < len(report) or args.n is not None):
        raise InvalidArgument(
            "--eta, --delta2 and --epsilon go together, and --n needs them: "
            f"missing {', '.join(missing)}"
        )
    schedule = inspection.uniform_schedule(args.H, args.m)
    payload: dict = {"times": list(schedule.times), "max_gap": inspection.maximal_gap(schedule)}
    if not missing:
        segments = inspection.segment_report(schedule, args.eta, args.delta2, args.epsilon)
        worst = inspection.worst_segment(segments).worst_step_sample_lb
        payload["segments"] = [s.to_json_dict() for s in segments]
        payload["worst_sample_lb"] = worst
        payload["feasible"] = bool(args.n is not None and args.n >= worst)
    return _dumps(payload)


def _cmd_schedule_greedy(args) -> str:
    from . import inspection
    from .schema import EtasFile

    etas = from_json(EtasFile, _load_json(args.etas_file), "etas file").etas
    try:
        plan = inspection.design_procedure(
            horizon=len(etas), n=args.n, delta2=args.delta2, epsilon=args.epsilon,
            etas=etas, inspection_fidelity=args.eta_g,
        ).to_json_dict()
    except InvalidArgument as exc:  # refused in the plan's order, under the flag's name
        raise InvalidArgument(str(exc).replace("inspection_fidelity", "eta_g")) from None
    keys = ("times", "max_gap", "segments", "worst_sample_lb", "feasible", "gamma")
    payload = {key: plan[key] for key in keys}
    if args.eta_g is not None:
        payload["effective_gamma"] = inspection.segment_budget(plan["gamma"], args.eta_g)
    return _dumps(payload)


def _cmd_schedule_plan(args) -> str:
    from . import inspection

    config = inspection.PlanConfig.from_json_dict(_load_json(args.config))
    return _dumps(config.design().to_json_dict())


def emit_csv(table: chcalc.ResultTable, path: str | Path) -> None:
    """Write the table as UTF-8 CSV with LF endings and a header row."""
    Path(path).write_text(table.to_csv_string(), encoding="utf-8", newline="\n")


def _cmd_experiment_run(args) -> str:
    from .schema import ExperimentConfig

    cfg = ExperimentConfig.from_json_dict(_load_json(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():
        raise InvalidArgument(f"--out must name a file in an existing directory, got {args.out}")
    from . import experiments

    table = experiments.run_experiment(cfg)
    emit_csv(table, out)
    meta = out.with_name(out.stem + ".meta.json")
    meta.write_text(_dumps(table.metadata) + "\n", encoding="utf-8")
    return f"wrote {args.out} and {meta} ({len(table.rows)} rows)"


def _add_calc_parsers(subparsers) -> None:
    calc = subparsers.add_parser("calc", help="closed-form calculators")
    calc_sub = calc.add_subparsers(dest="calc_command", required=True)

    p = calc_sub.add_parser("horizon", help="critical horizon and sample bounds")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--delta2", type=float, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta-g", dest="eta_g", type=float, default=None)
    p.add_argument("--gap", type=_int, default=None)
    p.set_defaults(func=_cmd_calc_horizon)

    p = calc_sub.add_parser("width", help="effective width under correlation")
    p.add_argument("--W", type=_int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--value", type=float)
    p.set_defaults(func=_cmd_calc_width)

    p = calc_sub.add_parser("contraction", help="contraction coefficient bounds")
    p.add_argument("--kernel-file", dest="kernel_file", required=True)
    p.add_argument("--trials", type=_int)
    p.add_argument("--seed", type=_int)
    p.set_defaults(func=_cmd_calc_contraction)

    p = calc_sub.add_parser("objectives", help="additive vs multiplicative objectives")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--H", type=_int, required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=_cmd_calc_objectives)

    p = calc_sub.add_parser("gamma", help="per-segment information budget")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--delta2", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_calc_gamma)


def _add_schedule_parsers(subparsers) -> None:
    sched = subparsers.add_parser("schedule", help="inspection schedulers")
    sched_sub = sched.add_subparsers(dest="schedule_command", required=True)

    p = sched_sub.add_parser("uniform", help="minimax-uniform placement")
    p.add_argument("--H", type=_int, required=True)
    p.add_argument("--m", type=_int, required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--delta2", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--n", type=_int, default=None)
    p.set_defaults(func=_cmd_schedule_uniform)

    p = sched_sub.add_parser("greedy", help="greedy information-distance placement")
    p.add_argument("--etas-file", dest="etas_file", required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--delta2", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta-g", dest="eta_g", type=float, default=None)
    p.set_defaults(func=_cmd_schedule_greedy)

    p = sched_sub.add_parser("plan", help="full design procedure from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_schedule_plan)


def _add_experiment_parsers(subparsers) -> None:
    exp = subparsers.add_parser("experiment", help="Monte Carlo experiment harness")
    exp_sub = exp.add_subparsers(dest="experiment_command", required=True)

    p = exp_sub.add_parser("run", help="run one experiment config to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int, default=None)
    p.set_defaults(func=_cmd_experiment_run)


class _Parser(argparse.ArgumentParser):
    """Usage errors are refused inputs too: exit 1 with an ``error:`` line."""

    def error(self, message):
        raise InvalidArgument(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chcalc",
        description=(
            "Information limits on credit assignment in multi-stage Markov "
            "processes, and optimal intermediate-inspection schedules."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_calc_parsers(subparsers)
    _add_schedule_parsers(subparsers)
    _add_experiment_parsers(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        print(args.func(args))
    except Infeasible as exc:
        print(_dumps({"infeasible": True, "reason": exc.reason, "step": exc.step}))
        return 2
    except (InvalidArgument, OSError, OverflowError) as exc:
        # an OverflowError is a number too large for the arithmetic, such as a
        # count beyond 64 bits; integers beyond float range are refused earlier
        reason = f"a number is out of range: {exc}" if isinstance(exc, OverflowError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

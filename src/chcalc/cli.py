"""Command-line interface: calculators, schedulers, and the experiment runner.

Exit codes: 0 success, 1 precondition violation or usage error (message on
stderr), 2 infeasible design (structured JSON reason on stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import horizon, inspection, objectives, width
from .errors import Infeasible, InvalidArgument, from_json


def _sanitize(value):
    """Strict JSON has no Infinity/NaN literals; encode them as strings."""
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _print_json(payload: dict) -> None:
    print(json.dumps(_sanitize(payload), indent=2, sort_keys=True, allow_nan=False))


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise InvalidArgument(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidArgument(f"invalid JSON in {path}: {exc}") from exc


def _given(**options) -> dict:
    """The options set on the command line; the library defaults the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _cmd_calc_horizon(args) -> int:
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
        payload["sample_lb_at"][label] = {
            "gap": gap,
            "bound": bound.bound,
            "regime": bound.regime,
        }
    if args.eta_g is not None:
        payload["h_crit_noisy_outcome"] = horizon.noisy_outcome_adjust(params, args.eta_g)
    _print_json(payload)
    return 0


def _cmd_calc_width(args) -> int:
    params = width.WidthParams(W=args.W, rho=args.rho, **_given(value=args.value))
    payload = {
        "w_eff": width.effective_width(params.W, params.rho),
        "variance": width.correlated_variance(params.value, params.W, params.rho),
        "variance_iid": width.estimator_variance_iid(params.value, params.W),
        "saturation_cap": (1.0 / params.rho) if params.rho > 0 else math.inf,
    }
    _print_json(payload)
    return 0


def _cmd_calc_contraction(args) -> int:
    from . import contraction
    from .markov import Kernel

    kernel = Kernel.from_json_dict(_load_json(args.kernel_file))
    report = contraction.contraction_report(kernel, **_given(trials=args.trials, seed=args.seed))
    _print_json(report.to_json_dict())
    return 0


def _cmd_calc_objectives(args) -> int:
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
    _print_json(payload)
    return 0


def _cmd_calc_gamma(args) -> int:
    _print_json({"gamma": inspection.feasibility_threshold(args.n, args.delta2, args.epsilon)})
    return 0


def _cmd_schedule_uniform(args) -> int:
    schedule = inspection.uniform_schedule(args.H, args.m)
    payload: dict = {"times": list(schedule.times), "max_gap": inspection.maximal_gap(schedule)}
    if args.eta is not None and args.delta2 is not None and args.epsilon is not None:
        segments = inspection.segment_report(schedule, args.eta, args.delta2, args.epsilon)
        worst = inspection.worst_segment(segments).worst_step_sample_lb
        payload["segments"] = [s.to_json_dict() for s in segments]
        payload["worst_sample_lb"] = worst
        payload["feasible"] = bool(args.n is not None and args.n >= worst)
    _print_json(payload)
    return 0


@dataclasses.dataclass(frozen=True)
class _EtasFile:
    """The ``schedule greedy`` input {"etas": [...]}, one contraction rate per step."""

    etas: tuple[float, ...]


def _cmd_schedule_greedy(args) -> int:
    etas = from_json(_EtasFile, _load_json(args.etas_file), "etas file").etas
    plan = inspection.design_procedure(
        horizon=len(etas), n=args.n, delta2=args.delta2, epsilon=args.epsilon,
        etas=etas, inspection_fidelity=args.eta_g,
    ).to_json_dict()
    keys = ("times", "max_gap", "segments", "worst_sample_lb", "feasible", "gamma")
    payload = {key: plan[key] for key in keys}
    if args.eta_g is not None:
        payload["effective_gamma"] = inspection.segment_budget(plan["gamma"], args.eta_g)
    _print_json(payload)
    return 0


def _cmd_schedule_plan(args) -> int:
    config = inspection.PlanConfig.from_json_dict(_load_json(args.config))
    _print_json(config.design().to_json_dict())
    return 0


def emit_csv(table: experiments.ResultTable, path: str | Path) -> None:
    """Write the table as UTF-8 CSV with LF endings and a header row."""
    Path(path).write_text(table.to_csv_string(), encoding="utf-8", newline="\n")


def _meta_path(out: str | Path) -> Path:
    out = Path(out)
    return out.with_name(out.stem + ".meta.json")


def _cmd_experiment_run(args) -> int:
    from . import experiments

    cfg = experiments.ExperimentConfig.from_json_dict(_load_json(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    table = experiments.run_experiment(cfg)
    emit_csv(table, args.out)
    meta = _meta_path(args.out)
    meta.write_text(
        json.dumps(_sanitize(table.metadata), indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {args.out} and {meta} ({len(table.rows)} rows)")
    return 0


def _add_calc_parsers(subparsers) -> None:
    calc = subparsers.add_parser("calc", help="closed-form calculators")
    calc_sub = calc.add_subparsers(dest="calc_command", required=True)

    p = calc_sub.add_parser("horizon", help="critical horizon and sample bounds")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--delta2", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--eta-g", dest="eta_g", type=float, default=None)
    p.add_argument("--gap", type=int, default=None)
    p.set_defaults(func=_cmd_calc_horizon)

    p = calc_sub.add_parser("width", help="effective width under correlation")
    p.add_argument("--W", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--value", type=float)
    p.set_defaults(func=_cmd_calc_width)

    p = calc_sub.add_parser("contraction", help="contraction coefficient bounds")
    p.add_argument("--kernel-file", dest="kernel_file", required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_calc_contraction)

    p = calc_sub.add_parser("objectives", help="additive vs multiplicative objectives")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--threshold", type=float, default=None)
    p.set_defaults(func=_cmd_calc_objectives)

    p = calc_sub.add_parser("gamma", help="per-segment information budget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta2", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=_cmd_calc_gamma)


def _add_schedule_parsers(subparsers) -> None:
    sched = subparsers.add_parser("schedule", help="inspection schedulers")
    sched_sub = sched.add_subparsers(dest="schedule_command", required=True)

    p = sched_sub.add_parser("uniform", help="minimax-uniform placement")
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--delta2", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_schedule_uniform)

    p = sched_sub.add_parser("greedy", help="greedy information-distance placement")
    p.add_argument("--etas-file", dest="etas_file", required=True)
    p.add_argument("--n", type=int, required=True)
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
    p.add_argument("--seed", type=int, default=None)
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
        return args.func(args)
    except Infeasible as exc:
        _print_json({"infeasible": True, "reason": exc.reason, "step": exc.step})
        return 2
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

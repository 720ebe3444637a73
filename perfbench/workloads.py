"""The operations of one pass of each workload, as calls into chcalc.

chcalc is reached only through its public module functions. Each operation
runs inside the timed pass; its ``record`` turns the result into plain JSON
for the checker afterwards, outside the timing. ``span(name, **counts)`` is
either a tracer span or a no-op context, so the timed runs record nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from chcalc import cli, contraction, divergence, experiments, inspection, markov

import inputs

CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    name: str
    run: Callable[[Callable], Any]
    record: Callable[[Any], dict] = field(default=lambda result: {})


def _work_units(cfg: dict) -> dict:
    """Size of the sampled work of one config, for per-layer rates."""
    p, reps = cfg.get("params", {}), cfg.get("replicates", 1)
    kind = cfg["kind"]
    if kind == "width":
        return {"work": reps * p["groups"] * sum(p["widths"])}
    if kind == "inspection":
        return {"work": reps * p["H"] * 2 * p["trials"] * p["n_per_test"]}
    if kind == "horizon":
        return {"work": reps * len(p["etas"]) * (p["H"] + 1) * p["trials"] * p["obs_per_trial"]}
    if kind == "mismatch":
        return {"work": reps * p["chains"] * p["H"]}
    return {}


def experiment_op(name: str, cfg_dict: dict, out_dir: Path) -> Op:
    """Config through from_json_dict, run_experiment and emit_csv plus the
    JSON sidecar, as `chcalc experiment run` does."""
    csv_path = out_dir / f"{name}.csv"
    meta_path = out_dir / f"{name}.meta.json"
    kind = cfg_dict["kind"]

    def run(span):
        with span("experiments.validate"):
            cfg = experiments.ExperimentConfig.from_json_dict(cfg_dict)
        with span(f"experiments.{kind}", **_work_units(cfg_dict)):
            table = experiments.run_experiment(cfg)
        with span("experiments.emit") as counts:
            cli.emit_csv(table, csv_path)
            meta = json.dumps(table.metadata, indent=2, sort_keys=True) + "\n"
            meta_path.write_text(meta, encoding="utf-8")
            counts["bytes"] = csv_path.stat().st_size + len(meta.encode())

    def record(_):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        return {
            "config": cfg_dict,
            "csv": csv_path.read_text(encoding="utf-8"),
            "meta": {"kind": meta["kind"], "master_seed": meta["master_seed"]},
        }

    return Op(f"experiment.{name}", run, record)


def golden_ops(seed: int, index: int, out_dir: Path) -> list[Op]:
    seeds = inputs.golden_seeds(seed, index)
    ops = []
    for name in inputs.GOLDEN_NAMES:
        base = getattr(experiments, name) if name.startswith("GOLDEN_") else {"kind": "oracle"}
        cfg = {**base, "master_seed": seeds[name]}
        ops.append(experiment_op(name.lower(), cfg, out_dir))
    return ops


def sampling_ops(seed: int, index: int, out_dir: Path) -> list[Op]:
    return [
        experiment_op(cfg["kind"], cfg, out_dir)
        for cfg in inputs.sampling_configs(seed, index)
    ]


def _report_op(label: str, kernel: markov.Kernel, seed: int) -> Op:
    def run(span):
        with span(f"contraction.report_{label}") as counts:
            report = contraction.contraction_report(kernel, inputs.CONTRACTION_TRIALS, seed)
            counts["gap"] = report.gap
        return report

    def record(report):
        return {"kernel": label, "report": report.to_json_dict(), "rows": kernel.rows.tolist()}

    return Op(f"contraction.{label}", run, record)


def probe_op(seed: int, workload: str) -> Op:
    """One contraction report on mixture_kernel(0.8, 10), run after the
    timed passes of workloads that make no contraction calls of their own."""
    kernel = markov.mixture_kernel(inputs.MIXTURE_ETA, inputs.PROBE_STATES)
    return _report_op("probe", kernel, inputs.probe_seed(seed, workload))


def _plan_op(name: str, **kwargs) -> Op:
    def run(span):
        with span(f"inspection.{name}"):
            return inspection.design_procedure(**kwargs)

    return Op(f"inspection.{name}", run, lambda plan: {"plan": plan.to_json_dict()})


def design_ops(seed: int, index: int, out_dir: Path) -> list[Op]:
    inp = inputs.design_inputs(seed, index)
    kernels = {
        f"s{s}": markov.mixture_kernel(inputs.MIXTURE_ETA, s) for s in (5, 10, 30)
    }
    kernels["rand"] = markov.Kernel(inp["rand_rows"])
    two_state = markov.two_state_kernel(inp["two_state_p"])
    ops = [_report_op(k, kernels[k], inp["contraction_seeds"][k]) for k in inputs.CONTRACTION_KERNELS]
    ops.append(_report_op("two_state", two_state, inp["two_state_seed"]))

    all_kernels = {**kernels, "two_state": two_state}

    def bounds(span):
        with span("contraction.bounds"):
            return {
                k: [contraction.dobrushin_bound(kern), contraction.diversity_bound(kern)]
                for k, kern in all_kernels.items()
            }

    ops.append(Op("contraction.bounds", bounds, lambda b: {"bounds": b}))

    def decay(span):
        with span("divergence.decay_curve", propagations=2 * inputs.DECAY_H):
            size = inputs.DECAY_STATES
            spec = markov.ChainSpec(
                horizon=inputs.DECAY_H,
                kernels=markov.mixture_kernel(inp["decay_eta"], size),
                success_set=frozenset({0}),
                initial=markov.point_mass(0, size),
            )
            return divergence.decay_curve(
                spec, markov.point_mass(0, size), markov.uniform_dist(size), 0
            )

    ops.append(Op("divergence.decay_curve", decay, lambda c: {"chi2": [v for _, v in c.values]}))

    for h, p in inp["homog"].items():
        ops.append(_plan_op(f"plan_homog_{inputs.PLAN_HORIZONS[h]}", horizon=h, **p))
    for h, p in inp["hetero"].items():
        ops.append(
            _plan_op(
                f"plan_hetero_{inputs.PLAN_HORIZONS[h]}",
                horizon=h,
                n=p["n"],
                delta2=p["delta2"],
                epsilon=p["epsilon"],
                etas=p["etas"].tolist(),
            )
        )

    g = inp["greedy"]
    greedy_etas = g["etas"].tolist()

    def greedy(span):
        with span("inspection.greedy_1e5", steps=len(greedy_etas)):
            gamma = inspection.feasibility_threshold(g["n"], g["delta2"], g["epsilon"])
            return inspection.greedy_schedule(greedy_etas, gamma)

    ops.append(Op("inspection.greedy_1e5", greedy, lambda s: {"times": list(s.times)}))

    b = inp["budget"]

    def budget(span):
        with span("inspection.budget_scan_1e5"):
            return inspection.budget_optimize(
                inspection.BudgetParams(c_out=b["c_out"], c_insp=b["c_insp"]),
                b["H"], b["eta"], b["delta2"], b["epsilon"], n=b["n"],
            )

    ops.append(Op("inspection.budget_scan_1e5", budget, lambda r: {"scan": r.to_json_dict()}))

    sm = inp["small"]
    small_args = [
        dict(horizon=inputs.SMALL_PLAN_H, n=int(n), delta2=float(d), epsilon=sm["epsilon"], eta=float(e))
        for e, n, d in zip(sm["eta"], sm["n"], sm["delta2"])
    ]

    def small(span):
        with span("inspection.small_plans", plans=len(small_args)):
            return [inspection.design_procedure(**kw) for kw in small_args]

    def small_record(plans):
        return {
            "plans": [
                [p.h_crit, p.m_necessary, p.m_sufficient, p.max_gap, list(p.schedule.times),
                 p.worst_sample_lb, p.feasible]
                for p in plans
            ]
        }

    ops.append(Op("inspection.small_plans", small, small_record))
    return ops


# ---------------------------------------------------------------------------
# cli


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def cli_argvs(seed: int, index: int, out_dir: Path) -> dict[str, list[str]]:
    """argv (after `python -m chcalc`) of every CLI operation of a pass;
    writes the JSON input files into ``out_dir``."""
    inp = inputs.cli_inputs(seed, index)
    h, w, o, gm, u, gr = (inp[k] for k in ("horizon", "width", "objectives", "gamma", "uniform", "greedy"))
    ref = inp["refusals"]

    def f(name: str, data) -> str:
        return _write_json(out_dir / f"{name}.json", data)

    return {
        "calc_horizon": ["calc", "horizon", "--eta", repr(h["eta"]), "--delta2", repr(h["delta2"]),
                         "--n", str(h["n"]), "--epsilon", repr(h["epsilon"]),
                         "--eta-g", repr(h["eta_g"]), "--gap", str(h["gap"])],
        "calc_width": ["calc", "width", "--W", str(w["W"]), "--rho", repr(w["rho"]), "--value", repr(w["value"])],
        "calc_contraction": ["calc", "contraction", "--kernel-file", f("kernel", inp["contraction"]["kernel"]),
                             "--trials", str(inputs.CONTRACTION_TRIALS), "--seed", str(inp["contraction"]["seed"])],
        "calc_objectives": ["calc", "objectives", "--p", repr(o["p"]), "--H", str(o["H"]),
                            "--lambda", repr(o["lam"]), "--threshold", repr(o["threshold"])],
        "calc_gamma": ["calc", "gamma", "--n", str(gm["n"]), "--delta2", repr(gm["delta2"]),
                       "--epsilon", repr(gm["epsilon"])],
        "schedule_uniform": ["schedule", "uniform", "--H", str(u["H"]), "--m", str(u["m"]),
                             "--eta", repr(u["eta"]), "--delta2", repr(u["delta2"]),
                             "--epsilon", repr(u["epsilon"]), "--n", str(u["n"])],
        "schedule_greedy": ["schedule", "greedy", "--etas-file", f("etas", {"etas": gr["etas"]}),
                            "--n", str(gr["n"]), "--delta2", repr(gr["delta2"]),
                            "--epsilon", repr(gr["epsilon"])],
        "schedule_plan": ["schedule", "plan", "--config", f("plan", inp["plan"])],
        "experiment_run": ["experiment", "run", "--config", f("experiment", inp["experiment"]),
                           "--out", str(out_dir / "experiment.csv"), "--seed", str(inp["experiment_seed"])],
        "refuse_bad_width": ["calc", "width", "--W", str(ref["bad_width"]["W"]),
                             "--rho", repr(ref["bad_width"]["rho"])],
        "refuse_infeasible_plan": ["schedule", "plan", "--config", f("infeasible_plan", ref["infeasible_plan"])],
        "refuse_decay_float_h": ["experiment", "run", "--config", f("decay_float_h", ref["decay_float_h"]),
                                 "--out", str(out_dir / "refused.csv")],
        "refuse_plan_string_eta": ["schedule", "plan", "--config", f("plan_string_eta", ref["plan_string_eta"])],
        "refuse_kernel_without_rows": ["calc", "contraction", "--kernel-file",
                                       f("kernel_without_rows", ref["kernel_without_rows"])],
        "refuse_float_replicates": ["experiment", "run", "--config", f("float_replicates", ref["float_replicates"]),
                                    "--out", str(out_dir / "refused.csv")],
    }


def _child_env() -> dict:
    return {**os.environ, "CH_THREADS": str(inputs.THREADS["cli"])}


def cli_ops(seed: int, index: int, out_dir: Path) -> list[Op]:
    argvs = cli_argvs(seed, index, out_dir)
    env = _child_env()
    ops = []
    for name, _expect in inputs.CLI_OPS:
        argv = [sys.executable, "-m", "chcalc", *argvs[name]]
        span_name = "cli.refusal" if name.startswith("refuse_") else f"cli.{name}"

        def run(span, argv=argv, span_name=span_name):
            with span(span_name) as counts:
                proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
                counts["stdout_bytes"] = len(proc.stdout.encode())
            return proc

        def record(proc, name=name, argv=argv):
            rec = {"argv": argv[3:], "rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
            if name == "experiment_run" and proc.returncode == 0:
                rec["csv"] = (out_dir / "experiment.csv").read_text(encoding="utf-8")
                rec["meta"] = json.loads((out_dir / "experiment.meta.json").read_text(encoding="utf-8"))
            return rec

        ops.append(Op(f"cli.{name}", run, record))
    return ops


def cli_probe_ops(seed: int, index: int, out_dir: Path) -> list[Op]:
    """Per-layer probes of the CLI, run only in the traced run: a fresh
    interpreter importing chcalc.cli, then each successful argv parsed and
    run in-process with stdout captured."""
    argvs = cli_argvs(seed, index, out_dir)
    ok = [argvs[name] for name, expect in inputs.CLI_OPS if expect == "ok"]
    env = _child_env()

    def import_probe(span):
        with span("cli.import"):
            proc = subprocess.run([sys.executable, "-c", "import chcalc.cli"], env=env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import chcalc.cli failed: {proc.stderr[-500:]}")

    def parse(span):
        for argv in ok:
            with span("cli.parse"):
                cli.build_parser().parse_args(argv)

    def inproc(span):
        codes = []
        for argv in ok:
            with span("cli.inproc"), contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        if any(codes):
            raise RuntimeError(f"in-process cli.main exit codes {codes}")

    return [Op("cli.import_probe", import_probe), Op("cli.parse_probe", parse), Op("cli.inproc_probe", inproc)]


OPS = {"golden": golden_ops, "sampling": sampling_ops, "design": design_ops, "cli": cli_ops}

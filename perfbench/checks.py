"""Pass/fail accounting and output checks for the records a worker returns.

An operation *fails* when the program errs in kind: it raises, a child
process shows a traceback or hangs, or a CLI call ends with another exit
status than the one its input calls for. Every operation that did not fail
has its output checked against ``reference`` (computed without chcalc) or
against a property the method must have; any mismatch makes the run
incorrect.

Sampled columns are checked against exact values with bands whose summed
false-alarm probability over the whole run is ``FAMILY_ALPHA``: each band
declares how many tail events it spends, and the run's budget is split
evenly over all of them (Bonferroni).
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

import inputs
import reference as ref

FAMILY_ALPHA = 1e-3
EXACT_REL = 1e-9
CLOSED_FORM_REL = 1e-12


# ---------------------------------------------------------------------------
# accounting


def failure(rec: dict) -> str | None:
    """Why an operation failed, or None if it ran to a proper end."""
    if not rec["ok"]:
        return (rec.get("error") or "failed").strip().splitlines()[-1]
    if not rec["op"].startswith("cli.") or rec["op"].endswith("_probe"):
        return None
    expect = inputs.CLI_EXPECT[rec["op"][4:]]
    rc, stdout, stderr = rec["rc"], rec["stdout"], rec["stderr"]
    if "Traceback (most recent call last)" in stderr:
        return f"exit {rc} with a traceback: {stderr.strip().splitlines()[-1]}"
    if expect == "ok":
        return None if rc == 0 else f"exit {rc}, expected 0"
    if expect == "refuse1":
        if rc != 1:
            return f"exit {rc}, expected a refusal with exit 1"
        if not any(line.startswith("error:") for line in stderr.splitlines()):
            return "exit 1 without an `error:` line"
        return None
    if rc != 2:
        return f"exit {rc}, expected an infeasibility exit 2"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return "exit 2 without a JSON reason"
    if payload.get("infeasible") is not True or not isinstance(payload.get("reason"), str):
        return "exit 2 without a JSON reason"
    return None


# ---------------------------------------------------------------------------


class Checker:
    def __init__(self):
        self.problems: list[str] = []
        self.bands: list[tuple[int, object, str]] = []
        self.where = ""

    def fail(self, message: str) -> None:
        self.problems.append(f"{self.where}: {message}")

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def close(self, got, want, message: str, rel: float = EXACT_REL) -> None:
        got = float(got)
        if not abs(got - want) <= rel * max(1.0, abs(want)):
            self.fail(f"{message}: got {got!r}, want {want!r}")

    def band(self, events: int, fn) -> None:
        """Defer a sampled check; ``fn(alpha_per_event)`` returns a problem or None."""
        self.bands.append((events, fn, self.where))

    def finish(self) -> list[str]:
        total = sum(events for events, _, _ in self.bands)
        for _events, fn, where in self.bands:
            problem = fn(FAMILY_ALPHA / total)
            if problem:
                self.problems.append(f"{where}: {problem}")
        return self.problems


@functools.lru_cache(maxsize=None)
def _accept(n: int, p: float, alpha: float) -> tuple[int, int]:
    return ref.binom_acceptance(n, p, alpha)


def _count(fraction: float, n: int) -> int | None:
    """The whole count behind a sampled fraction, or None if it is not one."""
    count = round(fraction * n)
    return count if abs(count - fraction * n) <= 1e-6 * max(n, 1) else None


def _rows(text: str) -> list[dict]:
    """CSV rows as header -> cell text (cells never hold commas)."""
    header, *lines = text.rstrip("\n").split("\n")
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


# ---------------------------------------------------------------------------
# experiments


def check_decay(c: Checker, cfg: dict, rows: list[dict]) -> None:
    p = cfg["params"]
    etas, states, h = p.get("etas", [0.7, 0.8, 0.9, 0.95]), p.get("states", 10), p.get("H", 40)
    c.expect(len(rows) == len(etas) * (h + 1), f"{len(rows)} decay rows")
    c.expect(sorted({float(r["eta"]) for r in rows}) == sorted(etas), "decay etas differ from the config")
    for row in rows:
        d, eta = int(row["distance_to_end"]), float(row["eta"])
        want = ref.decay_chi2(eta, states, d)
        c.close(row["chi2_measured"], want, f"chi2 at eta={eta} d={d}")
        c.close(row["chi2_theory"], want, f"chi2 theory at eta={eta} d={d}")


def check_width(c: Checker, cfg: dict, rows: list[dict]) -> None:
    p = cfg["params"]
    rho, value, groups = p["rho"], p["value"], p["groups"]
    c.expect(len(rows) == cfg["replicates"] * len(p["widths"]), f"{len(rows)} width rows")
    for row in rows:
        w = int(row["W"])
        w_eff = ref.effective_width(w, rho)
        c.close(row["w_eff_theory"], w_eff, f"w_eff theory W={w}", CLOSED_FORM_REL)
        c.close(row["var_theory"], value * (1 - value) / w_eff, f"var theory W={w}", CLOSED_FORM_REL)
        got = {k: float(row[k]) for k in ("w_eff_empirical", "var_single_empirical", "var_group_mean_empirical")}
        if w == 1:
            c.expect(got["w_eff_empirical"] == 1.0, "w_eff at W=1 is not 1")
            c.expect(got["var_group_mean_empirical"] == got["var_single_empirical"], "W=1 variances differ")

        def band(alpha, w=w, got=got):
            bands = ref.width_band(w, rho, value, groups, ref.normal_z(alpha))
            cols = {"var_single_empirical": "var_single"}
            if w > 1:
                cols.update(var_group_mean_empirical="var_mean", w_eff_empirical="w_eff")
            for col, key in cols.items():
                lo, hi = bands[key]
                if not lo <= got[col] <= hi:
                    return f"W={w} {col}={got[col]!r} outside [{lo!r}, {hi!r}]"
            return None

        c.band(1 if w == 1 else 2, band)


def _downstream(times: list[int], h: int, t: int) -> int:
    return next((u for u in times if u > t), h) - t


def check_inspection(c: Checker, cfg: dict, rows: list[dict]) -> None:
    p = cfg["params"]
    h, states, eta, eps = p["H"], p["states"], p["eta"], p["epsilon"]
    n, trials = p["n_per_test"], p["trials"]
    q1 = 1.0 / states
    c.expect(len(rows) == cfg["replicates"] * len(p["schedules"]), f"{len(rows)} inspection rows")
    for row in rows:
        times = [int(t) for t in row["schedule"].split(";") if t]
        aug = [0, *times, h]
        lengths = [b - a for a, b in zip(aug, aug[1:])]
        gap = max(lengths)
        c.expect(int(row["max_gap"]) == gap, f"max_gap of {times}")
        c.expect(int(row["worst_step"]) == aug[lengths.index(gap)], f"worst_step of {times}")
        # The chain keeps fraction eta of the signal per step (identity weight eta).
        c.close(row["sample_lb_worst"], ref.sample_bound(eta * eta, states - 1, eps, gap), f"sample bound of {times}")
        dists = [_downstream(times, h, t) for t in range(h)]
        lecam = max(1.0 - abs(ref.mixture_hit_prob(eta, states, d) - q1) for d in dists)
        c.close(row["err_worst_lecam"], lecam, f"Le Cam error of {times}")
        measured = float(row["err_worst_measured"])

        def band(alpha, dists=dists, measured=measured, times=times):
            lo_best = hi_best = -1
            for d in dists:
                q0 = ref.mixture_hit_prob(eta, states, d)
                k = ref.midpoint_threshold(q0, q1, n)
                miss0 = ref.binom_range_prob(n, q0, 0, k)
                miss1 = ref.binom_range_prob(n, q1, k, n + 1)
                lo0, hi0 = _accept(trials, miss0, alpha)
                lo1, hi1 = _accept(trials, miss1, alpha)
                lo_best, hi_best = max(lo_best, lo0 + lo1), max(hi_best, hi0 + hi1)
            lo, hi = lo_best / trials, hi_best / trials
            if not lo - 1e-12 <= measured <= hi + 1e-12:
                return f"worst error {measured!r} of {times} outside [{lo!r}, {hi!r}]"
            return None

        c.band(2 * h, band)


def check_horizon(c: Checker, cfg: dict, rows: list[dict]) -> None:
    p = cfg["params"]
    h, states, etas, obs, trials, n = p["H"], p["states"], p["etas"], p["obs_per_trial"], p["trials"], p["n"]
    q1 = 1.0 / states
    c.expect(len(rows) == cfg["replicates"] * len(etas) * (h + 1), f"{len(rows)} horizon rows")
    for row in rows:
        eta, d = float(row["eta"]), int(row["distance"])
        q0 = ref.mixture_hit_prob(math.sqrt(eta), states, d)
        c.close(row["q0"], q0, f"q0 eta={eta} d={d}")
        c.close(row["q1"], q1, "q1")
        exact = ref.two_point_accuracy(float(row["q0"]), q1, obs)
        c.close(row["accuracy_exact"], exact, f"exact accuracy eta={eta} d={d}")
        c.close(row["h_crit_marker"], max(0.0, math.log(n * (states - 1)) / -math.log(eta)), f"marker eta={eta}")
        count = _count(float(row["accuracy_measured"]), trials)
        if count is None:
            c.fail(f"accuracy {row['accuracy_measured']} is not a count over {trials} trials")
            continue

        def band(alpha, exact=exact, count=count, eta=eta, d=d):
            lo, hi = _accept(trials, exact, alpha)
            return None if lo <= count <= hi else f"eta={eta} d={d} accuracy count {count} outside [{lo}, {hi}]"

        c.band(1, band)


def check_mismatch(c: Checker, cfg: dict, rows: list[dict]) -> None:
    p = cfg["params"]
    c.expect(len(rows) == cfg["replicates"], f"{len(rows)} mismatch rows")
    exact = ref.mostly_correct_but_wrong(p["p"], p["H"], p["threshold"])
    chains = p["chains"]
    for row in rows:
        c.close(row["fraction_exact"], exact, "exact mismatch fraction")
        c.close(row["standard_error"], math.sqrt(exact * (1 - exact) / chains), "standard error")
        count = _count(float(row["fraction_sampled"]), chains)
        if count is None:
            c.fail(f"fraction {row['fraction_sampled']} is not a count over {chains} chains")
            continue

        def band(alpha, count=count):
            lo, hi = _accept(chains, exact, alpha)
            return None if lo <= count <= hi else f"mismatch count {count} outside [{lo}, {hi}]"

        c.band(1, band)


def check_oracle(c: Checker, cfg: dict, rows: list[dict]) -> None:
    p = cfg.get("params", {})
    max_h, max_m, cases = p.get("max_H", 12), p.get("max_m", 4), p.get("greedy_cases", 50)
    gap_rows = [r for r in rows if r["check"] == "min_gap"]
    greedy_rows = [r for r in rows if r["check"] == "greedy"]
    c.expect(len(gap_rows) == sum(min(max_m, h - 1) + 1 for h in range(2, max_h + 1)), "min_gap row count")
    c.expect(len(greedy_rows) == cases, "greedy row count")
    for row in rows:
        c.expect(row["match"] == "1" and row["oracle_value"] == row["computed_value"], f"oracle mismatch {row}")
    for row in gap_rows:
        want = ref.min_gap(int(row["H"]), int(row["m"]))
        c.expect(int(row["computed_value"]) == want, f"min gap H={row['H']} m={row['m']} is not {want}")


EXPERIMENT_CHECKS = {
    "decay": check_decay,
    "width": check_width,
    "inspection": check_inspection,
    "horizon": check_horizon,
    "mismatch": check_mismatch,
    "oracle": check_oracle,
}


def check_experiment(c: Checker, rec: dict) -> None:
    cfg = rec["config"]
    c.expect(rec["meta"] == {"kind": cfg["kind"], "master_seed": cfg["master_seed"]}, f"sidecar {rec['meta']}")
    EXPERIMENT_CHECKS[cfg["kind"]](c, cfg, _rows(rec["csv"]))


# ---------------------------------------------------------------------------
# contraction


def check_report(c: Checker, report: dict, rows, want_rows, seed: int, two_state_p: float | None = None) -> None:
    rows = np.asarray(rows, dtype=float)
    c.expect(np.allclose(rows, want_rows, rtol=0, atol=1e-12), "kernel rows differ from the input")
    dob, div = ref.dobrushin_bound(rows), ref.diversity_bound(rows)
    c.close(report["dobrushin_bound"], dob, "Dobrushin bound", CLOSED_FORM_REL)
    c.close(report["dobrushin_alpha"], 1.0 - dob, "Dobrushin alpha", CLOSED_FORM_REL)
    c.close(report["diversity_bound"], div, "diversity bound", CLOSED_FORM_REL)
    lower = report["empirical_lower"]
    upper = min(report["dobrushin_bound"], report["diversity_bound"])
    c.expect(0.0 <= lower <= upper <= 1.0, f"order 0 <= {lower!r} <= {upper!r} <= 1 fails")
    c.close(report["gap"], upper - lower, "gap", CLOSED_FORM_REL)
    c.expect(report["trials"] == inputs.CONTRACTION_TRIALS and report["seed"] == seed, "trials or seed echo")
    if two_state_p is None:
        pair = ref.point_pair_ratio(rows)
        c.expect(lower >= pair * (1 - 1e-9), f"lower bound {lower!r} below the (delta_0, uniform) ratio {pair!r}")
    else:
        # here that pair attains the exact coefficient, so only the ceiling is checked
        exact = (1.0 - 2.0 * two_state_p) ** 2
        c.expect(lower <= exact * (1 + 1e-9), f"two-state lower {lower!r} above exact {exact!r}")
        c.close(report["exact"], exact, "two-state exact", CLOSED_FORM_REL)


def _design_kernel(inp: dict, label: str) -> tuple[np.ndarray, int, float | None]:
    if label == "two_state":
        p = inp["two_state_p"]
        return np.array([[1 - p, p], [p, 1 - p]]), inp["two_state_seed"], p
    if label == "rand":
        rows = inp["rand_rows"]
        return rows / rows.sum(axis=1, keepdims=True), inp["contraction_seeds"][label], None
    return inputs.mixture_rows(inputs.MIXTURE_ETA, int(label[1:])), inp["contraction_seeds"][label], None


# ---------------------------------------------------------------------------
# schedules and plans


def check_homog_plan(c: Checker, plan: dict, h: int, n: int, delta2: float, eps: float, eta: float) -> None:
    c.expect(plan["mode"] == "homogeneous", "mode")
    c.close(plan["gamma"], ref.log_gamma_budget(n, delta2, eps), "gamma", CLOSED_FORM_REL)
    h_crit = plan["h_crit"]
    c.close(h_crit, ref.critical_horizon(n, delta2, eps, eta), "h_crit", CLOSED_FORM_REL)
    m = plan["m_sufficient"]
    c.expect(plan["m_necessary"] == ref.m_necessary(h, h_crit), f"m_necessary {plan['m_necessary']}")
    c.expect(m == ref.m_sufficient(h, h_crit), f"m_sufficient {m}, want {ref.m_sufficient(h, h_crit)}")
    c.expect(plan["times"] == ref.uniform_times(h, m), "uniform times")
    aug = [0, *plan["times"], h]
    lengths = [b - a for a, b in zip(aug, aug[1:])]
    c.expect(max(lengths) <= h_crit, f"a segment of {max(lengths)} steps exceeds h_crit {h_crit!r}")
    c.expect(plan["max_gap"] == max(lengths) == ref.min_gap(h, m), "max_gap")
    c.expect([s["length"] for s in plan["segments"]] == lengths, "segment lengths")
    worst = ref.sample_bound(eta, delta2, eps, plan["max_gap"])
    c.close(plan["worst_sample_lb"], worst, "worst sample bound")
    c.expect(plan["feasible"] == (n >= plan["worst_sample_lb"]), "feasible flag")


def check_greedy_times(c: Checker, times: list[int], etas, gamma: float) -> list[float]:
    want = ref.farthest_reach(etas, gamma)
    c.expect(times == want, f"greedy m={len(times)}, farthest reach gives {len(want)}")
    infos = ref.segment_infos(etas, times)
    worst = max(infos)
    c.expect(worst <= gamma * (1 + 1e-12), f"a greedy segment carries {worst!r} above Gamma {gamma!r}")
    return infos


def check_hetero_plan(c: Checker, plan: dict, h: int, n: int, delta2: float, eps: float, etas) -> None:
    c.expect(plan["mode"] == "heterogeneous", "mode")
    c.close(plan["gamma"], ref.log_gamma_budget(n, delta2, eps), "gamma", CLOSED_FORM_REL)
    infos = check_greedy_times(c, plan["times"], etas, plan["gamma"])
    worst = (1.0 - eps) ** 2 * math.exp(max(infos)) / delta2
    c.close(plan["worst_sample_lb"], worst, "worst sample bound")
    c.expect(plan["feasible"] == (n >= plan["worst_sample_lb"]), "feasible flag")


def check_budget(c: Checker, scan: dict, b: dict) -> None:
    h = b["H"]
    logs = ref.log_budget_scan(b["c_out"], b["c_insp"], h, b["eta"], b["delta2"], b["epsilon"], min(h - 1, 10_000))
    best = float(logs.min())
    c.close(math.log(scan["budget_scan"]), best, "scanned minimum budget")
    c.expect(logs[scan["m_scan"]] <= best + 1e-9, f"m_scan {scan['m_scan']} is not a minimiser")
    h_crit = ref.critical_horizon(b["n"], b["delta2"], b["epsilon"], b["eta"])
    m_rule = ref.m_sufficient(h, h_crit)
    c.expect(scan["m_rule"] == m_rule, f"m_rule {scan['m_rule']}, want {m_rule}")
    c.close(math.log(scan["budget_rule"]), float(logs[m_rule]), "budget at m_rule")


def check_design(c: Checker, rec: dict, inp: dict) -> None:
    op = rec["op"]
    if op.startswith("contraction.") and op != "contraction.bounds":
        label = op.split(".", 1)[1]
        rows, seed, p = _design_kernel(inp, label)
        check_report(c, rec["report"], rec["rows"], rows, seed, p)
    elif op == "contraction.bounds":
        for label, (dob, div) in rec["bounds"].items():
            rows = _design_kernel(inp, label)[0]
            c.close(dob, ref.dobrushin_bound(rows), f"Dobrushin bound of {label}", CLOSED_FORM_REL)
            c.close(div, ref.diversity_bound(rows), f"diversity bound of {label}", CLOSED_FORM_REL)
    elif op == "divergence.decay_curve":
        got = np.asarray(rec["chi2"])
        d = np.arange(inputs.DECAY_H + 1)
        want = (inputs.DECAY_STATES - 1) * inp["decay_eta"] ** d
        c.expect(got.shape == want.shape, "decay curve length")
        if got.shape == want.shape:
            worst = float(np.max(np.abs(got - want) / np.maximum(1.0, want)))
            c.expect(worst <= 1e-9, f"decay chi2 off by {worst!r}")
    elif op.startswith("inspection.plan_homog_"):
        h = next(k for k, v in inputs.PLAN_HORIZONS.items() if op.endswith(v))
        p = inp["homog"][h]
        check_homog_plan(c, rec["plan"], h, p["n"], p["delta2"], p["epsilon"], p["eta"])
    elif op.startswith("inspection.plan_hetero_"):
        h = next(k for k, v in inputs.PLAN_HORIZONS.items() if op.endswith(v))
        p = inp["hetero"][h]
        check_hetero_plan(c, rec["plan"], h, p["n"], p["delta2"], p["epsilon"], p["etas"].tolist())
    elif op == "inspection.greedy_1e5":
        g = inp["greedy"]
        check_greedy_times(c, rec["times"], g["etas"].tolist(), ref.log_gamma_budget(g["n"], g["delta2"], g["epsilon"]))
    elif op == "inspection.budget_scan_1e5":
        check_budget(c, rec["scan"], inp["budget"])
    elif op == "inspection.small_plans":
        sm = inp["small"]
        c.expect(len(rec["plans"]) == inputs.SMALL_PLANS, "small plan count")
        h = inputs.SMALL_PLAN_H
        for (h_crit, m_nec, m_suf, gap, times, worst, feasible), eta, n, delta2 in zip(
            rec["plans"], sm["eta"], sm["n"], sm["delta2"]
        ):
            c.close(h_crit, ref.critical_horizon(int(n), delta2, sm["epsilon"], eta), "small h_crit", CLOSED_FORM_REL)
            ok = (
                m_nec == ref.m_necessary(h, h_crit)
                and m_suf == ref.m_sufficient(h, h_crit)
                and times == ref.uniform_times(h, m_suf)
                and gap == ref.min_gap(h, m_suf) <= h_crit
                and feasible == (n >= worst)
            )
            c.expect(ok, f"small plan eta={eta!r} n={n} delta2={delta2!r}: m={m_suf} gap={gap}")
            c.close(worst, ref.sample_bound(eta, delta2, sm["epsilon"], gap), "small plan sample bound")
    else:
        c.fail(f"unknown design operation {op}")


# ---------------------------------------------------------------------------
# cli


def check_cli(c: Checker, rec: dict, inp: dict) -> None:
    name = rec["op"][4:]
    if inputs.CLI_EXPECT[name] != "ok":
        return
    if name == "experiment_run":
        cfg = {**inp["experiment"], "master_seed": inp["experiment_seed"]}
        c.expect(rec["stdout"].startswith("wrote ") and rec["stdout"].rstrip().endswith(
            f"({len(_rows(rec['csv']))} rows)"), f"stdout {rec['stdout']!r}")
        c.expect(rec["meta"]["master_seed"] == cfg["master_seed"], "sidecar master_seed")
        check_decay(c, cfg, _rows(rec["csv"]))
        return
    out = json.loads(rec["stdout"])
    if name == "calc_horizon":
        p = inp["horizon"]
        eta, delta2, n, eps = p["eta"], p["delta2"], p["n"], p["epsilon"]
        h = ref.critical_horizon(n, delta2, eps, eta)
        c.close(out["h_crit"], h, "h_crit", CLOSED_FORM_REL)
        c.close(out["h_crit_simplified"], math.log(n * delta2) / -math.log(eta), "h_crit_simplified", CLOSED_FORM_REL)
        c.close(out["h_crit_noisy_outcome"], h - math.log(1 / p["eta_g"]) / math.log(1 / eta), "noisy h_crit",
                CLOSED_FORM_REL)
        h = out["h_crit"]
        gaps = {"floor_h_crit": math.floor(h), "ceil_h_crit_plus_1": math.ceil(h) + 1, "requested_gap": p["gap"]}
        c.expect(set(out["sample_lb_at"]) == set(gaps), "sample_lb_at keys")
        for label, gap in gaps.items():
            got = out["sample_lb_at"].get(label, {})
            c.expect(got.get("gap") == gap, f"{label} gap")
            c.close(got.get("bound", math.nan), ref.sample_bound(eta, delta2, eps, gap), f"{label} bound")
            regime = "DECAYED" if eta**gap * delta2 <= 1 else "SEPARATED"
            c.expect(got.get("regime") == regime, f"{label} regime")
    elif name == "calc_width":
        p = inp["width"]
        w_eff = ref.effective_width(p["W"], p["rho"])
        v = p["value"]
        c.close(out["w_eff"], w_eff, "w_eff", CLOSED_FORM_REL)
        c.close(out["variance"], v * (1 - v) / w_eff, "variance", CLOSED_FORM_REL)
        c.close(out["variance_iid"], v * (1 - v) / p["W"], "variance_iid", CLOSED_FORM_REL)
        c.close(out["saturation_cap"], 1 / p["rho"], "saturation_cap", CLOSED_FORM_REL)
    elif name == "calc_contraction":
        k = inp["contraction"]
        check_report(c, out, k["kernel"]["rows"], np.asarray(k["kernel"]["rows"]), k["seed"])
    elif name == "calc_objectives":
        p = inp["objectives"]
        pr, h, lam = p["p"], p["H"], p["lam"]
        c.close(out["j_add"], h * pr, "j_add")
        c.close(out["j_mult"], pr**h, "j_mult")
        c.close(out["grad_attenuation"], pr ** (h - 1), "grad_attenuation")
        c.close(out["dj_add_dp"], h, "dj_add_dp")
        c.close(out["dj_mult_dp"], h * pr ** (h - 1), "dj_mult_dp")
        c.close(out["j_interp"]["value"], (1 - lam) * h * pr + lam * pr**h, "j_interp value")
        c.close(out["j_interp"]["gradient"], (1 - lam) * h + lam * h * pr ** (h - 1), "j_interp gradient")
        c.close(out["mostly_correct_but_wrong"], ref.mostly_correct_but_wrong(pr, h, p["threshold"]), "mismatch")
    elif name == "calc_gamma":
        p = inp["gamma"]
        c.close(out["gamma"], ref.log_gamma_budget(p["n"], p["delta2"], p["epsilon"]), "gamma", CLOSED_FORM_REL)
    elif name == "schedule_uniform":
        p = inp["uniform"]
        h, m = p["H"], p["m"]
        c.expect(out["times"] == ref.uniform_times(h, m), "uniform times")
        c.expect(out["max_gap"] == ref.min_gap(h, m), "uniform max_gap")
        aug = [0, *out["times"], h]
        c.expect([s["length"] for s in out["segments"]] == [b - a for a, b in zip(aug, aug[1:])], "segments")
        worst = ref.sample_bound(p["eta"], p["delta2"], p["epsilon"], out["max_gap"])
        c.close(out["worst_sample_lb"], worst, "worst sample bound")
        c.expect(out["feasible"] == (p["n"] >= out["worst_sample_lb"]), "feasible flag")
    elif name == "schedule_greedy":
        p = inp["greedy"]
        c.close(out["gamma"], ref.log_gamma_budget(p["n"], p["delta2"], p["epsilon"]), "gamma", CLOSED_FORM_REL)
        infos = check_greedy_times(c, out["times"], p["etas"], out["gamma"])
        c.close(out["worst_sample_lb"], (1 - p["epsilon"]) ** 2 * math.exp(max(infos)) / p["delta2"], "worst bound")
        c.expect(out["feasible"] == (p["n"] >= out["worst_sample_lb"]), "feasible flag")
    elif name == "schedule_plan":
        p = inp["plan"]
        check_homog_plan(c, out, p["H"], p["n"], p["delta2"], p["epsilon"], p["eta"])
        per = p["budget"]["c_out"] + out["m_sufficient"] * p["budget"]["c_insp"]
        c.close(out["per_trajectory_cost"], per, "per-trajectory cost")
        c.close(out["budget_required"], per * out["worst_sample_lb"], "budget required")
        c.close(out["planned_cost"], per * p["n"], "planned cost")


# ---------------------------------------------------------------------------


def check_run(result: dict, seed: int) -> dict:
    """Count attempted and failed operations and check every output."""
    c = Checker()
    passes = list(result["passes"])
    for extra in ("thread_reference", "contraction_probe"):
        if extra in result:
            passes.append(result[extra])
    attempted = failed = 0
    failures: list[str] = []
    cache: dict = {}
    for p in passes:
        for rec in p["records"]:
            attempted += 1
            c.where = f"{p['workload']}[{p['index']}] {rec['op']}"
            why = failure(rec)
            if why:
                failed += 1
                failures.append(f"{c.where}: {why}")
                continue
            if p["mode"] == "reference":
                continue  # compared byte for byte below
            try:
                _check_record(c, rec, p, seed, cache)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                c.fail(f"malformed output: {exc!r}")
    if "thread_reference" in result:
        first = next(p for p in result["passes"] if p["index"] == result["thread_reference"]["index"])
        for two, one in zip(first["records"], result["thread_reference"]["records"]):
            c.where = f"sampling[{first['index']}] {two['op']}"
            c.expect(two.get("csv") == one.get("csv"), "CSV at CH_THREADS=2 differs from CH_THREADS=1")
    problems = c.finish()
    return {"attempted": attempted, "failed": failed, "failures": failures, "problems": problems}


def _check_record(c: Checker, rec: dict, p: dict, seed: int, cache: dict) -> None:
    op, workload, index = rec["op"], p["workload"], p["index"]
    if op.endswith("_probe"):
        return
    if op == "contraction.probe":
        rows = inputs.mixture_rows(inputs.MIXTURE_ETA, inputs.PROBE_STATES)
        check_report(c, rec["report"], rec["rows"], rows, inputs.probe_seed(seed, workload))
    elif op.startswith("experiment."):
        check_experiment(c, rec)
    elif workload == "design":
        key = ("design", index)
        if key not in cache:
            cache.clear()
            cache[key] = inputs.design_inputs(seed, index)
        check_design(c, rec, cache[key])
    elif workload == "cli":
        check_cli(c, rec, inputs.cli_inputs(seed, index))
    else:
        c.fail(f"no check for {op}")


GAP_OPS = {f"contraction.{k}" for k in inputs.CONTRACTION_KERNELS} | {"contraction.probe", "cli.calc_contraction"}


def contraction_gap(result: dict) -> float:
    """Mean unresolved bracket over the run's contraction reports."""
    gaps = []
    for p in [*result["passes"], result.get("contraction_probe", {"records": []})]:
        for rec in p["records"]:
            if rec["op"] in GAP_OPS and rec["ok"]:
                report = rec["report"] if "report" in rec else json.loads(rec["stdout"])
                gaps.append(report["gap"])
    return float(np.mean(gaps))

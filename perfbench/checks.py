"""Checks of each workload's CSV output against reference computations and
properties the method must have.  Each check returns a list of problems;
an empty list means the output is correct.
"""
from __future__ import annotations

import csv
import io

import numpy as np

import reference as ref

# reference Monte Carlo sizes
N_REF = 10_000  # per participation estimate compared with the program's
N_FRESH = 100_000  # fresh draws for the design's chance constraints

# salts that keep the reference generators apart from each other
SALT_VT, SALT_SWEEP, SALT_COMPARE, SALT_FRESH = 1, 2, 3, 4


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text, newline="")))


def _num(row, key):
    return None if row[key] == "" else float(row[key])


def _probs(row, n_f):
    return np.array([float(row[f"success_prob_{i + 1}"]) for i in range(n_f)])


def _design(row, n_f):
    return {
        "p": [float(row[f"p_{i + 1}"]) for i in range(n_f)],
        "p_leader": float(row["p_leader"]),
        "beta": float(row["beta"]),
        "v": float(row["v"]),
    }


class Context:
    """Scenario, seed and the reference loss-model constants of one run."""

    def __init__(self, scenario: dict, seed: int):
        self.scenario = scenario
        self.seed = seed
        self.n_f = scenario["n_followers"]
        self.mu, self.lipschitz_u, self.s0, self.counts = ref.curvature(scenario)

    def rng(self, *salt):
        return np.random.default_rng([self.seed, *salt])

    def check_round(self, where, predicted, probs, ratio, problems):
        """predicted must equal the round formula at probs; an unrounded value
        within 1e-9 of an integer may round either way."""
        expect, raw = ref.round_formula(probs, self.counts, self.mu, self.lipschitz_u, ratio)
        if expect is None:
            ok = predicted >= 10**6  # the program's cap for "never converges"
        else:
            edge = abs(raw - round(raw)) < 1e-9
            ok = predicted == expect or (edge and abs(predicted - expect) <= 1)
        if not ok:
            problems.append(f"{where}: predicted_round {predicted} != formula {expect} ({raw:.6f})")

    def check_probs(self, where, probs, design, rng, sigma2=None, bandwidth=None, problems=None):
        """Row probabilities vs an independent reference Monte Carlo."""
        n_prog = self.scenario["n_success_samples"]
        ref_probs, _, _ = ref.participation(self.scenario, design, N_REF, rng, sigma2, bandwidth)
        tol = ref.binomial_tol(0.5 * (probs + ref_probs), n_prog, N_REF)
        bad = np.abs(probs - ref_probs) > tol
        if bad.any():
            problems.append(
                f"{where}: success probs {probs[bad].tolist()} vs reference {ref_probs[bad].tolist()}"
                f" beyond tolerance {tol[bad].tolist()}"
            )

    def check_design_box(self, where, design, problems):
        p_max, v_max = self.scenario["p_max"], self.scenario["flight"]["v_max"]
        powers = np.array(design["p"] + [design["p_leader"]])
        if not (np.all(powers > 0.0) and np.all(powers <= p_max)
                and 0.0 < design["beta"] < 1.0 and 0.0 < design["v"] <= v_max):
            problems.append(f"{where}: design {design} outside its box")


def _close(a, b, rel=1e-7):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _prediction_tracks_simulation(where, row, problems):
    pred, emp = int(row["predicted_round"]), _num(row, "empirical_mean")
    if emp is None:
        problems.append(f"{where}: no run reached the target")
        return
    if not (abs(pred - emp) <= 0.05 * pred or (pred < 20 and abs(pred - emp) <= 1.0)):
        problems.append(f"{where}: predicted {pred} vs empirical mean {emp}")


def _monotone(where, values, direction, problems):
    """direction +1: non-decreasing; -1: non-increasing (None entries fail)."""
    if any(v is None for v in values):
        problems.append(f"{where}: missing values {values}")
        return
    steps = np.diff(np.asarray(values, dtype=float)) * direction
    if np.any(steps < 0):
        problems.append(f"{where}: not monotone ({'up' if direction > 0 else 'down'}): {values}")


def check_validate_theorem(ctx: Context, rows, problems):
    sc = ctx.scenario
    fracs = [float(r["epsilon_frac"]) for r in rows]
    if fracs != [float(f) for f in sc["epsilon_fracs"]]:
        problems.append(f"validate-theorem: loss targets {fracs}")
        return
    probs = _probs(rows[0], ctx.n_f)
    ctx.check_probs("validate-theorem", probs, _design(rows[0], ctx.n_f), ctx.rng(SALT_VT),
                    problems=problems)
    for r in rows:
        where = f"validate-theorem eps {r['epsilon_frac']}"
        frac = float(r["epsilon_frac"])
        if not np.array_equal(_probs(r, ctx.n_f), probs):
            problems.append(f"{where}: rows disagree on the success probabilities")
        if not _close(float(r["epsilon_sum"]), frac * ctx.s0):
            problems.append(f"{where}: epsilon_sum {r['epsilon_sum']} != {frac} * S0 {ctx.s0}")
        if int(r["mc_runs"]) != sc["mc_runs"]:
            problems.append(f"{where}: mc_runs {r['mc_runs']}")
        ctx.check_round(where, int(r["predicted_round"]), probs, frac, problems)
        _prediction_tracks_simulation(where, r, problems)
    _monotone("validate-theorem predicted vs target", [int(r["predicted_round"]) for r in rows], -1, problems)
    _monotone("validate-theorem empirical vs target", [_num(r, "empirical_mean") for r in rows], -1, problems)


def check_sweep_sigma(ctx: Context, rows, sigma2_grid, bw_grid, eps_frac, problems):
    cell = {(float(r["sigma2"]), float(r["bandwidth"])): r for r in rows}
    if sorted(cell) != sorted((s, b) for s in sigma2_grid for b in bw_grid) or len(rows) != len(cell):
        problems.append(f"sweep-sigma: grid {sorted(cell)}")
        return
    for k, ((s2, bw), r) in enumerate(sorted(cell.items())):
        where = f"sweep-sigma sigma2 {s2} bw {bw:g}"
        probs = _probs(r, ctx.n_f)
        ctx.check_probs(where, probs, _design(r, ctx.n_f), ctx.rng(SALT_SWEEP, k), s2, bw, problems)
        if float(r["epsilon_frac"]) != eps_frac or not _close(float(r["epsilon_sum"]), eps_frac * ctx.s0):
            problems.append(f"{where}: loss target {r['epsilon_frac']}, {r['epsilon_sum']}")
        ctx.check_round(where, int(r["predicted_round"]), probs, eps_frac, problems)
        _prediction_tracks_simulation(where, r, problems)
    for key in ("predicted_round", "empirical_mean"):
        for bw in bw_grid:
            _monotone(f"sweep-sigma {key} vs sigma2 at bw {bw:g}",
                      [_num(cell[(s2, bw)], key) for s2 in sigma2_grid], +1, problems)
        for s2 in sigma2_grid:
            _monotone(f"sweep-sigma {key} vs bandwidth at sigma2 {s2}",
                      [_num(cell[(s2, bw)], key) for bw in bw_grid], -1, problems)


def check_simulate(ctx: Context, rows, problems):
    sc = ctx.scenario
    frac = float(sc["epsilon_fracs"][0])
    target = frac * ctx.s0 / ctx.counts.sum()  # loss-gap target of the mean loss
    if [int(r["run"]) for r in rows] != list(range(sc["mc_runs"])):
        problems.append(f"simulate: {len(rows)} runs, expected {sc['mc_runs']}")
    for r in rows:
        where = f"simulate run {r['run']}"
        hit, executed = int(r["empirical_round"]), int(r["rounds_executed"])
        gap = float(r["final_loss_gap"])
        if hit >= 0 and not (gap <= target * (1 + 1e-8) and executed == hit):
            problems.append(f"{where}: converged at {hit} but gap {gap} > target {target} "
                            f"or ran {executed} rounds")
        if hit < 0 and not (executed == sc["max_rounds"] and gap > target * (1 - 1e-8)):
            problems.append(f"{where}: not converged but ran {executed} rounds to gap {gap}")
        rates = [float(r[f"participation_rate_{i + 1}"]) for i in range(ctx.n_f)]
        if not all(0.0 <= x <= 1.0 for x in rates):
            problems.append(f"{where}: participation rates {rates}")


def optimize_is_binding(rows) -> bool:
    """The dual loop met an active constraint: some multiplier left zero."""
    return any(r["record"] == "iteration" and float(r["lambda_norm"]) > 0.0 for r in rows)


def check_optimize(ctx: Context, rows, problems):
    sc = ctx.scenario
    results = [r for r in rows if r["record"] == "result"]
    iters = [r for r in rows if r["record"] == "iteration"]
    if len(results) != 1 or int(results[0]["iteration"]) != len(iters):
        problems.append(f"optimize: {len(results)} result rows, {len(iters)} iterations")
        return
    row = results[0]
    design = _design(row, ctx.n_f)
    ctx.check_design_box("optimize", design, problems)
    ratio = sc["saa"]["epsilon_opt_frac"]
    ctx.check_round("optimize", int(row["predicted_round"]), _probs(row, ctx.n_f), ratio, problems)
    problems.extend(fresh_chance_constraints(ctx, design))


def fresh_chance_constraints(ctx: Context, design):
    """The design's chance constraints on draws the solver never saw.

    Participation, energies and deadlines come from the reference model on
    N_FRESH new draws.  The round count phi charged against the energy
    budget is the formula at the largest probabilities within binomial
    tolerance of the fresh ones (the fewest rounds they support); each
    constraint's frequency must reach its required probability minus a
    binomial tolerance.
    """
    sc = ctx.scenario
    probs, t_up, t_dn = ref.participation(sc, design, N_FRESH, ctx.rng(SALT_FRESH))
    optimistic = np.minimum(probs + ref.binomial_tol(probs, N_FRESH), 1.0)
    phi, _ = ref.round_formula(optimistic, ctx.counts, ctx.mu, ctx.lipschitz_u,
                               sc["saa"]["epsilon_opt_frac"])
    if phi is None:
        return ["optimize: no follower ever participates on fresh draws"]
    budget = sc["energy_budget"]
    e_leader, e_followers = ref.round_energies(sc, design, t_up)
    rows = [("leader energy", float(phi * e_leader <= budget["e_bar"]), budget["xi_leader"])]
    follower_freq = (phi * e_followers <= budget["e_bar"]).mean(axis=0)
    control_freq = (t_dn <= np.asarray(sc["control"]["tau"])).mean(axis=0)
    rows += [(f"follower {i + 1} energy", f, budget["xi_follower"]) for i, f in enumerate(follower_freq)]
    rows += [(f"follower {i + 1} deadline", f, sc["control"]["xi_control"]) for i, f in enumerate(control_freq)]
    return [
        f"optimize: {name} holds on {freq:.4f} of fresh draws, needs {need}"
        for name, freq, need in rows
        if freq < need - ref.binomial_tol(need, N_FRESH)
    ]


def check_compare_designs(ctx: Context, rows, bw_grid, n_draws, problems):
    ratio = ctx.scenario["saa"]["epsilon_opt_frac"]
    by = {(float(r["bandwidth"]), r["design_kind"]): r for r in rows}
    kinds = ("joint", "power-only", "scheduling-only")
    if sorted(by) != sorted((bw, k) for bw in bw_grid for k in kinds) or len(rows) != len(by):
        problems.append(f"compare-designs: rows {sorted(by)}")
        return
    for k_bw, bw in enumerate(bw_grid):
        where = f"compare-designs bw {bw:g}"
        joint = by[(bw, "joint")]
        probs, design = _probs(joint, ctx.n_f), _design(joint, ctx.n_f)
        joint_round = float(joint["predicted_round_mean"])
        ctx.check_design_box(where, design, problems)
        ctx.check_probs(where, probs, design, ctx.rng(SALT_COMPARE, k_bw), bandwidth=bw, problems=problems)
        ctx.check_round(where, int(joint_round), probs, ratio, problems)
        for kind in kinds[1:]:
            base = by[(bw, kind)]
            mean = float(base["predicted_round_mean"])
            if int(base["n_draws"]) != n_draws:
                problems.append(f"{where} {kind}: {base['n_draws']} draws")
            if joint_round > mean:
                problems.append(f"{where}: joint {joint_round} rounds > {kind} mean {mean}")
            if not _close(float(base["reduction_vs_joint"]), (mean - joint_round) / mean, 1e-6):
                problems.append(f"{where} {kind}: reduction_vs_joint {base['reduction_vs_joint']}")

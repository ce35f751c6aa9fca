"""Reference computations for checking swarmfl's outputs.

Everything here is written from the model's formulas and reads the raw
scenario JSON; nothing imports swarmfl.  The benchmark compares the
program's CSV rows against these:

- ``participation``: a Monte Carlo of the link model with its own random
  generator: main-lobe gain cos^2(pi/2 * a) (g_min outside the lobe) at
  both ends of each link, unit-mean Rician power fading, path loss d^-alpha,
  on/off interferers, Shannon-rate delays and the beta*T_r / (1-beta)*T_r
  window test.
- ``flight_power``: the closed-form induced velocity of momentum theory.
- ``curvature``: mu and U from the eigenvalues of the pooled Gram matrix
  that the dataset spec pins, plus the initial loss sum S0.
- ``round_formula``: ceil(log(eps/S0) / log(1 - rho)).
"""
from __future__ import annotations

import math

import numpy as np

# Two independent estimates of one probability differ by more than this
# many standard deviations with chance below 1e-6.
Z_TOL = 5.0


def antenna_gain(angle, g_min):
    """cos^2(pi/2 * a) inside the main lobe |a| <= 1, g_min outside."""
    a = np.abs(angle)
    return np.where(a <= 1.0, np.cos(0.5 * np.pi * np.minimum(a, 1.0)) ** 2, g_min)


def rician_fading(rng, k_factor, shape):
    """Unit-mean Rician power gain: |sqrt(K/(K+1)) + CN(0, 1/(K+1))|^2."""
    los = math.sqrt(k_factor / (k_factor + 1.0))
    spread = math.sqrt(0.5 / (k_factor + 1.0))
    re = los + spread * rng.standard_normal(shape)
    im = spread * rng.standard_normal(shape)
    return re * re + im * im


def participation(scenario: dict, design: dict, n: int, rng: np.random.Generator,
                  sigma2: float | None = None, bandwidth: float | None = None):
    """Monte Carlo link delays and participation of every follower.

    design holds p (per follower), p_leader and beta.  sigma2 and bandwidth
    override the scenario's jitter variance and both link bandwidths.
    Returns (success frequency per follower, t_up, t_dn), delays (n, I) in s.
    """
    if scenario.get("use_sectionalized_gain", False):
        raise ValueError("the reference models the exact main-lobe gain only")
    n_f = scenario["n_followers"]
    dist = np.asarray(scenario["distances"], dtype=float)
    ant, radio = scenario["antenna"], scenario["radio"]
    s2 = ant["sigma2"] if sigma2 is None else sigma2
    bw_up = radio["bw_up"] if bandwidth is None else bandwidth
    bw_dn = radio["bw_down"] if bandwidth is None else bandwidth
    k, alpha = radio["rician_k"], radio["pathloss_exp"]
    round_time = scenario["round_time"]

    # orientation jitter: column 0 is the leader, 1..I the followers
    angle = ant["theta_init"] + math.sqrt(s2) * rng.standard_normal((n, n_f + 1))
    gain = antenna_gain(angle, ant["g_min"])
    link_gain = gain[:, 1:] * gain[:, :1]
    path = dist ** (-alpha)
    h_up = rician_fading(rng, k, (n, n_f))
    h_dn = rician_fading(rng, k, (n, n_f))

    interf_up = np.zeros(n)
    for it in scenario["uplink_interference"]:
        on = rng.random(n) < it["active_prob"]
        rx = it["power"] * it["distance"] ** (-alpha) * it["gain_product"]
        interf_up += on * rx * rician_fading(rng, k, n)
    interf_dn = np.zeros((n, n_f))
    for it in scenario["downlink_interference"]:
        on = rng.random(n) < it["active_prob"]
        rx = it["power"] * it["distance"] ** (-alpha) * it["gain_product"]
        interf_dn += on[:, None] * rx * rician_fading(rng, k, (n, n_f))

    p = np.asarray(design["p"], dtype=float)
    sinr_up = p * path * link_gain * h_up / (interf_up[:, None] + bw_up * radio["noise_psd"])
    sinr_dn = design["p_leader"] * path * link_gain * h_dn / (interf_dn + bw_dn * radio["noise_psd"])
    with np.errstate(divide="ignore"):
        t_up = radio["pkt_local"] / (bw_up * np.log2(1.0 + sinr_up))
        t_dn = radio["pkt_global"] / (bw_dn * np.log2(1.0 + sinr_dn))
    beta = design["beta"]
    ok = (t_up <= beta * round_time) & (t_dn <= (1.0 - beta) * round_time)
    return ok.mean(axis=0), t_up, t_dn


def binomial_tol(p, n_a: int, n_b: int | None = None):
    """Z_TOL standard deviations of a frequency over n_a draws, or of the
    difference of two independent frequencies over n_a and n_b draws,
    plus one draw's worth for discreteness."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    var = np.maximum(p * (1.0 - p), 1.0 / n_a)
    inv_n = 1.0 / n_a + (0.0 if n_b is None else 1.0 / n_b)
    return Z_TOL * np.sqrt(var * inv_n) + 1.0 / n_a


def induced_velocity(flight: dict, v):
    """Rotor downwash v_hat solving v_hat * sqrt(v^2 + v_hat^2) = rhs.

    rhs = 2 m g / (q r^2 pi rho).  The balance is quadratic in u = v_hat^2,
    u^2 + v^2 u - rhs^2 = 0, whose positive root is
    u = 2 rhs^2 / (v^2 + sqrt(v^4 + 4 rhs^2)).
    """
    rhs = 2.0 * flight["mass"] * flight["gravity"] / (
        flight["rotors"] * flight["rotor_diameter"] ** 2 * math.pi * flight["air_density"]
    )
    v2 = np.asarray(v, dtype=float) ** 2
    return np.sqrt(2.0 * rhs**2 / (v2 + np.sqrt(v2 * v2 + 4.0 * rhs**2)))


def flight_power(flight: dict, v):
    """Thrust times downwash over efficiency [W]."""
    thrust = flight["mass"] * flight["gravity"]
    return induced_velocity(flight, v) * thrust / flight["efficiency"]


def round_energies(scenario: dict, design: dict, t_up):
    """(leader, followers (n, I)) energy of one round [J].

    Leader: aggregation compute + transmitting the whole downlink window +
    flying the round.  Follower: local training compute + transmitting for
    its realized upload delay, capped at the uplink window + flying.
    """
    c = scenario["compute"]
    per_bit = c["kappa"] * c["cycles_per_bit"] * c["cpu_freq"] ** 2
    round_time = scenario["round_time"]
    beta = design["beta"]
    e_fly = float(flight_power(scenario["flight"], design["v"])) * round_time
    e_leader = (
        per_bit * scenario["radio"]["pkt_local"] * scenario["n_followers"]
        + design["p_leader"] * (1.0 - beta) * round_time
        + e_fly
    )
    ds = scenario["dataset"]
    e_train = per_bit * ds["sample_bits"] * ds["samples_per"]
    t_tx = np.minimum(t_up, beta * round_time)
    e_followers = e_train + np.asarray(design["p"], dtype=float) * t_tx + e_fly
    return e_leader, e_followers


def curvature(scenario: dict):
    """(mu, U, S0, counts) of the synthetic regression problem.

    With exact second moments the pooled feature Gram matrix X^T X / N is
    pinned to a diagonal target: nuisance coordinates at nuisance_scale^2,
    and each signal coordinate at the mean of its owner's signal_scale^2
    and the other I-1 followers' (owner_emphasis * signal_scale)^2.  The
    mean-loss Hessian is twice that matrix; mu and U are its extreme
    eigenvalues.  Labels are noise-free x.w with w zero on nuisance
    coordinates and w_scale on signal ones, so S0 = N w^T G w.
    """
    ds = scenario["dataset"]
    n_f = scenario["n_followers"]
    if not ds["exact_second_moments"] or ds["owner_emphasis"] is None or ds["noise_std"] != 0.0:
        raise ValueError("reference needs exact second moments, owner emphasis and no label noise")
    nuis, dim = ds["nuisance_dims"], ds["dim"]
    s2 = ds["signal_scale"] ** 2
    signal_moment = (s2 + (n_f - 1) * ds["owner_emphasis"] ** 2 * s2) / n_f
    target = np.array([ds["nuisance_scale"] ** 2] * nuis + [signal_moment] * (dim - nuis))
    gram = np.diag(target)
    eig = np.linalg.eigvalsh(2.0 * gram)
    w = np.array([0.0] * nuis + [ds["w_scale"]] * (dim - nuis))
    counts = np.full(n_f, float(ds["samples_per"]))
    s0 = counts.sum() * float(w @ gram @ w)
    return float(eig[0]), float(eig[-1]), s0, counts


def round_formula(probs, counts, mu: float, lipschitz_u: float, ratio: float):
    """Predicted rounds ceil(log(ratio) / log(1 - rho)) and the unrounded value.

    rho = sum_i N_i P_i mu / (N U); ratio = eps / S0.  Returns (None, inf)
    when rho is 0 and no finite count exists.
    """
    probs = np.asarray(probs, dtype=float)
    rho = float((counts * probs).sum()) * mu / (counts.sum() * lipschitz_u)
    if rho <= 0.0:
        return None, math.inf
    if ratio >= 1.0:
        return 0, 0.0
    raw = math.log(ratio) / math.log(1.0 - rho)
    return max(0, math.ceil(raw)), raw

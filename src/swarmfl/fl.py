"""Federated learning engine over lossy leader/follower links.

Followers hold local datasets, take one gradient step per round from the
newest global model they have received, and upload the result.  The leader
aggregates whatever arrives in time (count-weighted mean over participating
followers) and broadcasts the new global model.  A follower that misses a
round keeps training from its stale copy until a broadcast reaches it again.

The bundled loss model is linear regression with per-sample squared error
f(w, x, y) = (w.x - y)^2.  The global objective F is the mean of f over all
samples of all followers; per-follower gradients are unnormalized sums, and
the local step divides by the local sample count, so that under full
participation one round equals plain gradient descent on F.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "QuadraticLossModel",
    "make_regression_problem",
    "FlState",
    "aggregate_ideal",
    "aggregate_with_losses",
    "train_round",
    "run_fl",
]


@dataclass(frozen=True)
class Dataset:
    """Training samples held by one follower."""

    features: np.ndarray  # (count, dim)
    labels: np.ndarray  # (count,)

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be 1-d with one entry per feature row")


class QuadraticLossModel:
    """Linear regression with squared error, all moments precomputed.

    Per-follower gradients are unnormalized sums over the follower's
    samples; the global loss F carries the 1/N factor.  The per-follower
    gradient sum is affine, grad_i(w) = A_i w - b_i with A_i = 2 X_i^T X_i
    and b_i = 2 X_i^T y_i, so the curvature constants (strong convexity
    strong_mu, smoothness lipschitz_u) come from the eigenvalues of the
    pooled mean Hessian H = sum(A_i)/N.  The gradient-diversity constants
    (zeta1, zeta2) feed only diagnostic bounds.
    """

    def __init__(self, datasets: list[Dataset], *, zeta_seed: int = 0):
        if not datasets:
            raise ValueError("need at least one dataset")
        dims = {d.dim for d in datasets}
        if len(dims) != 1:
            raise ValueError("all followers must share the feature dimension")
        self.datasets = list(datasets)
        self.dim = dims.pop()
        self.counts = np.array([d.count for d in datasets], dtype=int)
        self._a = np.stack([2.0 * d.features.T @ d.features for d in datasets])  # (I, dim, dim)
        self._b = np.stack([2.0 * d.features.T @ d.labels for d in datasets])  # (I, dim)
        self._x = np.vstack([d.features for d in datasets])  # (N, dim) pooled samples
        self._y = np.concatenate([d.labels for d in datasets])
        n = self.n_total
        hessian = sum(self._a) / n
        eigvals = np.linalg.eigvalsh(hessian)
        if eigvals[0] <= 1e-12 * max(eigvals[-1], 1.0):
            raise ValueError("pooled Gram matrix is singular; add samples or reduce dim")
        self.strong_mu = float(eigvals[0])
        self.lipschitz_u = float(eigvals[-1])
        self.w_star = np.linalg.solve(hessian, sum(self._b) / n)
        self.f_star = self.global_loss(self.w_star)
        self.zeta1, self.zeta2 = self._fit_gradient_diversity(zeta_seed)

    @property
    def n_followers(self) -> int:
        return len(self.counts)

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    def follower_grad_sum(self, i: int, w: np.ndarray) -> np.ndarray:
        """Sum of sample gradients of follower i at w."""
        return self._a[i] @ w - self._b[i]

    def total_loss_sum(self, w: np.ndarray) -> float:
        """Sum of all sample losses at w, added up follower by follower."""
        return sum(float(r @ r) for r in (d.features @ w - d.labels for d in self.datasets))

    def global_loss(self, w: np.ndarray) -> float:
        """F(w): mean loss over all samples of all followers."""
        return self.total_loss_sum(w) / self.n_total

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        """Gradient of the mean loss F."""
        grads = sum(self.follower_grad_sum(i, w) for i in range(self.n_followers))
        return grads / self.n_total

    def follower_grad_sums(self, ws: np.ndarray) -> np.ndarray:
        """Gradient sum of every follower at its own row: ws (..., I, dim) -> (..., I, dim)."""
        return np.einsum("iab,...ib->...ia", self._a, ws) - self._b

    def global_losses(self, ws: np.ndarray) -> np.ndarray:
        """F at each row of ws, shape (R, dim) -> (R,), from one pooled residual product."""
        resid = self._x @ ws.T - self._y[:, None]
        return np.einsum("nr,nr->r", resid, resid) / self.n_total

    def _fit_gradient_diversity(self, seed: int) -> tuple[float, float]:
        """Smallest (zeta1, zeta2) with max_i |grad_i|^2 <= zeta1 + zeta2 |grad F|^2
        on a sample of points around the optimum.

        Points are drawn uniformly from the ball centered at w* of radius
        3 |w*|, three times the distance of the zero start; the optimum
        itself is included so the intercept covers the residual gradient
        diversity there.  zeta2 >= 1 and zeta1 >= 0 by construction.
        """
        rng = np.random.default_rng(seed)
        radius = 3.0 * float(np.linalg.norm(self.w_star))
        if radius == 0.0:
            radius = 1.0
        n_pts = 1000
        directions = rng.standard_normal((n_pts, self.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = radius * rng.random(n_pts) ** (1.0 / self.dim)
        points = self.w_star + directions * radii[:, None]
        points = np.vstack([points, self.w_star])

        per_follower = (len(points), self.n_followers, self.dim)
        grads = self.follower_grad_sums(np.broadcast_to(points[:, None, :], per_follower))
        max_sq = np.einsum("sia,sia->si", grads, grads).max(axis=1)
        g_glob = grads.sum(axis=1) / self.n_total
        glob_sq = np.einsum("sa,sa->s", g_glob, g_glob)
        at_opt = max_sq[-1]  # the last point is w* itself
        pos = glob_sq > 1e-18
        zeta2 = max(1.0, float(np.max((max_sq[pos] - at_opt) / glob_sq[pos])))
        zeta1 = max(at_opt, float(np.max(max_sq - zeta2 * glob_sq)))
        return max(zeta1, 0.0), zeta2


def make_regression_problem(
    n_followers: int,
    samples_per: int,
    dim: int,
    rng_seed: int,
    *,
    noise_std: float = 0.0,
    feature_scales=None,
    nuisance_dims: int = 0,
    signal_scale: float = 1.0,
    owner_emphasis: float | None = None,
    nuisance_scale: float = 1.0,
    exact_second_moments: bool = False,
    w_scale: float = 1.0,
) -> tuple[list[Dataset], QuadraticLossModel]:
    """Synthetic linear-regression problem split across followers.

    Plain call: iid standard normal features (optionally scaled per
    coordinate by feature_scales) and a random unit ground-truth vector.

    With owner_emphasis set, the feature space splits into nuisance_dims
    shared coordinates (scale nuisance_scale, zero ground-truth weight) and
    dim - nuisance_dims signal coordinates assigned round-robin to
    followers: the owner draws that coordinate at signal_scale, everyone
    else at owner_emphasis * signal_scale, and the ground-truth weight is
    w_scale.  This concentrates each signal direction's curvature on one
    follower, so link failures of that follower throttle exactly that
    direction of progress.

    exact_second_moments rescales the pooled feature matrix so its second
    moment matrix equals the target exactly, which pins the loss curvature
    constants to their design values instead of leaving sampling noise in
    them.  Labels are produced after the rescaling, so the ground truth
    stays the exact minimizer and the optimal loss stays noise-only.
    """
    if samples_per < dim:
        raise ValueError("need samples_per >= dim for a nonsingular pooled Gram matrix")
    if feature_scales is not None and owner_emphasis is not None:
        raise ValueError("feature_scales and owner_emphasis are mutually exclusive")
    rng = np.random.default_rng(rng_seed)
    n_total = n_followers * samples_per

    if owner_emphasis is None:
        scales = np.ones(dim) if feature_scales is None else np.asarray(feature_scales, dtype=float)
        if scales.shape != (dim,):
            raise ValueError(f"feature_scales must have shape ({dim},)")
        scale_rows = np.tile(scales, (n_total, 1))
        w_true = rng.standard_normal(dim)
        w_true /= np.linalg.norm(w_true)
        target_moments = scales**2
    else:
        n_signal = dim - nuisance_dims
        if n_signal < 1:
            raise ValueError("need at least one signal coordinate")
        scale_rows = np.empty((n_total, dim))
        scale_rows[:, :nuisance_dims] = nuisance_scale
        owners = np.arange(n_signal) % n_followers
        for i in range(n_followers):
            block = slice(i * samples_per, (i + 1) * samples_per)
            sig = np.where(owners == i, signal_scale, owner_emphasis * signal_scale)
            scale_rows[block, nuisance_dims:] = sig
        w_true = np.concatenate([np.zeros(nuisance_dims), np.full(n_signal, w_scale)])
        # every signal coordinate has one owner and n_followers - 1 others
        mean_sq = (
            signal_scale**2 + (n_followers - 1) * (owner_emphasis * signal_scale) ** 2
        ) / n_followers
        target_moments = np.concatenate(
            [np.full(nuisance_dims, nuisance_scale**2), np.full(n_signal, mean_sq)]
        )

    x = rng.standard_normal((n_total, dim)) * scale_rows
    if exact_second_moments:
        moment = x.T @ x / n_total
        vals, vecs = np.linalg.eigh(moment)
        if vals[0] <= 1e-12 * vals[-1]:
            raise ValueError("pooled feature matrix is rank deficient; increase samples_per")
        inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.T
        x = x @ inv_sqrt * np.sqrt(target_moments)

    y = x @ w_true
    if noise_std > 0.0:
        y = y + noise_std * rng.standard_normal(n_total)

    datasets = [
        Dataset(
            features=x[i * samples_per : (i + 1) * samples_per],
            labels=y[i * samples_per : (i + 1) * samples_per],
        )
        for i in range(n_followers)
    ]
    zeta_seed = int(np.random.SeedSequence([rng_seed, 0x5EED]).generate_state(1)[0])
    return datasets, QuadraticLossModel(datasets, zeta_seed=zeta_seed)


@dataclass
class FlState:
    """State of R coupled federated training runs, one row per repetition.

    T is the number of rounds whose participation masks were computed, which
    may be fewer than a run's round budget.
    rounds[r] counts the rounds repetition r executed before it reached its
    loss target (or ran out of participation masks); loss_history[r, t] is
    F after round t, NaN past rounds[r].  Masks of a repetition past
    rounds[r] are never read.
    """

    global_w: np.ndarray  # (R, dim)
    last_received: np.ndarray  # (R, I, dim) newest global model each follower holds
    rounds: np.ndarray  # (R,) rounds executed
    loss_history: np.ndarray  # (R, T + 1)
    participation: np.ndarray  # (R, T, I) participation masks of the rounds computed

    @property
    def round(self) -> int:
        """Rounds executed, summed over repetitions."""
        return int(self.rounds.sum())

    def participation_rates(self) -> np.ndarray:
        """Per-repetition share of executed rounds each follower took part in, (R, I)."""
        executed = np.arange(self.participation.shape[1]) < self.rounds[:, None]
        hits = (self.participation & executed[:, :, None]).sum(axis=1)
        return hits / np.maximum(self.rounds, 1)[:, None]


def aggregate_ideal(local_ws, counts) -> np.ndarray:
    """Count-weighted mean of all local models."""
    ws = np.asarray(local_ws, dtype=float)
    n = np.asarray(counts, dtype=float)
    if len(ws) == 0:
        raise ValueError("need at least one follower")
    return (n[:, None] * ws).sum(axis=0) / n.sum()


def aggregate_with_losses(local_ws, counts, participation, previous_global) -> np.ndarray:
    """Count-weighted mean over participating followers.

    A round where nobody participates keeps the previous global model (the
    weighted average would be 0/0).
    """
    mask = np.asarray(participation, dtype=bool)
    if not mask.any():
        return np.asarray(previous_global, dtype=float).copy()
    ws = np.asarray(local_ws, dtype=float)
    n = np.asarray(counts, dtype=float) * mask
    return (n[:, None] * ws).sum(axis=0) / n.sum()


def train_round(
    loss: QuadraticLossModel,
    last_received: np.ndarray,
    global_w: np.ndarray,
    participation: np.ndarray,
    lr: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One round of R runs at once: every follower's local step from its
    newest received model, then the count-weighted mean over participants.

    last_received is (R, I, dim), global_w (R, dim), participation (R, I).
    Returns (local_w, new global_w); a run where nobody participates keeps
    its previous global model.  Per run this equals one local gradient step
    per follower followed by aggregate_with_losses.
    """
    counts = loss.counts
    local_w = last_received - (lr / counts)[:, None] * loss.follower_grad_sums(last_received)
    weights = counts * participation
    total = weights.sum(axis=1)
    summed = (weights[:, :, None] * local_w).sum(axis=1)
    anyone = total > 0
    new_global = np.where(anyone[:, None], summed / np.where(anyone, total, 1)[:, None], global_w)
    return local_w, new_global


def run_fl(
    loss: QuadraticLossModel,
    participation: np.ndarray,
    epsilon: float,
    *,
    lr: float | None = None,
    stale_models: bool = True,
) -> tuple[FlState, np.ndarray]:
    """Run R coupled federated trainings until each loss gap F(w) - F(w*)
    falls below epsilon.

    participation is a boolean (R, T, I) array: whether follower i's upload
    and the following broadcast both landed in round t of repetition r (see
    channel.participation_masks).  Each repetition stops at its own crossing; the
    loop ends once every repetition has crossed or T rounds have run.
    Returns the final state and, per repetition, the first round whose
    recorded loss meets the target (-1 if the masks ran out first).  lr
    defaults to 1/lipschitz_u; stale_models=False is an idealized ablation
    where every follower always receives the broadcast even in rounds it
    does not contribute to.
    """
    if not epsilon > 0.0:  # NaN fails too
        raise ValueError("epsilon must be > 0")
    ok = np.asarray(participation, dtype=bool)
    if ok.ndim != 3 or ok.shape[2] != loss.n_followers:
        raise ValueError(f"participation must have shape (R, T, {loss.n_followers}), got {ok.shape}")
    step = 1.0 / loss.lipschitz_u if lr is None else float(lr)
    if not 0.0 < step < np.inf:  # NaN fails too
        raise ValueError("lr must be finite and > 0")

    n_reps, max_rounds, n_f = ok.shape
    start = np.zeros(loss.dim)
    state = FlState(
        global_w=np.tile(start, (n_reps, 1)),
        last_received=np.tile(start, (n_reps, n_f, 1)),
        rounds=np.zeros(n_reps, dtype=int),
        loss_history=np.full((n_reps, max_rounds + 1), np.nan),
        participation=ok,
    )
    f_start = loss.global_loss(start)
    state.loss_history[:, 0] = f_start
    hits = np.full(n_reps, 0 if f_start - loss.f_star <= epsilon else -1)
    live = np.flatnonzero(hits < 0)
    for t in range(1, max_rounds + 1):
        if live.size == 0:
            break
        mask = state.participation[live, t - 1]
        received = state.last_received[live]
        _, global_w = train_round(loss, received, state.global_w[live], mask, step)
        state.global_w[live] = global_w
        if stale_models:
            received = np.where(mask[:, :, None], global_w[:, None, :], received)
        else:
            received[:] = global_w[:, None, :]
        state.last_received[live] = received
        state.rounds[live] = t
        f_now = loss.global_losses(global_w)
        state.loss_history[live, t] = f_now
        crossed = f_now - loss.f_star <= epsilon
        hits[live[crossed]] = t
        live = live[~crossed]
    return state, hits


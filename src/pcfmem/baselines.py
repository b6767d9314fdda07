"""Classical baselines with exact simulation budgets.

random_search: 100 uniform draws, best kept by the env quality score.
nelder_mead: hand-rolled simplex on (pitch, d ratio, relaxed ring count)
  minimizing 1 - quality, hard cap of 135 charged evaluations.
surrogate: 4-hidden-layer MLP with batch norm trained on 2000 env samples,
  ranks 100 candidates, verifies the top-1 with a single env call.

The simplex loop is owned code rather than scipy because the call cap is an
exact budget: every objective evaluation must pass through the CallCounter
and stop mid-iteration when the cap is reached. Its vertices are float tuples,
the surrogate steps one flat buffer in preallocated layer buffers, and both
keep numpy's operation order.
"""

from __future__ import annotations

import numpy as np

from . import designer, evalsuite, physics
from .datagen import Query, Trace
from .physics import CallCounter, Geometry, SimResult, TargetSpec

RANDOM_BUDGET = 100
NM_BUDGET = 135
NM_DIAMETER_TOL = 1e-4
SURROGATE_TRAIN_SAMPLES = 2000
SURROGATE_EPOCHS = 200
SURROGATE_BATCH = 128
SURROGATE_LR = 0.01
SURROGATE_CANDIDATES = 100

DRATIO_MIN = 0.05
# stay strictly inside the overlap bound: pitch*r/pitch can round 1 ulp up
DRATIO_CAP = physics.DRATIO_MAX - 1e-9
BASELINE_KINDS = ("random_search", "nelder_mead", "surrogate")


def _sample_geometry(rng: np.random.Generator) -> Geometry:
    pitch = float(rng.uniform(physics.PITCH_MIN_UM, physics.PITCH_MAX_UM))
    r = float(rng.uniform(DRATIO_MIN, DRATIO_CAP))
    n = int(rng.integers(physics.N_RINGS_MIN, physics.N_RINGS_MAX + 1))
    return Geometry(pitch, pitch * r, n)


def random_search_query(
    target: TargetSpec, counter: CallCounter, rng: np.random.Generator
) -> tuple[Geometry, SimResult]:
    best = None
    for _ in range(RANDOM_BUDGET):
        geom = _sample_geometry(rng)
        res = physics.simulate(geom, target.lambda_um, counter)
        q = physics.quality(res, target)
        if best is None or q > best[0]:
            best = (q, geom, res)
    return best[1], best[2]


def _clip_x(x: tuple[float, float, float]) -> Geometry:
    pitch = min(max(x[0], physics.PITCH_MIN_UM), physics.PITCH_MAX_UM)
    r = min(max(x[1], DRATIO_MIN), DRATIO_CAP)
    n = int(round(min(max(x[2], physics.N_RINGS_MIN), physics.N_RINGS_MAX)))
    return Geometry(pitch, pitch * r, n)


def nelder_mead_query(
    target: TargetSpec, counter: CallCounter, rng: np.random.Generator
) -> tuple[Geometry, SimResult, bool]:
    """Reflection 1, expansion 2, contraction 0.5, shrink 0.5; cap 135 calls."""
    budget = NM_BUDGET
    best = None  # (f, geometry, result)

    def f(x: tuple[float, float, float]) -> float:
        nonlocal budget, best
        if budget <= 0:
            return np.inf
        budget -= 1
        geom = _clip_x(x)
        res = physics.simulate(geom, target.lambda_um, counter)
        val = 1.0 - physics.quality(res, target)
        if best is None or val < best[0]:
            best = (val, geom, res)
        return val

    x0 = (
        rng.uniform(physics.PITCH_MIN_UM, physics.PITCH_MAX_UM),
        rng.uniform(DRATIO_MIN, DRATIO_CAP),
        rng.uniform(physics.N_RINGS_MIN, physics.N_RINGS_MAX),
    )
    simplex = [x0]
    for i, step in enumerate((0.4, 0.1, 1.5)):
        simplex.append(x0[:i] + (x0[i] + step,) + x0[i + 1 :])
    fvals = [f(x) for x in simplex]

    while budget > 0:
        order = sorted(range(4), key=fvals.__getitem__)
        simplex, fvals = [simplex[i] for i in order], [fvals[i] for i in order]
        diameter = max(abs(a - b) for x in simplex[1:] for a, b in zip(x, simplex[0]))
        if diameter < NM_DIAMETER_TOL:
            break
        # np.mean(axis=0)'s order: add the rows left to right, then divide
        centroid = tuple((a + b + c) / 3 for a, b, c in zip(*simplex[:-1]))
        xr = tuple(c + (c - w) for c, w in zip(centroid, simplex[-1]))
        fr = f(xr)
        if fr < fvals[0]:
            xe = tuple(c + 2.0 * (c - w) for c, w in zip(centroid, simplex[-1]))
            fe = f(xe)
            simplex[-1], fvals[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            toward = xr if fr < fvals[-1] else simplex[-1]
            xc = tuple(c + 0.5 * (t - c) for c, t in zip(centroid, toward))
            fc = f(xc)
            if fc < min(fr, fvals[-1]):
                simplex[-1], fvals[-1] = xc, fc
            else:
                for i in range(1, 4):
                    simplex[i] = tuple(b + 0.5 * (x - b) for b, x in zip(simplex[0], simplex[i]))
                    fvals[i] = f(simplex[i])

    _, geom, res = best
    return geom, res, budget <= 0


# --- surrogate -----------------------------------------------------------


def _features(pitch: float, r: float, n: float, lam: float) -> np.ndarray:
    return np.array(
        [
            pitch / physics.PITCH_MAX_UM,
            r,
            (n - physics.N_RINGS_MIN) / (physics.N_RINGS_MAX - physics.N_RINGS_MIN),
            (lam - physics.LAMBDA_MIN_UM)
            / (physics.LAMBDA_MAX_UM - physics.LAMBDA_MIN_UM),
        ]
    )


class SurrogateModel:
    """4 hidden layers (linear + batch norm + relu) and a linear head.

    Predicts (n_eff, log10 loss, standardized dispersion). Trained with
    plain minibatch SGD with momentum on mean squared error. ``params``
    holds w, b, gamma, beta of each hidden layer, then the head's w, b;
    ``running`` holds each hidden layer's batch-norm mean and variance.
    """

    HIDDEN = 64
    EPS = 1e-5
    MOMENTUM = 0.1

    def __init__(self, rng: np.random.Generator):
        sizes = [4] + [self.HIDDEN] * 4
        self.params = []
        self.running = []
        for fan_in, width in zip(sizes, sizes[1:]):
            w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, width))
            self.params += [w, np.zeros(width), np.ones(width), np.zeros(width)]
            self.running.append([np.zeros(width), np.ones(width)])
        self.params += [rng.normal(0.0, 1.0 / np.sqrt(self.HIDDEN), (self.HIDDEN, 3)), np.zeros(3)]
        self.y_mean = np.zeros(3)
        self.y_std = np.ones(3)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Physical-scale predictions (n_eff, log10 loss, dispersion)."""
        h = np.atleast_2d(x)
        for i, (mu, var) in enumerate(self.running):
            w, b, gamma, beta = self.params[4 * i : 4 * i + 4]
            zhat = (h @ w + b - mu) * (1.0 / np.sqrt(var + self.EPS))
            h = np.maximum(gamma * zhat + beta, 0.0)
        out = h @ self.params[-2] + self.params[-1]
        return out * self.y_std + self.y_mean

    def train(self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> None:
        """Momentum SGD; ``params`` become views into one flat buffer, ``running``
        into one stacked array. Steps write into buffers made once, running the
        operations of the allocating numpy expressions in their order."""
        n, depth, hidden, rows = x.shape[0], len(self.running), self.HIDDEN, SURROGATE_BATCH
        shapes = [p.shape for p in self.params]
        cuts = np.cumsum([p.size for p in self.params])[:-1]
        flat = np.concatenate(self.params, axis=None)
        grad, velocity = np.zeros_like(flat), np.zeros_like(flat)
        self.params, grads = (
            [part.reshape(s) for part, s in zip(np.split(buf, cuts), shapes)]
            for buf in (flat, grad)
        )
        running = np.array(self.running)
        self.running = [list(pair) for pair in running]
        batch_stats, inv = np.empty_like(running), np.empty((depth, hidden))
        t, t2 = np.empty((2, hidden))
        # a batch of m rows uses the first m rows: temporaries, each layer's zhat and relu out
        temps, acts = np.empty((4, rows, hidden)), np.empty((depth, 2, rows, hidden))
        head, (w_out, b_out) = np.empty((rows, 3)), self.params[-2:]
        for _ in range(SURROGATE_EPOCHS):
            perm = rng.permutation(n)
            xs, ys = x[perm], y[perm]
            for s in range(0, n - 1, rows):  # skips a 1-row tail
                h = x_in = xs[s : s + rows]
                m = len(h)
                tmp, d_h, d_y, d_z = temps[:, :m]
                for i, (mu, var) in enumerate(batch_stats):
                    w, b, gamma, beta = self.params[4 * i : 4 * i + 4]
                    z, a = acts[i, :, :m]  # z becomes z - mu, then zhat, in place
                    np.add(np.matmul(h, w, out=z), b, out=z)
                    np.divide(np.add.reduce(z, 0, out=mu), m, out=mu)
                    z -= mu
                    np.divide(np.add.reduce(np.multiply(z, z, out=tmp), 0, out=var), m, out=var)
                    np.sqrt(np.add(var, self.EPS, out=inv[i]), out=inv[i])
                    z *= np.divide(1.0, inv[i], out=inv[i])
                    np.add(np.multiply(gamma, z, out=a), beta, out=a)
                    h = np.maximum(a, 0.0, out=a)
                running *= 1 - self.MOMENTUM
                batch_stats *= self.MOMENTUM
                running += batch_stats
                inv /= m  # backward reads only inv / m
                d_out = np.add(np.matmul(h, w_out, out=head[:m]), b_out, out=head[:m])
                d_out -= ys[s : s + m]
                np.divide(np.multiply(2.0, d_out, out=d_out), m * 3, out=d_out)
                np.matmul(h.T, d_out, out=grads[-2])
                np.add.reduce(d_out, 0, out=grads[-1])
                np.matmul(d_out, w_out.T, out=d_h)
                for i in reversed(range(depth)):
                    g_w, g_b, g_gamma, g_beta = grads[4 * i : 4 * i + 4]
                    (zhat, a), d_zhat = acts[i, :, :m], d_z  # d_zhat becomes d_z in place
                    np.multiply(np.greater(a, 0, out=d_y), d_h, out=d_y)
                    np.add.reduce(np.multiply(d_y, self.params[4 * i + 2], out=d_zhat), 0, out=t)
                    np.add.reduce(np.multiply(d_zhat, zhat, out=tmp), 0, out=t2)
                    d_zhat *= m
                    d_zhat -= t
                    d_zhat -= np.multiply(zhat, t2, out=tmp)
                    d_zhat *= inv[i]
                    np.matmul((acts[i - 1, 1, :m] if i else x_in).T, d_z, out=g_w)
                    np.add.reduce(d_z, 0, out=g_b)
                    np.add.reduce(d_y, 0, out=g_beta)
                    np.add.reduce(np.multiply(d_y, zhat, out=d_y), 0, out=g_gamma)
                    if i > 0:  # layer 0's input is the data
                        np.matmul(d_z, self.params[4 * i].T, out=d_h)
                velocity *= 0.9
                velocity -= np.multiply(SURROGATE_LR, grad, out=grad)  # each step rewrites grad
                flat += velocity


def train_surrogate(
    train_traces: list[Trace], master_seed: int, counter: CallCounter
) -> SurrogateModel:
    """Fit on up to 2000 samples drawn from training spans (uniform top-up)."""
    rng = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(6,)))
    points = []
    for t in train_traces:
        for s in t.spans:
            points.append((s.geom_after, t.target.lambda_um))
    if len(points) > SURROGATE_TRAIN_SAMPLES:
        keep = rng.choice(len(points), SURROGATE_TRAIN_SAMPLES, replace=False)
        points = [points[i] for i in sorted(keep)]
    while len(points) < SURROGATE_TRAIN_SAMPLES:
        lam = float(rng.uniform(physics.LAMBDA_MIN_UM, physics.LAMBDA_MAX_UM))
        points.append((_sample_geometry(rng), lam))

    x = np.zeros((len(points), 4))
    y = np.zeros((len(points), 3))
    for i, (geom, lam) in enumerate(points):
        res = physics.simulate(geom, lam, counter)
        x[i] = _features(geom.pitch_um, geom.dratio, geom.n_rings, lam)
        y[i] = [res.n_eff, np.log10(res.loss_db_km), res.dispersion_ps_nm_km]

    model = SurrogateModel(rng)
    model.y_mean = y.mean(axis=0)
    model.y_std = np.where(y.std(axis=0) > 0, y.std(axis=0), 1.0)
    model.train(x, (y - model.y_mean) / model.y_std, rng)
    return model


def surrogate_query(
    model: SurrogateModel,
    target: TargetSpec,
    counter: CallCounter,
    rng: np.random.Generator,
) -> tuple[Geometry, SimResult]:
    cands = [_sample_geometry(rng) for _ in range(SURROGATE_CANDIDATES)]
    x = np.stack(
        [_features(g.pitch_um, g.dratio, g.n_rings, target.lambda_um) for g in cands]
    )
    pred = model.predict(x)
    d_pred = pred[:, 2]
    a_pred = np.power(10.0, pred[:, 1])
    score = np.maximum(
        np.abs(d_pred - target.dispersion_ps_nm_km) / physics.TOL_DISPERSION,
        np.abs(a_pred - target.loss_db_km) / physics.TOL_LOSS,
    )
    top = cands[int(np.argmin(score))]
    res = physics.simulate(top, target.lambda_um, counter)
    return top, res


def run_baseline(
    kind: str,
    queries: list[Query],
    master_seed: int,
    train_traces: list[Trace] | None = None,
) -> dict:
    """Run one baseline over the parameter_adjustment queries.

    Returns rows plus eval calls; the surrogate also reports its training
    call cost separately so eval calls/query stays a clean budget figure.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline: {kind}")
    param_queries = sorted(
        (q for q in queries if q.qtype == "parameter_adjustment"), key=lambda q: q.id
    )
    counter = CallCounter()
    training_calls = 0
    model = None
    if kind == "surrogate":
        if not train_traces:
            raise ValueError("surrogate baseline needs training traces")
        train_counter = CallCounter()
        model = train_surrogate(train_traces, master_seed, train_counter)
        training_calls = train_counter.total_calls

    rows = []
    for i, q in enumerate(param_queries):
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(5, i))
        )
        target = physics.target_from_dict(q.ground_truth["target"])
        counter.begin_query()
        if kind == "random_search":
            geom, res = random_search_query(target, counter, rng)
        elif kind == "nelder_mead":
            geom, res, _ = nelder_mead_query(target, counter, rng)
        else:
            geom, res = surrogate_query(model, target, counter, rng)
        attempt = designer.DesignAttempt(geom, res, target, [])
        answer = evalsuite.score_design(q, attempt, counter.per_query_calls)
        rows.append(evalsuite.answer_row(q, answer))
    return {
        "rows": rows,
        "total_calls": counter.total_calls,
        "training_calls": training_calls,
    }

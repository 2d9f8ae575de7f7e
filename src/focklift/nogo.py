"""Numerical certificates that passive linear optics cannot both decouple
bunched states and entangle single-rail qubits.

One restart loop, two search families, both maximizing the operator-Schmidt
entangling measure of the induced two-qubit action:

* ``nogo_search_two_mode``  - the five-parameter composite gate on two
  modes, penalized by its bunched-state leakage.
* ``nogo_search_ancilla``   - an arbitrary mode unitary on M > 2 modes
  (full Hermitian generator, M^2 real parameters), penalized by the
  error-avoidance residuals, the computational/bunched subspace leakage on
  the top photon sector, and the failure of outputs to factor into a
  computational part times a fixed ancilla state.

Each family supplies a start point, the (measure, constraint) rows of a
stack of points and a snapped or projected candidate on the exactly
feasible manifold; ``_search`` owns the penalty ladder, restarts, trace and
selection, so the reported constrained optimum is a max over genuinely
feasible points and can only under-report the certificate.

The optimizer is an in-package adaptive Nelder-Mead that holds a chunk's
restarts as arrays and advances them together: every round scores all
their pending points in one call on a stack, and both families score the
whole stack at once, each row bit for bit as for its point alone.  A
restart's path does not depend on the restarts it is stacked with, and its
trace entry records the evaluations, iterations and stop status.

The ancilla certificate at the 1e-10 tolerance comes from projected
candidates, which entangle nothing by construction: no optimizer endpoint
of the packaged m3 and m4_ancilla runs has met that tolerance.
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError
from .fock import _check_lift_size, basis_enumerate, lift_unitary
from .linalg import _as_square, _finite, _integer, exp_i_hermitian, require_unitary
from .modes import _reduce_angles
from .singlerail import (_composite_gates, _couplings, _polar_blocks, entangling_measure,
                         nearest_unitary_block)

__all__ = [
    "SearchConfig",
    "SearchResult",
    "AncillaCheckReport",
    "bunched_partition",
    "dont_cause_errors_residuals",
    "block_diagonality_defect",
    "block_lemma_check",
    "nogo_search_two_mode",
    "nogo_search_ancilla",
]


# ---------------------------------------------------------------------------
# subspace partition and structural checks
# ---------------------------------------------------------------------------

def bunched_partition(modes: int, photons: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the N-photon basis into computational and bunched index sets.

    A state is computational when both rail modes hold at most one photon
    (n1 <= 1 and n2 <= 1); it is bunched when max(n1, n2) >= 2.  Ancilla
    occupations are unrestricted.  Returns (computational, bunched) index
    tuples into basis_enumerate(modes, photons).states.
    """
    basis = basis_enumerate(_integer(modes, "modes", 2), photons)
    comp, bunch = [], []
    for i, s in enumerate(basis.states):
        (bunch if max(s[0], s[1]) >= 2 else comp).append(i)
    return tuple(comp), tuple(bunch)


def _coupling_mask(modes: int, photons: int) -> np.ndarray:
    """(D, D) mask of the computational <-> bunched entries of a sector."""
    bunched = np.zeros(len(basis_enumerate(modes, photons)), dtype=bool)
    bunched[list(bunched_partition(modes, photons)[1])] = True
    return bunched[:, None] != bunched[None, :]


def block_diagonality_defect(v: np.ndarray, split: int = 2) -> float:
    """Frobenius weight of both off-diagonal blocks of v at the given split."""
    v = _as_square(v, "matrix")
    split = _integer(split, "split", 1, v.shape[0] - 1)
    ur = v[:split, split:]
    ll = v[split:, :split]
    return math.sqrt(float(np.sum(np.abs(ur) ** 2) + np.sum(np.abs(ll) ** 2)))


def block_lemma_check(v: np.ndarray, split: int = 2) -> float:
    """Gap | ||upper-right||_F - ||lower-left||_F | for a unitary.

    Row and column norms of a unitary tie the two off-diagonal blocks
    together, so the gap vanishes identically; in particular a unitary with
    a zero lower-left block has a zero upper-right block.
    """
    v = require_unitary(v, name="mode matrix")
    split = _integer(split, "split", 1, v.shape[0] - 1)
    ur = float(np.linalg.norm(v[:split, split:]))
    ll = float(np.linalg.norm(v[split:, :split]))
    return abs(ur - ll)


@dataclass(frozen=True)
class AncillaCheckReport:
    """Error-avoidance residuals of a mode unitary with M - 2 ancilla modes.

    residuals_first[i-3] and residuals_second[i-3] are the amplitudes for
    two photons entering ancilla mode i to exit bunched on rail mode 1 or 2;
    their closed forms are 2*v[0, i]^2 and 2*v[1, i]^2.  Both routes are
    computed and must agree; max_route_deviation records the gap.
    """

    residuals_first: tuple[complex, ...]
    residuals_second: tuple[complex, ...]
    closed_first: tuple[complex, ...]
    closed_second: tuple[complex, ...]
    max_route_deviation: float
    block_defect: float
    lemma_gap: float

    def max_residual(self) -> float:
        vals = [abs(z) for z in self.residuals_first + self.residuals_second]
        return max(vals) if vals else 0.0


def dont_cause_errors_residuals(v: np.ndarray) -> AncillaCheckReport:
    """Residuals <vac| a_r^2 V (a_i+)^2 |vac> for rails r in {1,2}, ancilla i.

    Computed from the lifted two-photon sector and cross-checked against the
    closed forms 2*v[0, i]^2 and 2*v[1, i]^2; a route disagreement beyond
    1e-10 raises RuntimeError since it can only come from a kernel defect.
    Block-diagonal v gives identically zero residuals.
    """
    v = require_unitary(v, name="mode matrix")
    m = v.shape[0]
    if m < 3:
        raise InvalidInputError(f"residuals need at least one ancilla mode, got M={m}")
    lifted = lift_unitary(v, 2, check=False)
    basis = lifted.basis
    idx_two = [basis.index(tuple(2 if j == mode else 0 for j in range(m))) for mode in range(m)]
    r1, r2, c1, c2 = [], [], [], []
    worst = 0.0
    for i in range(2, m):
        lift_1 = 2.0 * lifted.matrix[idx_two[0], idx_two[i]]
        lift_2 = 2.0 * lifted.matrix[idx_two[1], idx_two[i]]
        closed_1 = 2.0 * v[0, i] ** 2
        closed_2 = 2.0 * v[1, i] ** 2
        worst = max(worst, abs(lift_1 - closed_1), abs(lift_2 - closed_2))
        r1.append(complex(lift_1))
        r2.append(complex(lift_2))
        c1.append(complex(closed_1))
        c2.append(complex(closed_2))
    if worst > 1e-10:
        raise RuntimeError(f"residual routes disagree by {worst:.3e}; lift kernel is broken")
    return AncillaCheckReport(
        residuals_first=tuple(r1),
        residuals_second=tuple(r2),
        closed_first=tuple(c1),
        closed_second=tuple(c2),
        max_route_deviation=worst,
        block_defect=block_diagonality_defect(v, 2),
        lemma_gap=block_lemma_check(v, 2),
    )


# ---------------------------------------------------------------------------
# search configuration and results
# ---------------------------------------------------------------------------

# a config with more restarts is rejected before the search allocates them; at
# the cap the first-round simplices at M = 6 hold ~107 MB
MAX_RESTARTS = 10_000


@dataclass(frozen=True)
class SearchConfig:
    """Shared knobs of the certificate searches.

    penalty_weight is the final weight of the x10 penalty ladder that
    starts at 10 (the default 1e5 walks 10, 100, ..., 1e5 across the
    restart budget); penalty_weight = 0 runs the unconstrained variant.
    Construction fails closed: integer fields must be integers (not bools),
    float fields finite numbers, so a malformed config never runs a
    different search than the one it names.
    """

    modes: int = 2
    ancilla_photons: int = 0
    restarts: int = 20
    max_iterations: int = 400
    leakage_tolerance: float = 1e-10
    penalty_weight: float = 1e5
    certification_threshold: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name, low, high in (("modes", 2, None), ("ancilla_photons", 0, None),
                                ("restarts", 1, MAX_RESTARTS), ("max_iterations", 1, None),
                                ("seed", 0, None)):
            _integer(getattr(self, name), name, low, high)
        for name in ("leakage_tolerance", "penalty_weight", "certification_threshold"):
            _finite(getattr(self, name), name)
        if self.leakage_tolerance <= 0:
            raise InvalidInputError("leakage_tolerance must be positive")
        if self.penalty_weight < 0:
            raise InvalidInputError("penalty_weight must be >= 0 (0 = unconstrained)")
        if self.certification_threshold <= 0:
            raise InvalidInputError("certification_threshold must be positive")

    def to_jsonable(self) -> dict:
        return asdict(self)

    @classmethod
    def from_jsonable(cls, data: dict) -> "SearchConfig":
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        unknown = set(data) - set(cls.__dataclass_fields__) - {"mode"}
        if unknown:
            raise InvalidInputError(f"unknown search config fields: {sorted(unknown)}")
        return cls(**known)


@dataclass
class SearchResult:
    """Outcome of a certificate search.

    best_* describe the winning candidate under the search's selection rule
    (max measure over feasible candidates when constrained, max measure
    overall when unconstrained).  ``feasible`` records whether any candidate
    met the leakage tolerance; for constrained runs it is always expected
    to be True thanks to the snapped/projected candidates.

    ``best_candidate`` names the winner's kind: ``"endpoint"`` (an optimizer
    endpoint), ``"snapped"`` (two-mode: the endpoint with its mixing angle
    snapped to a multiple of pi/2) or ``"projected"`` (ancilla: the
    endpoint's mode unitary projected onto the feasible manifold).  A
    projected winner's ``best_parameters`` x are the generator *before*
    projection: its mode unitary projects exp(i H) onto the block-diagonal
    unitaries with a diagonal or antidiagonal rail block, H holding x[:M] on
    the diagonal and x[M::2] + i x[M+1::2] on the upper triangle row by row.
    Constrained ancilla runs are certified by such winners alone: no
    optimizer endpoint has met the 1e-10 tolerance (0 of 25 in each of the
    packaged m3 and m4_ancilla runs), and projected points entangle nothing
    by construction.
    """

    constrained: bool
    best_entangling_measure: float
    best_leakage: float
    best_parameters: list[float]
    best_candidate: str
    restart_trace: list[dict]
    feasible: bool
    wall_time: float

    def to_jsonable(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# the restart loop, shared by both families
# ---------------------------------------------------------------------------

# (kind, parameters, measure, constraint) of one point offered for selection
_Candidate = tuple[str, list[float], float, float]


def _penalty_levels(cfg: SearchConfig) -> list[float]:
    if cfg.penalty_weight == 0:
        return [0.0]
    levels, w = [], 10.0
    while w < cfg.penalty_weight:
        levels.append(w)
        w *= 10.0
    levels.append(float(cfg.penalty_weight))
    return levels


# Nelder-Mead converges once its simplex spans at most _XATOL in every
# coordinate and _FATOL in value
_XATOL = 1e-12
_FATOL = 1e-14

# kinds of a run's pending evaluation, then the two ends of an iteration (the
# worst vertex replaced, or the shrunk vertices scored), after which it reflects
_EXPAND, _OUTSIDE, _INSIDE, _SHRINK, _REFLECT, _ACCEPT, _SHRUNK = range(7)
# the step after a pending point of each kind scores f, by the flags 8 (f < best),
# 4 (f < second-worst), 2 (f < worst vertex value) and 1 (f <= the reflection's)
_NEXT = np.array([[_ACCEPT] * 16,  # to the expansion, or back to the reflection
                  [_SHRINK, _ACCEPT] * 8,
                  [_SHRINK, _SHRINK, _ACCEPT, _ACCEPT] * 4,
                  [_SHRUNK] * 16]
                 + [[_INSIDE] * 2 + [_OUTSIDE] * 2 + [_ACCEPT] * 4 + [_EXPAND] * 8] * 3)


def _nelder_mead(objective, x0: np.ndarray, maxiter: int, maxfev: int):
    """Adaptive Nelder-Mead (Gao & Han 2012) minimizing objective from each
    row of an (R, n) stack of start points; objective(xs, owner) values the
    points xs of runs owner.
    Returns the (R, n) ends and per run nfev, nit and status (0 converged, 1
    evaluation cap, 2 iteration cap), bit for bit those of the adaptive
    ``optimize._minimize_neldermead`` 1.17 (rho = 1 folded in), caps reached
    part-way through a step included.  The runs are held as arrays; each
    round scores every live run's pending points in one objective call and
    advances all runs with the same array operations, and a run that stops
    leaves the arrays."""
    runs, n = x0.shape
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    # a trial point is a * xbar + b * worst vertex, (a, b) = coef[:, kind]
    # (-1 * w and -chi * w are exact negations); a shrink has none
    coef = np.array([[1 + chi, 1 + psi, 1 - psi, 0] + [2] * 3,
                     [-chi, -psi, psi, 0] + [-1] * 3])[..., None]
    axis, vertices = np.arange(n), np.arange(n + 1)
    sim = np.repeat(x0[:, None], n + 1, axis=1)
    sim[:, axis + 1, axis] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    # the initial simplex is cut at the cap, and unscored vertices keep inf
    first = min(n + 1, maxfev)
    fsim = np.full((runs, n + 1), np.inf)
    fsim[:, :first] = objective(sim[:, :first].reshape(-1, n),
                                np.repeat(np.arange(runs), first)).reshape(runs, first)
    ids, nfev, nit = np.arange(runs), np.full(runs, first), np.ones(runs, dtype=int)
    # argsort is not stable: sorted here and again in the first round, as in the source
    base = ids[:, None] * (n + 1)  # each run's first vertex in the flattened sim, fsim
    order = fsim.argsort(axis=1) + base
    sim, fsim = sim.reshape(-1, n).take(order, axis=0), fsim.take(order)
    edges = (vertices == 0) * 8 + (vertices == n - 1) * 4 + (vertices == n) * 2
    kind, fxr, ended = np.full(runs, _REFLECT), np.zeros(runs), np.ones(runs, dtype=bool)
    x, nfev_at, nit_at = np.empty((runs, n)), np.empty(runs, dtype=int), np.empty(runs, dtype=int)
    while True:
        if np.count_nonzero(ended):
            # sort the runs that ended an iteration; stop those capped or converged
            order = np.where(ended[:, None], fsim.argsort(axis=1), vertices) + base
            sim, fsim = sim.reshape(-1, n).take(order, axis=0), fsim.take(order)
            # a capped run has ended an iteration; sorted values spread over last - first
            capped = (nfev >= maxfev) | (nit >= maxiter)
            stop = capped | (fsim[:, -1] - fsim[:, 0] <= _FATOL)
            if np.count_nonzero(stop):
                stop &= capped | ended & (abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _XATOL)
            if np.count_nonzero(stop):
                done = ids[stop]
                x[done], nfev_at[done], nit_at[done] = sim[stop, 0], nfev[stop], nit[stop]
                ids, sim, fsim, kind, fxr, nfev, nit, ended = (
                    a[~stop] for a in (ids, sim, fsim, kind, fxr, nfev, nit, ended))
                if not ids.size:
                    break
                base = base[:ids.size]
            xbar = sim[:, :-1].sum(axis=1) / n  # as it was for runs mid-iteration
        kinds = kind.tolist()
        ab = coef.take(kind, axis=1)
        point = ab[0] * xbar + ab[1] * sim[:, -1]
        if _SHRINK in kinds:
            # the shrunk vertices the budget reaches, in the source's order
            single = kind != _SHRINK
            shrunk = ~single[:, None] & (axis < maxfev - nfev[:, None])
            f = np.zeros(ids.size)
            f[single], fsim[:, 1:][shrunk] = np.split(objective(
                np.concatenate([point[single], sim[:, 1:][shrunk]]),
                np.concatenate([ids[single], ids[np.nonzero(shrunk)[0]]])), [single.sum()])
            nfev += single + shrunk.sum(axis=1)
            nit += shrunk.sum(axis=1) == n
        else:
            f = objective(point, ids)
            nfev += 1
        np.copyto(fxr, f, where=kind >= _REFLECT)
        step = _NEXT[kind, (f[:, None] < fsim) @ edges + (f <= fxr)]
        if _EXPAND in kinds:
            # an expansion no better than its reflection keeps the reflection
            keep_xr = (kind == _EXPAND) & ~(f < fxr)
            np.copyto(point, 2 * xbar - sim[:, -1], where=keep_xr[:, None])
            np.copyto(f, fxr, where=keep_xr)
        if _SHRINK in step.tolist():
            # move the vertices the budget reaches and the next, which keeps a stale value
            moved = (step == _SHRINK)[:, None] & (axis <= maxfev - nfev[:, None])
            sim[:, 1:][moved] = (sim[:, :1] + sigma * (sim[:, 1:] - sim[:, :1]))[moved]
        accept = step == _ACCEPT
        np.copyto(sim[:, -1], point, where=accept[:, None])
        np.copyto(fsim[:, -1], f, where=accept)
        nit += accept
        # a step the budget cannot pay for ends the iteration unfinished
        ended = (step >= _ACCEPT) | (nfev >= maxfev)
        kind = step
    return x, nfev_at, nit_at, np.where(nfev_at >= maxfev, 1, np.where(nit_at >= maxiter, 2, 0))


def _run_chunk(args: tuple) -> list[tuple[dict, list[_Candidate]]]:
    """Nelder-Mead runs of measure - mu * constraint for restarts lo..hi-1,
    advanced together: each round scores the pending points of all runs in
    one family.scores call, and each run sees only its own values.  Per
    restart, its trace entry and candidates (endpoint and feasible point)."""
    family, cfg, mus, lo, hi = args
    mu = np.array(mus[lo:hi])

    def objective(xs, owner):
        scores = family.scores(xs)
        return mu.take(owner) * scores[:, 1] - scores[:, 0]

    starts = np.array([family.start(_task_rng(cfg.seed, r)) for r in range(lo, hi)])
    ends, *counts = _nelder_mead(objective, starts, cfg.max_iterations, 4 * cfg.max_iterations)
    params, feasible = family.feasible(ends)
    out = []
    for r, x, end, p, feas, nfev, nit, status in zip(
            range(lo, hi), ends, family.scores(ends).tolist(), params, feasible.tolist(),
            *(c.tolist() for c in counts)):
        entry = {"restart": r, "mu": mus[r], "measure": end[0], "leakage": end[1],
                 f"{family.kind}_measure": feas[0], f"{family.kind}_leakage": feas[1],
                 "nfev": nfev, "nit": nit, "status": status}
        out.append((entry, [("endpoint", x.tolist(), *end), (family.kind, p.tolist(), *feas)]))
    return out


def _task_rng(seed: int, index: int) -> np.random.Generator:
    """The stream of SeedSequence(seed).spawn(n)[index] for every n > index,
    without building the other n - 1 children."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _run_restarts(task, args: tuple, count: int, jobs: int) -> list:
    """task(args + (lo, hi)) over range(count) cut into min(jobs, count)
    contiguous chunks, in-process for one chunk, else one process each, with
    the results joined in index order.  They do not depend on jobs (an
    integer >= 1, not a bool): an index draws from its own ``_task_rng``
    stream and comes out the same in any chunk (a restart follows its own
    Nelder-Mead path whatever it is stacked with)."""
    jobs = min(_integer(jobs, "jobs", 1), count)
    chunks = [args + (count * j // jobs, count * (j + 1) // jobs) for j in range(jobs)]
    if jobs == 1:
        return task(chunks[0])
    # imported here: it loads multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return [r for chunk in pool.map(task, chunks) for r in chunk]


def _select_best(candidates: list[_Candidate], constrained: bool,
                 tol: float) -> tuple[_Candidate, bool]:
    """Pick the reported optimum and say whether any candidate is feasible."""
    feasible = [c for c in candidates if c[3] <= tol]
    if constrained:
        # among feasible points report the LARGEST measure: the certificate
        # must be an upper bound over everything the search could certify
        best = (max(feasible, key=lambda c: c[2]) if feasible
                else min(candidates, key=lambda c: c[3]))
        return best, bool(feasible)
    best = max(candidates, key=lambda c: c[2])
    return best, best[3] <= tol


def _search(family, cfg: SearchConfig, jobs: int) -> SearchResult:
    """Spread the penalty ladder across cfg.restarts restarts of a family,
    run by ``_run_restarts``, and report the best candidate with a trace."""
    start = time.perf_counter()
    levels = _penalty_levels(cfg)
    constrained = cfg.penalty_weight > 0
    mus = [levels[min(len(levels) - 1, r * len(levels) // cfg.restarts)]
           for r in range(cfg.restarts)]
    per_restart = _run_restarts(_run_chunk, (family, cfg, mus), cfg.restarts, jobs)
    (kind, params, meas, leak), feasible = _select_best(
        [c for _, cands in per_restart for c in cands], constrained, cfg.leakage_tolerance)
    return SearchResult(
        constrained=constrained,
        best_entangling_measure=meas,
        best_leakage=leak,
        best_parameters=params,
        best_candidate=kind,
        restart_trace=[entry for entry, _ in per_restart],
        feasible=feasible,
        wall_time=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# two-mode search
# ---------------------------------------------------------------------------

class _TwoModeFamily:
    """The five composite-gate angles; the feasible candidate snaps the
    mixing angle to the nearest multiple of pi/2 (exactly decoupled)."""

    kind = "snapped"

    def start(self, rng: np.random.Generator) -> np.ndarray:
        x = rng.uniform(-math.pi, math.pi, size=5)
        # saddle avoidance: keep the mixing angle away from multiples of pi/4
        while abs(math.remainder(x[4], math.pi / 4.0)) < 0.15:
            x[4] = rng.uniform(-math.pi, math.pi)
        return x

    def scores(self, xs: np.ndarray) -> np.ndarray:
        """(measure, leakage) rows of an (L, 5) stack of angles, each row
        as the single-gate functions give it for its gate alone."""
        gates = _composite_gates(_reduce_angles(xs))
        scores = np.empty((len(xs), 2))
        # read at call time from this module; a replacement may return a scalar
        scores[:, 0] = entangling_measure(nearest_unitary_block(gates))
        scores[:, 1] = _couplings(gates)[1]
        return scores

    def feasible(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        snapped = np.array(xs, dtype=float)
        snapped[:, 4] = [round(e / (math.pi / 2.0)) * (math.pi / 2.0) for e in snapped[:, 4]]
        return snapped, self.scores(snapped)


def nogo_search_two_mode(cfg: SearchConfig, jobs: int = 1) -> SearchResult:
    """Search the composite-gate family for entangling power.

    Constrained (penalty_weight > 0): maximize measure - mu * leakage with
    the mu ladder spread across restarts, then report the best measure among
    candidates whose leakage meets cfg.leakage_tolerance; each restart
    contributes its optimizer endpoint plus that endpoint with the mixing
    angle snapped to the nearest multiple of pi/2 (exactly decoupled family).
    The certified optimum lands at numerical zero.

    Unconstrained (penalty_weight = 0): maximize the measure alone; leaky
    gates are eligible and score well above the certification threshold.

    jobs > 1 spreads restarts over processes with identical results.
    """
    if cfg.modes != 2:
        raise InvalidInputError(f"two-mode search requires modes=2, got {cfg.modes}")
    return _search(_TwoModeFamily(), cfg, jobs)


# ---------------------------------------------------------------------------
# ancilla-assisted search
# ---------------------------------------------------------------------------

def _project_feasible(v: np.ndarray) -> np.ndarray:
    """Project a mode unitary onto the exactly feasible manifold.

    Off-diagonal blocks are zeroed, both diagonal blocks re-unitarized, and
    the rail block pushed to the nearer of diagonal or antidiagonal form
    (the zero-bunching two-mode unitaries).
    """
    ua, _, vha = np.linalg.svd(v[:2, :2])
    a = ua @ vha
    w = np.abs(a) ** 2
    # rail block entries kept: (0, 0), (1, 1) if diagonal, (0, 1), (1, 0) if not
    pair = ([0, 1], [0, 1] if w[0, 0] + w[1, 1] >= w[0, 1] + w[1, 0] else [1, 0])
    ub, _, vhb = np.linalg.svd(v[2:, 2:])
    out = np.zeros(v.shape, dtype=complex)
    out[pair] = [z / abs(z) if abs(z) > 1e-12 else 1.0 for z in a[pair]]
    out[2:, 2:] = ub @ vhb
    return out


class _AncillaFamily:
    """A full Hermitian generator on M modes (M^2 real parameters); the
    feasible candidate projects the endpoint's mode unitary onto the
    exactly feasible manifold and keeps the unprojected generator as its
    parameters (the projection is deterministic, so the point is
    reproducible).

    The four computational inputs |n1 n2> ride along with all ancilla
    photons in the first ancilla mode; each output is compared, per rail
    occupation, with the ancilla state chi that the input |0 0> leaves.
    A stack of points takes one exponential, then one lift and one gather
    per ``lanes`` points (at every packaged size, the whole stack).
    """

    kind = "projected"

    def __init__(self, cfg: SearchConfig):
        m, k = cfg.modes, cfg.ancilla_photons
        self.lanes = _check_lift_size(m, k + 2)
        self.modes, self.photons = m, k + 2
        # generator: x[:m] on the diagonal, then (re, im) pairs row by row
        upper = np.triu_indices(m, 1)
        self.gen_rows = np.concatenate([np.arange(m), upper[0]])
        self.gen_cols = np.concatenate([np.arange(m), upper[1]])
        # flat computational <-> bunched entries of the top sector, which
        # holds the doubly occupied input
        self.coupling = np.flatnonzero(_coupling_mask(m, k + 2))
        ancilla = basis_enumerate(m - 2, k).states
        # a lane's entries: the 2 (M - 2) rail-ancilla entries of v, from
        # starts[0] the coupling entries and from starts[1] the output columns
        # of the first four rail occupations, the computational inputs in gate
        # column order; a row of ``blocks`` holds the (rails, ancilla state)
        # positions of one input's rail occupation, ``gate_at`` the flat gate
        # entry of each computational row ``gate_rows``
        self.starts = (2 * (m - 2), 2 * (m - 2) + len(self.coupling))
        rails = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2))
        self.columns, blocks, self.gate_rows, self.gate_at = [], [], [], []
        offset = self.starts[1]
        for c, n in enumerate(rails[:4]):
            basis = basis_enumerate(m, sum(n) + k)
            self.columns.append((sum(n) + k, basis.index(n + ancilla[0])))
            for r in (r for r in rails if sum(r) == sum(n)):
                if max(r) <= 1:
                    self.gate_rows.append(len(blocks))
                    self.gate_at.append(4 * (2 * r[0] + r[1]) + c)
                blocks.append([offset + basis.index(r + a) for a in ancilla])
            offset += len(basis)
        self.blocks = np.array(blocks, dtype=np.intp)
        self.gate_rows, self.gate_at = np.array(self.gate_rows), np.array(self.gate_at)

    def start(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-math.pi, math.pi, size=self.modes ** 2)

    def unitaries(self, xs: np.ndarray) -> np.ndarray:
        """(L, M, M) mode unitaries exp(i H) of an (L, M^2) stack of generators."""
        m = self.modes
        entries = np.concatenate([xs[:, :m], xs[:, m::2] + 1j * xs[:, m + 1::2]], axis=1)
        h = np.empty((len(xs), m, m), dtype=complex)
        h[:, self.gen_cols, self.gen_rows] = entries.conj()
        h[:, self.gen_rows, self.gen_cols] = entries
        # read at call time from this module, where perfbench traces it
        return exp_i_hermitian(h)

    def scores(self, xs: np.ndarray) -> np.ndarray:
        """(measure, constraint) rows of an (L, M^2) stack of generators,
        each row bit for bit as for its point alone."""
        return self.rows(self.unitaries(xs))

    def rows(self, v: np.ndarray) -> np.ndarray:
        """rate's score rows of an (L, M, M) stack, ``lanes`` points a lift."""
        return np.concatenate([self.rate(v[a:a + self.lanes])[0]
                               for a in range(0, len(v), self.lanes)])

    def rate(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(L, 2) (entangling measure, constraint weight) rows and (L, 4, 4)
        induced gates of an (L, M, M) stack of mode unitaries.  Sums run along
        a row's entries, so a row does not depend on the rows beside it."""
        lanes = len(v)
        phi = lift_unitary(v, self.photons, check=False).sectors
        cols = np.concatenate([v[:, :2, 2:].reshape(lanes, -1),
                               phi[-1].reshape(lanes, -1).take(self.coupling, axis=1),
                               *(phi[s][:, :, col] for s, col in self.columns)], axis=1)
        blocks = cols.take(self.blocks, axis=1)
        # chi: the ancilla part of the |0 0> output, or the first ancilla state
        first = blocks[:, 0]
        chi_norm = np.sqrt((first.real * first.real + first.imag * first.imag).sum(axis=1))
        chi = first / np.maximum(chi_norm, 1e-12)[:, None]
        lost = chi_norm < 1e-12
        if np.count_nonzero(lost):
            chi[lost] = np.eye(chi.shape[1])[0]
        # factorization defect: what remains of the output columns once each
        # block loses its projection on chi is weight outside the product form
        # (wrong ancilla state, or a photon moved between rails and ancillas)
        amps = np.matmul(blocks, chi.conj()[:, :, None])
        cols[:, self.blocks] = blocks - amps * chi[:, None, :]
        gate = np.zeros((lanes, 4, 4), dtype=complex)
        gate.reshape(lanes, 16)[:, self.gate_at] = amps[:, self.gate_rows, 0]
        scores = np.empty((lanes, 2))
        # written into its column, so a replacement measure may return a scalar
        scores[:, 0] = entangling_measure(_polar_blocks(gate))
        a, b = self.starts
        sq = cols.real * cols.real + cols.imag * cols.imag
        # closed-form error-avoidance amplitudes 2 v[r, i]^2, rails r, ancillas i
        residual = 2.0 * np.sqrt((sq[:, :a] * sq[:, :a]).sum(axis=1))
        # leakage, residual and factorization defect
        scores[:, 1] = np.sqrt(sq[:, a:b].sum(axis=1)) + residual + np.sqrt(sq[:, b:].sum(axis=1))
        return scores, gate

    def feasible(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        projected = np.array([_project_feasible(v) for v in self.unitaries(xs)])
        return xs, self.rows(projected)


def nogo_search_ancilla(cfg: SearchConfig, jobs: int = 1) -> SearchResult:
    """Search U(M), M > 2, for an entangling gate that avoids all bunching.

    The constraint weight combines (a) the closed-form error-avoidance
    residuals for two photons entering each ancilla mode, (b) the
    computational/bunched leakage of the lifted matrix on the sector with
    2 + ancilla_photons photons, and (c) the defect of the four propagated
    computational inputs against a product with a common pure ancilla
    factor.  Feasible candidates (constraint <= leakage_tolerance) exist in
    every restart via projection onto the block-diagonal, bunching-free
    manifold; the best feasible measure is the certificate.

    jobs > 1 spreads restarts over processes with identical results.
    """
    if cfg.modes < 3:
        raise InvalidInputError(f"ancilla search requires modes >= 3, got {cfg.modes}")
    return _search(_AncillaFamily(cfg), cfg, jobs)

"""Numerical certificates that passive linear optics cannot both decouple
bunched states and entangle single-rail qubits.

One restart loop, two search families, both maximizing the operator-Schmidt
entangling measure of the induced two-qubit action:

* ``nogo_search_two_mode``  - the composite gate on two modes, searched on
  its mixing angle alone (its four phases are single-qubit gates, which
  move no score), penalized by its bunched-state leakage.
* ``nogo_search_ancilla``   - a mode unitary on M > 2 modes, searched on
  the rail rows that every score reads (horizontal Hermitian generator,
  4M - 4 real parameters), penalized by the
  error-avoidance residuals, the computational/bunched subspace leakage on
  the top photon sector, and the failure of outputs to factor into a
  computational part times a fixed ancilla state.

Each family supplies a start point, the (measure, constraint) rows of a
stack of points and a snapped or projected candidate on the exactly
feasible manifold; ``_search`` owns the penalty ladder, restarts, trace and
selection, so the reported constrained optimum is a max over genuinely
feasible points and can only under-report the certificate.

The optimizer is an in-package adaptive Nelder-Mead that holds a chunk's
restarts as arrays and advances them together: every round makes one
iteration of each live restart, scoring all four of its trial points in one
call on a stack (and its shrunk vertices, if it shrinks, in a second), and
both families score the whole stack at once, each row bit for bit as for
its point alone.  A restart's path does not depend on the restarts it is
stacked with, and its trace entry records the evaluations, iterations and
stop status.

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
from .fock import _check_lift_size, _entry_index, basis_enumerate, lift_unitary
from .linalg import _as_square, _finite, _integer, exp_i_hermitian, require_unitary
from .modes import _reduce_angles
from .singlerail import (_couplings, _mixer_gates, _polar_blocks, entangling_measure,
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

def _bunched(modes: int, photons: int) -> np.ndarray:
    """(D,) mask of the states of basis_enumerate(modes, photons) with two or
    more photons on a rail, max(n1, n2) >= 2."""
    states = np.array(basis_enumerate(_integer(modes, "modes", 2), photons).states)
    return states[:, :2].max(axis=1) >= 2


def bunched_partition(modes: int, photons: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the N-photon basis into computational and bunched index sets.

    A state is computational when both rail modes hold at most one photon
    (n1 <= 1 and n2 <= 1); it is bunched when max(n1, n2) >= 2.  Ancilla
    occupations are unrestricted.  Returns (computational, bunched) index
    tuples into basis_enumerate(modes, photons).states.
    """
    bunched = _bunched(modes, photons)
    return tuple(np.flatnonzero(~bunched).tolist()), tuple(np.flatnonzero(bunched).tolist())


def _coupling_mask(modes: int, photons: int) -> np.ndarray:
    """(D, D) mask of the computational <-> bunched entries of a sector."""
    bunched = _bunched(modes, photons)
    return bunched[:, None] != bunched[None, :]


def _off_block_norms(v: np.ndarray, split) -> tuple[float, float]:
    """Frobenius norms of the upper-right and lower-left blocks of v at the split."""
    split = _integer(split, "split", 1, v.shape[0] - 1)
    return float(np.linalg.norm(v[:split, split:])), float(np.linalg.norm(v[split:, :split]))


def block_diagonality_defect(v: np.ndarray, split: int = 2) -> float:
    """Frobenius weight of both off-diagonal blocks of v at the given split."""
    return math.hypot(*_off_block_norms(_as_square(v, "matrix"), split))


def block_lemma_check(v: np.ndarray, split: int = 2) -> float:
    """Gap | ||upper-right||_F - ||lower-left||_F | for a unitary.

    Row and column norms of a unitary tie the two off-diagonal blocks
    together, so the gap vanishes identically; in particular a unitary with
    a zero lower-left block has a zero upper-right block.
    """
    upper, lower = _off_block_norms(require_unitary(v, name="mode matrix"), split)
    return abs(upper - lower)


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
        return max(map(abs, self.residuals_first + self.residuals_second), default=0.0)


def dont_cause_errors_residuals(v: np.ndarray) -> AncillaCheckReport:
    """Residuals <vac| a_r^2 V (a_i+)^2 |vac> for rails r in {1,2}, ancilla i.

    Computed from the lifted two-photon sector and cross-checked against the
    closed forms 2*v[0, i]^2 and 2*v[1, i]^2; a route disagreement beyond
    1e-10 raises RuntimeError since it can only come from a kernel defect.
    Block-diagonal v gives identically zero residuals.
    """
    v = require_unitary(v, name="mode matrix")
    if len(v) < 3:
        raise InvalidInputError(f"residuals need at least one ancilla mode, got M={len(v)}")
    lifted = lift_unitary(v, 2, check=False)
    two = np.nonzero(np.array(lifted.basis.states) == 2)[0]  # |2_j>, j = 0..M-1 in turn
    routes = 2.0 * lifted.matrix[np.ix_(two[:2], two[2:])]
    # np.power and np.hypot round as numpy's scalar z ** 2 and abs(z) do
    closed = 2.0 * np.power(v[:2, 2:], 2)
    gap = routes - closed
    worst = float(np.hypot(gap.real, gap.imag).max())
    if worst > 1e-10:
        raise RuntimeError(f"residual routes disagree by {worst:.3e}; lift kernel is broken")
    return AncillaCheckReport(*(tuple(row.tolist()) for row in (*routes, *closed)), worst,
                              block_diagonality_defect(v, 2), block_lemma_check(v, 2))


# ---------------------------------------------------------------------------
# search configuration and results
# ---------------------------------------------------------------------------

# a config with more restarts is rejected before the search allocates them.  At the
# cap a first round scores (n + 1) R points, a later one 4R or fewer; an ancilla call
# scores chunks whose lifts keep at most _SCORE_ENTRIES (4 MiB), so 210 000 points at
# M = 6 (n = 20) peak near 10 MB; two-mode rounds of 40 000 points peak near 65 MB
MAX_RESTARTS = 10_000
_SCORE_ENTRIES = 1 << 18
# more jobs are rejected before any process pool exists, which may start all
# of its workers on the first task; fixed, so a command runs on every machine
MAX_JOBS = 64


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
        if not isinstance(data, dict):
            raise InvalidInputError(f"search config is a {type(data).__name__}, not a JSON object")
        known = {f: data[f] for f in cls.__dataclass_fields__ if f in data}
        unknown = set(data) - set(cls.__dataclass_fields__) - {"mode"}
        if unknown:
            raise InvalidInputError(f"unknown search config fields: {sorted(unknown)}")
        return cls(**known)


@dataclass
class SearchResult:
    """Outcome of a certificate search.

    best_* describe the winning candidate under the search's selection rule
    (max measure over feasible candidates when constrained, the smaller
    constraint winning a tie; max measure overall when unconstrained).
    ``feasible`` records whether any candidate met the leakage tolerance;
    for constrained runs it is always expected to be True thanks to the
    snapped/projected candidates.

    ``best_candidate`` names the winner's kind: ``"endpoint"`` (an optimizer
    endpoint), ``"snapped"`` (two-mode: the endpoint with its mixing angle
    snapped to a multiple of pi/2) or ``"projected"`` (ancilla: the
    endpoint's mode unitary projected onto the feasible manifold).  Two-mode
    ``best_parameters`` is [epsilon], the gate at zero phases: the four
    phases are single-qubit gates, so they change neither score.  A
    projected winner's ``best_parameters`` x are the generator *before*
    projection: its mode unitary projects exp(i H) onto the block-diagonal
    unitaries with a diagonal or antidiagonal rail block.  H holds x[:2] on
    the rail diagonal and x[2::2] + i x[3::2] on the rail rows' entries
    right of it, row by row, and zeros in its ancilla block: 4M - 4 numbers.
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

    def to_jsonable(self) -> dict:  # asdict's deep copy costs ms; trace dicts hold only scalars
        return dict(vars(self), best_parameters=list(self.best_parameters),
                    restart_trace=[dict(entry) for entry in self.restart_trace])


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


def _nelder_mead(objective, x0: np.ndarray, maxiter: int):
    """Adaptive Nelder-Mead (Gao & Han 2012) minimizing objective from each
    row of an (R, n) stack of start points; objective(xs, owner) values the
    points xs of runs owner.
    Returns the (R, n) ends and per run nfev, nit and status (0 converged, 2
    iteration cap), bit for bit those of the adaptive
    ``optimize._minimize_neldermead`` 1.17 (rho = 1 folded in) given maxiter
    alone.  The runs are held as arrays, and each loop pass makes one
    iteration of every live run: once a simplex is sorted, all four of its
    trial points are fixed, so one objective call scores the reflection,
    expansion and both contractions of every run, and a second scores the
    moved vertices of the runs that shrink.  nfev counts only the points the
    source scores; a run that stops leaves the arrays."""
    runs, n = x0.shape
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    # trial points a * xbar + b * worst vertex: reflection, expansion, outside
    # and inside contraction (-1 * w and -chi * w are exact negations)
    a = np.array([[2], [1 + chi], [1 + psi], [1 - psi]])
    b = np.array([[-1], [-chi], [-psi], [psi]])
    axis = np.arange(n)
    sim = np.repeat(x0[:, None], n + 1, axis=1)
    sim[:, axis + 1, axis] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    ids = np.arange(runs)
    fsim = objective(sim.reshape(-1, n), ids.repeat(n + 1)).reshape(runs, n + 1)
    nfev, nit = np.full(runs, n + 1), np.ones(runs, dtype=int)
    x, nfev_at, nit_at = np.empty((runs, n)), np.empty(runs, dtype=int), np.empty(runs, dtype=int)
    # argsort is not stable: sorted here and again in the first pass, as in the source
    base = ids[:, None] * (n + 1)  # each run's first vertex in the flattened sim, fsim
    order = fsim.argsort(axis=1) + base
    sim, fsim = sim.reshape(-1, n).take(order, axis=0), fsim.take(order)
    while True:
        order = fsim.argsort(axis=1) + base
        sim, fsim = sim.reshape(-1, n).take(order, axis=0), fsim.take(order)
        # stop the capped runs and the converged ones (sorted values spread
        # over last - first)
        capped = nit >= maxiter
        stop = capped | (fsim[:, -1] - fsim[:, 0] <= _FATOL)
        if np.count_nonzero(stop):
            stop &= capped | (abs(sim[:, 1:] - sim[:, :1]).max(axis=(1, 2)) <= _XATOL)
            if np.count_nonzero(stop):
                done = ids[stop]
                x[done], nfev_at[done], nit_at[done] = sim[stop, 0], nfev[stop], nit[stop]
                ids, sim, fsim, nfev, nit = (v[~stop] for v in (ids, sim, fsim, nfev, nit))
                if not ids.size:
                    break
                base = base[:ids.size]
        xbar = sim[:, :-1].sum(axis=1) / n
        trial = a * xbar[:, None] + b * sim[:, -1:]
        f = objective(trial.reshape(-1, n), ids.repeat(4)).reshape(-1, 4)
        fr, fe, fc, fcc = f.T
        expand = fr < fsim[:, 0]
        reflect = ~expand & (fr < fsim[:, -2])
        outside = ~expand & ~reflect & (fr < fsim[:, -1])
        inside = ~(expand | reflect | outside)
        # the trial that replaces the worst vertex unless the run shrinks; an
        # expansion no better than its reflection keeps the reflection
        pick = (expand & (fe < fr)) + 2 * outside + 3 * inside
        shrink = outside & ~(fc <= fr) | inside & ~(fcc < fsim[:, -1])
        nfev += 1 + ~reflect + n * shrink
        nit += 1
        every, keep = np.arange(ids.size), ~shrink
        np.copyto(sim[:, -1], trial[every, pick], where=keep[:, None])
        np.copyto(fsim[:, -1], f[every, pick], where=keep)
        if np.count_nonzero(shrink):
            # a shrinking run scores its n moved vertices, in the source's order
            moved = sim[shrink, :1] + sigma * (sim[shrink, 1:] - sim[shrink, :1])
            sim[shrink, 1:] = moved
            fsim[shrink, 1:] = objective(moved.reshape(-1, n), ids[shrink].repeat(n)).reshape(-1, n)
    return x, nfev_at, nit_at, np.where(nit_at >= maxiter, 2, 0)


def _run_chunk(args: tuple) -> list[tuple[dict, list[_Candidate]]]:
    """Nelder-Mead runs of measure - mu * constraint for restarts lo..hi-1,
    advanced together: each round scores the four trial points of every live
    run in one family.scores call (and the vertices of the runs that shrink
    in a second), and each run sees only its own values.  Per restart, its
    trace entry and candidates (endpoint and feasible point)."""
    family, cfg, mus, lo, hi = args
    mu = np.array(mus[lo:hi])

    def objective(xs, owner):
        scores = family.scores(xs)
        return mu.take(owner) * scores[:, 1] - scores[:, 0]

    starts = np.array([family.start(_task_rng(cfg.seed, r)) for r in range(lo, hi)])
    ends, *counts = _nelder_mead(objective, starts, cfg.max_iterations)
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
    """task(args + (lo, hi)) over a search's count restarts cut into
    min(jobs, count) contiguous chunks, in-process for one chunk, else one
    process each, with the results joined in index order.  They do not
    depend on jobs (an integer in 1..MAX_JOBS, not a bool): a restart draws
    from its own ``_task_rng`` stream and follows its own Nelder-Mead path
    whatever it is stacked with, so it comes out the same in any chunk."""
    jobs = min(_integer(jobs, "jobs", 1, MAX_JOBS), count)
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
        # must be an upper bound over everything the search could certify;
        # of equal measures, the smaller constraint
        best = (max(feasible, key=lambda c: (c[2], -c[3])) if feasible
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
    """The mixing angle epsilon alone.  The four phases are single-qubit
    gates on either side of the mixer, so they move neither the measure nor
    the magnitude of any bunched coupling: an exact gauge, scored at zero.
    The feasible candidate snaps epsilon to the nearest multiple of pi/2
    (exactly decoupled)."""

    kind = "snapped"

    def start(self, rng: np.random.Generator) -> np.ndarray:
        eps = rng.uniform(-math.pi, math.pi)
        # saddle avoidance: keep the mixing angle away from multiples of pi/4
        while abs(math.remainder(eps, math.pi / 4.0)) < 0.15:
            eps = rng.uniform(-math.pi, math.pi)
        return np.array([eps])

    def scores(self, xs: np.ndarray) -> np.ndarray:
        """(measure, leakage) rows of an (L, 1) stack of mixing angles, each
        as the single-gate functions give it for its gate at zero phases."""
        gates = _mixer_gates(_reduce_angles(xs[:, 0]))
        scores = np.empty((len(xs), 2))
        # read at call time from this module; a replacement may return a scalar
        scores[:, 0] = entangling_measure(nearest_unitary_block(gates))
        scores[:, 1] = _couplings(gates)[1]
        return scores

    def feasible(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        snapped = np.array([[round(e / (math.pi / 2.0)) * (math.pi / 2.0)] for e in xs[:, 0]])
        return snapped, self.scores(snapped)


def nogo_search_two_mode(cfg: SearchConfig, jobs: int = 1) -> SearchResult:
    """Search the composite-gate family for entangling power.

    The search runs over the mixing angle epsilon alone, at zero phases: the
    four phases are single-qubit gates, which change neither the measure
    nor any bunched coupling's magnitude, so best_parameters is [epsilon].
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
    if (cfg.modes, cfg.ancilla_photons) != (2, 0):
        raise InvalidInputError("two-mode search requires modes=2 and ancilla_photons=0, "
                                f"got {cfg.modes} and {cfg.ancilla_photons}")
    return _search(_TwoModeFamily(), cfg, jobs)


# ---------------------------------------------------------------------------
# ancilla-assisted search
# ---------------------------------------------------------------------------

def _project_feasible(v: np.ndarray) -> np.ndarray:
    """Project a mode unitary onto the exactly feasible manifold.

    Off-diagonal blocks are zeroed and the rail block re-unitarized, then
    pushed to the nearer of diagonal or antidiagonal form (the zero-bunching
    two-mode unitaries).  The ancilla block becomes 1: the scores read only
    the rail rows, so any unitary ancilla block scores the same.
    """
    ua, _, vha = np.linalg.svd(v[:2, :2])
    a = ua @ vha
    w = np.abs(a) ** 2
    # rail block entries kept: (0, 0), (1, 1) if diagonal, (0, 1), (1, 0) if not
    pair = ([0, 1], [0, 1] if w[0, 0] + w[1, 1] >= w[0, 1] + w[1, 0] else [1, 0])
    out = np.eye(len(v), dtype=complex)
    out[:2, :2] = 0.0
    out[pair] = [z / abs(z) if abs(z) > 1e-12 else 1.0 for z in a[pair]]
    return out


class _AncillaFamily:
    """A horizontal Hermitian generator H = [[A, B], [B^dag, 0]] on M modes,
    A the 2 x 2 rail block and B the 2 x (M - 2) rail-ancilla block: 4M - 4
    real parameters, the real dimension of the rail rows V[:2, :] that every
    score reads.  The feasible candidate projects the endpoint's mode
    unitary onto the exactly feasible manifold and keeps the unprojected
    generator as its parameters (the projection is deterministic, so the
    point is reproducible).

    The four computational inputs |n1 n2> ride along with all ancilla
    photons in the first ancilla mode; each output is compared, per rail
    occupation, with the ancilla state chi that the input |0 0> leaves.
    A stack is scored ``lanes`` points at a time, as many as keep _SCORE_ENTRIES
    lifted entries (at every packaged size, the whole stack).
    """

    kind = "projected"

    def __init__(self, cfg: SearchConfig):
        m, k = cfg.modes, cfg.ancilla_photons
        self.lanes = max(1, _SCORE_ENTRIES // _check_lift_size(m, k + 2))
        self.modes, self.photons = m, k + 2
        # generator: x[:2] on the rail diagonal, then (re, im) pairs of the rail rows'
        # entries right of it, row by row; H = x @ gen is exact (each entry is +-1 x)
        upper = np.triu_indices(m, 1)
        i, j = (u[upper[0] < 2] for u in upper)
        q = 2 + 2 * np.arange(len(i))
        gen = np.zeros((4 * m - 4, m, m), dtype=complex)
        gen[[0, 1], [0, 1], [0, 1]] = 1.0
        gen[q, i, j] = gen[q, j, i] = 1.0
        gen[q + 1, i, j], gen[q + 1, j, i] = 1j, -1j
        self.gen = gen.reshape(4 * m - 4, -1).view(float)
        ancilla = basis_enumerate(m - 2, k).states
        # a lane's entries: the 2 (M - 2) rail-ancilla entries of v, from starts[0] the top
        # sector's computational <-> bunched entries and from starts[1] the output columns of
        # the first four rail occupations, the computational inputs in gate column order; a
        # row of ``blocks`` holds the (rails, ancilla state) positions of one input's rail
        # occupation, ``gate_at`` the flat gate entry of each computational row ``gate_rows``
        gather = [_entry_index(m, 1, np.arange(2)[:, None], np.arange(2, m)),
                  _entry_index(m, k + 2, *np.nonzero(_coupling_mask(m, k + 2)))]
        self.starts = (2 * (m - 2), 2 * (m - 2) + len(gather[1]))
        rails = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2))
        blocks, self.gate_rows, self.gate_at = [], [], []
        offset = self.starts[1]
        for c, n in enumerate(rails[:4]):
            basis = basis_enumerate(m, sum(n) + k)
            d = len(basis)  # input n's output column
            gather.append(_entry_index(m, sum(n) + k, np.arange(d), basis.index(n + ancilla[0])))
            for r in (r for r in rails if sum(r) == sum(n)):
                if max(r) <= 1:
                    self.gate_rows.append(len(blocks))
                    self.gate_at.append(4 * (2 * r[0] + r[1]) + c)
                blocks.append([offset + basis.index(r + a) for a in ancilla])
            offset += d
        self.gather = np.concatenate([g.ravel() for g in gather])
        self.blocks = np.array(blocks, dtype=np.intp)
        self.gate_rows, self.gate_at = np.array(self.gate_rows), np.array(self.gate_at)

    def start(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-math.pi, math.pi, size=4 * self.modes - 4)

    def unitaries(self, xs: np.ndarray) -> np.ndarray:
        """(L, M, M) mode unitaries exp(i H) of an (L, 4M - 4) stack of generators."""
        h = (xs @ self.gen).view(complex).reshape(-1, self.modes, self.modes)
        # read at call time from this module, where perfbench traces it
        return exp_i_hermitian(h)

    def scores(self, xs: np.ndarray) -> np.ndarray:
        """(measure, constraint) rows of an (L, 4M - 4) stack of generators,
        each row bit for bit as for its point alone."""
        out = np.empty((len(xs), 2))
        for a in range(0, len(xs), self.lanes):
            out[a:a + self.lanes] = self.rate(self.unitaries(xs[a:a + self.lanes]))[0]
        return out

    def rate(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(L, 2) (entangling measure, constraint weight) rows and (L, 4, 4)
        induced gates of an (L, M, M) stack of mode unitaries.  Sums run along
        a row's entries, so a row does not depend on the rows beside it."""
        lanes = len(v)
        cols = lift_unitary(v, self.photons, check=False).entries.take(self.gather, axis=1)
        blocks = cols.take(self.blocks, axis=1)
        # chi: the ancilla part of the |0 0> output, or the first ancilla state
        first = blocks[:, 0]
        chi_norm = np.sqrt(np.add.reduce(first.real * first.real + first.imag * first.imag, axis=1))
        chi = first / np.maximum(chi_norm, 1e-12)[:, None]
        lost = chi_norm < 1e-12
        if np.count_nonzero(lost):
            chi[lost] = np.eye(chi.shape[1])[0]
        # factorization defect: what remains of the output columns once each
        # block loses its projection on chi is weight outside the product form
        # (wrong ancilla state, or a photon moved between rails and ancillas)
        amps = np.matmul(blocks, chi.conj()[:, :, None])
        cols[:, self.blocks] = blocks - amps * chi[:, None, :]
        gate = np.zeros((16, lanes), dtype=complex)  # entry-major, as the measure reads it
        gate[self.gate_at] = amps[:, self.gate_rows, 0].T
        gate = gate.T.reshape(lanes, 4, 4)
        scores = np.empty((lanes, 2))
        # written into its column, so a replacement measure may return a scalar
        scores[:, 0] = entangling_measure(_polar_blocks(gate))
        a, b = self.starts
        sq = cols.real * cols.real + cols.imag * cols.imag
        # closed-form error-avoidance amplitudes 2 v[r, i]^2, rails r, ancillas i
        residual = 2.0 * np.sqrt(np.add.reduce(sq[:, :a] ** 2, axis=1))
        # leakage, residual and factorization defect
        scores[:, 1] = (np.sqrt(np.add.reduce(sq[:, a:b], axis=1)) + residual
                        + np.sqrt(np.add.reduce(sq[:, b:], axis=1)))
        return scores, gate

    def feasible(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        projected = np.array([_project_feasible(v) for v in self.unitaries(xs)])
        return xs, np.concatenate([self.rate(projected[a:a + self.lanes])[0]
                                   for a in range(0, len(xs), self.lanes)])


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

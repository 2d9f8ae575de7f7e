import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import focklift.nogo
from focklift.errors import InvalidInputError, ResourceLimitError
from focklift.fock import lift_unitary, LiftedUnitary
from focklift.linalg import exp_i_hermitian, haar_random_unitary
from focklift.modes import beam_splitter, composite_gate_mode_matrix, CompositeGateParams
from focklift.nogo import (
    _AncillaFamily,
    _coupling_mask,
    _penalty_levels,
    _project_feasible,
    _run_chunk,
    _run_restarts,
    _select_best,
    _task_rng,
    _TwoModeFamily,
    AncillaCheckReport,
    block_diagonality_defect,
    block_lemma_check,
    bunched_partition,
    dont_cause_errors_residuals,
    MAX_JOBS,
    MAX_RESTARTS,
    nogo_search_ancilla,
    nogo_search_two_mode,
    SearchConfig,
    SearchResult,
)
from focklift.singlerail import (
    composite_gate_fock,
    entangling_measure,
    leakage,
    nearest_unitary_block,
)


def block_diag_unitary(rng, top, bottom):
    v = np.zeros((top + bottom, top + bottom), dtype=complex)
    v[:top, :top] = haar_random_unitary(top, rng)
    v[top:, top:] = haar_random_unitary(bottom, rng)
    return v


# ---------------------------------------------------------------------------
# partition and leakage
# ---------------------------------------------------------------------------

def test_partition_two_modes():
    comp, bunch = bunched_partition(2, 2)
    basis = [(2, 0), (1, 1), (0, 2)]
    assert [basis[i] for i in comp] == [(1, 1)]
    assert [basis[i] for i in bunch] == [(2, 0), (0, 2)]


def test_partition_counts_and_disjointness():
    comp_counts = {(2, 0): 1, (2, 1): 2, (2, 2): 1, (3, 2): 4, (3, 3): 4, (4, 3): 12}
    for (modes, photons), comp_count in comp_counts.items():
        comp, bunch = bunched_partition(modes, photons)
        assert len(comp) == comp_count
        states = lift_unitary(np.eye(modes, dtype=complex), photons).basis.states
        assert sorted(comp + bunch) == list(range(len(states)))
        for i in comp:
            assert states[i][0] <= 1 and states[i][1] <= 1
        for i in bunch:
            assert max(states[i][0], states[i][1]) >= 2


def test_partition_needs_two_rails():
    with pytest.raises(InvalidInputError):
        bunched_partition(1, 2)


def test_partition_and_mask_follow_the_per_state_rule():
    # each state on its own: bunched when a rail holds two or more photons
    for modes in range(2, 7):
        for photons in range(7):
            states = lift_unitary(np.eye(modes), photons).basis.states
            bunched = [max(s[0], s[1]) >= 2 for s in states]
            comp, bunch = bunched_partition(modes, photons)
            assert comp == tuple(i for i, b in enumerate(bunched) if not b)
            assert bunch == tuple(i for i, b in enumerate(bunched) if b)
            mask = _coupling_mask(modes, photons)
            assert mask.tolist() == [[a != b for b in bunched] for a in bunched]


def subspace_leakage(lifted: LiftedUnitary) -> float:
    """Frobenius weight of the computational <-> bunched couplings of a
    lifted matrix (both directions)."""
    mask = _coupling_mask(lifted.basis.modes, lifted.basis.photons)
    return float(np.linalg.norm(lifted.matrix[mask]))


def test_subspace_leakage_matches_two_mode_law():
    for eps in (0.0, 0.3, math.pi / 4, 1.2):
        v = composite_gate_mode_matrix(CompositeGateParams(0.2, -0.5, 0.9, 0.1, eps))
        lifted = lift_unitary(v, 2)
        assert subspace_leakage(lifted) == pytest.approx(
            math.sqrt(2) * abs(math.sin(2 * eps)), abs=1e-12)


def test_subspace_leakage_zero_when_rails_stay_separate():
    # photons never change rail occupation if the rail block is diagonal
    # or antidiagonal, regardless of what happens on the ancilla modes
    rng = np.random.default_rng(40)
    v = block_diag_unitary(rng, 2, 2)
    v[:2, :2] = np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, 2)))
    assert subspace_leakage(lift_unitary(v, 2)) < 1e-14
    assert subspace_leakage(lift_unitary(v, 3)) < 1e-14

    swap = np.zeros((2, 2), dtype=complex)
    swap[0, 1] = np.exp(0.7j)
    swap[1, 0] = np.exp(-0.2j)
    v[:2, :2] = swap
    assert subspace_leakage(lift_unitary(v, 2)) < 1e-14


# ---------------------------------------------------------------------------
# block structure lemma
# ---------------------------------------------------------------------------

def test_block_defect_known_value():
    v = np.eye(4, dtype=complex)
    v[0, 3] = 0.3
    v[3, 1] = 0.4
    assert block_diagonality_defect(v, 2) == pytest.approx(0.5)
    # True once split as 1, and a NaN matrix once gave a NaN defect
    for split in (0, 4, True, 1.5):
        for check in (block_diagonality_defect, block_lemma_check):
            with pytest.raises(InvalidInputError, match="split"):
                check(np.eye(4), split)
    with pytest.raises(InvalidInputError):
        block_diagonality_defect(np.ones((2, 3)), 1)
    with pytest.raises(InvalidInputError, match="non-finite"):
        block_diagonality_defect(np.full((4, 4), np.nan), 2)


def test_lemma_gap_vanishes_on_unitaries():
    rng = np.random.default_rng(41)
    worst = 0.0
    for m in (3, 4, 6):
        for _ in range(50):
            v = haar_random_unitary(m, rng)
            for split in range(1, m):
                worst = max(worst, block_lemma_check(v, split))
    assert worst < 1e-10


def test_lemma_zero_lower_left_forces_zero_upper_right():
    rng = np.random.default_rng(42)
    v = block_diag_unitary(rng, 2, 3)
    assert np.linalg.norm(v[2:, :2]) == 0.0
    assert np.linalg.norm(v[:2, 2:]) == 0.0
    assert block_lemma_check(v, 2) == 0.0


def test_lemma_rejects_non_unitary():
    with pytest.raises(InvalidInputError):
        block_lemma_check(np.ones((3, 3)), 1)


# ---------------------------------------------------------------------------
# error-avoidance residuals
# ---------------------------------------------------------------------------

def test_residual_routes_agree_on_haar():
    rng = np.random.default_rng(43)
    for m in (3, 4, 5):
        for _ in range(10):
            report = dont_cause_errors_residuals(haar_random_unitary(m, rng))
            assert report.max_route_deviation < 1e-10
            assert len(report.residuals_first) == m - 2
            for lifted, closed in zip(report.residuals_first, report.closed_first):
                assert abs(lifted - closed) < 1e-10


def test_residuals_vanish_iff_block_diagonal():
    rng = np.random.default_rng(44)
    vb = block_diag_unitary(rng, 2, 2)
    report = dont_cause_errors_residuals(vb)
    assert report.max_residual() == 0.0
    assert report.block_defect == 0.0
    assert report.lemma_gap == 0.0

    mixing = haar_random_unitary(4, rng)
    assert dont_cause_errors_residuals(mixing).max_residual() > 1e-3


def test_residuals_require_an_ancilla():
    with pytest.raises(InvalidInputError):
        dont_cause_errors_residuals(haar_random_unitary(2, 4))


def test_residual_report_is_frozen():
    report = dont_cause_errors_residuals(haar_random_unitary(3, 5))
    assert isinstance(report, AncillaCheckReport)
    with pytest.raises(AttributeError):
        report.block_defect = 0.0


def test_residual_report_equals_the_per_entry_loop():
    # the loop reads each |2_r> <- |2_i> entry and squares each v[r, i] alone
    rng = np.random.default_rng(45)
    for m in (3, 4, 5, 6) * 10:
        v = haar_random_unitary(m, rng)
        lifted = lift_unitary(v, 2)
        two = [lifted.basis.index(tuple(2 * (j == mode) for j in range(m))) for mode in range(m)]
        routes = [[complex(2.0 * lifted.matrix[two[r], two[i]]) for i in range(2, m)]
                  for r in (0, 1)]
        closed = [[complex(2.0 * v[r, i] ** 2) for i in range(2, m)] for r in (0, 1)]
        worst = max(abs(a - b) for ra, rb in zip(routes, closed) for a, b in zip(ra, rb))
        report = dont_cause_errors_residuals(v)
        assert [list(report.residuals_first), list(report.residuals_second)] == routes
        assert [list(report.closed_first), list(report.closed_second)] == closed
        assert report.max_route_deviation == worst


def test_residual_route_disagreement_is_a_runtime_error(monkeypatch):
    # a lift that is wrong in one |2_0> <- |2_3> entry can only be a kernel defect
    def broken(v, photons, check=True):
        lifted = lift_unitary(v, photons, check)
        lifted.matrix[0, -1] += 1e-6
        return lifted

    monkeypatch.setattr(focklift.nogo, "lift_unitary", broken)
    with pytest.raises(RuntimeError, match="residual routes disagree by 2.000e-06"):
        dont_cause_errors_residuals(haar_random_unitary(4, 6))


# ---------------------------------------------------------------------------
# the reduction of every photon number to the two-photon coupling
# ---------------------------------------------------------------------------

def coupling_weights(v, photons):
    """Squared computational <-> bunched weight of each sector 2..N of v."""
    lifted = lift_unitary(v, photons)
    return {n: float(np.sum(np.abs(lifted.sectors[n][_coupling_mask(len(v), n)]) ** 2))
            for n in range(2, photons + 1)}


def near_feasible(rng, modes, t, rail_ancilla):
    """exp(i t H) times a projected Haar point, with H's rail-ancilla entries
    scaled by rail_ancilla (small: a near-rail-only point)."""
    z = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    h = z + z.conj().T
    h[:2, 2:] *= rail_ancilla
    h[2:, :2] *= rail_ancilla
    return exp_i_hermitian(t * h) @ _project_feasible(haar_random_unitary(modes, rng))


def rail_weights(x):
    """sum_r 2 a b + s^2 + 2 s (a + b) over the rows of x, with a = |x_r0|^2,
    b = |x_r1|^2 and s the weight of the rest of the row: no term cancels."""
    a, b = np.abs(x[:, 0]) ** 2, np.abs(x[:, 1]) ** 2
    s = np.sum(np.abs(x[:, 2:]) ** 2, axis=1)
    return float(np.sum(2 * a * b + s * s + 2 * s * (a + b)))


def reduction_points(modes, rng):
    return ([haar_random_unitary(modes, rng) for _ in range(4)]
            + [near_feasible(rng, modes, t, 1.0) for t in (1e-1, 1e-2, 1e-3, 1e-4)]
            + [near_feasible(rng, modes, t, 1e-6) for t in (1e-1, 1e-2, 1e-3, 1e-4)])


@pytest.mark.parametrize("modes", [3, 4, 5, 6])
def test_more_photons_never_lower_the_coupling_below_two_photons(modes):
    # coupling^2(M, N) >= C(N + M - 5, M - 3) coupling^2(M, 2): the N - 2 extra
    # photons can sit in C(N + M - 5, M - 3) ancilla patterns, each a copy
    rng = np.random.default_rng(2600 + modes)
    for v in reduction_points(modes, rng):
        weights = coupling_weights(v, 6)
        for n in range(3, 7):
            assert weights[n] >= math.comb(n + modes - 5, modes - 3) * weights[2] * (1 - 1e-12)


@pytest.mark.parametrize("modes", [3, 4, 5, 6])
def test_the_coupling_bound_is_an_equality_on_block_diagonal_unitaries(modes):
    # with V = A (+) B the ancilla photons stay put
    weights = coupling_weights(block_diag_unitary(np.random.default_rng(2610 + modes), 2,
                                                  modes - 2), 6)
    for n in range(3, 7):
        bound = math.comb(n + modes - 5, modes - 3) * weights[2]
        assert weights[n] == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("modes", [3, 4, 6, 8])
def test_two_photon_coupling_has_a_closed_form_in_the_rail_rows_and_columns(modes):
    # rows: computational -> bunched; columns: bunched -> computational
    rng = np.random.default_rng(2620 + modes)
    for v in reduction_points(modes, rng):
        closed = rail_weights(v[:2, :]) + rail_weights(v[:, :2].T)
        assert closed == pytest.approx(coupling_weights(v, 2)[2], rel=1e-15, abs=0.0)


# ---------------------------------------------------------------------------
# search configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(InvalidInputError):
        SearchConfig(modes=1)
    with pytest.raises(InvalidInputError):
        SearchConfig(restarts=0)
    with pytest.raises(InvalidInputError):
        SearchConfig(max_iterations=0)
    with pytest.raises(InvalidInputError):
        SearchConfig(leakage_tolerance=0.0)
    with pytest.raises(InvalidInputError):
        SearchConfig(penalty_weight=-1.0)
    with pytest.raises(InvalidInputError):
        SearchConfig(ancilla_photons=-1)


@pytest.mark.parametrize("field, value", [
    ("penalty_weight", float("nan")),
    ("penalty_weight", float("inf")),
    ("leakage_tolerance", float("nan")),
    ("certification_threshold", float("-inf")),
    ("certification_threshold", -1.0),
    ("certification_threshold", 0.0),
    ("penalty_weight", "1e5"),
    ("penalty_weight", True),
    ("restarts", 2.5),
    ("restarts", "3"),
    ("restarts", True),
    ("restarts", 0),
    ("restarts", MAX_RESTARTS + 1),
    ("max_iterations", 400.0),
    ("modes", None),
    ("seed", "x"),
    ("seed", -1),
])
def test_config_rejects_malformed_fields(field, value):
    # each of these once ran a different search, or crashed with a TypeError
    with pytest.raises(InvalidInputError, match=field):
        SearchConfig(**{field: value})
    with pytest.raises(InvalidInputError, match=field):
        SearchConfig.from_jsonable(json.loads(json.dumps({field: value})))


def test_config_accepts_numpy_scalars():
    cfg = SearchConfig(restarts=np.int64(3), seed=np.int32(4), penalty_weight=np.float64(10.0))
    assert _penalty_levels(cfg) == [10.0]


def test_config_json_round_trip():
    cfg = SearchConfig(modes=3, ancilla_photons=1, restarts=7, seed=9)
    back = SearchConfig.from_jsonable(cfg.to_jsonable())
    assert back == cfg
    # the CLI discriminator key is tolerated, anything else rejected
    SearchConfig.from_jsonable({"mode": "ancilla", "modes": 3})
    with pytest.raises(InvalidInputError):
        SearchConfig.from_jsonable({"modes": 3, "restart": 5})
    # a config that is not a JSON object once raised a TypeError
    for data in (None, [1], "two_mode", 3):
        with pytest.raises(InvalidInputError, match="not a JSON object"):
            SearchConfig.from_jsonable(data)


def test_penalty_ladder():
    assert _penalty_levels(SearchConfig(penalty_weight=0.0)) == [0.0]
    assert _penalty_levels(SearchConfig(penalty_weight=10.0)) == [10.0]
    assert _penalty_levels(SearchConfig(penalty_weight=50.0)) == [10.0, 50.0]
    assert _penalty_levels(SearchConfig(penalty_weight=1e5)) == [10.0, 100.0, 1000.0, 1e4, 1e5]


# ---------------------------------------------------------------------------
# two-mode search
# ---------------------------------------------------------------------------

def test_two_mode_constrained_certifies():
    cfg = SearchConfig(modes=2, restarts=8, max_iterations=250,
                       penalty_weight=1e5, seed=50)
    result = nogo_search_two_mode(cfg)
    assert result.constrained
    assert result.feasible
    assert result.best_leakage <= cfg.leakage_tolerance
    assert result.best_entangling_measure < 1e-6
    assert len(result.restart_trace) == cfg.restarts


def test_two_mode_unconstrained_entangles():
    cfg = SearchConfig(modes=2, restarts=8, max_iterations=300,
                       penalty_weight=0.0, seed=51)
    result = nogo_search_two_mode(cfg)
    assert not result.constrained
    assert result.best_entangling_measure > 0.1
    assert result.best_leakage > 1e-3


def timeless(result):
    """A result's JSON without its wall time, as --no-timestamps reports it."""
    doc = result.to_jsonable()
    del doc["wall_time"]
    return json.dumps(doc, sort_keys=True)


def test_two_mode_search_is_deterministic_and_jobs_invariant():
    cfg = SearchConfig(modes=2, restarts=4, max_iterations=150,
                       penalty_weight=1e5, seed=52)
    a = timeless(nogo_search_two_mode(cfg))
    assert a == timeless(nogo_search_two_mode(cfg))
    assert a == timeless(nogo_search_two_mode(cfg, jobs=2))
    assert a == timeless(nogo_search_two_mode(cfg, jobs=3))


def test_two_mode_rejects_other_mode_counts():
    for cfg in (SearchConfig(modes=3), SearchConfig(modes=2, ancilla_photons=1)):
        with pytest.raises(InvalidInputError):
            nogo_search_two_mode(cfg)


@pytest.mark.parametrize("search, modes", [(nogo_search_two_mode, 2), (nogo_search_ancilla, 3)],
                         ids=["two_mode", "ancilla"])
@pytest.mark.parametrize("jobs", [0, -1, 1.5, 2.0, True, False, "2", None, MAX_JOBS + 1])
def test_search_rejects_a_bad_jobs_value_before_any_restart(monkeypatch, search, modes, jobs):
    def refuse(args):
        raise AssertionError("a restart ran")

    monkeypatch.setattr(focklift.nogo, "_run_chunk", refuse)
    with pytest.raises(InvalidInputError, match="jobs"):
        search(SearchConfig(modes=modes, restarts=2), jobs=jobs)


def test_chunk_in_a_fresh_worker_matches_in_process():
    args = (_TwoModeFamily(), SearchConfig(modes=2, restarts=3, max_iterations=40, seed=55),
            [10.0, 100.0, 1e5], 0, 3)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        fresh = pool.submit(_run_chunk, args).result(timeout=300)
    assert fresh == _run_chunk(args)


def test_unknown_nogo_attribute_is_still_an_attribute_error():
    with pytest.raises(AttributeError, match="nonexistent"):
        focklift.nogo.nonexistent
    assert not hasattr(focklift.nogo, "nonexistent")


def test_search_result_timing_switch():
    # the result always carries its wall time; the CLI drops it under
    # --no-timestamps (test_cli.test_nogo_two_mode_certifies)
    cfg = SearchConfig(modes=2, restarts=2, max_iterations=60,
                       penalty_weight=1e5, seed=53)
    result = nogo_search_two_mode(cfg)
    assert isinstance(result, SearchResult)
    assert result.to_jsonable()["wall_time"] == result.wall_time >= 0.0


def test_search_report_is_a_copy_of_the_result():
    # the report holds the result's fields, as dataclasses.asdict gives
    # them, and editing its lists or trace entries leaves the result alone
    cfg = SearchConfig(modes=3, restarts=2, max_iterations=40, seed=54)
    result = nogo_search_ancilla(cfg)
    body = result.to_jsonable()
    assert body == asdict(result)
    body["best_parameters"].append(0.0)
    body["restart_trace"][0]["mu"] = -1.0
    body["restart_trace"].clear()
    assert result.to_jsonable() == asdict(result)
    assert len(result.restart_trace) == 2 and result.restart_trace[0]["mu"] != -1.0
    assert len(result.best_parameters) == 4 * 3 - 4


@pytest.mark.parametrize("count, jobs, bounds", [
    (5, 1, [(0, 5)]),
    (5, 3, [(0, 1), (1, 3), (3, 5)]),
    (3, 8, [(0, 1), (1, 2), (2, 3)]),
])
def test_runner_cuts_contiguous_chunks_in_index_order(inline_pools, count, jobs, bounds):
    ran = []

    def task(args):
        tag, lo, hi = args
        ran.append((lo, hi))
        return [(tag, i) for i in range(lo, hi)]

    assert _run_restarts(task, ("t",), count, jobs) == [("t", i) for i in range(count)]
    assert ran == bounds
    # one chunk runs in-process; more get one worker each
    assert [(p.max_workers, len(p.tasks)) for p in inline_pools] == (
        [] if len(bounds) == 1 else [(len(bounds), len(bounds))])


# ---------------------------------------------------------------------------
# ancilla search internals
# ---------------------------------------------------------------------------

def ancilla_family(modes, ancilla_photons=0):
    return _AncillaFamily(SearchConfig(modes=modes, ancilla_photons=ancilla_photons))


def test_projection_lands_on_feasible_manifold():
    rng = np.random.default_rng(54)
    for m, k in ((3, 0), (4, 1), (4, 2)):
        family = ancilla_family(m, k)
        for _ in range(5):
            vp = _project_feasible(haar_random_unitary(m, rng))
            assert np.linalg.norm(vp[:2, 2:]) == 0.0
            assert np.linalg.norm(vp[2:, :2]) == 0.0
            (meas, constraint), = family.rate(vp[np.newaxis])[0]
            assert constraint < 1e-10
            assert meas < 1e-10


def test_ancilla_eval_identity_gate():
    family = ancilla_family(3)
    scores, gates = family.rate(np.eye(3, dtype=complex)[np.newaxis])
    (meas, constraint), gate = scores[0], gates[0]
    assert constraint < 1e-14
    assert meas < 1e-14
    assert np.max(np.abs(gate - np.eye(4))) < 1e-14


class _NoCouplingFamily(_AncillaFamily):
    """A mutant whose rate drops the computational <-> bunched coupling term
    and nothing else: it gathers no coupling entries, so that term sums none."""

    def __init__(self, cfg):
        super().__init__(cfg)
        a, b = self.starts
        self.gather = np.delete(self.gather, np.s_[a:b])
        self.blocks = self.blocks - (b - a)
        self.starts = (a, a)


def test_coupling_term_alone_rejects_a_clean_entangling_witness():
    # positive control: without the coupling term, a 50:50 splitter on the
    # rails with the ancilla idle scores exactly feasible and entangling, so
    # that term is what keeps the certificate from passing a false no-go
    cfg = SearchConfig(modes=3, ancilla_photons=0)
    v = np.eye(3, dtype=complex)
    v[:2, :2] = beam_splitter(math.pi / 4)
    (measure, constraint), = _NoCouplingFamily(cfg).rate(v[np.newaxis])[0]
    assert measure == pytest.approx(0.2714466094067265, abs=1e-15)
    assert constraint == 0.0
    (real_measure, real_constraint), = _AncillaFamily(cfg).rate(v[np.newaxis])[0]
    assert real_measure == measure
    assert real_constraint == pytest.approx(math.sqrt(2), abs=1e-15)


def test_ancilla_eval_flags_rail_mixing():
    # a beam splitter across the rails bunches photons: constraint must be big
    v = np.eye(3, dtype=complex)
    v[:2, :2] = composite_gate_mode_matrix(CompositeGateParams(0, 0, 0, 0, math.pi / 4))
    family = ancilla_family(3)
    (_, constraint), = family.rate(v[np.newaxis])[0]
    assert constraint > 1.0


@pytest.mark.parametrize("modes, ancilla_photons", [(3, 0), (4, 1), (4, 2), (5, 2)])
def test_ancilla_rows_have_a_gauge_on_the_output_ancillas(modes, ancilla_photons):
    # (1_2 (+) B) V keeps the rail rows V[:2, :], which are all the scores
    # depend on; V (1_2 (+) B) mixes the input ancilla modes instead, which
    # changes the scores once an ancilla photon has somewhere to go
    rng = np.random.default_rng(69)
    family = ancilla_family(modes, ancilla_photons)
    v = np.array([haar_random_unitary(modes, rng) for _ in range(20)])
    gauge = np.tile(np.eye(modes, dtype=complex), (20, 1, 1))
    gauge[:, 2:, 2:] = [haar_random_unitary(modes - 2, rng) for _ in range(20)]
    rows = family.rate(v)[0]
    assert np.max(np.abs(family.rate(gauge @ v)[0] - rows)) <= 1e-13
    if modes > 3:
        assert np.all(np.max(np.abs(family.rate(v @ gauge)[0] - rows), axis=1) > 1e-3)


def full_generator_unitary(x):
    """exp(i H) of a full Hermitian generator on M modes, the layout the
    golden cases were recorded in: x[:M] on the diagonal, then (re, im)
    pairs of the upper triangle row by row, M^2 numbers."""
    m = math.isqrt(len(x))
    upper = np.triu_indices(m, 1)
    h = np.diag(x[:m]).astype(complex)
    h[upper] = x[m::2] + 1j * x[m + 1::2]
    h[upper[::-1]] = h[upper].conj()
    return exp_i_hermitian(h)


def test_ancilla_objective_matches_golden_values():
    # (measure, constraint, gate) recorded from the per-rail loop evaluation
    # that the index-table family replaced, on a Haar unitary, a generator
    # point and a point 1e-4 away from the feasible manifold per (M, k)
    golden = json.loads((Path(__file__).with_name("ancilla_golden.json")).read_text())
    assert {(c["modes"], c["ancilla_photons"]) for c in golden} == {
        (3, 0), (4, 1), (4, 2), (5, 2)}
    stacks = {}
    for case in golden:
        m, seed = case["modes"], case["seed"]
        family = ancilla_family(m, case["ancilla_photons"])
        x = np.random.default_rng(seed).uniform(-math.pi, math.pi, m * m)
        haar = haar_random_unitary(m, seed)
        v = {"haar": haar, "generator": full_generator_unitary(0.05 * x),
             "near": _project_feasible(haar) @ full_generator_unitary(1e-4 * x)}[case["unitary"]]
        scores, gates = family.rate(v[np.newaxis])
        (meas, constraint), gate = scores[0], gates[0]
        assert abs(meas - case["measure"]) <= 1e-12
        assert abs(constraint - case["constraint"]) <= 1e-12
        expected = np.array([[complex(*z) for z in row] for row in case["gate"]])
        assert np.max(np.abs(gate - expected)) <= 1e-12
        stack = stacks.setdefault((m, case["ancilla_photons"]), (family, [], [], []))
        for part, value in zip(stack[1:], (v, scores[0], gate)):
            part.append(value)
    # the cases of one (M, k) stacked score each row as it scored alone
    for family, vs, scores, gates in stacks.values():
        stacked_scores, stacked_gates = family.rate(np.array(vs))
        assert np.array_equal(stacked_scores, np.array(scores))
        assert np.array_equal(stacked_gates, np.array(gates))


@pytest.mark.parametrize("modes, ancilla_photons", [(3, 0), (4, 1), (5, 2)])
def test_no_ancilla_parameter_is_a_gauge_direction(modes, ancilla_photons):
    # the scores read only the rail rows V[:2, :], a point of a manifold of
    # real dimension 4M - 4; a parameter that left them in place would be a
    # flat direction of every objective, so their real Jacobian must have
    # full column rank
    family = ancilla_family(modes, ancilla_photons)
    x = family.start(np.random.default_rng(77 + modes))
    step = 1e-6 * np.eye(len(x))
    diff = (family.unitaries(x + step) - family.unitaries(x - step))[:, :2, :] / 2e-6
    jacobian = np.concatenate([diff.real, diff.imag], axis=1).reshape(len(x), -1).T
    singular = np.linalg.svd(jacobian, compute_uv=False)
    assert len(singular) == 4 * modes - 4
    assert singular[-1] > 1e-3


def scatter_generators(modes, xs):
    """The generators H of a stack, scattered entry by entry: x[:2] on the
    rail diagonal, then (re, im) pairs of the rail rows' entries right of it,
    row by row, mirrored as their conjugates (the oracle for the map)."""
    upper = np.triu_indices(modes, 1)
    rail = upper[0] < 2
    rows = np.concatenate([[0, 1], upper[0][rail]])
    cols = np.concatenate([[0, 1], upper[1][rail]])
    entries = np.concatenate([xs[:, :2], xs[:, 2::2] + 1j * xs[:, 3::2]], axis=1)
    h = np.zeros((len(xs), modes, modes), dtype=complex)
    h[:, cols, rows] = entries.conj()
    h[:, rows, cols] = entries
    return h


@pytest.mark.parametrize("modes", [3, 4, 5, 6])
def test_generator_map_gives_the_scattered_generators(monkeypatch, modes):
    family = ancilla_family(modes)
    xs = np.random.default_rng(80 + modes).uniform(-math.pi, math.pi, (9, 4 * modes - 4))
    xs[0], xs[1, ::3] = 0.0, 0.0
    seen = []
    monkeypatch.setattr(focklift.nogo, "exp_i_hermitian",
                        lambda h: (seen.append(h), exp_i_hermitian(h))[1])
    family.unitaries(xs)
    expected = scatter_generators(modes, xs)
    assert np.array_equal(seen[0], expected)
    # bit for bit where no parameter is 0 (elsewhere a zero's sign may differ)
    assert seen[0][2:].tobytes() == expected[2:].tobytes()


def test_ancilla_objective_makes_one_lift_and_one_exponential(monkeypatch):
    # perfbench traces these by name on focklift.nogo at call time; a family
    # that bound them at construction would hide every call from it
    calls = {"lift_unitary": 0, "exp_i_hermitian": 0}

    def counting(name):
        original = getattr(focklift.nogo, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    family = ancilla_family(4, 1)
    for name in calls:
        monkeypatch.setattr(focklift.nogo, name, counting(name))
    xs = np.random.default_rng(66).uniform(-math.pi, math.pi, (5, 12))
    assert family.scores(xs).shape == (5, 2)
    assert calls == {"lift_unitary": 1, "exp_i_hermitian": 1}
    family.feasible(xs)
    assert calls == {"lift_unitary": 2, "exp_i_hermitian": 2}


def test_oversize_ancilla_config_fails_before_building_tables(monkeypatch):
    # the coupling mask of the top sector alone once took ~97 MB here
    def refuse(*args):
        raise AssertionError("coupling mask built before the lift size check")

    monkeypatch.setattr(focklift.nogo, "_coupling_mask", refuse)
    with pytest.raises(ResourceLimitError):
        nogo_search_ancilla(SearchConfig(modes=3, ancilla_photons=137, restarts=1))


@pytest.mark.parametrize("seed, n", [(0, 1), (20260103, 25), (7, 500)])
def test_task_rng_matches_spawned_streams(seed, n):
    children = np.random.SeedSequence(seed).spawn(n)
    for r in {0, 1, n - 1} & set(range(n)):
        expected = np.random.default_rng(children[r]).uniform(size=8)
        assert np.array_equal(_task_rng(seed, r).uniform(size=8), expected)


def test_ancilla_constrained_certifies():
    cfg = SearchConfig(modes=3, restarts=6, max_iterations=250,
                       penalty_weight=1e5, seed=55)
    result = nogo_search_ancilla(cfg)
    assert result.feasible
    assert result.best_entangling_measure < 1e-6


def test_ancilla_with_photons_certifies():
    cfg = SearchConfig(modes=4, ancilla_photons=1, restarts=4,
                       max_iterations=200, penalty_weight=1e5, seed=56)
    result = nogo_search_ancilla(cfg)
    assert result.feasible
    assert result.best_entangling_measure < 1e-6


def test_ancilla_unconstrained_entangles():
    cfg = SearchConfig(modes=3, restarts=6, max_iterations=300,
                       penalty_weight=0.0, seed=57)
    result = nogo_search_ancilla(cfg)
    assert result.best_entangling_measure > 0.1


def test_ancilla_search_rejects_two_modes():
    with pytest.raises(InvalidInputError):
        nogo_search_ancilla(SearchConfig(modes=2))


def test_ancilla_search_deterministic():
    # five restarts over three workers split unevenly, 1 + 2 + 2
    for modes, ancilla_photons, iterations in ((3, 0, 100), (4, 1, 60)):
        cfg = SearchConfig(modes=modes, ancilla_photons=ancilla_photons, restarts=5,
                           max_iterations=iterations, penalty_weight=1e5, seed=58)
        reports = [timeless(nogo_search_ancilla(cfg, jobs=jobs)) for jobs in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]


# ---------------------------------------------------------------------------
# search contract shared by both families
# ---------------------------------------------------------------------------

def _two_mode_point_eval(params):
    gate = composite_gate_fock(CompositeGateParams(*params))
    return entangling_measure(nearest_unitary_block(gate)), leakage(gate).frobenius_leakage


def _ancilla_point_eval(params, kind, cfg):
    family = _AncillaFamily(cfg)
    v = family.unitaries(np.array([params]))[0]
    if kind == "projected":
        v = _project_feasible(v)
    return tuple(family.rate(v[np.newaxis])[0][0])


@pytest.mark.parametrize("penalty_weight, seed, kind", [
    (1e5, 60, "snapped"),
    (0.0, 61, "endpoint"),
])
def test_two_mode_winner_reproduces_from_its_parameters(penalty_weight, seed, kind):
    # a short budget leaves every endpoint leaky, so a snapped point wins
    cfg = SearchConfig(modes=2, restarts=4, max_iterations=10 if kind == "snapped" else 150,
                       penalty_weight=penalty_weight, seed=seed)
    result = nogo_search_two_mode(cfg)
    assert result.best_candidate == kind
    assert result.to_jsonable()["best_candidate"] == kind
    # the winner is the gate at zero phases, a snapped one under its snapped angle
    assert len(result.best_parameters) == 1
    meas, leak = _two_mode_point_eval((0.0, 0.0, 0.0, 0.0, *result.best_parameters))
    assert meas == result.best_entangling_measure
    assert leak == result.best_leakage


def test_equal_feasible_measures_report_the_smaller_constraint():
    candidates = [("endpoint", [0.1], 0.0, 6.8e-16), ("snapped", [0.0], 0.0, 0.0),
                  ("endpoint", [0.2], -1.0, 0.0), ("endpoint", [0.3], 0.5, 1.0)]
    assert _select_best(candidates, True, 1e-10) == (candidates[1], True)
    # the packaged two-mode search ends on measure 0.0 at endpoints a hair
    # off the decoupling set and at their exactly decoupled snapped points
    cfg, _ = packaged_search("two_mode")
    result = nogo_search_two_mode(cfg)
    assert (result.best_candidate, result.best_entangling_measure, result.best_leakage,
            result.best_parameters) == ("snapped", 0.0, 0.0, [0.0])


@pytest.mark.parametrize("penalty_weight, seed, kind", [
    (1e5, 62, "projected"),
    (0.0, 63, "endpoint"),
])
def test_ancilla_winner_reproduces_from_its_parameters(penalty_weight, seed, kind):
    cfg = SearchConfig(modes=3, restarts=3, max_iterations=120,
                       penalty_weight=penalty_weight, seed=seed)
    result = nogo_search_ancilla(cfg)
    assert result.best_candidate == kind
    assert result.to_jsonable()["best_candidate"] == kind
    # a projected winner carries the generator before projection
    meas, constraint = _ancilla_point_eval(result.best_parameters, kind, cfg)
    assert meas == result.best_entangling_measure
    assert constraint == result.best_leakage


@pytest.mark.parametrize("search, cfg, kind", [
    (nogo_search_two_mode, SearchConfig(modes=2, restarts=3, max_iterations=40, seed=64),
     "snapped"),
    (nogo_search_ancilla, SearchConfig(modes=3, restarts=3, max_iterations=40, seed=65),
     "projected"),
])
def test_restart_trace_keys_are_pinned(search, cfg, kind):
    # perfbench counts feasible candidates by the trace keys ending in "leakage"
    trace = search(cfg).restart_trace
    assert [t["restart"] for t in trace] == list(range(cfg.restarts))
    for entry in trace:
        assert set(entry) == {"restart", "mu", "measure", "leakage",
                              f"{kind}_measure", f"{kind}_leakage", "nfev", "nit", "status"}
        # the simplex's n + 1 points, then per iteration a reflection, at most
        # one expansion or contraction and at most n shrunk vertices
        n = 1 if kind == "snapped" else 4 * cfg.modes - 4
        assert 1 <= entry["nit"] <= cfg.max_iterations
        assert n + 1 <= entry["nfev"] <= n + 1 + (n + 2) * (entry["nit"] - 1)
        assert entry["status"] == (2 if entry["nit"] == cfg.max_iterations else 0)


# ---------------------------------------------------------------------------
# the optimizer and the stacked objective
# ---------------------------------------------------------------------------

def assert_matches_reference_nelder_mead(family, cfg, mus):
    """Run restarts 0..len(mus)-1 of a search chunk, then each through
    scipy's Nelder-Mead on the same objective, and require the same x,
    nfev, nit and status bit for bit.  Returns the status codes.

    scipy reuses the (measure, constraint) the chunk computed at a point it
    asks for again, and computes any other point, so it always sees the
    true objective and a diverging path still shows.
    """
    from scipy.optimize import minimize

    scores, memo = family.scores, {}

    def recording(xs):
        out = scores(xs)
        memo.update((x.tobytes(), row) for x, row in zip(xs, out))
        return out

    family.scores = recording
    statuses = []
    for r, (entry, candidates) in enumerate(_run_chunk((family, cfg, mus, 0, len(mus)))):
        def objective(x):
            row = memo.get(x.tobytes())
            measure, constraint = scores(x[np.newaxis])[0] if row is None else row
            return -(measure - mus[r] * constraint)

        ref = minimize(objective, family.start(_task_rng(cfg.seed, r)), method="Nelder-Mead",
                       options={"maxiter": cfg.max_iterations, "xatol": 1e-12, "fatol": 1e-14,
                                "adaptive": True})
        assert candidates[0][0] == "endpoint"
        x = np.array(candidates[0][1])
        assert ((x.tobytes(), entry["nfev"], entry["nit"], entry["status"])
                == (ref.x.tobytes(), ref.nfev, ref.nit, ref.status))
        statuses.append(entry["status"])
    return statuses


class StepFamily:
    """A piecewise-constant objective: ties everywhere, so Nelder-Mead sorts
    tied values and shrinks often."""

    kind = "step"

    def start(self, rng):
        return rng.uniform(-math.pi, math.pi, size=5)

    def scores(self, xs):
        return np.column_stack([np.floor((xs * xs).sum(axis=1)), np.abs(xs).max(axis=1) > 2.0])

    def feasible(self, xs):
        return xs, self.scores(xs)


class ZeroMixingTwoMode(_TwoModeFamily):
    """The two-mode objective from a zero mixing angle, which the initial
    simplex steps away from by a fixed amount."""

    def start(self, rng):
        return np.zeros(1)


def test_nelder_mead_matches_the_reference_bit_for_bit():
    cfg, ladder = packaged_search("two_mode")
    statuses = assert_matches_reference_nelder_mead(_TwoModeFamily(), cfg, ladder)
    # the first m4_ancilla restart at the packaged budget, the workload's own path
    cfg, ladder = packaged_search("m4_ancilla")
    statuses += assert_matches_reference_nelder_mead(ancilla_family(4, 1), cfg, ladder[:1])
    for family in (_TwoModeFamily(), ZeroMixingTwoMode(), StepFamily()):
        for m in (1, 2, 3, 7, 40):
            statuses += assert_matches_reference_nelder_mead(
                family, SearchConfig(max_iterations=m, seed=67), [0.0, 10.0, 1e5])
    for modes, k in ((3, 0), (4, 1)):
        for m in (2, 30):
            cfg = SearchConfig(modes=modes, ancilla_photons=k, max_iterations=m, seed=68)
            statuses += assert_matches_reference_nelder_mead(
                ancilla_family(modes, k), cfg, [1e5, 0.0])
    assert {0, 2} <= set(statuses)


def packaged_search(name):
    """A packaged config and its penalty ladder, one weight per restart."""
    raw = json.loads(resources.files("focklift").joinpath("configs", f"{name}.json").read_text())
    cfg = SearchConfig.from_jsonable(raw)
    levels = _penalty_levels(cfg)
    return cfg, [levels[min(len(levels) - 1, r * len(levels) // cfg.restarts)]
                 for r in range(cfg.restarts)]


def test_a_restart_ends_the_same_alone_as_among_others():
    # runs leave the chunk's arrays as they stop, so a run alone and the
    # same run among others that stop before or after it must agree; the
    # packaged runs converge in 27 to 46 iterations, so a cap between them
    # stops some runs converged and the rest capped
    cfg, ladder = packaged_search("two_mode")
    cfg = replace(cfg, max_iterations=36)
    full = _run_chunk((_TwoModeFamily(), cfg, ladder, 0, cfg.restarts))
    converged = sorted((entry["nit"], r) for r, (entry, _) in enumerate(full)
                       if entry["status"] == 0)
    capped = [r for r, (entry, _) in enumerate(full) if entry["status"] == 2]
    assert converged and capped
    for r in [converged[0][1], converged[-1][1]] + capped[::12]:
        assert _run_chunk((_TwoModeFamily(), cfg, ladder, r, r + 1)) == [full[r]]
    # every run alone, where ties and shrinks are common and convergence and
    # the iteration cap stop runs in many rounds
    mus = [0.0, 10.0, 1e5] * 4
    for family in (_TwoModeFamily(), StepFamily()):
        for max_iterations in (7, 40):
            cfg = SearchConfig(max_iterations=max_iterations, seed=73)
            chunk = _run_chunk((family, cfg, mus, 0, len(mus)))
            for r in range(len(mus)):
                assert _run_chunk((family, cfg, mus, r, r + 1)) == [chunk[r]]
    cfg = SearchConfig(modes=3, restarts=3, max_iterations=150, seed=71)
    family, mus = ancilla_family(3), [10.0, 1e3, 0.0]
    chunk = _run_chunk((family, cfg, mus, 0, 3))
    assert len({entry["nfev"] for entry, _ in chunk}) == 3
    for r in range(3):
        assert _run_chunk((family, cfg, mus, r, r + 1)) == [chunk[r]]


@pytest.mark.parametrize("make_family", [_TwoModeFamily, StepFamily], ids=["two_mode", "step"])
@pytest.mark.parametrize("max_iterations", [1, 2, 40])
def test_a_chunk_scores_each_round_in_one_call(make_family, max_iterations):
    # every initial simplex goes in the first call; then a round scores the
    # reflection, expansion and both contractions of every live run in one
    # call, and the moved vertices of the runs that shrink in at most one
    # more; the last two calls score the endpoints and their feasible points
    family = make_family()
    sizes, scores = [], family.scores
    family.scores = lambda xs: (sizes.append(len(xs)), scores(xs))[1]
    cfg = SearchConfig(max_iterations=max_iterations, seed=72)
    chunk = _run_chunk((family, cfg, [0.0, 10.0, 1e5], 0, 3))
    nit = [entry["nit"] for entry, _ in chunk]
    n = len(chunk[0][1][0][1])  # the family's parameter count
    assert sizes[0] == 3 * (n + 1)
    assert sizes[-2:] == [3, 3]
    # round k advances the runs that end past iteration k; a shrink call
    # (n = 1 or 5 rows a run, 3 runs at most) never has a round's 4, 8 or
    # 12 rows
    calls, shrinks = iter(sizes[1:-2]), 0
    size = next(calls, None)
    for k in range(1, max(nit)):
        live = sum(it > k for it in nit)
        assert size == 4 * live
        size = next(calls, None)
        if size is not None and size % 4:
            assert size % n == 0 and size // n <= live
            shrinks += 1
            size = next(calls, None)
    assert size is None
    assert len(sizes) == max(nit) + shrinks + 2
    # at most a reflection, a second trial and n shrunk vertices an iteration
    assert all(n + 1 <= entry["nfev"] <= n + 1 + (n + 2) * (entry["nit"] - 1)
               for entry, _ in chunk)
    if max_iterations == 40 and family.kind == "step":
        assert shrinks >= 1


def two_mode_rows(seed, count):
    """count random angle rows, then edge rows: the mixing angle on
    multiples of pi/2 (and -0.0, a hair off zero, pi/4), phases +-pi, 0
    and -0.0."""
    special = (math.pi, -math.pi, 0.0, -0.0)
    mixing = [k * math.pi / 2 for k in range(-4, 5)] + [-0.0, 1e-9, math.pi / 4]
    edge = [(special[i % 4], special[(i + 1) % 4], special[i // 4 % 4], special[(i + 2) % 4], e)
            for i in range(16) for e in mixing]
    return np.vstack([np.random.default_rng(seed).uniform(-math.pi, math.pi, (count, 5)), edge])


def test_two_mode_stack_scores_each_row_as_its_gate_alone():
    # (measure, leakage) per row recorded from the single-gate path before
    # the two-mode objective was stacked; the phased rows still score so
    # through the composite gate, and the family's one stack of their mixing
    # angles scores each as its gate alone at zero phases
    golden = json.loads((Path(__file__).with_name("two_mode_golden.json")).read_text())
    rows = two_mode_rows(golden["seed"], golden["random_rows"])
    family = _TwoModeFamily()
    stacked = family.scores(rows[:, 4:])
    assert len(stacked) == len(golden["measure"]) == len(golden["leakage"])
    for row, scores, ref_measure, ref_leakage in zip(
            rows, stacked, golden["measure"], golden["leakage"]):
        measure, leak = _two_mode_point_eval(row)
        assert abs(measure - ref_measure) <= 1e-15
        assert abs(leak - ref_leakage) <= 1e-15
        assert tuple(family.scores(row[np.newaxis, 4:])[0]) == tuple(scores)
        assert _two_mode_point_eval((0.0, 0.0, 0.0, 0.0, row[4])) == tuple(scores)


def test_two_mode_stack_reduces_angles_as_the_single_gate_does():
    # mixing angles beyond (-pi, pi] and off the quarter-turn lattice: the
    # stack must reduce them as CompositeGateParams does, row by row
    rng = np.random.default_rng(77)
    eps = rng.choice([-1.0, 1.0], (64, 1)) * rng.uniform(math.pi + 0.01, 40.0, (64, 1))
    for e, scores in zip(eps[:, 0], _TwoModeFamily().scores(eps)):
        assert tuple(scores) == _two_mode_point_eval((0.0, 0.0, 0.0, 0.0, e))


def test_two_mode_scores_follow_the_closed_form_tradeoff():
    # with d = |remainder(eps, pi/2)|, the measure is 1 - cos^4(d/2) and the
    # leakage sqrt2 sin 2d, whatever the four phases: they are the gauge
    # that lets the two-mode family search eps alone, at zero phases
    xs = np.random.default_rng(39).uniform(-math.pi, math.pi, (4000, 5))
    d = np.abs([math.remainder(eps, math.pi / 2) for eps in xs[:, 4]])
    law = np.column_stack([1.0 - np.cos(d / 2) ** 4, math.sqrt(2) * np.sin(2 * d)])
    phased = np.array([_two_mode_point_eval(row) for row in xs])
    zero_phase = _TwoModeFamily().scores(xs[:, 4:])
    for scores in (phased, zero_phase):
        assert np.max(np.abs(scores - law)) <= 2e-15
    assert np.max(np.abs(phased - zero_phase)) <= 2e-15


def ancilla_rows(modes, seed, count):
    """count random generators, then edge rows: the zero generator, a
    rail-ancilla swap that empties the ancilla part of the |0 0> output
    (with ancilla photons, chi falls back to the first ancilla state), and
    points 1e-4 from a projected unitary: generators with only the rail
    diagonal set, which give feasible unitaries, nudged."""
    rng = np.random.default_rng(seed)
    size = 4 * modes - 4
    swap = np.zeros(size)
    swap[4] = math.pi / 2  # Re H[0, 2]: after the rail diagonal and H[0, 1]
    feasible = np.zeros((4, size))
    feasible[:, :2] = rng.uniform(-math.pi, math.pi, (4, 2))
    near = feasible + 1e-4 * rng.uniform(-1.0, 1.0, feasible.shape)
    return np.vstack([rng.uniform(-math.pi, math.pi, (count, size)), np.zeros(size), swap, near])


@pytest.mark.parametrize("modes, ancilla_photons", [(3, 0), (4, 1), (4, 2), (5, 2)])
def test_ancilla_stack_scores_each_row_as_its_point_alone(modes, ancilla_photons):
    family = ancilla_family(modes, ancilla_photons)
    rows = ancilla_rows(modes, 69 + modes + ancilla_photons, 24)
    alone = np.array([family.scores(row[np.newaxis])[0] for row in rows])
    for width in (2, 3, 7, len(rows)):
        for lo in range(0, len(rows), width):
            assert np.array_equal(family.scores(rows[lo:lo + width]), alone[lo:lo + width])
    edge = alone[-6:]
    assert edge[0].tolist() == [0.0, 0.0]  # the identity
    assert edge[1, 1] > 1.0  # the swap moves photons between rails and ancillas
    assert np.all(edge[2:, 1] < 1e-2) and np.all(edge[2:, 1] > 0.0)
    # the swap sends the first ancilla mode to rail 1 alone, so no ancilla
    # photon stays behind: chi's norm is below 1e-12 once there are any
    assert np.max(np.abs(family.unitaries(rows[-5:-4])[0, 2:, 2])) < 1e-15


def test_ancilla_scores_lift_at_most_lanes_within_the_entry_cap(monkeypatch):
    # (M, N) = (4, 3) keeps 1 + 16 + 100 + 400 = 517 entries per lift: at a
    # budget of 1033 a chunk takes one point, at 1034 two, and rows do not move
    rows = ancilla_rows(4, 70, 3)
    whole = ancilla_family(4, 1)
    assert whole.lanes >= 13 * 25  # the packaged first round is one chunk
    expected = whole.scores(rows)
    projected = whole.feasible(rows)[1]
    for budget, lanes in ((1033, 1), (1034, 2)):
        monkeypatch.setattr(focklift.nogo, "_SCORE_ENTRIES", budget)
        family = ancilla_family(4, 1)
        assert family.lanes == lanes
        sizes = {"lift_unitary": [], "exp_i_hermitian": []}
        for name, seen in sizes.items():
            monkeypatch.setattr(focklift.nogo, name, recording(getattr(focklift.nogo, name), seen))
        assert np.array_equal(family.scores(rows), expected)
        # each chunk of the generators takes its own exponential and lift
        chunks = [min(lanes, len(rows) - a) for a in range(0, len(rows), lanes)]
        assert sizes == {"lift_unitary": chunks, "exp_i_hermitian": chunks}
        # feasible projects all its unitaries, then lifts them chunk by chunk
        assert np.array_equal(family.feasible(rows)[1], projected)
        assert sizes == {"lift_unitary": 2 * chunks, "exp_i_hermitian": chunks + [len(rows)]}
        monkeypatch.undo()


def recording(fn, seen):
    """fn, appending the length of its first argument to seen at each call."""
    def wrapper(v, *args, **kwargs):
        seen.append(len(v))
        return fn(v, *args, **kwargs)
    return wrapper


def _zero_measure(gate):
    return 0.0


@pytest.mark.parametrize("family, rows", [
    (_TwoModeFamily(), two_mode_rows(74, 5)[:, 4:]),
    (ancilla_family(3), ancilla_rows(3, 75, 3)),
    (ancilla_family(4, 1), ancilla_rows(4, 76, 3)),
], ids=["two_mode", "ancilla-3-0", "ancilla-4-1"])
def test_a_scalar_measure_fills_the_measure_column(monkeypatch, family, rows):
    # a replacement measure that returns one number scores every row with it
    expected = family.scores(rows)
    monkeypatch.setattr(focklift.nogo, "entangling_measure", _zero_measure)
    for stack in (rows, rows[:1]):
        scores = family.scores(stack)
        assert scores.shape == (len(stack), 2)
        assert np.all(scores[:, 0] == 0.0)
        assert np.array_equal(scores[:, 1], expected[:len(stack), 1])

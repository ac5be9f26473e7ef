"""Acceptance suite: one test per criterion, each printing its pass/fail line,
plus pins on the cases criterion 07 draws and on the faults it must catch.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines, or ``torusbif selftest`` for the same sweeps outside pytest.
"""

import builtins
import hashlib
import os
import random
from itertools import islice

import pytest

from torusbif import UNIT, EulerRingElement, RestrictedWeight, canonicalize, selftest
from torusbif.euler_ring import _element

# The case counts of the two slowest sweeps, pinned so that no speed-up can
# shrink what they cover.
EXPECTED_DETAIL = {
    "coefficient-formula": "1620 coefficient identities, 10530 vanishing checks",
    "euler-ring-axioms": "10000 randomized cases per law",
}


@pytest.mark.parametrize(
    "criterion",
    selftest.CRITERIA,
    ids=[fn.__name__.removeprefix("criterion_") for fn in selftest.CRITERIA],
)
def test_criterion(criterion):
    result = criterion(seed=0)
    print(selftest.format_result(result), end="")
    assert result.passed, f"{result.slug}: {result.detail}"
    if result.slug in EXPECTED_DETAIL:
        assert result.detail == EXPECTED_DETAIL[result.slug]


# SHA-256 of the reprs of the 10^4 cases criterion 07 checks, one per line,
# as drawn before its ring arithmetic was made cheaper: a faster criterion
# must check the very same cases.
EULER_CASE_DIGESTS = {
    0: "f1a84c3c09dcda22fa30989a32bf7671cff33b18260b78f25a80e767264b53cb",
    1: "de30153f1d878e1315ad5766b64033fa29ee877c3a58bf7d43c6dfe6014cbf7b",
}


@pytest.mark.parametrize("seed", sorted(EULER_CASE_DIGESTS))
def test_euler_axiom_cases_are_pinned(seed):
    text = "".join(repr(case) + "\n" for case in selftest._euler_cases(seed))
    assert text.count("\n") == 10_000
    assert hashlib.sha256(text.encode()).hexdigest() == EULER_CASE_DIGESTS[seed]


def _reference_euler_cases(seed):
    """Criterion 07's cases drawn through ``randint``, ``sample`` and
    ``choice``, as the criterion drew them before it read the generator's
    outputs itself: ``randrange(9)`` and ``randrange(19) - 9`` are
    ``randint(0, 8)`` and ``randint(-9, 9)``, and sampling the ids' ranks in
    the pool's order draws the same supports as sampling the ids."""
    rng = random.Random(seed)
    pool = []
    seen = set()
    while len(pool) < 12:
        coords = (rng.randint(-4, 4), rng.randint(-4, 4))
        if coords == (0, 0):
            continue
        h = canonicalize(RestrictedWeight(coords))
        if h not in seen:
            seen.add(h)
            pool.append(h)
    ranked = sorted(pool, key=lambda h: h.sort_key)
    ranks = [ranked.index(h) for h in pool]
    sample, draw = rng.sample, rng.randrange

    def element():
        support = sample(ranks, draw(9))
        pairs = sorted(zip(support, [draw(19) - 9 for _ in support]))
        return _element(draw(19) - 9, tuple((ranked[r], c) for r, c in pairs if c))

    for _ in range(selftest.EULER_CASES):
        x = element()
        y = element()
        z = element()
        yield x, y, z, _element(rng.choice((1, -1)), x.codim1)


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_euler_axiom_cases_are_the_random_module_draws(seed):
    # seeds past the pinned ones: the cases read off the generator's outputs
    # are the ones randint, sample and choice draw, case for case
    assert list(selftest._euler_cases(seed)) == list(_reference_euler_cases(seed))


def test_euler_axioms_make_one_product_and_sum_per_law_and_case(monkeypatch):
    # the counts perfbench's trace reports as euler_ring.mul_calls (100000)
    # and the sums beside them: the criterion checks, and times, this much
    # ring arithmetic and no less
    calls = {"__mul__": 0, "__add__": 0}

    def counted(name):
        method = getattr(EulerRingElement, name)

        def wrapper(x, y):
            calls[name] += 1
            return method(x, y)

        return wrapper

    for name in calls:
        monkeypatch.setattr(EulerRingElement, name, counted(name))
    assert selftest.criterion_07_euler_axioms(seed=0).passed
    assert calls == {"__mul__": 100_000, "__add__": 50_000}


# SPLIT: the first case of the worker's part on a forked run.  STARTS: the
# first case of each part, the case before each, and the end of the stream.
SPLIT = selftest._PARENT_CASES
STARTS = (0, 1, SPLIT - 1, SPLIT, selftest.EULER_CASES - 1, selftest.EULER_CASES)


@pytest.mark.parametrize("seed", sorted(EULER_CASE_DIGESTS))
def test_euler_cases_skipped_without_building_are_the_same_cases(seed):
    # the cases before start are drawn but not built; every case from start
    # on is the one the whole stream has there
    cases = list(selftest._euler_cases(seed))
    for start in STARTS:
        assert list(selftest._euler_cases(seed, start)) == list(islice(cases, start, None)), start


def test_the_workers_part_builds_and_multiplies_only_its_own_cases(monkeypatch):
    # four elements (x, y, z, u) and ten products per case checked, none
    # for the cases it skips
    calls = {"elements": 0, "products": 0}
    element, mul = selftest._element, EulerRingElement.__mul__

    def counted_element(unit, codim1):
        calls["elements"] += 1
        return element(unit, codim1)

    def counted_mul(x, y):
        calls["products"] += 1
        return mul(x, y)

    monkeypatch.setattr(selftest, "_element", counted_element)
    monkeypatch.setattr(EulerRingElement, "__mul__", counted_mul)
    assert selftest._euler_laws(0, SPLIT, selftest.EULER_CASES)
    worker_cases = selftest.EULER_CASES - SPLIT
    assert calls == {"elements": 4 * worker_cases, "products": 10 * worker_cases}


@pytest.mark.parametrize("seed", sorted(EULER_CASE_DIGESTS))
def test_euler_axiom_cases_are_normalized(seed):
    # the cases skip the public constructor; they must be what it would build
    for x, y, z, u in selftest._euler_cases(seed):
        assert u.codim1 is x.codim1
        for e in (x, y, z, u):
            public = EulerRingElement(e.unit, e.codim1[::-1])
            assert e == public and repr(e) == repr(public)
            keys = [h.sort_key for h, _ in e.codim1]
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert all(c for _, c in e.codim1)


# Faults for criterion 07, each a thin wrapper around a real method and each
# built to break one law only, so that a criterion that stopped checking that
# law would pass under it.  The two bilinear faults add omega(x, y) * [H_E],
# with omega(x, y) = phi_0(x) phi_1(y) - phi_1(x) phi_0(y) and phi_k(x) the
# sum of the codimension-one coefficients of x at ids whose k-th coordinate is
# odd.  omega is alternating and vanishes on H_E, so x + (-x), x * x^(-1) and
# products with UNIT are unchanged, and so is the associativity of the
# product.  The two equality faults keep every law true, since each law is
# checked with !=; only the criterion's negative control, x + UNIT == x,
# can fail under them.
H_E = canonicalize(RestrictedWeight((2, 0)))


def _omega(x, y) -> int:
    def phi(z, k):
        return sum(c for h, c in z.codim1 if h.canonical.coords[k] % 2)

    return phi(x, 0) * phi(y, 1) - phi(x, 1) * phi(y, 0)


def _non_commutative(mul):
    def faulty(x, y):
        out = mul(x, y)
        if y.__class__ is not EulerRingElement:
            return out
        return out + EulerRingElement(0, ((H_E, _omega(x, y)),))

    return faulty


def _non_associative(mul):
    # the cases draw units from -9..9 and only (x*y)*z has a product on the
    # left, so only that side of the associativity check drifts
    def faulty(x, y):
        out = mul(x, y)
        return out + UNIT if abs(x.unit) > 9 else out

    return faulty


def _non_distributive(add):
    def faulty(x, y):
        return add(add(x, y), EulerRingElement(0, ((H_E, _omega(x, y)),)))

    return faulty


def _wrong_inverse(inverse):
    def faulty(x):
        return -inverse(x)

    return faulty


def _always_equal(eq):
    def faulty(x, y):
        return True if y.__class__ is EulerRingElement else eq(x, y)

    return faulty


def _ignores_unit(eq):
    def faulty(x, y):
        if y.__class__ is not EulerRingElement:
            return eq(x, y)
        return eq(x + UNIT.scaled(-x.unit), y + UNIT.scaled(-y.unit))

    return faulty


FAULTS = pytest.mark.parametrize(
    "method, fault",
    [
        ("__mul__", _non_commutative),
        ("__mul__", _non_associative),
        ("__add__", _non_distributive),
        ("inverse", _wrong_inverse),
        ("__eq__", _always_equal),
        ("__eq__", _ignores_unit),
    ],
    ids=["non-commutative", "non-associative", "non-distributive", "wrong-inverse", "always-equal", "ignores-unit"],
)


@FAULTS
def test_euler_axioms_catch_a_broken_law(monkeypatch, method, fault):
    monkeypatch.setattr(EulerRingElement, method, fault(getattr(EulerRingElement, method)))
    assert not selftest.criterion_07_euler_axioms(seed=0).passed


NUMERICAL_CRITERIA = selftest.CRITERIA[7:]


@pytest.mark.parametrize(
    "criterion", NUMERICAL_CRITERIA, ids=[fn.__name__.removeprefix("criterion_") for fn in NUMERICAL_CRITERIA]
)
def test_numerical_criteria_start_their_clock_before_importing_the_solver(monkeypatch, criterion):
    # the first of criteria 08-10 to run loads numpy with the solver, so
    # its time must include that import: the clock is read first
    events = []
    clock, load = selftest.time.perf_counter, builtins.__import__

    def timed():
        events.append("clock")
        return clock()

    def loaded(name, globals=None, locals=None, fromlist=(), level=0):
        if level == 1 and name in ("galerkin", "continuation") and (globals or {}).get("__name__") == selftest.__name__:
            events.append(name)
        return load(name, globals, locals, fromlist, level)

    monkeypatch.setattr(selftest.time, "perf_counter", timed)
    monkeypatch.setattr(builtins, "__import__", loaded)
    assert criterion(seed=0).passed
    assert events[0] == "clock" and {"galerkin"} <= set(events), events


def test_crossing_agreement_catches_a_wrong_kernel_dimension(monkeypatch):
    from torusbif.galerkin import Crossing

    kernel_dim = Crossing.kernel_dim
    monkeypatch.setattr(Crossing, "kernel_dim", property(lambda c: kernel_dim.fget(c) + 1))
    assert not selftest.criterion_09_crossing_agreement(seed=0).passed


def test_gradient_check_catches_a_nan_gradient(monkeypatch):
    from test_galerkin import nan_spec
    from torusbif.galerkin import NonlinearitySpec

    monkeypatch.setattr(NonlinearitySpec, "quartic", classmethod(lambda cls: nan_spec("grad")))
    result = selftest.criterion_08_gradient_check(seed=0)
    assert not result.passed and result.detail == "max relative FD error inf"


# run_all forks one worker for criterion 07's cases from SPLIT on when it
# sees two CPUs or more; these tests show it two, whatever the host has.


def _refuse_fork():
    raise AssertionError("run_all forked")


@pytest.fixture
def forked(monkeypatch):
    """The pids that run_all forks, on its forked path."""
    pids = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", recorded_fork)
    return pids


def _reaped(pid) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _summary(results):
    return [(r.number, r.slug, r.passed, r.detail) for r in results]


def test_forked_and_one_cpu_runs_report_the_same(monkeypatch, forked):
    results = selftest.run_all(seed=1)
    (pid,) = forked
    assert _reaped(pid)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", _refuse_fork)
    sequential = selftest.run_all(seed=1)
    assert _summary(results) == _summary(sequential)
    assert [r.number for r in results] == list(range(1, 11)) and all(r.passed for r in results)


@FAULTS
def test_forked_run_catches_a_broken_law(monkeypatch, forked, method, fault):
    monkeypatch.setattr(EulerRingElement, method, fault(getattr(EulerRingElement, method)))
    results = selftest.run_all(seed=0)
    assert [r.number for r in results] == list(range(1, 11))
    assert not results[6].passed
    assert results[6].detail == EXPECTED_DETAIL["euler-ring-axioms"]
    (pid,) = forked
    assert _reaped(pid)


def _fault_on_case(monkeypatch, case):
    """Break x * y for the x, y of one case of seed 0 only."""
    (X, Y, _, _), *_ = selftest._euler_cases(0, case)
    mul = EulerRingElement.__mul__

    def faulty(x, y):
        out = mul(x, y)
        return out + UNIT if (x, y) == (X, Y) else out

    monkeypatch.setattr(EulerRingElement, "__mul__", faulty)


def test_forked_run_reads_the_workers_verdict(monkeypatch, forked):
    # a fault on one product of the last case, which the worker checks
    _fault_on_case(monkeypatch, selftest.EULER_CASES - 1)
    assert selftest._euler_laws(0, 0, SPLIT)
    assert not selftest._euler_laws(0, SPLIT, selftest.EULER_CASES)
    results = selftest.run_all(seed=0)
    assert not results[6].passed
    assert all(r.passed for r in results if r.number != 7)


@pytest.mark.parametrize("case, failing_part", [(SPLIT - 1, "parent"), (SPLIT, "worker")])
def test_forked_run_fails_the_part_that_checks_a_faulty_case(monkeypatch, forked, case, failing_part):
    # the cases on either side of the split; the parent's verdict on its
    # own part is recorded here, and the worker's is only seen through
    # criterion 07
    _fault_on_case(monkeypatch, case)
    parts = {"parent": (0, SPLIT), "worker": (SPLIT, selftest.EULER_CASES)}
    assert {name: selftest._euler_laws(0, *part) for name, part in parts.items()} == {
        name: name != failing_part for name in parts
    }
    laws, verdicts = selftest._euler_laws, []

    def recorded(seed, start, stop):
        ok = laws(seed, start, stop)
        verdicts.append((start, stop, ok))
        return ok

    monkeypatch.setattr(selftest, "_euler_laws", recorded)
    results = selftest.run_all(seed=0)
    assert verdicts == [(0, SPLIT, failing_part != "parent")]
    assert not results[6].passed
    assert all(r.passed for r in results if r.number != 7)


def test_a_worker_that_raises_fails_criterion_07_and_is_reaped(monkeypatch, forked):
    laws = selftest._euler_laws

    def raising(seed, start, stop):
        if start:  # the worker's part
            raise RuntimeError("worker fault")
        return laws(seed, start, stop)

    monkeypatch.setattr(selftest, "_euler_laws", raising)
    results = selftest.run_all(seed=0)
    assert not results[6].passed
    assert results[6].detail == (
        f"{EXPECTED_DETAIL['euler-ring-axioms']}; the worker exited with status 1 before its verdict"
    )
    assert all(r.passed for r in results if r.number != 7)
    (pid,) = forked
    assert _reaped(pid)


def test_an_error_in_the_parent_kills_and_reaps_the_worker(monkeypatch, forked):
    def raising(seed):
        raise RuntimeError("parent fault")

    monkeypatch.setattr(selftest, "CRITERIA", (raising, *selftest.CRITERIA[1:]))
    with pytest.raises(RuntimeError, match="parent fault"):
        selftest.run_all(seed=0)
    (pid,) = forked
    assert _reaped(pid)

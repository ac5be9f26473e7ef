"""Acceptance sweeps: one callable per criterion, each returning a result with
its pass flag, timing, and a one-line summary.  The CLI ``selftest`` command
and the acceptance test module both run these.

The numerical criteria (08-10) import the Galerkin solver, and so numpy,
when they run: ``run_all`` forks its one worker before that, so the worker
starts from a process with one thread."""

from __future__ import annotations

import os
import random
import signal
import sys
import time
from array import array
from collections import deque
from fractions import Fraction
from itertools import chain, islice

from ._record import Record
from .bifurcation import (
    SystemSignature,
    _indices,
    _sweep,
    bifurcation_levels,
    cancellation_impossible,
    witness_coefficient,
)
from .euler_ring import UNIT, ZERO, _element
from .spaces import SymmetricSpaceData, spectrum_up_to
from .weights import RestrictedWeight, canonicalize


class CriterionResult(Record):
    number: int
    slug: str
    passed: bool
    detail: str
    elapsed: float
    __slots__ = _fields = ("number", "slug", "passed", "detail", "elapsed")


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"[{status}] criterion {r.number:02d} {r.slug}: {r.detail} ({r.elapsed:.2f}s)\n"


def _result(number, slug, started, ok, detail, limit=None) -> CriterionResult:
    elapsed = time.perf_counter() - started
    if limit is not None and elapsed >= limit:
        ok = False
        detail += f"; runtime {elapsed:.2f}s exceeded {limit}s"
    return CriterionResult(number, slug, ok, detail, elapsed)


def _sweep_spaces():
    return (
        SymmetricSpaceData.sphere(2),
        SymmetricSpaceData.sphere(3),
        SymmetricSpaceData.product_of_spheres([2, 2]),
        SymmetricSpaceData.product_of_spheres([2, 3]),
    )


def _signatures(max_p: int):
    return [
        SystemSignature.from_counts(np_, nm)
        for p in range(1, max_p + 1)
        for np_ in range(p + 1)
        for nm in (p - np_,)
    ]


# ---------------------------------------------------------------------------


def criterion_01_spectrum_exactness(seed=0) -> CriterionResult:
    """Sphere spectra through the spectrum command match k(k+n-1) exactly."""
    from .cli import run_exact

    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in (2, 3, 4):
        raw = {"space": {"kind": "sphere", "n": n}, "cutoff": 200}
        csv, _ = run_exact("spectrum", raw, None, "csv")
        rows = csv.strip().splitlines()[1:]
        got = [(int(r.split(",")[0]), int(r.split(",")[1]), r.split(",")[2]) for r in rows]
        expected = []
        k = 0
        while k * (k + n - 1) <= 200:
            expected.append((k * (k + n - 1), 1, f"({k})"))
            k += 1
        ok = ok and got == expected
        checked += len(expected)
    return _result(1, "spectrum-exactness", t0, ok, f"{checked} eigenvalues over S^2,S^3,S^4", limit=1.0)


def criterion_02_product_degeneracy(seed=0) -> CriterionResult:
    """S^2 x S^2 groups degenerate weights correctly at levels 2 and 12."""
    t0 = time.perf_counter()
    space = SymmetricSpaceData.product_of_spheres([2, 2])
    levels = {lv.eigenvalue: lv for lv in spectrum_up_to(space, 12)}
    lv2 = levels.get(Fraction(2))
    lv12 = levels.get(Fraction(12))
    ok = lv2 is not None and {a.coords for a in lv2.alphas} == {(1, 0), (0, 1)}
    ok = ok and lv12 is not None and {a.coords for a in lv12.alphas} == {(3, 0), (0, 3), (2, 2)}
    ok = ok and lv12.real_dim == 39
    return _result(2, "product-degeneracy", t0, ok, "levels 2 and 12 on S^2 x S^2")


def criterion_03_first_appearance(seed=0) -> CriterionResult:
    """Each plane R[1,alpha] enters at its own level with multiplicity one."""
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for space in _sweep_spaces():
        levels = spectrum_up_to(space, 30)
        for i, lv in enumerate(levels):
            for alpha in lv.alphas:
                if alpha.is_zero():
                    continue
                h = canonicalize(alpha)
                checked += 1
                if lv.torus_decomp.multiplicity(h) != 1:
                    ok = False
                if any(levels[j].torus_decomp.multiplicity(h) != 0 for j in range(i)):
                    ok = False
    return _result(3, "first-appearance", t0, ok, f"{checked} weights over 4 spaces, cutoff 30", limit=10.0)


def criterion_04_coefficient_formula(seed=0) -> CriterionResult:
    """Witness coefficients match the closed form; lower levels vanish."""
    t0 = time.perf_counter()
    ok = True
    formula_checks = 0
    vanish_checks = 0
    signatures = _signatures(5)
    for space in _sweep_spaces():
        splits = list(_sweep(space, 30))
        # ids of the weights at nonzero levels; the zero level's weight is zero
        ids = [canonicalize(a) for split in splits if split.v.eigenvalue for a in split.v.alphas]
        dim = seen = 0  # real dimension through this level, ids through this level
        for split in splits:
            dim += split.v.real_dim
            if split.v.eigenvalue == 0:
                continue
            seen += len(split.v.alphas)
            own, higher = ids[seen - len(split.v.alphas) : seen], ids[seen:]
            for sig in signatures:
                for level, index in _indices(sig, split).items():
                    closed = witness_coefficient(sig.n_minus if level > 0 else sig.n_plus, dim % 2)
                    formula_checks += len(own)
                    vanish_checks += len(higher)
                    if any(index.coeff_at(h) != closed for h in own) or any(index.coeff_at(h) for h in higher):
                        ok = False
    detail = f"{formula_checks} coefficient identities, {vanish_checks} vanishing checks"
    return _result(4, "coefficient-formula", t0, ok, detail, limit=30.0)


def criterion_05_impossibility(seed=0) -> CriterionResult:
    """(-1)^{parity (n- - n+)} n- is never -n+ for positive counts."""
    t0 = time.perf_counter()
    ok = all(
        cancellation_impossible(nm, np_, parity)
        for nm in range(1, 7)
        for np_ in range(1, 7)
        for parity in (0, 1)
    )
    return _result(5, "impossibility-identity", t0, ok, "n-, n+ in 1..6, both parities")


def criterion_06_zero_level(seed=0) -> CriterionResult:
    """index(0) is +-2I for odd p and vanishes for even p."""
    t0 = time.perf_counter()
    space = SymmetricSpaceData.sphere(2)
    ok = True
    for sig in _signatures(7):
        (zero,) = bifurcation_levels(space, sig, 0)
        index = zero.index
        expected = (-1) ** sig.n_minus - (-1) ** sig.n_plus
        if index != UNIT.scaled(expected):
            ok = False
        if sig.p % 2 == 1 and (index.is_zero() or abs(index.unit) != 2):
            ok = False
        if sig.p % 2 == 0 and not index.is_zero():
            ok = False
    return _result(6, "zero-level-index", t0, ok, "all signatures with p <= 7")


EULER_CASES = 10_000
# The cases [0, _PARENT_CASES) that run_all's own process checks when it forks
# a worker for the rest: fewer than half, since it also runs the other
# criteria and loads numpy, so that both processes end together.  It was set
# by timing both; a change to that work or to a case's cost moves it.
_PARENT_CASES = 4250


_WORDS = 1024  # Mersenne Twister outputs read per getrandbits call


def _words(rng: random.Random):
    """The 32-bit outputs of ``rng`` in order, read ``_WORDS`` at a time:
    ``getrandbits(32 * w)`` is w outputs as little-endian words."""
    while True:
        chunk = array("I", rng.getrandbits(32 * _WORDS).to_bytes(4 * _WORDS, "little"))
        if sys.byteorder == "big":
            chunk.byteswap()
        yield chunk


def _euler_cases(seed, start=0):
    """The cases of criterion 07 from the ``start``-th on: (x, y, z, u) with
    u a unit-led element on the codimension-one part of x, all drawn from
    ``random.Random(seed)``.

    After a pool of 12 ids, each of x, y, z draws a support of 0..8 ids
    from the pool as ``sample(pool, randint(0, 8))``, one coefficient in
    -9..9 per id, then its unit, each as ``randint(-9, 9)``; u's unit is
    ``choice((1, -1))``.  These calls are read here straight off the
    generator's 32-bit outputs: each reduces to ``_randbelow(n)`` (``sample``
    of 12 takes its pool path, ``_randbelow(12 - i)`` for its i-th pick),
    which takes the top ``n.bit_length()`` bits of the next output and
    draws again while they are >= n, and that is what ``below(n)`` does to
    one shared stream of outputs.  So the cases are the very ones those
    calls draw.  The drawn pairs are placed by the id's rank in the sorted
    pool and their zeros dropped, which is the normalized part the public
    constructor would build, so the elements are built from it directly.
    The cases before ``start`` make the same draws in the same order, but
    no element is built for them."""
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
    # pairs[r][c]: the pair of rank r with coefficient c - 9, None for zero
    pairs = [[(h, c - 9) if c != 9 else None for c in range(19)] for h in ranked]
    words = chain.from_iterable(_words(rng))
    # kept[n]: the outputs whose top n.bit_length() bits are below n, which
    # are the outputs below n << (32 - n.bit_length()); below(n) maps them
    # to those bits.  A filter holds nothing but its place in words, so
    # size and pick[9] may share kept[9], and a skipped draw reads kept[n].
    kept = {n: filter((n << 32 - n.bit_length()).__gt__, words) for n in (2, *range(5, 13), 19)}

    def below(n):
        return map((32 - n.bit_length()).__rrshift__, kept[n])

    size, coeff, sign = below(9), below(19), below(2)
    pick = {n: below(n) for n in range(5, 13)}  # sample's i-th pick, i < 8, is below(12 - i)

    def element():
        left = ranks.copy()  # sample's pool: the ranks not yet drawn come first
        support = []
        for n in range(12, 12 - next(size), -1):
            j = next(pick[n])
            support.append(left[j])
            left[j] = left[n - 1]
        slots = [None] * 12
        for r, c in zip(support, coeff):  # zip stops at support's end, before coeff
            slots[r] = pairs[r][c]
        return _element(next(coeff) - 9, tuple(filter(None, slots)))

    # draws[k]: an element's draws after a size of k, unread: its k picks,
    # then its k coefficients and its unit
    draws = [(*(kept[n] for n in range(12, 12 - k, -1)), *[kept[19]] * (k + 1)) for k in range(9)]
    skip = deque(maxlen=0).extend  # runs an iterator to its end, keeping nothing
    for _ in range(start):
        skip(map(next, draws[next(size)]))
        skip(map(next, draws[next(size)]))
        skip(map(next, draws[next(size)]))
        next(sign)
    for _ in range(start, EULER_CASES):
        x = element()
        y = element()
        z = element()
        yield x, y, z, _element(1 - 2 * next(sign), x.codim1)


def _euler_laws(seed, start, stop) -> bool:
    """Whether cases [start, stop) of criterion 07's one case stream keep
    every law.  One product x*y per case serves the commutativity,
    associativity and distributivity checks.  A negative control, x + UNIT
    differing from x, keeps an equality that ignores the unit, or holds
    always, from passing the laws."""
    ok = True
    for x, y, z, u in islice(_euler_cases(seed, start), stop - start):
        if x + UNIT == x:
            ok = False
        xy = x * y
        if xy != y * x:
            ok = False
        if xy * z != x * (y * z):
            ok = False
        if x * (y + z) != xy + x * z:
            ok = False
        if UNIT * x != x or x * UNIT != x:
            ok = False
        if x + (-x) != ZERO or x + ZERO != x:
            ok = False
        if u * u.inverse() != UNIT:
            ok = False
        if not ok:
            break
    return ok


def _euler_result(ok, elapsed, note="") -> CriterionResult:
    return CriterionResult(7, "euler-ring-axioms", ok, f"{EULER_CASES} randomized cases per law{note}", elapsed)


def criterion_07_euler_axioms(seed=0) -> CriterionResult:
    """Randomized ring laws on truncated elements, 10^4 cases per law."""
    t0 = time.perf_counter()
    ok = _euler_laws(seed, 0, EULER_CASES)
    return _euler_result(ok, time.perf_counter() - t0)


def criterion_08_gradient_check(seed=0) -> CriterionResult:
    """Residual matches central differences of the discrete functional."""
    t0 = time.perf_counter()
    from .galerkin import GalerkinBasis, NonlinearitySpec, gradient_check, make_state

    basis = GalerkinBasis(8)
    nl = NonlinearitySpec.quartic()
    sig = SystemSignature((1, -1))
    rng = random.Random(seed)
    state = make_state(basis, [rng.gauss(0.0, 0.5) for _ in range(2 * basis.n_modes)], 1.3)
    err = gradient_check(basis, nl, sig, state, seed=seed)
    ok = err <= 1e-6
    return _result(8, "galerkin-gradient", t0, ok, f"max relative FD error {err:.2e}", limit=10.0)


def criterion_09_crossing_agreement(seed=0) -> CriterionResult:
    """Galerkin crossings and their kernel dimensions equal the candidate
    bifurcation levels and theirs exactly."""
    t0 = time.perf_counter()
    from .galerkin import trivial_branch_crossings

    space = SymmetricSpaceData.sphere(2)
    cutoff = Fraction(30)
    ok = True
    for sig in _signatures(3):
        crossings = [(c.lam, c.kernel_dim) for c in trivial_branch_crossings(8, sig, (-cutoff, cutoff))]
        levels = [(bl.level, bl.kernel_dim) for bl in bifurcation_levels(space, sig, cutoff)]
        if crossings != levels:
            ok = False
    return _result(9, "crossing-agreement", t0, ok, "all signatures with p <= 3, window [-30, 30]")


def criterion_10_branch_witness(seed=0) -> CriterionResult:
    """Axisymmetric branch from lambda = 2 grows to norm 1 and breaks symmetry."""
    t0 = time.perf_counter()
    from .continuation import ONSET_AMPLITUDE, continue_branch
    from .galerkin import NonlinearitySpec, node_variance

    nl = NonlinearitySpec.quartic()
    sig = SystemSignature((-1,))
    result = continue_branch(8, nl, sig, 2, target_norm=1.0)
    ok = result.outcome == "reached_target" and len(result.states) <= 500
    ok = ok and all(st.h1_norm >= ONSET_AMPLITUDE / 10.0 for st in result.states)
    ok = ok and all(
        node_variance(result.basis, st.coeffs) > 1e-8 * st.h1_norm**2 for st in result.states
    )
    detail = f"{result.outcome} in {len(result.states)} steps"
    if result.states:
        detail += f", final norm {result.states[-1].h1_norm:.3f}"
    if result.reason:
        detail += f": {result.reason}"
    return _result(10, "branch-witness", t0, ok, detail, limit=60.0)


CRITERIA = (
    criterion_01_spectrum_exactness,
    criterion_02_product_degeneracy,
    criterion_03_first_appearance,
    criterion_04_coefficient_formula,
    criterion_05_impossibility,
    criterion_06_zero_level,
    criterion_07_euler_axioms,
    criterion_08_gradient_check,
    criterion_09_crossing_agreement,
    criterion_10_branch_witness,
)


def run_all(seed: int = 0) -> list[CriterionResult]:
    """The ten criteria in order.  With two or more CPUs, one forked worker
    checks criterion 07's cases from ``_PARENT_CASES`` on while this process
    runs the other criteria and the cases before; criterion 07 passes when
    both parts do, and its time is the longer part's."""
    if len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2:
        return [fn(seed=seed) for fn in CRITERIA]
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the worker: its verdict and time, then out without cleanup
        code = 1
        try:
            os.close(read_end)
            t0 = time.perf_counter()
            ok = _euler_laws(seed, _PARENT_CASES, EULER_CASES)
            os.write(write_end, f"{ok:d} {time.perf_counter() - t0!r}".encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            results = [fn(seed=seed) for fn in CRITERIA[:6]]
            t0 = time.perf_counter()
            ok = _euler_laws(seed, 0, _PARENT_CASES)
            elapsed = time.perf_counter() - t0
            later = [fn(seed=seed) for fn in CRITERIA[7:]]
            verdict = pipe.read().split()
        _, status = os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if verdict:
        ok = ok and verdict[0] == b"1"
        result = _euler_result(ok, max(elapsed, float(verdict[1])))
    else:
        code = os.waitstatus_to_exitcode(status)
        result = _euler_result(False, elapsed, f"; the worker exited with status {code} before its verdict")
    return [*results, result, *later]

"""Output checks for every game's CSV, with references built from plain numpy.

Nothing here imports `parrondo`: each reference is computed from the
game's definition (coin angles, win probabilities, strategy words, the
collapsed master equation), so a fault in the package cannot also sit in
the reference it is compared with.  A check returns None when the series
passes and a one-line reason when it does not.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from workloads import PREPARATIONS, Op

# agreement between two independent routes; equals parrondo.gates.ATOL_CROSS
ATOL_CROSS = 1e-8
# agreement between a closed form or an exact reference and a series
RTOL_EXACT = 1e-9
# Trajectory means are compared with exact references in standard errors.
# A 4-stderr band per step flags about 1 in 800 correct 30-step series
# (simulated replicas of the collapsed game), so over the 32 series of a
# sweep run a correct program would fail on some seeds.  None of 20000
# replicas reached 5 stderr; a normal tail puts one step in 5e8 beyond 6,
# and the band still rejects the perturbations in selfcheck.py.
Z_TRAJ = 6.0
ENUMERATED_STEPS = 12


@dataclass(frozen=True)
class Series:
    """The columns of one CSV; `extra` holds stderr or the kspace pair."""

    ns: np.ndarray
    cap: np.ndarray
    mom: np.ndarray
    extra: tuple = ()

    @classmethod
    def read(cls, path) -> "Series":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        if header[:3] != ["n", "expected_capital", "second_moment"]:
            raise ValueError(f"unexpected header {header}")
        if table.shape[1] != len(header):
            raise ValueError("row width differs from the header")
        return cls(table[:, 0], table[:, 1], table[:, 2],
                   tuple(table[:, i] for i in range(3, len(header))))


# --- references ----------------------------------------------------------------

def coin(theta: float) -> np.ndarray:
    """G(theta, 0, 0) of the package's coin parametrization."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, 1j * s], [1j * s, c]])


def default_coins(eps: float):
    """Coins a, b0, b1 at bias detuning eps."""
    return coin(np.pi - 2 * eps), coin(np.pi / 5 - 2 * eps), coin(1.5 - 2 * eps)


def classical_win(eps: float):
    return 0.5 - eps, 0.1 - eps, 0.75 - eps


def weight_a(schedule: str, n: int) -> float:
    if schedule == "random":
        return 0.5
    return 1.0 if schedule[n % len(schedule)] == "A" else 0.0


@functools.lru_cache(maxsize=64)
def classical_moments(eps: float, schedule: str, steps: int):
    """Exact (E[x_n], E[x_n^2]) by the master equation on capitals."""
    p, p0, p1 = classical_win(eps)
    xs = np.arange(-steps, steps + 1)
    p_b = np.where(xs % 3 == 0, p0, p1)
    prob = np.zeros(len(xs))
    prob[steps] = 1.0
    m1, m2 = [0.0], [0.0]
    for n in range(steps):
        w = weight_a(schedule, n)
        up = (w * p + (1 - w) * p_b) * prob
        nxt = np.zeros_like(prob)
        nxt[1:] += up[:-1]
        nxt[:-1] += (prob - up)[1:]
        prob = nxt
        m1.append(float(xs @ prob))
        m2.append(float((xs * xs) @ prob))
    return np.array(m1), np.array(m2)


def mixture_drift(eps: float) -> float:
    """Stationary per-step drift of the fair A/B mixture's mod-3 chain."""
    p, p0, p1 = classical_win(eps)
    q = 0.5 * p + 0.5 * np.array([p0, p1, p1])
    t = np.zeros((3, 3))
    for r in range(3):
        t[r, (r + 1) % 3] = q[r]
        t[r, (r - 1) % 3] = 1 - q[r]
    a = np.vstack([(t.T - np.eye(3))[:2], np.ones(3)])
    pi = np.linalg.solve(a, [0.0, 0.0, 1.0])
    return float(pi @ (2 * q - 1))


def quantum_one_step(eps: float, c: int) -> float:
    """E[x_1] of the walk from chirality c, either strategy bit."""
    return (1 - 2 * c) * 0.5 * (np.cos(2 * eps) - np.cos(np.pi / 5 - 2 * eps))


def site_coins(eps: float, xs: np.ndarray) -> np.ndarray:
    """b(x) laid out (i, j, x)."""
    _, b0, b1 = default_coins(eps)
    return np.where(xs % 3 == 0, b0[:, :, None], b1[:, :, None])


@functools.lru_cache(maxsize=64)
def word_moments(eps: float, c: int, steps: int):
    """Moments of the mixed game by enumerating all 2^steps strategy words.

    Every word is a unitary walk; the CP map is their uniform average.
    """
    a, _, _ = default_coins(eps)
    xs = np.arange(-steps, steps + 1)
    bx = site_coins(eps, xs)
    psi = np.zeros((1, 2, len(xs)), dtype=complex)
    psi[0, c, steps] = 1.0
    m1, m2 = [0.0], [0.0]
    for _ in range(steps):
        branch_a = np.einsum("ij,wjx->wix", a, psi)
        branch_b = np.einsum("ijx,wjx->wix", bx, psi)
        both = np.concatenate([branch_a, branch_b])
        psi = np.zeros_like(both)
        psi[:, 0, :-1] = both[:, 0, 1:]   # coin 0 steps down
        psi[:, 1, 1:] = both[:, 1, :-1]   # coin 1 steps up
        pop = (np.abs(psi) ** 2).sum(axis=1).mean(axis=0)
        m1.append(float(xs @ pop))
        m2.append(float((xs * xs) @ pop))
    return np.array(m1), np.array(m2)


@functools.lru_cache(maxsize=64)
def collapsed_moments(eps: float, c: int, steps: int):
    """E[x^k], k = 1, 2, 4, of the strategy-and-coin-collapsed game.

    The exact chain on (capital, coin): the coin goes from c to c' with
    P(c'|x, c) = |a_c'c|^2 / 2 + |b(x)_c'c|^2 / 2, then the capital moves
    down for c' = 0 and up for c' = 1.
    """
    a, _, _ = default_coins(eps)
    xs = np.arange(-steps, steps + 1)
    move = 0.5 * np.abs(a)[:, :, None] ** 2 + 0.5 * np.abs(site_coins(eps, xs)) ** 2
    prob = np.zeros((2, len(xs)))
    prob[c, steps] = 1.0
    out = [(0.0, 0.0, 0.0)]
    for _ in range(steps):
        flow = np.einsum("pcx,cx->px", move, prob)
        prob = np.zeros_like(prob)
        prob[0, :-1] = flow[0, 1:]
        prob[1, 1:] = flow[1, :-1]
        pop = prob.sum(axis=0)
        out.append(tuple(float((xs ** k) @ pop) for k in (1, 2, 4)))
    return np.array(out).T


# --- checks ---------------------------------------------------------------------

def _first(mask) -> int | None:
    """Index of the first True entry, None if there is none."""
    bad = np.nonzero(mask)[0]
    return None if len(bad) == 0 else int(bad[0])


def _close(got, ref, rtol=RTOL_EXACT) -> int | None:
    """Index of the first entry off by more than rtol * max(1, |ref|)."""
    return _first(np.abs(got - ref) > rtol * np.maximum(1.0, np.abs(ref)))


def check_shape(op: Op, s: Series, peers) -> str | None:
    """Rows n = 0..steps; start at 0; bounded, consistent moments."""
    if len(s.ns) != op.steps + 1 or np.any(s.ns != np.arange(op.steps + 1)):
        return f"step column is not 0..{op.steps}"
    cols = (s.cap, s.mom) + s.extra
    if not all(np.all(np.isfinite(col)) for col in cols):
        return "non-finite value"
    if any(col[0] != 0.0 for col in cols):
        return "row 0 is not all zero"
    ns = s.ns
    slack = RTOL_EXACT * np.maximum(1.0, s.mom)
    for name, mask in (("|E[x_n]| > n", np.abs(s.cap) > ns + slack),
                       ("E[x_n^2] > n^2", s.mom > ns * ns + slack),
                       ("E[x_n^2] < E[x_n]^2", s.mom < s.cap ** 2 - slack)):
        n = _first(mask)
        if n is not None:
            return f"{name} at n={n}"
    return None


def check_classical_master(op, s, peers):
    """Both moments equal a plain master-equation propagation."""
    m1, m2 = classical_moments(op.epsilon, op.schedule, op.steps)
    for name, got, ref in (("E[x]", s.cap, m1), ("E[x^2]", s.mom, m2)):
        n = _close(got, ref)
        if n is not None:
            return f"{name} at n={n}: {got[n]:.17g} vs master equation {ref[n]:.17g}"
    return None


def check_classical_always_a(op, s, peers):
    """Always-A: E[x_n] = n(2p-1), E[x_n^2] = 4np(1-p) + n^2 (2p-1)^2."""
    p = classical_win(op.epsilon)[0]
    n = s.ns
    for name, got, ref in (("E[x]", s.cap, n * (2 * p - 1)),
                           ("E[x^2]", s.mom,
                            4 * n * p * (1 - p) + n * n * (2 * p - 1) ** 2)):
        bad = _close(got, ref)
        if bad is not None:
            return f"{name} at n={bad}: {got[bad]:.17g} vs closed form {ref[bad]:.17g}"
    return None


def check_classical_drift(op, s, peers):
    """Random mixture: the late slope is the stationary drift of the
    averaged mod-3 chain."""
    slope = s.cap[-1] - s.cap[-2]
    drift = mixture_drift(op.epsilon)
    if abs(slope - drift) > 1e-12:
        return f"late slope {slope:.17g} vs stationary drift {drift:.17g}"
    return None


PARADOX_SIGN = {"A": -1, "B": -1, "AABB": 1, "random": 1}


def check_classical_paradox(op, s, peers):
    """A and B lose, their periodic and random mixtures win."""
    want = PARADOX_SIGN[op.schedule]
    if np.sign(s.cap[-1]) != want:
        return f"final capital {s.cap[-1]:.17g} should have sign {want:+d}"
    return None


def check_one_step(op, s, peers):
    """E[x_1] = (1 - 2c) (cos 2 eps - cos(pi/5 - 2 eps)) / 2 on every route."""
    want = quantum_one_step(op.epsilon, op.c)
    for name, col in (("E[x_1]", s.cap),) + (
            (("kspace E[x_1]", s.extra[0]),) if op.game == "kspace" else ()):
        if abs(col[1] - want) > 1e-12:
            return f"{name} = {col[1]:.17g}, closed form {want:.17g}"
    return None


def check_antisymmetry(op, s, peers):
    """From c = 1 the series mirrors c = 0: E[x] flips sign, E[x^2] stays."""
    mirrors = [q for q in peers if q.game == op.game and q.c == 0
               and q.d == op.d and q.epsilon == op.epsilon]
    if not mirrors:
        return None  # the workload runs this game from c = 1 alone
    other = peers[mirrors[0]]
    if other is None:
        return "the c = 0 run it mirrors failed"
    m = min(len(s.cap), len(other.cap))
    for name, got, ref in (("E[x]", s.cap[:m], -other.cap[:m]),
                           ("E[x^2]", s.mom[:m], other.mom[:m])):
        n = _close(got, ref)
        if n is not None:
            return f"{name} at n={n}: {got[n]:.17g} vs mirrored {ref[n]:.17g}"
    return None


def check_kspace_routes(op, s, peers):
    """The momentum-space columns agree with the direct walk's."""
    cap_k, mom_k = s.extra
    n = _first(np.abs(cap_k - s.cap) > ATOL_CROSS)
    if n is not None:
        return f"E[x] routes differ by {abs(cap_k[n] - s.cap[n]):.3e} at n={n}"
    n = _first(np.abs(mom_k - s.mom) > ATOL_CROSS * np.maximum(1.0, s.mom))
    if n is not None:
        return (f"E[x^2] routes differ by {abs(mom_k[n] - s.mom[n]):.3e} "
                f"at n={n}, relative to {s.mom[n]:.3e}")
    return None


def check_cpmap_words(op, s, peers):
    """The first steps equal the average over all strategy words."""
    k = min(ENUMERATED_STEPS, op.steps)
    m1, m2 = word_moments(op.epsilon, op.c, k)
    for name, got, ref in (("E[x]", s.cap[:k + 1], m1),
                           ("E[x^2]", s.mom[:k + 1], m2)):
        n = _close(got, ref, rtol=1e-12)
        if n is not None:
            return f"{name} at n={n}: {got[n]:.17g} vs word average {ref[n]:.17g}"
    return None


def check_headline(op, s, peers):
    """The coherent walk gains more than the CP map by step n (the paper's
    claim): max |E[x_n]| over the four preparations > |cpmap E[x_n]|."""
    n = op.steps
    preps = {(q.d, q.c): peers[q] for q in peers
             if q.game == "quantum" and q.epsilon == op.epsilon
             and q.steps >= n}
    if set(preps) != set(PREPARATIONS):
        return None  # the workload does not run all four preparations
    if None in preps.values():
        return "a quantum run it compares with failed"
    best = max(abs(q.cap[n]) for q in preps.values())
    if not best > abs(s.cap[n]):
        return f"max |quantum E[x_{n}]| {best:.17g} <= |cpmap E[x_{n}]| {abs(s.cap[n]):.17g}"
    return None


def check_traj_d(op, s, peers):
    """Mean within Z_TRAJ stderr of the CP map from the same start; stderr
    within the bound the second-moment column sets on it."""
    (err,) = s.extra
    if op.samples > 1:
        # mean over trajectories of <x>^2 <= mean of <x^2>, which bounds
        # the sample variance of <x> by the two mean columns
        spread = np.sqrt(np.maximum(s.mom - s.cap ** 2, 0.0) / (op.samples - 1))
        n = _first(err > spread * (1 + RTOL_EXACT) + 1e-12)
        if n is not None:
            return f"stderr {err[n]:.17g} at n={n} exceeds its bound {spread[n]:.17g}"
    ref = [peers[q] for q in peers if q.game == "cpmap"
           and q.epsilon == op.epsilon and q.c == op.c]
    if not ref or ref[0] is None:
        return "no cpmap run from the same start to compare with"
    m = min(op.steps, len(ref[0].cap) - 1) + 1
    gap = np.abs(s.cap[:m] - ref[0].cap[:m])
    n = _first(gap > Z_TRAJ * err[:m] + 1e-12)
    if n is not None:
        return (f"mean {s.cap[n]:.17g} at n={n} is {gap[n] / max(err[n], 1e-300):.1f}"
                f" stderr from cpmap {ref[0].cap[n]:.17g}")
    return None


def check_traj_dc(op, s, peers):
    """stderr matches the moment columns; both moments within Z_TRAJ
    standard errors of the exact collapsed master equation."""
    (err,) = s.extra
    if op.samples > 1:
        # every trajectory reports (x, x^2), so the sample variance of x is
        # fixed by the two mean columns
        n = _first(np.abs(err ** 2 * (op.samples - 1) - (s.mom - s.cap ** 2))
                   > RTOL_EXACT * np.maximum(1.0, s.mom))
        if n is not None:
            return f"stderr {err[n]:.17g} at n={n} disagrees with the moment columns"
    m1, m2, m4 = collapsed_moments(op.epsilon, op.c, op.steps)
    for name, got, ref, var in (("E[x]", s.cap, m1, m2 - m1 ** 2),
                                ("E[x^2]", s.mom, m2, m4 - m2 ** 2)):
        se = np.sqrt(np.maximum(var, 0.0) / op.samples)
        gap = np.abs(got - ref)
        n = _first(gap > Z_TRAJ * se + 1e-9 * np.maximum(1.0, np.abs(ref)))
        if n is not None:
            return (f"{name} {got[n]:.17g} at n={n} is {gap[n] / max(se[n], 1e-300):.1f}"
                    f" exact stderr from {ref[n]:.17g}")
    return None


@dataclass(frozen=True)
class Check:
    name: str
    applies: object   # Op -> bool
    fn: object        # (Op, Series, peers) -> str | None


def _is(*games):
    return lambda op: op.game in games


CHECKS = (
    Check("shape", lambda op: True, check_shape),
    Check("classical.master_equation", _is("classical"), check_classical_master),
    Check("classical.always_a", lambda op: op.schedule == "A",
          check_classical_always_a),
    Check("classical.mixture_drift",
          lambda op: op.schedule == "random" and op.steps >= 1000,
          check_classical_drift),
    Check("classical.paradox_signs",
          lambda op: op.game == "classical" and op.steps >= 1000,
          check_classical_paradox),
    Check("quantum.one_step", _is("quantum", "kspace"), check_one_step),
    Check("coin_antisymmetry",
          lambda op: op.game in ("quantum", "cpmap") and op.c == 1,
          check_antisymmetry),
    Check("kspace.routes_agree", _is("kspace"), check_kspace_routes),
    Check("cpmap.word_enumeration", _is("cpmap"), check_cpmap_words),
    Check("paper.headline",
          lambda op: op.game == "cpmap" and op.c == 0 and op.steps >= 200,
          check_headline),
    Check("traj_d.matches_cpmap", _is("traj-d"), check_traj_d),
    Check("traj_dc.matches_master_equation", _is("traj-dc"), check_traj_dc),
)


def failures(op: Op, series: Series, peers: dict) -> list[str]:
    """Every check that applies to op and rejects its series.

    peers maps each op of the round to its series (None when that run
    failed); the cross-route checks look their partners up there.
    """
    shape = check_shape(op, series, peers)
    if shape is not None:  # the other checks index rows by step
        return [f"shape: {shape}"]
    return [f"{check.name}: {msg}" for check in CHECKS[1:]
            if check.applies(op)
            for msg in [check.fn(op, series, peers)] if msg is not None]

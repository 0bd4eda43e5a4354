"""Closed forms and output checks for the benchmark, independent of mistrustq.

Nothing here imports the package under test.  Every expected value comes
from a closed form, from numpy's own linear algebra applied to the raw
inputs, or from a property the result must have.  Checks look only at
eigenvalues and probabilities, never at which vector a solver picked inside
a degenerate eigenspace.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import json
import math

import numpy as np

EXACT_TOL = 1e-9  # spectral equalities: entropies, eigenvalues, probabilities
NORM_TOL = 1e-9  # unit norm of states read back from transcripts
SIGMAS = 4.0  # Monte Carlo frequencies must lie within this many std errors


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_close(name: str, got: float, want: float, tol: float = EXACT_TOL) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{name}: got {got!r}, want {want!r} within {tol}",
    )


def require_within_sigma(name: str, freq: float, p: float, sigma: float) -> None:
    """freq is a Monte Carlo estimate of p with standard error sigma."""
    require(
        abs(freq - p) <= SIGMAS * sigma,
        f"{name}: {freq!r} is more than {SIGMAS} sigma ({sigma!r}) from {p!r}",
    )


def binomial_sigma(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


# --- closed forms -----------------------------------------------------------


def h2(p: float) -> float:
    """Binary entropy in bits."""
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def ensemble_entropy(n: int, theta: float) -> float:
    """S(rho_n) = n * H2((1 + sin theta) / 2) for the bit-wise ensemble."""
    return n * h2((1.0 + math.sin(theta)) / 2.0)


def entropy_of_spectrum(eigenvalues) -> float:
    """-sum lambda log2 lambda over the positive part of a spectrum."""
    w = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, 1.0)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def bit_cheat_total(theta: float) -> float:
    """p0 + p1 for the optimal bit-wise cheat state: 1 + sin theta."""
    return 1.0 + math.sin(theta)


def bitwise_cheat_accept(n: int, theta: float) -> float:
    """Acceptance of the cheat state on all n qubits for either claimed bit."""
    return ((1.0 + math.sin(theta)) / 2.0) ** n


def codebook_bound(r: int, epsilon: float) -> float:
    return 1.0 + (r - 1) * epsilon


def simplex_top(d: int) -> float:
    """Top eigenvalue of the cheat operator for r >= 2 simplex targets."""
    return (d + 1) / d


def detection_prob(M: int, N: int, fraction: float) -> float:
    """Tamper detection: each of ceil(f N) bad pairs in each of the M - 1
    tested batches passes the singlet test with probability 1/2."""
    k = math.ceil(fraction * N)
    return 1.0 - 2.0 ** (-k * (M - 1))


def best_of_m_moments(M: int, N: int) -> tuple[float, float]:
    """Mean and variance of the best zero-prefix length over M uniform
    N-bit strings, from P(best >= k) = 1 - (1 - 2^-k)^M, k = 1..N."""
    mean = second = 0.0
    for k in range(1, N + 1):
        tail = 1.0 - (1.0 - 2.0**-k) ** M
        mean += tail
        second += (2 * k - 1) * tail
    return mean, second - mean * mean


# --- spectral checks ----------------------------------------------------------


def projector_sum(vectors: np.ndarray) -> np.ndarray:
    """sum_t |v_t><v_t| for the rows of vectors."""
    V = np.asarray(vectors, dtype=complex)
    return V.T @ V.conj()


def check_ensemble_entropy(n: int, theta: float, got: float) -> None:
    require_close(f"S(rho_{n}) at theta={theta}", got, ensemble_entropy(n, theta))


def check_codebook_overlaps(vectors: np.ndarray, epsilon: float) -> None:
    V = np.asarray(vectors, dtype=complex)
    norms = np.linalg.norm(V, axis=1)
    require(np.abs(norms - 1.0).max() <= NORM_TOL, "codebook vectors not unit norm")
    G = np.abs(V @ V.conj().T)
    np.fill_diagonal(G, 0.0)
    require(G.max() < epsilon, f"pairwise overlap {G.max()!r} not below {epsilon!r}")


def check_holevo(vectors: np.ndarray, holevo: float, dim_bound: float) -> None:
    V = np.asarray(vectors, dtype=complex)
    rho = projector_sum(V) / V.shape[0]
    want = entropy_of_spectrum(np.linalg.eigvalsh(rho))
    require_close("holevo", holevo, want)
    require_close("dim_bound", dim_bound, math.log2(V.shape[1]), 0.0)
    require(holevo <= dim_bound + EXACT_TOL, f"holevo {holevo!r} above log2(dim)")


def check_multistring_cheat(
    vectors: np.ndarray,
    targets,
    epsilon: float,
    total: float,
    probs,
    cheat_state: np.ndarray,
) -> None:
    """The optimal cheat against targets, judged by eigenvalues only.

    total must be the top eigenvalue of sum_t |v_t><v_t| (computed here by
    eigvalsh) and at most 1 + (r - 1) epsilon; the cheat state must attain it
    as a Rayleigh quotient, and its success probabilities |<v_t|c>|^2 must
    match the reported ones and sum to total.
    """
    V = np.asarray(vectors, dtype=complex)[list(targets)]
    Q = projector_sum(V)
    top = float(np.linalg.eigvalsh(Q)[-1])
    r = len(targets)
    require(total <= codebook_bound(r, epsilon) + 1e-12,
            f"lambda_max {total!r} above 1 + (r-1) eps = {codebook_bound(r, epsilon)!r}")
    require_close("cheat total vs eigvalsh", total, top)
    c = np.asarray(cheat_state, dtype=complex)
    require_close("cheat state norm", float(np.linalg.norm(c)), 1.0)
    require_close("cheat Rayleigh quotient", float(np.real(np.vdot(c, Q @ c))), total)
    want = np.abs(V.conj() @ c) ** 2
    require(len(probs) == r, f"{len(probs)} success probabilities for {r} targets")
    for t, (p, w) in enumerate(zip(probs, want)):
        require_close(f"success prob of target {t}", float(p), float(w))
    require_close("success probs sum to total", float(sum(probs)), total)


def check_gram_spectrum(vectors: np.ndarray, targets, gram_eigenvalues) -> None:
    """The r x r Gram matrix and the dim x dim cheat operator share their
    nonzero spectrum; what remains of the longer spectrum is zero."""
    V = np.asarray(vectors, dtype=complex)[list(targets)]
    q = np.sort(np.linalg.eigvalsh(projector_sum(V)))[::-1]
    g = np.sort(np.asarray(gram_eigenvalues, dtype=float))[::-1]
    require(len(g) == len(targets), f"{len(g)} Gram eigenvalues for {len(targets)} targets")
    k = min(len(q), len(g))
    require(np.abs(q[:k] - g[:k]).max() <= EXACT_TOL,
            f"Gram spectrum {g[:k]} differs from cheat spectrum {q[:k]}")
    rest = np.concatenate([q[k:], g[k:]])
    require(rest.size == 0 or np.abs(rest).max() <= EXACT_TOL,
            f"spectrum beyond rank is not zero: {rest}")


def check_bit_cheat(theta: float, cheat_state: np.ndarray, p0: float, p1: float) -> None:
    s, c = math.sin(theta), math.cos(theta)
    psi = (np.array([1.0, 0.0]), np.array([s, c]))
    v = np.asarray(cheat_state, dtype=complex)
    require_close("bit cheat state norm", float(np.linalg.norm(v)), 1.0)
    for name, p, e in (("p0", p0, psi[0]), ("p1", p1, psi[1])):
        require_close(f"{name} at theta={theta}", p, float(abs(np.vdot(e, v)) ** 2))
    require_close(f"p0 + p1 at theta={theta}", p0 + p1, bit_cheat_total(theta))


# --- CLI output checks ---------------------------------------------------------


def rows_by_key(rows: list[dict]) -> dict:
    return {row["key"]: row["value"] for row in rows}


def check_bitwise_cheat_run(rows: list[dict], n: int, theta: float, trials: int) -> None:
    kv = rows_by_key(rows)
    acc = kv.get("verdict_Accepted", 0)
    rej = kv.get("verdict_Rejected", 0)
    require(acc + rej == trials, f"{acc} + {rej} verdicts for {trials} trials")
    p = bitwise_cheat_accept(n, theta)
    require_within_sigma("bitwise cheat acceptance", acc / trials, p,
                         binomial_sigma(p, trials))


def check_multistring_run(rows: list[dict], r: int, epsilon: float, trials: int) -> None:
    """Each trial accepts with probability lambda_max / r, which lies in
    [1/r, (1 + (r-1) eps) / r]; the frequency must too, up to 4 sigma."""
    kv = rows_by_key(rows)
    acc = kv.get("verdict_Accepted", 0)
    rej = kv.get("verdict_Rejected", 0)
    require(acc + rej == trials, f"{acc} + {rej} verdicts for {trials} trials")
    lo, hi = 1.0 / r, codebook_bound(r, epsilon) / r
    worst = 0.25 if lo <= 0.5 <= hi else max(q * (1 - q) for q in (lo, hi))
    sigma = math.sqrt(worst / trials)
    freq = acc / trials
    require(lo - SIGMAS * sigma <= freq <= hi + SIGMAS * sigma,
            f"multistring acceptance {freq!r} outside [{lo}, {hi}] +- {SIGMAS} sigma")


def check_honest_toss_run(rows: list[dict], N: int, trials: int) -> None:
    kv = rows_by_key(rows)
    require(kv.get("verdict_Completed", 0) == trials,
            f"honest tosses completed {kv.get('verdict_Completed', 0)} of {trials}")
    require(set(kv) <= {"verdict_Completed", "bit_one_freq"}, f"unexpected rows {sorted(kv)}")
    require_within_sigma("honest bit_one_freq", kv["bit_one_freq"], 0.5,
                         binomial_sigma(0.5, trials * N))


def check_tamper_run(rows: list[dict], M: int, N: int, fraction: float, trials: int) -> None:
    kv = rows_by_key(rows)
    p = detection_prob(M, N, fraction)
    detected = kv.get("verdict_CheatDetected", 0)
    require(detected + kv.get("verdict_Completed", 0) == trials,
            f"verdicts do not add up to {trials}: {kv}")
    require_within_sigma("tamper detection", detected / trials, p, binomial_sigma(p, trials))


def check_best_of_m_run(rows: list[dict], M: int, N: int, trials: int) -> None:
    kv = rows_by_key(rows)
    require(kv.get("verdict_Completed", 0) == trials,
            f"best-of-M tosses completed {kv.get('verdict_Completed', 0)} of {trials}")
    mean, var = best_of_m_moments(M, N)
    require_within_sigma("best-of-M mean advantage", kv["mean_advantage_bits"], mean,
                         math.sqrt(var / trials))


def check_detection_sweep(rows: list[dict], N: int, fraction: float, trials: int,
                          values) -> None:
    require([row["M"] for row in rows] == list(values), f"sweep rows {rows}")
    for row in rows:
        require(row["trials"] == trials, f"sweep row {row} has the wrong trial count")
        p = detection_prob(row["M"], N, fraction)
        require_within_sigma(f"detection at M={row['M']}", row["mean"], p,
                             binomial_sigma(p, trials))


def check_advantage_sweep(rows: list[dict], N: int, trials: int, values) -> None:
    require([row["M"] for row in rows] == list(values), f"sweep rows {rows}")
    for row in rows:
        require(row["trials"] == trials, f"sweep row {row} has the wrong trial count")
        mean, var = best_of_m_moments(row["M"], N)
        require_within_sigma(f"best-of-M mean at M={row['M']}", row["mean"], mean,
                             math.sqrt(var / trials))


# --- transcript checks -----------------------------------------------------------


def check_transcript_lines(data: bytes) -> dict:
    """Parse a transcript's JSON lines independently of the package.

    Checks that sequence numbers count up, senders alternate, and every
    quantum state in a payload is unit norm.  Returns header, messages and
    footer.
    """
    lines = data.decode("utf-8").splitlines()
    require(len(lines) >= 2, "transcript without header and footer")
    docs = [json.loads(line) for line in lines]
    header, messages, footer = docs[0], docs[1:-1], docs[-1]
    require(set(footer) == {"verdict"}, f"bad footer {footer}")
    for i, m in enumerate(messages):
        require(m["seq"] == i, f"message {i} has seq {m['seq']}")
        require(m["sender"] in ("alice", "bob"), f"unknown sender {m['sender']}")
        if i:
            require(m["sender"] != messages[i - 1]["sender"], f"senders repeat at {i}")
        payload = m["payload"]
        states = payload.get("states", [])
        if "state" in payload:
            states = [payload["state"]]
        if states:
            amps = np.asarray(states, dtype=float)
            z = amps[..., 0] + 1j * amps[..., 1]
            norms = np.linalg.norm(z, axis=-1)
            require(np.abs(norms - 1.0).max() <= NORM_TOL,
                    f"state norm off by {np.abs(norms - 1.0).max()!r} in message {i}")
    return {"header": header, "messages": messages, "verdict": footer["verdict"]}


def check_honest_toss_bits(messages: list[dict]) -> None:
    bits = {m["kind"]: m["payload"]["bits"] for m in messages if m["kind"].endswith("_bits")}
    require(set(bits) == {"alice_bits", "bob_bits"}, f"bit messages {sorted(bits)}")
    a, b = bits["alice_bits"], bits["bob_bits"]
    require(len(a) == len(b) and set(a + b) <= {"0", "1"}, "malformed bit strings")
    require(all(x != y for x, y in zip(a, b)), "honest bits are not complements")

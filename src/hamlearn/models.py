"""Likelihood models for commuting-coupling spin systems.

The working model is an Ising Hamiltonian with no transverse field,
``H(x) = sum_{(i,j) in G} x_ij Z_i Z_j`` on an interaction graph G.  The
system starts in ``|+>^n``, evolves under the unknown couplings for time t,
optionally has a guessed evolution inverted on top of it, and is measured in
the ``X^n`` eigenbasis.  Because H is diagonal, the whole outcome
distribution reduces to per-bitstring phases followed by a Walsh-Hadamard
transform, which is what the fast path does; the likelihood of one outcome
is a single character sum, or on a forest a product of one-coupling
factors.  `IsingModel` is the one likelihood model: the exactly solvable
one-coupling case is its 2-qubit pair, whose closed form
`single_param_likelihood` serves the quadrature reference of `hamlearn.risk`.
A dense matrix reference implementation (`dense_oracle_distribution`)
provides an independent brute-force check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, TooManyQubits

CLE = "CLE"
QLE = "QLE"
IQLE = "IQLE"
EXPERIMENT_KINDS = (CLE, QLE, IQLE)

FULL_BASIS = "full"
TWO_OUTCOME = "two"
MEASUREMENT_MODES = (FULL_BASIS, TWO_OUTCOME)

EXACT = "exact"
SAMPLED = "sampled"
NOISY_EXACT = "noisy_exact"
EVALUATOR_MODES = (EXACT, SAMPLED, NOISY_EXACT)

# Floor applied to every likelihood returned for weight updates.  It prevents
# a cloud from being wiped out by pure floating-point underflow while leaving
# genuine impossibilities numerically negligible at any realistic weight.
LIKELIHOOD_FLOOR = 1e-300

# O(n * 2^n) per distribution; beyond this the fast path stops being "fast".
QUBIT_CAP = 14
ORACLE_QUBIT_CAP = 6

# Elements per chunk of the half-table likelihood and of `risk.risk_scan`: a
# float64 temporary of 512 KiB stays in cache and under the mmap threshold
# `harness._keep_freed_heap` sets, so each chunk reuses the last one's memory.
CHUNK_ELEMENTS = 2**16

@dataclass(frozen=True)
class InteractionGraph:
    """Qubit count plus an edge set; one coupling parameter per edge."""

    n: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("an interaction graph needs at least 2 qubits")
        edges = []
        for edge in self.edges:
            try:
                i, j = map(operator.index, edge)
            except TypeError:
                raise ValueError(f"edge {edge!r} has a non-integer endpoint") from None
            if not 0 <= i < j < self.n:
                raise ValueError(f"edge ({i}, {j}) is not ordered within [0, {self.n})")
            if (i, j) in edges:
                raise ValueError(f"duplicate edge ({i}, {j})")
            edges.append((i, j))
        if not edges:
            raise ValueError("graph must have at least one edge")
        object.__setattr__(self, "edges", tuple(edges))

    @classmethod
    def complete(cls, n: int) -> "InteractionGraph":
        return cls(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))

    @classmethod
    def line(cls, n: int) -> "InteractionGraph":
        return cls(n, tuple((i, i + 1) for i in range(n - 1)))

    @property
    def dimension(self) -> int:
        return len(self.edges)


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One experiment: kind, evolution time, optional inversion couplings.

    IQLE experiments must carry inversion couplings; CLE/QLE must not, and
    the two design and score the same experiment here: the likelihood's
    source is the evaluator's mode, not the kind.
    `measurement` selects between the full X-basis outcome register and the
    two-outcome POVM {returned to |+>^n, anything orthogonal}.
    """

    kind: str
    time: float
    inversion: Optional[np.ndarray] = None
    measurement: str = FULL_BASIS

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.measurement not in MEASUREMENT_MODES:
            raise ValueError(f"unknown measurement mode {self.measurement!r}")
        if not np.isfinite(self.time) or self.time < 0:
            raise ValueError("evolution time must be finite and nonnegative")
        if self.kind == IQLE:
            if self.inversion is None:
                raise ValueError("IQLE experiments require inversion couplings")
            inv = np.asarray(self.inversion, dtype=float).ravel().copy()
            inv.setflags(write=False)
            object.__setattr__(self, "inversion", inv)
        elif self.inversion is not None:
            raise ValueError(f"{self.kind} experiments take no inversion couplings")


def single_param_likelihood(d: int, x, x_inv, t) -> Union[float, np.ndarray]:
    """Probability of outcome d in {0, 1} for the one-coupling echo model.

    Pr(d | x; x_inv, t) = (1 + (1 - 2d) cos[2 (x - x_inv) t]) / 2, so the two
    outcome probabilities sum to 1 exactly.
    """
    if d not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    value = 0.5 * (1.0 + (1 - 2 * d) * np.cos(2.0 * (np.asarray(x) - x_inv) * t))
    if np.ndim(x) == 0:
        return float(value)
    return value


def fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis.

    Returns W with W[..., D] = sum_z (-1)^{D.z} a[..., z]; the length of the
    last axis must be a power of two.
    """
    a = np.array(a, copy=True)
    m = a.shape[-1]
    if m & (m - 1) or m == 0:
        raise ValueError("transform length must be a power of two")
    lead = a.shape[:-1]
    h = 1
    while h < m:
        blocks = a.reshape(lead + (m // (2 * h), 2, h))
        out = np.empty_like(blocks)
        out[..., 0, :] = blocks[..., 0, :] + blocks[..., 1, :]
        out[..., 1, :] = blocks[..., 0, :] - blocks[..., 1, :]
        a = out.reshape(lead + (m,))
        h *= 2
    return a


def _bit_parity(v: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each entry of a nonnegative integer array."""
    v = v.astype(np.uint64, copy=True)
    for shift in (32, 16, 8, 4, 2, 1):
        v ^= v >> np.uint64(shift)
    return (v & np.uint64(1)).astype(np.int64)


def _odd(mask: int) -> bool:
    return bin(mask).count("1") % 2 == 1


def _components(n: int, edges) -> Tuple[list, bool]:
    """Bitmask of each connected component of `edges` on n vertices (isolated
    vertices included), found by union-find, and whether the edges form a forest.
    """
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    forest = True
    for i, j in edges:
        ri, rj = find(i), find(j)
        forest &= ri != rj
        root[ri] = rj
    masks = {}
    for v in range(n):
        masks[find(v)] = masks.get(find(v), 0) | 1 << v
    return list(masks.values()), forest


class IsingModel:
    """Diagonal Ising couplings on an interaction graph.

    `outcome_distribution` applies per-bitstring phases exp(-i dE(z) t), with
    dE(z) = E(z) - E_inv(z), followed by a Walsh-Hadamard transform.
    `likelihood_many` scores one outcome D for many particles and picks its
    `kernel` from the graph.  Both use that E(z) is unchanged when every spin
    of a connected component flips, so D has probability 0 when it has odd
    parity within some component.

    - "forest": the bond variables s_i s_j of a forest are independent, so
      P(D) is the product over edges of sin^2(delta_e t) where D has odd
      parity on the side of edge e holding its second vertex, and
      cos^2(delta_e t) elsewhere.
    - "half-table": with a cycle the character sum runs over the half of the
      sign table whose last qubit is 0, as real cos/sin sums in place of exp.

    Both kernels take one tangent per angle and get cosine and sine by exact
    algebra: with u = tan(delta_e t), cos^2 = 1/(1 + u^2) and
    sin^2 = u^2/(1 + u^2); with h = tan(phi/2) and q = 1/(1 + h^2),
    cos phi = 2q - 1 and sin phi = 2hq.  numpy vectorizes float64 `tan`
    with SIMD where the CPU allows, while `cos` and `sin` fall back to
    scalar libm once |phi| >= 3, which is most of the kernels' range; where
    `tan` is scalar too, the half table still makes half the calls.  The
    identities stay exact at tan's poles, where u^2 is large but finite.

    numpy's trig functions reduce their own arguments, so neither path needs
    a reduction mod 2*pi; `outcome_distribution` keeps one only so that
    outcomes sampled from it stay bit for bit what they were.

    The one-coupling echo is the 2-qubit pair `InteractionGraph.line(2)`.
    The likelihood accessors return values in [LIKELIHOOD_FLOOR, 1]; the
    filter reads them through `simulate.LikelihoodEvaluator`.
    """

    def __init__(self, graph: InteractionGraph):
        if graph.n > QUBIT_CAP:
            raise TooManyQubits(f"{graph.n} qubits exceeds cap {QUBIT_CAP}")
        self.graph = graph
        self.dimension = graph.dimension
        self._n_states = 2**graph.n
        self._signs = self._sign_table(graph)
        self._component_masks, forest = _components(graph.n, graph.edges)
        self.kernel = "forest" if forest else "half-table"
        if forest:
            # Cutting edge e splits its tree; keep the side holding vertex j.
            self._side_masks = []
            for e, (_, j) in enumerate(graph.edges):
                parts, _ = _components(graph.n, graph.edges[:e] + graph.edges[e + 1:])
                self._side_masks.append(next(m for m in parts if m >> j & 1))

    @staticmethod
    def _sign_table(graph: InteractionGraph) -> np.ndarray:
        """(d, 2^n) table of spin products s_i s_j per edge and bitstring.

        Bit k of the state index is the z-outcome of qubit k, and spin
        s_k = (-1)^{bit k}.
        """
        states = np.arange(2**graph.n, dtype=np.uint64)
        bits = (states[None, :] >> np.arange(graph.n, dtype=np.uint64)[:, None]) & np.uint64(1)
        table = np.empty((graph.dimension, 2**graph.n))
        for e, (i, j) in enumerate(graph.edges):
            table[e] = 1.0 - 2.0 * np.bitwise_xor(bits[i], bits[j]).astype(float)
        return table

    def energies(self, x) -> np.ndarray:
        """Diagonal of H(x) over all 2^n computational basis states."""
        return self._check_params(x) @ self._signs

    def outcome_count(self, exp: ExperimentSpec) -> int:
        return 2 if exp.measurement == TWO_OUTCOME else self._n_states

    def _check_params(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"expected {self.dimension} couplings, got {x.shape[0]}"
            )
        return x

    def _inversion(self, exp: ExperimentSpec) -> Optional[np.ndarray]:
        if exp.kind != IQLE:
            return None
        # `ExperimentSpec` stores it as a read-only float64 vector.
        if exp.inversion.shape[0] != self.dimension:
            raise DimensionMismatch(
                f"inversion has {exp.inversion.shape[0]} couplings, model has {self.dimension}"
            )
        return exp.inversion

    def outcome_distribution(self, x, exp: ExperimentSpec) -> np.ndarray:
        x = self._check_params(x)
        inv = self._inversion(exp)
        delta = x if inv is None else x - inv
        phases = np.mod((delta @ self._signs) * exp.time, 2.0 * np.pi)
        factors = np.exp(-1j * phases)
        if exp.measurement == TWO_OUTCOME:
            # W[0] alone, summed in the transform's own adjacent-pair order,
            # so p0 is the full transform's bit for bit.
            while factors.size > 1:
                factors = factors[0::2] + factors[1::2]
            p0 = min(float((np.abs(factors / self._n_states) ** 2)[0]), 1.0)
            return np.array([p0, 1.0 - p0])
        return np.abs(fwht(factors) / self._n_states) ** 2

    def likelihood(self, outcome: int, x, exp: ExperimentSpec) -> float:
        return float(self.likelihood_many(outcome, np.atleast_2d(x), exp)[0])

    def likelihood_many(self, outcome: int, xs, exp: ExperimentSpec) -> np.ndarray:
        """Probability of `outcome` for every row of `xs`, vectorized.

        The kernels run on ``xs.T``, one row per coupling, so a cloud's
        coupling-major positions are read contiguously; a C-ordered `xs`
        gives the same values bit for bit.

        On a forest each particle costs d tangents (see the class
        docstring).  With a cycle the transform collapses to one character
        sum over the half table, so each chunk costs a (chunk, d) @
        (d, 2^(n-1)) product, 2^(n-1) tangents per particle and two real
        dots.  The two-outcome complement (outcome 1) is computed directly on
        a forest, as 1 - exp(-sum_e log(1 + u_e^2)), free of cancellation as
        the return probability nears 1; with a cycle it is 1 - p0.
        """
        count = self.outcome_count(exp)
        if not 0 <= outcome < count:
            raise ValueError(f"outcome {outcome} outside [0, {count})")
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs.reshape(-1, 1)
        if xs.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected {self.dimension} couplings, got {xs.shape[1]}"
            )
        inv = self._inversion(exp)
        # (d, size), one row per coupling: contiguous rows for a cloud's
        # coupling-major positions.
        deltas = xs.T if inv is None else xs.T - inv[:, None]
        size = deltas.shape[1]

        if exp.measurement == TWO_OUTCOME:
            target, complement = 0, outcome == 1
        else:
            target, complement = outcome, False
        if any(_odd(target & mask) for mask in self._component_masks):
            return np.full(size, LIKELIHOOD_FLOOR)

        if self.kernel == "forest":
            # u^2 = tan^2(delta_e t), built in place: cos^2 = 1 / (1 + u^2)
            # and sin^2 = u^2 / (1 + u^2), applied one edge at a time.  The
            # C-ordered rows make the sum over edges run edge by edge, the
            # same order whatever the layout of `xs`.
            tan2 = np.multiply(deltas, exp.time, order="C")
            np.tan(tan2, out=tan2)
            tan2 *= tan2
            if complement:
                # 1 - prod_e cos^2 = 1 - exp(-sum_e log(1 + u^2))
                out = -np.expm1(-np.log1p(tan2, out=tan2).sum(axis=0))
            else:
                out = np.ones(size)
                for e, side in enumerate(self._side_masks):
                    if _odd(target & side):
                        out *= tan2[e]
                    out /= 1.0 + tan2[e]
            return np.clip(out, LIKELIHOOD_FLOOR, 1.0)

        half = self._n_states // 2
        signs = self._signs[:, :half]
        chi = 1.0 - 2.0 * _bit_parity(
            np.bitwise_and(np.uint64(target), np.arange(half, dtype=np.uint64))
        ).astype(float)
        chi_sum = chi.sum()
        out = np.empty(size)
        chunk = max(1, CHUNK_ELEMENTS // half)
        for start in range(0, size, chunk):
            # h = tan(phi/2) and q = 1/(1 + h^2): cos phi = 2q - 1, sin phi = 2hq.
            h = deltas[:, start : start + chunk].T @ signs
            h *= 0.5 * exp.time
            np.tan(h, out=h)
            q = h * h
            q += 1.0
            np.reciprocal(q, out=q)
            re = 2.0 * (q @ chi) - chi_sum
            h *= q
            im = 2.0 * (h @ chi)
            out[start : start + chunk] = (re * re + im * im) / (half * half)
        if complement:
            out = 1.0 - out
        return np.clip(out, LIKELIHOOD_FLOOR, 1.0)


def _dense_energy_diagonal(graph: InteractionGraph, x: np.ndarray) -> np.ndarray:
    """Diagonal of H(x) assembled from Kronecker products of Z factors."""
    z_diag = np.array([1.0, -1.0])
    identity = np.ones(2)
    total = np.zeros(2**graph.n)
    for w, (i, j) in zip(x, graph.edges):
        factors = [identity] * graph.n
        factors[i] = z_diag
        factors[j] = z_diag
        # Reversed so that bit k of the matrix index is qubit k.
        total += w * reduce(np.kron, reversed(factors))
    return total


def dense_oracle_distribution(graph: InteractionGraph, x, exp: ExperimentSpec) -> np.ndarray:
    """Brute-force outcome distribution via dense matrix algebra.

    Builds the diagonal evolution operators explicitly, changes basis with a
    dense Hadamard-product matrix, and squares the amplitudes.  Deliberately
    shares no code with the fast path so it can serve as an independent
    ground truth; capped at 6 qubits.
    """
    if graph.n > ORACLE_QUBIT_CAP:
        raise TooManyQubits(f"oracle is capped at {ORACLE_QUBIT_CAP} qubits")
    x = np.asarray(x, dtype=float).ravel()
    if x.shape[0] != graph.dimension:
        raise DimensionMismatch(
            f"expected {graph.dimension} couplings, got {x.shape[0]}"
        )
    forward = np.diag(np.exp(-1j * _dense_energy_diagonal(graph, x) * exp.time))
    if exp.kind == IQLE:
        inv = np.asarray(exp.inversion, dtype=float).ravel()
        if inv.shape[0] != graph.dimension:
            raise DimensionMismatch("inversion couplings have the wrong dimension")
        backward = np.diag(np.exp(1j * _dense_energy_diagonal(graph, inv) * exp.time))
    else:
        backward = np.eye(2**graph.n, dtype=complex)
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    hadamard = reduce(np.kron, [h2] * graph.n)
    initial = hadamard[:, 0].astype(complex)  # |+...+> in the z basis
    amplitudes = hadamard.T @ (backward @ (forward @ initial))
    probs = np.abs(amplitudes) ** 2
    if exp.measurement == TWO_OUTCOME:
        p0 = min(float(probs[0]), 1.0)
        return np.array([p0, 1.0 - p0])
    return probs


def bitflip_wrap(alpha: float, p):
    """Mix a two-outcome probability with a symmetric bit-flip of rate alpha."""
    if not 0.0 <= alpha <= 0.5:
        raise ValueError("bit-flip rate must lie in [0, 0.5]")
    out = alpha + (1.0 - 2.0 * alpha) * np.asarray(p, dtype=float)
    if out.ndim == 0:
        return float(out)
    return out

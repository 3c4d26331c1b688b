"""Quickstart: estimate every statistic of a matrix product the paper studies.

Alice holds a binary matrix ``A`` (rows = sets), Bob holds ``B`` (columns =
sets), and they estimate statistics of ``C = A B`` while the library meters
exactly how many bits they exchanged and in how many rounds.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import MatrixProductEstimator
from repro.matrices import exact_heavy_hitters, exact_linf, exact_lp_pp, product, random_binary_pair


def main() -> None:
    n = 128
    a, b = random_binary_pair(n, density=0.08, seed=7)
    c = product(a, b)  # ground truth, never used by the protocols
    estimator = MatrixProductEstimator(a, b, seed=7)
    naive_bits = n * n  # shipping Alice's whole binary matrix

    print(f"Matrices: {n} x {n} binary, naive exchange would cost {naive_bits} bits\n")

    # --- l_0: set-intersection join size (Theorem 3.1, p = 0) --------------
    result = estimator.join_size(epsilon=0.25)
    print("Set-intersection join size  ||AB||_0")
    print(f"  estimate {result.value:10.1f}   truth {exact_lp_pp(c, 0):10.1f}")
    print(f"  cost     {result.cost.total_bits} bits in {result.cost.rounds} rounds\n")

    # --- l_1: natural join size (Remark 2, exact) ---------------------------
    result = estimator.natural_join_size()
    print("Natural join size           ||AB||_1  (exact)")
    print(f"  value    {result.value:10.1f}   truth {exact_lp_pp(c, 1):10.1f}")
    print(f"  cost     {result.cost.total_bits} bits in {result.cost.rounds} round\n")

    # --- l_2: squared Frobenius norm (Theorem 3.1, p = 2) -------------------
    result = estimator.lp_norm(p=2, epsilon=0.25)
    print("Squared Frobenius norm      ||AB||_2^2")
    print(f"  estimate {result.value:10.1f}   truth {exact_lp_pp(c, 2):10.1f}")
    print(f"  cost     {result.cost.total_bits} bits in {result.cost.rounds} rounds\n")

    # --- l_inf: the most similar pair of sets (Theorem 4.1) -----------------
    result = estimator.linf(epsilon=0.25)
    print("Maximum intersection size   ||AB||_inf  (2+eps approximation)")
    print(f"  estimate {result.value:10.1f}   truth {exact_linf(c):10.1f}")
    print(f"  cost     {result.cost.total_bits} bits in {result.cost.rounds} rounds\n")

    # --- heavy hitters (Theorem 5.3) ----------------------------------------
    phi, eps = 0.02, 0.01
    result = estimator.heavy_hitters(phi=phi, epsilon=eps)
    truth = exact_heavy_hitters(c, phi, p=1)
    print(f"Heavy hitters (phi={phi}, eps={eps})")
    print(f"  reported {len(result.value.pairs)} pairs, exact count {len(truth)}")
    print(f"  cost     {result.cost.total_bits} bits in {result.cost.rounds} rounds\n")

    # --- sampling (Theorem 3.2 and Remark 3) --------------------------------
    l0_sample = estimator.l0_sample(epsilon=0.3).value
    l1_sample = estimator.l1_sample().value
    print("Samples from the product's support")
    if l0_sample.success:
        print(f"  uniform (l_0) sample:     entry {l0_sample.as_pair()} "
              f"with value {l0_sample.value}")
    if l1_sample.success:
        value = int(c[l1_sample.row, l1_sample.col])
        print(f"  value-weighted (l_1) sample: entry {l1_sample.as_pair()} "
              f"with value {value}")
    print()

    # --- runtime conditions: a k-site run under simulated WAN links ---------
    # Same protocols, same bits — but the star's links now carry 10 ms of
    # latency at 1 Mbit/s, so the cost report gains a simulated makespan
    # (critical path over rounds, the hub draining uploads back to back).
    from repro import ClusterEstimator
    from repro.comm import LinkModel, NetworkConditions

    conditions = NetworkConditions(LinkModel(latency=0.010, bandwidth=1e6))
    cluster = ClusterEstimator.from_matrix(a, b, num_sites=4, seed=7, conditions=conditions)
    result = cluster.join_size(epsilon=0.25)
    print("k-site run under simulated WAN conditions (10 ms, 1 Mbit/s links)")
    print(f"  estimate {result.value:10.1f}   truth {exact_lp_pp(c, 0):10.1f}")
    print(f"  cost     {result.cost.total_bits} bits in {result.cost.rounds} rounds, "
          f"busiest link {result.cost.max_link_bits} bits")
    print(f"  simulated makespan {result.cost.makespan * 1e3:.1f} ms "
          f"(per round: {[round(s * 1e3, 1) for s in result.cost.makespan_per_round.values()]} ms)")


if __name__ == "__main__":
    np.set_printoptions(suppress=True)
    main()

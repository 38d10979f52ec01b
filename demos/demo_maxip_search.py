"""Sublinear maximum-inner-product search with hyperplane hashing.

For unit vectors, a random hyperplane separates x and q with probability
acos(<x, q>) / pi, so K-bit signatures in L independent tables put highly
aligned pairs in the same bucket often and weakly aligned pairs rarely.
The index answers (c, tau)-Max-IP queries: if some point has inner product
at least tau with the query, a point with inner product at least c * tau is
returned with probability 1 - delta.  Reported values are exact inner
products recomputed on the candidates, so Found answers are never wrong;
only misses are probabilistic.
"""

import math

import numpy as np

from sketchmatch import maxip_exponent, maxip_init, maxip_query, maxip_update


def main():
    rng = np.random.default_rng(0)
    n, d, c, tau, delta = 2000, 64, 0.9, 0.6, 0.1
    base = rng.standard_normal((n, d))
    base /= np.linalg.norm(base, axis=1, keepdims=True)

    index = maxip_init(base, c=c, tau=tau, delta=delta, seed=1)
    p = index.params
    print(f"n = {n}: K = {p.k_bits} bits per table, L = {p.n_tables} tables "
          f"(p1 = {p.p1:.3f}, p2 = {p.p2:.3f}, rho = {p.rho:.3f})")

    # Plant a point at inner product exactly tau with a fresh query.
    q = rng.standard_normal(d)
    q /= np.linalg.norm(q)
    u = rng.standard_normal(d)
    u -= (u @ q) * q
    u /= np.linalg.norm(u)
    maxip_update(index, 0, tau * q + math.sqrt(1 - tau * tau) * u)

    res = maxip_query(index, q)
    print(f"planted pair at {tau}: found={res.found} index={res.index} "
          f"value={res.value:.4f}")
    print(f"  examined {res.examined} candidates, hashed {res.tables_hashed} of "
          f"{p.n_tables} tables; an exhaustive scan would touch all n = {n}")

    # A query orthogonal to everything certifies a miss with index -1.
    basis = np.eye(d)
    iso = maxip_init(basis[:16], c=c, tau=tau, delta=delta, seed=2)
    far = basis[16:32].mean(axis=0)
    far /= np.linalg.norm(far)
    miss = maxip_query(iso, far)
    print(f"orthogonal query: found={miss.found} index={miss.index}")

    # Closed-form query exponents for the three constructions.
    for regime in ("time", "space"):
        print(f"{regime}-optimal exponent at (c, tau) = ({c}, {tau}): "
              f"n^{maxip_exponent(c, tau, regime):.3f}")
    print(f"classical near-neighbor exponent at approximation 2: "
          f"n^{maxip_exponent(2.0, tau, 'ann'):.3f}")


if __name__ == "__main__":
    main()

"""Exhaustive search for phase-loss witnesses among short 3-strand braids.

Enumerates every word of length up to --max-length over the generators
sigma_1^±1, sigma_2^±1, groups words whose |<i|rho(b)|j>|^2 matrices agree to
--moduli-tol, and reports groups whose exact brackets (evaluated at
A = e^(i*theta)) differ.  Each such group is a set of braids the sampling
computer cannot distinguish even though their bracket values differ.
"""

import argparse
import math

import numpy as np

from braidket import short_word_table, unitary_generators


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float, default=math.pi / 10)
    parser.add_argument("--max-length", type=int, default=4)
    parser.add_argument("--moduli-tol", type=float, default=1e-12)
    parser.add_argument("--bracket-tol", type=float, default=1e-6)
    parser.add_argument("--max-groups", type=int, default=10)
    args = parser.parse_args()

    setup = unitary_generators(args.theta)
    words, moduli, values = short_word_table(setup, args.max_length)
    print(f"theta = {args.theta}, delta = {setup.delta:.6f}, {len(words)} words")

    # Bucket by rounded moduli, then split buckets by bracket value.
    digits = max(0, round(-math.log10(args.moduli_tol)) - 2)
    buckets: dict[tuple, list[int]] = {}
    for idx in range(len(words)):
        buckets.setdefault(tuple(np.round(moduli[idx], digits)), []).append(idx)

    shown = 0
    for indices in buckets.values():
        if len(indices) < 2:
            continue
        spread = max(
            abs(values[i] - values[j]) for i in indices for j in indices if i < j
        )
        if spread <= args.bracket_tol:
            continue
        coherent = all(
            np.max(np.abs(moduli[i] - moduli[j])) <= args.moduli_tol
            for i in indices
            for j in indices
            if i < j
        )
        if not coherent:
            continue
        shown += 1
        print(f"\nwitness group {shown} (bracket spread {spread:.6f}):")
        print(f"  shared moduli matrix: {moduli[indices[0]].reshape(2, 2)}")
        for i in indices:
            print(f"  word '{words[i]}': bracket = {values[i]:.6f}")
        if shown >= args.max_groups:
            break
    if shown == 0:
        print("no witness groups found at these tolerances")
    else:
        print(f"\n{shown} indistinguishable-but-different group(s) shown: the sampler")
        print("observes only squared moduli, so it cannot recover the bracket.")


if __name__ == "__main__":
    main()

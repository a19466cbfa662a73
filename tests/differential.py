"""Differential of float ``stationary`` against the exact answer.

Three generators of random band chains, each 2,500 chains for each of three
``random.Random`` seeds.  A chain has n in {3, 4, 5, 6, 8, 12} states; each
off-diagonal parameter of :func:`~equilib.matrix_from_bands` is zero with
probability 1/4 and otherwise

* (a) ``10^(-300u)``, seeds 11-13;
* (b) ``10^(-300u) / n``, seeds 21-23;
* (c) ``10^(-323.3u)``, down to the smallest subnormal, seeds 31-33;

for ``u`` uniform in [0, 1).  A band summing to 1 or more is scaled to sum
1/2, and half of the chains are relabelled by a random permutation.

The reference is ``support.stationary_reference`` on the exact values of the
validated float matrix, a nullspace computation that shares no code with
the package.  An answer is right when its unique flag matches the
reference's and every entry is within ``1e-9 r + 2^-1073`` of the exact
``r``.  The script prints right / wrong / raise for each generator, and
each wrong or raising input as a ``matrix_from_bands(...)`` repr with its
permutation, labelled by generator and chain index (seed by seed).

The package is imported as Python finds it, so to compare two versions run
the script once under each ``PYTHONPATH``::

    PYTHONPATH=src python tests/differential.py [--count N]

``--count`` is the number of chains per seed (default 2,500).
"""

import argparse
import random
import time
from fractions import Fraction

import numpy as np

import equilib
from equilib import matrix_from_bands, stationary
from support import exact_rows_of, stationary_reference

# name: (decades, divide by n, seeds)
GENERATORS = {
    "a": (300, False, (11, 12, 13)),
    "b": (300, True, (21, 22, 23)),
    "c": (323.3, False, (31, 32, 33)),
}
# right: within REL r + ULP of every exact entry r
REL, ULP = Fraction(1, 10 ** 9), Fraction(2) ** -1073


def band_chain(rng, decades, divide):
    """``(bands, perm)`` of one random chain; ``perm`` is ``None`` when the
    chain is not relabelled."""
    n = rng.choice([3, 4, 5, 6, 8, 12])
    bands = []
    for _ in range(n):
        band = [0.0 if rng.random() < 0.25
                else 10.0 ** (-decades * rng.random()) / (n if divide else 1)
                for _ in range(n - 1)]
        if sum(map(Fraction, band)) >= 1:
            band = [x / (2 * sum(band)) for x in band]
        bands.append(band)
    if rng.random() < 0.5:
        perm = list(range(n))
        rng.shuffle(perm)
        return bands, perm
    return bands, None


def reference(p):
    """The exact stationary vector of the float matrix ``p``, or ``None``
    when it has several closed classes."""
    try:
        return stationary_reference(exact_rows_of(p))
    except AssertionError:  # a nullspace of more than one dimension
        return None


def verdict(p):
    """``("right" | "wrong" | "raise", detail)`` of ``stationary(p)``."""
    try:
        res = stationary(p)
    except Exception as exc:
        return "raise", f"{type(exc).__name__}: {exc}"
    ref = reference(p)
    if res.unique != (ref is not None):
        return "wrong", f"unique {res.unique}, reference {ref is not None}"
    if ref is None:
        return "right", ""
    bad = [i for i, (x, r) in enumerate(zip(res.pi, ref))
           if abs(Fraction(float(x)) - r) > REL * r + ULP]
    if bad:
        return "wrong", f"entries {bad} off"
    return "right", ""


def run(name, count):
    decades, divide, seeds = GENERATORS[name]
    tally = {"right": 0, "wrong": 0, "raise": 0}
    for s, seed in enumerate(seeds):
        rng = random.Random(seed)
        for i in range(count):
            bands, perm = band_chain(rng, decades, divide)
            p = matrix_from_bands(bands).p.copy()
            if perm is not None:
                p = p[np.ix_(perm, perm)]
            kind, detail = verdict(p)
            tally[kind] += 1
            if kind != "right":
                relabel = "" if perm is None else f" relabelled by {perm}"
                print(f"  {name}{s * count + i} {kind} ({detail}): "
                      f"matrix_from_bands({bands!r}){relabel}")
    return tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=2500,
                        help="chains per seed (default 2500)")
    args = parser.parse_args(argv)
    if not __debug__:
        parser.error("run without -O: the reference flags several closed "
                     "classes by an assert")
    print(f"equilib from {equilib.__file__}, {args.count} chains per seed")
    start = time.perf_counter()
    for name in GENERATORS:
        t0 = time.perf_counter()
        tally = run(name, args.count)
        print(f"({name}) {tally['right']} right, {tally['wrong']} wrong, "
              f"{tally['raise']} raise, {time.perf_counter() - t0:.1f} s")
    print(f"total {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()

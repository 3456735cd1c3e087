"""Helpers shared by several test modules."""

import hashlib
import itertools
import os

from hlab.folang import evaluate


def digest_tree(out_dir):
    """sha256 of every file under out_dir, keyed by its relative path."""
    found = {}
    for root, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def minimum_cover_size(M, pf, psi):
    """Exhaustive minimum-cover oracle over bitmask coverage sets."""
    if not psi:
        return 0
    full = (1 << len(psi)) - 1
    masks = set()
    for a in range(M.size):
        m = 0
        for j, tup in enumerate(psi):
            assignment = {pf.object_var: a}
            assignment.update(zip(pf.params, tup))
            if evaluate(M, pf.formula, assignment):
                m |= 1 << j
        if m:
            masks.add(m)
    # dropping dominated coverage sets keeps at least one optimal cover
    kept = [m for m in masks if not any(m != o and m | o == o for o in masks)]
    for k in range(1, len(kept) + 1):
        for combo in itertools.combinations(kept, k):
            u = 0
            for m in combo:
                u |= m
            if u == full:
                return k
    raise AssertionError("psi not coverable")

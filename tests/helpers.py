"""Shared instance catalog and cached builders for the test suite."""

from __future__ import annotations

import functools

from perdom.cohom import assemble_cohomology, build_group_data
from perdom.semistable import build_verifier

# name -> (cartan type, mu, q, twist)
INSTANCES = {
    "a1_reg": ((("A", 1),), (1, -1), 2, None),
    "a1_double": ((("A", 1),), (2, -2), 2, None),
    "a2_reg": ((("A", 2),), (1, 0, -1), 2, None),
    "a2_min": ((("A", 2),), (2, -1, -1), 2, None),
    "a2_min2": ((("A", 2),), (1, 1, -2), 2, None),
    "a3_mid": ((("A", 3),), (1, 0, 0, -1), 2, None),
    "a3_reg": ((("A", 3),), (3, 1, -1, -3), 2, None),
    "a3_min": ((("A", 3),), (1, 1, -1, -1), 2, None),
    "b2_min": ((("B", 2),), (1, 0), 2, None),
    "b2_reg": ((("B", 2),), (2, 1), 2, None),
    "g2_sing": ((("G", 2),), (1, 0, -1), 2, None),
    "a1a1_reg": ((("A", 1), ("A", 1)), (1, -1, 1, -1), 2, None),
    "u3_reg": ((("A", 2),), (1, 0, -1), 2, ((2, 1), 2)),
    "u3_min": ((("A", 2),), (2, -1, -1), 2, ((2, 1), 2)),
    "u4_mid": ((("A", 3),), (1, 0, 0, -1), 2, ((3, 2, 1), 2)),
    "u4_min": ((("A", 3),), (1, 1, -1, -1), 2, ((3, 2, 1), 2)),
    "res_sl2": ((("A", 1), ("A", 1)), (1, -1, 1, -1), 2, ((2, 1), 2)),
    "a2_central": ((("A", 2),), (0, 0, 0), 2, None),
    "u3_central": ((("A", 2),), (0, 0, 0), 2, ((2, 1), 2)),
    "a1a1_halfcentral": ((("A", 1), ("A", 1)), (1, -1, 0, 0), 2, None),
    "a2_redundant_e": ((("A", 2),), (1, 0, -1), 2, ((1, 2), 2)),
}

# instances where mu is noncentral on every k-simple factor: the strict
# bottom-degree shape (one Steinberg-type summand in degree d') must hold
STRICT_SHAPE = (
    "a1_reg", "a1_double", "a2_reg", "a2_min", "a2_min2",
    "a3_mid", "a3_reg", "a3_min", "b2_min", "b2_reg", "g2_sing", "a1a1_reg",
    "u3_reg", "u3_min", "u4_mid", "u4_min", "res_sl2",
)

DEGENERATE = ("a2_central", "u3_central", "a1a1_halfcentral")

SPLIT_NAMES = tuple(
    name for name, (_, _, _, twist) in INSTANCES.items()
    if twist is None or twist[0] == tuple(range(1, len(twist[0]) + 1))
)


def instance(name: str, q: int | None = None):
    return _instance(name, q or INSTANCES[name][2])


def table(name: str, q: int | None = None):
    return _table(name, q or INSTANCES[name][2])


# keyed on the resolved q, so instance(name) and instance(name, None) share one build
@functools.lru_cache(maxsize=None)
def _instance(name: str, q: int):
    ctype, mu, _, twist = INSTANCES[name]
    return build_group_data(list(ctype), list(mu), q, twist=twist)


@functools.lru_cache(maxsize=None)
def _table(name: str, q: int):
    return assemble_cohomology(_instance(name, q))


@functools.lru_cache(maxsize=None)
def verifier(name: str, m: int, q: int | None = None):
    return build_verifier(instance(name, q), m)


def summand_signature(gd, tbl):
    """Canonical comparable shape of a table."""
    return sorted(
        (s.degree, s.twist, tuple(sorted(s.I)), s.galois_dim) for s in tbl.summands
    )

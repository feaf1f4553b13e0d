"""perdom's records: what importing the CLI loads, and how records hash,
compare and refuse assignment."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import instance, rational_filtrations, table, verifier
from perdom.cohom import dim_v
from perdom.rootdata import LatticeVec
from perdom.semistable import FlagPoint
from perdom.weyl import generate_weyl

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_by_cli_import(names) -> list[str]:
    """Which of the named modules a fresh ``import perdom.cli`` loads; every
    command pays that import before it starts, and -S keeps site-packages
    from importing any of them on its own."""
    code = f"import sys, perdom.cli; print(*sorted({set(names)!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.split()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert loaded_by_cli_import(["dataclasses", "inspect"]) == []


def test_cli_import_loads_neither_argparse_nor_gettext():
    # building an argparse parser cost 3-5 ms inside every command, and
    # argparse's gettext calls import locale
    assert loaded_by_cli_import(["argparse", "gettext"]) == []


def _examples():
    """One record of each immutable kind, with its field names in order; the
    first six are the kinds kept in sets and dict keys."""
    gd = instance("u3_reg")
    test = rational_filtrations(verifier("a2_reg", 1))[0]
    summand = table("u3_reg").summands[0]
    return [
        (test.chain[0], ("rows", "ncols")),
        (test, ("chain", "weights", "n")),
        (gd.mu_orbit[1], ("word", "labels")),
        (gd.mu, ("side", "coords")),
        (dim_v(gd, frozenset()), ("coeffs",)),
        (gd.worbits[1], ("rep", "members", "size", "length")),
        (gd.datum, ("cartan_type", "ambient_dim", "simple_roots", "simple_coroots",
                    "cartan_matrix", "positive_coefficients")),
        (gd.action, ("perm", "order")),
        (gd.orbits_delta, ("orbits", "labels")),
        (summand, ("orbit", "I", "degree", "twist", "galois_dim")),
        (table("u3_reg"), ("d_prime", "summands")),
        (generate_weyl(gd.datum).elements[1], ("word", "matrix", "length")),
    ]


def test_records_hash_as_the_tuple_of_their_fields():
    # set and dict orders, and so the reports, rest on these hashes
    for record, names in _examples()[:6]:
        fields = tuple(getattr(record, name) for name in names)
        assert hash(record) == hash(fields), type(record).__name__
        twin = type(record)(**dict(zip(names, fields)))
        assert twin == record and hash(twin) == hash(record), type(record).__name__


def test_records_refuse_assignment():
    for record, names in _examples():
        for name in (names[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_validating_records_still_check_their_fields():
    with pytest.raises(ValueError, match="unknown side"):
        LatticeVec("weight", (Fraction(1),))
    with pytest.raises(ValueError, match="one subspace per weight"):
        FlagPoint(chain=(), weights=(Fraction(1), Fraction(0)), n=2)

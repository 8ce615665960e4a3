"""Microbenchmarks of the order certificate, with pytest-benchmark.

    pytest bench/test_reaches_order.py --benchmark-only   # PYTHONPATH=src

``permgrp.reaches_order`` (the chain builder stopped once its orbit
product, a proven lower bound, reaches the target) against ``schreier_sims``
(the same builder run to a complete chain), each asked for the exact order
of:

* the polar zero-stabilizers ``affine_polar_group(4, 2, +1)`` (vo:+:8:2, 256
  points) and ``affine_polar_group(2, 7, -1)`` (vo:-:4:7, 2401 points);
* the solver's generators of Aut(hq:3:3) (729 points), the group the catalog's
  aut stage certifies.

On Aut(hq:3:3) the certificate is also asked along the solver's base, its
first path's three vertices, as the aut stage asks it: the orbit product
along them reaches the order, so no chain is built.

On a 2-core machine (Python 3.11, numpy 2.4) the complete chain takes
0.1-0.45 s on these groups, the stopped one 1.1-2.2 ms, and the one along
the base 0.2 ms, so all get ``ROUNDS`` rounds.
"""

from __future__ import annotations

import pytest

from rank3.autsolve import automorphism_group
from rank3.families import Build, affine_polar_group, parse_descriptor
from rank3.permgrp import linear_perms, reaches_order, schreier_sims

# (group, its order): the closed-form similitude orders, |GO+(8, 2)| and
# |GO-(4, 7)| * 6, and the solver's order of Aut(hq:3:3)
GROUPS = ["polar:4:2:+1", "polar:2:7:-1", "aut:hq:3:3"]
POLAR_ORDERS = {(4, 2, 1): 348364800, (2, 7, -1): 1411200}
ROUNDS = 5


@pytest.fixture(scope="module")
def hq33():
    """The seeded search's result on hq:3:3, as the aut stage gets it."""
    row = Build(parse_descriptor("hq:3:3"))
    return automorphism_group(row.graph, known=row.stabilizer)


@pytest.fixture(scope="module", params=GROUPS)
def group(request, hq33):
    kind, *rest = request.param.split(":")
    if kind == "polar":
        m, q, eps = (int(x) for x in rest)
        return linear_perms(affine_polar_group(m, q, eps)), POLAR_ORDERS[m, q, eps]
    return hq33.generators, hq33.order


def test_reaches_order(benchmark, group):
    gs, order = group
    assert benchmark.pedantic(reaches_order, (gs, order), rounds=ROUNDS)


def test_reaches_order_along_base(benchmark, hq33):
    args = (hq33.generators, hq33.order)
    assert benchmark.pedantic(reaches_order, args, {"base": hq33.base}, rounds=ROUNDS)


def test_schreier_sims(benchmark, group):
    gs, order = group
    assert benchmark.pedantic(schreier_sims, (gs,), rounds=ROUNDS).order == order

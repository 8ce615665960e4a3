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

On a 2-core machine the complete chain takes 0.4-1.1 s on these groups and
the stopped one under 10 ms, so both get ``ROUNDS`` rounds.
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


@pytest.fixture(scope="module", params=GROUPS)
def group(request):
    kind, *rest = request.param.split(":")
    if kind == "polar":
        m, q, eps = (int(x) for x in rest)
        return linear_perms(affine_polar_group(m, q, eps)), POLAR_ORDERS[m, q, eps]
    row = Build(parse_descriptor(":".join(rest)))
    result = automorphism_group(row.graph, known=row.stabilizer)
    return result.generators, result.order


def test_reaches_order(benchmark, group):
    gs, order = group
    assert benchmark.pedantic(reaches_order, (gs, order), rounds=ROUNDS)


def test_schreier_sims(benchmark, group):
    gs, order = group
    assert benchmark.pedantic(schreier_sims, (gs,), rounds=ROUNDS).order == order

"""The experiments that declare paper claims, at the benchmark scale.

Every registry row of ``repro.harness.experiments`` that declares
claims is regenerated through ``render_experiment`` at the benchmark
scale (``conftest.py``): Tables I and II, Figs. 8, 9, 10a and 10b,
and the design-choice ablations (snapshot mechanism, SPM throughput,
prefetchers), which take no sizing.  Each table is printed with the
verdicts of its claims.  Every claim is measurable at both scales, so
a verdict other than ``pass`` or ``known deviation`` (a ``FAIL``, or
``n/a`` from a grid that lost a compared point) fails the run.
These files are not collected by a bare ``pytest`` run; name them
(``make bench`` at quick scale, ``make bench-full`` at paper scale).
Timing is perfbench's job, not theirs.
"""

import pytest

from repro.harness import format_table, render_experiment
from repro.harness.experiments import _REGISTRY


@pytest.mark.parametrize("name", [name for name, row in _REGISTRY.items()
                                  if row.claims])
def test_experiment(name, scale):
    result = render_experiment(name, **scale)
    print()
    print(format_table(result.headers, result.rows, title=result.experiment))
    for verdict in result.claims:
        print(verdict)
    assert not [str(verdict) for verdict in result.claims
                if verdict.status not in ("pass", "known deviation")]

"""The paper's evaluation: Tables I and II, Figs. 8, 9, 10a and 10b.

Each experiment is regenerated through ``render_experiment`` at the
benchmark scale (``conftest.py``) and printed with the verdicts of the
paper claims declared beside it in ``repro.harness.experiments``.
Every claim is measurable at both scales, so a verdict other than
``pass`` or ``known deviation`` (a ``FAIL``, or ``n/a`` from a grid
that lost a compared point) fails the run.
These files are not collected by a bare ``pytest`` run; name them
(``make bench`` at quick scale, ``make bench-full`` at paper scale).
Timing is perfbench's job, not theirs.
"""

import pytest

from repro.harness import format_table, render_experiment


@pytest.mark.parametrize("name", ["table1", "table2", "fig8", "fig9",
                                  "fig10a", "fig10b"])
def test_experiment(name, scale):
    result = render_experiment(name, **scale)
    print()
    print(format_table(result.headers, result.rows, title=result.experiment))
    for verdict in result.claims:
        print(verdict)
    assert not [str(verdict) for verdict in result.claims
                if verdict.status not in ("pass", "known deviation")]

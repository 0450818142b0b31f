"""One counter table for every cache layer (``--cache-stats``).

:data:`COUNTS` holds what each layer did in this process:

* ``run_cache.hits`` / ``run_cache.misses`` — run-cache probes
  (:mod:`repro.harness.runner`);
* ``timing.passes`` / ``timing.shared`` — pipeline passes, and lanes
  served by another lane's pass in the same campaign
  (:mod:`repro.uarch.batch_pipeline`);
* ``campaign.hits`` / ``campaign.misses`` — campaigns served by, or
  profiled into, the campaign memo (:mod:`repro.security.leakage`).

The result store keeps its own per-instance ``stats``.
``harness.clear_cache()`` zeroes the table.  A pool worker zeroes it
before each cell and returns its counts with the outcome; the parent
adds them in, so a pooled run counts the work its workers did.
"""

from __future__ import annotations

from collections import Counter

COUNTS: Counter[str] = Counter()

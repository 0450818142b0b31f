PYTHONPATH := src
export PYTHONPATH

PYTEST := python -m pytest

.PHONY: test test-fast test-slow parity sweep registry-smoke attack-smoke \
	defense-smoke chaos-smoke static-smoke spectre-smoke examples-smoke \
	lint sweep-store-reuse perfbench-selftest perf-gate bench bench-full ci

# Tier-1: the full unit/integration suite.
test:
	$(PYTEST) -x -q

# Fast lane: everything except the slow property/attack/experiment tests.
test-fast:
	$(PYTEST) -x -q -m "not slow"

# Slow lane: the complement of the fast lane (fast + slow = tier-1).
test-slow:
	$(PYTEST) -x -q -m slow

# Golden engine equivalence suites: fast-vs-reference and the
# batched-vs-serial lane parity (every lane of a lockstep BatchExecutor
# campaign must be byte-identical to a serial run, chunk streams and
# observation traces), plus the oracles of the timing kernels every
# engine shares, which no engine-vs-engine suite can see: the timing
# golden, the TAGE recorded-behaviour tests, the folded-history tests
# and the predictor property tests.
parity:
	$(PYTEST) -x -q -m parity

# The evaluation grid as one parallel, store-backed batch (djpeg at
# the paper sizes; pass --w 10 via ARGS for the paper-depth microbench
# sweep, e.g. `make sweep ARGS="--w 10"`).
sweep:
	python -m repro sweep --jobs 4 --progress --cache-stats $(ARGS)

# Victim-workload registry smoke: the matrix lists (with its
# "workloads registered" footer) and its registration tests pass (the
# CI tier-1 lane runs this first).
registry-smoke:
	@out=$$(python -m repro workloads list) && echo "$$out" && \
		echo "$$out" | grep -q "workloads registered"
	$(PYTEST) -x -q -m "not slow" tests/workloads/test_registry.py

# Statistical-attack smoke: the attacker registry lists, and one
# fast-engine prime+probe campaign recovers memcmp's secret on the
# baseline and lands at chance under SeMPE (exit code checks both).
attack-smoke:
	python -m repro attack list
	python -m repro attack run --workload memcmp --attacker prime-probe \
		--trials 16 --engine fast

# Defense-registry smoke: the scheme matrix lists, and one fast-engine
# prime+probe campaign recovers memcmp's secret on the baseline and
# lands at chance under the way-partitioned caches (exit code checks
# both verdicts).
defense-smoke:
	python -m repro defenses list
	python -m repro attack run --workload memcmp --attacker prime-probe \
		--trials 16 --defense cache-partition --engine fast

# Fault-injection smoke: a seeded chaos sweep faults every cell of a
# tiny grid (raise/hang/kill, hangs killed at the 5s deadline) and must
# fail loudly — exit 1, failures quarantined in the store — then a
# --retry-quarantined rerun clears the poison records and recovers to a
# clean exit with the tables rendered.
chaos-smoke:
	rm -rf .chaos-store
	python -m repro sweep fig10a --w 1 --workloads ones --jobs 2 \
		--store .chaos-store --timeout 5 --chaos 1 --chaos-rate 1.0 \
		--progress; test $$? -eq 1
	python -m repro sweep fig10a --w 1 --workloads ones --jobs 2 \
		--store .chaos-store --retry-quarantined --progress
	rm -rf .chaos-store

# Static-analysis smoke: the transform verifier must pass every
# registered defense × victim pair (including the mutation test that
# proves the lint goes red on a broken transform), and one live
# static-vs-dynamic differential cell must come back sound.  A leak
# check over one secret value has nothing to compare, so it is a usage
# error (exit 2), never an empty SECURE; two values leak on plain.
static-smoke:
	$(PYTEST) -x -q tests/analysis/test_verifier.py
	python -m repro verify --workload gcd --defense sempe
	python -m repro check --workload gcd --defense plain \
		--values 7; test $$? -eq 2
	python -m repro check --workload gcd --defense plain \
		--values 7,40902; test $$? -eq 1

# Transient-execution smoke: the mistraining adversary recovers the
# spectre gadget's key on the unprotected machine and lands at chance
# under the fence (one `attack run` checks both via its exit code), on
# the fast engine and again on the batch engine (whose campaigns with
# the window open take serial lanes), and one live static-vs-dynamic
# differential cell with the speculation window open comes back sound.
spectre-smoke:
	python -m repro attack run --workload spectre \
		--attacker mistrain-reload --trials 16 --defense fence \
		--engine fast
	python -m repro attack run --workload spectre \
		--attacker mistrain-reload --trials 16 --defense fence \
		--engine batch
	python -m repro verify --workload spectre --defense fence \
		--speculation

# Examples smoke: every script under examples/ runs to completion
# (they call the public API directly, so an API change that breaks one
# fails here rather than in a reader's hands).
examples-smoke:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; python $$script > /dev/null; \
	done

# Lint lane: ruff over the whole tree, mypy strict on the
# proof-bearing packages (config in pyproject.toml).  The tools ship
# via requirements-ci.txt; when they are absent locally each check is
# skipped with a notice instead of failing the build.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else echo "lint: ruff not installed, skipping (pip install -r requirements-ci.txt)"; fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro/analysis src/repro/lang; \
	else echo "lint: mypy not installed, skipping (pip install -r requirements-ci.txt)"; fi

# Sweep store reuse: a parallel sweep fills the result store, and the
# same sweep run again is served from it without computing a cell.  A
# rejected sweep (100 pixels do not tile into 64-pixel blocks) then
# exits 2 and leaves the store exactly as it was.
sweep-store-reuse:
	python -m repro sweep fig10a table1 leakmatrix --w 2 --jobs 4 --cache-stats
	python -m repro sweep fig10a table1 leakmatrix --w 2 --jobs 4 --cache-stats \
		| grep ", 0 computed"
	@before=$$(ls -R .repro-store); status=0; \
	python -m repro sweep fig8 --sizes 100 || status=$$?; \
	test $$status -eq 2 || { echo "rejected sweep exited $$status, not 2"; exit 1; }; \
	test "$$(ls -R .repro-store)" = "$$before" || { echo "rejected sweep changed the store"; exit 1; }

# The end-to-end benchmark's self-test: every perfbench workload runs
# on its minimal grid and checks its outputs.
perfbench-selftest:
	$(PYTEST) -q perfbench/selftest.py

# Performance gate: perfbench on this checkout against the base commit
# BASE (default HEAD, i.e. uncommitted changes) on the same machine,
# every BENCHMARK.json workload, 3 alternating pairs; red when an
# end-to-end median is worse than its BENCHMARK.json bound, either side
# is incorrect, or the change fails more operations.
BASE ?= HEAD
perf-gate:
	python3 benchmarks/perf_gate.py --base $(BASE)

# Every registry experiment that declares claims (the paper's
# tables/figures, the snapshot, SPM and prefetch ablations and the
# leakmatrix, attacks, verify and spectre security rows) at quick scale
# (~70 s, two thirds of it the full attack matrix), printing each table
# with its claims' verdicts; a claim that is neither pass nor a known
# deviation (FAIL, or n/a) fails the target.  pytest collects only
# test_*.py, so the bench_*.py files are named.
bench:
	$(PYTEST) -q -s benchmarks/bench_*.py

# The same at paper scale (slow).
bench-full:
	REPRO_BENCH_SCALE=full $(PYTEST) -q -s benchmarks/bench_*.py

# Mirror of .github/workflows/ci.yml: the lint lane, registry +
# attack + defense + chaos + static + spectre + examples smokes, fast
# lane then slow lane (their union is exactly tier-1), the quick-scale
# benchmarks, the parity gate (re-run deliberately as a named check
# even though the fast lane includes it), the sweep store-reuse check,
# the perfbench self-test and the perf gate against BASE.
ci: lint registry-smoke attack-smoke defense-smoke chaos-smoke \
	static-smoke spectre-smoke examples-smoke test-fast test-slow bench \
	parity sweep-store-reuse perfbench-selftest perf-gate

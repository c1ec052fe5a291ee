# Convenience targets for the repro package.

.PHONY: install test loc bench bench-full reproduce examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# the size needle: src/ total, the subtotals ROADMAP items 1/9, 2, 4 and 5
# track, and the options count (tests/test_reach.py's settable())
loc:
	@find src -name '*.py' | xargs cat | wc -l | xargs echo "src/ lines:"
	@find src/repro/integrals src/repro/scf/fock.py -name '*.py' \
	  | xargs cat | wc -l \
	  | xargs echo "ERI subtotal (integrals/ + scf/fock.py, ROADMAP item 2) lines:"
	@cd src/repro/fock && cat gtfock.py tasks.py symmetry.py cost.py \
	  | wc -l \
	  | xargs echo "numeric builds + tasks (ROADMAP items 1/9) lines:"
	@cd src/repro && cat scf/hf.py scf/uhf.py runtime/faults.py \
	  runtime/sdc.py fock/chaos.py service/chaos.py scf/torture.py | wc -l \
	  | xargs echo "SCF driver + fault families (ROADMAP item 4) lines:"
	@cat src/repro/obs/*.py | wc -l \
	  | xargs echo "obs/ (part of ROADMAP item 5) lines:"
	@cat src/repro/obs/report.py | wc -l \
	  | xargs echo "obs/report.py (part of ROADMAP item 5) lines:"
	@cat src/repro/obs/*.py src/repro/bench/*.py benchmarks/*.py \
	  src/repro/cli.py | wc -l \
	  | xargs echo "obs/ + bench/ + benchmarks/ + cli.py (ROADMAP item 5) lines:"
	@python -c "import sys; sys.path.insert(0, 'tests'); import test_reach; \
	  print('settable values in src/ (defaulted parameters + init fields):', \
	  len(test_reach.settable()))"

bench:
	pytest benchmarks/ --benchmark-only

# every BENCH family through the one runner, CI-sized, nothing appended
reproduce:
	python -m benchmarks --quick

# the paper's exact molecule sizes (much slower)
bench-full:
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only

examples:
	python examples/quickstart.py
	python examples/purification_pipeline.py
	python examples/heterogeneous_systems.py
	python examples/beyond_rhf.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	  benchmarks/out .benchmarks .perfbench_out .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +

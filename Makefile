# Convenience targets for the repro package.

.PHONY: install test bench bench-full examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# the paper's exact molecule sizes (much slower)
bench-full:
	REPRO_FULL=1 pytest benchmarks/ --benchmark-only

examples:
	python examples/quickstart.py
	python examples/reordering_footprints.py
	python examples/work_stealing_demo.py
	python examples/purification_pipeline.py
	python examples/heterogeneous_systems.py
	python examples/beyond_rhf.py
	python examples/host_parallel_fock.py
	python examples/scaling_study.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache \
	  benchmarks/out .benchmarks .perfbench_out .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +

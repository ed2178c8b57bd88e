# Convenience targets; `make check` is the tier-1 gate CI runs.

.PHONY: all build lint analyze sarif test check bench perf golden-check obs-demo clean

all: build

build:
	dune build

lint:
	dune build @lint

# Typedtree cross-module analysis (determinism taint, domain-safety,
# coverage audits, suppression hygiene) plus its fixture self-test; see
# docs/ANALYSIS.md.
analyze:
	dune build @analyze

# Same analysis, but also emit a SARIF 2.1.0 log for code-scanning UIs.
sarif:
	dune build
	cd _build/default && ./tools/analyze/wfs_analyze.exe --runs 2 \
	  --lib lib --test test --sarif ../../wfs_analyze.sarif; \
	  status=$$?; [ $$status -eq 0 ] || [ $$status -eq 1 ] || exit $$status
	@echo "wrote wfs_analyze.sarif"

test:
	dune runtest

check:
	dune build @lint
	dune build
	dune runtest

bench:
	dune exec bench/main.exe -- --quick

# The repository benchmark (wfsbench/): four workloads, repeated runs,
# slots/s with quartiles, setup time and peak heap; see docs/PERF.md.
perf:
	@for w in cell-dense cell-sparse topo-saturated cell-observed; do \
	  python3 wfsbench/run.py --workload $$w --seed 1 --seconds 10 --trace 0 \
	    || exit 1; \
	done

# Regenerate the golden CSVs and trace artifacts in a scratch dir and
# require byte-identity with the committed ones (the perf work must never
# change output).  The IWFQ-P trace pins the float writer (virtual time,
# %.12g and %.17g tags, "inf"), the CIF-Q-P trace the lag field.  A
# faulted 4-cell CIF-Q-P topology pins every other JSONL artifact (x-ray
# trace, causality log, windows stream, fault timeline, topology journal)
# and the wfs_report text dashboard over the first four — regenerated a
# second time by resuming over the run's own finished journal.
TOPO_GOLDEN_FAULTS = crash:0.05;recover:0.5;lose:0.1;corrupt:0.1;blackout:0.05x100;exn:0.05;persist:0.25;budget:2

golden-check:
	@tmp=$$(mktemp -d); \
	for e in 1 2 3 4 5 6; do \
	  dune exec bin/wfs_sim.exe -- -e $$e -a all -n 20000 -s 42 --csv \
	    > "$$tmp/example$$e.csv" || exit 1; \
	  cmp "$$tmp/example$$e.csv" "test/golden/example$$e.csv" || exit 1; \
	done; \
	dune exec bin/wfs_sim.exe -- -e 3 -a IWFQ-P -n 3000 -s 42 --trace-stride 30 \
	  --trace-out "$$tmp/trace-iwfq-e3.jsonl" --trace-csv "$$tmp/trace-iwfq-e3.csv" \
	  > /dev/null || exit 1; \
	dune exec bin/wfs_sim.exe -- -e 1 -a CIF-Q-P -n 3000 -s 42 --trace-stride 30 \
	  --trace-out "$$tmp/trace-cifq-e1.jsonl" > /dev/null || exit 1; \
	for f in trace-iwfq-e3.jsonl trace-iwfq-e3.csv trace-cifq-e1.jsonl; do \
	  cmp "$$tmp/$$f" "test/golden/$$f" || exit 1; \
	done; \
	t="$$tmp/topo-cifq-e1"; \
	for pass in fresh resumed; do \
	  rm -f "$$t.csv" "$$t.xray.jsonl" "$$t.causality.jsonl" \
	    "$$t.windows.jsonl" "$$t.timeline.jsonl" "$$t.report.txt"; \
	  dune exec bin/wfs_sim.exe -- -e 1 -a CIF-Q-P -n 3000 -s 42 --cells 4 \
	    --mobility 0.01 --epoch 500 --faults '$(TOPO_GOLDEN_FAULTS)' --jobs 2 \
	    --csv --trace-out "$$t.xray.jsonl" --trace-stride 50 \
	    --causality "$$t.causality.jsonl" --windows "$$t.windows.jsonl" \
	    --window-slots 500 --fault-timeline "$$t.timeline.jsonl" \
	    --resume "$$t.topoj" > "$$t.csv" || exit 1; \
	  dune exec bin/wfs_report.exe -- --xray-trace "$$t.xray.jsonl" \
	    --causality "$$t.causality.jsonl" --windows "$$t.windows.jsonl" \
	    --timeline "$$t.timeline.jsonl" > "$$t.report.txt" || exit 1; \
	  for x in csv xray.jsonl causality.jsonl windows.jsonl timeline.jsonl \
	      topoj report.txt; do \
	    cmp "$$t.$$x" "test/golden/topo-cifq-e1.$$x" || exit 1; \
	  done; \
	done; \
	rm -rf "$$tmp"; \
	cd test/golden && sha256sum -c SHA256SUMS

# Observability demo: a short Example-1 run streaming a wfs-trace/1
# time series (JSONL + CSV) and an instrument artifact into obs-demo/,
# with a phase-timing profile on stderr, then validate both outputs
# (see docs/OBSERVABILITY.md).
obs-demo:
	@mkdir -p obs-demo
	dune exec bin/wfs_sim.exe -- -e 1 -a SwapA-P -n 5000 -s 42 \
	  --trace-out obs-demo/example1.jsonl --trace-csv obs-demo/example1.csv \
	  --trace-stride 10 --metrics-out obs-demo/example1-metrics.json --profile
	dune exec bin/wfs_sim.exe -- --check-trace obs-demo/example1.jsonl
	dune exec bin/wfs_sim.exe -- --check-metrics obs-demo/example1-metrics.json
	@echo "obs-demo/: $$(ls obs-demo)"

clean:
	dune clean

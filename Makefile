# Convenience wrapper over dune. `make check` is the full local gate:
# build everything, run the test suites, the never-crash fuzz corpus, the
# oracles, and the trace, fault-campaign, report, OS and serve smoke
# gates. `make perf-regress` is the speed gate against the parent commit.

.PHONY: all build test fuzz diff-smoke equiv-smoke trace-smoke inject-smoke report-smoke os-smoke perf-regress serve-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

fuzz:
	dune build @fuzz

# Differential verification gate: the identity-edit round-trip oracle over
# the example corpus (original vs no-op-edited image, lockstep emulation).
diff-smoke:
	dune build @diff

# Contract oracle gate: real instrumented edits (qpt2, tracer, SFI) over
# the corpus must be event-equivalent to the originals modulo each tool's
# declared side effects — its edit contract.
equiv-smoke:
	dune build @equiv

# End-to-end observability gate: generate a synthetic workload, run it under
# the emulator with tracing + metrics on, then structurally validate the
# emitted Chrome trace JSON with the bundled checker.
trace-smoke:
	dune build bin/workload_gen.exe bin/eel_run.exe bin/trace_check.exe
	./_build/default/bin/workload_gen.exe --seed 7 --routines 8 -o _build/smoke.sef
	./_build/default/bin/eel_run.exe --trace _build/smoke-trace.json --metrics _build/smoke.sef 2> /dev/null
	./_build/default/bin/trace_check.exe _build/smoke-trace.json

# Adversarial campaign gate: seed known-bad edits, contracts and
# environments against the oracle (tool x fault class matrix + guided
# hunt + clean and environment sweeps). Fails unless every seeded fault
# is detected with zero crashes and zero clean-corpus false violations;
# minimized reproducers land in _build/inject (CI uploads them).
inject-smoke:
	dune build bin/eel_fuzz.exe
	./_build/default/bin/eel_fuzz.exe --inject --budget 48 --out _build/inject

# Observability report gate: run the hotspot + overhead report over the
# whole corpus (all tools), export the flamegraph / speedscope / ledger
# JSON artifacts into _build, and structurally validate the profile
# exports. eel_report itself exits non-zero if any tool/program pair is
# not equivalent or any overhead is unexplained.
report-smoke:
	dune build bin/eel_report.exe bin/trace_check.exe
	./_build/default/bin/eel_report.exe --flame _build/report.flame \
	  --speedscope _build/report.speedscope.json \
	  --json _build/report-ledger.json | tee _build/report.txt
	./_build/default/bin/trace_check.exe _build/report.flame _build/report.speedscope.json

# OS workload gate: assemble the I/O-bound OS-mode corpus (each program
# runs against its deterministic in-memory world) and push it through all
# six tools under Toolbox.measure via eel_report --corpus os. eel_report
# exits non-zero on any divergence or any unexplained overhead, so this
# asserts 6 tools x the whole OS corpus verify equivalent. Artifacts:
# _build/os-report.txt (verdict + overhead table), _build/os-ledger.json.
os-smoke:
	dune build bin/eel_report.exe
	./_build/default/bin/eel_report.exe --corpus os \
	  --json _build/os-ledger.json | tee _build/os-report.txt

# Perf-regression gate: the job benchmark (jobbench/, BENCHMARK.json) on
# this checkout against its parent commit, checked out in a git worktree
# under _build/. Alternating pairs of short runs of every workload; fails
# when an end-to-end metric's median is worse than the parent's by more
# than its BENCHMARK.json bound and the change lost at least 5 of 6 pairs,
# or when warm_mixed < 3x cold_mixed jobs/s or a traced long_run's block
# tier runs slower than its predecode tier. Prints the pair table and
# writes it to _build/perf-pairs.json. The parent is the merge base with
# origin/main (else HEAD~1); name another with
# `./_build/default/bench/regress.exe REV`. Takes about 7 minutes.
perf-regress:
	dune build bench/regress.exe
	./_build/default/bench/regress.exe

# Rewriting-as-a-service gate: the real binaries end-to-end. A cold
# eel_batch populates _build/serve-cache, then a fresh eel_batch process and
# an eel_serve fed the emitted JSONL corpus must both serve entirely from
# the durable layer (--expect-cached). Artifacts: _build/serve-report.json,
# _build/serve-stats*.json, _build/serve-batch.txt,
# _build/serve-responses.jsonl.
serve-smoke:
	dune build bin/eel_batch.exe bin/eel_serve.exe
	rm -rf _build/serve-cache
	./_build/default/bin/eel_batch.exe --gen 24 --cache-dir _build/serve-cache \
	  --report _build/serve-report.json --stats _build/serve-stats-cold.json > _build/serve-batch.txt
	./_build/default/bin/eel_batch.exe --gen 24 --cache-dir _build/serve-cache \
	  --expect-cached --stats _build/serve-stats-warm.json >> _build/serve-batch.txt
	./_build/default/bin/eel_batch.exe --gen 6 --emit _build/serve-jobs.jsonl
	./_build/default/bin/eel_serve.exe --expect-cached --cache-dir _build/serve-cache \
	  --stats _build/serve-stats-serve.json _build/serve-jobs.jsonl > _build/serve-responses.jsonl

check:
	dune build && dune runtest && dune build @fuzz && dune build @diff && dune build @equiv && $(MAKE) trace-smoke && $(MAKE) inject-smoke && $(MAKE) report-smoke && $(MAKE) os-smoke && $(MAKE) serve-smoke

clean:
	dune clean

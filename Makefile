GO ?= go

.PHONY: check build vet lint test test-386 race test-race determinism fuzz-short bench bench-quick bench-smoke bench-opt-smoke serve-smoke tv-smoke fmt fmt-check loc test-times

## check: the full CI gate — formatting, vet, staticcheck, build,
## race-enabled tests, the decoder, daemon, executor and simulator tests
## on 32-bit (test-386), the serial-vs-parallel determinism suite, a short
## fuzz pass over the binary decoders, the assembler, the realization
## pipeline, the static analyzer, the middle end and its legality check, a
## one-shot run of the cold-sweep benchmark so compile-path regressions
## fail loudly, the benchmark module's vet and quick smoke, the whole-suite
## legality sweep, and the end-to-end daemon smoke (serve-vs-CLI byte
## identity of tune reports and fat binaries, plus graceful shutdown).
check: fmt-check vet lint build test-race test-386 determinism fuzz-short bench-smoke bench-opt-smoke bench-quick tv-smoke serve-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: staticcheck over the whole tree, pinned via `go run` so no
## separate install step is needed. Offline environments (no module
## proxy) skip with a notice instead of failing the gate; any real
## staticcheck finding still fails it.
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2024.1.1
lint:
	@out="$$($(GO) run $(STATICCHECK) ./... 2>&1)"; status=$$?; \
	if [ $$status -ne 0 ] && printf '%s' "$$out" | grep -qE "dial tcp|no such host|connection refused|i/o timeout|missing go.sum entry|proxy\.golang\.org|module lookup disabled"; then \
		echo "lint: staticcheck unavailable offline; skipped"; \
	elif [ $$status -ne 0 ]; then \
		printf '%s\n' "$$out"; exit $$status; \
	elif [ -n "$$out" ]; then printf '%s\n' "$$out"; fi

test:
	$(GO) test ./...

## test-386: the binary decoders (ORN1, and the multi-version OFAT
## container's tests), the daemon, the executors and the simulator on a
## 32-bit platform, where an int and a pointer are 4 bytes: an unchecked
## uint32 length from a hostile binary turns negative, and the compiled
## event's narrow fields, its size test and the backend equivalence tests
## must hold there too.
test-386:
	GOARCH=386 $(GO) test ./internal/isa/ ./internal/serve/ ./internal/interp/ ./internal/sim/
	GOARCH=386 $(GO) test -run Fat ./internal/core/

## test-race: internal/core alone takes about six minutes under -race on
## two cores and over nine beside the other packages, so the default
## ten-minute per-binary timeout is raised. The Determinism tests are
## skipped here because `make determinism` runs exactly that set.
test-race:
	$(GO) test -race -timeout 20m -skip Determinism ./...

race: test-race

## determinism: byte-identity of suite tables across serial/cold and
## parallel/warm runs, of simulator Stats across repeated runs on both
## execution backends, of the allocator's work counters across repeated
## and serial/parallel compiles, of the compile task graph's fat binaries,
## counters and span trees across serial/parallel compiles
## (TestCompileDeterminismSerialVsParallel) — all under the race detector,
## three times over as a stress. It runs every test named *Determinism*
## and nothing else; test-race skips exactly that set. The daemon's
## restart and duplicate-request contracts run in full under -race in
## test-race, which check runs first.
determinism:
	$(GO) test -race -count=3 -run Determinism ./...

## fuzz-short: a quick coverage-guided pass over each fuzz target; the
## checked-in corpora run as plain regression tests under `make test`.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/isa/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/isa/
	$(GO) test -run '^$$' -fuzz FuzzRealize -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeFat -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzAnalyze -fuzztime 10s ./internal/sa/
	$(GO) test -run '^$$' -fuzz FuzzSimCompiled -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzOpt -fuzztime 10s ./internal/opt/
	$(GO) test -run '^$$' -fuzz FuzzPerm -fuzztime 10s ./internal/tv/

## bench-smoke: one iteration of the cold-sweep benchmark, of the
## simulator throughput benchmark, of the simulator with the profiler off
## and on, of the spill-heavy coloring benchmark, of the multi-round
## spill loop, of the reference executor at both lane counts, of the
## assembler and validator and of the differential oracle (one-shot and
## shared reference) — not a measurement, just proof the benchmark paths
## still compile and run.
bench-smoke:
	$(GO) test -run '^$$' -bench SweepCold -benchtime 1x ./internal/bench/
	$(GO) test -run '^$$' -bench 'Simulator$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench SimProfiler -benchtime 1x ./internal/sim/
	$(GO) test -run '^$$' -bench 'AllocateSpillHeavy|SpillRounds' -benchtime 1x ./internal/regalloc/
	$(GO) test -run '^$$' -bench WarpStep -benchtime 1x ./internal/interp/
	$(GO) test -run '^$$' -bench '^Benchmark(Parse|Validate)$$' -benchtime 1x ./internal/isa/
	$(GO) test -run '^$$' -bench Differential -benchtime 1x ./internal/verify/

## bench: the repository's benchmark (BENCHMARK.json, benchmark/README.md):
## every workload once, every end-to-end metric printed by name, results
## written to .bench_build/. `bash benchmark/run.sh diff old.json new.json`
## compares two results files against the bounds.
bench:
	bash benchmark/run.sh

## bench-quick: vet the benchmark module and run its quick smoke (every
## workload untraced and traced at small sizes). benchmark/ is a nested
## module that the root `go build ./...` and `go test ./...` never
## compile, so this is where a break of the API it calls shows up.
bench-quick:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

## bench-opt-smoke: one iteration of the cold sweep with the middle end
## on — not a measurement, just proof the scheduler path still compiles,
## runs, and realizes every kernel at every feasible level.
bench-opt-smoke:
	$(GO) test -run '^$$' -bench SweepColdOpt -benchtime 1x ./internal/bench/

## serve-smoke: start the real `orion serve` daemon in-process, tune a
## kernel over HTTP, and require the response to be byte-identical to
## `orion tune -json` for the same kernel and flags, then SIGINT-drain;
## and require `orion build` to write the bytes /v1/compile serves.
serve-smoke:
	$(GO) test -race -count=1 -run 'ServeSmoke|BuildMatchesServeCompile' ./cmd/orion/

## tv-smoke: every benchmark kernel at every feasible occupancy level on
## both devices with the middle end on; fails unless the legality check
## ran (checked > 0) and rejected nothing (a rejection means the scheduler
## and internal/tv disagree about a dependence).
tv-smoke:
	$(GO) test -count=1 -run TestTVSmoke .

## test-times: one uncached `go test -json ./...`, reduced with awk and
## sort to each package's wall time and the 15 slowest top-level tests
## (package, seconds). Fails when any test failed.
test-times:
	@$(GO) test -count=1 -json ./... | awk ' \
	/^\{"Time":"[^"]*","Action":"(pass|fail)"/ && /"Elapsed":/ { \
		pkg = $$0; sub(/.*"Package":"/, "", pkg); sub(/".*/, "", pkg); \
		sec = $$0; sub(/.*"Elapsed":/, "", sec); sub(/[,}].*/, "", sec); \
		if ($$0 ~ /"Action":"fail"/) failed = 1; \
		if ($$0 !~ /"Test":"/) { pkgs[pkg] = sec; next } \
		test = $$0; sub(/.*"Test":"/, "", test); sub(/".*/, "", test); \
		if (test !~ /\//) tests[pkg " " test] = sec } \
	END { \
		print "package wall time (s):"; \
		for (k in pkgs) printf "%8.2f  %s\n", pkgs[k], k | "sort -rn"; close("sort -rn"); \
		print "slowest tests (s):"; \
		for (k in tests) { split(k, f, " "); printf "%8.2f  %s  %s\n", tests[k], f[1], f[2] | "sort -rn | head -15" } \
		close("sort -rn | head -15"); \
		if (failed) { print "test-times: some tests failed"; exit 1 } }'

fmt:
	gofmt -l .

## fmt-check: fail when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## loc: non-test .go lines per package and their total, benchmark/ left
## out — the one denominator for a CHANGES.md "non-test lines" figure.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
	END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

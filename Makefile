# Standard targets; CI (.github/workflows/ci.yml) runs each of them.
#
#   build       compile everything
#   lint        go vet + gofmt check
#   test        the tier-1 suite
#   race        the whole suite under the race detector (every
#               differential suite included)
#   fuzz        every fuzzer for FUZZTIME
#   smoke       end-to-end CLI smokes: false sharing, legality, streaming
#   bench       record the BENCH_*.json baselines
#   bench-gate  fail on a regression against the committed baselines

GO ?= go

.PHONY: build lint test race fuzz smoke bench bench-gate

build:
	$(GO) build ./...

# lint: go vet must be clean and every file gofmt-formatted.
lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz: each fuzzer for FUZZTIME (Go fuzzes one target per invocation).
FUZZTIME ?= 30s
FUZZERS = \
	./internal/server:FuzzIngestDecode \
	./internal/staticlint:FuzzResolver \
	./internal/staticlint:FuzzReusePredictor \
	./internal/profile:FuzzReadThreadProfile \
	./internal/profile:FuzzStreamObserve \
	./internal/prog:FuzzFinalize \
	./internal/legality:FuzzLegality \
	./internal/optimize:FuzzOptimizeEnumerator \
	./internal/sharing:FuzzSharingClassifier
fuzz:
	@set -e; for f in $(FUZZERS); do \
		echo "fuzz $$f"; \
		$(GO) test $${f%%:*} -run '^$$' -fuzz "^$${f##*:}$$" -fuzztime $(FUZZTIME); \
	done

# smoke: the acceptance smokes of three CLI surfaces.
#   - false sharing: the planted fixture must be flagged statically and
#     confirmed by the coherence cross-check;
#   - legality: the planted illegal-split fixture must freeze (escaping
#     field address) while ART, the paper's flagship split, stays provably
#     safe and replay-clean;
#   - streaming: start the ingest server, push the quickstart workload's
#     sample stream over HTTP, and require (-selftest) the server's online
#     and snapshot-derived reports to be byte-identical to the local batch
#     analysis.
STREAM_ADDR ?= 127.0.0.1:7080
smoke:
	$(GO) run ./cmd/structslim vet -sharing -workload falseshare | tee /tmp/vet-sharing.out
	@grep -q "FALSE-SHARING stats._Stat" /tmp/vet-sharing.out
	@grep -q "CONFIRMED" /tmp/vet-sharing.out
	$(GO) run ./cmd/structslim vet -legality -workload escape | tee /tmp/vet-legality.out
	@grep -q "packets.packet (struct packet.*FROZEN" /tmp/vet-legality.out
	@grep -q "LEGALITY-OK" /tmp/vet-legality.out
	$(GO) run ./cmd/structslim vet -legality -workload art | tee /tmp/vet-legality-art.out
	@grep -q "SPLIT-SAFE" /tmp/vet-legality-art.out
	@grep -q "LEGALITY-OK" /tmp/vet-legality-art.out
	$(GO) build -o /tmp/structslim-smoke ./cmd/structslim
	/tmp/structslim-smoke serve -workload quickstart -addr $(STREAM_ADDR) \
		-final-report=false & echo $$! > /tmp/structslim-smoke.pid
	/tmp/structslim-smoke push -workload quickstart -addr $(STREAM_ADDR) \
		-period 3000 -seed 7 -selftest; \
		rc=$$?; kill $$(cat /tmp/structslim-smoke.pid) 2>/dev/null; exit $$rc

# bench: measure and record every baseline, text metrics beside each.
#   BENCH_5.json   hot-path microbenchmarks, runner scaling, streaming
#                  ingest, and the ART reference-vs-fastpath profile
#   BENCH_7.json   the 7-workload sweep (reference / fastpath /
#                  statistical); benchjson merges the -count 2 repeats
#                  best-of-N and synthesizes the statistical geomean
#   BENCH_8.json   whole-program legality analysis + dynamic cross-check
#   BENCH_9.json   streaming ingest per transport (samples/sec,
#                  allocs/sample, bytes/sample)
#   BENCH_10.json  candidate enumeration + measured A/B selection (wall
#                  time and the selected layouts' geomean speedup)
GEOMEAN_SPEC = BenchmarkWorkloadSweep/*/statistical:x-vs-reference
bench:
	$(GO) test -run '^$$' -benchtime 1x \
		-bench 'BenchmarkRunnerParallel|BenchmarkMachineHotPath|BenchmarkCacheAccess|BenchmarkInterpreter|BenchmarkStreamIngest' \
		-benchmem . | tee bench-metrics.txt
	$(GO) test -run '^$$' -benchtime 3x -bench 'BenchmarkARTProfile' \
		-benchmem . | tee -a bench-metrics.txt
	$(GO) run ./cmd/benchjson -in bench-metrics.txt -out BENCH_5.json
	$(GO) test -run '^$$' -benchtime 2x -count 2 -bench 'BenchmarkWorkloadSweep' \
		. | tee stat-metrics.txt
	$(GO) run ./cmd/benchjson -in stat-metrics.txt \
		-geomean '$(GEOMEAN_SPEC)' -out BENCH_7.json
	$(GO) test -run '^$$' -benchtime 3x -bench 'BenchmarkLegalitySweep' \
		. | tee legality-metrics.txt
	$(GO) run ./cmd/benchjson -in legality-metrics.txt -out BENCH_8.json
	$(GO) test -run '^$$' -benchtime 5x -count 2 -bench 'BenchmarkStreamIngest' \
		. | tee stream-metrics.txt
	$(GO) run ./cmd/benchjson -in stream-metrics.txt -out BENCH_9.json
	$(GO) test -run '^$$' -benchtime 3x -bench 'BenchmarkOptimizeSweep' \
		. | tee optimize-metrics.txt
	$(GO) run ./cmd/benchjson -in optimize-metrics.txt -out BENCH_10.json

# bench-gate: re-measure and compare against the committed baselines.
#   - ART fast path: the in-run speedup over the reference engines
#     (machine-neutral) may not drop more than 15% below BENCH_5.json;
#     -count 3 keeps the best of three runs, so run-to-run swings (up to
#     ~13% observed) do not trip it.
#   - statistical sweep: the geomean speedup over the reference engine may
#     not drop more than 15% below BENCH_7.json (recorded well above the
#     4x acceptance floor, so the tolerance cannot erode below it).
#   - optimizer: the selected layouts' geomean speedup may not drop more
#     than 5% below BENCH_10.json. It is deterministic simulation output,
#     so the tolerance only absorbs enumerator retuning, not noise.
#   - streaming ingest: the binary transport's samples/sec may not drop
#     more than 15% below BENCH_9.json, nor its allocs/sample double.
# A missing baseline skips its gate (benchjson prints "no baseline ...").
bench-gate:
	$(GO) test -run '^$$' -benchtime 3x -count 3 -bench 'BenchmarkARTProfile' . \
		| tee /tmp/bench-gate.txt
	$(GO) run ./cmd/benchjson -gate -in /tmp/bench-gate.txt -baseline BENCH_5.json \
		-bench BenchmarkARTProfile/fastpath -metric x-vs-reference \
		-higher-is-better -max-regress 15
	$(GO) test -run '^$$' -benchtime 2x -count 2 \
		-bench 'BenchmarkWorkloadSweep' . | tee /tmp/stat-gate.txt
	$(GO) run ./cmd/benchjson -gate -in /tmp/stat-gate.txt -baseline BENCH_7.json \
		-geomean '$(GEOMEAN_SPEC)' \
		-bench BenchmarkWorkloadSweep/statistical/geomean -metric x-vs-reference \
		-higher-is-better -max-regress 15
	$(GO) test -run '^$$' -benchtime 1x -bench 'BenchmarkOptimizeSweep' . \
		| tee /tmp/optimize-gate.txt
	$(GO) run ./cmd/benchjson -gate -in /tmp/optimize-gate.txt -baseline BENCH_10.json \
		-bench BenchmarkOptimizeSweep -metric geomean-speedup \
		-higher-is-better -max-regress 5
	$(GO) test -run '^$$' -benchtime 5x -count 2 \
		-bench 'BenchmarkStreamIngest' . | tee /tmp/stream-gate.txt
	$(GO) run ./cmd/benchjson -gate -in /tmp/stream-gate.txt -baseline BENCH_9.json \
		-bench BenchmarkStreamIngest/binary -metric samples/sec \
		-higher-is-better -max-regress 15
	$(GO) run ./cmd/benchjson -gate -in /tmp/stream-gate.txt -baseline BENCH_9.json \
		-bench BenchmarkStreamIngest/binary -metric allocs/sample \
		-max-regress 100

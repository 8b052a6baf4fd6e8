#!/usr/bin/env sh
# Repository gate: formatting, vet, build, the full test suite under
# the race detector, the bench module's vet and tests, 5 s fuzz runs of
# every untrusted or incremental input, then a short chaos soak. The
# suite includes doccheck_test.go (exported-symbol doc coverage) and the
# golden determinism tests of the replay engine, the parallel
# permutation evaluator, the batched replay engine (differential
# against the machine oracle, plus the FuzzBatchedMeasure sweep below)
# and the quote service, so a green run certifies correctness,
# bit-for-bit reproducibility of the figures, and byte-identical plan
# serving. The chain fits count over the traces' bucketed state
# columns: FuzzBucketColumn holds a column built from scratch equal to
# one grown by appends, read through slices and carried through
# Tape.Trim, and FuzzWindowFitter holds the states and every uptime a
# sliding fitter solves from its counts equal to those of a
# from-scratch Fit. internal/report's TestSuiteDigests pins
# the 2-window suite (text and every run cost); at 40 windows, which
# go test cannot afford, the rendered suite is compared with
# paperfigs_output.txt at the default workers and at -workers 1, and
# the -csv/-svg panels with figures/. The soak replays the live pipeline
# through 20 seeded fault scenarios and fails on a missed deadline
# without fallback, ledger inconsistency, goroutine leaks or
# nondeterminism. A second, fleet-scale soak drives quotelb over three
# in-process quoted backends (race detector on) through seeded backend
# kills, partitions, slow clients and feed gaps, asserting zero
# client-visible errors, monotonic stream generations, snapshot resume
# and per-seed determinism. go test pins both soaks' per-seed digests at
# seed 1 (internal/chaos/testdata).
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test -race ./...
# bench/ is its own module over this one (it drives quote.Service,
# quote.Streamer with Metrics.AttachStream, core.StreamEvaluator and
# Adaptive's DecisionSink), so a root change can break it without
# failing the root build.
go -C bench vet ./...
go -C bench test ./...
go test -run '^$' -fuzz '^FuzzRowParser$' -fuzztime 5s ./internal/livesched
go test -run '^$' -fuzz '^FuzzBatchedMeasure$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzParsePolicy$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzPlanRequest$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzTenantHeader$' -fuzztime 5s ./internal/cluster
go test -run '^$' -fuzz '^FuzzBidIndexAppend$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzWindowFitter$' -fuzztime 5s ./internal/markov
go test -run '^$' -fuzz '^FuzzBucketColumn$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzDecisionLogRoundTrip$' -fuzztime 5s ./internal/decision
go test -run '^$' -fuzz '^FuzzTunerState$' -fuzztime 5s ./internal/decision
go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 5s ./internal/quote
go test -run '^$' -fuzz '^FuzzParseQuery$' -fuzztime 5s ./internal/quote
go test -run '^$' -fuzz '^FuzzStreamerRestore$' -fuzztime 5s ./internal/quote
go test -run '^$' -fuzz '^FuzzStreamerIngest$' -fuzztime 5s ./internal/quote
go test -run '^$' -fuzz '^FuzzStreamPollParams$' -fuzztime 5s ./internal/quote
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 5s ./internal/spotapi
go test -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 5s ./internal/trace
# The 40-window suite against its committed text and panels.
go run ./cmd/paperfigs -windows 40 all | cmp - paperfigs_output.txt
go run ./cmd/paperfigs -windows 40 -workers 1 all | cmp - paperfigs_output.txt
figs=$(mktemp -d)
trap 'rm -rf "$figs"' EXIT
go run ./cmd/paperfigs -windows 40 -csv "$figs" -svg "$figs" all | cmp - paperfigs_output.txt
diff -r "$figs" figures
go run ./cmd/chaossim -runs 20 -seed 1
# Fleet-topology soak: quotelb over 3 in-process quoted backends under
# 20 seeded fleet fault scenarios (kill/restart with snapshot resume,
# partitions, slow-loris subscribers, feed gaps), each replayed twice.
go run -race ./cmd/chaossim -fleet -runs 20 -seed 1 -backends 3 -ticks 64

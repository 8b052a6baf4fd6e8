#!/usr/bin/env sh
# Repository gate: formatting, vet, build, the full test suite under
# the race detector, then a short chaos soak. The suite includes
# doccheck_test.go (exported-symbol doc coverage) and the golden
# determinism tests of the replay engine, the parallel permutation
# evaluator, the batched replay engine (differential against the
# machine oracle, plus the FuzzBatchedMeasure sweep below) and the
# quote service, so a green run certifies correctness, bit-for-bit
# reproducibility of the figures, and byte-identical plan serving. The soak replays the live pipeline
# through 20 seeded fault scenarios and fails on a missed deadline
# without fallback, ledger inconsistency, goroutine leaks or
# nondeterminism. A second, fleet-scale soak drives quotelb over three
# in-process quoted backends (race detector on) through seeded backend
# kills, partitions, slow clients and feed gaps, asserting zero
# client-visible errors, monotonic stream generations, snapshot resume
# and per-seed determinism.
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
go test -run '^$' -fuzz '^FuzzRowParser$' -fuzztime 5s ./internal/livesched
go test -run '^$' -fuzz '^FuzzBatchedMeasure$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzBidIndexAppend$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzDecisionLogRoundTrip$' -fuzztime 5s ./internal/decision
go test -run '^$' -fuzz '^FuzzDecodeRequest$' -fuzztime 5s ./internal/quote
go test -run '^$' -fuzz '^FuzzParseQuery$' -fuzztime 5s ./internal/quote
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 5s ./internal/spotapi
go test -run '^$' -fuzz '^FuzzReadCSV$' -fuzztime 5s ./internal/trace
go test -run '^$' -fuzz '^FuzzReadJSON$' -fuzztime 5s ./internal/trace
go run ./cmd/chaossim -runs 20 -seed 1
# Fleet-topology soak: quotelb over 3 in-process quoted backends under
# 20 seeded fleet fault scenarios (kill/restart with snapshot resume,
# partitions, slow-loris subscribers, feed gaps), each replayed twice.
go run -race ./cmd/chaossim -fleet -runs 20 -seed 1 -backends 3 -ticks 64

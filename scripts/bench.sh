#!/usr/bin/env sh
# Micro-benchmark gates and the fleet chaos soak. End-to-end
# measurement (quotes through quotelb → quoted, feed tick → SSE frame,
# the paper suite) is the repository benchmark under bench/: run
# `bash bench/run.sh`. This script keeps what nothing else provides.
#
# Speedup gates, each a same-run ratio of a fast path against the path
# it replaced, so machine speed cancels out:
#   AdaptiveDecisionOracle / AdaptiveDecisionBatched  >= 1x  (batched
#       replay engine vs per-permutation sim.Machine replays)
#   StreamFullRerank / StreamTick                     >= 5x  (incremental
#       per-tick re-rank vs a from-scratch Rank per tick)
#   CounterfactualNaive / CounterfactualReplay        >= 3x  (scripted
#       decision replay vs re-simulating the prefix with a live strategy)
# one scaling gate:
#   StreamTickShapes/64 / StreamTickShapes/1          <= 16x (64 stream
#       shapes on one shared grid vs one shape: the grid steps once per
#       tick, each extra shape adds only its scoring)
# and one memory gate, on StreamResident (one grid warmed past its
# 8192-tick retention):
#   (resident at 8191 ticks - resident at 576) / 7615 <= 64 bytes per
#       tick (a grid keeps only the head step's fitted states, and each
#       chain memo's fitter holds only counts, over the tape's states:
#       what grows with the window is the tape row and the availability
#       flips catch-ups read), and
#   resident at 8193 ticks < resident at 8191 (compaction to half the
#       retention gives memory back)
# Every Name/NameObs pair also reports obs_overhead_pct, the cost of
# tracing (budget: 5 % on AdaptiveDecision; reported, not gated).
# VARAnalysis (the streamed §3.1 fits), Fig4Policies (static-policy
# sim.Machine runs), Fig5Adaptive and Headline (Adaptive beside
# Markov-Daly's sliding chain fits) are rows in BENCH_obs.json only,
# with no gate.
#
# One awk program reads both benchmark logs, keeps the minimum ns/op per
# benchmark (-count repeats each) with that run's memory columns, and
# writes four reports:
#   BENCH_obs.json     every benchmark row, plus obs_overhead pairs
#   BENCH_batch.json   adaptive_decision batched vs oracle, batch_rank
#   BENCH_stream.json  per_tick StreamTick vs StreamFullRerank,
#                      shapes: StreamTickShapes 1/8/64 with resident heap,
#                      and resident: StreamResident's heap at 576, 8191
#                      and 8193 ticks with its catch-up tick cost
#   BENCH_tuner.json   counterfactual replay vs naive, tuner decisions/s
# BENCH_obs.json and BENCH_stream.json carry the machine they ran on
# (GOOS/GOARCH, the CPU go test reports, GOMAXPROCS). It writes all
# four, then exits non-zero if a gate failed or a gated row is missing.
#
# The fleet chaos soak (chaossim -fleet) runs last and writes its
# recovery accounting to BENCH_chaos_fleet.json; the soak enforces its
# own gates (zero client errors, snapshot resume, determinism).
#
# Usage: scripts/bench.sh [obs] [batch] [stream] [fleet] [tuner]
#        (defaults BENCH_obs.json, BENCH_batch.json, BENCH_stream.json,
#        BENCH_chaos_fleet.json, BENCH_tuner.json)
# BENCH_COUNT (default 3) repeats each benchmark; BENCH_FLEET_RUNS
# (default 20) sets the soak's scenario count.
set -eu
cd "$(dirname "$0")/.."

obsout=${1:-BENCH_obs.json}
batchout=${2:-BENCH_batch.json}
streamout=${3:-BENCH_stream.json}
fleetout=${4:-BENCH_chaos_fleet.json}
tunerout=${5:-BENCH_tuner.json}
count=${BENCH_COUNT:-3}

log=$(mktemp)
trap 'rm -f "$log"' EXIT

echo "bench: go test -bench (root and internal/decision) -count $count" >&2
go test -run '^$' -bench 'AdaptiveDecision|MachineReset|BatchRank|StreamTick|StreamFullRerank|StreamResident|VARAnalysis|Fig4Policies|Fig5Adaptive|Headline' -benchmem \
	-count "$count" . | tee /dev/stderr >"$log"
go test -run '^$' -bench 'CounterfactualReplay|CounterfactualNaive|TunerSearch' -benchmem \
	-count "$count" ./internal/decision | tee /dev/stderr >>"$log"

awk -v obs="$obsout" -v batch="$batchout" -v stream="$streamout" -v tuner="$tunerout" '
# The value before a unit token, e.g. field("ns/op"); custom metrics
# such as decisions/s shift the memory columns, so none is positional.
function field(unit,   i) {
	for (i = 3; i <= NF; i++) if ($i == unit) return $(i - 1)
	return ""
}
function num(v) { return v == "" ? 0 : v }
# ratio reports best[slow] / best[fast] and fails the run below floor.
function ratio(slow, fast, floor,   x) {
	if (!(slow in best) || !(fast in best)) {
		printf "bench: missing %s/%s pair\n", slow, fast > "/dev/stderr"
		failed = 1
		return 0
	}
	x = best[slow] / best[fast]
	if (x < floor) {
		printf "bench: %s only %.2fx faster than %s (gate: %gx)\n", fast, x, slow, floor > "/dev/stderr"
		failed = 1
	}
	return x
}
# within reports best[big] / best[small] and fails the run above ceil.
function within(big, small, ceil,   x) {
	if (!(big in best) || !(small in best)) {
		printf "bench: missing %s/%s pair\n", big, small > "/dev/stderr"
		failed = 1
		return 0
	}
	x = best[big] / best[small]
	if (x > ceil) {
		printf "bench: %s %.2fx slower than %s (gate: %gx)\n", big, x, small, ceil > "/dev/stderr"
		failed = 1
	}
	return x
}
# val is a[name] for a measured benchmark, 0 for a missing one.
function val(a, name) { return name in best ? a[name] : 0 }
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/ { cpu = substr($0, 6) }
/^Benchmark/ {
	name = $1
	if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
	sub(/-[0-9]+$/, "", name)        # GOMAXPROCS suffix
	sub(/^Benchmark/, "", name)
	v = field("ns/op")
	if (v == "" || (name in best && v + 0 >= best[name] + 0)) next
	if (!(name in best)) order[++n] = name
	best[name] = v; mem[name] = num(field("B/op")); alloc[name] = num(field("allocs/op"))
	rate[name] = num(field("decisions/s")); resident[name] = num(field("resident-MB"))
	r576[name] = num(field("resident-576-MB")); r8191[name] = num(field("resident-8191-MB"))
	r8193[name] = num(field("resident-8193-MB")); catchup[name] = num(field("catchup-us"))
}
END {
	machine = sprintf("%s/%s, %s, GOMAXPROCS %s", goos, goarch, cpu, procs)
	printf "{\n  \"machine\": \"%s\",\n  \"benchmarks\": [\n", machine > obs
	for (i = 1; i <= n; i++) {
		b = order[i]
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
			b, best[b], mem[b], alloc[b], (i < n ? "," : "") > obs
		if (b !~ /Obs$/ && (b "Obs") in best) pair[++m] = b
	}
	printf "  ],\n  \"obs_overhead\": [\n" > obs
	for (i = 1; i <= m; i++) {
		b = pair[i]; o = best[b "Obs"]
		printf "    {\"name\": \"%s\", \"base_ns_per_op\": %s, \"obs_ns_per_op\": %s, \"obs_overhead_pct\": %.2f}%s\n", \
			b, best[b], o, (o - best[b]) / best[b] * 100, (i < m ? "," : "") > obs
	}
	printf "  ]\n}\n" > obs

	x = ratio("AdaptiveDecisionOracle", "AdaptiveDecisionBatched", 1)
	ab = val(alloc, "AdaptiveDecisionBatched"); ao = val(alloc, "AdaptiveDecisionOracle")
	printf "{\n  \"adaptive_decision\": {\"batched_ns_per_op\": %s, \"oracle_ns_per_op\": %s, \"speedup_x\": %.2f, \"batched_allocs_per_op\": %s, \"oracle_allocs_per_op\": %s, \"alloc_ratio_x\": %.2f},\n", \
		val(best, "AdaptiveDecisionBatched"), val(best, "AdaptiveDecisionOracle"), x, ab, ao, (ab + 0 > 0 ? ao / ab : 0) > batch
	printf "  \"batch_rank\": {\"ns_per_op\": %s, \"allocs_per_op\": %s}\n}\n", val(best, "BatchRank"), val(alloc, "BatchRank") > batch

	x = ratio("StreamFullRerank", "StreamTick", 5)
	printf "{\n  \"machine\": \"%s\",\n", machine > stream
	printf "  \"per_tick\": {\"stream_tick_ns_per_op\": %s, \"full_rerank_ns_per_op\": %s, \"speedup_x\": %.2f, \"stream_tick_allocs_per_op\": %s, \"full_rerank_allocs_per_op\": %s},\n", \
		val(best, "StreamTick"), val(best, "StreamFullRerank"), x, val(alloc, "StreamTick"), val(alloc, "StreamFullRerank") > stream
	x = within("StreamTickShapes/64", "StreamTickShapes/1", 16)
	printf "  \"shapes\": [\n" > stream
	split("1 8 64", counts, " ")
	for (i = 1; i <= 3; i++) {
		b = "StreamTickShapes/" counts[i]
		printf "    {\"shapes\": %s, \"ns_per_op\": %s, \"allocs_per_op\": %s, \"resident_mb\": %s}%s\n", \
			counts[i], val(best, b), val(alloc, b), val(resident, b), (i < 3 ? "," : "") > stream
	}
	printf "  ],\n  \"shapes_64_over_1_x\": %.2f,\n", x > stream
	b = "StreamResident"
	if (!(b in best)) { print "bench: missing StreamResident row" > "/dev/stderr"; failed = 1 }
	growth = (val(r8191, b) - val(r576, b)) * 1048576 / (8191 - 576)
	if (growth > 64) {
		printf "bench: a stream grid grows %.1f bytes per retained tick (gate: 64)\n", growth > "/dev/stderr"
		failed = 1
	}
	if (val(r8193, b) + 0 >= val(r8191, b) + 0) {
		printf "bench: a stream grid holds %s MB after compaction, %s MB before\n", val(r8193, b), val(r8191, b) > "/dev/stderr"
		failed = 1
	}
	printf "  \"resident\": {\"resident_576_mb\": %s, \"resident_8191_mb\": %s, \"resident_8193_mb\": %s, \"growth_bytes_per_tick\": %.1f, \"resident_8191_over_576_x\": %.2f, \"catchup_us\": %s}\n}\n", \
		val(r576, b), val(r8191, b), val(r8193, b), growth, (val(r576, b) + 0 > 0 ? val(r8191, b) / val(r576, b) : 0), val(catchup, b) > stream

	x = ratio("CounterfactualNaive", "CounterfactualReplay", 3)
	printf "{\n  \"counterfactual\": {\"replay_ns_per_op\": %s, \"naive_ns_per_op\": %s, \"speedup_x\": %.2f},\n", \
		val(best, "CounterfactualReplay"), val(best, "CounterfactualNaive"), x > tuner
	if (!("TunerSearch" in best)) { print "bench: missing TunerSearch row" > "/dev/stderr"; failed = 1 }
	printf "  \"tuner\": {\"search_ns_per_op\": %s, \"decisions_per_sec\": %s}\n}\n", val(best, "TunerSearch"), val(rate, "TunerSearch") > tuner
	exit failed
}
' "$log"
echo "bench: wrote $obsout $batchout $streamout $tunerout" >&2

echo "bench: chaossim -fleet" >&2
go run ./cmd/chaossim -fleet -runs "${BENCH_FLEET_RUNS:-20}" -seed 1 -json >"$fleetout"
echo "bench: wrote $fleetout" >&2

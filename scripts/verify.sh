#!/usr/bin/env sh
# verify.sh — the repo's tier-1 gate plus the invariant and race gates.
# Run from anywhere; exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
UNFORMATTED=$(gofmt -l cmd internal)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: needs formatting:"
	echo "$UNFORMATTED"
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

# cake-vet: the repo's own invariant analyzers (internal/analysis), including
# the profile-guided passes — hotcover replays the committed corpus profiles
# and demands //cake:hotpath coverage on hot functions, escapecheck
# cross-checks annotated functions against the compiler's escape analysis.
# The escape diagnostics are captured once into a temp file so the second
# invocation below exercises the cached-reuse path CI depends on. The -json
# summary is the gate: "ok" must be true (advisories never flip it) — see
# DESIGN.md §9 and §15 for the invariants and how to silence a finding.
echo "== cake-vet -json ./..."
VET_TMP=$(mktemp -d)
go run ./cmd/cake-vet -json -escape-log "$VET_TMP/escape.log" ./... >"$VET_TMP/summary.json"
if ! grep -q '"ok": true' "$VET_TMP/summary.json"; then
	echo "verify: cake-vet -json did not report ok:" >&2
	cat "$VET_TMP/summary.json" >&2
	rm -rf "$VET_TMP"
	exit 1
fi

# Profile-guided passes alone, against the cached escape log: the syntax-only
# fast path must stay clean and must not recapture.
echo "== cake-vet -run=hotcover,escapecheck (cached escape log)"
go run ./cmd/cake-vet -run=hotcover,escapecheck -escape-log "$VET_TMP/escape.log" ./...
rm -rf "$VET_TMP"

echo "== go test ./..."
go test ./...

# The benchmark is its own Go module (perfbench/go.mod replaces repro with
# this checkout), so ./... above never builds it: without this step a facade
# change that breaks the benchmark would still pass.
echo "== perfbench: go vet ./... && go test ./..."
(cd perfbench && export GOWORK=off GOPROXY=off && go vet ./... && go test ./...)

# Benchmark correctness smoke: one second of each gated workload, end to end
# through run.sh. The benchmark checks its tier mix against the engine's
# counters and every op class against NaiveGemm; a mismatch shows only in
# its result line ("correct":false, or failed ops), never in its unit tests,
# so the last line is the gate.
for WL in gemm-large serve-resident; do
	echo "== perfbench smoke: $WL (1 s)"
	LAST=$(bash perfbench/run.sh --workload "$WL" --seed 1 --seconds 1 --trace 0 | tail -n 1)
	case "$LAST" in
	*'"correct":true,'*'"failed":0,'*) ;;
	*)
		echo "verify: perfbench $WL smoke did not report correct with 0 failed:" >&2
		echo "$LAST" >&2
		exit 1
		;;
	esac
done

# Race gate, two layers: every package runs under -race in -short mode
# (wall-clock-sensitive tests skip themselves there rather than being
# silently omitted), then the concurrency-critical packages run their full
# suites under -race.
echo "== go test -race -short ./..."
go test -race -short ./...

echo "== go test -race ./internal/pool ./internal/core ./internal/obs ./internal/engine ./internal/tenant"
go test -race ./internal/pool ./internal/core ./internal/obs ./internal/engine ./internal/tenant

# Resident-serving smoke: the pack-bypass benchmark must run end to end and
# produce a well-formed BENCH_resident.json (the artifact the gate below
# judges). Quick mode keeps it to a fraction of a second.
echo "== cake-bench -quick resident"
RESIDENT_TMP=$(mktemp -d)
go run ./cmd/cake-bench -quick -csv "$RESIDENT_TMP" resident
rm -rf "$RESIDENT_TMP"

# Batched-dispatch smoke: the one-lease batch benchmark must run end to end
# and produce a well-formed BENCH_batch.json (the artifact CompareBatch
# gates). Quick mode keeps it fast.
echo "== cake-bench -quick batch"
BATCH_TMP=$(mktemp -d)
go run ./cmd/cake-bench -quick -csv "$BATCH_TMP" batch
rm -rf "$BATCH_TMP"

# Deterministic self-check of the benchmark regression gate: the committed
# baseline compared against itself must always pass, and the machine-readable
# summary must say so. Catches artifact-format drift without benchmarking the
# (noisy) CI host. The committed corpus history feeds the trend verdicts as
# ADVISORY findings only: on a different host its cells judge as new-cell,
# and on the capture host they re-judge the committed epochs under whatever
# measurement weather recorded them — either way they describe the history,
# not the code under test, so they must not flip this deterministic gate.
# Gate on trend deliberately with a plain `cake-bench check` on a quiet host.
echo "== cake-bench check -candidate results/baseline -trend-advisory -json"
CHECK_OUT=$(mktemp)
go run ./cmd/cake-bench check -candidate results/baseline -trend-advisory -json >"$CHECK_OUT"
if ! grep -q '"ok": true' "$CHECK_OUT"; then
	echo "verify: check -json did not report ok:" >&2
	cat "$CHECK_OUT" >&2
	rm -f "$CHECK_OUT"
	exit 1
fi
rm -f "$CHECK_OUT"

# Corpus micro smoke: the 4-cell grid must run end to end and append a
# well-formed epoch to a throwaway store (the committed results/corpus
# trajectory is never touched here).
echo "== cake-bench corpus -quick -grid micro (throwaway store)"
CORPUS_TMP=$(mktemp -d)
go run ./cmd/cake-bench corpus -quick -grid micro -runs 1 \
	-store "$CORPUS_TMP/store" -out "$CORPUS_TMP/BENCH_corpus.json" -report
ls "$CORPUS_TMP"/store/0001-*.json >/dev/null
rm -rf "$CORPUS_TMP"

echo "verify: OK"

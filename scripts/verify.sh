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

# go vet's copylocks check keeps sync/atomic values from being copied; the
# hot paths' allocation freedom is pinned by the *Allocs runtime tests in
# go test below (DESIGN.md §9).
echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

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

echo "== go test -race ./internal/pool ./internal/core ./internal/obs ./internal/engine ./internal/tenant ./internal/gotoalg"
go test -race ./internal/pool ./internal/core ./internal/obs ./internal/engine ./internal/tenant ./internal/gotoalg

# The pipelined block loop's one fork per block (compute units, then the
# next block's pack units, over a two-slot ring) repeated under -race.
echo "== go test -race -count=5 -run 'Skew|ClaimOrder|Pipelined|Width' ./internal/core"
go test -race -count=5 -run 'Skew|ClaimOrder|Pipelined|Width' ./internal/core

# The two slow simulator figures, regenerated at full size, must equal the
# committed CSVs byte for byte (fig4, fig7, fig8, fig9 and fig11 are checked
# the same way by cmd/cake-bench's TestRunFiguresMatchResults).
echo "== cake-bench fig10 fig12 vs results/ (byte-identical CSVs)"
FIG_TMP=$(mktemp -d)
for FIG in fig10 fig12; do
	go run ./cmd/cake-bench -csv "$FIG_TMP" "$FIG" >/dev/null
done
for CSV in fig10a fig10b fig10c fig12a fig12b fig12c; do
	if ! cmp -s "$FIG_TMP/$CSV.csv" "results/$CSV.csv"; then
		echo "verify: regenerated $CSV.csv differs from results/$CSV.csv" >&2
		rm -rf "$FIG_TMP"
		exit 1
	fi
done
rm -rf "$FIG_TMP"

# Corpus micro run and the one benchmark gate: the 4-cell, 2-contrast micro
# grid must run end to end into a throwaway store (the committed
# results/corpus trajectory is never touched here), and `check` over that
# store must report ok with a verdict for both micro contrasts. -advisory
# keeps the verdicts that describe this host's measurement weather — trend
# cells and contrast ratios below their floor — from gating; a declared
# contrast the epoch lacks or cannot judge still fails. Gate on the
# measurements deliberately with a plain `cake-bench check` on a quiet host.
echo "== cake-bench corpus -quick -grid micro + check -advisory -json (throwaway store)"
CORPUS_TMP=$(mktemp -d)
go run ./cmd/cake-bench corpus -quick -grid micro -runs 3 -store "$CORPUS_TMP/store" -report
go run ./cmd/cake-bench check -corpus "$CORPUS_TMP/store" -advisory -json >"$CORPUS_TMP/check.json"
for WANT in '"ok": true' '"contrast": "resident-vs-fresh"' '"contrast": "batch-vs-looped"'; do
	if ! grep -q "$WANT" "$CORPUS_TMP/check.json"; then
		echo "verify: check -json over the micro corpus lacks $WANT:" >&2
		cat "$CORPUS_TMP/check.json" >&2
		rm -rf "$CORPUS_TMP"
		exit 1
	fi
done
rm -rf "$CORPUS_TMP"

echo "verify: OK"

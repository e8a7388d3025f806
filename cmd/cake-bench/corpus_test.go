package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchgate"
	"repro/internal/experiments"
)

func TestRunCorpusMicroAppendsEpochs(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	args := []string{"-quick", "-grid", "micro", "-runs", "1", "-store", store}

	var buf bytes.Buffer
	if err := runCorpus(args, &buf); err != nil {
		t.Fatalf("first corpus run: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "appended epoch 0001") {
		t.Fatalf("missing append line:\n%s", buf.String())
	}
	for _, want := range []string{"resident-vs-fresh", "batch-vs-looped"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("contrast table missing %q:\n%s", want, buf.String())
		}
	}
	first, err := experiments.OpenCorpusStore(store).Latest()
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 || len(first.Cells) != 4 || len(first.Contrasts) != 2 || first.Artifact != "corpus" {
		t.Fatalf("epoch = seq %d, %d cells, %d contrasts, artifact %q", first.Seq, len(first.Cells), len(first.Contrasts), first.Artifact)
	}

	// Second run appends seq 2 and -report renders the trajectory.
	buf.Reset()
	if err := runCorpus(append(args, "-report"), &buf); err != nil {
		t.Fatalf("second corpus run: %v\n%s", err, buf.String())
	}
	history, err := experiments.OpenCorpusStore(store).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 || history[1].Seq != 2 {
		t.Fatalf("store has %d epochs", len(history))
	}
	report, err := os.ReadFile(filepath.Join(store, "REPORT.md"))
	if err != nil {
		t.Fatalf("REPORT.md: %v", err)
	}
	for _, want := range []string{"# Corpus trajectory report", "tiny/fresh/f32", "small/resident/f32",
		"tiny/batch/f32", "small/batch/f32"} {
		if !strings.Contains(string(report), want) {
			t.Fatalf("REPORT.md missing %q:\n%s", want, report)
		}
	}
}

// writeTrendStore fabricates a deterministic two-epoch corpus history (same
// synthetic host) whose latest small/fresh/f32 value is `latest`.
func writeTrendStore(t *testing.T, dir string, latest float64) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	epoch := func(seq int, gflops float64) string {
		return fmt.Sprintf(`{
  "schema_version": 2, "artifact": "corpus",
  "host": {"hostname": "synthetic", "os": "linux", "arch": "amd64", "cores": 4},
  "seq": %d, "grid": "micro", "quick": true, "protocol": "worst-of-N",
  "cells": [{"shape": "small", "scenario": "fresh", "dtype": "f32",
    "m": 8, "k": 320, "n": 320, "tier": "small", "reps": 60, "runs": 3,
    "gflops": %g, "best_gflops": %g, "median_gflops": %g, "cov": 0.01}]
}`, seq, gflops, gflops, gflops)
	}
	for seq, g := range map[int]float64{1: 100, 2: latest} {
		name := fmt.Sprintf("%04d-synthetic.json", seq)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(epoch(seq, g)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunCheckJSONCarriesTrend(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeTrendStore(t, store, 100) // flat history: trend OK

	var buf bytes.Buffer
	err := runCheck([]string{"-corpus", store, "-json"}, &buf)
	if err != nil {
		t.Fatalf("check: %v\n%s", err, buf.String())
	}
	var sum benchgate.Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatalf("check -json output not JSON: %v\n%s", err, buf.String())
	}
	if !sum.OK || sum.Regressions != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Trend == nil || len(sum.Trend.Cells) != 1 {
		t.Fatalf("summary missing trend: %+v", sum.Trend)
	}
	if v := sum.Trend.Cells[0].Verdict; v != benchgate.VerdictOK {
		t.Fatalf("trend verdict = %s, want ok", v)
	}
}

func TestRunCheckTrendRegressionGates(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeTrendStore(t, store, 60) // 40% cliff in the history

	var buf bytes.Buffer
	err := runCheck([]string{"-corpus", store, "-json"}, &buf)
	if err == nil {
		t.Fatalf("trend regression passed the gate:\n%s", buf.String())
	}
	var sum benchgate.Summary
	if jerr := json.Unmarshal(buf.Bytes(), &sum); jerr != nil {
		t.Fatalf("check -json output not JSON despite failure: %v\n%s", jerr, buf.String())
	}
	if sum.OK || sum.Regressions == 0 {
		t.Fatalf("summary = ok=%v regressions=%d, want failing", sum.OK, sum.Regressions)
	}
	if sum.Trend.Cells[0].Verdict != benchgate.VerdictRegressed {
		t.Fatalf("trend verdict = %s", sum.Trend.Cells[0].Verdict)
	}
}

func TestRunCheckTrendAdvisoryReportsWithoutGating(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeTrendStore(t, store, 60) // 40% cliff in the history

	var buf bytes.Buffer
	err := runCheck([]string{"-corpus", store, "-advisory", "-json"}, &buf)
	if err != nil {
		t.Fatalf("advisory trend regression failed the gate: %v\n%s", err, buf.String())
	}
	var sum benchgate.Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.OK || sum.Regressions != 0 {
		t.Fatalf("summary = ok=%v regressions=%d, want passing", sum.OK, sum.Regressions)
	}
	// The verdict itself must survive advisory mode: the report still says
	// regressed, only the gate ignores it.
	if sum.Trend.Cells[0].Verdict != benchgate.VerdictRegressed {
		t.Fatalf("trend verdict = %s, want regressed preserved", sum.Trend.Cells[0].Verdict)
	}
	found := false
	for _, f := range sum.Findings {
		if f.File == "corpus-history" && strings.HasPrefix(f.Detail, "advisory:") {
			found = true
			if f.Regression {
				t.Fatalf("advisory finding still marked regression: %+v", f)
			}
		}
	}
	if !found {
		t.Fatalf("no advisory-prefixed corpus finding in %+v", sum.Findings)
	}
}

func TestRunCheckSkipsAbsentCorpusStore(t *testing.T) {
	var buf bytes.Buffer
	err := runCheck([]string{"-corpus", filepath.Join(t.TempDir(), "nowhere"), "-json"}, &buf)
	if err != nil {
		t.Fatalf("absent store must not fail the gate: %v", err)
	}
	var sum benchgate.Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Trend != nil {
		t.Fatalf("trend = %+v, want nil without a store", sum.Trend)
	}
}

func TestRunCorpusUnknownGridErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runCorpus([]string{"-grid", "nope", "-store", t.TempDir()}, &buf); err == nil {
		t.Fatal("unknown grid accepted")
	}
}

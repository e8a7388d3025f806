package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runMicroCorpus measures the 4-cell CI grid once; shared by the round-trip
// and store tests so the (slowish) measurement happens per-test but stays in
// quick/runs=1 territory.
func runMicroCorpus(t *testing.T) *CorpusEpoch {
	t.Helper()
	epoch, err := RunCorpus(CorpusOptions{Runs: 1, Grid: "micro", Quick: true})
	if err != nil {
		t.Fatalf("RunCorpus: %v", err)
	}
	return epoch
}

func TestRunCorpusMicroGrid(t *testing.T) {
	epoch := runMicroCorpus(t)
	if len(epoch.Cells) != 4 {
		t.Fatalf("micro grid cells = %d, want 4", len(epoch.Cells))
	}
	wantKeys := map[string]bool{"tiny/fresh/f32": false, "small/resident/f32": false,
		"tiny/batch/f32": false, "small/batch/f32": false}
	for _, c := range epoch.Cells {
		if _, ok := wantKeys[c.Key()]; !ok {
			t.Fatalf("unexpected cell %s", c.Key())
		}
		wantKeys[c.Key()] = true
		if c.GFLOPS <= 0 {
			t.Fatalf("cell %s gflops = %v, want > 0", c.Key(), c.GFLOPS)
		}
		if c.GFLOPS > c.BestGFLOPS+1e-9 {
			t.Fatalf("cell %s worst %v exceeds best %v", c.Key(), c.GFLOPS, c.BestGFLOPS)
		}
		if c.Tier == "" {
			t.Fatalf("cell %s missing tier", c.Key())
		}
	}
	for k, seen := range wantKeys {
		if !seen {
			t.Fatalf("micro grid missing cell %s", k)
		}
	}
	if epoch.SchemaVersion != BenchSchemaVersion {
		t.Fatalf("schema version = %d, want %d", epoch.SchemaVersion, BenchSchemaVersion)
	}
	if epoch.Artifact != "corpus" {
		t.Fatalf("artifact = %q", epoch.Artifact)
	}
	if epoch.Protocol == "" || !strings.Contains(epoch.Protocol, "worst-of-N") {
		t.Fatalf("protocol not recorded: %q", epoch.Protocol)
	}
	if epoch.Host.Cores < 1 {
		t.Fatalf("host fingerprint not stamped: %+v", epoch.Host)
	}
	if epoch.Seq != 0 {
		t.Fatalf("fresh epoch seq = %d, want 0 until the store assigns one", epoch.Seq)
	}

	// Both micro contrasts, well-formed: one pair per run, the median
	// recorded as the ratio, the declared floor, and a capture verdict.
	if !epoch.HasContrasts() {
		t.Fatal("fresh epoch does not declare contrasts")
	}
	declared, err := DeclaredContrasts("micro")
	if err != nil {
		t.Fatal(err)
	}
	if len(epoch.Contrasts) != len(declared) {
		t.Fatalf("micro contrasts = %d, want %d", len(epoch.Contrasts), len(declared))
	}
	for i, c := range epoch.Contrasts {
		if c.Contrast != declared[i] {
			t.Fatalf("contrast %d = %+v, want declaration %+v", i, c.Contrast, declared[i])
		}
		if len(c.Pairs) != 1 || c.Ratio != c.Pairs[0] || c.Ratio <= 0 {
			t.Fatalf("contrast %s: ratio %v pairs %v", c.Name, c.Ratio, c.Pairs)
		}
		if want := map[bool]string{true: ContrastPass, false: ContrastMiss}[c.Passes(c.Ratio)]; c.Verdict != want {
			t.Fatalf("contrast %s verdict %q, want %q", c.Name, c.Verdict, want)
		}
	}
}

func TestCorpusStoreRoundTrip(t *testing.T) {
	epoch := runMicroCorpus(t)
	dir := filepath.Join(t.TempDir(), "corpus")
	st := OpenCorpusStore(dir)

	path, err := st.Append(epoch)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if epoch.Seq != 1 {
		t.Fatalf("first epoch seq = %d, want 1", epoch.Seq)
	}
	base := filepath.Base(path)
	if !strings.HasPrefix(base, "0001-") || !strings.HasSuffix(base, ".json") {
		t.Fatalf("epoch file name = %q, want 0001-<rev>.json", base)
	}

	loaded, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d epochs, want 1", len(loaded))
	}
	got, want := loaded[0], epoch
	if got.Seq != want.Seq || got.Grid != want.Grid || len(got.Cells) != len(want.Cells) {
		t.Fatalf("round-trip mismatch: got seq=%d grid=%q cells=%d", got.Seq, got.Grid, len(got.Cells))
	}
	for i, c := range want.Cells {
		if loaded[0].Cells[i] != c {
			t.Fatalf("cell %d changed in round-trip:\n got %+v\nwant %+v", i, loaded[0].Cells[i], c)
		}
	}
	if got.Host.Key() != want.Host.Key() {
		t.Fatalf("host key changed: %q vs %q", got.Host.Key(), want.Host.Key())
	}

	// Second append continues the sequence; Load returns store order.
	second := runMicroCorpus(t)
	if _, err := st.Append(second); err != nil {
		t.Fatalf("second Append: %v", err)
	}
	if second.Seq != 2 {
		t.Fatalf("second epoch seq = %d, want 2", second.Seq)
	}
	all, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Seq != 1 || all[1].Seq != 2 {
		t.Fatalf("store order wrong: %d epochs", len(all))
	}
	latest, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 2 {
		t.Fatalf("Latest seq = %d, want 2", latest.Seq)
	}
}

func TestCorpusStoreEmptyAndJunk(t *testing.T) {
	st := OpenCorpusStore(filepath.Join(t.TempDir(), "missing"))
	eps, err := st.Load()
	if err != nil || len(eps) != 0 {
		t.Fatalf("missing dir: eps=%d err=%v", len(eps), err)
	}
	latest, err := st.Latest()
	if err != nil || latest != nil {
		t.Fatalf("missing dir Latest: %v %v", latest, err)
	}

	// Non-epoch files (REPORT.md, profile dirs) are ignored by Load.
	dir := t.TempDir()
	st = OpenCorpusStore(dir)
	os.WriteFile(filepath.Join(dir, "REPORT.md"), []byte("# x\n"), 0o644)
	os.MkdirAll(filepath.Join(dir, "0001-deadbeef"), 0o755)
	eps, err = st.Load()
	if err != nil || len(eps) != 0 {
		t.Fatalf("junk dir: eps=%d err=%v", len(eps), err)
	}
}

func TestCorpusStoreProfileDirNames(t *testing.T) {
	dir := t.TempDir()
	st := OpenCorpusStore(dir)
	next, err := st.NextProfileDir("abcdef0123456789")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "0001-abcdef012345"); next != want {
		t.Fatalf("NextProfileDir = %q, want %q", next, want)
	}
	if got, want := st.ProfileDir(7, ""), filepath.Join(dir, "0007-norev"); got != want {
		t.Fatalf("ProfileDir = %q, want %q", got, want)
	}
}

func TestCorpusEnvelopeBackCompat(t *testing.T) {
	// A pre-envelope (schema v1) epoch file — no envelope fields at all —
	// must still load; absence of schema_version means version 1.
	dir := t.TempDir()
	raw := map[string]any{
		"seq":  1,
		"grid": "micro",
		"cells": []map[string]any{{
			"shape": "tiny", "scenario": "fresh", "dtype": "f32",
			"m": 8, "k": 24, "n": 24, "tier": "tiny", "reps": 10, "runs": 1,
			"gflops": 1.5, "best_gflops": 1.5, "median_gflops": 1.5, "cov": 0,
		}},
	}
	data, _ := json.Marshal(raw)
	path := filepath.Join(dir, "0001-norev.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	eps, err := OpenCorpusStore(dir).Load()
	if err != nil || len(eps) != 1 {
		t.Fatalf("Load: %d epochs, err %v", len(eps), err)
	}
	e := eps[0]
	if e.HasContrasts() {
		t.Fatal("pre-envelope epoch claims contrasts")
	}
	if e.SchemaVersion != 0 {
		t.Fatalf("schema version = %d, want 0 (implicit v1)", e.SchemaVersion)
	}
	if got, ok := e.CellByKey("tiny/fresh/f32"); !ok || got.GFLOPS != 1.5 {
		t.Fatalf("cell lost: %+v ok=%v", got, ok)
	}
}

func TestCorpusUnknownGrid(t *testing.T) {
	if _, err := RunCorpus(CorpusOptions{Grid: "nope"}); err == nil {
		t.Fatal("want error for unknown grid")
	}
}

func TestShortRev(t *testing.T) {
	if got := ShortRev(""); got != "norev" {
		t.Fatalf("ShortRev(\"\") = %q", got)
	}
	if got := ShortRev("0123456789abcdef"); got != "0123456789ab" {
		t.Fatalf("ShortRev long = %q", got)
	}
	if got := ShortRev("abc"); got != "abc" {
		t.Fatalf("ShortRev short = %q", got)
	}
}

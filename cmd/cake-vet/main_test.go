package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListIncludesSuite(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, name := range []string{"atomicfield", "hotpathalloc", "hotcover", "escapecheck"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "nope"}, &out, &errb); code != 2 {
		t.Fatalf("-run nope: exit %d, want 2 (stderr: %s)", code, errb.String())
	}
}

// TestSeededFixtureFails drives the binary end-to-end over a testdata
// package with known violations and requires the go-vet exit contract:
// diagnostics on stdout, exit code 1.
func TestSeededFixtureFails(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-run", "atomicfield", "../../internal/analysis/testdata/src/atomicfield"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "plain access to field") {
		t.Errorf("diagnostics missing from stdout:\n%s", out.String())
	}
}

// TestJSONSummaryFailing: -json still obeys the exit contract and leads with
// a grep-able "ok" key, the shape scripts/verify.sh and CI consume.
func TestJSONSummaryFailing(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-run", "atomicfield", "-json", "../../internal/analysis/testdata/src/atomicfield"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	var sum jsonSummary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("stdout is not a summary: %v\n%s", err, out.String())
	}
	if sum.OK || sum.Violations == 0 || len(sum.Findings) == 0 {
		t.Errorf("summary should report violations: %+v", sum)
	}
	if !strings.Contains(out.String(), `"ok": false`) {
		t.Errorf(`summary not grep-able for "ok": false`+":\n%s", out.String())
	}
	for _, f := range sum.Findings {
		if f.Analyzer == "" || f.File == "" || f.Line == 0 || f.Message == "" || f.Severity == "" {
			t.Errorf("finding missing fields: %+v", f)
		}
	}
}

// TestJSONSummaryEmptyCorpus: a hotcover-only run against an empty corpus
// store is clean (fresh clones must never fail), reports the skip as a
// notice, and greps as "ok": true.
func TestJSONSummaryEmptyCorpus(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-run", "hotcover", "-json", "-corpus", filepath.Join(t.TempDir(), "none"),
		"../../internal/analysis/testdata/src/hotcover"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), `"ok": true`) {
		t.Errorf(`summary not grep-able for "ok": true`+":\n%s", out.String())
	}
	var sum jsonSummary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Notices) == 0 || !strings.Contains(strings.Join(sum.Notices, "\n"), "no CPU profiles") {
		t.Errorf("empty-store notice missing from summary: %+v", sum.Notices)
	}
}

// TestEscapeLogCache: the first escapecheck run writes the raw compiler
// output to -escape-log; the second parses the cached bytes instead of
// rebuilding, and says so.
func TestEscapeLogCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler; skipped in -short")
	}
	logPath := filepath.Join(t.TempDir(), "escape.log")
	target := "../../internal/analysis/testdata/src/hotcover" // compiles clean, no hot anns needed

	var out1, err1 bytes.Buffer
	if code := run([]string{"-run", "escapecheck", "-escape-log", logPath, target}, &out1, &err1); code != 0 {
		t.Fatalf("capture run: exit %d\nstderr: %s", code, err1.String())
	}
	info, err := os.Stat(logPath)
	if err != nil || info.Size() == 0 {
		t.Fatalf("escape log not written: %v", err)
	}

	var out2, err2 bytes.Buffer
	if code := run([]string{"-run", "escapecheck", "-escape-log", logPath, target}, &out2, &err2); code != 0 {
		t.Fatalf("cached run: exit %d\nstderr: %s", code, err2.String())
	}
	if !strings.Contains(err2.String(), "reusing cached diagnostics") {
		t.Errorf("cached run did not report reuse:\n%s", err2.String())
	}
}

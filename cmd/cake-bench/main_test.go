package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/platform"
)

func TestRunTable2AndFig4(t *testing.T) {
	var buf bytes.Buffer
	for _, target := range []string{"table2", "fig4"} {
		if err := run(target, true, "", &buf); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "Intel i9-10900K") || !strings.Contains(out, "fig4") {
		t.Fatalf("output missing content: %q", out)
	}
}

// TestRunFiguresMatchResults regenerates the simulator figures that run in
// seconds at full size and requires every CSV to equal the committed one in
// results/ byte for byte: the figures plan through core.Plan, so a change to
// the planner or the block geometry shows here. fig10 and fig12 take tens of
// seconds each; scripts/verify.sh checks them the same way.
func TestRunFiguresMatchResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size figures take ~12 s; skipped with -short")
	}
	for _, fig := range []struct {
		target string
		csvs   []string
	}{
		{"fig4", []string{"fig4.csv"}},
		{"fig7", []string{"fig7a.csv", "fig7b.csv"}},
		{"fig8", []string{"fig8a.csv", "fig8b.csv", "fig8c.csv", "fig8d.csv"}},
		{"fig9", []string{"fig9-intel.csv", "fig9-arm.csv"}},
		{"fig11", []string{"fig11a.csv", "fig11b.csv", "fig11c.csv"}},
	} {
		dir := t.TempDir()
		if err := run(fig.target, false, dir, &bytes.Buffer{}); err != nil {
			t.Fatalf("%s: %v", fig.target, err)
		}
		for _, name := range fig.csvs {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("%s: %v", fig.target, err)
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s differs from results/%s at %s", fig.target, name, name, firstDiffRow(got, want))
			}
		}
	}
}

// firstDiffRow names the first row at which a regenerated CSV differs from
// the committed one, with both versions of that row.
func firstDiffRow(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	row := func(lines []string, i int) string {
		if i < len(lines) {
			return strconv.Quote(lines[i])
		}
		return "end of file"
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("row %d: got %s, want %s", i+1, row(g, i), row(w, i))
}

func TestFirstDiffRow(t *testing.T) {
	for _, tc := range []struct{ got, want, msg string }{
		{"h\n1,2\n3,4\n", "h\n1,2\n3,5\n", `row 3: got "3,4", want "3,5"`},
		{"h\n1,2\n", "h\n1,2\n3,5\n", `row 3: got "", want "3,5"`},
		{"h\n1,2", "h\n1,2\n", `row 3: got end of file, want ""`},
	} {
		if msg := firstDiffRow([]byte(tc.got), []byte(tc.want)); msg != tc.msg {
			t.Errorf("firstDiffRow(%q, %q) = %s, want %s", tc.got, tc.want, msg, tc.msg)
		}
	}
}

func TestRunUnknownTarget(t *testing.T) {
	// The bespoke bench targets are gone: their claims are corpus contrasts.
	for _, target := range []string{"fig99", "gemm", "serve", "resident", "batch", "obs"} {
		if err := run(target, true, "", &bytes.Buffer{}); err == nil {
			t.Fatalf("target %q accepted", target)
		}
	}
}

func TestRunTrioQuickWithCSV(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run("fig11", true, dir, &buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig11a.csv", "fig11b.csv", "fig11c.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("missing %s: %v", f, err)
		}
		if !strings.Contains(string(data), "cores") {
			t.Fatalf("%s lacks header", f)
		}
	}
	if !strings.Contains(buf.String(), "ARM v8 Cortex A53") {
		t.Fatal("trio output missing platform")
	}
}

func TestRunFig8Quick(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run("fig8", true, dir, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ratio >= 1.00x") {
		t.Fatal("fig8 coverage summary missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "fig8d.csv")); err != nil {
		t.Fatal(err)
	}
}

func TestShortName(t *testing.T) {
	var buf bytes.Buffer
	if err := run("fig9", true, "", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Speedup") {
		t.Fatal("fig9 output missing")
	}
}

// writeContrastStore appends two synthetic micro epochs to a store; the
// newest carries resident-vs-fresh at the given pairs.
func writeContrastStore(t *testing.T, dir string, residentPairs ...float64) {
	t.Helper()
	st := experiments.OpenCorpusStore(dir)
	declared, err := experiments.DeclaredContrasts("micro")
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 2; seq++ {
		e := &experiments.CorpusEpoch{
			Envelope: experiments.Envelope{SchemaVersion: experiments.BenchSchemaVersion, Artifact: "corpus",
				Host: platform.Fingerprint{Hostname: "synthetic", OS: "linux", Arch: "amd64", Cores: 4}},
			Grid: "micro",
			Cells: []experiments.CorpusCell{{Shape: "small", Scenario: "fresh", Dtype: "f32",
				M: 8, K: 320, N: 320, Tier: "small", Reps: 60, Runs: 3, GFLOPS: 100, BestGFLOPS: 100, MedianGFLOPS: 100, CoV: 0.01}},
		}
		for _, d := range declared {
			pairs := []float64{2 * d.Floor}
			if d.Name == "resident-vs-fresh" && seq == 2 {
				pairs = residentPairs
			}
			e.Contrasts = append(e.Contrasts, experiments.ContrastResult{Contrast: d, Pairs: pairs})
		}
		if _, err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunCheckCandidateSelfComparePasses(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeContrastStore(t, store, 1.6, 1.7, 1.55)
	var buf bytes.Buffer
	if err := runCheck([]string{"-corpus", store}, &buf); err != nil {
		t.Fatalf("healthy store failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "benchmark gate: OK") || !strings.Contains(out, "resident-vs-fresh") {
		t.Fatalf("missing OK verdict or contrast row:\n%s", out)
	}
}

func TestRunCheckCandidateRegressionFails(t *testing.T) {
	store := filepath.Join(t.TempDir(), "corpus")
	writeContrastStore(t, store, 1.2, 1.3, 1.1) // below the 1.5 floor
	var buf bytes.Buffer
	err := runCheck([]string{"-corpus", store}, &buf)
	if err == nil {
		t.Fatalf("contrast below its floor passed:\n%s", buf.String())
	}
	if !strings.Contains(err.Error(), "regression") || !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("err = %v, output:\n%s", err, buf.String())
	}
}

func TestRunCheckBadFlagErrors(t *testing.T) {
	for _, flag := range []string{"-no-such-flag", "-candidate", "-baseline", "-trend-advisory"} {
		if err := runCheck([]string{flag}, &bytes.Buffer{}); err == nil {
			t.Fatalf("flag %s accepted", flag)
		}
	}
}

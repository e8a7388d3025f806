// Command cake-vet runs the repo's invariant analyzers (internal/analysis)
// over a set of packages and exits non-zero if any invariant is violated.
// It is the mechanical half of the concurrency/hot-path story: -race
// catches the interleavings that happen to fire, cake-vet rejects the
// patterns that make them possible. Two passes are profile-guided:
// hotcover replays the committed corpus profiles (results/corpus) and
// demands //cake:hotpath coverage on functions that are hot in production
// scenarios; escapecheck cross-checks annotated functions against the
// compiler's own escape analysis (go build -gcflags='-m -m').
//
// Usage:
//
//	cake-vet [-run hotcover,escapecheck,...] [-json] [-list] [packages]
//
// Packages default to ./... relative to the current directory. The exit
// code is 0 when clean, 1 when violations were reported, 2 on usage or
// load errors — the same contract as go vet, so scripts/verify.sh and CI
// wire it in as one more fast-fail step. Advisory findings (stale
// annotations, cannot-inline notes) never affect the exit code; text mode
// hides them unless -advisory is set, -json always carries them with
// severity "advisory".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// profileGuidedNames are the passes built from external inputs (corpus
// profiles, compiler diagnostics) rather than the static Suite.
var profileGuidedNames = []string{"hotcover", "escapecheck"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cake-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sel string
	fs.StringVar(&sel, "run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable summary on stdout (mirrors benchgate's shape)")
	advisory := fs.Bool("advisory", false, "print advisory findings in text mode (always present in -json)")
	corpus := fs.String("corpus", filepath.Join("results", "corpus"), "corpus profile store hotcover aggregates")
	hotThreshold := fs.Float64("hot-threshold", analysis.DefaultHotShare, "per-scenario flat-share above which hotcover demands //cake:hotpath")
	escapeLog := fs.String("escape-log", "", "cached -gcflags='-m -m' output for escapecheck: read if the file exists, else captured and written there")
	list := fs.Bool("list", false, "list available analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cake-vet [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.Suite() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-14s %s\n", "hotcover",
			"requires //cake:hotpath (or -exempt) on functions hot in committed corpus CPU profiles; flags stale annotations as advisories")
		fmt.Fprintf(stdout, "%-14s %s\n", "escapecheck",
			"fails //cake:hotpath functions that heap-allocate per the compiler's escape analysis (go build -gcflags='-m -m')")
		return 0
	}

	names := make([]string, 0, len(analysis.Suite())+len(profileGuidedNames))
	if sel != "" {
		for _, n := range strings.Split(sel, ",") {
			names = append(names, strings.TrimSpace(n))
		}
	} else {
		for _, a := range analysis.Suite() {
			names = append(names, a.Name)
		}
		names = append(names, profileGuidedNames...)
	}

	// Escape diagnostics resolve relative paths against the directory the
	// build ran in; go list reports absolute directories. Anchor both at the
	// absolute working directory so positions line up.
	root, err := filepath.Abs(".")
	if err != nil {
		fmt.Fprintf(stderr, "cake-vet: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	var analyzers []*analysis.Analyzer
	var notices []string
	for _, name := range names {
		switch name {
		case "hotcover":
			stats, err := analysis.LoadHotStats(filepath.Join(root, *corpus), *hotThreshold)
			if err != nil {
				fmt.Fprintf(stderr, "cake-vet: %v\n", err)
				return 2
			}
			notices = append(notices, stats.Notices...)
			analyzers = append(analyzers, analysis.NewHotCover(stats))
		case "escapecheck":
			log, notice, err := escapeLogFor(*escapeLog, root, patterns)
			if err != nil {
				fmt.Fprintf(stderr, "cake-vet: %v\n", err)
				return 2
			}
			if notice != "" {
				notices = append(notices, notice)
			}
			analyzers = append(analyzers, analysis.NewEscapeCheck(log))
		default:
			a := analysis.ByName(name)
			if a == nil {
				fmt.Fprintf(stderr, "cake-vet: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	// A selection of purely syntax-driven passes (the profile-guided ones)
	// skips `go list -export -deps` and the typechecker entirely.
	syntaxOnly := true
	for _, a := range analyzers {
		if !a.Syntax {
			syntaxOnly = false
			break
		}
	}
	var pkgs []*analysis.Package
	if syntaxOnly {
		pkgs, err = analysis.LoadSyntax(root, patterns...)
	} else {
		pkgs, err = analysis.Load(root, patterns...)
	}
	if err != nil {
		fmt.Fprintf(stderr, "cake-vet: %v\n", err)
		return 2
	}
	diags, err := analysis.Check(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "cake-vet: %v\n", err)
		return 2
	}

	violations := 0
	for _, d := range diags {
		if d.Severity != analysis.SeverityAdvisory {
			violations++
		}
	}

	if *jsonOut {
		writeJSON(stdout, root, names, pkgs, diags, notices, violations)
	} else {
		for _, n := range notices {
			fmt.Fprintf(stderr, "cake-vet: %s\n", n)
		}
		for _, d := range diags {
			if d.Severity == analysis.SeverityAdvisory && !*advisory {
				continue
			}
			fmt.Fprintln(stdout, d)
		}
		if violations > 0 {
			fmt.Fprintf(stderr, "cake-vet: %d violation(s) in %d package(s) checked\n", violations, len(pkgs))
		}
	}
	if violations > 0 {
		return 1
	}
	return 0
}

// escapeLogFor returns the escape log for escapecheck: parsed from the cache
// file when it exists, otherwise captured live (and written to the cache
// path when one was given, so CI captures once per job).
func escapeLogFor(path, root string, patterns []string) (*analysis.EscapeLog, string, error) {
	if path != "" {
		if data, err := os.ReadFile(path); err == nil {
			log, perr := analysis.ParseEscapeDiagnostics(data, root)
			return log, fmt.Sprintf("escapecheck: reusing cached diagnostics from %s", path), perr
		}
	}
	log, raw, err := analysis.CaptureEscapeDiagnostics(root, patterns...)
	if err != nil {
		return nil, "", err
	}
	if path != "" {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return nil, "", fmt.Errorf("write escape log %s: %w", path, err)
		}
	}
	return log, "", nil
}

// jsonFinding is one diagnostic in the -json summary.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Severity string `json:"severity"`
}

// jsonSummary mirrors benchgate.Summary's shape: a leading "ok" key scripts
// can grep, counts, and the full finding list.
type jsonSummary struct {
	OK         bool          `json:"ok"`
	Violations int           `json:"violations"`
	Advisories int           `json:"advisories"`
	Packages   int           `json:"packages"`
	Analyzers  []string      `json:"analyzers"`
	Findings   []jsonFinding `json:"findings"`
	Notices    []string      `json:"notices,omitempty"`
}

func writeJSON(w io.Writer, root string, names []string, pkgs []*analysis.Package, diags []analysis.Diagnostic, notices []string, violations int) {
	s := jsonSummary{
		OK:         violations == 0,
		Violations: violations,
		Advisories: len(diags) - violations,
		Packages:   len(pkgs),
		Analyzers:  names,
		Findings:   []jsonFinding{},
		Notices:    notices,
	}
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		sev := d.Severity
		if sev == "" {
			sev = analysis.SeverityError
		}
		s.Findings = append(s.Findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
			Severity: sev,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s)
}

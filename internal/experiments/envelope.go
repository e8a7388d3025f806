package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/platform"
)

// BenchSchemaVersion is the version of the corpus epoch envelope.
// Version 1 is the implicit pre-envelope format (no schema_version field —
// readers treat its absence as 1); version 2 added the envelope itself:
// artifact name, host fingerprint, git revision, and generation timestamp;
// version 3 added the corpus epoch's contrasts.
const BenchSchemaVersion = 3

// Envelope is the header every corpus epoch embeds. It answers the three
// questions a longitudinal perf record needs (GEMMbench's reproducibility
// criteria): what was measured (Artifact, SchemaVersion), where (Host), and
// at which point in the code's history (GitRev, GeneratedAt). Loaders tolerate its absence so epochs committed
// before the envelope existed keep loading.
type Envelope struct {
	SchemaVersion int                  `json:"schema_version"`
	Artifact      string               `json:"artifact"`
	Host          platform.Fingerprint `json:"host"`
	GitRev        string               `json:"git_rev,omitempty"`
	GeneratedAt   string               `json:"generated_at,omitempty"` // RFC 3339 UTC
}

// NewEnvelope stamps an envelope for an artifact measured on this host now.
func NewEnvelope(artifact string) Envelope {
	return Envelope{
		SchemaVersion: BenchSchemaVersion,
		Artifact:      artifact,
		Host:          platform.HostFingerprint(runtime.GOMAXPROCS(0)),
		GitRev:        GitRev(),
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
	}
}

// GitRev returns the repository's HEAD commit hash, found by walking up from
// the working directory to the nearest .git and reading HEAD (following one
// level of symbolic ref, then packed-refs). Purely stdlib — no git binary —
// and best-effort: any miss returns "" rather than failing the benchmark
// that wanted the stamp.
func GitRev() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		gitDir := filepath.Join(dir, ".git")
		if fi, err := os.Stat(gitDir); err == nil {
			if !fi.IsDir() {
				// Worktree: .git is a file "gitdir: <path>".
				data, err := os.ReadFile(gitDir)
				if err != nil {
					return ""
				}
				p := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(string(data)), "gitdir:"))
				if !filepath.IsAbs(p) {
					p = filepath.Join(dir, p)
				}
				gitDir = p
			}
			return readGitHead(gitDir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// readGitHead resolves HEAD inside a .git directory.
func readGitHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h // detached HEAD: the hash itself
	}
	ref = strings.TrimSpace(ref)
	if data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(data))
	}
	// Ref not loose — search packed-refs ("<hash> <ref>" lines).
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "^") {
			continue
		}
		hash, name, ok := strings.Cut(line, " ")
		if ok && name == ref {
			return hash
		}
	}
	return ""
}

// ShortRev trims a revision hash for filenames and display (12 chars, the
// git default abbreviation ceiling); empty input becomes "norev".
func ShortRev(rev string) string {
	if rev == "" {
		return "norev"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev
}

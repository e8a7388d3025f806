package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// CorpusStore is the append-only perf-history store: one JSON file per epoch
// named NNNN-<rev>.json under Dir (canonically results/corpus), plus an
// optional NNNN-<rev>/ directory holding that epoch's pprof profiles.
// Epochs are never rewritten — the trajectory is the artifact — so sequence
// numbers only grow and Load returns the files in sequence order.
type CorpusStore struct {
	Dir string
}

// OpenCorpusStore points a store at dir (created lazily on first Append).
func OpenCorpusStore(dir string) *CorpusStore { return &CorpusStore{Dir: dir} }

// epochFileRe matches epoch file names: 4-digit sequence, dash, revision tag.
var epochFileRe = regexp.MustCompile(`^(\d{4})-([0-9a-zA-Z]+)\.json$`)

// epochs lists (seq, filename) pairs in sequence order.
func (s *CorpusStore) epochFiles() ([]struct {
	seq  int
	name string
}, error) {
	entries, err := os.ReadDir(s.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []struct {
		seq  int
		name string
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		m := epochFileRe.FindStringSubmatch(ent.Name())
		if m == nil {
			continue
		}
		seq, err := strconv.Atoi(m[1])
		if err != nil || seq < 1 {
			continue
		}
		out = append(out, struct {
			seq  int
			name string
		}{seq, ent.Name()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out, nil
}

// Append assigns the next sequence number to the epoch, writes it as
// NNNN-<rev>.json, and returns the file path. The epoch's Seq field is
// filled in place.
func (s *CorpusStore) Append(e *CorpusEpoch) (string, error) {
	files, err := s.epochFiles()
	if err != nil {
		return "", err
	}
	next := 1
	if len(files) > 0 {
		next = files[len(files)-1].seq + 1
	}
	if next > 9999 {
		return "", fmt.Errorf("experiments: corpus store %s: sequence space exhausted", s.Dir)
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return "", err
	}
	e.Seq = next
	path := filepath.Join(s.Dir, s.epochName(next, e.GitRev))
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// epochName renders an epoch file name for a sequence number and revision.
func (s *CorpusStore) epochName(seq int, rev string) string {
	return fmt.Sprintf("%04d-%s.json", seq, ShortRev(rev))
}

// ProfileDir returns the directory an epoch's pprof profiles live in
// (NNNN-<rev>/ next to the epoch file). It is not created here — the corpus
// runner creates it only when profiling is requested.
func (s *CorpusStore) ProfileDir(seq int, rev string) string {
	return filepath.Join(s.Dir, fmt.Sprintf("%04d-%s", seq, ShortRev(rev)))
}

// NextProfileDir is the profile directory the NEXT Append will own — usable
// before the epoch is written so the runner can capture profiles into it.
func (s *CorpusStore) NextProfileDir(rev string) (string, error) {
	files, err := s.epochFiles()
	if err != nil {
		return "", err
	}
	next := 1
	if len(files) > 0 {
		next = files[len(files)-1].seq + 1
	}
	return s.ProfileDir(next, rev), nil
}

// Load reads every epoch in sequence order (oldest first).
func (s *CorpusStore) Load() ([]*CorpusEpoch, error) {
	files, err := s.epochFiles()
	if err != nil {
		return nil, err
	}
	out := make([]*CorpusEpoch, 0, len(files))
	for _, f := range files {
		e, err := s.loadFile(filepath.Join(s.Dir, f.name))
		if err != nil {
			return nil, err
		}
		if e.Seq == 0 {
			e.Seq = f.seq // tolerate hand-written epochs without the field
		}
		out = append(out, e)
	}
	return out, nil
}

// Latest returns the newest epoch, or nil when the store is empty.
func (s *CorpusStore) Latest() (*CorpusEpoch, error) {
	all, err := s.Load()
	if err != nil || len(all) == 0 {
		return nil, err
	}
	return all[len(all)-1], nil
}

func (s *CorpusStore) loadFile(path string) (*CorpusEpoch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e CorpusEpoch
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("experiments: corpus epoch %s: %w", path, err)
	}
	if len(e.Cells) == 0 {
		return nil, fmt.Errorf("experiments: corpus epoch %s has no cells", path)
	}
	return &e, nil
}

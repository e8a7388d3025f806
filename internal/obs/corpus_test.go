package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// resetCorpusState clears the published corpus doc between tests (the expvar
// stays registered — expvar forbids unpublishing — but reads the cleared state).
func resetCorpusState() {
	corpusMu.Lock()
	latestCorpus, hasCorpus = nil, false
	corpusCells, corpusSeq = nil, 0
	corpusMu.Unlock()
}

func TestCorpusEndpoint404BeforePublish(t *testing.T) {
	resetCorpusState()
	t.Cleanup(resetCorpusState)
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()
	code, _ := debugGet(t, srv, "/debug/corpus.json")
	if code != http.StatusNotFound {
		t.Fatalf("pre-publish code = %d, want 404", code)
	}
}

func TestCorpusEndpointServesLatestDoc(t *testing.T) {
	resetCorpusState()
	t.Cleanup(resetCorpusState)

	doc := map[string]any{
		"epoch": map[string]any{"seq": 3, "grid": "micro"},
		"trend": map[string]any{"ok": true},
	}
	cells := []CorpusCellState{
		{Cell: "tiny/fresh/f32", GFLOPS: 12.5, Verdict: "ok"},
		{Cell: "small/resident/f32", GFLOPS: 48.25, Verdict: "regressed"},
	}
	SetCorpus(doc, 3, cells)

	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()
	code, body := debugGet(t, srv, "/debug/corpus.json")
	if code != http.StatusOK {
		t.Fatalf("code = %d, body %q", code, body)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/debug/corpus.json not JSON: %v\n%s", err, body)
	}
	if _, ok := got["epoch"]; !ok {
		t.Fatalf("doc missing epoch: %s", body)
	}

	// Replacing the doc replaces what the endpoint serves.
	SetCorpus(map[string]any{"epoch": "next"}, 4, cells[:1])
	_, body = debugGet(t, srv, "/debug/corpus.json")
	if !strings.Contains(body, "next") {
		t.Fatalf("endpoint did not pick up replacement: %s", body)
	}

	if d, ok := LatestCorpus(); !ok || d == nil {
		t.Fatal("LatestCorpus lost the doc")
	}

	// The index advertises the route.
	_, index := debugGet(t, srv, "/")
	if !strings.Contains(index, "/debug/corpus.json") {
		t.Fatalf("index missing corpus route:\n%s", index)
	}
}

func TestCorpusPrometheusFamilies(t *testing.T) {
	resetCorpusState()
	t.Cleanup(resetCorpusState)

	var before strings.Builder
	WritePrometheus(&before)
	if strings.Contains(before.String(), "cake_corpus") {
		t.Fatalf("unpublished corpus emitted metrics:\n%s", before.String())
	}

	SetCorpus(map[string]any{}, 7, []CorpusCellState{
		{Cell: "tiny/fresh/f32", GFLOPS: 12.5, Verdict: "ok"},
		{Cell: "large/serve/f64", GFLOPS: 30, Verdict: "regressed"},
	})
	var b strings.Builder
	WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"cake_corpus_epoch_seq 7",
		`cake_corpus_cell_gflops{cell="tiny/fresh/f32"} 12.5`,
		`cake_corpus_cell_trend{cell="tiny/fresh/f32",verdict="ok"} 1`,
		`cake_corpus_cell_trend{cell="tiny/fresh/f32",verdict="regressed"} 0`,
		`cake_corpus_cell_trend{cell="large/serve/f64",verdict="regressed"} 1`,
		"# TYPE cake_corpus_cell_trend gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("corpus metrics missing %q:\n%s", want, out)
		}
	}

	// And the families ride along on the full scrape.
	var full strings.Builder
	WritePrometheus(&full)
	if !strings.Contains(full.String(), "cake_corpus_epoch_seq 7") {
		t.Fatal("WritePrometheus missing corpus families")
	}
}

func TestCorpusExpvarMirrorsCells(t *testing.T) {
	resetCorpusState()
	t.Cleanup(resetCorpusState)
	SetCorpus(map[string]any{}, 9, []CorpusCellState{{Cell: "a/b/c", GFLOPS: 1, Verdict: "new-cell"}})

	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()
	_, body := debugGet(t, srv, "/debug/vars")
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	raw, ok := vars["cake_corpus"]
	if !ok {
		t.Fatal("expvar cake_corpus not published")
	}
	var v struct {
		Seq   int               `json:"seq"`
		Cells []CorpusCellState `json:"cells"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("cake_corpus payload: %v\n%s", err, raw)
	}
	if v.Seq != 9 || len(v.Cells) != 1 || v.Cells[0].Verdict != "new-cell" {
		t.Fatalf("cake_corpus = %+v", v)
	}
}

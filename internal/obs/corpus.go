package obs

// Corpus observability: the performance-trajectory corpus (internal/
// experiments + internal/benchgate) publishes its latest epoch and per-cell
// trend verdicts here, and the debug server serves them on
// /debug/corpus.json next to the conformance report. Like SetConformance,
// the payload is an opaque JSON-marshalable value — obs sits below the
// corpus packages in the dependency graph, so it cannot name their types.
// The per-cell metric rows are mirrored as the cake_corpus expvar and the
// cake_corpus_* Prometheus families so a scraping host sees the trajectory
// state without fetching the full epoch.

import (
	"encoding/json"
	"expvar"
	"net/http"
	"sync"
)

// CorpusCellState is one grid cell's published metric row: its committed
// throughput and the trend verdict the analyzer assigned.
type CorpusCellState struct {
	Cell    string  `json:"cell"` // shape/scenario/dtype key
	GFLOPS  float64 `json:"gflops"`
	Verdict string  `json:"verdict"` // ok|improved|regressed|noisy|new-cell
}

var (
	corpusMu     sync.Mutex
	latestCorpus any
	hasCorpus    bool
	corpusCells  []CorpusCellState
	corpusSeq    int
	corpusVarOn  bool
)

// SetCorpus publishes the latest corpus document (epoch + trend verdicts; any
// JSON-marshalable value) for /debug/corpus.json, and the per-cell metric
// rows for expvar/Prometheus. seq is the epoch's store sequence number.
func SetCorpus(doc any, seq int, cells []CorpusCellState) {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	latestCorpus, hasCorpus = doc, true
	corpusSeq = seq
	corpusCells = append([]CorpusCellState(nil), cells...)
	if !corpusVarOn {
		corpusVarOn = true
		expvar.Publish("cake_corpus", expvar.Func(func() any {
			rows, _ := corpusState()
			return map[string]any{"seq": rows.seq, "cells": rows.cells}
		}))
	}
}

// LatestCorpus returns the most recently published corpus document, or
// ok=false when none has been published yet.
func LatestCorpus() (any, bool) {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	return latestCorpus, hasCorpus
}

func serveCorpus(w http.ResponseWriter, r *http.Request) {
	doc, ok := LatestCorpus()
	if !ok {
		http.Error(w, "no corpus epoch published yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// corpusTrendStates is the fixed verdict label set every cell exports one
// series per — a Prometheus "state set", so dashboards can alert on
// `cake_corpus_cell_trend{verdict="regressed"} == 1` without string parsing.
var corpusTrendStates = []string{"ok", "improved", "regressed", "noisy", "new-cell"}

// corpusRows is one read of the published epoch's sequence number and
// cell rows.
type corpusRows struct {
	seq   int
	cells []CorpusCellState
}

// corpusState copies the published epoch's rows; ok is false until an
// epoch is published, and the corpus families are exported only from then.
func corpusState() (corpusRows, bool) {
	corpusMu.Lock()
	defer corpusMu.Unlock()
	return corpusRows{corpusSeq, append([]CorpusCellState(nil), corpusCells...)}, hasCorpus
}

// corpusFamilies are the corpus rows of the metric table, so /metrics
// carries the trajectory state next to the executor and engine series.
var corpusFamilies = []Family[corpusRows]{
	{Name: "cake_corpus_epoch_seq", Type: "gauge", Help: "Latest corpus epoch sequence number.", Samples: func(s corpusRows, emit Emit) {
		emit("", float64(s.seq))
	}},
	{Name: "cake_corpus_cell_gflops", Type: "gauge", Help: "Worst-of-N GFLOP/s per corpus grid cell (latest epoch).", Samples: func(s corpusRows, emit Emit) {
		for _, c := range s.cells {
			emit("", c.GFLOPS, "cell", c.Cell)
		}
	}},
	{Name: "cake_corpus_cell_trend", Type: "gauge", Help: "Trend verdict state set per corpus grid cell (1 = current verdict).", Samples: func(s corpusRows, emit Emit) {
		for _, c := range s.cells {
			for _, state := range corpusTrendStates {
				v := 0.0
				if c.Verdict == state {
					v = 1
				}
				emit("", v, "cell", c.Cell, "verdict", state)
			}
		}
	}},
}

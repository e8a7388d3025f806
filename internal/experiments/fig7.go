package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/gotoalg"
	"repro/internal/memtrace"
	"repro/internal/platform"
)

// Bars is a grouped bar chart: one value per (category, group), the form of
// Figure 7's stall and access profiles.
type Bars struct {
	ID         string
	Title      string
	Unit       string
	Categories []string
	Groups     []string
	Values     [][]float64 // Values[group][category]
}

// CSV writes the bars as comma-separated values (levels × groups).
func (b *Bars) CSV(w io.Writer) {
	fmt.Fprintf(w, "level,%s\n", strings.Join(b.Groups, ","))
	for ci, cat := range b.Categories {
		row := []string{cat}
		for gi := range b.Groups {
			row = append(row, fmt.Sprintf("%g", b.Values[gi][ci]))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Render writes the bars as an aligned table.
func (b *Bars) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", b.ID, b.Title)
	rows := [][]string{append([]string{"level"}, b.Groups...)}
	for ci, cat := range b.Categories {
		row := []string{cat}
		for gi := range b.Groups {
			row = append(row, formatNum(b.Values[gi][ci]))
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	fmt.Fprintf(w, "    (unit: %s)\n\n", b.Unit)
}

// Fig7a reproduces the Intel stall profile: clock ticks spent stalled on
// each memory level for a size³ GEMM on all cores, CAKE vs the MKL proxy.
// L1/L2 stalls come from the analytic kernel profile with the platform's
// load-to-use latencies (×(1−hide) for out-of-order latency hiding); LLC
// stalls combine the simulator's internal-bandwidth stall with the latency
// cost of LLC-served kernel traffic (CAKE's resident partial C); DRAM
// stalls are the simulator's external stalls, which for the GOTO proxy
// include its partial-C demand streams.
func Fig7a(pl *platform.Platform, size int) (*Bars, error) {
	const hide = 0.95 // fraction of load latency an OoO core hides
	cm, ccfg, err := SimCake(pl, pl.Cores, size, size, size)
	if err != nil {
		return nil, err
	}
	gm, gcfg, err := SimGoto(pl, pl.Cores, size, size, size)
	if err != nil {
		return nil, err
	}
	cProf := memtrace.ProfileKernel(size, size, size, ccfg.MR, ccfg.NR, ccfg.KC)
	gProf := memtrace.ProfileKernel(size, size, size, gcfg.MR, gcfg.NR, gcfg.KC)

	lat := func(hits int64, latency int) float64 {
		return float64(hits) * float64(latency) * (1 - hide) / float64(pl.Cores)
	}
	// LLC-served kernel elements: B panel re-reads for both; plus the
	// resident partial-C read-modify-write for CAKE (GOTO's goes to DRAM).
	cakeLLCServed := cProf.BeyondL1 + 2*int64(size)*int64(size)*int64((size+ccfg.KC-1)/ccfg.KC)
	gotoLLCServed := gProf.BeyondL1

	cake := []float64{
		lat(cProf.L1Hits, pl.LatL1),
		lat(cProf.BeyondL1, pl.LatL2),
		lat(cakeLLCServed, pl.LatLLC) + float64(cm.StallInternal),
		float64(cm.StallDRAM),
	}
	base := []float64{
		lat(gProf.L1Hits, pl.LatL1),
		lat(gProf.BeyondL1, pl.LatL2),
		lat(gotoLLCServed, pl.LatLLC) + float64(gm.StallInternal),
		float64(gm.StallDRAM),
	}
	return &Bars{
		ID:         "fig7a",
		Title:      fmt.Sprintf("Memory request stalls on %s (%d×%d, %d cores)", pl.Name, size, size, pl.Cores),
		Unit:       "clock ticks (model)",
		Categories: []string{"L1", "L2", "L3", "Main Memory"},
		Groups:     []string{"Cake", "MKL"},
		Values:     [][]float64{cake, base},
	}, nil
}

// Fig7b reproduces the ARM access profile: L1 hits, LLC (L2) hits and DRAM
// requests for a size³ GEMM. L1 hits come from the kernel profile; DRAM
// requests come from driving each schedule's tile-granularity trace through
// an exact-LRU model of the shared L2 (the perf-counter substitution of
// DESIGN.md); LLC hits are the beyond-L1 traffic the LRU model retained.
func Fig7b(pl *platform.Platform, size int) (*Bars, error) {
	cm, ccfg, err := SimCake(pl, pl.Cores, size, size, size)
	if err != nil {
		return nil, err
	}
	gm, gcfg, err := SimGoto(pl, pl.Cores, size, size, size)
	if err != nil {
		return nil, err
	}
	cProf := memtrace.ProfileKernel(size, size, size, ccfg.MR, ccfg.NR, ccfg.KC)
	gProf := memtrace.ProfileKernel(size, size, size, gcfg.MR, gcfg.NR, gcfg.KC)

	const lineBytes = 64
	cakeDRAM := float64(cm.DRAMReadBytes+cm.DRAMWriteBytes) / lineBytes
	gotoDRAM := float64(gm.DRAMReadBytes+gm.DRAMWriteBytes) / lineBytes

	// Cross-check the simulator's DRAM traffic with the exact-LRU trace.
	if err := crossCheckLRU(pl, size, ccfg, gcfg); err != nil {
		return nil, err
	}

	elemsPerLine := float64(lineBytes / elemBytes)
	cake := []float64{
		float64(cProf.L1Hits),
		float64(cProf.BeyondL1) - cakeDRAM*elemsPerLine,
		cakeDRAM,
	}
	base := []float64{
		float64(gProf.L1Hits),
		float64(gProf.BeyondL1) - gotoDRAM*elemsPerLine,
		gotoDRAM,
	}
	return &Bars{
		ID:         "fig7b",
		Title:      fmt.Sprintf("Cache and DRAM accesses on %s (%d×%d, %d cores)", pl.Name, size, size, pl.Cores),
		Unit:       "accesses (L1/L2: elements; DRAM: 64B requests)",
		Categories: []string{"L1 Hits", "L2 Hits", "DRAM Requests"},
		Groups:     []string{"Cake", "ARMPL"},
		Values:     [][]float64{cake, base},
	}, nil
}

// crossCheckLRU validates the block-level simulator's DRAM accounting
// against the exact LRU cache model driven by the schedules' tile traces:
// the CAKE-vs-GOTO traffic ratio must agree in direction (GOTO ≥ CAKE).
func crossCheckLRU(pl *platform.Platform, size int, ccfg core.Config, gcfg gotoalg.Config) error {
	// Sub-tile granularity must divide the block sides so chunks align with
	// block boundaries; both planners emit multiples of the register tile.
	gran := 8
	hc := cachesim.NewHierarchy[memtrace.Key]([]string{"LLC"}, []int64{pl.LLCBytes})
	rc, err := memtrace.Run(func(e memtrace.Emit) error {
		return memtrace.Cake(size, size, size, ccfg, gran, elemBytes, e)
	}, hc)
	if err != nil {
		return err
	}
	hg := cachesim.NewHierarchy[memtrace.Key]([]string{"LLC"}, []int64{pl.LLCBytes})
	rg, err := memtrace.Run(func(e memtrace.Emit) error {
		return memtrace.Goto(size, size, size, gcfg, gran, elemBytes, e)
	}, hg)
	if err != nil {
		return err
	}
	if rg.BytesMoved < rc.BytesMoved {
		return fmt.Errorf("experiments: LRU cross-check failed: GOTO moved %d < CAKE %d", rg.BytesMoved, rc.BytesMoved)
	}
	return nil
}

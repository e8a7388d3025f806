package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gotoalg"
	"repro/internal/platform"
	"repro/internal/schedule"
)

func sumOps(ops []BlockOp) (macs, reads, writes, demand int64) {
	for _, op := range ops {
		macs += op.MACs
		reads += op.FetchA + op.FetchB + op.DemandRead
		writes += op.WriteC + op.DemandWrite
		demand += op.DemandRead + op.DemandWrite
	}
	return
}

func TestCakeOpsValidation(t *testing.T) {
	if _, err := CakeOps(core.Config{}, 4, 10, 10, 10); err == nil {
		t.Fatal("zero workload accepted")
	}
	w := core.Config{Cores: 2, MC: 8, KC: 8, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	if _, err := CakeOps(w, 4, 0, 10, 10); err == nil {
		t.Fatal("zero dims accepted")
	}
}

func TestCakeOpsConservation(t *testing.T) {
	w := core.Config{Cores: 2, MC: 8, KC: 8, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	m, k, n := 40, 30, 50
	ops, err := CakeOps(w, 4, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	macs, _, writes, demand := sumOps(ops)
	if macs != int64(m)*int64(k)*int64(n) {
		t.Fatalf("MACs %d != %d", macs, m*k*n)
	}
	// Every C element written back exactly once; no demand traffic.
	if writes != int64(m)*int64(n)*4 {
		t.Fatalf("writes %d", writes)
	}
	if demand != 0 {
		t.Fatal("CAKE must have no demand traffic (partials stay local)")
	}
}

func TestCakeOpsReuseMatchesSchedule(t *testing.T) {
	// 2×2×2 block grid with exact tiling: the K-first snake reuses A at the
	// single N step and B at the two M steps.
	w := core.Config{Cores: 2, MC: 8, KC: 16, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	m, k, n := 32, 32, 32 // block 16×16×16 → grid 2×2×2
	ops, err := CakeOps(w, 1, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 8 {
		t.Fatalf("blocks %d", len(ops))
	}
	var aFetches, bFetches int
	for _, op := range ops {
		if op.FetchA > 0 {
			aFetches++
		}
		if op.FetchB > 0 {
			bFetches++
		}
	}
	if aFetches != 8-1 { // A reused across the 1 N step
		t.Fatalf("A fetches %d", aFetches)
	}
	if bFetches != 8-2 { // B reused across the 2 M steps
		t.Fatalf("B fetches %d", bFetches)
	}
}

func TestCakeOpsActiveCores(t *testing.T) {
	// M smaller than one block row: only some cores active. The executor
	// hands a block's rows out in compute units of two 8-row register
	// panels, so 17 rows keep two of the four cores busy.
	w := core.Config{Cores: 4, MC: 8, KC: 8, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	ops, err := CakeOps(w, 4, 17, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.Active != 2 {
			t.Fatalf("active %d want 2", op.Active)
		}
	}
}

func TestGotoOpsConservation(t *testing.T) {
	w := gotoalg.Config{Cores: 2, MC: 8, KC: 8, NC: 16, MR: 8, NR: 8}
	m, k, n := 40, 24, 33
	ops, err := GotoOps(w, 4, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	macs, _, writes, _ := sumOps(ops)
	if macs != int64(m)*int64(k)*int64(n) {
		t.Fatalf("MACs %d", macs)
	}
	// C streams out once per pc iteration: M·N·ceil(K/kc) elements.
	if want := int64(m) * int64(n) * 3 * 4; writes != want {
		t.Fatalf("writes %d want %d", writes, want)
	}
}

func TestGotoOpsDemandReadsAfterFirstPc(t *testing.T) {
	w := gotoalg.Config{Cores: 2, MC: 8, KC: 8, NC: 64, MR: 8, NR: 8}
	ops, err := GotoOps(w, 4, 16, 24, 64) // 3 pc iterations, 1 ic round each
	if err != nil {
		t.Fatal(err)
	}
	var reads int64
	for _, op := range ops {
		reads += op.DemandRead
	}
	// Partials read back on pc=1,2: 2 × M·N.
	if want := int64(2 * 16 * 64 * 4); reads != want {
		t.Fatalf("demand reads %d want %d", reads, want)
	}
}

func TestGotoOpsValidation(t *testing.T) {
	if _, err := GotoOps(gotoalg.Config{}, 4, 1, 1, 1); err == nil {
		t.Fatal("zero workload accepted")
	}
	w := gotoalg.Config{Cores: 1, MC: 8, KC: 8, NC: 8, MR: 8, NR: 8}
	if _, err := GotoOps(w, 4, 1, 0, 1); err == nil {
		t.Fatal("zero dims accepted")
	}
}

// simulateBoth runs CAKE and GOTO programs for a platform at p cores on an
// s×s×s problem (mirrors the experiments harness, scaled down for tests).
func simulateBoth(t *testing.T, pl *platform.Platform, p, s int) (cake, gt Metrics) {
	t.Helper()
	mc := 64 // modest block; LLC-safe for every Table 2 platform at small p
	cw := core.Config{Cores: p, MC: mc, KC: mc, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	cakeOps, err := CakeOps(cw, 4, s, s, s)
	if err != nil {
		t.Fatal(err)
	}
	gw := gotoalg.Config{Cores: p, MC: 48, KC: 48, NC: 1024, MR: 8, NR: 8}
	gotoOps, err := GotoOps(gw, 4, s, s, s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FromPlatform(pl, p)
	cake, err = Run(cfg, cakeOps)
	if err != nil {
		t.Fatal(err)
	}
	gt, err = Run(cfg, gotoOps)
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestCakeConstantBWGotoGrowingBW(t *testing.T) {
	// The headline of Figures 10a–12a: as cores increase, CAKE's DRAM
	// bandwidth stays ~constant while GOTO's grows.
	pl := platform.IntelI9()
	var cakeBW, gotoBW []float64
	for _, p := range []int{1, 2, 4, 8} {
		c, g := simulateBoth(t, pl, p, 1536)
		cakeBW = append(cakeBW, c.AvgDRAMBW(pl.ClockHz))
		gotoBW = append(gotoBW, g.AvgDRAMBW(pl.ClockHz))
	}
	if cakeBW[3] > 1.6*cakeBW[1] {
		t.Fatalf("CAKE BW grew with cores: %v", cakeBW)
	}
	if gotoBW[3] < 2.5*gotoBW[0] {
		t.Fatalf("GOTO BW did not grow with cores: %v", gotoBW)
	}
}

func TestCakeThroughputScalesOnARM(t *testing.T) {
	// Figure 11b: CAKE keeps scaling to 4 cores on the A53; the GOTO proxy
	// falls behind because its partial-C demand traffic stalls the in-order
	// cores against 2 GB/s of DRAM.
	pl := platform.ARMCortexA53()
	c1, _ := simulateBoth(t, pl, 1, 768)
	c4, g4 := simulateBoth(t, pl, 4, 768)
	cakeSpeedup := c4.ThroughputGFLOPS(pl.ClockHz) / c1.ThroughputGFLOPS(pl.ClockHz)
	if cakeSpeedup < 3 {
		t.Fatalf("CAKE 4-core speedup %v too low", cakeSpeedup)
	}
	if g4.ThroughputGFLOPS(pl.ClockHz) >= c4.ThroughputGFLOPS(pl.ClockHz) {
		t.Fatalf("GOTO (%v) should trail CAKE (%v) on the A53",
			g4.ThroughputGFLOPS(pl.ClockHz), c4.ThroughputGFLOPS(pl.ClockHz))
	}
}

func TestSimThroughputBelowPeak(t *testing.T) {
	// Sanity: no platform exceeds its compute roof.
	for _, pl := range platform.All() {
		c, g := simulateBoth(t, pl, pl.Cores, 768)
		peak := pl.PeakGFLOPS(pl.Cores)
		if c.ThroughputGFLOPS(pl.ClockHz) > peak*1.01 {
			t.Fatalf("%s: CAKE exceeds peak", pl.Name)
		}
		if g.ThroughputGFLOPS(pl.ClockHz) > peak*1.01 {
			t.Fatalf("%s: GOTO exceeds peak", pl.Name)
		}
	}
}

func TestRunEnforcesFootprint(t *testing.T) {
	cfg := testCfg()
	cfg.LLCBytes = 1000
	ops := []BlockOp{{MACs: 100, Active: 1, Footprint: 2000}}
	if _, err := Run(cfg, ops); err == nil {
		t.Fatal("over-footprint program accepted")
	}
	ops[0].Footprint = 900
	if _, err := Run(cfg, ops); err != nil {
		t.Fatal(err)
	}
	// Unchecked when either side is zero.
	cfg.LLCBytes = 0
	ops[0].Footprint = 1 << 40
	if _, err := Run(cfg, ops); err != nil {
		t.Fatal("LLCBytes=0 should disable the check")
	}
}

func TestCakeOpsFootprintMatchesLRURule(t *testing.T) {
	w := core.Config{Cores: 2, MC: 8, KC: 8, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	ops, err := CakeOps(w, 4, 32, 32, 32) // exact blocks of 16×8×16
	if err != nil {
		t.Fatal(err)
	}
	want := int64(16*16+2*(16*8+8*16)) * 4
	for _, op := range ops {
		if op.Footprint != want {
			t.Fatalf("footprint %d want %d", op.Footprint, want)
		}
	}
}

func TestCakeOpsMatchesScheduleEvalIO(t *testing.T) {
	// Two independent implementations of the same reuse accounting — the
	// schedule-level cost model and the workload compiler — must agree
	// exactly on external traffic for exact tilings.
	w := core.Config{Cores: 2, MC: 16, KC: 16, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto}
	m, k, n := 96, 64, 128 // blocks 32×16×32 → grid 3×4×4
	ops, err := CakeOps(w, 4, m, k, n)
	if err != nil {
		t.Fatal(err)
	}
	var fetchA, fetchB, writeC int64
	for _, op := range ops {
		fetchA += op.FetchA
		fetchB += op.FetchB
		writeC += op.WriteC
	}

	d := schedule.Dims{Mb: 3, Nb: 4, Kb: 4}
	surf := schedule.Surfaces{A: 32 * 16, B: 16 * 32, C: 32 * 32}
	cost := schedule.EvalIO(d, schedule.KFirst(d, schedule.OrderFor(m, n)), surf)
	if fetchA != int64(cost.AFetch)*4 {
		t.Fatalf("A traffic: ops %d vs EvalIO %v", fetchA, cost.AFetch*4)
	}
	if fetchB != int64(cost.BFetch)*4 {
		t.Fatalf("B traffic: ops %d vs EvalIO %v", fetchB, cost.BFetch*4)
	}
	if writeC != int64(cost.CWrite)*4 {
		t.Fatalf("C traffic: ops %d vs EvalIO %v", writeC, cost.CWrite*4)
	}
	if cost.CFetch != 0 {
		t.Fatal("K-first must never re-fetch partials")
	}
}

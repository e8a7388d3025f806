// The block loop: one K-first block schedule over one set of packed panels,
// run in one of two modes. The constant-bandwidth story of Sections 3–4
// says compute should fully overlap the memory stream; a synchronous
// executor instead alternates pack → barrier → compute → barrier, idling
// cores during packing and the memory system during compute. Pipelined, the
// loop is a software pipeline: block i's fork carries its compute units
// followed by block i+1's pack units, which write into another set of
// packing buffers, and the granted workers claim them in that order — a
// worker that runs out of compute packs the next block instead of idling
// at the barrier (prologue pack, then one fork per block). At width 1 the
// same fork runs inline: compute(i), then pack(i+1). On top of the
// ping-pong, each buffer slot remembers which logical panel it holds,
// so when consecutive blocks share an IO surface — the B panel across an M
// step, the A panel across an N step, exactly the reuses Algorithm 2's snake
// traversal engineers — the repack is skipped outright and counted in
// Stats.ReusedAElems/ReusedBElems. Sync mode (WithPipeline(false)) runs the
// same loop with neither: each block is packed afresh on the caller, then
// computed — the no-reuse baseline of the §5.2.1 packing-overhead study.
package core

import (
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/packing"
	"repro/internal/schedule"
)

// panelKey identifies the logical sub-panel a packing-buffer slot holds
// within one call of a batch. Operands, transposes and α are fixed for the
// duration of a call and every key is invalidated when the next call
// starts, so block coordinates fully determine packed content.
type panelKey struct {
	r0, rows, c0, cols int
	valid              bool
}

func aKeyFor(b *blockSpan) panelKey { return panelKey{b.m0, b.mEff, b.k0, b.kEff, true} }
func bKeyFor(b *blockSpan) panelKey { return panelKey{b.k0, b.kEff, b.n0, b.nEff, true} }

// unitPanels is how many mr-row register panels one compute unit spans.
// Units are what the granted workers claim, so a smaller unit balances
// cores of unequal speed more finely and costs one more claim per unit; at
// the 8×8 tile, 8- and 16-row units measured alike and 32 rows was slower
// (EXPERIMENTS.md).
const unitPanels = 2

// blockSpan is one scheduled CB block resolved to element coordinates, its
// per-core pack strips (strips strips of strip rows) and its compute units
// (units units of unit rows: unitPanels register panels).
type blockSpan struct {
	m0, mEff, k0, kEff, n0, nEff int
	strip, strips                int
	unit, units                  int
	runStart, runEnd             bool
	coord                        obs.Block // grid coordinates, for span recording
}

// spanFor resolves block i of seq for an m×k×n call into b.
func (e *Executor[T]) spanFor(b *blockSpan, seq []schedule.Coord, i, m, k, n int) {
	cur := seq[i]
	b.m0, b.mEff = span(cur.M, e.bm, m)
	b.k0, b.kEff = span(cur.K, e.bk, k)
	b.n0, b.nEff = span(cur.N, e.bn, n)
	b.strip = e.cfg.stripRows(b.mEff)
	b.strips = ceilDiv(b.mEff, b.strip)
	b.unit = unitPanels * e.cfg.MR
	b.units = ceilDiv(b.mEff, b.unit)
	b.runStart = i == 0 || seq[i-1].M != cur.M || seq[i-1].N != cur.N
	b.runEnd = i == len(seq)-1 || seq[i+1].M != cur.M || seq[i+1].N != cur.N
	b.coord = obs.Block{M: int32(cur.M), K: int32(cur.K), N: int32(cur.N)}
}

// pipeStage is one block in flight through the pipeline: which slots hold
// its packed panels, whether each panel was freshly packed or reused, its
// pack units, and timestamps for the overlap accounting. The executor keeps
// a ring of two — the block computing and the block packing behind it in
// the same fork — so a call allocates no stages.
type pipeStage struct {
	blk              blockSpan
	aSlot, bSlot     int
	packedA, packedB bool // false → panel reused, no pack ran
	aUnits, units    int  // pack units: [0, aUnits) pack A, [aUnits, units) B
	pending          atomic.Int32
	startNs          atomic.Int64 // first pack unit to start, ns since e.epoch (0 = none yet)
	doneNs           atomic.Int64 // last pack unit to finish, ns since e.epoch
}

// invalidateSlots forgets packed-panel identities; called at the start of
// every run because slot keys are only meaningful against one set of
// operands. A batch loop that carries an operand unchanged into the next
// call sets keepA/keepB, which preserves that operand's keys: coordinates
// plus an identical operand (pointer, transpose, α fold) determine packed
// content, so a kept key's panel is byte-identical to what a fresh pack
// would produce.
func (e *Executor[T]) invalidateSlots() {
	if !e.keepA {
		clear(e.aKeys)
		clear(e.aTick)
	}
	if !e.keepB {
		clear(e.bKeys)
		clear(e.bTick)
	}
	if !e.keepA && !e.keepB {
		e.clock = 0
	}
}

// claimSlot returns the slot already holding key (a reuse hit) or the
// least-recently-used victim slot to pack into. busy is the slot the
// currently-computing stage reads from — never evicted, which is what makes
// the two-slot ring a safe double buffer.
func claimSlot(keys []panelKey, ticks []int64, clock *int64, key panelKey, busy int) (slot int, reused bool) {
	*clock++
	for s := range keys {
		if keys[s].valid && keys[s] == key {
			ticks[s] = *clock
			return s, true
		}
	}
	victim := -1
	for s := range keys {
		if s == busy {
			continue
		}
		if victim < 0 || ticks[s] < ticks[victim] {
			victim = s
		}
	}
	keys[victim] = key
	ticks[victim] = *clock
	return victim, false
}

// claimPanels claims buffer slots for stage s's block and counts the pack
// units of whichever panels are not already resident; a fork runs them
// (see runBlocks), claimed dynamically, so fast workers absorb ragged unit
// costs. busyA/busyB are the slots of the stage currently computing (-1
// when none is). Sync mode claims with the invalid key, which never matches
// a slot, so it packs every panel of every block.
func (e *Executor[T]) claimPanels(s *pipeStage, busyA, busyB int) {
	blk := &s.blk
	aKey, bKey := aKeyFor(blk), bKeyFor(blk)
	if !e.pipeline {
		aKey, bKey = panelKey{}, panelKey{}
	}
	var reusedA, reusedB bool
	s.aSlot, reusedA = claimSlot(e.aKeys, e.aTick, &e.clock, aKey, busyA)
	s.packedA = !reusedA
	// Resident calls hold no B slot at all: every block's panels come from
	// the store, so the slot ring, its keys and the pack units stay untouched
	// on the B side (compute substitutes the resident cell, see computeItem).
	s.bSlot, s.packedB = -1, false
	if e.resB == nil {
		s.bSlot, reusedB = claimSlot(e.bKeys, e.bTick, &e.clock, bKey, busyB)
		s.packedB = !reusedB
	}

	s.aUnits = 0
	if s.packedA {
		s.aUnits = blk.strips // one pack unit per core strip
	}
	s.units = s.aUnits
	if s.packedB {
		s.units += e.packBUnits(blk)
	}
	s.pending.Store(int32(s.units))
	s.startNs.Store(0)
	s.doneNs.Store(0)
}

// packItem packs unit u of the packing stage (e.packing) from the call's
// operands.
func (e *Executor[T]) packItem(worker, u int) {
	s := e.packing
	u0 := e.now()
	var elems int64
	if u < s.aUnits {
		elems = e.packAUnit(e.packA[s.aSlot], e.a, &s.blk, u)
	} else {
		elems = e.packBUnit(e.packB[s.bSlot], e.b, &s.blk, u-s.aUnits)
	}
	e.span(worker, obs.PhasePack, s.blk.coord, u0, elems*e.elemBytes)
}

// packAUnit packs core strip u of the block's A panel into dst at the
// offsets computeStage reads, so units may run in any order on any worker.
// Returns the elements moved, for span accounting.
func (e *Executor[T]) packAUnit(dst []T, a *matrix.Matrix[T], blk *blockSpan, u int) int64 {
	r0 := u * blk.strip
	rows := min(blk.strip, blk.mEff-r0)
	e.packASlice(dst[r0*blk.kEff:], a, blk.m0+r0, rows, blk.k0, blk.kEff)
	return int64(rows) * int64(blk.kEff)
}

// packBUnits returns how many parallel units pack the block's B panel: the
// shared panel, chunked by columns.
func (e *Executor[T]) packBUnits(blk *blockSpan) int {
	return min(e.cfg.Cores, ceilDiv(blk.nEff, e.cfg.NR))
}

// packBUnit packs column chunk u of the block's B panel into dst at the
// offset bPanels reads it from. Returns the elements moved, for span
// accounting.
func (e *Executor[T]) packBUnit(dst []T, b *matrix.Matrix[T], blk *blockSpan, u int) int64 {
	nr := e.cfg.NR
	panels := ceilDiv(blk.nEff, nr)
	perChunk := ceilDiv(panels, min(e.cfg.Cores, panels))
	p0 := u * perChunk
	pn := min(perChunk, panels-p0)
	if pn <= 0 {
		return 0
	}
	c0 := p0 * nr
	cols := min(pn*nr, blk.nEff-c0)
	off, end := e.blockSlabs(blk).Span(0, c0, cols)
	e.packBSlice(dst[off:end], b, blk.k0, blk.kEff, blk.n0+c0, cols)
	return int64(blk.kEff) * int64(cols)
}

// computeStage runs the block's macro-kernels out of the stage's packed
// slots into the block's C buffer, e.cBlock, in one fork whose items are
// the block's compute units followed by the pack units of stage ahead (nil
// or with no panel to pack: compute alone). The granted workers claim the
// items one at a time, so a core that runs faster takes more compute units
// instead of idling at the block's barrier behind a slower one (Section 4
// gives each core one strip, which balances only cores of equal speed), and
// a core that runs out of compute units packs the next block. Each C tile
// is one kernel call over the block's full depth, added once into the C
// buffer, so the accumulation order depends only on the config — never on
// the mode, the width, which worker claims a unit or which slot (or
// resident image) holds a panel — and every mode's results are
// bit-identical.
func (e *Executor[T]) computeStage(s, ahead *pipeStage) {
	e.cur, e.packing = s, ahead
	if ahead == nil || ahead.units == 0 {
		e.fork(e.computeCtx, s.blk.units, e.computeJob)
	} else {
		e.computing.Store(int32(s.blk.units))
		e.fork(e.computeCtx, s.blk.units+ahead.units, e.blockJob)
	}
}

// blockItem runs item u of a block's fork: a compute unit of the computing
// block, or past them a pack unit of the block behind it, which wears the
// pack label when tracing and stamps its stage's first start and last
// finish (see finishPack).
func (e *Executor[T]) blockItem(worker, u int) {
	units := e.cur.blk.units
	if u < units {
		e.computeItem(worker, u)
		if e.computing.Add(-1) == 0 {
			e.computedNs.Store(e.sinceEpoch())
		}
		return
	}
	s := e.packing
	if e.packCtx != nil {
		pprof.SetGoroutineLabels(e.packCtx)
	}
	if s.startNs.Load() == 0 {
		s.startNs.CompareAndSwap(0, e.sinceEpoch())
	}
	e.packItem(worker, u-units)
	if s.pending.Add(-1) == 0 {
		s.doneNs.Store(e.sinceEpoch())
	}
}

// computeItem runs compute unit ui of the computing block (e.cur) on
// worker: unitPanels row panels of A against the whole packed B panel.
func (e *Executor[T]) computeItem(worker, ui int) {
	u0 := e.now()
	s := e.cur
	blk := &s.blk
	aBuf := e.packA[s.aSlot]
	// Units start on register-panel boundaries, and the packed A panels lay
	// out panel after panel (pack strips are mr-aligned), so a unit's A
	// panels begin at its first row times the depth; bPanels does the same
	// for B, from the pack slot or the resident image.
	r0 := ui * blk.unit
	rows := min(blk.unit, blk.mEff-r0)
	ap := aBuf[r0*blk.kEff : r0*blk.kEff+packing.PackedASize(rows, blk.kEff, e.cfg.MR)]
	packing.Macro(e.kern, blk.kEff, ap, e.bPanels(s), e.blockRows(r0, rows), e.scratch[worker])
	e.span(worker, obs.PhaseCompute, blk.coord, u0, 0)
}

// finishPack accounts a packed stage's pack/reuse/overlap statistics. A
// pack that rode a block's compute fork is timed by its units' stamps:
// computeStart/computeEnd (ns since e.epoch) bound that block's compute
// units, the window the pack could overlap with, and the pack's tail past
// computeEnd moves from the fork's ComputeNanos to PackNanos. A pack on the
// caller's own fork (computeEnd 0) is timed by the caller's block clock.
func (e *Executor[T]) finishPack(s *pipeStage, st *Stats, computeStart, computeEnd int64) {
	aElems := int64(s.blk.mEff) * int64(s.blk.kEff)
	bElems := int64(s.blk.kEff) * int64(s.blk.nEff)
	if s.packedA {
		st.PackedAElems += aElems
	} else {
		st.ReusedAElems += aElems
		e.reuseEvent(s.blk.coord, aElems)
	}
	switch {
	case s.packedB:
		st.PackedBElems += bElems
	case e.resB != nil:
		st.ResidentBElems += bElems
		e.reuseEvent(s.blk.coord, bElems)
	default:
		st.ReusedBElems += bElems
		e.reuseEvent(s.blk.coord, bElems)
	}
	start, done := s.startNs.Load(), s.doneNs.Load()
	if computeEnd == 0 || start == 0 || done <= start {
		return
	}
	st.PackNanos += done - start
	st.OverlapNanos += max(0, min(done, computeEnd)-max(start, computeStart))
	st.ComputeNanos -= max(0, done-max(start, computeEnd))
}

// reuseEvent records a panel-cache hit as an instant event on the
// recorder's scheduler lane; bytes is the DRAM traffic the hit avoided.
func (e *Executor[T]) reuseEvent(blk obs.Block, elems int64) {
	if e.rec == nil {
		return
	}
	e.rec.Record(e.rec.SchedulerLane(), obs.Span{
		StartNs: time.Now().UnixNano(),
		Bytes:   elems * e.elemBytes, Block: blk, Phase: obs.PhaseReuse,
	})
}

// runBlocks executes the call's block schedule, e.seq, the one block loop
// of both modes. Pipelined it is a software pipeline: the prologue packs
// block 0 on its own fork, then block i's compute fork also packs block
// i+1 (see computeStage). Sync mode packs each block on its own fork just
// before computing it. C-block management (zero at run start, unpack at
// run end) runs on forks of its own either way — it is cheap, and the
// resident partial-C buffer is shared by every block of a K run so it
// cannot ping-pong.
func (e *Executor[T]) runBlocks(st *Stats, m, k, n int) {
	seq := e.seq
	e.invalidateSlots()
	// One monotonic clock read per phase boundary (see sinceEpoch). Pack
	// time on the caller runs from the block's start — its slot claims and
	// any pack fork of its own — to the compute start, so it holds that
	// pack and the C zeroing; the unpack adds its own window.
	for i := range seq {
		cur := &e.stages[i%2]
		t0 := e.sinceEpoch()
		if i == 0 || !e.pipeline {
			e.spanFor(&cur.blk, seq, i, m, k, n)
			e.claimPanels(cur, -1, -1)
			e.packing = cur
			e.fork(e.packCtx, cur.units, e.packJob)
			e.finishPack(cur, st, 0, 0)
		}
		blk := &cur.blk
		var next *pipeStage
		if e.pipeline && i+1 < len(seq) {
			next = &e.stages[(i+1)%2]
			e.spanFor(&next.blk, seq, i+1, m, k, n)
			e.claimPanels(next, cur.aSlot, cur.bSlot)
		}
		e.cBlock = matrix.Matrix[T]{Rows: blk.mEff, Cols: blk.nEff, Stride: blk.nEff, Data: e.bufC[:blk.mEff*blk.nEff]}
		if blk.runStart {
			e.fork(e.moveCtx, e.rowChunks(blk.mEff), e.zeroJob)
		}
		c0 := e.sinceEpoch()
		st.PackNanos += c0 - t0
		e.computeStage(cur, next)
		cEnd := e.sinceEpoch()
		st.ComputeNanos += cEnd - c0
		if next != nil {
			e.finishPack(next, st, c0, e.computedNs.Load())
		}
		if blk.runEnd {
			e.fork(e.moveCtx, e.rowChunks(blk.mEff), e.unpackJob)
			st.PackNanos += e.sinceEpoch() - cEnd
			st.UnpackCElems += int64(blk.mEff) * int64(blk.nEff)
		}
	}
}

// zeroItem clears row chunk ch of the computing block's C buffer at the
// start of a K run. The buffer is local memory, so no spans are recorded —
// only the pprof label marks the time.
func (e *Executor[T]) zeroItem(_, ch int) {
	r0, rows := chunkSpan(ch, e.rowChunks(e.cBlock.Rows), e.cBlock.Rows)
	e.blockRows(r0, rows).Zero()
}

// blockRows returns rows [r0, r0+rows) of the computing block's C buffer.
// The buffer is compact (stride = columns), so the band is one contiguous
// run and, unlike View, needs no clipping.
func (e *Executor[T]) blockRows(r0, rows int) *matrix.Matrix[T] {
	cols := e.cBlock.Cols
	return &matrix.Matrix[T]{Rows: rows, Cols: cols, Stride: cols, Data: e.cBlock.Data[r0*cols : (r0+rows)*cols]}
}

// unpackItem folds row chunk ch of the completed block's C buffer into the
// call's output — a read-modify-write of the DRAM-resident C region,
// recorded as an unpack span carrying 2× the chunk's bytes.
func (e *Executor[T]) unpackItem(worker, ch int) {
	u0 := e.now()
	blk := &e.cur.blk
	r0, rows := chunkSpan(ch, e.rowChunks(blk.mEff), blk.mEff)
	packing.AddInto(e.c.View(blk.m0+r0, blk.n0, rows, blk.nEff), e.blockRows(r0, rows))
	e.span(worker, obs.PhaseUnpack, blk.coord, u0, 2*int64(rows)*int64(blk.nEff)*e.elemBytes)
}

// The block loop: one K-first block schedule over one set of packed panels,
// run in one of two modes. The constant-bandwidth story of Sections 3–4
// says compute should fully overlap the memory stream; a synchronous
// executor instead alternates pack → barrier → compute → barrier, idling
// cores during packing and the memory system during compute. Pipelined, the
// loop is a software pipeline: while block i computes out of one set of
// packing buffers, the pack job for block i+1 is already running into
// another set (prologue pack, steady-state overlap, epilogue drain). On top
// of the ping-pong, each buffer slot remembers which logical panel it holds,
// so when consecutive blocks share an IO surface — the B panel across an M
// step, the A panel across an N step, exactly the reuses Algorithm 2's snake
// traversal engineers — the repack is skipped outright and counted in
// Stats.ReusedAElems/ReusedBElems. Sync mode (WithPipeline(false)) runs the
// same loop with neither: each block is packed afresh on the caller, then
// computed — the no-reuse baseline of the §5.2.1 packing-overhead study.
package core

import (
	"sync/atomic"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/packing"
	"repro/internal/pool"
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

func aKeyFor(b blockSpan) panelKey { return panelKey{b.m0, b.mEff, b.k0, b.kEff, true} }
func bKeyFor(b blockSpan) panelKey { return panelKey{b.k0, b.kEff, b.n0, b.nEff, true} }

// blockSpan is one scheduled CB block resolved to element coordinates.
type blockSpan struct {
	m0, mEff, k0, kEff, n0, nEff int
	runStart, runEnd             bool
	coord                        obs.Block // grid coordinates, for span recording
}

func (e *Executor[T]) spanFor(seq []schedule.Coord, i, m, k, n int) blockSpan {
	bm, bk, bn := e.cfg.BlockDims()
	cur := seq[i]
	var b blockSpan
	b.m0, b.mEff = span(cur.M, bm, m)
	b.k0, b.kEff = span(cur.K, bk, k)
	b.n0, b.nEff = span(cur.N, bn, n)
	b.runStart = i == 0 || seq[i-1].M != cur.M || seq[i-1].N != cur.N
	b.runEnd = i == len(seq)-1 || seq[i+1].M != cur.M || seq[i+1].N != cur.N
	b.coord = obs.Block{M: int32(cur.M), K: int32(cur.K), N: int32(cur.N)}
	return b
}

// pipeStage is one block in flight through the pipeline: which slots hold
// its packed panels, whether each panel was freshly packed or reused, the
// outstanding pack job, and timestamps for the overlap accounting.
type pipeStage struct {
	blk              blockSpan
	aSlot, bSlot     int
	packedA, packedB bool // false → panel reused, no pack ran
	handle           *pool.Handle
	pending          atomic.Int32
	startNs          atomic.Int64 // first pack unit to start (0 = none yet)
	doneNs           atomic.Int64 // last pack unit to finish
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
		for s := range e.aKeys {
			e.aKeys[s] = panelKey{}
			e.aTick[s] = 0
		}
	}
	if !e.keepB {
		for s := range e.bKeys {
			e.bKeys[s] = panelKey{}
			e.bTick[s] = 0
		}
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

// submitPack claims buffer slots for blk and packs whichever panels are not
// already resident. busyA/busyB are the slots of the stage currently
// computing (-1 when none is). With async the pack job is enqueued and left
// running (the lookahead pack), its units claimed dynamically so fast
// workers absorb ragged unit costs; otherwise the units run to completion
// on the caller's static job before submitPack returns. Sync mode claims
// with the invalid key, which never matches a slot, so it packs every panel
// of every block.
//
// The profiles attribute the pack closure's time here, but the stage header
// and job closure allocate once per CB block and amortize over the block's
// mc·kc·nc compute, so the hotpathalloc allocation ban does not apply — the
// per-element work lives in packAUnit/packBUnit and the packing package.
//
//cake:hotpath-exempt per-block stage+closure alloc, amortized over block compute
func (e *Executor[T]) submitPack(a, b *matrix.Matrix[T], blk blockSpan, busyA, busyB int, async bool) *pipeStage {
	s := &pipeStage{blk: blk}
	aKey, bKey := aKeyFor(blk), bKeyFor(blk)
	if !e.pipeline {
		aKey, bKey = panelKey{}, panelKey{}
	}
	var reusedA, reusedB bool
	s.aSlot, reusedA = claimSlot(e.aKeys, e.aTick, &e.clock, aKey, busyA)
	s.packedA = !reusedA
	// Resident calls hold no B slot at all: every block's panels come from
	// the store, so the slot ring, its keys and the pack units stay untouched
	// on the B side (compute substitutes the resident cell, see computeStage).
	s.bSlot = -1
	if e.resB == nil {
		s.bSlot, reusedB = claimSlot(e.bKeys, e.bTick, &e.clock, bKey, busyB)
		s.packedB = !reusedB
	}

	aUnits, bUnits := 0, 0
	if s.packedA {
		aUnits = e.packAUnits(blk)
	}
	if s.packedB {
		bUnits = e.packBUnits(blk)
	}
	total := aUnits + bUnits
	if total == 0 {
		return s
	}
	s.pending.Store(int32(total))
	aBuf := e.packA[s.aSlot]
	var bBuf []T
	if s.bSlot >= 0 {
		bBuf = e.packB[s.bSlot]
	}
	unit := func(worker, u int) {
		u0 := e.now()
		s.startNs.CompareAndSwap(0, time.Now().UnixNano())
		var elems int64
		if u < aUnits {
			elems = e.packAUnit(aBuf, a, blk, u)
		} else {
			elems = e.packBUnit(bBuf, b, blk, u-aUnits)
		}
		e.span(worker, obs.PhasePack, blk.coord, u0, elems*e.elemBytes)
		if s.pending.Add(-1) == 0 {
			s.doneNs.Store(time.Now().UnixNano())
		}
	}
	if async {
		s.handle = e.pool.SubmitLabeled(e.packCtx, e.width, total, unit)
	} else {
		e.forStatic(e.packCtx, total, unit)
	}
	return s
}

// packAUnits returns how many parallel units pack the block's A panel.
func (e *Executor[T]) packAUnits(blk blockSpan) int {
	switch e.cfg.Dim {
	case DimN:
		return ceilDiv(blk.mEff, e.cfg.stripRows(blk.mEff)) // one unit per core strip
	case DimM:
		return min(e.cfg.Cores, ceilDiv(blk.mEff, e.cfg.MR)) // shared panel, chunked
	default: // DimK
		return ceilDiv(blk.kEff, e.cfg.KC) // one unit per kc-deep slice
	}
}

// packAUnit packs unit u of the block's A panel into dst at the offsets
// computeStage reads, so units may run in any order on any worker. Returns
// the elements moved, for span accounting.
func (e *Executor[T]) packAUnit(dst []T, a *matrix.Matrix[T], blk blockSpan, u int) int64 {
	switch e.cfg.Dim {
	case DimN:
		mc := e.cfg.stripRows(blk.mEff)
		r0 := u * mc
		rows := min(mc, blk.mEff-r0)
		e.packASlice(dst[r0*blk.kEff:], a, blk.m0+r0, rows, blk.k0, blk.kEff)
		return int64(rows) * int64(blk.kEff)
	case DimM:
		mr := e.cfg.MR
		panels := ceilDiv(blk.mEff, mr)
		perChunk := ceilDiv(panels, min(e.cfg.Cores, panels))
		p0 := u * perChunk
		pn := min(perChunk, panels-p0)
		if pn <= 0 {
			return 0
		}
		r0 := p0 * mr
		rows := min(pn*mr, blk.mEff-r0)
		e.packASlice(dst[r0*blk.kEff:], a, blk.m0+r0, rows, blk.k0, blk.kEff)
		return int64(rows) * int64(blk.kEff)
	default: // DimK
		kc := e.cfg.KC
		aSlice := packing.PackedASize(blk.mEff, kc, e.cfg.MR)
		kk0 := u * kc
		depth := min(kc, blk.kEff-kk0)
		e.packASlice(dst[u*aSlice:], a, blk.m0, blk.mEff, blk.k0+kk0, depth)
		return int64(blk.mEff) * int64(depth)
	}
}

// packBUnits returns how many parallel units pack the block's B panel.
func (e *Executor[T]) packBUnits(blk blockSpan) int {
	switch e.cfg.Dim {
	case DimN:
		return min(e.cfg.Cores, ceilDiv(blk.nEff, e.cfg.NR)) // shared panel, chunked
	case DimM:
		return ceilDiv(blk.nEff, e.cfg.MC) // one unit per core strip (nc = mc)
	default: // DimK
		return ceilDiv(blk.kEff, e.cfg.KC)
	}
}

// packBUnit packs unit u of the block's B panel into dst. Returns the
// elements moved, for span accounting.
func (e *Executor[T]) packBUnit(dst []T, b *matrix.Matrix[T], blk blockSpan, u int) int64 {
	switch e.cfg.Dim {
	case DimN:
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
		e.packBSlice(dst[c0*blk.kEff:], b, blk.k0, blk.kEff, blk.n0+c0, cols)
		return int64(blk.kEff) * int64(cols)
	case DimM:
		c0 := u * e.cfg.MC
		cols := min(e.cfg.MC, blk.nEff-c0)
		e.packBSlice(dst[c0*blk.kEff:], b, blk.k0, blk.kEff, blk.n0+c0, cols)
		return int64(blk.kEff) * int64(cols)
	default: // DimK
		kc := e.cfg.KC
		bSlice := packing.PackedBSize(kc, blk.nEff, e.cfg.NR)
		kk0 := u * kc
		depth := min(kc, blk.kEff-kk0)
		e.packBSlice(dst[u*bSlice:], b, blk.k0+kk0, depth, blk.n0, blk.nEff)
		return int64(depth) * int64(blk.nEff)
	}
}

// computeStage runs the block's macro-kernels out of the stage's packed
// slots. The strip decomposition and accumulation order depend only on the
// config — never on the mode, the width, which worker runs a strip or which
// slot (or resident cell) holds a panel — so every mode's results are
// bit-identical.
func (e *Executor[T]) computeStage(s *pipeStage, cBlock *matrix.Matrix[T]) {
	blk := s.blk
	aBuf := e.packA[s.aSlot]
	bBuf := e.residentCell(blk.coord)
	if bBuf == nil {
		bBuf = e.packB[s.bSlot]
	}
	switch e.cfg.Dim {
	case DimN:
		mc := e.cfg.stripRows(blk.mEff)
		strips := ceilDiv(blk.mEff, mc)
		bp := bBuf[:packing.PackedBSize(blk.kEff, blk.nEff, e.cfg.NR)]
		e.forStatic(e.computeCtx, strips, func(core, si int) {
			u0 := e.now()
			r0 := si * mc
			rows := min(mc, blk.mEff-r0)
			ap := aBuf[r0*blk.kEff : r0*blk.kEff+packing.PackedASize(rows, blk.kEff, e.cfg.MR)]
			packing.Macro(e.kern, blk.kEff, ap, bp, cBlock.View(r0, 0, rows, blk.nEff), e.scratch[core])
			e.span(core, obs.PhaseCompute, blk.coord, u0, 0)
		})
	case DimM:
		nc := e.cfg.MC // square per-core block: nc = mc
		strips := ceilDiv(blk.nEff, nc)
		ap := aBuf[:packing.PackedASize(blk.mEff, blk.kEff, e.cfg.MR)]
		e.forStatic(e.computeCtx, strips, func(core, si int) {
			u0 := e.now()
			c0 := si * nc
			cols := min(nc, blk.nEff-c0)
			bp := bBuf[c0*blk.kEff : c0*blk.kEff+packing.PackedBSize(blk.kEff, cols, e.cfg.NR)]
			packing.Macro(e.kern, blk.kEff, ap, bp, cBlock.View(0, c0, blk.mEff, cols), e.scratch[core])
			e.span(core, obs.PhaseCompute, blk.coord, u0, 0)
		})
	default: // DimK
		kc := e.cfg.KC
		strips := ceilDiv(blk.kEff, kc)
		aSlice := packing.PackedASize(blk.mEff, kc, e.cfg.MR)
		bSlice := packing.PackedBSize(kc, blk.nEff, e.cfg.NR)
		e.forStatic(e.computeCtx, strips, func(core, si int) {
			u0 := e.now()
			kk0 := si * kc
			depth := min(kc, blk.kEff-kk0)
			ap := aBuf[si*aSlice : si*aSlice+packing.PackedASize(blk.mEff, depth, e.cfg.MR)]
			bp := bBuf[si*bSlice : si*bSlice+packing.PackedBSize(depth, blk.nEff, e.cfg.NR)]
			part := matrix.FromSlice(blk.mEff, blk.nEff, e.partials[si][:blk.mEff*blk.nEff])
			part.Zero()
			packing.Macro(e.kern, depth, ap, bp, part, e.scratch[core])
			e.span(core, obs.PhaseCompute, blk.coord, u0, 0)
		})
		// Reduce private partials into the resident C block in strip order
		// (partials[si] holds slice si, whichever worker computed it).
		chunks := e.rowChunks(blk.mEff)
		e.forStatic(nil, chunks, func(_, ch int) {
			r0, rows := chunkSpan(ch, chunks, blk.mEff)
			for si := 0; si < strips; si++ {
				src := matrix.FromSlice(blk.mEff, blk.nEff, e.partials[si][:blk.mEff*blk.nEff])
				packing.AddInto(cBlock.View(r0, 0, rows, blk.nEff), src.View(r0, 0, rows, blk.nEff))
			}
		})
	}
}

// finishPack drains a stage's outstanding pack job and accounts its
// pack/reuse/overlap statistics. computeStart/computeEnd (UnixNano) bound
// the compute window the pack could overlap with; both zero for the
// prologue pack, which by construction overlaps nothing.
func (e *Executor[T]) finishPack(s *pipeStage, st *Stats, computeStart, computeEnd int64) {
	s.handle.Wait()
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
	if start > 0 && done > start {
		st.PackNanos += done - start
		if computeEnd > computeStart {
			if ov := min(done, computeEnd) - max(start, computeStart); ov > 0 {
				st.OverlapNanos += ov
			}
		}
	}
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

// runBlocks executes the block schedule, the one block loop of both modes.
// With lookahead it is a software pipeline: prologue pack of block 0,
// steady state where block i computes while block i+1 packs, epilogue drain
// of the final pack before its compute. Without it each block is packed just
// in time on the caller, then computed. C-block management (zero at run
// start, unpack at run end) stays on the caller either way — it is cheap,
// and the resident partial-C buffer is shared by every block of a K run so
// it cannot ping-pong.
func (e *Executor[T]) runBlocks(c, a, b *matrix.Matrix[T], seq []schedule.Coord, st *Stats, m, k, n int) {
	e.invalidateSlots()
	// Lookahead packing only pays when another worker can run the pack while
	// this block computes. On a single-worker pool the FIFO queue would run
	// the whole next-block pack *before* the current compute, evicting the
	// panels compute is about to read; pack just in time there and keep only
	// the panel-reuse layer, which is where the single-core win lives.
	lookahead := e.pipeline && e.pool.Workers() > 1
	var cur, next *pipeStage
	// A panic re-raised by this block's compute must not unwind past the
	// next block's pack job: its submit helper may still be sending to the
	// pool, and the pool may be closed as soon as the panic reaches the
	// caller. next is nil again by the time the schedule completes.
	defer func() {
		if next != nil {
			next.handle.Wait()
		}
	}()
	for i := range seq {
		if cur == nil {
			cur = e.submitPack(a, b, e.spanFor(seq, i, m, k, n), -1, -1, lookahead)
			e.finishPack(cur, st, 0, 0)
		}
		blk := cur.blk
		next = nil
		if lookahead && i+1 < len(seq) {
			next = e.submitPack(a, b, e.spanFor(seq, i+1, m, k, n), cur.aSlot, cur.bSlot, true)
		}
		cBlock := matrix.FromSlice(blk.mEff, blk.nEff, e.bufC[:blk.mEff*blk.nEff])
		if blk.runStart {
			t0 := time.Now()
			e.zeroBlock(cBlock)
			st.PackNanos += time.Since(t0).Nanoseconds()
		}
		c0 := time.Now()
		e.computeStage(cur, cBlock)
		st.ComputeNanos += time.Since(c0).Nanoseconds()
		cEnd := time.Now()
		if blk.runEnd {
			t0 := time.Now()
			e.unpack(c.View(blk.m0, blk.n0, blk.mEff, blk.nEff), cBlock, blk.coord)
			st.PackNanos += time.Since(t0).Nanoseconds()
			st.UnpackCElems += int64(blk.mEff) * int64(blk.nEff)
		}
		if next != nil {
			e.finishPack(next, st, c0.UnixNano(), cEnd.UnixNano())
		}
		cur = next
	}
}

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

func aKeyFor(b *blockSpan) panelKey { return panelKey{b.m0, b.mEff, b.k0, b.kEff, true} }
func bKeyFor(b *blockSpan) panelKey { return panelKey{b.k0, b.kEff, b.n0, b.nEff, true} }

// blockSpan is one scheduled CB block resolved to element coordinates and
// its per-core compute strips: strips strips of extent strip along the
// config's compute dimension (DimN rows, DimM columns, DimK depth).
type blockSpan struct {
	m0, mEff, k0, kEff, n0, nEff int
	strip, strips                int
	runStart, runEnd             bool
	coord                        obs.Block // grid coordinates, for span recording
}

// spanFor resolves block i of seq for an m×k×n call into b.
func (e *Executor[T]) spanFor(b *blockSpan, seq []schedule.Coord, i, m, k, n int) {
	cur := seq[i]
	b.m0, b.mEff = span(cur.M, e.bm, m)
	b.k0, b.kEff = span(cur.K, e.bk, k)
	b.n0, b.nEff = span(cur.N, e.bn, n)
	switch e.cfg.Dim {
	case DimN:
		b.strip = e.cfg.stripRows(b.mEff)
		b.strips = ceilDiv(b.mEff, b.strip)
	case DimM:
		b.strip = e.cfg.MC // square per-core block: nc = mc
		b.strips = ceilDiv(b.nEff, b.strip)
	default: // DimK
		b.strip = e.cfg.KC
		b.strips = ceilDiv(b.kEff, b.strip)
	}
	b.runStart = i == 0 || seq[i-1].M != cur.M || seq[i-1].N != cur.N
	b.runEnd = i == len(seq)-1 || seq[i+1].M != cur.M || seq[i+1].N != cur.N
	b.coord = obs.Block{M: int32(cur.M), K: int32(cur.K), N: int32(cur.N)}
}

// pipeStage is one block in flight through the pipeline: which slots hold
// its packed panels, whether each panel was freshly packed or reused, the
// outstanding pack job, and timestamps for the overlap accounting. The
// executor keeps a ring of two — the block computing and the block packing
// behind it — so a call allocates no stages.
type pipeStage struct {
	blk              blockSpan
	aSlot, bSlot     int
	packedA, packedB bool // false → panel reused, no pack ran
	aUnits           int  // pack units [0, aUnits) pack A, the rest B
	async            bool // pack job runs on the pool (lookahead), timed by its units
	handle           pool.Handle
	pending          atomic.Int32
	startNs          atomic.Int64 // first pack unit to start, ns since e.epoch (0 = none yet)
	doneNs           atomic.Int64 // last pack unit to finish, ns since e.epoch
	// unit packs unit u of this stage; built once per stage, so submitting
	// the pack job allocates no closure.
	unit func(worker, u int)
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

// submitPack claims buffer slots for stage s's block and packs whichever
// panels are not already resident. busyA/busyB are the slots of the stage
// currently computing (-1 when none is). With async the pack job is
// enqueued and left running (the lookahead pack), its units claimed
// dynamically so fast workers absorb ragged unit costs, and its units time
// it; otherwise the units run to completion on the caller's static job
// before submitPack returns, timed by the caller's block clock (see
// runBlocks). Sync mode claims with the invalid key, which never matches a
// slot, so it packs every panel of every block.
//
//cake:hotpath-exempt per-block job submission; the per-element work lives in packAUnit/packBUnit and the packing package
func (e *Executor[T]) submitPack(s *pipeStage, busyA, busyB int, async bool) {
	blk := &s.blk
	s.async, s.handle = async, pool.Handle{}
	if async {
		s.startNs.Store(0)
		s.doneNs.Store(0)
	}
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
		s.aUnits = e.packAUnits(blk)
	}
	total := s.aUnits
	if s.packedB {
		total += e.packBUnits(blk)
	}
	if total == 0 {
		return
	}
	if async {
		s.pending.Store(int32(total))
		s.handle = e.pool.SubmitLabeled(e.packCtx, e.width, total, s.unit)
	} else {
		e.forStatic(e.packCtx, total, s.unit)
	}
}

// packUnit packs unit u of stage s from the call's operands. Units of an
// async stage stamp the job's first start and last finish.
func (e *Executor[T]) packUnit(s *pipeStage, worker, u int) {
	u0 := e.now()
	if s.async && s.startNs.Load() == 0 {
		s.startNs.CompareAndSwap(0, e.sinceEpoch())
	}
	var elems int64
	if u < s.aUnits {
		elems = e.packAUnit(e.packA[s.aSlot], e.a, &s.blk, u)
	} else {
		elems = e.packBUnit(e.packB[s.bSlot], e.b, &s.blk, u-s.aUnits)
	}
	e.span(worker, obs.PhasePack, s.blk.coord, u0, elems*e.elemBytes)
	if s.async && s.pending.Add(-1) == 0 {
		s.doneNs.Store(e.sinceEpoch())
	}
}

// packAUnits returns how many parallel units pack the block's A panel.
func (e *Executor[T]) packAUnits(blk *blockSpan) int {
	if e.cfg.Dim == DimM {
		return min(e.cfg.Cores, ceilDiv(blk.mEff, e.cfg.MR)) // shared panel, chunked
	}
	return blk.strips // one unit per core strip (DimN) or kc-deep slice (DimK)
}

// packAUnit packs unit u of the block's A panel into dst at the offsets
// computeStage reads, so units may run in any order on any worker. Returns
// the elements moved, for span accounting.
func (e *Executor[T]) packAUnit(dst []T, a *matrix.Matrix[T], blk *blockSpan, u int) int64 {
	switch e.cfg.Dim {
	case DimN:
		r0 := u * blk.strip
		rows := min(blk.strip, blk.mEff-r0)
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
func (e *Executor[T]) packBUnits(blk *blockSpan) int {
	if e.cfg.Dim == DimN {
		return min(e.cfg.Cores, ceilDiv(blk.nEff, e.cfg.NR)) // shared panel, chunked
	}
	return blk.strips // one unit per core strip (DimM, nc = mc) or kc-deep slice (DimK)
}

// packBUnit packs unit u of the block's B panel into dst. Returns the
// elements moved, for span accounting.
func (e *Executor[T]) packBUnit(dst []T, b *matrix.Matrix[T], blk *blockSpan, u int) int64 {
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
// slots into the block's C buffer, e.cBlock. The strip decomposition and
// accumulation order depend only on the config — never on the mode, the
// width, which worker runs a strip or which slot (or resident cell) holds a
// panel — so every mode's results are bit-identical.
func (e *Executor[T]) computeStage(s *pipeStage) {
	e.cur = s
	e.forStatic(e.computeCtx, s.blk.strips, e.computeJob)
	if e.cfg.Dim == DimK {
		// Reduce private partials into the resident C block in strip order
		// (partials[si] holds slice si, whichever worker computed it).
		e.forStatic(nil, e.rowChunks(s.blk.mEff), e.reduceJob)
	}
}

// computeItem runs strip si of the computing block (e.cur) on core.
func (e *Executor[T]) computeItem(core, si int) {
	u0 := e.now()
	s := e.cur
	blk := &s.blk
	aBuf := e.packA[s.aSlot]
	bBuf := e.residentCell(blk.coord)
	if bBuf == nil {
		bBuf = e.packB[s.bSlot]
	}
	switch e.cfg.Dim {
	case DimN:
		r0 := si * blk.strip
		rows := min(blk.strip, blk.mEff-r0)
		ap := aBuf[r0*blk.kEff : r0*blk.kEff+packing.PackedASize(rows, blk.kEff, e.cfg.MR)]
		bp := bBuf[:packing.PackedBSize(blk.kEff, blk.nEff, e.cfg.NR)]
		packing.Macro(e.kern, blk.kEff, ap, bp, e.blockRows(r0, rows), e.scratch[core])
	case DimM:
		c0 := si * blk.strip
		cols := min(blk.strip, blk.nEff-c0)
		ap := aBuf[:packing.PackedASize(blk.mEff, blk.kEff, e.cfg.MR)]
		bp := bBuf[c0*blk.kEff : c0*blk.kEff+packing.PackedBSize(blk.kEff, cols, e.cfg.NR)]
		packing.Macro(e.kern, blk.kEff, ap, bp, e.cBlock.View(0, c0, blk.mEff, cols), e.scratch[core])
	default: // DimK
		aSlice := packing.PackedASize(blk.mEff, blk.strip, e.cfg.MR)
		bSlice := packing.PackedBSize(blk.strip, blk.nEff, e.cfg.NR)
		depth := min(blk.strip, blk.kEff-si*blk.strip)
		ap := aBuf[si*aSlice : si*aSlice+packing.PackedASize(blk.mEff, depth, e.cfg.MR)]
		bp := bBuf[si*bSlice : si*bSlice+packing.PackedBSize(depth, blk.nEff, e.cfg.NR)]
		part := matrix.FromSlice(blk.mEff, blk.nEff, e.partials[si][:blk.mEff*blk.nEff])
		part.Zero()
		packing.Macro(e.kern, depth, ap, bp, part, e.scratch[core])
	}
	e.span(core, obs.PhaseCompute, blk.coord, u0, 0)
}

// reduceItem adds every DimK partial, in strip order, into row chunk ch of
// the computing block's C buffer.
func (e *Executor[T]) reduceItem(_, ch int) {
	blk := &e.cur.blk
	r0, rows := chunkSpan(ch, e.rowChunks(blk.mEff), blk.mEff)
	dst := e.blockRows(r0, rows)
	for si := 0; si < blk.strips; si++ {
		src := matrix.FromSlice(blk.mEff, blk.nEff, e.partials[si][:blk.mEff*blk.nEff])
		packing.AddInto(dst, src.View(r0, 0, rows, blk.nEff))
	}
}

// finishPack drains a stage's outstanding pack job and accounts its
// pack/reuse/overlap statistics; an async stage's pack time comes from its
// units' stamps. computeStart/computeEnd (ns since e.epoch) bound the compute
// window the pack could overlap with; both zero for the prologue pack,
// which by construction overlaps nothing.
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
	if !s.async {
		return // timed by the caller's block clock
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

// runBlocks executes the call's block schedule, e.seq, the one block loop
// of both modes. With lookahead it is a software pipeline: prologue pack of
// block 0, steady state where block i computes while block i+1 packs,
// epilogue drain of the final pack before its compute. Without it each
// block is packed just in time on the caller, then computed. C-block
// management (zero at run start, unpack at run end) stays on the caller
// either way — it is cheap, and the resident partial-C buffer is shared by
// every block of a K run so it cannot ping-pong.
func (e *Executor[T]) runBlocks(st *Stats, m, k, n int) {
	seq := e.seq
	e.invalidateSlots()
	// Lookahead packing only pays when another worker can run the pack while
	// this block computes, and there is a next block to pack. On a
	// single-worker pool the FIFO queue would run the whole next-block pack
	// *before* the current compute, evicting the panels compute is about to
	// read; pack just in time there and keep only the panel-reuse layer,
	// which is where the single-core win lives. A one-block schedule has
	// nothing to overlap: its pack runs on the caller's width, never on a
	// worker the caller was not granted.
	lookahead := e.pipeline && e.pool.Workers() > 1 && len(seq) > 1
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
	// One monotonic clock read per phase boundary (see sinceEpoch). Pack
	// time on the caller runs from a just-in-time pack's slot claim and
	// dispatch, or else from after next's submission, to the compute start,
	// so it holds the pack and the C zeroing; the unpack adds its own
	// window. The compute window bounds the overlap of next's pack.
	for i := range seq {
		t0 := int64(-1)
		if cur == nil {
			cur = &e.stages[i%2]
			e.spanFor(&cur.blk, seq, i, m, k, n)
			if !lookahead {
				t0 = e.sinceEpoch() // an async prologue pack is timed by its units
			}
			e.submitPack(cur, -1, -1, lookahead)
			e.finishPack(cur, st, 0, 0)
		}
		blk := &cur.blk
		next = nil
		if lookahead && i+1 < len(seq) {
			next = &e.stages[(i+1)%2]
			e.spanFor(&next.blk, seq, i+1, m, k, n)
			e.submitPack(next, cur.aSlot, cur.bSlot, true)
		}
		if t0 < 0 {
			t0 = e.sinceEpoch()
		}
		e.cBlock = matrix.Matrix[T]{Rows: blk.mEff, Cols: blk.nEff, Stride: blk.nEff, Data: e.bufC[:blk.mEff*blk.nEff]}
		if blk.runStart {
			e.forStatic(e.moveCtx, e.rowChunks(blk.mEff), e.zeroJob)
		}
		c0 := e.sinceEpoch()
		st.PackNanos += c0 - t0
		e.computeStage(cur)
		cEnd := e.sinceEpoch()
		st.ComputeNanos += cEnd - c0
		if blk.runEnd {
			e.forStatic(e.moveCtx, e.rowChunks(blk.mEff), e.unpackJob)
			st.PackNanos += e.sinceEpoch() - cEnd
			st.UnpackCElems += int64(blk.mEff) * int64(blk.nEff)
		}
		if next != nil {
			e.finishPack(next, st, c0, cEnd)
		}
		cur = next
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
func (e *Executor[T]) unpackItem(core, ch int) {
	u0 := e.now()
	blk := &e.cur.blk
	r0, rows := chunkSpan(ch, e.rowChunks(blk.mEff), blk.mEff)
	packing.AddInto(e.c.View(blk.m0+r0, blk.n0, rows, blk.nEff), e.blockRows(r0, rows))
	e.span(core, obs.PhaseUnpack, blk.coord, u0, 2*int64(rows)*int64(blk.nEff)*e.elemBytes)
}

package core

import (
	"repro/internal/obs"
	"repro/internal/schedule"
)

// Block is one CB block of a call's block program, resolved against the
// call's extents: its place in the schedule, the elements it covers, where
// its K run starts and ends, what it shares with the block before it, and
// how the executor splits it.
type Block struct {
	Coord            schedule.Coord // block-grid coordinates
	M0, K0, N0       int            // element offsets
	MEff, KEff, NEff int            // extents, clipped to the problem
	// RunStart and RunEnd mark the first and last block of a K run: the
	// partial-C surface is zeroed before the first and folded back into C
	// after the last (Figure 6).
	RunStart, RunEnd bool
	// SharesA and SharesB report that the previous block has the same A
	// (M, K) or B (K, N) surface, so a schedule that keeps it resident
	// fetches it once for both (Section 2.2).
	SharesA, SharesB bool
	// Active is how many cores the block's compute fork can keep busy:
	// min(Cores, compute units).
	Active int

	strip, strips int // per-core pack strips: strips strips of strip rows
	units         int // compute units of unitPanels register panels
}

// span returns b's grid coordinates as trace spans carry them.
func (b *Block) span() obs.Block {
	return obs.Block{M: int32(b.Coord.M), K: int32(b.Coord.K), N: int32(b.Coord.N)}
}

// Program is the block program of one m×k×n call: the CB block grid, the
// resolved schedule order and every block in Algorithm 2's K-first order.
// The executor runs it; PredictTraffic, the architecture simulator, the
// trace model and the grid machine walk it, so all of them see the blocks
// the executor runs.
type Program struct {
	Grid   schedule.Dims
	Order  schedule.Order
	Blocks []Block
	seq    []schedule.Coord
}

// Program returns the block program of an m×k×n call (all extents ≥ 1).
func (c Config) Program(m, k, n int) Program {
	var p Program
	p.resolve(c, m, k, n)
	return p
}

// resolve fills p with c's block program for an m×k×n call, reusing p's
// buffers, so an executor's warm calls allocate nothing.
func (p *Program) resolve(c Config, m, k, n int) {
	p.Order = c.Order
	if p.Order == OrderAuto {
		p.Order = schedule.OrderFor(m, n)
	}
	p.Grid = c.GridFor(m, k, n)
	p.seq = schedule.AppendKFirst(p.seq[:0], p.Grid, p.Order)
	seq := p.seq
	if cap(p.Blocks) < len(seq) {
		p.Blocks = make([]Block, len(seq))
	}
	p.Blocks = p.Blocks[:len(seq)]
	bm, bk, bn := c.BlockDims()
	unit := unitPanels * c.MR
	for i, cur := range seq {
		b := &p.Blocks[i]
		*b = Block{Coord: cur}
		b.M0, b.MEff = clip(cur.M, bm, m)
		b.K0, b.KEff = clip(cur.K, bk, k)
		b.N0, b.NEff = clip(cur.N, bn, n)
		if i > 0 {
			b.SharesA, b.SharesB, _ = schedule.Shared(seq[i-1], cur)
		}
		b.RunStart = i == 0 || seq[i-1].M != cur.M || seq[i-1].N != cur.N
		b.RunEnd = i == len(seq)-1 || seq[i+1].M != cur.M || seq[i+1].N != cur.N
		b.strip = c.stripRows(b.MEff)
		b.strips = ceilDiv(b.MEff, b.strip)
		b.units = ceilDiv(b.MEff, unit)
		b.Active = min(c.Cores, b.units)
	}
}

// clip returns the offset and clipped extent of block index idx.
func clip(idx, blockDim, total int) (off, eff int) {
	off = idx * blockDim
	return off, min(blockDim, total-off)
}

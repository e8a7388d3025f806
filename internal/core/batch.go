// Executor requests: one single-flight acquisition, N multiplications. The
// paper's motivating workload (Section 5: DNN inference) multiplies many
// activation matrices against few shared weight matrices; a per-call loop
// pays the executor's fixed costs — single-flight acquisition, buffer
// (re)growth, panel-key invalidation and, above this layer, engine admission
// and leasing — once per multiplication. Every executor GEMM is therefore a
// Batch run by Do (a single GEMM is a batch of one), which acquires the
// executor once and streams the calls through run(), with B packed per
// call, packed once for a batch sharing one B, or pre-packed and resident.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/matrix"
)

// ErrBatchShape is returned when the slices of a batched call disagree in
// length or the batch is empty.
var ErrBatchShape = errors.New("core: batch call slices must be non-empty and of equal length")

// Batch is one executor request: C[i] = α·op(A[i])×op(B[i]) + β·C[i] for
// every i, executed in order. B holds one matrix per call, or is nil when a
// resident operand passed to Do serves every call. Transposes and scalars
// are batch-uniform.
type Batch[T matrix.Scalar] struct {
	C, A, B        []*matrix.Matrix[T]
	TransA, TransB bool
	Alpha, Beta    T
	// Width is how many pool workers the batch may occupy at once — the
	// cores its caller holds. 0, or anything above Config.Cores, means
	// Config.Cores. Width decides only how many workers claim the compute
	// units: the block grid, the units and the K-first order are the
	// config's, so results are bit-identical at any width.
	Width int
}

// OpDims returns the logical extents of op(x): x's own, swapped when trans.
func OpDims[T matrix.Scalar](x *matrix.Matrix[T], trans bool) (rows, cols int) {
	if trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

// CheckDims validates one multiplication C = op(A)×B′ against the logical
// kb×n right operand B′ and returns its m and k. It is the dimension check
// every GEMM path runs.
func CheckDims[T matrix.Scalar](c, a *matrix.Matrix[T], transA bool, kb, n int) (m, k int, err error) {
	m, k = OpDims(a, transA)
	if k != kb || c.Rows != m || c.Cols != n {
		return 0, 0, fmt.Errorf("invalid GEMM dims C[%dx%d] = op(A)[%dx%d] x op(B)[%dx%d]",
			c.Rows, c.Cols, m, k, kb, n)
	}
	return m, k, nil
}

// CheckSources validates a batch's slice lengths and that its right operand
// comes from exactly one source: the per-call bs, or a shared resident
// operand (resident reports whether one is set).
func CheckSources[T matrix.Scalar](cs, as, bs []*matrix.Matrix[T], resident, transB bool) error {
	switch {
	case len(cs) == 0 || len(as) != len(cs) || bs != nil && len(bs) != len(cs):
		return fmt.Errorf("%w: len(C)=%d len(A)=%d len(B)=%d", ErrBatchShape, len(cs), len(as), len(bs))
	case (bs == nil) == !resident:
		return errors.New("core: batch needs exactly one B source: per-call B matrices or a resident operand")
	case resident && transB:
		return errors.New("core: TransB does not apply to a resident operand (its orientation is fixed when packed)")
	}
	return nil
}

// dims validates call i against its B source — b.B[i], or the resident
// operand rb — and returns the call's logical extents.
func (b *Batch[T]) dims(i int, rb *ResidentB[T]) (m, k, n int, err error) {
	var kb int
	if rb != nil {
		kb, n = rb.Dims()
	} else {
		kb, n = OpDims(b.B[i], b.TransB)
	}
	if m, k, err = CheckDims(b.C[i], b.A[i], b.TransA, kb, n); err != nil {
		return 0, 0, 0, fmt.Errorf("core: call %d: %w", i, err)
	}
	return m, k, n, nil
}

// Do runs every call of b under one single-flight acquisition: a concurrent
// caller sees ErrInUse exactly as for one long call, every call is
// validated before any C is touched, and results are bit-exact with running
// the calls one at a time. B comes from b.B or, when rb is non-nil, from
// that pre-packed resident operand: its orientation was fixed when it was
// packed, so b.TransB must be false, and it must stay alive (pinned) until
// Do returns. The resident operand is a separate argument so that Do keeps
// nothing of b, whose slices a caller may hold on its stack.
//
// When every call reuses the same B matrix (the DNN shared-weights case),
// the batch packs it once into the resident panel layout and serves all N
// calls from it: Stats.PackedBElems carries the one pack, ReusedBElems the
// N−1 elided ones. When an operand is shared only between adjacent calls,
// its packed panel keys survive into the next call instead
// (ReusedAElems/ReusedBElems count whatever the panel cache could hold
// onto). A resident operand is never packed; its traffic is ResidentBElems.
func (e *Executor[T]) Do(b Batch[T], rb *ResidentB[T]) (Stats, error) {
	if err := CheckSources(b.C, b.A, b.B, rb != nil, b.TransB); err != nil {
		return Stats{}, err
	}
	if rb != nil {
		if err := rb.CompatibleWith(e.cfg); err != nil {
			return Stats{}, err
		}
	}
	for i := range b.C {
		if _, _, _, err := b.dims(i, rb); err != nil {
			return Stats{}, err
		}
	}
	if !e.inUse.CompareAndSwap(false, true) {
		return Stats{}, ErrInUse
	}
	defer e.inUse.Store(false)

	// One B for the whole batch: the panel cache's few slots cannot hold a
	// multi-block operand across calls, so slot-key carrying alone degrades
	// to repacking every block. Pack the shared operand once into the
	// resident slab layout, in the executor's grow-only sharedB buffer —
	// the same panels the per-call pack would produce, so results stay
	// bit-exact — and serve all N calls from it. (With α = 0 the multiply
	// never reads B; skip the pack.)
	sharedB := rb == nil && len(b.C) > 1 && b.Alpha != 0
	for i := 1; sharedB && i < len(b.B); i++ {
		sharedB = b.B[i] == b.B[0]
	}
	var packNanos int64
	if sharedB {
		t0 := time.Now()
		if err := e.sharedB.pack(e.cfg, b.B[0], b.TransB); err != nil {
			return Stats{}, fmt.Errorf("core: batch shared-B pack: %w", err)
		}
		rb = &e.sharedB
		packNanos = time.Since(t0).Nanoseconds()
		b.B, b.TransB = nil, false
	}

	agg, err := e.loop(&b, rb)
	agg.BatchCalls = len(b.C)
	if rb != nil {
		agg.SharedBPacks = len(b.C) - 1
	}
	if sharedB {
		// Re-bucket the accounting to what physically happened: one real
		// pack (charged to the batch), N−1 packs elided by batch-local
		// reuse; "resident" stays reserved for cross-request residency.
		perCall := agg.ResidentBElems / int64(len(b.C))
		agg.PackedBElems += perCall
		agg.ReusedBElems += agg.ResidentBElems - perCall
		agg.ResidentBElems = 0
		agg.PackNanos += packNanos
	}
	return agg, err
}

// loop streams a validated batch through run() under the single-flight
// guard, with B from rb when set and from b.B otherwise.
func (e *Executor[T]) loop(b *Batch[T], rb *ResidentB[T]) (Stats, error) {
	e.transA, e.transB, e.alpha = b.TransA, b.TransB, b.Alpha
	e.width = b.Width
	if e.width < 1 || e.width > e.cfg.Cores {
		e.width = e.cfg.Cores
	}
	e.resB = rb
	defer func() {
		// Keep nothing of the caller's past the request: a leased executor
		// may sit in a cache long after it.
		e.resB, e.c, e.a, e.b, e.cur = nil, nil, nil, nil, nil
		e.keepA, e.keepB = false, false
	}()

	var agg Stats
	for i := range b.C {
		m, k, n, _ := b.dims(i, rb) // validated by Do
		// Panel keys are only meaningful against one operand set; carry an
		// operand's keys forward only when the next call reuses the *same*
		// matrix (identical pointer ⇒ identical packed bytes for identical
		// coordinates — transposes and α are batch-uniform). The resident
		// path holds no B slots, so only its A keys are worth carrying.
		e.keepA = i > 0 && b.A[i] == b.A[i-1]
		var bi *matrix.Matrix[T]
		if rb == nil {
			bi = b.B[i]
			e.keepB = i > 0 && bi == b.B[i-1]
			if e.keepB {
				agg.SharedBPacks++
			}
		}
		st, err := e.run(b.C[i], b.A[i], bi, m, k, n, b.Alpha, b.Beta)
		if err != nil {
			return agg, fmt.Errorf("core: batch call %d: %w", i, err)
		}
		agg.Add(st)
	}
	return agg, nil
}

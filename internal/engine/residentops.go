// Resident-operand serving: RegisterB packs a weight matrix once per
// distinct slab layout among the tiers the dispatcher might pick (tiers
// whose configs band B at the same KC, in the same NR panels and slab
// width, share one image), parks the image in the engine's refcounted LRU
// store (internal/engine/resident), and a Request naming the operand as its
// Resident B source serves activations against it with the pack bypass —
// the paper's DNN-inference motivation turned into an API. Registration
// pays the pack (including the transposed gather for weights stored as Bᵀ)
// exactly once per image; every serve call afterwards skips B packing on
// whichever tier it lands on.
package engine

import (
	"errors"
	"fmt"
	"strings"
	"unsafe"

	"repro/internal/core"
	"repro/internal/engine/resident"
	"repro/internal/matrix"
)

// Resident-store sentinel errors, re-exported so callers don't import the
// store package; match with errors.Is.
var (
	// ErrOperandExists rejects RegisterB of an id that is still registered.
	ErrOperandExists = resident.ErrExists
	// ErrOperandNotRegistered reports an id the engine has never held.
	ErrOperandNotRegistered = resident.ErrNotRegistered
	// ErrOperandEvicted reports an id lost to LRU eviction under the byte
	// budget; re-register to serve it again.
	ErrOperandEvicted = resident.ErrOperandEvicted
	// ErrOperandBudget rejects RegisterB of an operand that cannot fit the
	// byte budget even after evicting everything unpinned.
	ErrOperandBudget = resident.ErrBudget
	// ErrOperandType reports a resident request whose scalar type differs
	// from the one the id was registered with.
	ErrOperandType = errors.New("engine: resident operand registered with a different scalar type")
)

// DefaultResidentBudget bounds the resident store when Options leaves
// ResidentBudgetBytes zero: 256 MiB ≈ 64 f32 1024×1024 weight operands,
// comfortably a serving working set while still forcing LRU turnover on
// unbounded registration loops.
const DefaultResidentBudget int64 = 256 << 20

// residentOperand is one registered B, indexed by Tier: the packed image
// each tier that could serve it reads (nil where the tier never can).
// Tiers whose slab layouts agree point at one shared image. The large entry
// always exists (any problem can land there); the tiny and small ones exist
// iff the tier's cache arithmetic can ever select them for this operand —
// see mayLand — so a tier hit always finds its image present.
type residentOperand[T matrix.Scalar] [tierCount]*core.ResidentB[T]

// mayLand reports whether a problem whose B operand takes bBytes can ever
// land on tier t: TierFor's a+b+c ≤ L1 implies b ≤ L1, and its
// c+2(a+b) ≤ LLC implies 2b ≤ LLC.
func (e *Engine) mayLand(t Tier, bBytes int64) bool {
	switch t {
	case TierTiny:
		return bBytes <= e.pl.L1Bytes
	case TierSmall:
		return 2*bBytes <= e.pl.LLCBytes
	}
	return true
}

// RegisterB packs B (stored K×N) once per distinct slab layout among the
// engine's tiers and keeps it resident under the byte budget, evicting
// least-recently-used unpinned operands to fit. A live id fails with
// ErrOperandExists — ReleaseB first, then re-register.
func RegisterB[T matrix.Scalar](e *Engine, id string, b *matrix.Matrix[T]) error {
	return RegisterBT(e, id, b, false)
}

// RegisterBT is RegisterB for an operand in either storage order: when
// transB, b holds Bᵀ (N×K — how DNN weights usually ship). The packed panel
// layout is storage-order oblivious, so serving calls never pay the
// transpose gather; it happens here, once per image.
func RegisterBT[T matrix.Scalar](e *Engine, id string, b *matrix.Matrix[T], transB bool) error {
	if e.closedFast.Load() {
		return ErrClosed
	}
	k, n := core.OpDims(b, transB)
	elem := int(unsafe.Sizeof(*new(T)))
	bBytes := int64(k) * int64(n) * int64(elem)
	op := new(residentOperand[T])
	var total int64
	for t := Tier(0); t < tierCount; t++ {
		if !e.mayLand(t, bBytes) {
			continue
		}
		cfg := e.TierConfig(t, elem)
		for u := Tier(0); u < t && op[t] == nil; u++ {
			if op[u] != nil && op[u].CompatibleWith(cfg) == nil {
				op[t] = op[u]
			}
		}
		if op[t] != nil {
			continue
		}
		rb, err := core.PackResidentB(cfg, b, transB)
		if err != nil {
			return fmt.Errorf("engine: register %q %s tier: %w", id, t, err)
		}
		op[t] = rb
		total += rb.Bytes()
	}
	return e.resident.Register(id, op, total)
}

// ReleaseB deregisters a resident operand. Panels pinned by in-flight
// requests stay readable until those requests finish; the id is
// immediately re-registrable either way.
func (e *Engine) ReleaseB(id string) error {
	if e.closedFast.Load() {
		return ErrClosed
	}
	return e.resident.Release(id)
}

// ResidentStats snapshots the resident store's counters.
func (e *Engine) ResidentStats() resident.Stats { return e.resident.Stats() }

// residentHandle pairs a store pin with its typed payload for the duration
// of one GEMM. Like the pin, it is a value.
type residentHandle[T matrix.Scalar] struct {
	h  resident.Handle
	op *residentOperand[T]
}

// Release drops the pin (idempotent).
func (h *residentHandle[T]) Release() { h.h.Release() }

// acquireOperand pins id's packed panels and types them. The caller owns the
// pin and must Release it on every path — the GEMM body can panic (packing
// layout guards panic by design), so release in a defer. Like
// resident.Store.Acquire it keeps no reference to id: id is a field of the
// caller's Request.
func acquireOperand[T matrix.Scalar](e *Engine, id string) (residentHandle[T], error) {
	h, err := e.resident.Acquire(id)
	if err != nil {
		return residentHandle[T]{}, err
	}
	op, ok := h.Payload().(*residentOperand[T])
	if !ok {
		h.Release()
		return residentHandle[T]{}, fmt.Errorf("%w: %q", ErrOperandType, strings.Clone(id))
	}
	return residentHandle[T]{h: h, op: op}, nil
}

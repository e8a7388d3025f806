package main

import (
	"fmt"
	"math/rand"
	"sync"

	cake "repro"
)

// opKind is how an op drives the engine.
type opKind uint8

const (
	kindFresh         opKind = iota // EngineGemm: A and B packed on every call
	kindResident                    // EngineGemmResident against a registered weight
	kindBatchResident               // EngineGemmBatchResident: batch calls in one request
	kindUpdate                      // RegisterB of a new weight version, then ReleaseB of the old
)

// opClass is one kind of request in a workload's op sequence.
type opClass struct {
	name    string
	kind    opKind
	m, k, n int
	batch   int    // calls per request; 1 except for kindBatchResident
	tier    string // tier the engine must dispatch it to; "" for updates, which dispatch nothing
	percent int    // share of the op sequence, by op count
}

// flops is the useful work of one op of the class.
func (c *opClass) flops() float64 {
	if c.kind == kindUpdate {
		return 0
	}
	return 2 * float64(c.m) * float64(c.k) * float64(c.n) * float64(c.batch)
}

// workload is one closed-loop traffic mix: callers goroutines, each issuing
// its next op as soon as the previous one returns.
type workload struct {
	name    string
	callers int
	// cores is how many cores the workload keeps busy at once. A host-speed
	// reading runs that many canary loops, so it meets the same sharing of
	// the host's cores as the workload: on a shared host two busy vCPUs can
	// land on one physical core for minutes, which halves two threads'
	// speed and leaves one thread's alone.
	cores   int
	tailPct float64 // percentile reported as engine.tail_ms
	weights int     // resident weight slots, each weightK×weightN f32
	classes []opClass
}

// Resident weights are 256×256 f32: 256 KiB, which the fixed platform model
// (2 MiB LLC) packs for the small and large tiers but not the tiny one.
const weightK, weightN = 256, 256

// seqLen is the length of the seed-drawn op sequence each caller cycles
// through; every class's percent of it is a whole number of ops.
const seqLen = 200

// variants is how many operand sets each caller holds per class, so
// consecutive fresh ops do not always hand the engine the same pointers.
const variants = 2

var workloads = []*workload{
	{
		name: "gemm-large", callers: 1, cores: 1, tailPct: 90,
		classes: []opClass{
			{name: "fresh-512", kind: kindFresh, m: 512, k: 512, n: 512, batch: 1, tier: "large", percent: 100},
		},
	},
	{
		name: "serve-resident", callers: 2, cores: 2, tailPct: 99, weights: 8,
		classes: []opClass{
			{name: "resident-16", kind: kindResident, m: 16, k: weightK, n: weightN, batch: 1, tier: "small", percent: 100},
		},
	},
	{
		name: "serve-mixed", callers: 2, cores: 2, tailPct: 99, weights: 8,
		classes: []opClass{
			{name: "tiny-fresh", kind: kindFresh, m: 8, k: 24, n: 24, batch: 1, tier: "tiny", percent: 40},
			{name: "small-fresh", kind: kindFresh, m: 8, k: 320, n: 320, batch: 1, tier: "small", percent: 40},
			{name: "batch-resident", kind: kindBatchResident, m: 16, k: weightK, n: weightN, batch: 4, tier: "small", percent: 15},
			{name: "weight-update", kind: kindUpdate, k: weightK, n: weightN, batch: 1, percent: 5},
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// op is one entry of the op sequence.
type op struct {
	class   uint8
	slot    uint8 // resident weight slot (resident, batch and update ops)
	variant uint8 // operand set
}

// classOperands is one caller's buffers for one class, allocated up front.
type classOperands struct {
	as [][]*cake.Matrix[float32] // [variant][call]
	bs []*cake.Matrix[float32]   // [variant]; fresh classes only
	cs []*cake.Matrix[float32]   // [call]
}

// inputs is everything a run computes on, drawn from the seed before any
// engine exists.
type inputs struct {
	seq     []op
	callers [][]classOperands          // [caller][class]
	weights [][2]*cake.Matrix[float32] // [slot][version parity]
	checkA  *cake.Matrix[float32]      // left operand of the weight-update check
	probeB  *cake.Matrix[float32]      // weight the traced run's register probe uses
}

// opSequence draws the workload's op sequence from the seed: every class
// gets exactly percent·seqLen/100 entries, in shuffled order.
func opSequence(w *workload, rng *rand.Rand) []op {
	seq := make([]op, 0, seqLen)
	for ci, c := range w.classes {
		for range c.percent * seqLen / 100 {
			seq = append(seq, op{class: uint8(ci)})
		}
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for i := range seq {
		if w.weights > 0 {
			seq[i].slot = uint8(rng.Intn(w.weights))
		}
		seq[i].variant = uint8(rng.Intn(variants))
	}
	return seq
}

func randMatrix(rng *rand.Rand, r, c int) *cake.Matrix[float32] {
	m := cake.NewMatrix[float32](r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float32() - 1
	}
	return m
}

func newInputs(w *workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{seq: opSequence(w, rng)}
	for range w.callers {
		ops := make([]classOperands, len(w.classes))
		for ci := range w.classes {
			c := &w.classes[ci]
			if c.kind == kindUpdate {
				continue
			}
			o := &ops[ci]
			for range variants {
				calls := make([]*cake.Matrix[float32], c.batch)
				for i := range calls {
					calls[i] = randMatrix(rng, c.m, c.k)
				}
				o.as = append(o.as, calls)
				if c.kind == kindFresh {
					o.bs = append(o.bs, randMatrix(rng, c.k, c.n))
				}
			}
			for range c.batch {
				o.cs = append(o.cs, cake.NewMatrix[float32](c.m, c.n))
			}
		}
		in.callers = append(in.callers, ops)
	}
	for range w.weights {
		in.weights = append(in.weights, [2]*cake.Matrix[float32]{
			randMatrix(rng, weightK, weightN), randMatrix(rng, weightK, weightN),
		})
	}
	in.checkA = randMatrix(rng, 16, weightK)
	in.probeB = randMatrix(rng, weightK, weightN)
	return in
}

// weightSet tracks the versions of each resident weight slot. A request
// selects the slot's current version and holds it until its engine call
// returns; an update registers the next version and releases the one it
// supersedes only once no request that selected it is still running.
// Version v of a slot holds weights[slot][v%2].
type weightSet struct {
	e       *cake.Engine
	weights [][2]*cake.Matrix[float32]

	mu    sync.Mutex
	slots []slotVersions
}

type slotVersions struct {
	cur, next int
	curID     string
	refs      map[int]int // in-flight requests per version
}

func weightID(slot, version int) string { return fmt.Sprintf("w%d.v%d", slot, version) }

// newWeightSet registers version 0 of every slot.
func newWeightSet(e *cake.Engine, weights [][2]*cake.Matrix[float32]) (*weightSet, error) {
	ws := &weightSet{e: e, weights: weights, slots: make([]slotVersions, len(weights))}
	for s := range ws.slots {
		id := weightID(s, 0)
		if err := cake.EngineRegisterB(e, id, weights[s][0]); err != nil {
			return nil, fmt.Errorf("register %s: %w", id, err)
		}
		ws.slots[s] = slotVersions{next: 1, curID: id, refs: map[int]int{}}
	}
	return ws, nil
}

// acquire selects slot's current version for one request.
func (ws *weightSet) acquire(slot int) (version int, id string) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	sv := &ws.slots[slot]
	sv.refs[sv.cur]++
	return sv.cur, sv.curID
}

// release ends a request's hold on version; the last holder of a
// superseded version releases it from the engine.
func (ws *weightSet) release(slot, version int) error {
	ws.mu.Lock()
	sv := &ws.slots[slot]
	sv.refs[version]--
	drop := sv.refs[version] == 0 && version != sv.cur
	if sv.refs[version] == 0 {
		delete(sv.refs, version)
	}
	ws.mu.Unlock()
	if !drop {
		return nil
	}
	return cake.EngineReleaseB(ws.e, weightID(slot, version))
}

// update registers the slot's next version and makes it current. It
// returns the superseded version's id when no request holds it any more,
// for the caller to release; "" when a holder will release it instead.
func (ws *weightSet) update(slot int) (stale string, err error) {
	ws.mu.Lock()
	sv := &ws.slots[slot]
	v := sv.next
	sv.next++
	ws.mu.Unlock()

	id := weightID(slot, v)
	if err := cake.EngineRegisterB(ws.e, id, ws.weights[slot][v%2]); err != nil {
		return "", fmt.Errorf("register %s: %w", id, err)
	}

	ws.mu.Lock()
	defer ws.mu.Unlock()
	old := v // a concurrent update already installed a newer version
	if v > sv.cur {
		old = sv.cur
		sv.cur, sv.curID = v, id
	}
	if sv.refs[old] > 0 {
		return "", nil
	}
	return weightID(slot, old), nil
}

// data returns the weight matrix version v of slot holds.
func (ws *weightSet) data(slot, version int) *cake.Matrix[float32] {
	return ws.weights[slot][version%2]
}

package reqtrace

import (
	"strings"
	"sync"
)

// label is a handle into a tracer's label table: the slot index in the low
// labelSlotBits bits and the slot's generation above them. The zero handle
// is the empty label. A handle whose slot has since been given to another
// label carries a stale generation, so it renders as ReplacedLabel, never
// as the label that took its slot.
type label uint32

const (
	// maxLabels bounds the distinct labels (tenants, resident IDs, error
	// texts) a tracer holds. Past it, a new label replaces an old one.
	maxLabels     = 1024
	labelSlotBits = 10 // 1<<labelSlotBits ≥ maxLabels
	labelGenMask  = 1<<(32-labelSlotBits) - 1
)

// ReplacedLabel is what a record's tenant, resident ID or error text reads
// once the label table has given that label's slot to a newer label.
const ReplacedLabel = "(label replaced)"

// labelTable interns the strings records carry, so the ring holds fixed-size
// handles instead of string headers the garbage collector would scan. It
// keeps its own copy of every label and never the caller's string: a label
// shares its engine Request with the operand slices, escape analysis treats
// a struct as one value, and a label kept on the heap would drag a
// single-call request's slice literals there with it.
//
// The table grows to maxLabels slots and then replaces labels by the clock
// rule: a label interned since the hand last passed it gets a second chance,
// so the labels every request carries (a tenant, a hot weight) outlive a
// churn of one-off ones. A slot's generation grows by one per replacement;
// a handle could alias only after 2²² replacements of one slot, about 2³²
// new labels, while the ring it sits in is rewritten every len(ring)
// requests.
type labelTable struct {
	mu    sync.Mutex
	index map[string]label // held label → its current handle
	names []string         // by slot
	gens  []uint32         // by slot, 1..labelGenMask
	ref   []bool           // by slot: interned since the clock hand passed
	hand  int
}

// intern returns s's handle, adding s when the table does not hold it:
// holding it costs a map lookup, adding it one copy of s. The caller holds
// lt.mu.
func (lt *labelTable) intern(s string) label {
	if s == "" {
		return 0
	}
	if h, ok := lt.index[s]; ok {
		lt.ref[h&(1<<labelSlotBits-1)] = true
		return h
	}
	if lt.index == nil {
		lt.index = make(map[string]label)
	}
	own := strings.Clone(s) // a new variable: assigning to s would leak the caller's string
	i := len(lt.names)
	if i < maxLabels {
		lt.names, lt.gens, lt.ref = append(lt.names, own), append(lt.gens, 1), append(lt.ref, false)
	} else {
		for lt.ref[lt.hand] {
			lt.ref[lt.hand] = false
			lt.hand = (lt.hand + 1) % maxLabels
		}
		i, lt.hand = lt.hand, (lt.hand+1)%maxLabels
		delete(lt.index, lt.names[i])
		lt.names[i] = own
		lt.gens[i] = lt.gens[i]%labelGenMask + 1
	}
	h := label(lt.gens[i]<<labelSlotBits | uint32(i))
	lt.index[own] = h
	return h
}

// name returns the label h stands for, ReplacedLabel when its slot has
// been given to another label since. The caller holds lt.mu.
func (lt *labelTable) name(h label) string {
	if h == 0 {
		return ""
	}
	i := int(h & (1<<labelSlotBits - 1))
	if i < len(lt.names) && lt.gens[i] == uint32(h>>labelSlotBits) {
		return lt.names[i]
	}
	return ReplacedLabel
}

package obs

import "sync"

// Registry is an ordered name → value table, the one shape behind every
// observability registry (trace processes, debug routes, trace sources,
// metric families, executor metrics, published engines). Set registers a
// name or replaces its value in place, so a re-registered name keeps its
// position and renders stay stable; readers get copies, never the live
// slices. The zero value is ready to use and safe for concurrent use.
type Registry[V any] struct {
	mu    sync.Mutex
	index map[string]int
	names []string
	vals  []V
}

// Set registers v under name, replacing an earlier value in place.
func (r *Registry[V]) Set(name string, v V) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		r.vals[i] = v
		return
	}
	if r.index == nil {
		r.index = map[string]int{}
	}
	r.index[name] = len(r.names)
	r.names = append(r.names, name)
	r.vals = append(r.vals, v)
}

// Get returns the value registered under name.
func (r *Registry[V]) Get(name string) (V, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[name]
	if !ok {
		var zero V
		return zero, false
	}
	return r.vals[i], true
}

// Snapshot returns copies of the names and values in registration order.
func (r *Registry[V]) Snapshot() ([]string, []V) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string{}, r.names...), append([]V{}, r.vals...)
}

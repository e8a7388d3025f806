package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
)

// TestEngineCloseInFlight: Close lets the requests in flight finish. While
// callers stream tiny, small and large requests, fresh and resident, Close
// is called at several offsets; every request returns nil with a correct
// result, or ErrClosed — never the panic of a pool or store closed under it.
func TestEngineCloseInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(1800))
	type problem struct {
		a, b, want *matrix.Matrix[float32]
	}
	var probs [tierCount]problem
	for tier, sh := range tierShapes {
		m, k, n := sh[0], sh[1], sh[2]
		p := problem{a: matrix.New[float32](m, k), b: matrix.New[float32](k, n), want: matrix.New[float32](m, n)}
		p.a.Randomize(rng)
		p.b.Randomize(rng)
		matrix.NaiveGemm(p.want, p.a, p.b)
		probs[tier] = p
	}
	for _, offset := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		e := newTestEngine(t, 2, Options{Name: fmt.Sprintf("%s-%v", t.Name(), offset)})
		var wg sync.WaitGroup
		errs := make(chan error, 2*int(tierCount))
		for tier := Tier(0); tier < tierCount; tier++ {
			p := probs[tier]
			id := "close-" + tier.String()
			if err := RegisterB(e, id, p.b); err != nil {
				t.Fatal(err)
			}
			for _, resident := range []bool{false, true} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						c := matrix.New[float32](p.want.Rows, p.want.Cols)
						r := Request[float32]{C: mats(c), A: mats(p.a), B: mats(p.b), Alpha: 1}
						if resident {
							r.B, r.Resident = nil, id
						}
						_, err := Do(e, r)
						switch {
						case errors.Is(err, ErrClosed):
							return
						case err != nil:
							errs <- fmt.Errorf("%s resident=%v, Close after %v: %w", tier, resident, offset, err)
							return
						case !c.AlmostEqual(p.want, p.a.Cols, 1e-4):
							errs <- fmt.Errorf("%s resident=%v, Close after %v: wrong result", tier, resident, offset)
							return
						}
					}
				}()
			}
		}
		time.Sleep(offset)
		e.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if st := e.Counters(); st.InFlight != 0 {
			t.Fatalf("Close after %v returned with %d requests in flight", offset, st.InFlight)
		}
	}
}

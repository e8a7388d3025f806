package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	cake "repro"
	"repro/internal/kernel"
	"repro/internal/membench"
	"repro/internal/packing"
)

// benchPlatform is the fixed platform model every engine of the benchmark
// runs on, so tier dispatch does not follow what the host's sysfs reports.
func benchPlatform() *cake.Platform {
	pl := &cake.Platform{
		Name:          "perfbench",
		Cores:         2,
		L1Bytes:       32 << 10,
		L2Bytes:       256 << 10,
		LLCBytes:      2 << 20,
		DRAMBytes:     8 << 30,
		DRAMBW:        25e9,
		ClockHz:       3e9,
		FlopsPerCycle: 4,
		LatL1:         4, LatL2: 12, LatLLC: 40, LatDRAM: 200,
		DemandOverlap: 0.95,
		HasL3:         true,
	}
	pl.Internal.SlopePre, pl.Internal.Knee, pl.Internal.SlopePost = 40e9, 8, 15e9
	return pl
}

// refCanaryGflops is the reference host speed: about the per-core canary
// rate of a 2-vCPU Xeon guest (model 207) in its fast mode. Timed
// end-to-end metrics are reported as they would read on a host that fast.
const refCanaryGflops = 8.0

// canarySlice is how long each host-speed reading runs.
const canarySlice = 10 * time.Millisecond

// canarySink keeps the canary loops' results live.
var canarySink float64

// hostSpeedGflops runs the canary on n cores at once for about d and
// returns the mean per-core GFLOP/s: a reading of how much arithmetic the
// host gives n busy threads of this process right now.
func hostSpeedGflops(d time.Duration, n int) float64 {
	rates := make([]float64, n)
	sums := make([]float64, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rates[i], sums[i] = canaryGflops(d)
		}()
	}
	wg.Wait()
	var mean float64
	for i := range n {
		mean += rates[i] / float64(n)
		canarySink += sums[i]
	}
	return mean
}

// canaryGflops runs a fixed scalar floating-point loop, which touches no
// repository code, for about d and returns its GFLOP/s and a value that
// depends on every iteration. Its eight independent multiply-add chains
// keep the floating-point units busy, like the engine's scalar kernels, so
// the reading drops by about as much as theirs when another tenant shares
// the core or the host clocks down.
func canaryGflops(d time.Duration) (gflops, sum float64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
	const chunk = 1 << 12
	var iters int64
	t0 := time.Now()
	for time.Since(t0) < d {
		for range chunk {
			x0 = x0*0.999999 + 1e-6
			x1 = x1*0.999999 + 1e-6
			x2 = x2*0.999999 + 1e-6
			x3 = x3*0.999999 + 1e-6
			x4 = x4*0.999999 + 1e-6
			x5 = x5*0.999999 + 1e-6
			x6 = x6*0.999999 + 1e-6
			x7 = x7*0.999999 + 1e-6
		}
		iters += chunk
	}
	el := time.Since(t0)
	return float64(iters*2*8) / float64(el.Nanoseconds()), x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: total and steal
// jiffies. ok is false where the file is not readable.
func cpuTicks() (total, steal int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal: guest time is already
	// counted in user, so the first eight columns are the total.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the heap in use after two forced collections: the second
// also empties the sync.Pool victim caches the first one filled.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// kernelCeiling is the GFLOP/s of the engine's 8×8 f32 macro-kernel on
// packed panels that fit L1 together, at the engine's kc of 176, on one
// core: the best of several short bursts, so a host stall lowers none.
func kernelCeiling(d time.Duration) float64 {
	k := kernel.Best[float32](8, 8)
	const kc, bursts = 176, 5
	c := cake.NewMatrix[float32](2*k.MR, 2*k.NR)
	ap := make([]float32, packing.PackedASize(c.Rows, kc, k.MR))
	bp := make([]float32, packing.PackedBSize(kc, c.Cols, k.NR))
	for i := range ap {
		ap[i] = 1e-3
	}
	for i := range bp {
		bp[i] = 1e-3
	}
	s := kernel.NewScratch[float32](k.MR, k.NR)
	flopsPerCall := 2 * float64(c.Rows*c.Cols*kc)
	var best float64
	for range bursts {
		var calls int64
		t0 := time.Now()
		for time.Since(t0) < d/bursts {
			for range 64 {
				packing.Macro(k, kc, ap, bp, c, s)
			}
			calls += 64
		}
		best = max(best, float64(calls)*flopsPerCall/float64(time.Since(t0).Nanoseconds()))
	}
	return best
}

// packCeilingGBs is one core's streaming-copy bandwidth over a working set
// the size of the model LLC, in GB/s (reads plus writes).
func packCeilingGBs(d time.Duration) (float64, error) {
	bw, err := membench.Measure(1, 2<<20, d)
	return bw / 1e9, err
}

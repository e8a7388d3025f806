// Package tenant implements the multi-tenant scheduling extension the
// paper points at in Section 6.1 ("CAKE can also help reduce searches for
// optimal multi-tenant schedules"): several GEMM jobs sharing one machine.
//
// The CB property is what makes this tractable without search: a CAKE
// tenant running on p_i cores needs a *constant, analytically known* DRAM
// bandwidth (Equation 4) and LLC share (Equation 5), so the machine's
// cores, cache and memory bandwidth can be statically partitioned and each
// tenant provisioned exactly — where GOTO tenants' demands grow with their
// core counts and collide on the memory bus.
package tenant

import (
	"fmt"

	"repro/internal/cbtheory"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Job is one tenant's GEMM workload.
type Job struct {
	Name    string
	M, K, N int
}

// MACs returns the job's work volume.
func (j Job) MACs() float64 { return float64(j.M) * float64(j.K) * float64(j.N) }

// Assignment is one tenant's resource slice and plan.
type Assignment struct {
	Job      Job
	Cores    int
	LLCBytes int64       // shared-cache partition
	DRAMBW   float64     // reserved external bandwidth (bytes/s)
	Config   core.Config // CAKE plan within the slice
}

// Plan is a full machine partition.
type Plan struct {
	Platform    *platform.Platform
	Assignments []Assignment
}

// PlanTenants partitions the machine among jobs: cores proportionally to
// work volume (every tenant gets at least one), the LLC proportionally to
// the Equation 5 footprint the core counts imply (∝ p_i²), and DRAM
// bandwidth per tenant at its Equation 4 requirement. Returns an error if
// the jobs cannot fit (more jobs than cores, or aggregate bandwidth demand
// beyond the machine).
func PlanTenants(pl *platform.Platform, jobs []Job) (Plan, error) {
	if err := pl.Validate(); err != nil {
		return Plan{}, err
	}
	if len(jobs) == 0 {
		return Plan{}, fmt.Errorf("tenant: no jobs")
	}
	if len(jobs) > pl.Cores {
		return Plan{}, fmt.Errorf("tenant: %d jobs exceed %d cores", len(jobs), pl.Cores)
	}

	cores := splitProportional(pl.Cores, jobs)
	// LLC ∝ p², the dominant Eq. 5 term; a tenant with more cores needs a
	// quadratically larger resident-C surface.
	var p2 float64
	for _, c := range cores {
		p2 += float64(c * c)
	}

	plan := Plan{Platform: pl, Assignments: make([]Assignment, len(jobs))}
	var bwTotal float64
	for i, job := range jobs {
		share := int64(float64(pl.LLCBytes) * float64(cores[i]*cores[i]) / p2)
		slice := *pl
		slice.Cores = cores[i]
		slice.LLCBytes = share
		cfg, err := core.Plan(&slice, job.M, job.K, job.N, 4)
		if err != nil {
			return Plan{}, fmt.Errorf("tenant: %s: %w", job.Name, err)
		}
		rates := cbtheory.Rates{ClockHz: pl.ClockHz, FlopsPerCycle: pl.FlopsPerCycle, ElemBytes: 4}
		need := cbtheory.CakeOptimalDRAMBW(rates, cfg.Alpha, cfg.MR, cfg.NR, cfg.KC)
		// Headroom for C writebacks and edge blocks.
		need *= 1.25
		bwTotal += need
		plan.Assignments[i] = Assignment{
			Job: job, Cores: cores[i], LLCBytes: share, DRAMBW: need, Config: cfg,
		}
	}
	if bwTotal > pl.DRAMBW {
		return Plan{}, fmt.Errorf("tenant: aggregate bandwidth demand %.2f GB/s exceeds machine's %.2f GB/s",
			bwTotal/1e9, pl.DRAMBW/1e9)
	}
	// Distribute leftover bandwidth proportionally — CAKE tenants do not
	// need it, but it absorbs simulation transients.
	spare := pl.DRAMBW - bwTotal
	for i := range plan.Assignments {
		plan.Assignments[i].DRAMBW += spare / float64(len(jobs))
	}
	return plan, nil
}

// splitProportional allocates total cores to jobs ∝ MACs with a floor of 1.
func splitProportional(total int, jobs []Job) []int {
	w := make([]float64, len(jobs))
	for i, j := range jobs {
		w[i] = j.MACs()
	}
	return SplitCores(total, w)
}

// SplitCores partitions total cores across concurrent request classes
// proportionally to their weights, with a floor of one core per class. This
// is the §4.3 core partition in its rawest form: p cores serving q tenants,
// each slice sized to its share of the work, so every slice runs CAKE at its
// own constant bandwidth. When the floors alone exceed total (more classes
// than cores) the result intentionally sums above total — callers treat the
// entries as per-request demands, not a simultaneous static layout, and
// clamp to the machine. Non-positive weights count as equal shares.
func SplitCores(total int, weights []float64) []int {
	share := func(i int) float64 {
		if weights[i] > 0 {
			return weights[i]
		}
		return 1
	}
	var volume float64
	for i := range weights {
		volume += share(i)
	}
	out := make([]int, len(weights))
	used := 0
	for i := range weights {
		c := int(float64(total) * share(i) / volume)
		if c < 1 {
			c = 1
		}
		out[i] = c
		used += c
	}
	// Fix rounding: trim from / add to the largest allocations.
	for used > total {
		maxI := 0
		for i, c := range out {
			if c > out[maxI] {
				maxI = i
			}
		}
		if out[maxI] == 1 {
			break
		}
		out[maxI]--
		used--
	}
	for used < total {
		maxI := 0
		for i := range weights {
			if share(i)/float64(out[i]) > share(maxI)/float64(out[maxI]) {
				maxI = i
			}
		}
		out[maxI]++
		used++
	}
	return out
}

// TenantResult is one tenant's simulated co-run outcome.
type TenantResult struct {
	Job      Job
	Metrics  sim.Metrics
	GFLOPS   float64
	Isolated float64 // throughput with the whole machine's bandwidth
}

// Share returns co-run throughput as a fraction of isolated throughput at
// the same core count: 1.0 means the static partition cost the tenant
// nothing — the no-interference outcome CB provisioning is meant to buy.
func (r TenantResult) Share() float64 {
	if r.Isolated == 0 {
		return 0
	}
	return r.GFLOPS / r.Isolated
}

// Simulate co-runs the plan: each tenant executes on its core slice with
// its reserved DRAM bandwidth and its LLC partition (the static partition
// the CB analysis provisioned). For comparison, each tenant is also run
// with the machine's entire DRAM bandwidth (the isolated baseline).
func Simulate(plan Plan) ([]TenantResult, error) {
	pl := plan.Platform
	out := make([]TenantResult, 0, len(plan.Assignments))
	for _, as := range plan.Assignments {
		ops, err := sim.CakeOps(as.Config, 4, as.Job.M, as.Job.K, as.Job.N)
		if err != nil {
			return nil, err
		}
		mcfg := sim.FromPlatform(pl, as.Cores)
		mcfg.ExtBW = as.DRAMBW / pl.ClockHz
		// The internal bus is shared too; scale by the core share.
		mcfg.IntBW = pl.Internal.At(pl.Cores) / pl.ClockHz * float64(as.Cores) / float64(pl.Cores)
		mcfg.LLCBytes = as.LLCBytes
		met, err := sim.Run(mcfg, ops)
		if err != nil {
			return nil, err
		}

		iso := sim.FromPlatform(pl, as.Cores)
		isoMet, err := sim.Run(iso, ops)
		if err != nil {
			return nil, err
		}
		out = append(out, TenantResult{
			Job:      as.Job,
			Metrics:  met,
			GFLOPS:   met.ThroughputGFLOPS(pl.ClockHz),
			Isolated: isoMet.ThroughputGFLOPS(pl.ClockHz),
		})
	}
	return out, nil
}

package tenant

import (
	"time"

	"repro/internal/obs/reqtrace"
)

// Objectives derives per-tenant SLO objectives from the plan: one objective
// per assignment, keyed on the job name as the tenant label, ready to drop
// into engine.Options.Trace.Objectives. Requests tagged with the tenant
// label (engine.Request.Tenant) route into them.
// target and goal apply uniformly — a plan partitions resources, it does
// not rank tenants — and an empty windows list takes the reqtrace
// multi-window defaults.
func (p Plan) Objectives(target time.Duration, goal float64, windows ...time.Duration) []reqtrace.Objective {
	out := make([]reqtrace.Objective, 0, len(p.Assignments))
	for _, as := range p.Assignments {
		out = append(out, reqtrace.Objective{
			Name:    "tenant=" + as.Job.Name,
			Tenant:  as.Job.Name,
			Target:  target,
			Goal:    goal,
			Windows: windows,
		})
	}
	return out
}

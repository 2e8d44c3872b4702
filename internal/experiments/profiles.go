package experiments

import (
	"pico/internal/cluster"
	"pico/internal/core"
	"pico/internal/nn"
	"pico/internal/queueing"
	"pico/internal/schemes"
	"pico/internal/simulate"
)

// schemeProfiles evaluates every compared scheme on one model and cluster,
// returning plans and their simulator profiles keyed by scheme name.
type schemeProfiles struct {
	profiles map[string]*simulate.ExecProfile
	plans    map[string]*core.Plan
}

// buildProfiles plans the requested schemes. Unknown names are rejected so
// experiments cannot silently drop a series.
func buildProfiles(m *nn.Model, c *cluster.Cluster, names []string) (*schemeProfiles, error) {
	sp := &schemeProfiles{
		profiles: make(map[string]*simulate.ExecProfile, len(names)),
		plans:    make(map[string]*core.Plan, len(names)),
	}
	for _, name := range names {
		plan, err := schemes.Plan(name, m, c, core.Options{})
		if err != nil {
			return nil, err
		}
		sp.plans[name] = plan
		sp.profiles[name] = simulate.FromPlan(name, plan)
	}
	return sp, nil
}

// runAPICO runs the adaptive front-end over the one-stage OFL scheme (the
// paper chooses AOFL as APICO's one-stage arm) and the PICO pipeline, with
// an EWMA workload estimator of weight beta over 10-second windows.
func (sp *schemeProfiles) runAPICO(beta float64, arrivals []float64) (*simulate.Result, error) {
	arms := []string{"OFL", "PICO"}
	sw, err := schemes.APICO(arms, []*core.Plan{sp.plans[arms[0]], sp.plans[arms[1]]})
	if err != nil {
		return nil, err
	}
	est, err := queueing.NewEstimator(beta, 10)
	if err != nil {
		return nil, err
	}
	cands := []*simulate.ExecProfile{sp.profiles[arms[0]], sp.profiles[arms[1]]}
	return simulate.RunAdaptive(cands, sw, est, arrivals, sp.plans[arms[0]].Cluster.Size())
}

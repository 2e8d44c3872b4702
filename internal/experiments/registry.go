package experiments

import "fmt"

// Func regenerates one experiment under a configuration.
type Func func(Config) ([]Table, error)

// registry is every experiment and its generator, in presentation order —
// the sequence "run everything" follows.
var registry = []struct {
	id string
	f  Func
}{
	{"fig2", Fig2},
	{"fig4", Fig4},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"table1", Table1},
	{"table2", Table2},
	{"fig13", Fig13},
	{"bandwidth", Bandwidth},
	{"ablation-greedy", AblationGreedy},
	{"ablation-strips", AblationBalancedStrips},
	{"ablation-tlim", AblationLatencyBound},
	{"ablation-ewma", AblationEWMA},
	{"ablation-rfmode", AblationRFMode},
	{"ablation-grid", AblationGrid},
	{"ablation-overlap", AblationOverlap},
	{"ext-mobilenet", ExtMobileNet},
}

// IDs returns every registered experiment in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// Lookup returns the generator for an experiment ID.
func Lookup(id string) (Func, error) {
	for _, e := range registry {
		if e.id == id {
			return e.f, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
}

// Run regenerates one experiment by ID.
func Run(id string, cfg Config) ([]Table, error) {
	f, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return f(cfg)
}

package experiments

import (
	"fmt"
	"sort"
)

// Func regenerates one experiment under a configuration.
type Func func(Config) ([]Table, error)

// registry maps experiment IDs to their generators, in the order the paper
// presents them.
var registry = map[string]Func{
	"fig2":             Fig2,
	"fig4":             Fig4,
	"fig8":             Fig8,
	"fig9":             Fig9,
	"fig10":            Fig10,
	"fig11":            Fig11,
	"fig12":            Fig12,
	"fig13":            Fig13,
	"table1":           Table1,
	"table2":           Table2,
	"bandwidth":        Bandwidth,
	"ablation-greedy":  AblationGreedy,
	"ablation-strips":  AblationBalancedStrips,
	"ablation-tlim":    AblationLatencyBound,
	"ablation-ewma":    AblationEWMA,
	"ablation-rfmode":  AblationRFMode,
	"ablation-grid":    AblationGrid,
	"ext-mobilenet":    ExtMobileNet,
	"ablation-overlap": AblationOverlap,
}

// order fixes the presentation sequence for "run everything".
var order = []string{
	"fig2", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "table1",
	"table2", "fig13", "bandwidth",
	"ablation-greedy", "ablation-strips", "ablation-tlim", "ablation-ewma",
	"ablation-rfmode", "ablation-grid", "ablation-overlap", "ext-mobilenet",
}

// IDs returns every registered experiment in presentation order.
func IDs() []string {
	ids := make([]string, len(order))
	copy(ids, order)
	return ids
}

// Lookup returns the generator for an experiment ID.
func Lookup(id string) (Func, error) {
	f, ok := registry[id]
	if !ok {
		known := make([]string, 0, len(registry))
		for k := range registry {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
	}
	return f, nil
}

// Run regenerates one experiment by ID.
func Run(id string, cfg Config) ([]Table, error) {
	f, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return f(cfg)
}

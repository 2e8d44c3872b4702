// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) plus the ablations called out in DESIGN.md. Each
// experiment returns one or more Tables whose rows correspond to the
// series/bars the paper plots; cmd/picobench renders them to text files and
// the root bench suite wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one regenerated figure panel or paper table.
type Table struct {
	// ID names the experiment ("fig8a", "table1", ...).
	ID string
	// Title explains what the paper shows in this panel.
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold pre-formatted cells.
	Rows [][]string
	// Notes records shape expectations or substitutions worth reading
	// next to the numbers.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render formats the table as aligned monospaced text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config scales the experiments: Full reproduces the paper's durations,
// Quick keeps unit tests and benchmarks fast.
type Config struct {
	// ClosedLoopTasks is the task count for maximum-throughput runs.
	ClosedLoopTasks int
	// SimSeconds is the open-loop simulation horizon (the paper runs 10
	// minutes per point).
	SimSeconds float64
	// Seeds are the repetitions per point (the paper repeats 3 times).
	Seeds []int64
	// BFSBudget bounds each exhaustive search in Table II; exceeding it is
	// reported as the paper's "> 1h".
	BFSBudget time.Duration
	// Devices is the sweep of cluster sizes for the capacity figures.
	Devices []int
	// Workloads are the offered loads of the latency figures, as a
	// fraction of EFL capacity (the paper's 40%–150%).
	Workloads []float64
}

// Full mirrors the paper's experiment scale. Everything still runs on a
// virtual clock, so "10 minutes" of cluster time simulates in milliseconds;
// only the BFS planner cost in Table II consumes real seconds.
func Full() Config {
	return Config{
		ClosedLoopTasks: 500,
		SimSeconds:      600,
		Seeds:           []int64{1, 2, 3},
		BFSBudget:       60 * time.Second,
		Devices:         []int{1, 2, 4, 6, 8},
		Workloads:       []float64{0.4, 0.6, 0.8, 1.0, 1.2, 1.5},
	}
}

// Quick is a reduced configuration for tests and testing.B benchmarks.
func Quick() Config {
	return Config{
		ClosedLoopTasks: 60,
		SimSeconds:      120,
		Seeds:           []int64{1},
		BFSBudget:       3 * time.Second,
		Devices:         []int{1, 2, 4, 8},
		Workloads:       []float64{0.4, 0.8, 1.2},
	}
}

func pct(x float64) string       { return fmt.Sprintf("%.2f%%", x*100) }
func secs(x float64) string      { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string        { return fmt.Sprintf("%.2f", x) }
func gflops(x float64) string    { return fmt.Sprintf("%.2f", x/1e9) }
func perMin(tput float64) string { return fmt.Sprintf("%.1f", tput*60) }

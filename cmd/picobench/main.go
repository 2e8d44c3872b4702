// Command picobench regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints as an aligned text table and,
// with -out, is also written to <out>/<id>.txt.
//
//	picobench -exp all                # everything, paper-scale config
//	picobench -exp fig8,table1 -quick # selected, reduced config
//	picobench -list                   # show available experiment IDs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pico/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("picobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag  = fs.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		outDir   = fs.String("out", "", "directory to write per-experiment .txt files (optional)")
		quick    = fs.Bool("quick", false, "use the reduced configuration (fast, noisier)")
		listOnly = fs.Bool("list", false, "list experiment IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listOnly {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	cfg := experiments.Full()
	if *quick {
		cfg = experiments.Quick()
	}

	var ids []string
	if *expFlag == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "picobench: %v\n", err)
			return 1
		}
	}

	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "picobench: %s: %v\n", id, err)
			return 1
		}
		var rendered strings.Builder
		for _, t := range tables {
			rendered.WriteString(t.Render())
			rendered.WriteByte('\n')
		}
		fmt.Fprintf(stdout, "%s(generated %s in %s)\n\n", rendered.String(), id, time.Since(start).Round(time.Millisecond))
		if *outDir != "" {
			path := filepath.Join(*outDir, id+".txt")
			if err := os.WriteFile(path, []byte(rendered.String()), 0o644); err != nil {
				fmt.Fprintf(stderr, "picobench: write %s: %v\n", path, err)
				return 1
			}
		}
	}
	return 0
}

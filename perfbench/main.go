// Command perfbench is the repository's benchmark: three workloads
// (bulk-lifecycle, small-lines, paper-sweep) run against the code as it
// stands, with their outputs checked. An untraced run prints the
// end-to-end metrics; a traced run (--trace 1) prints the per-layer
// ladder. The last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	perfbench --workload bulk-lifecycle --seed 1 --seconds 10 --trace 0 [--out rec.json]
//	perfbench --workload all --seed 1 --seconds 10
//	perfbench compare old.json new.json
//
// See README.md in this directory for the workloads, the metrics and
// the layer ladder.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run produces: the result-line metrics,
// plus views printed in the table but kept out of the result line
// (error_rate is 0 on correct code, and result-line metrics must never
// read 0).
type report struct {
	result
	Extra map[string]metric `json:"extra,omitempty"`
	// Sizes are the population sizes the run used (part of provenance).
	Sizes map[string]int `json:"sizes"`
}

// tally counts attempted and failed operations; every check feeds it.
type tally struct {
	attempted, failed int64
	errs              []string
}

// check records one attempted operation that failed when err != nil.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 20 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// add records n attempted operations of which bad failed.
func (t *tally) add(n, bad int64, what string) {
	t.attempted += n
	if bad > 0 {
		t.failed += bad
		if len(t.errs) < 20 {
			t.errs = append(t.errs, fmt.Sprintf("%d of %d %s failed", bad, n, what))
		}
	}
}

// minReps is the fewest reps an untraced run makes, however short its
// time budget.
const minReps = 3

type options struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
}

var workloads = map[string]func(options) (report, error){
	"bulk-lifecycle": func(o options) (report, error) { return runStream(bulkLifecycle, o) },
	"small-lines":    func(o options) (report, error) { return runStream(smallLines, o) },
	"paper-sweep":    runSweep,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareFiles(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		o       options
		seconds int
		trace   int
		out     string
	)
	flag.StringVar(&o.workload, "workload", "", "bulk-lifecycle, small-lines, paper-sweep or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "measuring time per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the per-layer ladder instead of the end-to-end run")
	flag.StringVar(&out, "out", "", "also write the full record (provenance, sizes, extra metrics) to this JSON file")
	flag.Parse()
	o.budget = time.Duration(seconds) * time.Second
	o.trace = trace == 1

	names := []string{o.workload}
	if o.workload == "all" {
		names = []string{"bulk-lifecycle", "small-lines", "paper-sweep"}
	}
	var records []record
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want bulk-lifecycle, small-lines, paper-sweep or all)\n", name)
			os.Exit(2)
		}
		o.workload = name
		rep, err := run(o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		rec := newRecord(o, rep)
		records = append(records, rec)
		printTable(name, o.trace, rep)
		prov, err := json.Marshal(rec.Provenance)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# provenance: %s\n", prov)
		line, err := json.Marshal(rep.result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if out != "" {
		if err := writeRecords(out, records); err != nil {
			fatal(err)
		}
	}
}

// fatal reports err and exits without printing a result line.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printTable writes the human-readable view of a run to standard output:
// every metric with its unit, including the extra views.
func printTable(name string, traced bool, rep report) {
	mode := "end-to-end"
	if traced {
		mode = "per-layer (traced)"
	}
	fmt.Printf("# %s — %s: attempted %d, failed %d\n", name, mode, rep.Attempted, rep.Failed)
	all := map[string]metric{}
	for k, v := range rep.Metrics {
		all[k] = v
	}
	for k, v := range rep.Extra {
		all[k] = v
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("#   %-40s %16.6g %s\n", k, all[k].Value, all[k].Unit)
	}
}

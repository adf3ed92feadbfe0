package main

// Provenance: every record carries what a result depends on besides the
// code, and compare refuses two records whose provenance differs in
// anything but the commit — a configuration change cannot pass for a
// speed-up.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strings"
)

// provenance identifies the conditions of one run.
type provenance struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Seconds    float64        `json:"seconds"`
	Seed       int64          `json:"seed"`
	Sizes      map[string]int `json:"sizes"`
}

// record is one workload run as written by --out.
type record struct {
	Provenance provenance        `json:"provenance"`
	Result     result            `json:"result"`
	Extra      map[string]metric `json:"extra,omitempty"`
}

// commit names the checked-out commit: `git rev-parse HEAD` where the
// tree is a git checkout, else "unknown".
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func newRecord(o options, rep report) record {
	return record{
		Provenance: provenance{
			Commit:     commit(),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workload:   o.workload,
			Trace:      o.trace,
			Seconds:    o.budget.Seconds(),
			Seed:       o.seed,
			Sizes:      rep.Sizes,
		},
		Result: rep.result,
		Extra:  rep.Extra,
	}
}

func writeRecords(path string, recs []record) error {
	b, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// provenanceDiff lists the provenance fields, other than the commit, in
// which a and b differ.
func provenanceDiff(a, b provenance) []string {
	a.Commit, b.Commit = "", ""
	var diff []string
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			name := strings.Split(va.Type().Field(i).Tag.Get("json"), ",")[0]
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", name, va.Field(i).Interface(), vb.Field(i).Interface()))
		}
	}
	return diff
}

// compareFiles prints, per workload, each metric of the first file
// against the second, after refusing any pair whose provenance differs
// in anything but the commit.
func compareFiles(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare old.json new.json")
	}
	olds, err := readRecords(args[0])
	if err != nil {
		return err
	}
	news, err := readRecords(args[1])
	if err != nil {
		return err
	}
	lines, err := compareRecords(olds, news)
	if err != nil {
		return err
	}
	fmt.Print(strings.Join(lines, "\n"), "\n")
	return nil
}

func compareRecords(olds, news []record) ([]string, error) {
	if len(olds) != len(news) {
		return nil, fmt.Errorf("refusing to compare: %d records against %d", len(olds), len(news))
	}
	var out []string
	for i := range olds {
		a, b := olds[i], news[i]
		if d := provenanceDiff(a.Provenance, b.Provenance); len(d) > 0 {
			return nil, fmt.Errorf("refusing to compare %s: provenance differs in more than the commit: %s",
				a.Provenance.Workload, strings.Join(d, "; "))
		}
		out = append(out, fmt.Sprintf("%s (%s → %s)", a.Provenance.Workload, a.Provenance.Commit, b.Provenance.Commit))
		keys := make([]string, 0, len(a.Result.Metrics))
		for k := range a.Result.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ma, mb := a.Result.Metrics[k], b.Result.Metrics[k]
			ratio := "n/a"
			if ma.Value != 0 {
				ratio = fmt.Sprintf("×%.4f", mb.Value/ma.Value)
			}
			out = append(out, fmt.Sprintf("  %-40s %14.6g → %14.6g %-6s %s", k, ma.Value, mb.Value, ma.Unit, ratio))
		}
	}
	return out, nil
}

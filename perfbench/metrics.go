package main

import (
	"fmt"

	"repro/internal/sched"
)

// metricDef names one metric with its unit and direction. The lists
// below are the benchmark's metric schema; BENCHMARK.json at the
// repository root mirrors them (TestBenchmarkJSONMatchesSchema).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s", "higher"},
	{"cpu_us_per_job", "us", "lower"},
	{"heap_retained_bytes_per_job", "B", "lower"},
	{"setup_s", "s", "lower"},
}

// endToEndMetrics attaches the schema's units to the untraced values.
func endToEndMetrics(values map[string]float64) map[string]metric {
	return withUnits(endToEnd, values)
}

// perLayerDefs are the traced metrics. Every workload reports every one;
// a layer a workload does not exercise reads 0.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"schedd.wire_cpu_us_per_line", "us", "lower"},
		{"obs.observer_cpu_us_per_job", "us", "lower"},
		{"cluster.admit_ns_per_job", "ns", "lower"},
		{"cluster.admit_ns_per_line", "ns", "lower"},
		{"cluster.intake_cpu_us_per_job", "us", "lower"},
		{"cluster.intake_depth_mean", "jobs", "lower"},
		{"cluster.slab_hit_ratio", "ratio", "higher"},
		{"live.exec_ns_per_job", "ns", "lower"},
		{"live.exec_cpu_ns_per_job", "ns", "lower"},
		{"live.events_per_job", "count", "lower"},
		{"sim.engine_ns_per_job", "ns", "lower"},
		{"sim.engine_ns_per_task", "ns", "lower"},
		{"core.validate_ns_per_task", "ns", "lower"},
		{"runner.parallel_efficiency", "ratio", "higher"},
		{"sched.decide_ns", "ns", "lower"},
		{"sched.decide_calls_per_job", "count", "lower"},
	}
	for _, n := range sched.Names() {
		defs = append(defs, metricDef{"sched.decide_ns." + n, "ns", "lower"})
	}
	defs = append(defs,
		metricDef{"go.allocs_per_job", "count", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"go.gc_pause_ms", "ms", "lower"},
		metricDef{"trace.overhead_ratio", "ratio", "lower"},
	)
	for _, m := range shareModules {
		defs = append(defs, metricDef{"cpu_share." + m, "ratio", "lower"})
	}
	return defs
}

// perLayer turns measured values into the full per-layer metric set; a
// layer the workload does not exercise reads 0.
func perLayer(values map[string]float64) map[string]metric {
	return withUnits(perLayerDefs(), values)
}

// withUnits returns one metric per definition. A value whose name is not
// defined is a bug in the benchmark.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			panic(fmt.Sprintf("perfbench: metric %q is not in the schema", name))
		}
	}
	return out
}

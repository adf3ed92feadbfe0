package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"repro/internal/obs/flight.(*Recorder).AppendEvent": "obs.flight",
		"repro/internal/obs.(*Registry).Counter":            "obs",
		"repro/internal/sim/equeue.(*Queue).Push":           "sim.equeue",
		"repro/internal/sim.(*Engine).Run":                  "sim",
		"repro/internal/live.(*program).record.func1":       "live",
		"repro/pkg/schedclient.(*JobStream).Send":           "schedclient",
		"main.readAcks":                       "bench",
		"repro/perfbench.helper":              "bench",
		"encoding/json.(*decodeState).object": "",
		"net/http.(*conn).serve":              "",
		"runtime.mallocgc":                    "",
		"reprox/internal/sim.Run":             "",
	}
	for fn, want := range cases {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protoBuf is a minimal protocol-buffer encoder for the fixture.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *protoBuf) bytes(field int, data []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// fixtureProfile encodes a CPU profile whose samples (stacks innermost
// first, values in nanoseconds) are known. Location i+1 holds the
// functions of locs[i] (more than one means inlined frames, innermost
// first). The sample value list is [count, nanoseconds], as runtime/pprof
// writes it.
func fixtureProfile(funcs []string, locs [][]uint64, samples []struct {
	locs []uint64
	ns   uint64
}) []byte {
	var p protoBuf
	strs := append([]string{""}, funcs...)
	for _, s := range samples {
		var sp protoBuf
		sp.bytes(1, packed(s.locs...))
		sp.bytes(2, packed(1, s.ns))
		p.bytes(2, sp.b)
	}
	for i, fns := range locs {
		var lp protoBuf
		lp.varint(1, uint64(i+1))
		for _, f := range fns {
			var line protoBuf
			line.varint(1, f)
			line.varint(2, 10)
			lp.bytes(4, line.b)
		}
		p.bytes(4, lp.b)
	}
	for i := range funcs {
		var fp protoBuf
		fp.varint(1, uint64(i+1))
		fp.varint(2, uint64(i+1)) // name: string index i+1
		p.bytes(5, fp.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	return p.b
}

func TestAttributeFixture(t *testing.T) {
	funcs := []string{
		"repro/internal/obs/flight.(*Recorder).AppendEvent", // 1
		"repro/internal/live.(*program).record",             // 2
		"encoding/json.(*decodeState).object",               // 3
		"repro/internal/schedd.(*Server).handleStream",      // 4
		"net/http.serverHandler.ServeHTTP",                  // 5
		"runtime.gcBgMarkWorker",                            // 6
		"syscall.Syscall",                                   // 7
		"net/http.(*conn).serve",                            // 8
		"main.readAcks",                                     // 9
		"repro/internal/sim/equeue.(*Queue).Push",           // 10
		"repro/internal/sim.(*Engine).step",                 // 11
		"repro/pkg/schedclient.(*JobStream).Send",           // 12
		"runtime.mallocgc",                                  // 13
	}
	locs := [][]uint64{
		{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9},
		{10, 11},   // 10: equeue.Push inlined into sim.step
		{12}, {13}, // 11, 12
	}
	type s = struct {
		locs []uint64
		ns   uint64
	}
	samples := []s{
		{[]uint64{1, 2}, 30},    // obs.flight (innermost repo frame)
		{[]uint64{3, 4, 5}, 20}, // schedd: json decode called from the handler
		{[]uint64{6}, 25},       // go.runtime: no repo frame, runtime leaf
		{[]uint64{7, 8}, 10},    // std: no repo frame, non-runtime leaf
		{[]uint64{9}, 5},        // bench
		{[]uint64{10}, 6},       // sim.equeue: inlined innermost frame wins
		{[]uint64{12, 11}, 4},   // other: schedclient is not a reported module
	}
	raw := fixtureProfile(funcs, locs, samples)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{"raw": raw, "gzip": gz.Bytes()} {
		p, err := parseProfile(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shares := attribute(p)
		want := map[string]float64{
			"obs.flight": 0.30, "schedd": 0.20, "go.runtime": 0.25, "std": 0.10,
			"bench": 0.05, "sim.equeue": 0.06, "other": 0.04,
		}
		sum := 0.0
		for _, m := range shareModules {
			sum += shares[m]
			if math.Abs(shares[m]-want[m]) > 1e-12 {
				t.Errorf("%s: share[%s] = %v, want %v", name, m, shares[m], want[m])
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%s: shares sum to %v, want 1", name, sum)
		}
		if len(shares) != len(shareModules) {
			t.Errorf("%s: %d shares, want one per reported module (%d)", name, len(shares), len(shareModules))
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x12, 0xff}); err == nil {
		t.Fatal("truncated message parsed without error")
	}
	type s = struct {
		locs []uint64
		ns   uint64
	}
	dangling := fixtureProfile([]string{"main.f"}, [][]uint64{{1}}, []s{{[]uint64{2}, 1}})
	if _, err := parseProfile(dangling); err == nil {
		t.Fatal("sample naming an undefined location parsed without error")
	}
}

// TestRealProfileSharesSumToOne records a real CPU profile of repository
// code and checks the attribution covers every sample.
func TestRealProfileSharesSumToOne(t *testing.T) {
	prof, err := startProfile()
	if err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	cfg, _ := sweepSetup(3, 1)
	cfg.Platforms, cfg.Tasks = 2, 300
	if _, err := sweep(cfg); err != nil {
		prof.stop()
		t.Fatal(err)
	}
	shares, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

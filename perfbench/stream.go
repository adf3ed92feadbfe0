package main

// The two stream workloads: one schedd service in virtual-clock firehose
// mode, served on a loopback listener, driven by one client connection
// posting NDJSON to /v1/jobs:stream in a closed loop (the client writes
// the next line as soon as the connection accepts it, so the service's
// intake backpressure paces it). A rep is one service lifetime: set up,
// stream the population, drain, check, tear down. Reps repeat until the
// run's time budget is spent and every metric is the median over reps.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/schedd"
)

// streamSpec sizes one stream workload.
type streamSpec struct {
	jobs    int // jobs per rep
	perLine int // jobs per NDJSON line
}

// A rep takes about 1.5 s on two cores, so a 30 s run holds about 20.
var (
	bulkLifecycle = streamSpec{jobs: 300_000, perLine: 1000}
	smallLines    = streamSpec{jobs: 40_000, perLine: 1}
)

func (s streamSpec) lines() int { return (s.jobs + s.perLine - 1) / s.perLine }

// benchPlatform is the eight-slave heterogeneous platform every stream
// workload serves.
func benchPlatform() core.Platform {
	return core.NewPlatform(
		[]float64{0.1, 0.1, 0.2, 0.2, 0.3, 0.3, 0.1, 0.2},
		[]float64{0.4, 0.8, 0.4, 0.8, 0.4, 0.8, 0.4, 0.8})
}

const benchShards = 4

// serviceConfig is the one service configuration of the stream
// workloads. bare turns observability off (recorder, metrics, audit).
func serviceConfig(bare bool) schedd.Config {
	cfg := schedd.Config{
		Platform:     benchPlatform(),
		Policy:       "LS",
		Shards:       benchShards,
		Placement:    cluster.PlacementLeastLoaded,
		Partition:    core.PartitionBalanced,
		VirtualClock: true,
	}
	if bare {
		cfg.DisableRecorder = true
		cfg.DisableMetrics = true
		cfg.AuditDepth = -1
	}
	return cfg
}

// streamWorkers is the decode worker count schedd resolves for
// StreamWorkers 0: GOMAXPROCS capped at 8.
func streamWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// line is one NDJSON submission: the encoded bytes and what they say.
type line struct {
	body                 []byte
	count                int
	commScale, compScale float64
}

// spec is the line's job specification, as the service decodes it.
func (l line) spec() live.JobSpec {
	return live.JobSpec{CommScale: l.commScale, CompScale: l.compScale}
}

// makeLines draws one rep's submission lines from the seed. Every line's
// comm_scale and comp_scale is drawn uniformly from [0.5, 1.5].
func makeLines(spec streamSpec, seed int64, rep int) []line {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(rep)))
	out := make([]line, 0, spec.lines())
	for sent := 0; sent < spec.jobs; sent += spec.perLine {
		l := line{count: min(spec.perLine, spec.jobs-sent)}
		// Four decimals, so the encoded text parses back to these values.
		l.commScale = math.Round((0.5+rng.Float64())*1e4) / 1e4
		l.compScale = math.Round((0.5+rng.Float64())*1e4) / 1e4
		b := []byte(`{"count":`)
		b = strconv.AppendInt(b, int64(l.count), 10)
		b = append(b, `,"comm_scale":`...)
		b = strconv.AppendFloat(b, l.commScale, 'f', -1, 64)
		b = append(b, `,"comp_scale":`...)
		b = strconv.AppendFloat(b, l.compScale, 'f', -1, 64)
		l.body = append(b, "}\n"...)
		out = append(out, l)
	}
	return out
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC forces a collection and returns the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// service is one running schedd instance behind a loopback listener.
type service struct {
	srv   *schedd.Server
	hs    *http.Server
	addr  string
	serve chan error
}

func startService(cfg schedd.Config) (*service, error) {
	srv, err := schedd.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain() // the listener error is the one to report
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), serve: make(chan error, 1)}
	go func() { s.serve <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return. The service must already be drained.
func (s *service) stop() error {
	err := s.hs.Close()
	if serr := <-s.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// ackChecker verifies the ack stream of one connection: one ack per
// line, in line order, no error acks, each acking exactly the line's job
// count, and global IDs contiguous from 0 with no gap or repeat.
type ackChecker struct {
	lines    []line
	acked    int // lines acked
	jobs     int // jobs acked
	nextBase int
}

func (c *ackChecker) observe(ack schedd.StreamAck) error {
	if ack.Error != "" {
		return fmt.Errorf("line %d: error ack: %s", ack.Line, ack.Error)
	}
	if c.acked == len(c.lines) {
		return fmt.Errorf("ack for line %d, but only %d lines were sent", ack.Line, len(c.lines))
	}
	if ack.Line != c.acked+1 {
		return fmt.Errorf("ack for line %d, want line %d", ack.Line, c.acked+1)
	}
	if want := c.lines[c.acked].count; ack.Count != want {
		return fmt.Errorf("line %d: acked %d jobs, sent %d", ack.Line, ack.Count, want)
	}
	if ack.Base != c.nextBase {
		return fmt.Errorf("line %d: base %d, want %d (gap or repeat in global IDs)", ack.Line, ack.Base, c.nextBase)
	}
	c.acked++
	c.jobs += ack.Count
	c.nextBase += ack.Count
	return nil
}

// postStream sends every line over one POST /v1/jobs:stream connection
// and checks the acks as they arrive. It returns once the response has
// ended. The client writes each line as one chunk, as schedclient does.
func postStream(addr string, lines []line) (*ackChecker, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "http://"+addr+"/v1/jobs:stream", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	chk := &ackChecker{lines: lines}
	done := make(chan error, 1)
	go func() {
		done <- readAcks(tr, req, chk)
		// Unblock the writer if the response ended early.
		pr.CloseWithError(errors.New("response ended"))
	}()
	var werr error
	for _, l := range lines {
		if _, werr = pw.Write(l.body); werr != nil {
			break
		}
	}
	pw.Close()
	rerr := <-done
	if rerr != nil {
		return chk, rerr
	}
	return chk, werr
}

func readAcks(tr *http.Transport, req *http.Request, chk *ackChecker) error {
	resp, err := tr.RoundTrip(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/jobs:stream: status %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ack schedd.StreamAck
		if err := json.Unmarshal(sc.Bytes(), &ack); err != nil {
			return fmt.Errorf("bad ack line: %w", err)
		}
		if err := chk.observe(ack); err != nil {
			return err
		}
	}
	return sc.Err()
}

// checkService verifies a drained service against the acked population:
// completed == submitted == acked, and every shard's executed schedule
// is feasible.
func checkService(t *tally, srv *schedd.Server, acked int) {
	c := srv.Counts()
	t.check(countsMatch(c.Submitted, c.Completed, acked))
	for _, sh := range srv.Router().Shards() {
		t.check(validShard(sh.Index(), sh.Result().Schedule))
	}
}

func countsMatch(submitted, completed, acked int) error {
	if submitted != acked || completed != acked {
		return fmt.Errorf("counts: submitted %d, completed %d, acked %d", submitted, completed, acked)
	}
	return nil
}

func validShard(index int, s core.Schedule) error {
	if err := core.ValidateSchedule(s); err != nil {
		return fmt.Errorf("shard %d schedule: %w", index, err)
	}
	return nil
}

// repStats is what one rep measured.
type repStats struct {
	setup    time.Duration
	wall     time.Duration
	cpu      time.Duration
	retained float64 // bytes per job
}

// streamRep runs one service lifetime over lines and records its checks
// in t. hook, when set, runs inside the measured window with the live
// service (the traced run samples the intake depth from it).
func streamRep(lines []line, jobs int, t *tally, hook func(*schedd.Server) func()) (repStats, error) {
	base := heapAfterGC()
	setupStart := time.Now()
	svc, err := startService(serviceConfig(false))
	if err != nil {
		return repStats{}, fmt.Errorf("start service: %w", err)
	}
	setup := time.Since(setupStart)

	var stopHook func()
	if hook != nil {
		stopHook = hook(svc.srv)
	}
	cpu0, t0 := cpuTime(), time.Now()
	chk, serr := postStream(svc.addr, lines)
	derr := svc.srv.Drain()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if stopHook != nil {
		stopHook()
	}
	retained := (float64(heapAfterGC()) - float64(base)) / float64(jobs)

	t.check(serr)
	t.check(derr)
	t.add(int64(len(lines)), int64(len(lines)-chk.acked), "lines acked")
	t.add(int64(jobs), int64(jobs-chk.jobs), "jobs acked")
	c := svc.srv.Counts()
	t.add(int64(jobs), int64(jobs-c.Completed), "jobs completed")
	checkService(t, svc.srv, chk.jobs)
	if err := svc.stop(); err != nil {
		return repStats{}, fmt.Errorf("stop service: %w", err)
	}
	return repStats{setup: setup, wall: wall, cpu: cpu, retained: retained}, nil
}

func streamSizes(spec streamSpec) map[string]int {
	return map[string]int{"jobs": spec.jobs, "jobs_per_line": spec.perLine, "lines": spec.lines(), "shards": benchShards, "slaves": benchPlatform().M(), "stream_workers": streamWorkers()}
}

// runStream is the untraced (or, with o.trace, the ladder) run of one
// stream workload.
func runStream(spec streamSpec, o options) (report, error) {
	if o.trace {
		return runLadder(spec, o)
	}
	var (
		t                          tally
		setup, rate, cpu, retained []float64
	)
	deadline := time.Now().Add(o.budget)
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		lines := makeLines(spec, o.seed, rep)
		st, err := streamRep(lines, spec.jobs, &t, nil)
		if err != nil {
			return report{}, err
		}
		setup = append(setup, st.setup.Seconds())
		rate = append(rate, float64(spec.jobs)/st.wall.Seconds())
		cpu = append(cpu, float64(st.cpu.Nanoseconds())/1e3/float64(spec.jobs))
		retained = append(retained, st.retained)
		fmt.Fprintf(os.Stderr, "# rep %d: %.0f jobs/s, %.3f us/job cpu, %.1f B/job retained, setup %.4fs\n",
			rep, rate[rep], cpu[rep], st.retained, setup[rep])
	}
	rep := report{
		result: result{
			Correct:   t.failed == 0,
			Attempted: t.attempted,
			Failed:    t.failed,
			Metrics: endToEndMetrics(map[string]float64{
				"jobs_per_s":                  median(rate),
				"cpu_us_per_job":              median(cpu),
				"heap_retained_bytes_per_job": median(retained),
				"setup_s":                     median(setup),
			}),
		},
		Extra: map[string]metric{
			"error_rate": {float64(t.failed) / float64(t.attempted), "ratio"},
			"reps":       {float64(len(rate)), "count"},
		},
		Sizes: streamSizes(spec),
	}
	reportErrors(t)
	return rep, nil
}

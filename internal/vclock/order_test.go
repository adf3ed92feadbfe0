package vclock

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// orderRun is one seeded mix of random processes. Every process draws
// its operations from a private generator, so the mix is fixed by the
// seed; what the log records on top of that is the kernel's resume
// order, clock advances and delivery order.
type orderRun struct {
	log         []string
	outstanding []int // messages posted to each process, not yet received
	tag         int
}

func (r *orderRun) record(p *Proc, op string, m Message) {
	r.log = append(r.log, fmt.Sprintf("%016x %d %s %d %d",
		math.Float64bits(p.Now()), p.ID(), op, m.From, m.Tag))
}

// step performs one random operation of proc p and logs it.
func (r *orderRun) step(p *Proc, rng *rand.Rand) {
	delays := []float64{0.25, 0.5, 1, 1.25, 2}
	none := Message{From: -1, Tag: -1}
	switch rng.Intn(7) {
	case 0:
		p.Sleep(0)
		r.record(p, "sleep0", none)
	case 1:
		p.Sleep(delays[rng.Intn(len(delays))])
		r.record(p, "sleep", none)
	case 2, 3:
		dst := rng.Intn(len(r.outstanding))
		delay := 0.0
		if rng.Intn(2) == 0 {
			delay = delays[rng.Intn(len(delays))]
		}
		r.outstanding[dst]++
		r.tag++
		p.Post(dst, Message{Tag: r.tag}, delay)
		r.record(p, fmt.Sprintf("post>%d@%v", dst, delay), Message{From: p.ID(), Tag: r.tag})
	case 4:
		if r.outstanding[p.ID()] == 0 {
			_, ok := p.RecvDeadline(p.Now())
			r.record(p, fmt.Sprintf("poll=%v", ok), none)
			return
		}
		m := p.Recv()
		r.outstanding[p.ID()]--
		r.record(p, "recv", m)
	default:
		deadline := p.Now()
		if rng.Intn(3) > 0 {
			deadline += delays[rng.Intn(len(delays))]
		}
		m, ok := p.RecvDeadline(deadline)
		if ok {
			r.outstanding[p.ID()]--
			r.record(p, "recvdl", m)
		} else {
			r.record(p, "timeout", none)
		}
	}
}

// runOrderMix spawns a seeded mix of processes and runs it. panicAt, if
// non-negative, makes the last process panic before its op panicAt;
// block makes every process finish with one Recv that nothing answers.
func runOrderMix(seed int64, panicAt int, block bool) (*orderRun, error) {
	setup := rand.New(rand.NewSource(seed))
	n := 3 + setup.Intn(4)
	r := &orderRun{outstanding: make([]int, n)}
	c := New()
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(setup.Int63()))
		ops := 40 + rng.Intn(40)
		victim := i == n-1
		c.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < ops; k++ {
				if victim && k == panicAt {
					panic(fmt.Sprintf("boom at op %d", k))
				}
				r.step(p, rng)
			}
			if block {
				for r.outstanding[p.ID()] > 0 {
					r.record(p, "drain", p.Recv())
					r.outstanding[p.ID()]--
				}
				p.Recv()
			}
		})
	}
	return r, c.Run()
}

func logDigest(log []string) string {
	sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestResumeOrderGolden pins the kernel's resume order: which process
// runs next, when the clock advances, and in what order mail arrives.
// The digests were recorded from the kernel before it switched to
// direct handoff; any change to the scheduling step shows up here.
func TestResumeOrderGolden(t *testing.T) {
	golden := map[int64]string{
		1: "1676af1031a4f6b87358b3cfc545a414721fa7a02fdb5e81ba6e2ebc9e4adb5a",
		2: "986f9c8eae4137d30f5a8c0cb0fc2ba9e4922f5aa9b09c50158aefdb6e6c1ccd",
		3: "b5cc9da63509a464dad0d1643baf85fabd95d6c9294371bc10f006a0217ac78d",
		4: "fc570673a2dbcf2273fa3bf452909cec7401b21a84bd1c903ba9d656af6a3d41",
		5: "eb430f991c6817c01ed8bc7ab1b0e3ceb1107d60d5f330f8930e02127770069b",
		6: "76db75367ee52da7cccdd88c158b579e68c38d76bc64a1dc16947a6974425a97",
	}
	for seed := int64(1); seed <= 6; seed++ {
		r, err := runOrderMix(seed, -1, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := logDigest(r.log)
		if want, ok := golden[seed]; !ok || got != want {
			t.Errorf("seed %d: resume-order digest %s, want %s (%d log lines)", seed, got, want, len(r.log))
		}
	}
}

// TestResumeOrderErrors checks that a panicking process and a deadlock
// still end the run with their errors, with the same text.
func TestResumeOrderErrors(t *testing.T) {
	_, err := runOrderMix(4, 17, false)
	if err == nil || err.Error() != `vclock: process "p3" panicked: boom at op 17` {
		t.Fatalf("panic: got %v", err)
	}
	r, err := runOrderMix(2, -1, true)
	if err == nil {
		t.Fatal("deadlock not reported")
	}
	const want = "vclock: deadlock at t=18.75, blocked: [" +
		"p1(1) state=3 wakeAt=+Inf mailbox=0 p3(3) state=3 wakeAt=+Inf mailbox=0]"
	if err.Error() != want {
		t.Fatalf("deadlock error\n got %q\nwant %q", err.Error(), want)
	}
	if got := logDigest(r.log); got != "dae69d61ad0e4dfd08b5053b58f25c0ba1ea38d3aea259b19bc2fb4c230905e8" {
		t.Fatalf("deadlock run digest %s", got)
	}
}

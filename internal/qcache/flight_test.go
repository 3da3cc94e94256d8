package qcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFlightSingleLeader(t *testing.T) {
	f := NewFlight[string]()
	const waiters = 32
	var leaders atomic.Int32
	var wg sync.WaitGroup
	// joined counts the goroutines back from Join. The leader completes only
	// once all of them are, so nobody can join after the flight has closed
	// and become a second leader.
	var joined sync.WaitGroup
	joined.Add(waiters)
	results := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, leader := f.Join(key(1))
			joined.Done()
			if leader {
				leaders.Add(1)
				joined.Wait()
				c.Complete("the-result", true)
			}
			v, ok, err := c.Wait(context.Background())
			if err != nil || !ok {
				t.Errorf("wait: %v %v", ok, err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if leaders.Load() != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders.Load())
	}
	for i, r := range results {
		if r != "the-result" {
			t.Fatalf("waiter %d got %q", i, r)
		}
	}
	if f.Inflight() != 0 {
		t.Fatalf("inflight = %d after completion", f.Inflight())
	}
}

func TestFlightKeyReleasedAfterComplete(t *testing.T) {
	f := NewFlight[int]()
	c1, leader := f.Join(key(1))
	if !leader {
		t.Fatal("first join not leader")
	}
	c1.Complete(1, true)
	c2, leader := f.Join(key(1))
	if !leader {
		t.Fatal("join after completion must start a fresh flight")
	}
	c2.Complete(2, true)
	if v, _ := c1.Outcome(); v != 1 {
		t.Fatalf("first call outcome = %d", v)
	}
	if v, _ := c2.Outcome(); v != 2 {
		t.Fatalf("second call outcome = %d", v)
	}
}

func TestFlightFailurePropagates(t *testing.T) {
	f := NewFlight[string]()
	c, _ := f.Join(key(1))
	follower, leader := f.Join(key(1))
	if leader {
		t.Fatal("second join became leader")
	}
	c.Complete("budget_exceeded", false)
	v, ok, err := follower.Wait(context.Background())
	if err != nil || ok || v != "budget_exceeded" {
		t.Fatalf("follower saw %q ok=%v err=%v", v, ok, err)
	}
}

func TestFlightWaitHonorsContext(t *testing.T) {
	f := NewFlight[string]()
	c, _ := f.Join(key(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Wait(ctx); err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	c.Complete("late", true) // leader still completes; no panic, key released
	if f.Inflight() != 0 {
		t.Fatal("key not released")
	}
}

// TestConcurrentHammer is the race-stress test CI runs with -race: K
// goroutines hammer a small two-tier cache and a flight group with a mix of
// identical and distinct keys while the byte cap forces evictions to race
// the promotions. Correctness bar: every flight elects exactly one leader
// per round, every Get that hits returns the exact bytes stored for that
// key, and counters stay coherent.
func TestConcurrentHammer(t *testing.T) {
	const (
		workers = 16
		rounds  = 40
		keys    = 8
	)
	// Cap small enough that only ~2 of the 8 payloads fit: evictions race
	// promotions and concurrent Puts constantly.
	cache, err := New(2*(512+memOverhead), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flight := NewFlight[[]byte]()
	payload := func(k int) []byte {
		p := make([]byte, 512)
		for i := range p {
			p[i] = byte(k)
		}
		return p
	}
	stamp := Stamp{Repr: "alg", Norm: "left"}
	var leaders atomic.Int64

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Half the workers share key r%keys (identical traffic), the
				// rest spread across distinct keys.
				kid := r % keys
				if w%2 == 1 {
					kid = (r + w) % keys
				}
				k := key(byte(kid))
				if got, ok := cache.Get(k, stamp); ok {
					for _, b := range got {
						if b != byte(kid) {
							t.Errorf("key %d served foreign bytes %d", kid, b)
							return
						}
					}
					continue
				}
				c, leader := flight.Join(k)
				if leader {
					leaders.Add(1)
					p := payload(kid)
					cache.Put(k, p, stamp)
					c.Complete(p, true)
				} else {
					got, ok, err := c.Wait(context.Background())
					if err != nil || !ok {
						t.Errorf("follower wait: %v %v", ok, err)
						return
					}
					for _, b := range got {
						if b != byte(kid) {
							t.Errorf("flight for key %d delivered foreign bytes", kid)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if flight.Inflight() != 0 {
		t.Fatalf("inflight = %d after hammer", flight.Inflight())
	}
	s := cache.Stats()
	if s.Bytes > 2*(512+memOverhead) {
		t.Fatalf("memory tier over cap: %+v", s)
	}
	if s.Hits+s.Misses == 0 || s.Stores == 0 {
		t.Fatalf("implausible counters: %+v", s)
	}
	t.Logf("hammer: %d leaders, stats %+v", leaders.Load(), s)
}

func ExampleFlight() {
	f := NewFlight[string]()
	c, leader := f.Join(Key{1})
	if leader {
		c.Complete("simulated once", true)
	}
	v, _, _ := c.Wait(context.Background())
	fmt.Println(v)
	// Output: simulated once
}

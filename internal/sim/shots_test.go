package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
)

// teleportCircuit builds the canonical dynamic test circuit: teleport the
// state X|0⟩ = |1⟩ from qubit 0 to qubit 2 through mid-circuit measurement
// and classical feedback, then read out the destination.
//
// Classical bits: c0 = measure of q0, c1 = measure of q1, c2 = read-out of
// q2. Histogram keys are %03b over the creg, so c2 is the leftmost
// character and must be '1' in every shot.
func teleportCircuit() *circuit.Circuit {
	c := circuit.New("teleport", 3)
	c.X(0)          // payload |1⟩
	c.H(1).CX(1, 2) // Bell pair on (q1, q2)
	c.CX(0, 1).H(0) // Bell-basis rotation of (q0, q1)
	c.Append(circuit.Gate{Name: circuit.OpMeasure, Target: 0, Clbit: 0})
	c.Append(circuit.Gate{Name: circuit.OpMeasure, Target: 1, Clbit: 1})
	c.Append(circuit.Gate{Name: "x", Target: 2,
		Cond: &circuit.Cond{Offset: 1, Width: 1, Value: 1}})
	c.Append(circuit.Gate{Name: "z", Target: 2,
		Cond: &circuit.Cond{Offset: 0, Width: 1, Value: 1}})
	c.Append(circuit.Gate{Name: circuit.OpMeasure, Target: 2, Clbit: 2})
	return c
}

// TestRNGDeterminism pins the splitmix64 streams: reproducible, seed- and
// shot-sensitive, and Float64 in [0, 1).
func TestRNGDeterminism(t *testing.T) {
	a, b := ForkRNG(42, 0), ForkRNG(42, 0)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	if ForkRNG(1, 0).Uint64() == ForkRNG(2, 0).Uint64() {
		t.Error("different seeds produced the same first draw")
	}
	if ForkRNG(7, 0).Uint64() == ForkRNG(7, 1).Uint64() {
		t.Error("different shots produced the same first draw")
	}
	r := ForkRNG(3, 0)
	for i := 0; i < 1000; i++ {
		if u := r.Float64(); u < 0 || u >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", u)
		}
	}
}

// TestTeleportationShots: the headline dynamic-circuit correctness check.
// Teleporting |1⟩ must land q2 in |1⟩ regardless of the two measurement
// outcomes, so every histogram key starts with '1'; the Bell measurement
// outcomes (the two rightmost characters) are uniform, so with enough
// shots all four corrections appear.
func TestTeleportationShots(t *testing.T) {
	c := teleportCircuit()
	if !c.Dynamic() {
		t.Fatal("teleportation circuit should be dynamic")
	}
	run := func(t *testing.T, res *ShotsResult, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != StrategyResimulate {
			t.Fatalf("strategy = %q, want %q (dynamic circuit)", res.Strategy, StrategyResimulate)
		}
		if res.KeyBits != 3 {
			t.Fatalf("KeyBits = %d, want 3", res.KeyBits)
		}
		total := 0
		for key, n := range res.Counts {
			if len(key) != 3 || !strings.HasPrefix(key, "1") {
				t.Errorf("key %q: teleported qubit must read 1", key)
			}
			total += n
		}
		if total != 400 {
			t.Errorf("counts sum to %d, want 400", total)
		}
		for _, key := range []string{"100", "101", "110", "111"} {
			if res.Counts[key] == 0 {
				t.Errorf("correction branch %q never exercised in 400 shots", key)
			}
		}
	}
	opt := ShotOptions{Shots: 400, Seed: 11}
	t.Run("alg", func(t *testing.T) {
		res, err := SampleShotsCtx(context.Background(), algM(core.NormLeft), c, opt)
		run(t, res, err)
	})
	t.Run("num", func(t *testing.T) {
		res, err := SampleShotsCtx(context.Background(), numM(1e-12), c, opt)
		run(t, res, err)
	})
}

// TestShotsDeterministic: identical (circuit, shots, seed) twice on fresh
// managers gives an identical histogram.
func TestShotsDeterministic(t *testing.T) {
	c := teleportCircuit()
	opt := ShotOptions{Shots: 200, Seed: 5}
	a, err := SampleShotsCtx(context.Background(), algM(core.NormLeft), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampleShotsCtx(context.Background(), algM(core.NormLeft), c, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Counts, b.Counts) {
		t.Fatalf("same seed, different histograms:\n%v\n%v", a.Counts, b.Counts)
	}
}

// TestCrossStrategyIdentity: on a static trailing-measure circuit both
// strategies apply, and the byte-identity contract says the same seed must
// give the same histogram. The measure block maps clbits crosswise
// (q0→c1, q1→c0) to exercise the read-out bit routing.
func TestCrossStrategyIdentity(t *testing.T) {
	c := circuit.New("bell", 2).H(0).CX(0, 1)
	c.Append(circuit.Gate{Name: circuit.OpMeasure, Target: 0, Clbit: 1})
	c.Append(circuit.Gate{Name: circuit.OpMeasure, Target: 1, Clbit: 0})
	if c.Dynamic() {
		t.Fatal("bell+readout should not be dynamic")
	}
	m := algM(core.NormLeft)
	samp, err := SampleShotsCtx(context.Background(), m, c, ShotOptions{Shots: 300, Seed: 9, Strategy: StrategySample})
	if err != nil {
		t.Fatal(err)
	}
	resim, err := SampleShotsCtx(context.Background(), algM(core.NormLeft), c, ShotOptions{Shots: 300, Seed: 9, Strategy: StrategyResimulate})
	if err != nil {
		t.Fatal(err)
	}
	if samp.Strategy != StrategySample || resim.Strategy != StrategyResimulate {
		t.Fatalf("strategies = %q, %q", samp.Strategy, resim.Strategy)
	}
	if !reflect.DeepEqual(samp.Counts, resim.Counts) {
		t.Fatalf("strategies disagree:\nsample:     %v\nresimulate: %v", samp.Counts, resim.Counts)
	}
	// Bell pair: only correlated outcomes, both present.
	for key := range samp.Counts {
		if key != "00" && key != "11" {
			t.Errorf("impossible Bell outcome %q", key)
		}
	}
	if samp.Counts["00"] == 0 || samp.Counts["11"] == 0 {
		t.Errorf("lopsided Bell histogram: %v", samp.Counts)
	}
}

// TestShotsNoMeasure: a circuit without any measurement histograms the
// full basis index (qubit 0 leftmost).
func TestShotsNoMeasure(t *testing.T) {
	c := circuit.New("ghz", 3).H(0).CX(0, 1).CX(1, 2)
	res, err := SampleShotsCtx(context.Background(), algM(core.NormLeft), c, ShotOptions{Shots: 128, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != StrategySample || res.KeyBits != 3 {
		t.Fatalf("strategy %q, KeyBits %d", res.Strategy, res.KeyBits)
	}
	for key := range res.Counts {
		if key != "000" && key != "111" {
			t.Errorf("impossible GHZ outcome %q", key)
		}
	}
	if res.Counts["000"] == 0 || res.Counts["111"] == 0 {
		t.Errorf("lopsided GHZ histogram: %v", res.Counts)
	}
}

// TestShotsReset: reset mid-circuit forces the qubit back to |0⟩, so the
// second measurement is deterministic while the first is random.
func TestShotsReset(t *testing.T) {
	c := circuit.New("reset", 1)
	c.H(0)
	c.Append(circuit.Gate{Name: circuit.OpMeasure, Target: 0, Clbit: 0})
	c.Append(circuit.Gate{Name: circuit.OpReset, Target: 0})
	c.Append(circuit.Gate{Name: circuit.OpMeasure, Target: 0, Clbit: 1})
	res, err := SampleShotsCtx(context.Background(), numM(1e-12), c, ShotOptions{Shots: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for key := range res.Counts {
		// Key = c1 c0; c1 (post-reset read-out) must be 0.
		if key[0] != '0' {
			t.Errorf("post-reset measurement read 1 (key %q)", key)
		}
	}
	if res.Counts["00"] == 0 || res.Counts["01"] == 0 {
		t.Errorf("first measurement not random: %v", res.Counts)
	}
}

// TestShotsValidation covers the error paths of the engine entry point.
func TestShotsValidation(t *testing.T) {
	m := algM(core.NormLeft)
	bell := circuit.New("bell", 2).H(0).CX(0, 1)
	if _, err := SampleShotsCtx(context.Background(), m, bell, ShotOptions{Shots: 0, Seed: 1}); err == nil {
		t.Error("shots=0 accepted")
	}
	if _, err := SampleShotsCtx(context.Background(), m, bell, ShotOptions{Shots: 10, Strategy: "bogus"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	dyn := circuit.New("dyn", 1).H(0)
	dyn.Append(circuit.Gate{Name: circuit.OpMeasure, Target: 0, Clbit: 0})
	dyn.Append(circuit.Gate{Name: circuit.OpReset, Target: 0})
	if _, err := SampleShotsCtx(context.Background(), m, dyn, ShotOptions{Shots: 10, Strategy: StrategySample}); err == nil {
		t.Error("sample strategy accepted for a dynamic circuit")
	}
	wide := circuit.New("wide", 1)
	wide.Append(circuit.Gate{Name: circuit.OpMeasure, Target: 0, Clbit: 70})
	if _, err := SampleShotsCtx(context.Background(), m, wide, ShotOptions{Shots: 1}); err == nil {
		t.Error("creg wider than 64 bits accepted")
	}
}

// TestShotsCancellation: a pre-cancelled context stops both strategies.
func TestShotsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bell := circuit.New("bell", 2).H(0).CX(0, 1)
	if _, err := SampleShotsCtx(ctx, algM(core.NormLeft), bell, ShotOptions{Shots: 10, Seed: 1}); err == nil {
		t.Error("sample strategy ignored cancelled context")
	}
	if _, err := SampleShotsCtx(ctx, algM(core.NormLeft), bell, ShotOptions{Shots: 10, Seed: 1, Strategy: StrategyResimulate}); err == nil {
		t.Error("resimulate strategy ignored cancelled context")
	}
}

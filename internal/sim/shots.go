package sim

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
)

// The shots engine: repeated measurement of a circuit under a seeded
// deterministic RNG. Two strategies cover the two shapes of circuit:
//
//   - sample: for circuits that are a unitary prefix plus (optionally) a
//     trailing read-out block. The final state is built ONCE, a Sampler
//     hoists the subtree-mass pass, and every shot is an O(n) path draw.
//   - resimulate: for dynamic circuits — mid-circuit measurement, reset,
//     classical control. Each shot replays the circuit with projective
//     collapse at every measure/reset; the simulator is Reset between
//     shots so prepared local gates stay warm.
//
// Byte-identity contract: for a circuit where both strategies apply, the
// same (shots, seed) produces the same histogram under either strategy.
// Shot k always draws from ForkRNG(seed, k), and the draw discipline is
// fixed: one uniform per mid-circuit measure or reset, none for an op
// skipped by its classical condition, and a trailing read-out block (or a
// measurement-free circuit's final state) is resolved by one full n-level
// path draw. A serial run, a re-run, and any parallel split over shots all
// consume identical uniforms for shot k.

// Shot-execution strategies.
const (
	// StrategySample builds the final state once and draws all shots from
	// it. Only valid for non-dynamic circuits.
	StrategySample = "sample"
	// StrategyResimulate replays the circuit once per shot with projective
	// collapse. Valid for every circuit; required for dynamic ones.
	StrategyResimulate = "resimulate"
)

// shotCtxCheckEvery is the per-draw period of the cooperative context poll
// in the sample strategy (resimulation polls every shot — each is a full
// circuit replay).
const shotCtxCheckEvery = 64

// ShotOptions configures a shots run.
type ShotOptions struct {
	// Shots is the number of measurement repetitions; must be positive.
	Shots int
	// Seed selects the deterministic random stream. Any value is valid,
	// including 0; the caller decides whether 0 means "pick one" (the
	// server does, so unseeded jobs stay uncacheable).
	Seed int64
	// Strategy is "" or "auto" to pick by circuit shape, or one of
	// StrategySample / StrategyResimulate to force. Forcing
	// StrategySample on a dynamic circuit is an error.
	Strategy string
	// AutoPrune, when positive, enables the simulator's auto-prune policy
	// with this watermark (see Simulator.EnableAutoPrune).
	AutoPrune int
}

// ShotsResult is a completed shots run.
type ShotsResult struct {
	// Counts maps a measurement key to its occurrence count; values sum
	// to Shots. Keys are fixed-width binary strings: the classical
	// register (clbit 0 rightmost) when the circuit measures, the full
	// basis index (qubit 0 leftmost) when it does not.
	Counts map[string]int
	// Strategy is the strategy actually executed.
	Strategy string
	// Shots echoes the request.
	Shots int
	// KeyBits is the width of every key in Counts.
	KeyBits int
}

// ResolveStrategy maps a requested strategy to the one to execute for the
// given circuit, validating the combination.
func ResolveStrategy(c *circuit.Circuit, requested string) (string, error) {
	switch requested {
	case "", "auto":
		if c.Dynamic() {
			return StrategyResimulate, nil
		}
		return StrategySample, nil
	case StrategySample:
		if c.Dynamic() {
			return "", fmt.Errorf("sim: strategy %q requires a non-dynamic circuit (mid-circuit measurement, reset or classical control present); use %q",
				StrategySample, StrategyResimulate)
		}
		return StrategySample, nil
	case StrategyResimulate:
		return StrategyResimulate, nil
	}
	return "", fmt.Errorf("sim: unknown shot strategy %q", requested)
}

// SampleShotsCtx runs the shots pipeline for a circuit on a fresh
// simulator over m. Cancellation is polled between shots (and, via the
// manager, inside long diagram operations); budget errors from the
// manager surface unchanged, so Governed classifies them as usual.
func SampleShotsCtx[T any](ctx context.Context, m *core.Manager[T], c *circuit.Circuit, opt ShotOptions) (*ShotsResult, error) {
	if opt.Shots <= 0 {
		return nil, fmt.Errorf("sim: shots must be positive, got %d", opt.Shots)
	}
	if c.Cbits > 64 {
		return nil, fmt.Errorf("sim: %d classical bits exceed the 64-bit histogram key", c.Cbits)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	strategy, err := ResolveStrategy(c, opt.Strategy)
	if err != nil {
		return nil, err
	}
	if strategy == StrategySample {
		return sampleShots(ctx, m, c, opt)
	}
	return resimulateShots(ctx, m, c, opt)
}

// hasMeasure reports whether any op in the circuit is a measurement.
func hasMeasure(c *circuit.Circuit) bool {
	for _, g := range c.Gates {
		if g.IsMeasure() {
			return true
		}
	}
	return false
}

// setBit returns creg with classical bit i forced to b.
func setBit(creg uint64, i, b int) uint64 {
	creg &^= 1 << i
	creg |= uint64(b) << i
	return creg
}

// readoutKey resolves a trailing read-out block against a drawn basis
// index: each measure copies its qubit's bit (qubit 0 = MSB of idx) into
// its classical bit, on top of the creg accumulated so far.
func readoutKey(c *circuit.Circuit, from int, idx uint64, creg uint64) string {
	for _, g := range c.Gates[from:] {
		creg = setBit(creg, g.Clbit, int((idx>>(c.N-1-g.Target))&1))
	}
	return fmt.Sprintf("%0*b", c.Cbits, creg)
}

// sampleShots: one simulation, opt.Shots path draws.
func sampleShots[T any](ctx context.Context, m *core.Manager[T], c *circuit.Circuit, opt ShotOptions) (*ShotsResult, error) {
	s := New(m, c.N)
	if opt.AutoPrune > 0 {
		s.EnableAutoPrune(opt.AutoPrune)
	}
	if err := s.RunCtx(ctx, c.UnitaryPrefix(), nil); err != nil {
		return nil, err
	}
	sampler, err := m.NewSampler(s.State, c.N)
	if err != nil {
		return nil, fmt.Errorf("sim: final state is not sampleable: %w", err)
	}
	t := c.TrailingMeasures()
	res := &ShotsResult{
		Counts:   make(map[string]int),
		Strategy: StrategySample,
		Shots:    opt.Shots,
		KeyBits:  c.N,
	}
	if t < c.Len() {
		res.KeyBits = c.Cbits
	}
	for shot := 0; shot < opt.Shots; shot++ {
		if shot%shotCtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: cancelled at shot %d: %w", shot, err)
			}
		}
		idx, err := sampler.Draw(ForkRNG(opt.Seed, shot))
		if err != nil {
			return nil, err
		}
		if t < c.Len() {
			res.Counts[readoutKey(c, t, idx, 0)]++
		} else {
			res.Counts[fmt.Sprintf("%0*b", c.N, idx)]++
		}
	}
	return res, nil
}

// resimulateShots: one full circuit replay per shot, with projective
// collapse at measure/reset and the classical register gating conditioned
// ops. The trailing read-out block (or a measurement-free final state) is
// resolved by a single path draw, keeping the uniform stream aligned with
// the sample strategy.
func resimulateShots[T any](ctx context.Context, m *core.Manager[T], c *circuit.Circuit, opt ShotOptions) (*ShotsResult, error) {
	s := New(m, c.N)
	if opt.AutoPrune > 0 {
		s.EnableAutoPrune(opt.AutoPrune)
	}
	// Install the context into the manager for the whole run, as RunCtx
	// does per circuit.
	m.SetContext(ctx)
	defer m.SetContext(nil)
	t := c.TrailingMeasures()
	measured := hasMeasure(c)
	res := &ShotsResult{
		Counts:   make(map[string]int),
		Strategy: StrategyResimulate,
		Shots:    opt.Shots,
		KeyBits:  c.N,
	}
	if measured {
		res.KeyBits = c.Cbits
	}
	for shot := 0; shot < opt.Shots; shot++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: cancelled at shot %d: %w", shot, err)
		}
		rng := ForkRNG(opt.Seed, shot)
		s.Reset()
		var creg uint64
		for i, g := range c.Gates[:t] {
			if g.Cond != nil && !g.Cond.Holds(creg) {
				continue // a skipped op consumes no uniforms
			}
			var err error
			switch {
			case g.IsMeasure():
				var out int
				if out, err = s.MeasureQubit(g.Target, rng); err == nil {
					creg = setBit(creg, g.Clbit, out)
				}
			case g.IsReset():
				err = s.ResetQubit(g.Target, rng)
			default:
				bare := g
				bare.Cond = nil
				err = s.Apply(bare)
			}
			if err != nil {
				return nil, fmt.Errorf("sim: shot %d, op %d (%s): %w", shot, i, g, err)
			}
		}
		switch {
		case t < c.Len() || !measured:
			sampler, err := m.NewSampler(s.State, c.N)
			if err != nil {
				return nil, fmt.Errorf("sim: shot %d: final state is not sampleable: %w", shot, err)
			}
			idx, err := sampler.Draw(rng)
			if err != nil {
				return nil, fmt.Errorf("sim: shot %d: %w", shot, err)
			}
			if measured {
				res.Counts[readoutKey(c, t, idx, creg)]++
			} else {
				res.Counts[fmt.Sprintf("%0*b", c.N, idx)]++
			}
		default:
			res.Counts[fmt.Sprintf("%0*b", c.Cbits, creg)]++
		}
	}
	return res, nil
}

package sim

// Deterministic random-number generation for the shots pipeline.
//
// The engine must reproduce a histogram bit-for-bit given (circuit, shots,
// seed) — across runs, across hosts, and independent of how shots are
// scheduled. math/rand gives no such guarantee across Go versions, so the
// shots engine carries its own generator: splitmix64, a fixed published
// algorithm with a one-word state. Each shot draws from its own stream,
// forked from (seed, shot index), so executing shots in any order — or
// splitting them across workers — consumes exactly the same uniforms per
// shot as a serial run.

// goldenGamma is the splitmix64 state increment (2^64 / φ, odd).
const goldenGamma = 0x9e3779b97f4a7c15

// RNG is a splitmix64 generator; ForkRNG is its constructor.
type RNG struct {
	state uint64
}

// ForkRNG returns the generator for one shot's private stream. The +1
// keeps shot 0 of seed s off the bare seed state; the formula fixes every
// histogram, so it must not change.
func ForkRNG(seed int64, shot int) *RNG {
	return &RNG{state: uint64(seed) + (uint64(shot)+1)*goldenGamma}
}

// Uint64 advances the state by the golden gamma and returns the mixed
// output (splitmix64 finalizer).
func (r *RNG) Uint64() uint64 {
	r.state += goldenGamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform in [0, 1) with 53 random bits, the classic
// top-bits construction.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

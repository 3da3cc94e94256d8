package qasm_test

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/load"
	"repro/internal/qasm"
)

// goldenPins are hex digests of the canonical circuit encoding: the
// fingerprint, the middle chain link H_{n/2} and the last link H_n of every
// corpus program and of the lowered paper workloads. They are the on-disk
// cache keys, the checkpoint keys and the router's ring positions, so a
// change to the parser or the encoding that re-keys them fails here instead
// of silently orphaning every stored entry.
var goldenPins = []struct {
	name          string
	gates         int
	fp, mid, last string
}{
	{"adder4.qasm", 11, "8ec2c1f171ef589d96730016787b8b36215654763a03d19d85768ce1e6b7f078", "b906d26110ff6cd3ed15fbc45ccad2e2fa0f8977138d4cba60516768e202dbbe", "8ec2c1f171ef589d96730016787b8b36215654763a03d19d85768ce1e6b7f078"},
	{"parity.qasm", 12, "97534a69a5861f4c77021741675cc267494e3971152f16bddc653222ffe0229c", "f41a58aed5185c209914780ab35b5fb8a5b0769262b443c9d27c77e68464bf43", "97534a69a5861f4c77021741675cc267494e3971152f16bddc653222ffe0229c"},
	{"qft4.qasm", 10, "f0b81aadda9e6039e33e4ba9b26d494178c2086e60b7514e7555bbbe590f737a", "12a2d2e40097124dab1ab92a298f92f21d51f49b9d401005735ea9ba2849b12e", "f0b81aadda9e6039e33e4ba9b26d494178c2086e60b7514e7555bbbe590f737a"},
	{"teleport.qasm", 7, "4597414d24733457e7a1e96dfda719620cf4628f6c79cf0470641adb5173955e", "309c9d5580ba189e9dc1c79723545199abd6b658fca695dbcfa7b3c93d4e3b79", "4597414d24733457e7a1e96dfda719620cf4628f6c79cf0470641adb5173955e"},
	{"w_state.qasm", 6, "c56e09dfaaa6daebc0487d7e9bb354da2cb3491e9c6a4783df48c62b41d5d4ed", "ba068d502e5b5e6e8e2fc774fd43abdd15fb736fe1c77d354d2064d265ecd774", "c56e09dfaaa6daebc0487d7e9bb354da2cb3491e9c6a4783df48c62b41d5d4ed"},
	{"bwt6x60", 14341, "07cf6fedad77e874d9cd9b5a13f299f820cc7932fe7fbe2a433c58f235f87700", "dae483a15b806a43c3e49cc8c78e1a9c69ca9925b15e25a9e6a51734957b90a7", "07cf6fedad77e874d9cd9b5a13f299f820cc7932fe7fbe2a433c58f235f87700"},
	{"gse3b1", 805, "fe625a0eba35d9d0e283e68b24cde7a5e22ad9854c423d401d5df121d42d0c1f", "900d2fa94b9b7dc7b62d9f95bb734d8528857900204b2c5f32c5fcca06d13e4b", "fe625a0eba35d9d0e283e68b24cde7a5e22ad9854c423d401d5df121d42d0c1f"},
	{"grover8", 728, "b2f2c74d15ebaaecd79ff061ffef58ab0f1126f785bd40f5b5557c541892306d", "2c0cc1b9a588d6d98af8f79345fbc61aaa1d4e30784c50ebd0a805259b5e605e", "b2f2c74d15ebaaecd79ff061ffef58ab0f1126f785bd40f5b5557c541892306d"},
}

// workload is a lowered paper workload: the circuit as built and the
// OpenQASM text a client submits for it.
type workload struct {
	built *circuit.Circuit
	src   string
}

// workloads returns BWT 6×60, GSE and Grover-8 at bench.DefaultParams,
// lowered over clean ancillas so OpenQASM 2.0 can express them.
var workloads = sync.OnceValue(func() map[string]workload {
	p := bench.DefaultParams()
	gse, err := bench.GSECircuit(p)
	if err != nil {
		panic(err)
	}
	out := map[string]workload{}
	for name, c := range map[string]*circuit.Circuit{
		"bwt6x60": bench.BWTCircuit(p), "gse3b1": gse, "grover8": bench.GroverCircuit(p),
	} {
		low, err := load.Lower(c)
		if err != nil {
			panic(err)
		}
		var sb strings.Builder
		if err := qasm.Write(&sb, low); err != nil {
			panic(err)
		}
		out[name] = workload{built: low, src: sb.String()}
	}
	return out
})

// goldenCircuits returns every pinned circuit by name, each in the form the
// service hashes: parsed from OpenQASM text. The paper workloads' directly
// built form is returned under name+"/built" as well.
func goldenCircuits(t *testing.T) map[string]*circuit.Circuit {
	t.Helper()
	out := map[string]*circuit.Circuit{}
	files, err := filepath.Glob("testdata/*.qasm")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		c, err := qasm.Parse(string(raw), f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[filepath.Base(f)] = c
	}
	for name, w := range workloads() {
		parsed, err := qasm.Parse(w.src, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name], out[name+"/built"] = parsed, w.built
	}
	return out
}

// TestGoldenDigests pins the fingerprint and chain links of the corpus and
// the paper workloads to the values committed above.
func TestGoldenDigests(t *testing.T) {
	circs := goldenCircuits(t)
	if len(circs) != len(goldenPins)+3 {
		t.Fatalf("%d circuits for %d pins: the corpus changed, pin the new programs", len(circs), len(goldenPins))
	}
	hexOf := func(d circuit.Digest) string { return hex.EncodeToString(d[:]) }
	for _, pin := range goldenPins {
		forms := []string{pin.name}
		if _, ok := circs[pin.name+"/built"]; ok {
			forms = append(forms, pin.name+"/built")
		}
		for _, form := range forms {
			c := circs[form]
			if c == nil {
				t.Fatalf("%s: no such circuit", form)
			}
			if c.Len() != pin.gates {
				t.Fatalf("%s: %d gates, pinned %d", form, c.Len(), pin.gates)
			}
			chain := circuit.Chain(c)
			for _, link := range []struct{ what, got, want string }{
				{"fingerprint", hexOf(circuit.Fingerprint(c)), pin.fp},
				{"middle link", hexOf(chain[pin.gates/2]), pin.mid},
				{"last link", hexOf(chain[pin.gates]), pin.last},
			} {
				if link.got != link.want {
					t.Errorf("%s: %s %s, pinned %s", form, link.what, link.got, link.want)
				}
			}
		}
	}
}

// TestWorkloadsMatchReference runs the differential oracle on the paper
// workloads: the one-pass parser must build exactly the reference parser's
// circuit from each.
func TestWorkloadsMatchReference(t *testing.T) {
	for name, w := range workloads() {
		t.Run(name, func(t *testing.T) { qasm.CheckAgainstReference(t, w.src) })
	}
}

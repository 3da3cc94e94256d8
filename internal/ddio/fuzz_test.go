package ddio

import (
	"strings"
	"testing"

	"repro/internal/alg"
	"repro/internal/core"
	"repro/internal/num"
)

// FuzzRead drives the network-facing decode path with arbitrary bytes under
// tight limits and a small manager budget: whatever arrives, ReadMeta
// must return an error or a diagram — never panic, never allocate past the
// caps. Inputs that decode successfully must re-encode and decode to the
// identical root (decode/encode/decode fixpoint).
func FuzzRead(f *testing.F) {
	f.Add("qmdd v1 qomega 2\nn 0 1 0,0,0,1,0,1:t 0,0,0,0,0,1:t\nroot 0,0,0,1,0,1:0\n")
	f.Add("qmdd v1 qomega 0\nroot 0,0,0,1,0,1:t\n")
	f.Add("qmdd v1 complex128 1\nn 0 1 0x1p-01,0:t 0x1p-01,0:t\nroot 0x1p+00,0:0\n")
	f.Add("qmdd v1 qomega 2\nn 0 1 bad\n")
	f.Add("qmdd v1 qomega 2\nroot 0,0,0,1,0,1:7\n")
	f.Add("n 0 1\nroot\n")
	f.Add("qmdd v1 qomega 3\nn 0 3 0,0,0,1,0,1:t 0,0,0,0,0,1:t\nroot 0,0,0,1,0,1:0\n")
	f.Fuzz(func(t *testing.T, src string) {
		lim := Limits{MaxNodes: 256, MaxLineBytes: 1 << 12, MaxQubits: 16}
		for _, run := range []func() error{
			func() error {
				m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
				m.SetBudget(core.Budget{MaxNodes: 512, MaxWeights: 2048})
				root, qubits, _, err := ReadMeta(strings.NewReader(src), m, AlgCodec{}, lim, nil)
				if err != nil {
					return err
				}
				var sb strings.Builder
				if err := Write(&sb, m, AlgCodec{}, root, qubits); err != nil {
					t.Fatalf("re-encode of accepted input failed: %v", err)
				}
				root2, q2, _, err := ReadMeta(strings.NewReader(sb.String()), m, AlgCodec{}, lim, nil)
				if err != nil {
					t.Fatalf("re-decode of accepted input failed: %v\ninput: %q\nre-encoded: %q", err, src, sb.String())
				}
				if q2 != qubits || !m.RootsEqual(root, root2) {
					t.Fatalf("decode/encode/decode not a fixpoint for %q", src)
				}
				return nil
			},
			func() error {
				m := core.NewManager[complex128](num.NewRing(0), core.NormMax)
				m.SetBudget(core.Budget{MaxNodes: 512, MaxWeights: 2048})
				_, _, _, err := ReadMeta(strings.NewReader(src), m, NumCodec{}, lim, nil)
				return err
			},
		} {
			_ = run() // an error is a fine outcome; a panic is the bug
		}
	})
}

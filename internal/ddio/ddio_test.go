package ddio

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

func TestAlgRoundTripState(t *testing.T) {
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	c := algorithms.Grover(6, 11, 0)
	s := sim.New(m, 6)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, m, AlgCodec{}, s.State, 6); err != nil {
		t.Fatal(err)
	}
	got, qubits, _, err := ReadMeta(strings.NewReader(sb.String()), m, AlgCodec{}, Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qubits != 6 {
		t.Fatalf("qubits = %d", qubits)
	}
	if !m.RootsEqual(got, s.State) {
		t.Fatal("round trip changed the diagram")
	}
}

func TestAlgRoundTripMatrixIntoFreshManager(t *testing.T) {
	m1 := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	c := algorithms.BernsteinVazirani(4, 0b1011)
	u, err := sim.BuildUnitary(m1, c)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, m1, AlgCodec{}, u, c.N); err != nil {
		t.Fatal(err)
	}
	// Import into a manager with a *different* normalization scheme: the
	// semantics must survive re-canonicalization.
	m2 := core.NewManager[alg.Q](alg.Ring{}, core.NormGCD)
	got, _, _, err := ReadMeta(strings.NewReader(sb.String()), m2, AlgCodec{}, Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := sim.BuildUnitary(m2, c)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.RootsEqual(got, u2) {
		t.Fatal("imported unitary differs from a native rebuild")
	}
}

func TestNumRoundTrip(t *testing.T) {
	m := core.NewManager[complex128](num.NewRing(0), core.NormMax)
	c := algorithms.BWT(2, 5)
	s := sim.New(m, c.N)
	if err := s.Run(c, nil); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, m, NumCodec{}, s.State, c.N); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadMeta(strings.NewReader(sb.String()), m, NumCodec{}, Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.RootsEqual(got, s.State) {
		t.Fatal("numeric round trip changed the diagram")
	}
}

func TestZeroAndScalarDiagrams(t *testing.T) {
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	for _, e := range []core.Edge[alg.Q]{m.ZeroEdge(), m.Terminal(alg.NewQ(0, 0, 0, 3, 0, 1))} {
		var sb strings.Builder
		if err := Write(&sb, m, AlgCodec{}, e, 0); err != nil {
			t.Fatal(err)
		}
		got, _, _, err := ReadMeta(strings.NewReader(sb.String()), m, AlgCodec{}, Limits{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !m.RootsEqual(got, e) {
			t.Fatalf("scalar round trip changed %v", e)
		}
	}
}

func TestCodecProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ac := AlgCodec{}
	for i := 0; i < 200; i++ {
		v := func() int64 { return r.Int63n(1<<40) - 1<<39 }
		q := alg.NewQ(v(), v(), v(), v(), r.Intn(9)-4, 2*r.Int63n(1000)+1)
		got, err := ac.Decode(ac.Encode(q))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(q) {
			t.Fatalf("alg codec round trip: %v vs %v", got, q)
		}
	}
	nc := NumCodec{}
	for i := 0; i < 200; i++ {
		v := complex(r.NormFloat64(), r.NormFloat64())
		got, err := nc.Decode(nc.Encode(v))
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("num codec round trip: %v vs %v", got, v)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	cases := []string{
		"",
		"bogus header\n",
		"qmdd v1 complex128 3\nroot 0,0,0,0,0,1:t\n", // ring mismatch
		"qmdd v1 qomega 2\nn 0 1 bad\n",
		"qmdd v1 qomega 2\nn 5 1 0,0,0,1,0,1:t 0,0,0,0,0,1:t\n", // bad numbering
		"qmdd v1 qomega 2\nn 0 1 0,0,0,1,0,1:t 0,0,0,0,0,1:t\n", // missing root
		"qmdd v1 qomega 2\nroot 0,0,0,1,0,1:7\n",                // dangling ref
	}
	for _, src := range cases {
		if _, _, _, err := ReadMeta(strings.NewReader(src), m, AlgCodec{}, Limits{}, nil); err == nil {
			t.Fatalf("no error for %q", src)
		}
	}
}

// TestReadHardening is the table-driven malformed-input suite for the
// network-facing decode path: every hostile shape must come back as a
// descriptive error (never a panic), and the configurable caps must trip.
func TestReadHardening(t *testing.T) {
	one := "0,0,0,1,0,1"  // Q[ω] encoding of 1
	zero := "0,0,0,0,0,1" // Q[ω] encoding of 0
	vec := func(id, level int, c0, c1 string) string {
		return fmt.Sprintf("n %d %d %s %s\n", id, level, c0, c1)
	}
	cases := []struct {
		name string
		src  string
		lim  Limits
		want string // substring of the error
	}{
		{
			name: "duplicate index",
			src: "qmdd v1 qomega 2\n" +
				vec(0, 1, one+":t", zero+":t") +
				vec(0, 1, zero+":t", one+":t") +
				"root " + one + ":0\n",
			want: "consecutively without duplicates",
		},
		{
			name: "out of order index",
			src: "qmdd v1 qomega 2\n" +
				vec(1, 1, one+":t", zero+":t") +
				"root " + one + ":1\n",
			want: "consecutively without duplicates",
		},
		{
			name: "undefined child index",
			src: "qmdd v1 qomega 2\n" +
				vec(0, 2, one+":3", zero+":t") +
				"root " + one + ":0\n",
			want: "undefined node",
		},
		{
			name: "undefined root index",
			src:  "qmdd v1 qomega 2\nroot " + one + ":0\n",
			want: "undefined node",
		},
		{
			name: "negative child index",
			src: "qmdd v1 qomega 2\n" +
				vec(0, 1, one+":-1", zero+":t") +
				"root " + one + ":0\n",
			want: "undefined node",
		},
		{
			name: "child not below parent level",
			src: "qmdd v1 qomega 2\n" +
				vec(0, 2, one+":t", zero+":t") +
				vec(1, 2, one+":0", zero+":t") +
				"root " + one + ":1\n",
			want: "not below parent",
		},
		{
			name: "self reference",
			src: "qmdd v1 qomega 2\n" +
				vec(0, 1, one+":0", zero+":t") +
				"root " + one + ":0\n",
			want: "undefined node",
		},
		{
			name: "level above header qubits",
			src: "qmdd v1 qomega 2\n" +
				vec(0, 3, one+":t", zero+":t") +
				"root " + one + ":0\n",
			want: "exceeds the 2-qubit header",
		},
		{
			name: "mixed arity",
			src: "qmdd v1 qomega 2\n" +
				vec(0, 1, one+":t", zero+":t") +
				"n 1 2 " + one + ":0 " + zero + ":t " + zero + ":t " + zero + ":t\n" +
				"root " + one + ":1\n",
			want: "arity",
		},
		{
			name: "negative qubit count",
			src:  "qmdd v1 qomega -4\nroot " + one + ":t\n",
			want: "bad qubit count",
		},
		{
			name: "qubit cap",
			src:  "qmdd v1 qomega 100\nroot " + one + ":t\n",
			lim:  Limits{MaxQubits: 10},
			want: "exceeds cap 10",
		},
		{
			name: "node cap",
			src: "qmdd v1 qomega 3\n" +
				vec(0, 1, one+":t", zero+":t") +
				vec(1, 2, one+":0", zero+":t") +
				"root " + one + ":1\n",
			lim:  Limits{MaxNodes: 1},
			want: "exceeds cap 1",
		},
		{
			name: "line cap",
			src:  "qmdd v1 qomega 2\nn 0 1 " + strings.Repeat("9", 4096) + ",0,0,1,0,1:t " + zero + ":t\nroot " + one + ":0\n",
			lim:  Limits{MaxLineBytes: 256},
			want: "exceeds 256 bytes",
		},
		{
			name: "huge decimal level",
			src: "qmdd v1 qomega 2\n" +
				"n 0 99999999999999999999999 " + one + ":t " + zero + ":t\n" +
				"root " + one + ":0\n",
			want: "bad level",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
			_, _, _, err := ReadMeta(strings.NewReader(tc.src), m, AlgCodec{}, tc.lim, nil)
			if err == nil {
				t.Fatalf("no error for %q", tc.src)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadBudgetedManager pins the panic-free contract: a manager whose
// budget trips mid-decode yields a *core.BudgetError from ReadMeta, not a
// panic escaping into the server.
func TestReadBudgetedManager(t *testing.T) {
	src := buildGroverDump(t)
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	m.SetBudget(core.Budget{MaxNodes: 2})
	_, _, _, err := ReadMeta(strings.NewReader(src), m, AlgCodec{}, Limits{}, nil)
	if err == nil {
		t.Fatal("no error under a 2-node budget")
	}
	if !errors.Is(err, core.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// buildGroverDump serializes a 6-qubit Grover state for reuse in tests and
// as a fuzz seed.
func buildGroverDump(t *testing.T) string {
	t.Helper()
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	s := sim.New(m, 6)
	if err := s.Run(algorithms.Grover(6, 11, 0), nil); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, m, AlgCodec{}, s.State, 6); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestWriteDeepChain writes a 150,000-level chain under an 8 MiB goroutine
// stack ceiling: the writer's node order comes from core's iterative walk,
// where a per-level recursion overflowed the stack.
func TestWriteDeepChain(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(8 << 20))

	const depth = 150_000
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	e := m.OneEdge()
	for l := 1; l <= depth; l++ {
		e = m.MakeVectorNode(l, e, m.ZeroEdge())
	}
	var sb strings.Builder
	if err := Write(&sb, m, AlgCodec{}, e, depth); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != depth+2 || !strings.HasPrefix(lines[1], "n 0 1 ") || lines[len(lines)-1] != fmt.Sprintf("root %s:%d", AlgCodec{}.Encode(alg.QOne), depth-1) {
		t.Fatalf("wrote %d lines (first node %q, root %q), want %d with level 1 first and the root on node %d",
			len(lines), lines[1], lines[len(lines)-1], depth+2, depth-1)
	}
}

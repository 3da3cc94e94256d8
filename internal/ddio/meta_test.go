package ddio

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/alg"
	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/num"
	"repro/internal/sim"
)

func groverState(t *testing.T) (*core.Manager[alg.Q], core.Edge[alg.Q]) {
	t.Helper()
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	s := sim.New(m, 5)
	if err := s.Run(algorithms.Grover(5, 13, 0), nil); err != nil {
		t.Fatal(err)
	}
	return m, s.State
}

func TestMetaRoundTrip(t *testing.T) {
	m, state := groverState(t)
	meta := Meta{Repr: "alg", Norm: "left"}
	var sb strings.Builder
	if err := WriteMeta(&sb, m, AlgCodec{}, state, 5, meta); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "qmdd v2 qomega 5\nmeta repr=alg norm=left eps=0x0p+00\n") {
		t.Fatalf("unexpected v2 prelude:\n%s", sb.String()[:80])
	}

	// Unchecked read: meta comes back as stamped.
	got, qubits, gotMeta, err := ReadMeta(strings.NewReader(sb.String()), m, AlgCodec{}, Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qubits != 5 || !m.RootsEqual(got, state) {
		t.Fatal("v2 round trip changed the diagram")
	}
	if gotMeta.Version != FormatV2 || gotMeta.Repr != "alg" || gotMeta.Norm != "left" || gotMeta.Eps != 0 {
		t.Fatalf("meta = %+v", gotMeta)
	}

	// Checked read with the matching requirement succeeds.
	want := Meta{Repr: "alg", Norm: "left"}
	if _, _, _, err := ReadMeta(strings.NewReader(sb.String()), m, AlgCodec{}, Limits{}, &want); err != nil {
		t.Fatalf("matching requirement refused: %v", err)
	}

	// Plain Read still accepts v2 files (meta ignored).
	got2, _, _, err := ReadMeta(strings.NewReader(sb.String()), m, AlgCodec{}, Limits{}, nil)
	if err != nil || !m.RootsEqual(got2, state) {
		t.Fatalf("Read on v2 file: %v", err)
	}
}

func TestMetaMismatchTyped(t *testing.T) {
	m, state := groverState(t)
	var sb strings.Builder
	if err := WriteMeta(&sb, m, AlgCodec{}, state, 5, Meta{Repr: "alg", Norm: "left"}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		want  Meta
		field string
	}{
		{"repr", Meta{Repr: "float", Norm: "left"}, "repr"},
		{"norm", Meta{Repr: "alg", Norm: "gcd"}, "norm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := ReadMeta(strings.NewReader(sb.String()), m, AlgCodec{}, Limits{}, &tc.want)
			var mm *MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("want *MismatchError, got %v", err)
			}
			if mm.Field != tc.field {
				t.Fatalf("field = %q, want %q", mm.Field, tc.field)
			}
		})
	}
}

func TestMetaEpsCheckedOnlyForFloat(t *testing.T) {
	m := core.NewManager[complex128](num.NewRing(1e-6), core.NormMax)
	s := sim.New(m, 3)
	if err := s.Run(algorithms.Grover(3, 5, 0), nil); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteMeta(&sb, m, NumCodec{}, s.State, 3, Meta{Repr: "float", Norm: "max", Eps: 1e-6}); err != nil {
		t.Fatal(err)
	}
	// Same ε passes; a different ε is a typed refusal.
	ok := Meta{Repr: "float", Norm: "max", Eps: 1e-6}
	if _, _, _, err := ReadMeta(strings.NewReader(sb.String()), m, NumCodec{}, Limits{}, &ok); err != nil {
		t.Fatal(err)
	}
	bad := Meta{Repr: "float", Norm: "max", Eps: 1e-3}
	_, _, _, err := ReadMeta(strings.NewReader(sb.String()), m, NumCodec{}, Limits{}, &bad)
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "eps" {
		t.Fatalf("want eps mismatch, got %v", err)
	}

	// An alg requirement never compares ε (exact diagrams are ε-independent).
	ma, state := groverState(t)
	var sa strings.Builder
	if err := WriteMeta(&sa, ma, AlgCodec{}, state, 5, Meta{Repr: "alg", Norm: "left", Eps: 0.25}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sa.String(), "eps=0x0p+00") {
		t.Fatal("alg write did not normalize eps to 0")
	}
	wantAlg := Meta{Repr: "alg", Norm: "left", Eps: 0.5}
	if _, _, _, err := ReadMeta(strings.NewReader(sa.String()), ma, AlgCodec{}, Limits{}, &wantAlg); err != nil {
		t.Fatalf("alg eps difference must not refuse: %v", err)
	}
}

// TestMetaBackwardCompatV1 pins the compatibility contract: headerless v1
// files read fine without a requirement, and fail a requirement with a
// typed version mismatch (they certify nothing).
func TestMetaBackwardCompatV1(t *testing.T) {
	m, state := groverState(t)
	var v1 strings.Builder
	if err := Write(&v1, m, AlgCodec{}, state, 5); err != nil {
		t.Fatal(err)
	}
	got, qubits, meta, err := ReadMeta(strings.NewReader(v1.String()), m, AlgCodec{}, Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qubits != 5 || !m.RootsEqual(got, state) || meta.Version != FormatV1 {
		t.Fatalf("v1 read: qubits=%d meta=%+v", qubits, meta)
	}
	want := Meta{Repr: "alg", Norm: "left"}
	_, _, _, err = ReadMeta(strings.NewReader(v1.String()), m, AlgCodec{}, Limits{}, &want)
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "version" {
		t.Fatalf("want version mismatch for v1 under a requirement, got %v", err)
	}
}

func TestMetaMalformedV2(t *testing.T) {
	m := core.NewManager[alg.Q](alg.Ring{}, core.NormLeft)
	cases := []string{
		"qmdd v2 qomega 2\n",                                // missing meta record
		"qmdd v2 qomega 2\nroot 0,0,0,1,0,1:t\n",            // record where meta expected
		"qmdd v2 qomega 2\nmeta repr\n",                     // field without '='
		"qmdd v2 qomega 2\nmeta repr=alg eps=notafloat\n",   // bad eps
		"qmdd v3 qomega 2\nmeta repr=alg norm=left eps=0\n", // unknown version
	}
	for _, src := range cases {
		if _, _, _, err := ReadMeta(strings.NewReader(src), m, AlgCodec{}, Limits{}, nil); err == nil {
			t.Errorf("accepted malformed input %q", src)
		}
	}
}

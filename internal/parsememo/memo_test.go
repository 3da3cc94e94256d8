package parsememo

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/qasm"
	"repro/internal/qasm/qasmtest"
)

// TestMemoMatchesParse: for every corpus program, the first lookup, a memo
// hit and a fresh qasm.Parse agree on the fingerprint and on the stripped
// form's fingerprint; a failing source returns the fresh parse's error, line
// included, on every resubmission and never enters the memo.
func TestMemoMatchesParse(t *testing.T) {
	for i, src := range qasmtest.Corpus(t) {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			m := New()
			fresh, ferr := qasm.Parse(src, "fresh")
			if ferr != nil {
				for try := 0; try < 3; try++ {
					p, err := m.Parse(src, "request")
					if p != nil || err == nil || err.Error() != ferr.Error() {
						t.Fatalf("try %d: got (%v, %v), want error %v", try, p, err, ferr)
					}
					var pe, fpe *qasm.ParseError
					if errors.As(ferr, &fpe) && (!errors.As(err, &pe) || pe.Line != fpe.Line) {
						t.Fatalf("try %d: error %v lost its *ParseError line %d", try, err, fpe.Line)
					}
					if st := m.Stats(); st.Entries != 0 || st.Bytes != 0 {
						t.Fatalf("failed parse entered the memo: %+v", st)
					}
				}
				return
			}
			first, err := m.Parse(src, "first")
			if err != nil {
				t.Fatal(err)
			}
			hit, err := m.Parse(src, "second")
			if err != nil {
				t.Fatal(err)
			}
			if hit != first {
				t.Fatal("second lookup of one source is not a memo hit")
			}
			if st := m.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
				t.Fatalf("stats after miss+hit: %+v", st)
			}
			wantFP := circuit.Fingerprint(fresh)
			wantStripped := fresh.StripReadout()
			wantStFP := circuit.Fingerprint(wantStripped)
			for name, p := range map[string]*Parsed{"first": first, "hit": hit} {
				if p.Fingerprint() != wantFP {
					t.Errorf("%s: fingerprint differs from a fresh parse", name)
				}
				st, stFP := p.Stripped()
				if stFP != wantStFP || circuit.Fingerprint(st) != wantStFP {
					t.Errorf("%s: stripped fingerprint differs from a fresh parse", name)
				}
				if st.N != wantStripped.N || st.Cbits != wantStripped.Cbits || len(st.Gates) != len(wantStripped.Gates) {
					t.Errorf("%s: stripped shape (%d,%d,%d), want (%d,%d,%d)", name,
						st.N, st.Cbits, len(st.Gates), wantStripped.N, wantStripped.Cbits, len(wantStripped.Gates))
				}
			}
			// The hit carries the first request's label, and the label is
			// not part of the fingerprint.
			if hit.Circuit().Name != "first" || fresh.Name != "fresh" {
				t.Fatalf("names %q/%q", hit.Circuit().Name, fresh.Name)
			}
		})
	}
}

// TestMemoBound: the memo never holds more than MaxBytes, evicting least
// recently used sources; an evicted source parses again to an equal circuit.
func TestMemoBound(t *testing.T) {
	m := New()
	src := func(i int) string {
		return fmt.Sprintf("OPENQASM 2.0;\nqreg q[4];\n// program %d\n%s", i,
			strings.Repeat("h q[0];\ncx q[0],q[1];\nrz(0.25) q[2];\nccx q[0],q[1],q[3];\n", 4096))
	}
	first, err := m.Parse(src(0), "p0")
	if err != nil {
		t.Fatal(err)
	}
	perEntry := m.Stats().Bytes
	if perEntry < int64(len(first.Circuit().Gates))*64 {
		t.Fatalf("entry charged %d bytes for %d gates", perEntry, len(first.Circuit().Gates))
	}
	n := int(MaxBytes/perEntry) + 3
	for i := 1; i < n; i++ {
		if _, err := m.Parse(src(i), "p"); err != nil {
			t.Fatal(err)
		}
		if b := m.Stats().Bytes; b > MaxBytes {
			t.Fatalf("memo holds %d bytes, bound %d", b, MaxBytes)
		}
	}
	if st := m.Stats(); st.Entries >= n || st.Misses != uint64(n) {
		t.Fatalf("no eviction after %d distinct sources: %+v", n, st)
	}
	again, err := m.Parse(src(0), "p0")
	if err != nil {
		t.Fatal(err)
	}
	if again == first || again.Fingerprint() != first.Fingerprint() {
		t.Fatal("evicted source was not re-parsed to an equal circuit")
	}
}

// TestConcurrentMemoLookup: concurrent lookups of one source — the first
// ones racing to parse it, the rest hitting — all see one circuit and one
// set of fingerprints (the race detector checks the lazily computed ones).
func TestConcurrentMemoLookup(t *testing.T) {
	src := qasmtest.Corpus(t)[0]
	fresh, err := qasm.Parse(src, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	want := circuit.Fingerprint(fresh)
	_, wantSt := (&Parsed{circ: fresh}).Stripped()
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p, err := m.Parse(src, "request")
				if err != nil {
					t.Error(err)
					return
				}
				if _, st := p.Stripped(); p.Fingerprint() != want || st != wantSt {
					t.Error("concurrent lookup saw a different fingerprint")
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := m.Stats(); st.Entries != 1 || st.Hits+st.Misses != 16*20 {
		t.Fatalf("stats %+v", st)
	}
}

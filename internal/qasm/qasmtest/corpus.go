// Package qasmtest serves the OpenQASM test corpus to the tests of every
// package that takes request sources: the programs under
// internal/qasm/testdata and the parser's fuzz seeds. The seeds live in
// testdata/seeds.json: Bell pairs, nested gate definitions, classical
// control and reset, parameter expressions, a recursive and a
// duplicate-formal definition, and programs that apply a gate to one qubit
// twice (which Parse must reject).
package qasmtest

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Corpus returns the testdata programs in file-name order, then the fuzz
// seeds in their stored order — the order FuzzParse adds them in.
func Corpus(t testing.TB) []string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("qasmtest: cannot locate the corpus")
	}
	dir := filepath.Join(filepath.Dir(self), "..", "testdata")
	files, err := filepath.Glob(filepath.Join(dir, "*.qasm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("qasmtest: no testdata programs: %v", err)
	}
	var srcs []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(raw))
	}
	raw, err := os.ReadFile(filepath.Join(dir, "seeds.json"))
	if err != nil {
		t.Fatal(err)
	}
	var seeds []string
	if err := json.Unmarshal(raw, &seeds); err != nil {
		t.Fatalf("qasmtest: seeds.json: %v", err)
	}
	return append(srcs, seeds...)
}

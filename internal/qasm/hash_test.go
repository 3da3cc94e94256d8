package qasm

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/circuit"
)

// fingerprint parses src and returns the fingerprint of the circuit it
// denotes: the parse is the canonicalization step, so comments,
// whitespace, register names, include statements and gate-macro structure
// never reach the hash.
func fingerprint(src string) (circuit.Digest, error) {
	c, err := Parse(src, "fingerprint")
	if err != nil {
		return circuit.Digest{}, err
	}
	return circuit.Fingerprint(c), nil
}

// TestFingerprintCanonicalization proves the cache-key property: every
// presentational variant of a program hashes identically, and every
// semantic change hashes differently.
func TestFingerprintCanonicalization(t *testing.T) {
	base := "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"

	equivalent := []struct {
		name, src string
	}{
		{"comments", "OPENQASM 2.0;\n// a Bell pair\ninclude \"qelib1.inc\";\nqreg q[2]; // two qubits\nh q[0];\ncx q[0],q[1]; // entangle\n"},
		{"whitespace", "OPENQASM 2.0;include \"qelib1.inc\";\n\n\n  qreg q[2] ;\n\th  q[0]\t;\r\n   cx q[0] , q[1];"},
		{"register rename", "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg data[2];\nh data[0];\ncx data[0],data[1];\n"},
		{"split registers", "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg a[1];\nqreg b[1];\nh a[0];\ncx a[0],b[0];\n"},
		{"no include", "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"},
	}
	distinct := []struct {
		name, src string
	}{
		{"different gate", "OPENQASM 2.0;\nqreg q[2];\nx q[0];\ncx q[0],q[1];\n"},
		{"different target", "OPENQASM 2.0;\nqreg q[2];\nh q[1];\ncx q[0],q[1];\n"},
		{"swapped control/target", "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[1],q[0];\n"},
		{"gate order", "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\nh q[0];\n"},
		{"extra gate", "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nt q[1];\n"},
		{"wider register", "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n"},
		{"different angle", "OPENQASM 2.0;\nqreg q[2];\nrz(0.5) q[0];\ncx q[0],q[1];\n"},
		{"other angle", "OPENQASM 2.0;\nqreg q[2];\nrz(0.25) q[0];\ncx q[0],q[1];\n"},
		// Classical structure is semantic since the shots pipeline: a creg
		// changes the histogram key width, a measure changes the output
		// distribution, a condition changes the evolution.
		{"creg", "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"},
		{"trailing measure", "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n"},
		{"mid-circuit measure", "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\ncx q[0],q[1];\n"},
		{"other clbit", "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[1];\ncx q[0],q[1];\n"},
		{"conditioned", "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nif(c==1) cx q[0],q[1];\n"},
		{"other condition value", "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q[0] -> c[0];\nif(c==2) cx q[0],q[1];\n"},
		{"reset", "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nreset q[0];\ncx q[0],q[1];\n"},
	}

	want, err := fingerprint(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range equivalent {
		got, err := fingerprint(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s: fingerprint differs from the base program", tc.name)
		}
	}
	// All distinct programs must differ from the base AND from each other.
	seen := map[[32]byte]string{want: "base"}
	for _, tc := range distinct {
		got, err := fingerprint(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: fingerprint collides with %q", tc.name, prev)
		}
		seen[got] = tc.name
	}
}

// TestFingerprintCorpus hashes the checked-in QASM corpus: every file must
// produce a distinct, stable fingerprint, and re-parsing must reproduce it.
func TestFingerprintCorpus(t *testing.T) {
	files, err := filepath.Glob("testdata/*.qasm")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty corpus")
	}
	seen := map[[32]byte]string{}
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		fp, err := fingerprint(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[fp] = name
		again, err := fingerprint(src)
		if err != nil || again != fp {
			t.Errorf("%s: fingerprint not stable across parses", name)
		}
	}
}

// TestFingerprintControlOrder pins the control-set canonicalization at the
// circuit level: listing a Toffoli's controls in either order is the same
// gate, negative controls are not.
func TestFingerprintControlOrder(t *testing.T) {
	a := circuit.New("a", 3).Append(circuit.Gate{Name: "x", Target: 2,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1}}})
	b := circuit.New("b", 3).Append(circuit.Gate{Name: "x", Target: 2,
		Controls: []circuit.Control{{Qubit: 1}, {Qubit: 0}}})
	if circuit.Fingerprint(a) != circuit.Fingerprint(b) {
		t.Error("control listing order changed the fingerprint")
	}
	neg := circuit.New("c", 3).Append(circuit.Gate{Name: "x", Target: 2,
		Controls: []circuit.Control{{Qubit: 0, Neg: true}, {Qubit: 1}}})
	if circuit.Fingerprint(a) == circuit.Fingerprint(neg) {
		t.Error("negative control did not change the fingerprint")
	}
	named := circuit.New("renamed", 3).Append(circuit.Gate{Name: "x", Target: 2,
		Controls: []circuit.Control{{Qubit: 0}, {Qubit: 1}}})
	if circuit.Fingerprint(a) != circuit.Fingerprint(named) {
		t.Error("circuit name leaked into the fingerprint")
	}
}

package router

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/parsememo"
	"repro/internal/qasm"
)

const routeBase = "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n"

// memoRouter is the part of a Router the ring-key functions use.
func memoRouter() *Router { return &Router{memo: parsememo.New()} }

func marshalBody(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchRouteKeyColocatesWithPrefix: a base-form batch derives the same
// ring key as a solo submission of the base circuit, so the batch lands on
// the worker whose cache already holds (or will hold) the prefix state.
func TestBatchRouteKeyColocatesWithPrefix(t *testing.T) {
	rt := memoRouter()
	batch := marshalBody(t, map[string]any{
		"base":     routeBase,
		"suffixes": []string{"OPENQASM 2.0;\nqreg q[2];\nt q[0];\n"},
	})
	solo := marshalBody(t, map[string]any{"qasm": routeBase})
	if !bytes.Equal(rt.batchRouteKey(batch), rt.routeKey(solo)) {
		t.Error("base-form batch does not co-locate with a solo job of its base circuit")
	}

	// A trailing read-out on the base must not move the batch: the solo path
	// strips it before fingerprinting, the batch path must too.
	measured := routeBase + "creg c[2];\nmeasure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
	batchMeasured := marshalBody(t, map[string]any{
		"base":     measured,
		"suffixes": []string{"OPENQASM 2.0;\nqreg q[2];\nt q[0];\n"},
	})
	if !bytes.Equal(rt.batchRouteKey(batchMeasured), rt.routeKey(solo)) {
		t.Error("read-out on the base changed the batch's ring key")
	}
}

// TestBatchRouteKeyVariantsForm: the variants form keys by the chain link of
// the discovered shared prefix, invariant under textual variation.
func TestBatchRouteKeyVariantsForm(t *testing.T) {
	rt := memoRouter()
	renamed := strings.ReplaceAll(routeBase, "q[", "data[")
	body := marshalBody(t, map[string]any{"variants": []string{
		routeBase + "t q[0];\n",
		renamed + "s data[0];\n",
	}})

	bc, err := qasm.Parse(routeBase, "base")
	if err != nil {
		t.Fatal(err)
	}
	link := circuit.Chain(bc)[bc.Len()]
	if !bytes.Equal(rt.batchRouteKey(body), link[:]) {
		t.Error("variants-form key is not the shared prefix's chain link")
	}

	// Same prefix expressed two ways → same key, different prefix → different.
	reordered := marshalBody(t, map[string]any{"variants": []string{
		renamed + "t data[0];\n",
		routeBase + "s q[0];\n",
	}})
	if !bytes.Equal(rt.batchRouteKey(body), rt.batchRouteKey(reordered)) {
		t.Error("textual variants of the same prefix derived different ring keys")
	}
	other := marshalBody(t, map[string]any{"variants": []string{
		"OPENQASM 2.0;\nqreg q[2];\nx q[0];\nt q[0];\n",
		"OPENQASM 2.0;\nqreg q[2];\nx q[0];\ns q[0];\n",
	}})
	if bytes.Equal(rt.batchRouteKey(body), rt.batchRouteKey(other)) {
		t.Error("different prefixes derived the same ring key")
	}
}

// TestBatchRouteKeyFallback: bodies the router cannot interpret hash
// verbatim — deterministic, but carrying no affinity claim.
func TestBatchRouteKeyFallback(t *testing.T) {
	rt := memoRouter()
	for name, body := range map[string][]byte{
		"garbage":            []byte("not json"),
		"unparsable base":    marshalBody(t, map[string]any{"base": "OPENQASM 2.0;\nqreg q[", "suffixes": []string{"x"}}),
		"unparsable variant": marshalBody(t, map[string]any{"variants": []string{"nope"}}),
		"empty":              marshalBody(t, map[string]any{}),
	} {
		want := sha256.Sum256(body)
		if got := rt.batchRouteKey(body); !bytes.Equal(got, want[:]) {
			t.Errorf("%s: fallback key is not the body hash", name)
		}
	}
}

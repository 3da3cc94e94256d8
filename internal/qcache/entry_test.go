package qcache

import (
	"bytes"
	"errors"
	"testing"
)

func TestEntryRoundTrip(t *testing.T) {
	st := Stamp{Repr: "float", Norm: "max", Eps: 1e-6}
	payload := []byte(`{"qubits":3}`)
	raw := EncodeEntry(payload, st)
	got, err := DecodeEntry(raw, st)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decode: %q, %v", got, err)
	}
	// Empty payloads round-trip too (a header-only envelope is valid).
	raw = EncodeEntry(nil, st)
	if got, err := DecodeEntry(raw, st); err != nil || len(got) != 0 {
		t.Fatalf("empty decode: %q, %v", got, err)
	}
}

func TestEntryRejections(t *testing.T) {
	st := Stamp{Repr: "alg", Norm: "left"}
	good := EncodeEntry([]byte("the payload"), st)
	cases := []struct {
		name string
		raw  []byte
		want Stamp
	}{
		{"empty", nil, st},
		{"no newline", []byte("qcache v1 repr=alg"), st},
		{"bad magic", []byte("qqqqqq v1 repr=alg norm=left eps=0x0p+00 len=0 sha256=\n"), st},
		{"future version", []byte("qcache v9 repr=alg norm=left eps=0x0p+00 len=0 sha256=\n"), st},
		{"stamp mismatch", good, Stamp{Repr: "float", Norm: "left"}},
		{"flipped payload byte", append(append([]byte{}, good[:len(good)-1]...), good[len(good)-1]^0xff), st},
		{"truncated", good[:len(good)-3], st},
		{"appended bytes", append(append([]byte{}, good...), 'x'), st},
		{"bad field", []byte("qcache v1 reprbroken\n"), st},
		{"bad eps", []byte("qcache v1 repr=alg norm=left eps=notafloat len=0 sha256=\n"), st},
		{"bad len", []byte("qcache v1 repr=alg norm=left eps=0x0p+00 len=-2 sha256=\n"), st},
	}
	for _, tc := range cases {
		_, err := DecodeEntry(tc.raw, tc.want)
		var ee *EntryError
		if err == nil || !errors.As(err, &ee) {
			t.Errorf("%s: err = %v, want *EntryError", tc.name, err)
		}
	}
}

// TestGetRawServesVerbatimEnvelope: the raw bytes a peer would serve decode
// on the receiving side exactly like a local disk read.
func TestGetRawServesVerbatimEnvelope(t *testing.T) {
	dir := t.TempDir()
	c, err := New(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	st := Stamp{Repr: "alg", Norm: "left"}
	payload := []byte(`{"state_nodes":4}`)
	c.Put(key(11), payload, st)

	raw, ok := c.GetRaw(key(11))
	if !ok {
		t.Fatal("GetRaw missed a stored entry")
	}
	got, err := DecodeEntry(raw, st)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("peer-side decode: %q, %v", got, err)
	}
	if _, ok := c.GetRaw(key(12)); ok {
		t.Fatal("GetRaw hit a missing key")
	}
	// Memory-only caches cannot vouch for envelopes: GetRaw is disk-only.
	memOnly, err := New(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	memOnly.Put(key(11), payload, st)
	if _, ok := memOnly.GetRaw(key(11)); ok {
		t.Fatal("memory-only cache served a raw envelope")
	}
	var nilCache *Cache
	if _, ok := nilCache.GetRaw(key(11)); ok {
		t.Fatal("nil cache served a raw envelope")
	}
}

// FuzzDecodeEntry: DecodeEntry reads untrusted bytes from disk and from
// peers. It must never panic, every rejection must be an *EntryError, and
// an accepted envelope must be exactly what EncodeEntry writes for the
// payload it returned.
func FuzzDecodeEntry(f *testing.F) {
	for _, st := range []Stamp{{Repr: "alg", Norm: "left"}, {Repr: "float", Norm: "max", Eps: 1e-10}} {
		good := EncodeEntry([]byte("the payload"), st)
		f.Add(good, st.Repr, st.Norm, st.Eps)
		f.Add(EncodeEntry(nil, st), st.Repr, st.Norm, st.Eps)
		f.Add(good[:len(good)-3], st.Repr, st.Norm, st.Eps)
		f.Add(bytes.Replace(good, []byte("repr="), []byte("repr= "), 1), st.Repr, st.Norm, st.Eps)
	}
	f.Add([]byte("qcache v1 norm=left repr=alg eps=0x0p+00 len=0 sha256=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n"), "alg", "left", 0.0)
	f.Add([]byte("qcache v1 repr=alg norm=left eps=-0 len=+0 sha256=e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n"), "alg", "left", 0.0)
	f.Fuzz(func(t *testing.T, raw []byte, repr, norm string, eps float64) {
		want := Stamp{Repr: repr, Norm: norm, Eps: eps}
		payload, err := DecodeEntry(raw, want)
		if err != nil {
			var ee *EntryError
			if !errors.As(err, &ee) {
				t.Fatalf("untyped error %v (%T)", err, err)
			}
			return
		}
		if again := EncodeEntry(payload, want); !bytes.Equal(again, raw) {
			t.Fatalf("accepted envelope does not re-encode to itself:\n got %q\nwant %q", raw, again)
		}
	})
}

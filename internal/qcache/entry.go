package qcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// The stamped-envelope format shared by the disk tier and the cache-peer
// protocol. An entry is a single header line
//
//	qcache v1 repr=<repr> norm=<norm> eps=<hexfloat> len=<n> sha256=<hex>
//
// followed by the payload bytes. The header is self-authenticating: the
// length and SHA-256 of the payload detect truncation, corruption and
// tampering, and the provenance fields refuse entries stamped for a
// different (repr, norm, ε) configuration. Because the envelope carries its
// own integrity check, a node can serve it to a ring peer verbatim — the
// receiving side validates with DecodeEntry exactly as it would a local disk
// file, so a malicious or corrupted peer can waste a fetch but never poison
// a cache.

// entryVersion is the envelope format version; unknown versions are refused
// so a future format change invalidates old caches (and old peers) cleanly.
const entryVersion = "v1"

// EntryError reports an envelope that cannot be decoded: wrong magic or
// version, stamped for a different configuration, truncated, or corrupt.
type EntryError struct {
	Reason string
}

func (e *EntryError) Error() string { return "qcache: entry: " + e.Reason }

// EncodeEntry renders payload as a stamped envelope (header line + payload).
func EncodeEntry(payload []byte, st Stamp) []byte {
	header := entryHeader(st, len(payload), sha256.Sum256(payload))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	out = append(out, payload...)
	return out
}

// entryHeader is the envelope's header line for an n-byte payload with
// SHA-256 sum, stamped st.
func entryHeader(st Stamp, n int, sum [sha256.Size]byte) string {
	return fmt.Sprintf("qcache %s repr=%s norm=%s eps=%s len=%d sha256=%s\n",
		entryVersion, st.Repr, st.Norm,
		strconv.FormatFloat(st.Eps, 'x', -1, 64), n, hex.EncodeToString(sum[:]))
}

// DecodeEntry parses and validates a stamped envelope, returning the payload.
// Every failure — bad magic, unknown version, provenance mismatch against
// want, length or checksum disagreement, a header EncodeEntry would not
// have written — is an *EntryError. An accepted envelope is byte for byte
// EncodeEntry(payload, want).
func DecodeEntry(raw []byte, want Stamp) ([]byte, error) {
	fail := func(format string, args ...any) ([]byte, error) {
		return nil, &EntryError{Reason: fmt.Sprintf(format, args...)}
	}
	nl := strings.IndexByte(string(raw), '\n')
	if nl < 0 {
		return fail("missing header line")
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) < 2 || fields[0] != "qcache" {
		return fail("bad magic %q", string(raw[:nl]))
	}
	if fields[1] != entryVersion {
		return fail("format version %q, want %q", fields[1], entryVersion)
	}
	payload := raw[nl+1:]
	header := entryHeader(want, len(payload), sha256.Sum256(payload))
	if header != string(raw[:nl+1]) {
		// A different stamp, length or checksum, or a header EncodeEntry
		// would not have written (reordered, repeated or unknown fields,
		// other spellings of the same numbers).
		return fail("header %q, want %q", string(raw[:nl]), header[:len(header)-1])
	}
	return payload, nil
}

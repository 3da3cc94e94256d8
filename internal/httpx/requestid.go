// Package httpx holds the HTTP plumbing shared by the qmddd worker
// transport and the qrouter front tier: request-id minting/propagation, the
// structured access log, JSON replies and the Prometheus text exposition.
// Keeping it transport-neutral means one id follows a request from the
// router edge through the worker to every log line and error envelope it
// produces, and both tiers put the same bytes on the wire.
package httpx

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// RequestIDHeader carries the per-exchange correlation id. The router mints
// one at the edge and forwards it; a worker reached directly mints its own.
// Every response echoes the header, every error envelope embeds it, and the
// access log keys on it — one id follows one request across the whole tier.
const RequestIDHeader = "X-Request-Id"

type requestIDKey struct{}

// NewRequestID mints a fresh request id ("r" + 16 hex chars).
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("httpx: request id entropy: %v", err))
	}
	return "r" + hex.EncodeToString(b[:])
}

// validRequestID accepts forwarded ids that are safe to echo into headers
// and logs: short, and free of whitespace/control bytes. Anything else is
// replaced rather than propagated.
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return true
}

// RequestIDFrom returns the exchange's request id ("" outside the
// middleware, e.g. in direct handler unit tests).
func RequestIDFrom(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// statusRecorder captures the status and size for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// accessLogMu serializes access-log lines: a Server's writer is typically
// os.Stderr shared with a router or a second worker in tests, and
// interleaved partial lines are worse than a cheap lock.
var accessLogMu sync.Mutex

// Logf writes one formatted line to logw under the shared access-log lock,
// so transport-level events (batch fan-out, for one) interleave cleanly with
// the per-exchange lines. No-op when logw is nil.
func Logf(logw io.Writer, format string, args ...any) {
	if logw == nil {
		return
	}
	line := fmt.Sprintf(format, args...)
	accessLogMu.Lock()
	_, _ = io.WriteString(logw, line)
	accessLogMu.Unlock()
}

// WithRequestID wraps next with the request-id and access-log middleware:
// adopt or mint the id, expose it via context and response header, and (when
// logw is non-nil) emit one logfmt line per exchange.
func WithRequestID(logw io.Writer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))

		if logw == nil {
			next.ServeHTTP(w, r)
			return
		}
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sr, r)
		status := sr.status
		if status == 0 {
			status = http.StatusOK
		}
		// The escaped path: a decoded one could carry a newline and forge
		// a second log line.
		line := fmt.Sprintf("time=%s request_id=%s method=%s path=%s status=%d bytes=%d duration_ms=%.3f\n",
			start.UTC().Format(time.RFC3339Nano), id, r.Method, r.URL.EscapedPath(), status, sr.bytes,
			float64(time.Since(start))/float64(time.Millisecond))
		accessLogMu.Lock()
		_, _ = io.WriteString(logw, line)
		accessLogMu.Unlock()
	})
}

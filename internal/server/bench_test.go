package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/circuit"
	"repro/internal/engine"
)

// BenchmarkWorkerHit times a worker's ServeHTTP answering a POST /v1/jobs
// that its in-memory result cache holds (primed by one simulation before
// timing): the body decode, the parse-memo lookup, the cache lookup and the
// reply. The bodies are lowered Grover-8 and lowered BWT 6×60 in alg, as
// perfbench's serve-zipf catalog sends them.
func BenchmarkWorkerHit(b *testing.B) {
	for _, job := range []struct {
		name string
		c    *circuit.Circuit
	}{{"grover8", algorithms.Grover(8, 37, 0)}, {"bwt", algorithms.BWT(6, 60)}} {
		body := fmt.Sprintf(`{"qasm": %q, "wait": true}`, loweredQASM(b, job.c))
		s, err := New(Config{Workers: 1, CacheBytes: 64 << 20, CheckpointEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		post := func(b *testing.B) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body)
			}
			return w
		}
		post(b) // the miss that simulates and fills the cache
		b.Run(job.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := post(b)
				var v engine.JobView
				if i == 0 && (json.Unmarshal(w.Body.Bytes(), &v) != nil || !v.Cached) {
					b.Fatalf("repeat was not a cache hit: %.200s", w.Body)
				}
			}
		})
		s.Shutdown(time.Minute)
	}
}

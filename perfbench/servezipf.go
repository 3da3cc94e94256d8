package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/httpx"
	"repro/internal/qcache"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/server"
)

// serve-zipf: an open loop at a fixed rate from one client process with at
// most nproc connections, through an in-process router in front of two
// in-process workers over loopback. Each worker has one worker goroutine,
// the memory cache on and checkpointing at its default.

const (
	serveRate        = 36.0   // requests per second
	serveP99LimitMS  = 1000.0 // declared p99 latency limit
	serveCacheBytes  = 64 << 20
	serveReplayHead  = 150 // schedule entries the traced replay sends
	serveClusterSize = 2
)

type cluster struct {
	servers []*server.Server
	rt      *router.Router
	https   []*http.Server
	wg      sync.WaitGroup
	url     string
	client  *http.Client
	tr      atomic.Pointer[tracer] // set once set-up is done: the warm-up is not traced
}

// startCluster brings up the workers and the router, each on its own
// loopback listener, and serves the catalog's head once so it is cached.
// With a tracer, the router's and the workers' ServeHTTP are timed after
// that.
func startCluster(tr *tracer, in *serveInputs, bodies [][]byte) (*cluster, error) {
	c := &cluster{client: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     runtime.NumCPU(),
			MaxIdleConnsPerHost: runtime.NumCPU(),
		},
	}}
	var urls []string
	for i := 0; i < serveClusterSize; i++ {
		srv, err := server.New(server.Config{Workers: 1, CacheBytes: serveCacheBytes})
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		u, err := c.serve(c.spanHandler("server.ServeHTTP", srv))
		if err != nil {
			c.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	rt, err := router.New(router.Config{Workers: urls})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	if c.url, err = c.serve(c.spanHandler("router.ServeHTTP", rt)); err != nil {
		c.close()
		return nil, err
	}
	for rank := 0; rank < serveWarmRanks; rank++ {
		rec := c.fire(in.Catalog[rank], bodies[rank], fmt.Sprintf("warm%d", rank), time.Now())
		if rec.err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up %s/%s: %w", in.Catalog[rank].Name, in.Catalog[rank].reprKey(), rec.err)
		}
	}
	c.tr.Store(tr)
	return c, nil
}

func (c *cluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	c.https = append(c.https, hs)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners (waiting for in-flight handlers), the router's
// prober and the workers' engines.
func (c *cluster) close() {
	c.client.CloseIdleConnections()
	if c.rt != nil {
		c.rt.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, hs := range c.https {
		_ = hs.Shutdown(ctx) // a handler still running after a minute is abandoned with the process
	}
	c.wg.Wait()
	for _, s := range c.servers {
		s.Shutdown(time.Minute)
	}
}

// spanHandler times next.ServeHTTP as one span keyed by the request id,
// for the benchmark's own requests (the router's readiness probes carry no
// request id) once the cluster's tracer is set.
func (c *cluster) spanHandler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr, rid := c.tr.Load(), r.Header.Get(httpx.RequestIDHeader)
		if tr == nil || rid == "" {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.begin(name, rid, 0)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// fire submits one job with "wait": true and times it from due.
func (c *cluster) fire(j job, body []byte, rid string, due time.Time) record {
	rec := record{job: j}
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(httpx.RequestIDHeader, rid)
	resp, err := c.client.Do(req)
	if err != nil {
		rec.err, rec.latency = err, time.Since(due)
		return rec
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.latency = time.Since(due)
	switch {
	case err != nil:
		rec.err = err
	case resp.StatusCode != http.StatusOK:
		rec.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	default:
		var v engine.JobView
		if err := json.Unmarshal(raw, &v); err != nil {
			rec.err = err
		} else {
			rec.setView(v)
			rec.view = &v
		}
	}
	return rec
}

// serveLoop fires the first n scheduled requests open-loop: request i is
// due at i/rate seconds, and the generator's lateness at each send is kept.
func serveLoop(c *cluster, in *serveInputs, bodies [][]byte, n int) (recs []record, late []float64, wall time.Duration) {
	n = min(n, len(in.Schedule))
	recs, late = make([]record, n), make([]float64, n)
	interval := time.Duration(float64(time.Second) / in.Rate)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			pick := in.Schedule[i]
			recs[i] = c.fire(in.Catalog[pick], bodies[pick], fmt.Sprintf("q%d", i), due)
			recs[i].due = due
		}(i, due)
	}
	wg.Wait()
	return recs, late, time.Since(start)
}

// linkSpans joins the client, router, worker and engine spans of each
// request by request id. Call it after the cluster is closed, when every
// handler span has ended.
func linkSpans(tr *tracer, recs []record) {
	for i, r := range recs {
		rid := fmt.Sprintf("q%d", i)
		root := tr.add("client.request", rid, 0, r.due, r.due.Add(r.latency))
		rt := tr.find("router.ServeHTTP", rid)
		tr.setParent(rt, root)
		srv := tr.find("server.ServeHTTP", rid)
		tr.setParent(srv, rt)
		if r.view != nil {
			engineSpans(tr, rid, srv, *r.view)
		}
	}
}

// serveMetrics derives the end-to-end metrics of a serve-zipf loop. Failed
// requests count as missing the latency limit. The rates are the gates and
// results delivered per second: in an open loop they equal the offered work
// while the system keeps up, and fall when it lags or fails requests. (The
// run time of a miss swings twofold with what else holds the two CPUs, so
// simulation speed is left to the per-layer sim.us_per_gate.)
func serveMetrics(recs []record, late []float64, wall time.Duration, rep *report) {
	var lat []float64
	gates, done := map[string]float64{}, map[string]float64{}
	misses := 0
	for _, r := range recs {
		l := ms(r.latency)
		if r.err != nil {
			l = ms(time.Minute)
		}
		lat = append(lat, l)
		if r.err != nil || r.res == nil {
			continue
		}
		key := r.job.reprKey()
		done[key]++
		gates[key] += float64(r.res.Gates)
		if !r.cached {
			misses++
		}
	}
	for _, key := range reprs {
		rep.set("gates_per_s."+key, ratio(gates[key], wall.Seconds()))
		if key != "float" { // variants/s is declared for alg and float0 only
			rep.set("variants_per_s."+key, ratio(done[key], wall.Seconds()))
		}
	}
	p99 := percentile(lat, 0.99)
	rep.set("latency_ms.p50", percentile(lat, 0.50))
	rep.set("latency_ms.p99", p99)
	rep.info["requests"] = len(recs)
	rep.info["misses"] = misses
	rep.info["p99_limit_ms"] = serveP99LimitMS
	rep.info["p99_within_limit"] = p99 <= serveP99LimitMS
	rep.info["lateness_ms_p99"] = percentile(late, 0.99)
	rep.info["lateness_ms_max"] = percentile(late, 1)
}

func runServeZipf(o opts, or *oracle, rep *report) error {
	in, err := serveZipfInputs(o.seed, serveRate, o.seconds)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(in.Catalog))
	for i, j := range in.Catalog {
		req := jobRequest(j)
		req.Wait = true
		if bodies[i], err = json.Marshal(req); err != nil {
			return err
		}
	}
	up := func(tr *tracer) func() (*cluster, error) {
		return func() (*cluster, error) { return startCluster(tr, in, bodies) }
	}
	if !o.trace {
		c, setup, err := timedSetup(up(nil), (*cluster).close)
		if err != nil {
			return err
		}
		recs, late, wall := serveLoop(c, in, bodies, len(in.Schedule))
		c.close()
		serveMetrics(recs, late, wall, rep)
		rep.set("setup_s", setup)
		rep.count(checkJobs(recs, or))
		return nil
	}
	cache, err := qcache.New(serveCacheBytes, "")
	if err != nil {
		return err
	}
	members := make([]string, serveClusterSize)
	for i := range members {
		members[i] = fmt.Sprintf("worker-%d", i)
	}
	return traced(o, or, rep, checkJobs, func(d time.Duration, tr *tracer) ([]record, error) {
		c, err := up(tr)()
		if err != nil {
			return nil, err
		}
		recs, late, _ := serveLoop(c, in, bodies, int(in.Rate*d.Seconds()))
		c.close()
		if tr != nil {
			linkSpans(tr, recs)
			var deduped uint64
			for _, s := range c.servers {
				deduped += s.Engine().Deduped()
			}
			rep.set("engine.dedup_ratio", ratio(float64(deduped), float64(len(recs))))
			rep.set("loadgen.lateness_ms.p99", percentile(late, 0.99))
		}
		return recs, nil
	}, func(rp *replayer) error {
		picks := make([]int, 0, serveWarmRanks+serveReplayHead)
		for rank := 0; rank < serveWarmRanks; rank++ {
			picks = append(picks, rank)
		}
		picks = append(picks, in.Schedule[:min(serveReplayHead, len(in.Schedule))]...)
		for i, p := range picks {
			if _, err := rp.job(fmt.Sprintf("x%d", i), in.Catalog[p]); err != nil {
				return err
			}
		}
		return nil
	}, newReplayer(cache, ring.New(members, 0)))
}

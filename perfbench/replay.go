package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/alg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/ddio"
	"repro/internal/engine"
	"repro/internal/num"
	"repro/internal/prefix"
	"repro/internal/qasm"
	"repro/internal/qcache"
	"repro/internal/ring"
	"repro/internal/sim"
)

// The replayer is the traced half of a traced run: it sends a fixed,
// seed-determined slice of the workload through the benchmark's own calls
// into each layer's public functions, in the order a served job meets them —
// route, parse, fingerprint, result cache, prefix probe, simulation with
// checkpoint stores, read-out, envelope encoding, cache store, scrub — and
// records a span around every call. Managers are private to the replayer
// and the replay is sequential, so every count it reports repeats exactly
// for a seed — except allocations, which Go's randomly seeded map hashing
// moves by up to 0.1%.

// Checkpoint policy and caps of the engine defaults.
const (
	checkpointEvery = 64
	checkpointBytes = 4 << 20
)

type reprStats struct {
	core          core.Stats    // table counters accumulated over jobs
	gates         int           // gates simulated (after any warm start)
	sim           time.Duration // simulation time, checkpoint stores excluded
	allocs, bytes uint64        // heap allocations during simulation
	peakNodes     int           // largest per-job peak of live nodes
	peakWeights   int           // largest per-job peak of interned weights
}

type replayer struct {
	tr    *tracer
	cache *qcache.Cache // nil: the workload runs with the cache off
	ring  *ring.Ring    // nil: the workload has no router

	algM *core.Manager[alg.Q]
	floM map[float64]*core.Manager[complex128]

	recs    []record
	byRepr  map[string]*reprStats
	family  map[string]time.Duration // family/repr → simulation time
	maxBits int

	parseBytes                int
	gets, hits                int
	probes, probeHits         int
	probedGates, skippedGates int
	checkpoints, cpBytes      int
	encBytes, decBytes        int
	encTime, decTime          time.Duration
}

func newReplayer(cache *qcache.Cache, rg *ring.Ring) *replayer {
	return &replayer{
		cache:  cache,
		ring:   rg,
		algM:   core.NewManager[alg.Q](alg.Ring{}, core.NormLeft),
		floM:   map[float64]*core.Manager[complex128]{},
		byRepr: map[string]*reprStats{},
		family: map[string]time.Duration{},
	}
}

func (rp *replayer) stats(key string) *reprStats {
	s := rp.byRepr[key]
	if s == nil {
		s = &reprStats{}
		rp.byRepr[key] = s
	}
	return s
}

func (rp *replayer) parse(rid string, parent int, src string) (*circuit.Circuit, error) {
	id := rp.tr.begin("qasm.Parse", rid, parent)
	c, err := qasm.Parse(src, "replay")
	rp.tr.end(id)
	rp.parseBytes += len(src)
	if err != nil {
		return nil, err
	}
	return c.StripReadout(), nil
}

func (rp *replayer) fingerprint(rid string, parent int, c *circuit.Circuit) circuit.Digest {
	id := rp.tr.begin("circuit.Fingerprint", rid, parent)
	defer rp.tr.end(id)
	return circuit.Fingerprint(c)
}

// job replays one submission of j.
func (rp *replayer) job(rid string, j job) (*engine.JobResult, error) {
	root := rp.tr.begin("job", rid, 0)
	defer rp.tr.end(root)
	if rp.ring != nil {
		route := rp.tr.begin("router.route", rid, root)
		c, err := rp.parse(rid, route, j.QASM)
		if err != nil {
			return nil, err
		}
		fp := rp.fingerprint(rid, route, c)
		id := rp.tr.begin("ring.Owner", rid, route)
		rp.ring.Owner(fp[:])
		rp.tr.end(id)
		rp.tr.end(route)
	}
	c, err := rp.parse(rid, root, j.QASM)
	if err != nil {
		return nil, err
	}
	res, err := rp.run(rid, root, j, c, rp.fingerprint(rid, root, c), "amplitudes")
	rp.recs = append(rp.recs, record{job: j, res: res, err: err})
	return res, err
}

// batch replays one base+suffixes batch the way engine.SubmitBatch runs it:
// the prefix once (output stats), then every variant.
func (rp *replayer) batch(rid string, index int, br batchRound, j job) error {
	root := rp.tr.begin("batch", rid, 0)
	defer rp.tr.end(root)
	base, err := rp.parse(rid, root, br.Base)
	if err != nil {
		return err
	}
	prefixJob := job{Name: "prefix", Family: j.Family, Repr: j.Repr, Eps: j.Eps}
	if _, err := rp.run(rid, root, prefixJob, base, rp.fingerprint(rid, root, base), "stats"); err != nil {
		return err
	}
	for i, src := range br.Suffixes {
		sc, err := rp.parse(rid, root, src)
		if err != nil {
			return err
		}
		v := &circuit.Circuit{N: base.N, Gates: append(append([]circuit.Gate{}, base.Gates...), sc.Gates...)}
		vrid := fmt.Sprintf("%s/v%d", rid, i)
		res, err := rp.run(vrid, root, j, v, rp.fingerprint(vrid, root, v), "amplitudes")
		rp.recs = append(rp.recs, record{job: j, res: res, err: err, batch: index, suffix: br.SuffixIDs[i]})
	}
	return nil
}

// run is the engine's submit-and-run path for a parsed circuit: result
// cache lookup, simulation on a miss, envelope encoding and cache store.
func (rp *replayer) run(rid string, parent int, j job, c *circuit.Circuit, fp circuit.Digest, output string) (*engine.JobResult, error) {
	ident := qcache.Identity{Circuit: fp, Repr: j.Repr, Norm: core.NormLeft.String(), Eps: j.Eps, Output: output, TopK: topK}
	if rp.cache != nil {
		id := rp.tr.begin("qcache.Cache.Get", rid, parent)
		payload, hit := rp.cache.Get(ident.Key(), ident.Stamp())
		rp.tr.end(id)
		rp.gets++
		if hit {
			rp.hits++
			var res engine.JobResult
			id := rp.tr.begin("json.Unmarshal", rid, parent)
			err := json.Unmarshal(payload, &res)
			rp.tr.end(id)
			return &res, err
		}
	}
	var res *engine.JobResult
	var err error
	if j.Repr == "alg" {
		res, err = simulate(rp, rid, parent, rp.algM, ddio.AlgCodec{}, j, c, output)
	} else {
		m := rp.floM[j.Eps]
		if m == nil {
			m = core.NewManager[complex128](num.NewRing(j.Eps), core.NormLeft)
			rp.floM[j.Eps] = m
		}
		res, err = simulate(rp, rid, parent, m, ddio.NumCodec{}, j, c, output)
	}
	if err != nil {
		return nil, err
	}
	id := rp.tr.begin("json.Marshal", rid, parent)
	payload, err := json.Marshal(res)
	rp.tr.end(id)
	if err != nil {
		return nil, err
	}
	if rp.cache != nil {
		id := rp.tr.begin("qcache.Cache.Put", rid, parent)
		rp.cache.Put(ident.Key(), payload, ident.Stamp())
		rp.tr.end(id)
	}
	return res, nil
}

// simulate runs one job on a warm manager as an engine worker does,
// including prefix probe and checkpoint stores when the cache is on, and
// scrubs the manager afterwards.
func simulate[T any](rp *replayer, rid string, parent int, m *core.Manager[T], codec ddio.Codec[T], j job, c *circuit.Circuit, output string) (*engine.JobResult, error) {
	tr, rs := rp.tr, rp.stats(j.reprKey())
	st0 := m.Stats() // a scrub clears the compute-table counters: accumulate per job
	m.ResetPeaks()
	s := sim.New(m, c.N)
	from := 0
	var ps *prefix.Store[T]
	var plan prefix.Plan
	if rp.cache != nil {
		id := tr.begin("circuit.Chain", rid, parent)
		plan = prefix.PlanOf(c)
		tr.end(id)
		ps = prefix.NewStore(rp.cache, j.Repr, j.Eps, core.NormLeft, codec)
		id = tr.begin("prefix.Store.Probe", rid, parent)
		k, st, ok := ps.Probe(m, plan, c.N)
		tr.end(id)
		rp.probes++
		rp.probedGates += c.Len()
		if ok {
			rp.probeHits++
			rp.skippedGates += k
			s.State, from = st, k
			decodeCheckpoint(rp, rid, parent, m, codec, j, plan.Links[k])
		}
	}

	var run int
	var hookTime time.Duration
	var hookAllocs, hookBytes uint64
	var hook func(int, circuit.Gate) bool
	if ps != nil {
		meta := ddio.Meta{Version: ddio.FormatV2, Repr: j.Repr, Norm: core.NormLeft.String(), Eps: storeEps(j)}
		tracker := prefix.Policy{EveryK: checkpointEvery, MaxBytes: checkpointBytes}.NewTracker(m.Stats().UniqueNodes)
		hook = func(i int, _ circuit.Gate) bool {
			k, nodes := i+1, m.Stats().UniqueNodes
			if !tracker.Should(k, plan.Boundary, nodes) {
				return true
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			h0 := time.Now()
			id := tr.begin("prefix.Store.Store", rid, run)
			n, err := ps.Store(m, s.State, plan.Links[k], c.N, checkpointBytes)
			tr.end(id)
			if err == nil && n > 0 {
				tracker.Stored(nodes)
				rp.checkpoints++
				rp.cpBytes += n
			}
			// The store's encode is not separable from its cache write, so
			// the codec's throughput is taken from one more encode.
			var buf bytes.Buffer
			id = tr.begin("ddio.WriteMeta", rid, run)
			e0 := time.Now()
			if ddio.WriteMeta(&buf, m, codec, s.State, c.N, meta) == nil {
				rp.encTime += time.Since(e0)
				rp.encBytes += buf.Len()
			}
			tr.end(id)
			hookTime += time.Since(h0)
			runtime.ReadMemStats(&m1)
			hookAllocs += m1.Mallocs - m0.Mallocs
			hookBytes += m1.TotalAlloc - m0.TotalAlloc
			return true
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run = tr.begin("sim.Simulator.RunFromCtx", rid, parent)
	t0 := time.Now()
	err := s.RunFromCtx(context.Background(), c, from, hook)
	elapsed := time.Since(t0)
	tr.end(run)
	runtime.ReadMemStats(&m1)
	rs.gates += c.Len() - from
	rs.sim += elapsed - hookTime
	rs.allocs += m1.Mallocs - m0.Mallocs - hookAllocs
	rs.bytes += m1.TotalAlloc - m0.TotalAlloc - hookBytes
	rp.family[j.Family+"/"+j.reprKey()] += elapsed - hookTime
	if err != nil {
		return nil, err
	}

	id := tr.begin("core.Manager.Stats", rid, parent)
	st1, pk := m.Stats(), m.Peak()
	rs.core.UniqueLookups += st1.UniqueLookups - st0.UniqueLookups
	rs.core.UniqueHits += st1.UniqueHits - st0.UniqueHits
	rs.core.CTLookups += st1.CTLookups - st0.CTLookups
	rs.core.CTHits += st1.CTHits - st0.CTHits
	rs.peakNodes = max(rs.peakNodes, pk.Nodes)
	rs.peakWeights = max(rs.peakWeights, pk.Weights)
	tr.end(id)
	if j.Repr == "alg" {
		rp.maxBits = max(rp.maxBits, m.MaxWeightBitLen(s.State))
	}
	var res *engine.JobResult
	if output == "stats" {
		res = &engine.JobResult{Qubits: c.N, Gates: c.Len(), Representation: j.Repr, Norm2: m.Norm2(s.State), StateNodes: s.State.NodeCount()}
	} else {
		id := tr.begin("core.Manager.TopOutcomes", rid, parent)
		res = resultOf(m, codec, s.State, c.N, c.Len(), j.Repr)
		tr.end(id)
	}
	res.ElapsedMS = ms(elapsed)

	id = tr.begin("core.Manager.Prune", rid, parent)
	m.SetBudget(core.Budget{})
	m.Prune()
	m.ResetPeaks()
	tr.end(id)
	return res, nil
}

// storeEps is the ε a checkpoint of j is stamped with (0 for alg).
func storeEps(j job) float64 {
	if j.Repr != "float" {
		return 0
	}
	return j.Eps
}

// decodeCheckpoint times one more decode of the checkpoint a probe just
// restored, into a scratch manager over m's ring, for the codec's read
// throughput.
func decodeCheckpoint[T any](rp *replayer, rid string, parent int, m *core.Manager[T], codec ddio.Codec[T], j job, link circuit.Digest) {
	ident := qcache.Identity{Circuit: link, Repr: j.Repr, Norm: core.NormLeft.String(), Eps: storeEps(j), Output: "state"}
	payload, ok := rp.cache.Get(ident.Key(), ident.Stamp())
	if !ok {
		return
	}
	scratch := core.NewManager[T](m.R, core.NormLeft, core.WithComputeTableSize(1<<10))
	id := rp.tr.begin("ddio.ReadMeta", rid, parent)
	t0 := time.Now()
	_, _, _, err := ddio.ReadMeta(bytes.NewReader(payload), scratch, codec, ddio.Limits{}, nil)
	if err == nil {
		rp.decTime += time.Since(t0)
		rp.decBytes += len(payload)
	}
	rp.tr.end(id)
}

// metrics reports the per-layer metrics the replay measured.
func (rp *replayer) metrics(rep *report) {
	total, _ := rp.tr.times()
	meanMS := func(name string) float64 { return mean(msOf(total[name])) }
	var parseTime time.Duration
	for _, d := range total["qasm.Parse"] {
		parseTime += d
	}
	rep.set("router.route_ms", meanMS("router.route"))
	rep.set("qasm.parse_ms", meanMS("qasm.Parse"))
	rep.set("qasm.parse_mb_per_s", ratio(float64(rp.parseBytes)/1e6, parseTime.Seconds()))
	rep.set("circuit.fingerprint_ms", meanMS("circuit.Fingerprint"))
	rep.set("circuit.chain_ms", meanMS("circuit.Chain"))
	rep.set("qcache.get_us", 1e3*meanMS("qcache.Cache.Get"))
	rep.set("qcache.put_us", 1e3*meanMS("qcache.Cache.Put"))
	rep.set("qcache.hit_ratio", ratio(float64(rp.hits), float64(rp.gets)))
	rep.set("qcache.bytes", float64(rp.cache.Stats().Bytes))
	rep.set("engine.result_decode_ms", meanMS("json.Unmarshal"))
	rep.set("engine.result_encode_ms", meanMS("json.Marshal"))
	rep.set("prefix.probe_ms", meanMS("prefix.Store.Probe"))
	rep.set("prefix.probe_hit_ratio", ratio(float64(rp.probeHits), float64(rp.probes)))
	rep.set("prefix.gates_skipped_ratio", ratio(float64(rp.skippedGates), float64(rp.probedGates)))
	rep.set("prefix.store_ms", meanMS("prefix.Store.Store"))
	rep.set("prefix.checkpoints", float64(rp.checkpoints))
	rep.set("prefix.checkpoint_bytes", float64(rp.cpBytes))
	rep.set("ddio.encode_mb_per_s", ratio(float64(rp.encBytes)/1e6, rp.encTime.Seconds()))
	rep.set("ddio.decode_mb_per_s", ratio(float64(rp.decBytes)/1e6, rp.decTime.Seconds()))
	rep.set("sim.scrub_ms", meanMS("core.Manager.Prune"))
	rep.set("alg.max_coeff_bits", float64(rp.maxBits))
	for _, f := range []string{"grover", "bwt", "gse"} {
		rep.set("alg.overhead."+f, ratio(float64(rp.family[f+"/alg"]), float64(rp.family[f+"/float"])))
	}
	for _, r := range reprs {
		rs := rp.stats(r)
		st := rs.core
		g := float64(rs.gates)
		rep.set("sim.us_per_gate."+r, ratio(float64(rs.sim)/float64(time.Microsecond), g))
		rep.set("core.unique_lookups."+r, float64(st.UniqueLookups))
		rep.set("core.unique_hit_ratio."+r, ratio(float64(st.UniqueHits), float64(st.UniqueLookups)))
		rep.set("core.ct_lookups."+r, float64(st.CTLookups))
		rep.set("core.ct_hit_ratio."+r, ratio(float64(st.CTHits), float64(st.CTLookups)))
		rep.set("core.interned_weights."+r, float64(rs.peakWeights))
		rep.set("core.peak_nodes."+r, float64(rs.peakNodes))
		rep.set("core.allocs_per_gate."+r, ratio(float64(rs.allocs), g))
		rep.set("core.bytes_per_gate."+r, ratio(float64(rs.bytes), g))
	}
}

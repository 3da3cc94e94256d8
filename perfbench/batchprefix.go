package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/qcache"
)

// batch-prefix: a closed loop, one batch at a time, against one in-process
// engine with two workers and the memory cache on. Each round draws a fresh
// Grover-8 prefix and submits the same 16 Clifford+T suffix variants as a
// base+suffixes batch in alg, float at ε=0 and float at ε=1e-10.

const batchCacheBytes = 64 << 20

// batchReprs is the submission order of a round's batches.
var batchReprs = []string{"alg", "float0", "float"}

type batchSys struct{ eng *engine.Engine }

// batchUp brings the engine up and runs one small warm-up batch (a Grover-6
// prefix) in each representation.
func batchUp() (*batchSys, error) {
	eng, err := engine.New(engine.Config{Workers: 2, CacheBytes: batchCacheBytes})
	if err != nil {
		return nil, err
	}
	s := &batchSys{eng: eng}
	g, err := groverJob(6, 9)
	if err != nil {
		s.close()
		return nil, err
	}
	qubits, err := qasmQubits(g.QASM)
	if err != nil {
		s.close()
		return nil, err
	}
	req := engine.BatchRequest{Base: g.QASM, TopK: topK}
	for i := 0; i < 4; i++ {
		req.Suffixes = append(req.Suffixes, batchSuffix(qubits, i))
	}
	for _, key := range batchReprs {
		j := g.withRepr(key)
		req.Representation, req.Eps = j.Repr, j.Eps
		b, serr := eng.SubmitBatch(req, "warm-"+key)
		if serr != nil {
			s.close()
			return nil, fmt.Errorf("warm-up batch: %w", serr)
		}
		<-b.Done()
	}
	return s, nil
}

func (s *batchSys) close() { s.eng.Shutdown(time.Minute) }

// batchJob is the job identity of a round's batch in one representation;
// its name keys the committed batch digest.
func batchJob(br batchRound, key string) job {
	return job{Name: fmt.Sprintf("batch/m=%d", br.Marked), Family: "grover", QASM: br.Base}.withRepr(key)
}

// batchLoop runs whole rounds until d has passed (at least one round). Each
// variant becomes one record carrying its batch's latency. gaps are the
// client's times from one batch's completion to the next submission.
func batchLoop(s *batchSys, rounds func(int) (batchRound, bool, error), d time.Duration, tr *tracer) (recs []record, gaps []float64, err error) {
	var prev time.Time
	start, bi := time.Now(), 0
	for r := 0; r == 0 || time.Since(start) < d; r++ {
		br, ok, err := rounds(r)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "perfbench: batch-prefix used every marked element; stopping early")
			break
		}
		for _, key := range batchReprs {
			j := batchJob(br, key)
			rid := fmt.Sprintf("b%d", bi)
			root := tr.begin("client.batch", rid, 0)
			t0 := time.Now()
			if !prev.IsZero() {
				gaps = append(gaps, ms(t0.Sub(prev)))
			}
			b, serr := s.eng.SubmitBatch(engine.BatchRequest{
				Base: br.Base, Suffixes: br.Suffixes, Representation: j.Repr, Eps: j.Eps, TopK: topK,
			}, rid)
			var v engine.BatchView
			if serr == nil {
				<-b.Done()
				v = b.View(true)
			}
			prev = time.Now()
			lat := prev.Sub(t0)
			tr.end(root)
			if v.Prefix != nil {
				engineSpans(tr, rid, root, *v.Prefix)
			}
			for i, id := range br.SuffixIDs {
				rec := record{job: j, round: r, batch: bi, suffix: id, latency: lat}
				switch {
				case serr != nil:
					rec.err = serr
				case i >= len(v.Variants) || v.Variants[i].Job == nil:
					rec.err = errors.New("variant refused")
					if i < len(v.Variants) && v.Variants[i].Error != nil {
						rec.err = errors.New(v.Variants[i].Error.Message)
					}
				default:
					rec.setView(*v.Variants[i].Job)
					engineSpans(tr, v.Variants[i].RequestID, root, *v.Variants[i].Job)
				}
				recs = append(recs, rec)
			}
			bi++
		}
	}
	return recs, gaps, nil
}

// batchMetrics derives the end-to-end metrics of a batch-prefix loop:
// rates per round over the batches' latency (a variant carries its batch's
// latency, so each counts a 1/16 share), and latency per batch.
func batchMetrics(recs []record, rep *report) {
	roundRates(recs, 1.0/batchVariants, rep)
	batchLat := map[int]float64{}
	for _, r := range recs {
		batchLat[r.batch] = ms(r.latency)
	}
	var lat []float64
	for _, l := range batchLat {
		lat = append(lat, l)
	}
	rep.set("latency_ms.p50", percentile(lat, 0.50))
	rep.set("latency_ms.p99", percentile(lat, 0.99))
	rep.info["batches"] = len(batchLat)
}

// checkBatches checks every variant. An exact batch passes only as a whole,
// against the committed digest of its 16 variants; a float variant is
// checked against the exact variant with the same suffix — from the run,
// or else from the reference simulator.
func checkBatches(recs []record, or *oracle) (attempted, failed int) {
	byBatch := map[int][]int{}
	var order []int
	for i, r := range recs {
		if _, ok := byBatch[r.batch]; !ok {
			order = append(order, r.batch)
		}
		byBatch[r.batch] = append(byBatch[r.batch], i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		// exact batches first, so float batches find their reference
		return recs[byBatch[order[a]][0]].job.Repr == "alg" && recs[byBatch[order[b]][0]].job.Repr != "alg"
	})
	exact := map[string][]*engine.JobResult{}
	bad := make([]bool, len(recs))
	for _, b := range order {
		idx := byBatch[b]
		j := recs[idx[0]].job
		if j.Repr == "alg" {
			byID, err := checkExactBatch(recs, idx, or)
			if err != nil {
				fmt.Fprintln(os.Stderr, "check:", err)
				for _, i := range idx {
					bad[i] = true
				}
				continue
			}
			exact[j.Name] = byID
			continue
		}
		ref, ok := exact[j.Name]
		if !ok {
			var err error
			if ref, err = referenceBatchAlg(j.QASM); err == nil {
				err = or.checkDigest(j.Name, batchDigest(ref))
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "check: reference:", err)
				for _, i := range idx {
					bad[i] = true
				}
				continue
			}
			exact[j.Name] = ref
		}
		for _, i := range idx {
			r := recs[i]
			err := r.err
			if err == nil {
				err = checkFloat(r.res, ref[r.suffix])
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "check: %s/%s/suffix %d: %v\n", j.Name, j.reprKey(), r.suffix, err)
				bad[i] = true
			}
		}
	}
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return len(recs), failed
}

// checkExactBatch checks one exact batch against its committed digest and
// returns its variant results by suffix family member.
func checkExactBatch(recs []record, idx []int, or *oracle) ([]*engine.JobResult, error) {
	name := recs[idx[0]].job.Name
	if len(idx) != batchVariants {
		return nil, fmt.Errorf("%s: %d variants, want %d", name, len(idx), batchVariants)
	}
	byID := make([]*engine.JobResult, batchVariants)
	for _, i := range idx {
		r := recs[i]
		if r.err != nil || r.res == nil {
			return nil, fmt.Errorf("%s: suffix %d: %v", name, r.suffix, r.err)
		}
		byID[r.suffix] = r.res
	}
	return byID, or.checkDigest(name, batchDigest(byID))
}

func runBatchPrefix(o opts, or *oracle, rep *report) error {
	rounds := batchRounds(o.seed)
	if !o.trace {
		s, setup, err := timedSetup(batchUp, (*batchSys).close)
		if err != nil {
			return err
		}
		recs, _, err := batchLoop(s, rounds, o.duration(), nil)
		s.close()
		if err != nil {
			return err
		}
		batchMetrics(recs, rep)
		rep.set("setup_s", setup)
		rep.count(checkBatches(recs, or))
		return nil
	}
	cache, err := qcache.New(batchCacheBytes, "")
	if err != nil {
		return err
	}
	return traced(o, or, rep, checkBatches, func(d time.Duration, tr *tracer) ([]record, error) {
		s, err := batchUp()
		if err != nil {
			return nil, err
		}
		recs, gaps, err := batchLoop(s, rounds, d, tr)
		if tr != nil {
			rep.set("engine.dedup_ratio", ratio(float64(s.eng.Deduped()), float64(len(recs))))
			rep.set("loadgen.lateness_ms.p99", percentile(gaps, 0.99))
		}
		s.close()
		return recs, err
	}, func(rp *replayer) error {
		br, _, err := rounds(0)
		if err != nil {
			return err
		}
		for i, key := range batchReprs {
			if err := rp.batch(fmt.Sprintf("x%d", i), i, br, batchJob(br, key)); err != nil {
				return err
			}
		}
		return nil
	}, newReplayer(cache, nil))
}

package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
)

// cold-sim: one client in a closed loop against one in-process engine with
// one worker and the cache off. Every job is a full simulation, so the
// round measures the number representations themselves.

type coldSys struct{ eng *engine.Engine }

// coldUp brings the engine up and runs a small warm-up job in each
// representation, so first-use costs land in set-up.
func coldUp() (*coldSys, error) {
	eng, err := engine.New(engine.Config{Workers: 1})
	if err != nil {
		return nil, err
	}
	s := &coldSys{eng: eng}
	w, err := groverJob(serveGroverQubits, 5)
	if err != nil {
		s.close()
		return nil, err
	}
	for _, r := range reprs {
		if _, err := submitWait(eng, w.withRepr(r)); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *coldSys) close() { s.eng.Shutdown(time.Minute) }

func jobRequest(j job) engine.JobRequest {
	return engine.JobRequest{QASM: j.QASM, Representation: j.Repr, Eps: j.Eps, TopK: topK}
}

// submitWait submits one job and waits for it to finish.
func submitWait(eng *engine.Engine, j job) (engine.JobView, error) {
	jb, serr := eng.Submit(jobRequest(j))
	if serr != nil {
		return engine.JobView{}, serr
	}
	<-jb.Done()
	v := jb.View(true)
	if v.Status != engine.StatusDone {
		return v, fmt.Errorf("%s: status %s", j.Name, v.Status)
	}
	return v, nil
}

// coldLoop runs whole rounds until d has passed (at least one round). It
// also returns the client's gaps: the time from one job's completion to the
// next submission, the closed loop's counterpart of generator lateness.
func coldLoop(s *coldSys, jobs []job, d time.Duration, tr *tracer) (recs []record, gaps []float64) {
	var prev time.Time
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for i, j := range jobs {
			rid := fmt.Sprintf("c%d.%d", round, i)
			root := tr.begin("client.job", rid, 0)
			t0 := time.Now()
			if !prev.IsZero() {
				gaps = append(gaps, ms(t0.Sub(prev)))
			}
			jb, serr := s.eng.Submit(jobRequest(j))
			rec := record{job: j, round: round}
			if serr != nil {
				rec.err = serr
			} else {
				<-jb.Done()
			}
			prev = time.Now()
			rec.latency = prev.Sub(t0)
			tr.end(root)
			if serr == nil {
				v := jb.View(true)
				rec.setView(v)
				engineSpans(tr, rid, root, v)
			}
			recs = append(recs, rec)
		}
	}
	return recs, gaps
}

// coldMetrics derives the end-to-end metrics of a cold-sim loop: rates per
// round over the client's wait for each job, and latency per round — the
// client's wait for its eight jobs. (Per job, the median would sit on the
// boundary between job types whose run times differ by 25%.)
func coldMetrics(recs []record, rep *report) {
	roundRates(recs, 1, rep)
	byRound := map[int]float64{}
	for _, r := range recs {
		byRound[r.round] += ms(r.latency)
	}
	var lat []float64
	for _, l := range byRound {
		lat = append(lat, l)
	}
	rep.set("latency_ms.p50", percentile(lat, 0.50))
	rep.set("latency_ms.p99", percentile(lat, 0.99))
	rep.info["jobs"] = len(recs)
}

func runColdSim(o opts, or *oracle, rep *report) error {
	jobs, err := coldSimRound(o.seed)
	if err != nil {
		return err
	}
	if !o.trace {
		s, setup, err := timedSetup(coldUp, (*coldSys).close)
		if err != nil {
			return err
		}
		recs, _ := coldLoop(s, jobs, o.duration(), nil)
		s.close()
		coldMetrics(recs, rep)
		rep.set("setup_s", setup)
		rep.count(checkJobs(recs, or))
		return nil
	}
	return traced(o, or, rep, checkJobs, func(d time.Duration, tr *tracer) ([]record, error) {
		s, err := coldUp()
		if err != nil {
			return nil, err
		}
		defer s.close()
		recs, gaps := coldLoop(s, jobs, d, tr)
		if tr != nil {
			rep.set("engine.dedup_ratio", ratio(float64(s.eng.Deduped()), float64(len(recs))))
			rep.set("loadgen.lateness_ms.p99", percentile(gaps, 0.99))
		}
		return recs, nil
	}, func(rp *replayer) error {
		for i, j := range jobs {
			if _, err := rp.job(fmt.Sprintf("x%d", i), j); err != nil {
				return err
			}
		}
		return nil
	}, newReplayer(nil, nil))
}
